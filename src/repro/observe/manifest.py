"""Run manifests: who produced this number, under exactly what config.

A manifest is the provenance stamp attached to every baseline file and
sweep journal.  It has two parts with different stability
contracts:

* the **deterministic part** — the resolved :class:`~repro.config.RunConfig`
  (values, its ``config_fingerprint``, per-field provenance) — is
  byte-stable under a fixed configuration: recording the same baseline
  twice on any host yields identical ``config``, ``config_fingerprint``
  and ``provenance`` entries, and ``repro sweep resume`` rebuilds a
  sweep's ``RunConfig`` from a journal's ``config``;
* the **host part** — git sha, interpreter, platform, peak RSS — varies
  run to run and exists for forensics, never for gating:
  :mod:`repro.observe.baseline` treats everything under ``host`` as
  informational.
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Optional

from repro.config import RunConfig
from repro.telemetry.timers import peak_rss_kb

MANIFEST_SCHEMA = "repro-manifest-v1"


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current git commit sha, or None outside a repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None
    return completed.stdout.strip() or None


def run_manifest(config: RunConfig) -> dict:
    """Build the manifest for a run under ``config``.

    Every caller passes the explicit :class:`~repro.config.RunConfig` its
    run used, so provenance reads ``explicit`` for every field.
    """
    provenance = {field: "explicit" for field in RunConfig.field_names()}
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "config": config.to_dict(),
        "config_fingerprint": config.fingerprint(),
        "provenance": provenance,
        "host": {
            "git_sha": git_revision(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "peak_rss_kb": peak_rss_kb(),
        },
    }
    return manifest
