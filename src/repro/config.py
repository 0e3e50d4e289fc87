"""Layered run configuration (``repro.config``).

One frozen, hashable :class:`RunConfig` holds every harness-level knob —
region length, warmup, worker count, trace-cache spill directory,
default variant token, result-store directory.  Values are resolved with
explicit layered precedence, **lowest to highest**:

1. built-in defaults (the dataclass field defaults);
2. an optional TOML/JSON config file (``--config-file`` or the
   ``REPRO_CONFIG`` env var);
3. ``REPRO_*`` environment variables, one per field: ``REPRO_`` plus the
   upper-cased field name;
4. explicit CLI flags / keyword arguments.

Resolution happens *per invocation*, never at import time: setting
``REPRO_INSTRUCTIONS`` after ``import repro`` (as tests with
``monkeypatch.setenv`` and spawn-start worker processes do) takes full
effect on the next :func:`resolve_config` call.  The resolved
:class:`RunConfig` is a plain frozen dataclass, so it pickles into worker
processes unchanged — a spawn-start worker sees the exact parent
configuration instead of re-reading whatever environment it inherited.

:func:`resolve_config` also reports per-field **provenance** (which layer
won), which ``repro config`` prints.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, NamedTuple, Optional, Tuple

try:  # Python 3.11+; on older interpreters TOML files are rejected with
    import tomllib  # a clear error and JSON config files still work
except ImportError:  # pragma: no cover - depends on interpreter version
    tomllib = None

#: Environment variable naming the config file (lowest-but-one layer).
CONFIG_FILE_ENV = "REPRO_CONFIG"

#: Provenance labels, lowest precedence first.
SOURCES = ("default", "file", "env", "flag")


@dataclass(frozen=True)
class RunConfig:
    """Resolved harness configuration: frozen, hashable, picklable.

    Two sessions holding equal ``RunConfig`` objects are interchangeable;
    the parallel runner relies on this to hand a worker process the exact
    parent configuration (and to reuse a warm session when one already
    exists for the same config).
    """

    #: Measured region length (instructions per cell).
    instructions: int = 12_000
    #: Training-only prefix preceding the measured region.
    warmup: int = 6_000
    #: Parallel experiment-runner worker processes (1 = serial).
    jobs: int = 1
    #: Directory for persistent trace-cache spills (None = memory only).
    trace_cache_dir: Optional[str] = None
    #: Default variant/BR-config token for single-run CLI flows.
    variant: str = "mini"
    #: Directory for the content-addressed sweep result store (None =
    #: no store: sweeps are neither written through nor resumable).
    result_store_dir: Optional[str] = None

    def validate(self) -> "RunConfig":
        if self.instructions < 1:
            raise ValueError("instructions must be >= 1, "
                             f"got {self.instructions}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        return self

    def replace(self, **changes: Any) -> "RunConfig":
        """Functional update (frozen dataclasses cannot be mutated)."""
        return dataclasses.replace(self, **changes).validate()

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    def fingerprint(self) -> str:
        """sha256 over the canonical JSON form: stable across processes.

        Two configs hash equal iff they are equal, so the fingerprint is
        usable as a content-address for baselines and run manifests — a
        baseline recorded under one config is only comparable to a rerun
        resolving to the same fingerprint.
        """
        import hashlib
        canonical = json.dumps(self.to_dict(), sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))


class ResolvedConfig(NamedTuple):
    """A resolved config plus where each field's value came from."""

    config: RunConfig
    provenance: Dict[str, str]
    config_file: Optional[str]


#: field name -> REPRO_* environment variable.
ENV_VARS: Dict[str, str] = {field: f"REPRO_{field.upper()}"
                            for field in RunConfig.field_names()}

#: Fields with an integer default take integers; the rest take strings
#: (None where the default is None).
INT_FIELDS = frozenset(field for field in RunConfig.field_names()
                       if isinstance(getattr(RunConfig, field), int))


def _coerce(field: str, value: Any, source: str) -> Any:
    """Coerce a raw layer value to the field's type with a clear error."""
    try:
        if field in INT_FIELDS:
            if isinstance(value, bool):
                raise ValueError("boolean is not an integer")
            return int(value)
        if value is None and getattr(RunConfig, field) is None:
            return None
        return str(value)
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"invalid value {value!r} for {field} (from {source}): "
            f"{error}") from None


def load_config_file(path: str) -> Dict[str, Any]:
    """Parse a TOML or JSON config file into a raw field dict.

    Format is chosen by extension (``.toml`` vs anything else = JSON).
    Unknown keys are an error — a typo that silently resolved to the
    default would be worse than a crash.
    """
    known = set(RunConfig.field_names())
    if path.endswith(".toml"):
        if tomllib is None:
            raise ValueError(
                f"cannot read {path}: TOML config files need Python 3.11+ "
                f"(tomllib); use a JSON config file instead")
        with open(path, "rb") as handle:
            raw = tomllib.load(handle)
    else:
        with open(path, "r") as handle:
            raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError(f"config file {path} must hold a table/object, "
                         f"got {type(raw).__name__}")
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(
            f"unknown config file key(s) {unknown} in {path}; "
            f"known fields: {sorted(known)}")
    return raw


def resolve_config(flags: Optional[Mapping[str, Any]] = None,
                   config_file: Optional[str] = None,
                   environ: Optional[Mapping[str, str]] = None
                   ) -> ResolvedConfig:
    """Resolve the effective :class:`RunConfig` with provenance.

    ``flags`` carries explicit CLI/keyword overrides (entries whose value
    is None are treated as "not given").  ``config_file`` overrides the
    ``REPRO_CONFIG`` env var; ``environ`` defaults to ``os.environ`` and
    exists so tests can resolve against a synthetic environment.
    """
    env = os.environ if environ is None else environ
    fields = RunConfig.field_names()
    values: Dict[str, Any] = {f: getattr(RunConfig, f) for f in fields}
    provenance: Dict[str, str] = {f: "default" for f in fields}

    path = config_file or env.get(CONFIG_FILE_ENV) or None
    if path:
        for field, raw in load_config_file(path).items():
            values[field] = _coerce(field, raw, f"file {path}")
            provenance[field] = "file"

    for field, var in ENV_VARS.items():
        raw = env.get(var)
        if raw:  # empty string behaves as unset, matching the pre-layered
            values[field] = _coerce(field, raw, f"env {var}")  # harness
            provenance[field] = "env"

    if flags:
        for field, raw in flags.items():
            if field not in values:
                raise ValueError(f"unknown config field {field!r}")
            if raw is None:
                continue
            values[field] = _coerce(field, raw, "flag")
            provenance[field] = "flag"

    config = RunConfig(**values).validate()
    return ResolvedConfig(config, provenance, path)


def current_config(environ: Optional[Mapping[str, str]] = None) -> RunConfig:
    """The effective config right now (defaults + file + env, no flags)."""
    return resolve_config(environ=environ).config
