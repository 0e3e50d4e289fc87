"""Sweep reports (``repro sweep report`` / ``sweep watch``).

Merges a ``repro-journal-v1`` sweep journal into a
``repro-sweep-report-v2`` document:

* **per-worker aggregates** — cells run, busy wall seconds, trace/result
  cache hits, peak-RSS delta high-water mark;
* **load balance** — busiest/idlest worker and the imbalance ratio
  (busiest / mean busy seconds), plus the slowest-N cells (the
  stragglers an ordered sweep serializes behind), each with its host
  phase split and dominant phase;
* **phases** — per-phase host seconds summed over the cells the sweep
  executed (:func:`exclusive_phases` of each ``cell_finished``
  ``phase_seconds``);
* **failure digest** — ``cell_failed`` events grouped by exception
  class, with the first message and the affected cells.

``report["ok"]`` is False — and the CLI exits nonzero — when the sweep
is incomplete or any cell failed.  A sweep's workers are the calling
process or a local pool that unpickles the parent's ``RunConfig`` and
runs the parent's interpreter, so the report compares no per-worker
provenance.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.observe.journal import format_progress, read_journal

SWEEP_REPORT_SCHEMA = "repro-sweep-report-v2"

#: Slowest-cell table length.
DEFAULT_SLOWEST = 10

#: Phases that run inside ``timing`` (see
#: :func:`repro.sim.simulator.simulate`).
NESTED_IN_TIMING = ("emulation", "dce")


# -- host phases -----------------------------------------------------------

def exclusive_phases(phase_seconds: Optional[dict]) -> Dict[str, float]:
    """A cell's journaled ``phase_seconds`` as exclusive phases.

    Names drop the gauges' ``_seconds`` suffix.  ``timing`` contains the
    :data:`NESTED_IN_TIMING` phases, so it is listed as ``timing_self``:
    the timing phase without them (the core model, memory hierarchy,
    Branch Runahead hooks and, in a cell that replayed its region from
    the trace cache, the replay, which books no ``emulation``).  The split sums to at most the journaled
    phases' total.
    """
    phases = {name.removesuffix("_seconds"): seconds
              for name, seconds in (phase_seconds or {}).items()}
    if "timing" in phases:
        nested = sum(phases.get(name, 0.0) for name in NESTED_IN_TIMING)
        phases["timing_self"] = max(0.0, phases.pop("timing") - nested)
    return phases


def _rounded(phases: Dict[str, float]) -> Dict[str, float]:
    return {name: round(seconds, 6) for name, seconds in phases.items()}


def _slow_cell(event: dict) -> dict:
    phases = exclusive_phases(event.get("phase_seconds"))
    return {"cell": f"{event['benchmark']}/{event['variant']}",
            "wall_seconds": event.get("wall_seconds"),
            "trace_cache_hit": event.get("trace_cache_hit"),
            "pid": event.get("pid"),
            "phases": _rounded(phases),
            "dominant_phase": (max(phases, key=phases.get)
                               if phases else None)}


# -- report building -------------------------------------------------------

def resume_command(journal_path: str) -> str:
    """The exact CLI invocation that resumes an interrupted sweep."""
    return f"python -m repro sweep resume {journal_path}"


def build_sweep_report(journal, slowest: int = DEFAULT_SLOWEST) -> dict:
    """Merge a journal (path or :func:`read_journal` dict) into a report."""
    if not isinstance(journal, dict):
        journal = read_journal(journal)
    events = journal["events"]
    sweep = events[0]

    workers: Dict[object, dict] = {}
    cells_finished: List[dict] = []
    cells_failed: List[dict] = []
    finished = None
    scheduler = None
    for event in events:
        kind = event["event"]
        if kind == "units_built":
            scheduler = {
                "executor": event.get("executor"),
                "units": event.get("units"),
                "jobs": event.get("jobs"),
                "resumed_cells": len(event.get("resumed_cells") or []),
            }
        elif kind == "worker_started":
            pid = event.get("pid")
            workers[pid] = {
                "pid": pid, "cells": 0, "wall_seconds": 0.0,
                "trace_cache_hits": 0, "result_cache_hits": 0,
                "peak_rss_kb_delta": 0,
            }
        elif kind in ("cell_finished", "cell_failed"):
            info = workers.get(event.get("pid"))
            if info is not None:
                info["cells"] += 1
                info["wall_seconds"] += event.get("wall_seconds") or 0.0
                if event.get("trace_cache_hit"):
                    info["trace_cache_hits"] += 1
                if event.get("result_cache_hit"):
                    info["result_cache_hits"] += 1
                rss = event.get("peak_rss_kb_delta")
                if rss:
                    info["peak_rss_kb_delta"] = max(
                        info["peak_rss_kb_delta"], rss)
            if kind == "cell_finished":
                cells_finished.append(event)
            else:
                cells_failed.append(event)
        elif kind == "sweep_finished":
            finished = event

    landed = len(cells_finished) + len(cells_failed)
    total = sweep.get("total_cells") or landed

    # failure digest: grouped by exception class
    failure_groups: Dict[str, dict] = {}
    for event in cells_failed:
        error = event.get("error") or {}
        kind = error.get("type") or "UnknownError"
        group = failure_groups.setdefault(kind, {
            "type": kind, "message": error.get("message"),
            "count": 0, "cells": [],
        })
        group["count"] += 1
        group["cells"].append(f"{event['benchmark']}/{event['variant']}")

    # load balance over worker busy time
    busy = [info["wall_seconds"] for info in workers.values()
            if info["cells"]]
    load = None
    if busy:
        mean = sum(busy) / len(busy)
        load = {
            "workers": len(busy),
            "busiest_seconds": round(max(busy), 6),
            "idlest_seconds": round(min(busy), 6),
            "mean_seconds": round(mean, 6),
            "imbalance": round(max(busy) / mean, 3) if mean > 0 else None,
        }

    slowest_cells = [
        _slow_cell(event)
        for event in sorted(cells_finished + cells_failed,
                            key=lambda e: -(e.get("wall_seconds") or 0.0)
                            )[:slowest]
    ]
    # only executed cells journal phase_seconds
    phases: Dict[str, float] = {}
    for event in cells_finished:
        for name, seconds in exclusive_phases(
                event.get("phase_seconds")).items():
            phases[name] = phases.get(name, 0.0) + seconds

    hits = sum(1 for event in cells_finished
               if event.get("trace_cache_hit"))
    store_hits = sum(1 for event in cells_finished
                     if event.get("result_store_hit"))
    resumable = not journal["complete"] and not cells_failed
    journal_path = journal.get("path")
    report = {
        "schema": SWEEP_REPORT_SCHEMA,
        "journal": journal_path,
        "sweep": {
            "sweep_id": sweep.get("sweep_id"),
            "jobs": sweep.get("jobs"),
            "outputs": sweep.get("outputs"),
            "executor": sweep.get("executor"),
            "total_cells": total,
            "cells_done": len(cells_finished),
            "cells_failed": len(cells_failed),
            "complete": journal["complete"],
            "truncated": journal["truncated"],
            "malformed_lines": journal["malformed_lines"],
            "wall_seconds": (finished or {}).get("wall_seconds"),
            "trace_cache_hit_rate": (round(hits / landed, 4)
                                     if landed else None),
            "result_store_hits": store_hits,
            "resumable": resumable,
            "resume_command": (resume_command(journal_path)
                               if resumable and journal_path else None),
        },
        "scheduler": scheduler,
        "workers": [workers[pid] for pid in sorted(
            workers, key=lambda value: (value is None, value))],
        "load": load,
        "slowest_cells": slowest_cells,
        "phases": _rounded(phases),
        "failures": sorted(failure_groups.values(),
                           key=lambda group: group["type"]),
    }
    report["ok"] = journal["complete"] and not cells_failed
    return report


# -- rendering -------------------------------------------------------------

def format_sweep_report(report: dict) -> str:
    """Human-readable ``repro sweep report`` rendering."""
    sweep = report["sweep"]
    state = "complete" if sweep["complete"] else "INCOMPLETE"
    hit_rate = sweep["trace_cache_hit_rate"]
    lines = [
        f"sweep report: {sweep['cells_done']}/{sweep['total_cells']} "
        f"cells done, {sweep['cells_failed']} failed, jobs="
        f"{sweep['jobs']}, {state}"
        + (f", trace-hit {100 * hit_rate:.0f}%"
           if hit_rate is not None else ""),
    ]
    if sweep["wall_seconds"] is not None:
        lines[-1] += f", {sweep['wall_seconds']:.3f}s wall"
    scheduler = report.get("scheduler")
    if scheduler:
        lines.append(
            f"  sched   : executor={scheduler['executor']} "
            f"{scheduler['units']} unit(s)"
            + (f", {scheduler['resumed_cells']} cell(s) resumed from store"
               if scheduler["resumed_cells"] else ""))
    for info in report["workers"]:
        lines.append(
            f"  worker {info['pid']}: {info['cells']} cell(s), "
            f"{info['wall_seconds']:.3f}s busy, "
            f"{info['trace_cache_hits']} trace hit(s)")
    load = report["load"]
    if load and load["workers"] > 1:
        lines.append(
            f"  load: imbalance {load['imbalance']}x "
            f"(busiest {load['busiest_seconds']:.3f}s, idlest "
            f"{load['idlest_seconds']:.3f}s)")
    for group in report["failures"]:
        lines.append(
            f"  FAILED   {group['count']} cell(s) with {group['type']}: "
            f"{group['message']} ({', '.join(group['cells'])})")
    if report["slowest_cells"]:
        worst = report["slowest_cells"][0]
        lines.append(
            f"  slowest : {worst['cell']} "
            f"{(worst['wall_seconds'] or 0.0):.3f}s"
            + (f" (+{len(report['slowest_cells']) - 1} more)"
               if len(report["slowest_cells"]) > 1 else ""))
    if report["phases"]:
        lines.append("  phases : " + ", ".join(
            f"{name} {seconds:.3f}s" for name, seconds in sorted(
                report["phases"].items(), key=lambda item: -item[1])))
    if report["ok"]:
        lines.append("  ok: sweep complete, no failures")
    else:
        reasons = []
        if not sweep["complete"]:
            reasons.append("incomplete sweep")
        if sweep["cells_failed"]:
            reasons.append(f"{sweep['cells_failed']} failed cell(s)")
        lines.append(f"  FAILED: {', '.join(reasons)}")
        if sweep.get("resumable") and sweep.get("resume_command"):
            lines.append(f"  resume  : {sweep['resume_command']}")
    return "\n".join(lines)


def github_annotations(report: dict) -> List[str]:
    """``::error`` workflow-command lines for CI logs."""
    annotations: List[str] = []
    journal = report.get("journal") or "journal"
    if not report["sweep"]["complete"]:
        hint = (f"; resume with: {report['sweep']['resume_command']}"
                if report["sweep"].get("resume_command") else "")
        annotations.append(
            f"::error title=Incomplete sweep::{journal} has no "
            f"sweep_finished event (killed or still running){hint}")
    for group in report["failures"]:
        annotations.append(
            f"::error title=Failed sweep cells::{group['count']} "
            f"cell(s) raised {group['type']}: {group['message']} "
            f"({', '.join(group['cells'])})")
    return annotations


# -- watching --------------------------------------------------------------

def journal_snapshot(journal) -> dict:
    """Progress snapshot from a (possibly still-growing) journal."""
    if not isinstance(journal, dict):
        journal = read_journal(journal)
    events = journal["events"]
    sweep = events[0]
    done = failed = hits = 0
    last_cell = None
    for event in events:
        if event["event"] == "cell_finished":
            done += 1
            if event.get("trace_cache_hit"):
                hits += 1
            last_cell = f"{event['benchmark']}/{event['variant']}"
        elif event["event"] == "cell_failed":
            failed += 1
            last_cell = f"{event['benchmark']}/{event['variant']}"
    landed = done + failed
    first_t = events[0].get("t")
    last_t = events[-1].get("t")
    elapsed = (last_t - first_t) if first_t and last_t else None
    total = sweep.get("total_cells") or landed
    eta = None
    if elapsed and landed and landed < total:
        eta = elapsed / landed * (total - landed)
    plan = sweep.get("cells") or []
    return {
        "done": done,
        "failed": failed,
        "total": total,
        "elapsed_seconds": elapsed,
        "eta_seconds": eta,
        "trace_cache_hit_rate": hits / landed if landed else None,
        "last_cell": last_cell,
        "next_cell": ("/".join(plan[landed])
                      if landed < len(plan) else None),
        "complete": journal["complete"],
    }


def format_watch_line(snapshot: dict) -> str:
    line = format_progress(snapshot)
    if snapshot.get("complete"):
        line += " | finished"
    return line
