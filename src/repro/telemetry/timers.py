"""Host-side wall-clock phase timers.

The simulator is pure Python; knowing where *host* time goes (functional
emulation vs. the core timing model vs. DCE cascades) is the baseline every
future performance PR measures against.  :class:`PhaseTimers` accumulates
``time.perf_counter`` seconds per named phase, supports nesting-free
re-entry (a phase may be entered many times; durations add), and can wrap
an iterator so a generator's production cost is attributed to its own
phase even though consumption is interleaved with another phase.
:func:`peak_rss_kb` is the one peak-memory probe the sweep rows and the
run manifests share.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from itertools import islice
from typing import Dict, Iterable, Iterator, Optional


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - reported in bytes
        peak //= 1024
    return int(peak)


class PhaseTimers:
    """Accumulated wall-clock seconds per named phase."""

    def __init__(self):
        self._elapsed: Dict[str, float] = {}

    def add(self, phase: str, seconds: float) -> None:
        self._elapsed[phase] = self._elapsed.get(phase, 0.0) + seconds

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def wrap_iter(self, name: str, iterable: Iterable,
                  buffer: int = 0) -> Iterator:
        """Attribute time spent *producing* items to phase ``name``.

        Used on the functional emulator's uop stream: the core timing model
        consumes it lazily, so without this the emulator's cost would be
        booked under the timing phase.

        With ``buffer > 1`` the producer is driven ``buffer`` items at a
        time through a C-level ``islice`` pull, cutting the
        ``perf_counter`` overhead from two calls per item to two per chunk
        and letting the producing generator run without per-item generator
        switches.  Chunking runs the producer up to ``buffer`` items ahead
        of the consumer, so it is only valid when the consumer never reads
        the producer's side state mid-stream (e.g. Branch Runahead reading
        ``machine.memory`` between records) — callers opt in explicitly.
        """
        perf_counter = time.perf_counter
        iterator = iter(iterable)
        total = 0.0
        if buffer > 1:
            try:
                while True:
                    start = perf_counter()
                    chunk = list(islice(iterator, buffer))
                    total += perf_counter() - start
                    if not chunk:
                        return
                    yield from chunk
            finally:
                self.add(name, total)
        try:
            while True:
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    total += perf_counter() - start
                    return
                total += perf_counter() - start
                yield item
        finally:
            # booked once at exhaustion (or abandonment) so the hot loop
            # never touches the accumulator dict
            self.add(name, total)

    def elapsed(self, phase: str) -> float:
        return self._elapsed.get(phase, 0.0)

    def to_dict(self) -> Dict[str, float]:
        return dict(self._elapsed)

    def register_into(self, scope) -> None:
        """Export every phase as a ``<name>_seconds`` gauge."""
        for phase, seconds in sorted(self._elapsed.items()):
            scope.gauge(f"{phase}_seconds").set(seconds)
