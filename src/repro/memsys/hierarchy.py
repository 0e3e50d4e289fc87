"""The full memory hierarchy: L1I + L1D + L2 + stream prefetcher + DRAM.

Table 1 configuration: 32KB 8-way L1s (3-cycle hit), 2MB 12-way L2
(18-cycle), stream prefetcher into the LLC, DDR4 behind a 64-entry memory
queue.  ``access_data`` returns the *completion cycle* of the access, which
the scoreboard timing models (core and DCE) consume directly.
"""

from __future__ import annotations

from typing import Optional

from repro.memsys.cache import Cache
from repro.memsys.dram import Dram, DramConfig
from repro.memsys.mshr import MshrFile
from repro.memsys.prefetcher import StreamPrefetcher
from repro.telemetry import NULL_TRACER


class HierarchyConfig:
    """Sizing/latency knobs (defaults = paper Table 1)."""

    def __init__(self,
                 l1i_bytes: int = 32 * 1024,
                 l1d_bytes: int = 32 * 1024,
                 l1_ways: int = 8,
                 l1_latency: int = 3,
                 l2_bytes: int = 2 * 1024 * 1024,
                 l2_ways: int = 8,
                 l2_latency: int = 18,
                 line_bytes: int = 64,
                 mshr_entries: int = 64,
                 dce_mshr_entries: int = 48,
                 prefetch_streams: int = 64,
                 prefetch_distance: int = 16,
                 dram: Optional[DramConfig] = None):
        self.l1i_bytes = l1i_bytes
        self.l1d_bytes = l1d_bytes
        self.l1_ways = l1_ways
        self.l1_latency = l1_latency
        self.l2_bytes = l2_bytes
        self.l2_ways = l2_ways
        self.l2_latency = l2_latency
        self.line_bytes = line_bytes
        self.mshr_entries = mshr_entries
        self.dce_mshr_entries = dce_mshr_entries
        self.prefetch_streams = prefetch_streams
        self.prefetch_distance = prefetch_distance
        self.dram = dram or DramConfig()


class MemoryHierarchy:
    """Shared by the core and the DCE (which has no caches of its own)."""

    def __init__(self, config: Optional[HierarchyConfig] = None,
                 tracer=None):
        self.config = config or HierarchyConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._tracing = self.tracer.enabled
        cfg = self.config
        self.l1i = Cache("L1I", cfg.l1i_bytes, cfg.l1_ways, cfg.line_bytes,
                         cfg.l1_latency)
        self.l1d = Cache("L1D", cfg.l1d_bytes, cfg.l1_ways, cfg.line_bytes,
                         cfg.l1_latency)
        self.l2 = Cache("L2", cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes,
                        cfg.l2_latency)
        self.mshrs = MshrFile(cfg.mshr_entries)
        #: The DCE brings its own miss registers (Table 2: 48/64 entries),
        #: so chain loads do not consume the core's outstanding-miss budget.
        self.dce_mshrs = MshrFile(cfg.dce_mshr_entries)
        self.prefetcher = StreamPrefetcher(cfg.prefetch_streams,
                                           cfg.prefetch_distance)
        self.dram = Dram(cfg.dram)
        # word->line mapping hoisted out of access_data (8-byte words)
        self._words_per_line = cfg.line_bytes // 8
        # split demand counters for the energy model / Figure 3
        self.core_accesses = 0
        self.dce_accesses = 0
        # fetch fast path: the last-accessed L1I line is resident by
        # construction (a hit keeps it, a miss fills it), so a same-line
        # fetch is always a hit with the line already at MRU
        self._last_insn_line = -1

    # -- data side -----------------------------------------------------------

    def access_data(self, word_address: int, cycle: int,
                    is_write: bool = False, from_dce: bool = False) -> int:
        """Perform a demand data access; return its completion cycle."""
        cfg = self.config
        line = word_address // self._words_per_line
        if from_dce:
            self.dce_accesses += 1
        else:
            self.core_accesses += 1

        hit = self.l1d.access(line, is_write)
        if not hit and self._tracing:
            self.tracer.emit("cache_miss", "memsys", cycle, level="L1D",
                             line=line, from_dce=from_dce, write=is_write)
        # a hit's tag may be present while its fill is still in flight, and
        # a miss merges with an outstanding fill in either file
        # (MshrFile.lookup inlined: two calls per access otherwise)
        core_mshrs = self.mshrs
        pending = core_mshrs._outstanding.get(line, -1)
        if pending > cycle:
            core_mshrs.merges += 1
        else:
            dce_mshrs = self.dce_mshrs
            pending = dce_mshrs._outstanding.get(line, -1)
            if pending > cycle:
                dce_mshrs.merges += 1
        if pending > cycle:
            if not hit:
                self.l1d.fill(line, is_write)
            return pending
        if hit:
            return cycle + cfg.l1_latency

        l2_start = cycle + cfg.l1_latency
        if self.l2.access(line, is_write=False):
            ready = l2_start + cfg.l2_latency
        else:
            if self._tracing:
                self.tracer.emit("cache_miss", "memsys", l2_start,
                                 level="L2", line=line, from_dce=from_dce)
            self._train_prefetcher(line)
            ready = self.dram.access(line, l2_start + cfg.l2_latency)
            self.l2.fill(line)
        mshrs = self.dce_mshrs if from_dce else core_mshrs
        ready = mshrs.allocate(line, cycle, ready)
        self.l1d.fill(line, is_write)
        return ready

    def _train_prefetcher(self, line: int) -> None:
        for prefetch_line in self.prefetcher.train(line):
            if not self.l2.lookup(prefetch_line):
                self.l2.fill(prefetch_line, from_prefetch=True)

    # -- instruction side ------------------------------------------------------

    def access_insn(self, pc: int, cycle: int) -> int:
        """Instruction fetch for the line containing ``pc`` (uop index)."""
        cfg = self.config
        line = pc >> 3  # 8 uops per "line"
        if line == self._last_insn_line:
            # LRU state is already exact (line at MRU); only count the hit
            self.l1i.stats.hits += 1
            return cycle + cfg.l1_latency
        self._last_insn_line = line
        if self.l1i.access(line, is_write=False):
            return cycle + cfg.l1_latency
        if self._tracing:
            self.tracer.emit("cache_miss", "memsys", cycle, level="L1I",
                             line=line)
        if self.l2.access(line, is_write=False):
            ready = cycle + cfg.l1_latency + cfg.l2_latency
        else:
            ready = self.dram.access(line, cycle + cfg.l1_latency
                                     + cfg.l2_latency)
            self.l2.fill(line)
        self.l1i.fill(line)
        return ready

    # -- telemetry -------------------------------------------------------------

    def register_into(self, scope) -> None:
        """Publish into a ``memsys.*`` :class:`~repro.telemetry.StatScope`."""
        for cache in (self.l1i, self.l1d, self.l2):
            sub = scope.scope(cache.name.lower())
            sub.counter("hits").set(cache.stats.hits)
            sub.counter("misses").set(cache.stats.misses)
            sub.counter("writebacks").set(cache.stats.writebacks)
            sub.counter("prefetch_fills").set(cache.stats.prefetch_fills)
            sub.counter("prefetch_hits").set(cache.stats.prefetch_hits)
            sub.gauge("hit_rate").set(cache.stats.hit_rate())
        dram = scope.scope("dram")
        dram.counter("accesses").set(self.dram.accesses)
        dram.counter("row_hits").set(self.dram.row_hits)
        dram.counter("row_conflicts").set(self.dram.row_conflicts)
        scope.counter("core_accesses").set(self.core_accesses)
        scope.counter("dce_accesses").set(self.dce_accesses)
