"""Chain Extraction Buffer and the extraction walk (§4.3, Figure 9).

The CEB is a circular buffer of the last N retired uops (512 in Mini, 2048
in Big).  When a hard-to-predict branch retires, a backward dataflow walk is
seeded with the branch's source registers and scans older CEB entries for
producing uops; matched uops join the slice and contribute their own sources
to the search list.  Loads are checked against older stores in the buffer
(the "CEB store buffer") — an address match pulls the store (and its data
producers) into the slice as a store-load pair.

The walk terminates at (1) an older dynamic instance of the same branch —
tag ``<pc, *>`` — or (2) a known affector/guard branch of the hard branch —
tag ``<ag_pc, outcome>``.  Walks that exhaust the buffer, touch a
non-chainable uop (integer divide), or exceed the post-rename length limit
produce no chain.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.core.chain import (
    TERMINATED_AFFECTOR_GUARD,
    TERMINATED_SELF,
    WILDCARD,
    DependenceChain,
)
from repro.core.config import BranchRunaheadConfig
from repro.core.hbt import HardBranchTable
from repro.core.local_rename import local_rename
from repro.emulator.trace import DynamicUop


class ExtractionStats:
    """Counters over all extraction attempts."""

    def __init__(self):
        self.attempts = 0
        self.installed = 0
        self.aborted_no_termination = 0
        self.aborted_unchainable = 0
        self.aborted_too_long = 0
        self.aborted_too_many_loads = 0
        self.total_cycles = 0


class ChainExtractionBuffer:
    """Circular retired-uop buffer plus the extraction algorithm."""

    def __init__(self, config: Optional[BranchRunaheadConfig] = None,
                 hbt: Optional[HardBranchTable] = None,
                 retire_width: int = 4):
        self.config = config or BranchRunaheadConfig()
        self.hbt = hbt or HardBranchTable(self.config)
        self.retire_width = retire_width
        self._buffer: deque = deque(maxlen=self.config.ceb_entries)
        self.stats = ExtractionStats()
        #: ``on_retire(record)``: append a retired uop (newest at the
        #: right) — the buffer's own append, called once per retirement.
        self.on_retire = self._buffer.append

    def __len__(self) -> int:
        return len(self._buffer)

    # -- extraction --------------------------------------------------------

    def extract(self, branch_pc: int) -> Tuple[Optional[DependenceChain], int]:
        """Extract the dependence chain for the hard branch at ``branch_pc``.

        Returns ``(chain_or_None, extraction_latency_cycles)``.  The latency
        models footnote 11: entries scanned / retire width.
        """
        self.stats.attempts += 1
        entries: List[DynamicUop] = list(self._buffer)
        # newest retired instance of the branch seeds the walk
        anchor = -1
        for index in range(len(entries) - 1, -1, -1):
            if entries[index].pc == branch_pc:
                anchor = index
                break
        if anchor < 0:
            self.stats.aborted_no_termination += 1
            return None, 0

        branch_record = entries[anchor]
        branch_uop = branch_record.uop
        # slice accumulates (entry index); kept sorted implicitly by the
        # backward walk order, reversed into program order at the end
        slice_indices = [anchor]
        pair_by_index: Dict[int, int] = {}  # load entry idx -> store entry idx
        # search list: arch reg -> list of position bounds; a definition at
        # index i satisfies (and consumes) every bound > i
        search: Dict[int, List[int]] = {}

        def add_sources(op, bound: int) -> None:
            for src in op.src_regs:
                search.setdefault(src, []).append(bound)

        add_sources(branch_uop, anchor)

        terminated_by = None
        tag: Optional[Tuple[int, int]] = None
        scanned = 0
        index = anchor - 1
        while index >= 0:
            scanned += 1
            entry = entries[index]
            op = entry.uop
            if op.pc == branch_pc:
                terminated_by = TERMINATED_SELF
                tag = (branch_pc, WILDCARD)
                break
            if op.is_cond_branch and \
                    self.hbt.is_affector_or_guard_of(op.pc, branch_pc) and \
                    not self.hbt.is_unsuitable_trigger(op.pc):
                terminated_by = TERMINATED_AFFECTOR_GUARD
                tag = (op.pc, 1 if entry.taken else 0)
                break

            matched = self._match(op, index, search)
            if matched:
                if not op.is_chainable():
                    self.stats.aborted_unchainable += 1
                    return None, self._latency(scanned)
                slice_indices.append(index)
                add_sources(op, index)
                if op.is_load:
                    store_index = self._find_store(entries, index, entry.addr)
                    if store_index >= 0:
                        store = entries[store_index]
                        if store_index not in slice_indices:
                            slice_indices.append(store_index)
                            add_sources(store.uop, store_index)
                        pair_by_index[index] = store_index
            index -= 1
        else:
            self.stats.aborted_no_termination += 1
            return None, self._latency(scanned)

        latency = self._latency(scanned)
        slice_indices.sort()
        exec_uops = [entries[i].uop for i in slice_indices]
        position = {entry_index: slice_position
                    for slice_position, entry_index in
                    enumerate(slice_indices)}
        pair_map = {position[load]: position[store]
                    for load, store in pair_by_index.items()
                    if store in position}

        rename = local_rename(exec_uops, pair_map)
        if rename.length > self.config.max_chain_length:
            self.stats.aborted_too_long += 1
            return None, latency
        if self.config.max_chain_loads:
            surviving_loads = sum(
                1 for flag, op in zip(rename.timed_flags, exec_uops)
                if flag and op.is_load)
            if surviving_loads > self.config.max_chain_loads:
                self.stats.aborted_too_many_loads += 1
                return None, latency

        chain = DependenceChain(
            branch_pc=branch_pc,
            branch_uop=branch_uop,
            tag=tag,
            exec_uops=exec_uops,
            timed_flags=rename.timed_flags,
            live_ins=rename.live_ins,
            live_outs=rename.live_outs,
            pair_map=pair_map,
            terminated_by=terminated_by,
            num_local_regs=rename.num_local_regs,
        )
        self.stats.installed += 1
        self.stats.total_cycles += latency
        return chain, latency

    def _latency(self, scanned: int) -> int:
        return max(1, scanned // self.retire_width)

    @staticmethod
    def _match(op, index: int, search: Dict[int, List[int]]) -> bool:
        """Consume search-list bounds satisfied by this definition."""
        matched = False
        for dst in op.dst_regs:
            bounds = search.get(dst)
            if not bounds:
                continue
            remaining = [bound for bound in bounds if bound <= index]
            if len(remaining) != len(bounds):
                matched = True
                if remaining:
                    search[dst] = remaining
                else:
                    del search[dst]
        return matched

    @staticmethod
    def _find_store(entries: List[DynamicUop], load_index: int,
                    address: int) -> int:
        """Most recent store older than the load with the same address."""
        for index in range(load_index - 1, -1, -1):
            entry = entries[index]
            if entry.uop.is_store and entry.addr == address:
                return index
        return -1
