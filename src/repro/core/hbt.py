"""Hard Branch Table (§4.3, Figure 9).

Identifies hard-to-predict branches with decaying 5-bit misprediction
counters, tracks affector/guard relationships (AG / AGC / AGL fields), and
filters highly biased branches.

The misprediction counter follows the paper's calibration: it is
decremented by 15 every 1000 retired branches (targets branches with
>= 1.5% of total mispredictions).  The paper filters biased branches with a
decaying 7-bit bias counter; this model decides bias from each entry's
exact direction ratio instead (see :meth:`HardBranchTable.is_biased`).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.config import BranchRunaheadConfig


class HbtEntry:
    """One HBT row."""

    __slots__ = ("pc", "misp_counter", "ag", "agc", "agl", "occurrences",
                 "taken_count")

    def __init__(self, pc: int):
        self.pc = pc
        self.misp_counter = 0
        #: This branch is an affector/guard of some hard branch.
        self.ag = False
        #: Affector/guard set changed since last chain extraction.
        self.agc = False
        #: PCs of the affector/guard branches of this (hard) branch.
        self.agl: Set[int] = set()
        self.occurrences = 0
        self.taken_count = 0


class HardBranchTable:
    """Capacity-bounded table of candidate hard branches."""

    def __init__(self, config: Optional[BranchRunaheadConfig] = None):
        self.config = config or BranchRunaheadConfig()
        self.entries: Dict[int, HbtEntry] = {}
        self._retired_branches = 0

    # -- retirement-time training ----------------------------------------

    def on_branch_retired(self, pc: int, taken: bool,
                          mispredicted: bool) -> None:
        """Train the table with one retired conditional branch."""
        cfg = self.config
        entry = self.entries.get(pc)
        if entry is None:
            entry = self._allocate(pc)
            if entry is None:
                return
        entry.occurrences += 1
        if taken:
            entry.taken_count += 1
        if mispredicted and entry.misp_counter < cfg.misp_counter_max:
            entry.misp_counter += 1
        occurrences = entry.occurrences
        # is_unsuitable_trigger(pc), on the entry in hand
        if occurrences >= 64 and entry.misp_counter == 0:
            unsuitable = True
        elif occurrences >= 32:
            taken_count = entry.taken_count
            majority = max(taken_count, occurrences - taken_count)
            unsuitable = majority >= cfg.bias_ratio * occurrences
        else:
            unsuitable = False
        if unsuitable:
            self._refresh_bias_filtering(entry)
        # periodic global decay of misprediction counters
        self._retired_branches += 1
        if self._retired_branches % cfg.misp_decay_period == 0:
            for other in self.entries.values():
                other.misp_counter = max(0, other.misp_counter
                                         - cfg.misp_decay_amount)

    def _allocate(self, pc: int) -> Optional[HbtEntry]:
        if len(self.entries) < self.config.hbt_entries:
            entry = HbtEntry(pc)
            self.entries[pc] = entry
            return entry
        # replace a dead entry: counter at 0 and not an affector/guard
        for victim_pc, victim in self.entries.items():
            if victim.misp_counter == 0 and not victim.ag:
                self._remove(victim_pc)
                entry = HbtEntry(pc)
                self.entries[pc] = entry
                return entry
        return None

    def _remove(self, pc: int) -> None:
        del self.entries[pc]
        # affector/guard branches tied only to this entry become replaceable
        referenced: Set[int] = set()
        for entry in self.entries.values():
            referenced |= entry.agl
        for entry in self.entries.values():
            if entry.ag and entry.pc not in referenced:
                entry.ag = False

    def _refresh_bias_filtering(self, entry: HbtEntry) -> None:
        """Drop a newly biased branch from every AGL it appears in (§4.3)."""
        for hard in self.entries.values():
            if entry.pc in hard.agl:
                hard.agl.discard(entry.pc)
                hard.agc = True

    # -- queries ------------------------------------------------------------

    def is_hard(self, pc: int) -> bool:
        entry = self.entries.get(pc)
        return entry is not None and \
            entry.misp_counter >= self.config.misp_counter_max

    def is_biased(self, pc: int) -> bool:
        """Whether the branch is highly biased (ignored by extraction/AGLs).

        The paper's 7-bit counter targets a 90% bias with a 1%
        false-positive rate over long runs; on our short regions its drift is
        too slow, so the decision itself uses the exact direction ratio with
        the same intent: a branch leaning >= ``bias_ratio`` one way is
        treated as remaining that way.
        """
        entry = self.entries.get(pc)
        if entry is None or entry.occurrences < 32:
            return False
        majority = max(entry.taken_count,
                       entry.occurrences - entry.taken_count)
        return majority >= self.config.bias_ratio * entry.occurrences

    def is_well_predicted(self, pc: int) -> bool:
        """Whether the baseline predictor handles this branch (decayed-out
        misprediction counter over a meaningful sample).

        A branch that never mispredicts never synchronizes, so a chain
        triggered by it would never run — for AGL purposes such a branch is
        treated like a biased one.  (The paper filters only on bias; this
        extends the same rationale to e.g. fixed-trip loop branches that the
        loop predictor captures.)
        """
        entry = self.entries.get(pc)
        return entry is not None and entry.occurrences >= 64 \
            and entry.misp_counter == 0

    def is_unsuitable_trigger(self, pc: int) -> bool:
        """Branches excluded from AGLs and extraction termination."""
        return self.is_biased(pc) or self.is_well_predicted(pc)

    def contains(self, pc: int) -> bool:
        return pc in self.entries

    def affector_guards_of(self, pc: int) -> Set[int]:
        entry = self.entries.get(pc)
        return entry.agl if entry is not None else set()

    def is_affector_or_guard_of(self, ag_pc: int, hard_pc: int) -> bool:
        entry = self.entries.get(hard_pc)
        return entry is not None and ag_pc in entry.agl

    # -- affector/guard registration -----------------------------------------

    def add_affector_guard(self, hard_pc: int, ag_pc: int) -> bool:
        """Record that ``ag_pc`` affects/guards ``hard_pc``.

        Returns True if this changed the hard branch's AGL (sets AGC, which
        signals that the hard branch's chain should be re-extracted).
        """
        if ag_pc == hard_pc:
            return False
        hard = self.entries.get(hard_pc)
        if hard is None:
            return False
        if self.is_unsuitable_trigger(ag_pc):
            return False
        ag_entry = self.entries.get(ag_pc)
        if ag_entry is None:
            ag_entry = self._allocate(ag_pc)
            if ag_entry is None:
                return False
        ag_entry.ag = True
        if ag_pc not in hard.agl:
            hard.agl.add(ag_pc)
            hard.agc = True
            return True
        return False

    def clear_agc(self, pc: int) -> None:
        entry = self.entries.get(pc)
        if entry is not None:
            entry.agc = False

    def agc(self, pc: int) -> bool:
        entry = self.entries.get(pc)
        return entry is not None and entry.agc
