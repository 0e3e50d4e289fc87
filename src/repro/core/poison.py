"""Affector detection via poison propagation (§4.4).

Registers and memory addresses in the *both-path dest set* of a merge
prediction are marked poisoned (they may hold different values depending on
the direction of the merge-predicted branch).  Retired correct-path
instructions after the merge point propagate poison dataflow-style — an
instruction sourcing poison poisons its destination; an instruction
overwriting a poisoned destination with clean sources removes the poison.
Any branch sourcing poison is an *affectee*: the merge-predicted branch is
its affector.  The pass ends at a second instance of the merge-predicted
branch or at the maximum merge distance (the poison algorithm is adapted
from Runahead Execution [25]).
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.merge_point import MergeResult
from repro.emulator.trace import DynamicUop


class PoisonPass:
    """One active affector-detection pass."""

    def __init__(self, result: MergeResult, max_distance: int = 100):
        self.affector_pc = result.branch_pc
        self.max_distance = max_distance
        self._poison_mask = result.both_path_dest_mask
        self._wp_stores = result.wrong_path_stores
        self._poisoned_addresses: Set[int] = set(result.correct_path_stores)
        self._distance = 0
        self.active = True
        #: Branch PCs found to source poison (affectees of ``affector_pc``).
        self.affectees: Set[int] = set()

    def on_retire(self, record: DynamicUop) -> Optional[Set[int]]:
        """Process one retired uop; returns the affectee set when the pass
        completes (else None)."""
        if not self.active:
            return None
        op = record.uop
        if op.pc == self.affector_pc:
            self.active = False
            return self.affectees
        self._distance += 1
        if self._distance > self.max_distance:
            self.active = False
            return self.affectees

        # sources poison: a poisoned register, or a load from a poisoned
        # address (correct-path store set or wrong-path bloom filter)
        poisoned = bool(self._poison_mask & op.src_mask) or (
            op.is_load and (record.addr in self._poisoned_addresses
                            or self._wp_stores.contains(record.addr)))
        if poisoned:
            self._poison_mask |= op.dst_mask
            if op.is_store:
                self._poisoned_addresses.add(record.addr)
            if op.is_cond_branch:
                self.affectees.add(op.pc)
        else:
            # clean overwrite clears poison
            self._poison_mask &= ~op.dst_mask
            if op.is_store:
                self._poisoned_addresses.discard(record.addr)
        return None
