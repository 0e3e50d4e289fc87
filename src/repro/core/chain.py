"""Dependence chains.

A dependence chain is the backward dataflow slice of a hard-to-predict
branch (§1 footnote): the minimal uop sequence that recomputes the branch's
outcome.  Chains carry two parallel views of their uops:

* ``exec_uops`` — every sliced uop in program order, including MOVs and
  store-load pairs.  The DCE executes these *functionally* so architectural
  values stay exact.
* post-local-rename *timed* uops — the subset that survives move/store-load
  elimination.  Only these occupy reservation-station slots, consume ALU or
  cache bandwidth, and count toward the 16-uop chain-length limit.

Tags (§3): a chain is initiated by the event ``<trigger_pc, outcome>``.  A
wildcard outcome (:data:`WILDCARD`) means any resolution of the trigger
branch initiates the chain (the self-loop case of Figure 4c); a concrete
outcome encodes a guard relationship (Figure 4d's ``<A, NT>``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.isa.uop import Uop

#: Tag outcome matching any direction of the trigger branch.
WILDCARD = -1

#: How a chain's extraction walk ended.
TERMINATED_SELF = "self"
TERMINATED_AFFECTOR_GUARD = "affector-guard"


class DependenceChain:
    """An installed dependence chain."""

    def __init__(self,
                 branch_pc: int,
                 branch_uop: Uop,
                 tag: Tuple[int, int],
                 exec_uops: List[Uop],
                 timed_flags: List[bool],
                 live_ins: Tuple[int, ...],
                 live_outs: Tuple[int, ...],
                 pair_map: Dict[int, int],
                 terminated_by: str,
                 num_local_regs: int = 0):
        #: PC of the hard-to-predict branch this chain pre-computes.
        self.branch_pc = branch_pc
        self.branch_uop = branch_uop
        #: ``(trigger_pc, outcome)`` with outcome 0/1/WILDCARD.
        self.tag = tag
        #: All sliced uops in program order (functional view).
        self.exec_uops = exec_uops
        #: Parallel to ``exec_uops``: True if the uop survives elimination.
        self.timed_flags = timed_flags
        #: Architectural registers read before being defined in the chain.
        self.live_ins = live_ins
        #: Architectural registers defined by the chain.
        self.live_outs = live_outs
        #: exec index of a paired load -> exec index of its forwarding store.
        self.pair_map = pair_map
        self.terminated_by = terminated_by
        #: Local physical registers the chain needs after local rename.
        self.num_local_regs = num_local_regs
        #: Post-elimination uop count (what Figure 2 reports).
        self.length = sum(timed_flags)
        #: The chain's compiled kernels, indexed by the DCE's in-order
        #: flag; bound on first execution (:mod:`repro.core.chain_kernel`).
        #: A chain is never mutated once built, so they never go stale.
        self.kernels = [None, None]

    @property
    def is_wildcard(self) -> bool:
        return self.tag[1] == WILDCARD

    @property
    def has_affector_or_guard(self) -> bool:
        """Whether extraction terminated at an affector/guard (Figure 5)."""
        return self.terminated_by == TERMINATED_AFFECTOR_GUARD

    @property
    def num_loads(self) -> int:
        return sum(1 for op, timed in zip(self.exec_uops, self.timed_flags)
                   if timed and op.is_load)

    def key(self) -> Tuple[int, Tuple[int, int]]:
        """Identity in the chain cache: (predicted branch, trigger tag)."""
        return (self.branch_pc, self.tag)

    def __repr__(self) -> str:
        trigger_pc, outcome = self.tag
        outcome_text = {WILDCARD: "*", 0: "NT", 1: "T"}[outcome]
        return (f"<Chain for {self.branch_pc:#x} tag=<{trigger_pc:#x},"
                f"{outcome_text}> len={self.length}>")
