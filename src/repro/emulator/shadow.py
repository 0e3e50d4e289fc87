"""Wrong-path (shadow) execution.

The merge-point predictor (§4.4) learns from instructions fetched down the
*wrong* path of a mispredicted branch.  In an execution-driven simulator the
wrong path is not free — it must be produced by actually executing the wrong
direction of the branch on a private copy of architectural state.  The walk
uses a register-file copy and an :class:`~repro.emulator.memory.OverlayMemory`
so wrong-path stores never corrupt the committed image.

:func:`wrong_path_steps` executes the walk lazily, for the merge-point
predictor's WPB fill, which reads only a prefix of it;
:func:`wrong_path_walk` collects a fixed-length prefix as
:class:`ShadowUop` objects, for the merge-point oracle's long walk.

A walk reads nothing but the committed registers and memory at its branch,
so within one recorded region it is a pure function of the branch's
``seq``: :class:`WalkPrefix` keeps what a WPB fill pulled of it, in compact
arrays, so a later fill for the same branch replays it without executing.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Iterator, List

from repro.emulator.memory import Memory, OverlayMemory
from repro.emulator.trace import DynamicUop
from repro.isa import uop as U
from repro.isa.program import Program


class ShadowUop:
    """A uop observed on the wrong path (an entry of
    :func:`wrong_path_walk`)."""

    __slots__ = ("pc", "dst_regs", "is_cond_branch", "taken", "store_addr")

    def __init__(self, pc: int, dst_regs: tuple, is_cond_branch: bool,
                 taken: bool, store_addr: int):
        self.pc = pc
        self.dst_regs = dst_regs
        self.is_cond_branch = is_cond_branch
        self.taken = taken
        self.store_addr = store_addr


def wrong_path_steps(program: Program, regs: List[int], memory: Memory,
                     branch_pc: int,
                     wrong_taken: bool) -> Iterator[DynamicUop]:
    """Lazily execute the wrong direction of a branch.

    ``regs``/``memory`` are the architectural state *just before* the branch
    executes (CC already set, since CC is written by an older compare).
    ``wrong_taken`` is the direction the branch did NOT actually go.  Yields
    one record per wrong-path uop in fetch order, starting with the first
    uop after the branch; each uop executes only when its record is pulled,
    so a consumer that stops early pays for nothing beyond.  The walk ends
    at HALT or where it would leave the program.  It reads ``regs`` and
    ``memory`` as it runs, so consume it before either changes.  Each uop
    runs its compiled closure: building a ``Machine`` for the program, or
    loading one of its regions from a trace-cache spill, binds them.
    """
    uops = program.uops
    branch_uop = uops[branch_pc]
    if branch_uop.opcode != U.BR:
        raise ValueError("a wrong-path walk requires a conditional branch")
    pc = branch_uop.target if wrong_taken else branch_pc + 1
    shadow_regs = list(regs)
    shadow_memory = OverlayMemory(memory)
    program_len = len(uops)
    while 0 <= pc < program_len:
        op = uops[pc]
        if op.opcode == U.HALT:
            return
        record = op.execute(shadow_regs, shadow_memory)
        yield record
        pc = record.next_pc


def wrong_path_walk(program: Program, regs: List[int], memory: Memory,
                    branch_pc: int, wrong_taken: bool,
                    max_uops: int) -> List[ShadowUop]:
    """The first ``max_uops`` uops of :func:`wrong_path_steps`, as a list."""
    return [ShadowUop(pc=record.pc,
                      dst_regs=record.uop.dst_regs,
                      is_cond_branch=record.uop.is_cond_branch,
                      taken=record.taken,
                      store_addr=record.addr if record.uop.is_store else -1)
            for record in islice(wrong_path_steps(program, regs, memory,
                                                  branch_pc, wrong_taken),
                                 max_uops)]


class WalkPrefix:
    """The pulled prefix of one wrong-path walk: its uops' PCs in fetch
    order, the addresses of the stores among them in the same order (None
    until the first store), and whether the walk ended (HALT or program
    exit) after them."""

    __slots__ = ("pcs", "stores", "ended")

    def __init__(self, pc_typecode: str):
        self.pcs = array(pc_typecode)
        self.stores = None
        self.ended = False

    def store_address(self, index: int) -> int:
        """Address of the prefix's ``index``-th store."""
        return self.stores[index]


def pc_typecode(program: Program) -> str:
    """The smallest unsigned ``array`` typecode holding every PC."""
    size = len(program.uops)
    if size <= 1 << 8:
        return "B"
    if size <= 1 << 16:
        return "H"
    return "I"
