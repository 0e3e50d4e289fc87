"""Micro-operation definitions.

The timing model, chain extraction, and the Dependence Chain Engine all
operate on this micro-op (uop) format.  It is deliberately RISC-like: every
uop has at most one destination register, explicit source registers, and at
most one memory access.  Memory is word-addressed (each address holds one
64-bit value); effective addresses are ``base + index * scale + disp``.

Opcode groups
-------------
* ALU register-register: ``ADD SUB MUL AND OR XOR SHL SHR SAR``
* ALU register-immediate: ``ADDI MULI ANDI ORI XORI SHLI SHRI SARI``
* Moves / unary: ``MOV MOVI NOT SEXT32``
* Expensive (never allowed in dependence chains): ``DIV MOD``
* Compare: ``CMP CMPI`` — write the condition-code register with
  ``sign(a - b)`` (-1, 0, or 1)
* Memory: ``LD ST``
* Control: ``BR`` (conditional, reads CC), ``JMP``, ``HALT``
"""

from __future__ import annotations

from repro.isa.registers import CC, reg_name

# --- Opcodes -------------------------------------------------------------

(
    ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, SAR,
    ADDI, MULI, ANDI, ORI, XORI, SHLI, SHRI, SARI,
    MOV, MOVI, NOT, SEXT32,
    DIV, MOD,
    CMP, CMPI,
    LD, ST,
    BR, JMP, HALT,
) = range(30)

OPCODE_NAMES = [
    "ADD", "SUB", "MUL", "AND", "OR", "XOR", "SHL", "SHR", "SAR",
    "ADDI", "MULI", "ANDI", "ORI", "XORI", "SHLI", "SHRI", "SARI",
    "MOV", "MOVI", "NOT", "SEXT32",
    "DIV", "MOD",
    "CMP", "CMPI",
    "LD", "ST",
    "BR", "JMP", "HALT",
]

#: Opcodes the DCE is allowed to execute (§1: chains never contain divides,
#: floating point, stores, or control flow; stores are move-eliminated away
#: during extraction, so ST never survives into an installed chain).
CHAINABLE_OPCODES = frozenset({
    ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, SAR,
    ADDI, MULI, ANDI, ORI, XORI, SHLI, SHRI, SARI,
    MOV, MOVI, NOT, SEXT32,
    CMP, CMPI,
    LD, ST,  # ST is chainable during extraction only; eliminated before install
})

#: Execution latency in cycles per opcode (loads use the memory hierarchy).
OPCODE_LATENCY = {
    ADD: 1, SUB: 1, AND: 1, OR: 1, XOR: 1, SHL: 1, SHR: 1, SAR: 1,
    ADDI: 1, ANDI: 1, ORI: 1, XORI: 1, SHLI: 1, SHRI: 1, SARI: 1,
    MUL: 3, MULI: 3,
    MOV: 1, MOVI: 1, NOT: 1, SEXT32: 1,
    DIV: 20, MOD: 20,
    CMP: 1, CMPI: 1,
    LD: 1,  # plus memory-hierarchy latency
    ST: 1,
    BR: 1, JMP: 1, HALT: 1,
}

# --- Branch conditions ---------------------------------------------------

EQ, NE, LT, LE, GT, GE = range(6)
COND_NAMES = ["EQ", "NE", "LT", "LE", "GT", "GE"]
COND_BY_NAME = {name.lower(): value for value, name in enumerate(COND_NAMES)}


def evaluate_condition(cond: int, cc: int) -> bool:
    """Evaluate a branch condition against a CC value (sign of ``a - b``)."""
    if cond == EQ:
        return cc == 0
    if cond == NE:
        return cc != 0
    if cond == LT:
        return cc < 0
    if cond == LE:
        return cc <= 0
    if cond == GT:
        return cc > 0
    if cond == GE:
        return cc >= 0
    raise ValueError(f"invalid condition: {cond}")


_REG_REG_ALU = frozenset({ADD, SUB, MUL, AND, OR, XOR, SHL, SHR, SAR, DIV, MOD})
_REG_IMM_ALU = frozenset({ADDI, MULI, ANDI, ORI, XORI, SHLI, SHRI, SARI})
_UNARY = frozenset({MOV, NOT, SEXT32})

# --- Pipeline kind tags ---------------------------------------------------
#
# The core timing model's one per-uop handler branches on this tag at the
# points where the kinds differ; the tag is computed once per static uop
# so the hot path compares one small int instead of a chain of ``is_*``
# flags.

KIND_ALU = 0          # everything that is just "issue + latency"
KIND_LOAD = 1
KIND_STORE = 2
KIND_COND_BRANCH = 3  # BR
KIND_JUMP = 4         # JMP (always taken, never mispredicted)
KIND_HALT = 5


def _compute_kind(opcode: int) -> int:
    if opcode == LD:
        return KIND_LOAD
    if opcode == ST:
        return KIND_STORE
    if opcode == BR:
        return KIND_COND_BRANCH
    if opcode == JMP:
        return KIND_JUMP
    if opcode == HALT:
        return KIND_HALT
    return KIND_ALU


def _mask_of(regs: tuple) -> int:
    mask = 0
    for reg in regs:
        mask |= 1 << reg
    return mask


class Uop:
    """A static micro-operation.

    ``pc`` is assigned when the containing :class:`~repro.isa.program.Program`
    is built; source/destination register tuples are precomputed so hot
    dataflow loops avoid per-access dispatch on the opcode.
    """

    __slots__ = (
        "pc", "opcode", "dst", "srcs", "imm",
        "base", "index", "scale", "disp",
        "cond", "target",
        "dst_regs", "src_regs", "dst_mask", "src_mask",
        "is_cond_branch", "is_branch", "is_load", "is_store", "is_mem",
        "latency", "kind", "execute",
    )

    def __init__(
        self,
        opcode: int,
        dst: int = -1,
        srcs: tuple = (),
        imm: int = 0,
        base: int = -1,
        index: int = -1,
        scale: int = 1,
        disp: int = 0,
        cond: int = -1,
        target: int = -1,
    ):
        self.pc = -1
        self.opcode = opcode
        self.dst = dst
        self.srcs = srcs
        self.imm = imm
        self.base = base
        self.index = index
        self.scale = scale
        self.disp = disp
        self.cond = cond
        self.target = target

        self.is_cond_branch = opcode == BR
        self.is_branch = opcode in (BR, JMP)
        self.is_load = opcode == LD
        self.is_store = opcode == ST
        self.is_mem = opcode in (LD, ST)
        self.latency = OPCODE_LATENCY[opcode]
        self.kind = _compute_kind(opcode)
        #: Compiled execution closure ``(regs, memory) -> DynamicUop``.
        #: Bound by :func:`repro.emulator.dispatch.ensure_compiled` once the
        #: uop's final ``pc``/``target`` are known (at Machine construction,
        #: or when a trace-cache spill of the program loads); ``None`` until
        #: then.  Semantically identical to
        #: :func:`repro.emulator.machine.execute_uop` by construction (and by
        #: the differential test suite).
        self.execute = None

        self.dst_regs = self._compute_dst_regs()
        self.src_regs = self._compute_src_regs()
        #: One bit per register of ``dst_regs`` / ``src_regs`` (the
        #: :func:`~repro.isa.registers.reg_bit` layout), so dest-set and
        #: poison dataflow pay one OR/AND per uop instead of a loop.
        self.dst_mask = _mask_of(self.dst_regs)
        self.src_mask = _mask_of(self.src_regs)

    def _compute_dst_regs(self) -> tuple:
        if self.opcode in (CMP, CMPI):
            return (CC,)
        if self.dst >= 0:
            return (self.dst,)
        return ()

    def _compute_src_regs(self) -> tuple:
        regs = []
        if self.opcode == BR:
            regs.append(CC)
        regs.extend(self.srcs)
        if self.base >= 0:
            regs.append(self.base)
        if self.index >= 0:
            regs.append(self.index)
        return tuple(regs)

    @property
    def name(self) -> str:
        return OPCODE_NAMES[self.opcode]

    def is_chainable(self) -> bool:
        """Whether chain extraction may include this uop in a slice."""
        return self.opcode in CHAINABLE_OPCODES

    def __repr__(self) -> str:
        parts = [f"{self.pc:#06x} {self.name}"]
        if self.dst >= 0:
            parts.append(reg_name(self.dst))
        parts.extend(reg_name(reg) for reg in self.srcs)
        if self.opcode in _REG_IMM_ALU or self.opcode in (MOVI, CMPI):
            parts.append(f"#{self.imm}")
        if self.is_mem:
            addr = f"[{reg_name(self.base)}"
            if self.index >= 0:
                addr += f"+{reg_name(self.index)}*{self.scale}"
            if self.disp:
                addr += f"+{self.disp}"
            parts.append(addr + "]")
        if self.opcode == BR:
            parts.append(f"{COND_NAMES[self.cond]} -> {self.target:#x}")
        elif self.opcode == JMP:
            parts.append(f"-> {self.target:#x}")
        return " ".join(parts)
