"""Functional emulator.

The :class:`Machine` executes a :class:`~repro.isa.program.Program` one uop
at a time, producing :class:`~repro.emulator.trace.DynamicUop` records for
the committed path.  The timing model (``repro.uarch``) consumes this stream
lazily, making the whole simulator execution-driven.

Semantics
---------
* 64-bit two's-complement integers with wraparound.
* ``CMP a, b`` writes ``sign(a - b)`` (full-width, no overflow quirks) to CC.
* ``SHR`` is a logical right shift on the 64-bit pattern; ``SAR`` is
  arithmetic.  Shift amounts are taken modulo 64.
* ``DIV``/``MOD`` truncate toward zero; division by zero yields 0 (these
  opcodes exist to exercise the "no expensive ops in chains" restriction).
* Memory is word-addressed (see :mod:`repro.emulator.memory`).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.emulator.dispatch import ensure_compiled
from repro.emulator.memory import MASK64, Memory, wrap64
from repro.emulator.trace import DynamicUop
from repro.isa import uop as U
from repro.isa.program import Program
from repro.isa.registers import CC, NUM_ARCH_REGS
from repro.isa.uop import Uop, evaluate_condition


def execute_uop(op: Uop, regs: List[int], memory) -> DynamicUop:
    """Execute one uop against ``regs``/``memory``; return its dynamic record.

    ``regs`` is mutated in place.  ``memory`` must provide ``read``/``write``
    (either :class:`Memory` or :class:`OverlayMemory`).  The returned record's
    ``seq`` is left at -1; callers stamp it.

    This is the readable statement of the ISA's semantics.  The simulator
    itself runs the compiled closures of :mod:`repro.emulator.dispatch`;
    the tests pin those closures, record for record, against this function.
    """
    opcode = op.opcode
    next_pc = op.pc + 1
    taken = False
    addr = -1
    mem_value = 0
    dst_value = 0

    if opcode <= U.SAR:  # register-register ALU
        a = regs[op.srcs[0]]
        b = regs[op.srcs[1]]
        if opcode == U.ADD:
            dst_value = wrap64(a + b)
        elif opcode == U.SUB:
            dst_value = wrap64(a - b)
        elif opcode == U.MUL:
            dst_value = wrap64(a * b)
        elif opcode == U.AND:
            dst_value = wrap64(a & b)
        elif opcode == U.OR:
            dst_value = wrap64(a | b)
        elif opcode == U.XOR:
            dst_value = wrap64(a ^ b)
        elif opcode == U.SHL:
            dst_value = wrap64(a << (b & 63))
        elif opcode == U.SHR:
            dst_value = wrap64((a & MASK64) >> (b & 63))
        else:  # SAR
            dst_value = a >> (b & 63)
        regs[op.dst] = dst_value
    elif opcode <= U.SARI:  # register-immediate ALU
        a = regs[op.srcs[0]]
        imm = op.imm
        if opcode == U.ADDI:
            dst_value = wrap64(a + imm)
        elif opcode == U.MULI:
            dst_value = wrap64(a * imm)
        elif opcode == U.ANDI:
            dst_value = wrap64(a & imm)
        elif opcode == U.ORI:
            dst_value = wrap64(a | imm)
        elif opcode == U.XORI:
            dst_value = wrap64(a ^ imm)
        elif opcode == U.SHLI:
            dst_value = wrap64(a << (imm & 63))
        elif opcode == U.SHRI:
            dst_value = wrap64((a & MASK64) >> (imm & 63))
        else:  # SARI
            dst_value = a >> (imm & 63)
        regs[op.dst] = dst_value
    elif opcode == U.MOV:
        dst_value = regs[op.srcs[0]]
        regs[op.dst] = dst_value
    elif opcode == U.MOVI:
        dst_value = wrap64(op.imm)
        regs[op.dst] = dst_value
    elif opcode == U.NOT:
        dst_value = wrap64(~regs[op.srcs[0]])
        regs[op.dst] = dst_value
    elif opcode == U.SEXT32:
        value = regs[op.srcs[0]] & 0xFFFFFFFF
        if value & 0x80000000:
            value -= 1 << 32
        dst_value = value
        regs[op.dst] = dst_value
    elif opcode in (U.DIV, U.MOD):
        a = regs[op.srcs[0]]
        b = regs[op.srcs[1]]
        if b == 0:
            dst_value = 0
        elif opcode == U.DIV:
            quotient = abs(a) // abs(b)
            dst_value = wrap64(-quotient if (a < 0) != (b < 0) else quotient)
        else:
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            dst_value = wrap64(a - quotient * b)
        regs[op.dst] = dst_value
    elif opcode == U.CMP:
        diff = regs[op.srcs[0]] - regs[op.srcs[1]]
        dst_value = (diff > 0) - (diff < 0)
        regs[CC] = dst_value
    elif opcode == U.CMPI:
        diff = regs[op.srcs[0]] - op.imm
        dst_value = (diff > 0) - (diff < 0)
        regs[CC] = dst_value
    elif opcode == U.LD:
        addr = regs[op.base]
        if op.index >= 0:
            addr += regs[op.index] * op.scale
        addr = wrap64(addr + op.disp)
        mem_value = memory.read(addr)
        dst_value = mem_value
        regs[op.dst] = dst_value
    elif opcode == U.ST:
        addr = regs[op.base]
        if op.index >= 0:
            addr += regs[op.index] * op.scale
        addr = wrap64(addr + op.disp)
        mem_value = regs[op.srcs[0]]
        memory.write(addr, mem_value)
    elif opcode == U.BR:
        taken = evaluate_condition(op.cond, regs[CC])
        if taken:
            next_pc = op.target
    elif opcode == U.JMP:
        taken = True
        next_pc = op.target
    elif opcode == U.HALT:
        next_pc = op.pc  # stay put; caller checks for HALT
    else:
        raise ValueError(f"unknown opcode {opcode}")

    record = DynamicUop(op, -1, next_pc, taken=taken, addr=addr,
                        value=mem_value, dst_value=dst_value)
    return record


def _initial_image(program: Program) -> Memory:
    """The program's canonical memory image, memoized on the Program.

    Building it runs ``wrap64`` over every word; each :class:`Machine`
    then starts from a dict copy.  Like the trace cache's fingerprint
    memo, it assumes the image is not edited once a Machine has run.
    """
    image = getattr(program, "_memory_image", None)
    if image is None:
        image = program._memory_image = Memory(program.initial_memory)
    return image


class Machine:
    """Committed-path functional executor for a program.

    Execution goes through the per-uop closures bound by
    :func:`repro.emulator.dispatch.ensure_compiled` (see that module); the
    hot loops in :meth:`run`/:meth:`stream` additionally hoist every
    attribute they touch into locals.
    """

    def __init__(self, program: Program):
        ensure_compiled(program)
        self.program = program
        self.memory = _initial_image(program).copy()
        self.regs: List[int] = [0] * NUM_ARCH_REGS
        self.pc = 0
        self.seq = 0
        self.halted = False

    def step(self) -> Optional[DynamicUop]:
        """Execute one uop; return its record, or None once halted."""
        if self.halted:
            return None
        op = self.program.uops[self.pc]
        if op.opcode == U.HALT:
            self.halted = True
            return None
        record = op.execute(self.regs, self.memory)
        record.seq = self.seq
        self.seq += 1
        self.pc = record.next_pc
        return record

    def fast_forward(self, count: int) -> int:
        """Functionally execute ``count`` uops without producing records.

        Used for SimPoint-style region starts; returns the number of uops
        actually executed (fewer only if the program halts first).
        """
        if self.halted or count <= 0:
            return 0
        uops = self.program.uops
        regs = self.regs
        memory = self.memory
        pc = self.pc
        halt = U.HALT
        executed = 0
        try:
            for _ in range(count):
                op = uops[pc]
                if op.opcode == halt:
                    self.halted = True
                    break
                pc = op.execute(regs, memory).next_pc
                executed += 1
        finally:
            self.pc = pc
            self.seq += executed
        return executed

    def run(self, max_instructions: int) -> List[DynamicUop]:
        """Run up to ``max_instructions`` uops; return the committed records."""
        return list(self.stream(max_instructions))

    def stream(self, max_instructions: int) -> Iterator[DynamicUop]:
        """Lazily yield up to ``max_instructions`` committed records.

        Machine state (``pc``/``seq``) stays consistent with the records the
        consumer has pulled, even if the generator is abandoned early.
        """
        if self.halted:
            return
        uops = self.program.uops
        regs = self.regs
        memory = self.memory
        pc = self.pc
        seq = self.seq
        halt = U.HALT
        for _ in range(max_instructions):
            op = uops[pc]
            if op.opcode == halt:
                self.halted = True
                break
            record = op.execute(regs, memory)
            record.seq = seq
            seq += 1
            pc = record.next_pc
            # state is written back *before* the yield so an abandoned
            # generator leaves the machine consistent with the records its
            # consumer actually pulled
            self.pc = pc
            self.seq = seq
            yield record
