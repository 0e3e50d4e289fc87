"""Compiled per-uop execution closures.

The reference interpreter (:func:`repro.emulator.machine.execute_uop`)
re-discovers everything about a uop on every dynamic execution: opcode
group, operand registers, immediate, addressing mode.  For the committed
path emulator — which executes the same few hundred static uops millions of
times — that dispatch cost dominates.  ``compile_uop`` pays it once per
*static* uop instead: each closure binds its opcode-specific arithmetic, its
source/destination register indices, its immediate, and its fall-through /
branch-target PCs as locals, so the per-dynamic-uop work is a handful of
list indexes and one :class:`~repro.emulator.trace.DynamicUop` construction.

The closures are semantically identical to ``execute_uop`` by construction;
``tests/test_dispatch_differential.py`` asserts it uop-for-uop over
randomized programs.  ``execute_uop`` remains the reference; the
simulator never falls back to it.
"""

from __future__ import annotations

from typing import Callable

from repro.emulator.memory import MASK64, SIGN64, wrap64
from repro.emulator.trace import DynamicUop
from repro.isa import uop as U
from repro.isa.program import Program
from repro.isa.registers import CC
from repro.isa.uop import Uop

_TWO64 = 1 << 64

#: Raw (unwrapped) arithmetic for the register-register ALU group.
_BINOPS = {
    U.ADD: lambda a, b: a + b,
    U.SUB: lambda a, b: a - b,
    U.MUL: lambda a, b: a * b,
    U.AND: lambda a, b: a & b,
    U.OR: lambda a, b: a | b,
    U.XOR: lambda a, b: a ^ b,
    U.SHL: lambda a, b: a << (b & 63),
    U.SHR: lambda a, b: (a & MASK64) >> (b & 63),
    U.SAR: lambda a, b: a >> (b & 63),
}

#: Same group with the second operand bound to an immediate at compile time.
_IMMOPS = {
    U.ADDI: lambda a, imm: a + imm,
    U.MULI: lambda a, imm: a * imm,
    U.ANDI: lambda a, imm: a & imm,
    U.ORI: lambda a, imm: a | imm,
    U.XORI: lambda a, imm: a ^ imm,
    U.SHLI: lambda a, imm: a << (imm & 63),
    U.SHRI: lambda a, imm: (a & MASK64) >> (imm & 63),
    U.SARI: lambda a, imm: a >> (imm & 63),
}

_COND_TESTS = {
    U.EQ: lambda cc: cc == 0,
    U.NE: lambda cc: cc != 0,
    U.LT: lambda cc: cc < 0,
    U.LE: lambda cc: cc <= 0,
    U.GT: lambda cc: cc > 0,
    U.GE: lambda cc: cc >= 0,
}


def _compile_alu_rr(op: Uop) -> Callable:
    def run(regs, memory, _fn=_BINOPS[op.opcode], _a=op.srcs[0],
            _b=op.srcs[1], _d=op.dst, _op=op, _next=op.pc + 1,
            _dyn=DynamicUop, _mask=MASK64, _sign=SIGN64, _two=_TWO64):
        value = _fn(regs[_a], regs[_b]) & _mask
        if value & _sign:
            value -= _two
        regs[_d] = value
        return _dyn(_op, -1, _next, False, -1, 0, value)
    return run


def _compile_alu_ri(op: Uop) -> Callable:
    def run(regs, memory, _fn=_IMMOPS[op.opcode], _a=op.srcs[0],
            _imm=op.imm, _d=op.dst, _op=op, _next=op.pc + 1,
            _dyn=DynamicUop, _mask=MASK64, _sign=SIGN64, _two=_TWO64):
        value = _fn(regs[_a], _imm) & _mask
        if value & _sign:
            value -= _two
        regs[_d] = value
        return _dyn(_op, -1, _next, False, -1, 0, value)
    return run


def _compile_mov(op: Uop) -> Callable:
    def run(regs, memory, _a=op.srcs[0], _d=op.dst, _op=op,
            _next=op.pc + 1, _dyn=DynamicUop):
        value = regs[_a]
        regs[_d] = value
        return _dyn(_op, -1, _next, False, -1, 0, value)
    return run


def _compile_movi(op: Uop) -> Callable:
    def run(regs, memory, _value=wrap64(op.imm), _d=op.dst, _op=op,
            _next=op.pc + 1, _dyn=DynamicUop):
        regs[_d] = _value
        return _dyn(_op, -1, _next, False, -1, 0, _value)
    return run


def _compile_not(op: Uop) -> Callable:
    def run(regs, memory, _a=op.srcs[0], _d=op.dst, _op=op,
            _next=op.pc + 1, _dyn=DynamicUop, _mask=MASK64, _sign=SIGN64,
            _two=_TWO64):
        value = ~regs[_a] & _mask
        if value & _sign:
            value -= _two
        regs[_d] = value
        return _dyn(_op, -1, _next, False, -1, 0, value)
    return run


def _compile_sext32(op: Uop) -> Callable:
    def run(regs, memory, _a=op.srcs[0], _d=op.dst, _op=op,
            _next=op.pc + 1, _dyn=DynamicUop):
        value = regs[_a] & 0xFFFFFFFF
        if value & 0x80000000:
            value -= 1 << 32
        regs[_d] = value
        return _dyn(_op, -1, _next, False, -1, 0, value)
    return run


def _compile_div_mod(op: Uop) -> Callable:
    is_div = op.opcode == U.DIV

    def run(regs, memory, _a=op.srcs[0], _b=op.srcs[1], _d=op.dst,
            _op=op, _next=op.pc + 1, _dyn=DynamicUop, _div=is_div,
            _wrap=wrap64):
        a = regs[_a]
        b = regs[_b]
        if b == 0:
            value = 0
        else:
            quotient = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                quotient = -quotient
            value = _wrap(quotient) if _div else _wrap(a - quotient * b)
        regs[_d] = value
        return _dyn(_op, -1, _next, False, -1, 0, value)
    return run


def _compile_cmp(op: Uop) -> Callable:
    def run(regs, memory, _a=op.srcs[0], _b=op.srcs[1], _op=op,
            _next=op.pc + 1, _dyn=DynamicUop, _cc=CC):
        diff = regs[_a] - regs[_b]
        value = (diff > 0) - (diff < 0)
        regs[_cc] = value
        return _dyn(_op, -1, _next, False, -1, 0, value)
    return run


def _compile_cmpi(op: Uop) -> Callable:
    def run(regs, memory, _a=op.srcs[0], _imm=op.imm, _op=op,
            _next=op.pc + 1, _dyn=DynamicUop, _cc=CC):
        diff = regs[_a] - _imm
        value = (diff > 0) - (diff < 0)
        regs[_cc] = value
        return _dyn(_op, -1, _next, False, -1, 0, value)
    return run


def _compile_ld(op: Uop) -> Callable:
    if op.index >= 0:
        def run(regs, memory, _base=op.base, _index=op.index,
                _scale=op.scale, _disp=op.disp, _d=op.dst, _op=op,
                _next=op.pc + 1, _dyn=DynamicUop, _mask=MASK64,
                _sign=SIGN64, _two=_TWO64):
            addr = (regs[_base] + regs[_index] * _scale + _disp) & _mask
            if addr & _sign:
                addr -= _two
            value = memory.read(addr)
            regs[_d] = value
            return _dyn(_op, -1, _next, False, addr, value, value)
        return run

    def run(regs, memory, _base=op.base, _disp=op.disp, _d=op.dst, _op=op,
            _next=op.pc + 1, _dyn=DynamicUop, _mask=MASK64, _sign=SIGN64,
            _two=_TWO64):
        addr = (regs[_base] + _disp) & _mask
        if addr & _sign:
            addr -= _two
        value = memory.read(addr)
        regs[_d] = value
        return _dyn(_op, -1, _next, False, addr, value, value)
    return run


def _compile_st(op: Uop) -> Callable:
    if op.index >= 0:
        def run(regs, memory, _base=op.base, _index=op.index,
                _scale=op.scale, _disp=op.disp, _s=op.srcs[0], _op=op,
                _next=op.pc + 1, _dyn=DynamicUop, _mask=MASK64,
                _sign=SIGN64, _two=_TWO64):
            addr = (regs[_base] + regs[_index] * _scale + _disp) & _mask
            if addr & _sign:
                addr -= _two
            value = regs[_s]
            memory.write(addr, value)
            return _dyn(_op, -1, _next, False, addr, value)
        return run

    def run(regs, memory, _base=op.base, _disp=op.disp, _s=op.srcs[0],
            _op=op, _next=op.pc + 1, _dyn=DynamicUop, _mask=MASK64,
            _sign=SIGN64, _two=_TWO64):
        addr = (regs[_base] + _disp) & _mask
        if addr & _sign:
            addr -= _two
        value = regs[_s]
        memory.write(addr, value)
        return _dyn(_op, -1, _next, False, addr, value)
    return run


def _compile_br(op: Uop) -> Callable:
    def run(regs, memory, _test=_COND_TESTS[op.cond], _op=op,
            _next=op.pc + 1, _target=op.target, _dyn=DynamicUop, _cc=CC):
        if _test(regs[_cc]):
            return _dyn(_op, -1, _target, True)
        return _dyn(_op, -1, _next)
    return run


def _compile_jmp(op: Uop) -> Callable:
    def run(regs, memory, _op=op, _target=op.target, _dyn=DynamicUop):
        return _dyn(_op, -1, _target, True)
    return run


def _compile_halt(op: Uop) -> Callable:
    def run(regs, memory, _op=op, _pc=op.pc, _dyn=DynamicUop):
        return _dyn(_op, -1, _pc)
    return run


_COMPILERS = {}
for _opcode in _BINOPS:
    _COMPILERS[_opcode] = _compile_alu_rr
for _opcode in _IMMOPS:
    _COMPILERS[_opcode] = _compile_alu_ri
_COMPILERS[U.MOV] = _compile_mov
_COMPILERS[U.MOVI] = _compile_movi
_COMPILERS[U.NOT] = _compile_not
_COMPILERS[U.SEXT32] = _compile_sext32
_COMPILERS[U.DIV] = _compile_div_mod
_COMPILERS[U.MOD] = _compile_div_mod
_COMPILERS[U.CMP] = _compile_cmp
_COMPILERS[U.CMPI] = _compile_cmpi
_COMPILERS[U.LD] = _compile_ld
_COMPILERS[U.ST] = _compile_st
_COMPILERS[U.BR] = _compile_br
_COMPILERS[U.JMP] = _compile_jmp
_COMPILERS[U.HALT] = _compile_halt
del _opcode


def compile_uop(op: Uop) -> Callable:
    """Build the execution closure for one static uop.

    The uop's ``pc`` (and ``target``, for control flow) must be final —
    i.e. the uop must already live in a built :class:`Program`.
    """
    try:
        compiler = _COMPILERS[op.opcode]
    except KeyError:
        raise ValueError(f"unknown opcode {op.opcode}") from None
    return compiler(op)


def ensure_compiled(program: Program) -> Program:
    """Bind an execution closure to every uop of ``program`` (idempotent)."""
    for op in program.uops:
        if op.execute is None:
            op.execute = compile_uop(op)
    return program
