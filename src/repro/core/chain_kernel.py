"""Compiled dependence-chain kernels (§4.2).

A region runs thousands of instances of the same few installed chains, and
an instance is pure straight-line dataflow: no control flow, a fixed uop
sequence, fixed register operands.  :func:`kernel_for` therefore emits
Python source for one chain — one statement group per uop, in program
order — and ``compile()``s it once into a function

    ``kernel(regs, ready, start, mem_get, alus, alu_usage, ports,
    port_usage, access_data, stats) -> (taken, finish)``

that runs one instance against a lineage's register values ``regs`` and
ready cycles ``ready`` (both updated in place) starting at cycle ``start``.

The emitted code is the interpreter's semantics, specialized:

* **Values** are the emulator's (:mod:`repro.emulator.dispatch`): every ALU
  result is wrapped to signed 64 bits as ``((x + 2**63) & MASK64) - 2**63``,
  the branch direction is its condition on CC, loads read the word
  ``mem_get(addr, 0)`` (the memory's own dict lookup).
* **Registers** live in locals while the instance runs.  A live-in is read
  from ``regs``/``ready`` at its first use; every definition gets a fresh
  local; eliminated MOVs and paired store→load forwards only rename locals
  (no code at all).  Each register the chain writes is stored back once,
  at the end.  Nothing else reads those lists while an instance runs, so
  the final lists equal the interpreter's.
* **Timing** keeps the interpreter's order of bookings: a uop is ready at
  ``max(start, its sources' ready cycles)`` (and, for ``dce_in_order``,
  its predecessor's completion); an ALU uop books the first free ALU cycle
  and completes ``latency`` later; a load books the first free D-cache port
  cycle and completes at ``access_data(addr, port_cycle, False, True)``.
  The booking fast paths of :class:`~repro.uarch.resources.FuTracker` and
  :class:`~repro.memsys.port.PortTracker` (the requested cycle is free) are
  inlined on their usage dicts; any other case calls the tracker's own
  ``acquire``/``acquire_free``.  Counters that are fixed per chain
  (``DceStats.uops_executed``/``loads_executed``) and the fast-path share of
  the trackers' use counters are added once per instance.

``tests/test_chain_kernel.py`` pins all of it against the interpreter loop
over randomized chains.

Kernels are cached per process, keyed by every operand the emitted code
bakes in (never by object identity), so re-extracting a chain with the same
content, or running the same chain in another cell, reuses its kernel.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Tuple

from repro.core.chain import DependenceChain
from repro.emulator.memory import wrap64
from repro.isa import uop as U
from repro.isa.registers import CC

#: Compiled kernels kept per process (distinct chain contents; a region
#: installs a few dozen at most).
KERNEL_CACHE_ENTRIES = 1024

_SIGN = 1 << 63
_MASK = (1 << 64) - 1

_kernels: "OrderedDict[tuple, Callable]" = OrderedDict()


def _wrap(expr: str) -> str:
    """Source for ``wrap64(expr)``."""
    return f"((({expr}) + {_SIGN}) & {_MASK}) - {_SIGN}"


_RR_TEMPLATES = {
    U.ADD: "{a} + {b}",
    U.SUB: "{a} - {b}",
    U.MUL: "{a} * {b}",
    U.AND: "{a} & {b}",
    U.OR: "{a} | {b}",
    U.XOR: "{a} ^ {b}",
    U.SHL: "({a} << ({b} & 63))",
    U.SHR: "(({a} & " + str(_MASK) + ") >> ({b} & 63))",
    U.SAR: "({a} >> ({b} & 63))",
}

_RI_TEMPLATES = {
    U.MULI: "{a} * {imm}",
    U.ANDI: "{a} & {imm}",
    U.ORI: "{a} | {imm}",
    U.XORI: "{a} ^ {imm}",
    U.SHLI: "({a} << {shift})",
    U.SHRI: "(({a} & " + str(_MASK) + ") >> {shift})",
    U.SARI: "({a} >> {shift})",
}

_CONDITIONS = {U.EQ: "== 0", U.NE: "!= 0", U.LT: "< 0", U.LE: "<= 0",
               U.GT: "> 0", U.GE: ">= 0"}


def _kernel_key(chain: DependenceChain, in_order: bool) -> tuple:
    """Everything the emitted source depends on."""
    return (bool(in_order), tuple(sorted(chain.pair_map.items())),
            tuple((bool(timed), op.opcode, op.dst, op.srcs, op.imm, op.base,
                   op.index, op.scale, op.disp, op.cond, op.latency,
                   op.src_regs, op.dst_regs)
                  for op, timed in zip(chain.exec_uops, chain.timed_flags)))


def kernel_for(chain: DependenceChain, in_order: bool
               ) -> Tuple[Callable, bool]:
    """The chain's kernel and whether this call had to compile it."""
    key = _kernel_key(chain, in_order)
    kernel = _kernels.get(key)
    if kernel is not None:
        _kernels.move_to_end(key)
        return kernel, False
    namespace = {}
    exec(compile(emit_source(chain, in_order), "<chain kernel>", "exec"),
         namespace)
    kernel = namespace["kernel"]
    _kernels[key] = kernel
    if len(_kernels) > KERNEL_CACHE_ENTRIES:
        _kernels.popitem(last=False)
    return kernel, True


def emit_source(chain: DependenceChain, in_order: bool) -> str:
    """Python source of the chain's kernel (see the module docstring)."""
    body: List[str] = []
    emit = body.append
    value: Dict[int, str] = {}   # arch reg -> local holding its value
    ready: Dict[int, str] = {}   # arch reg -> local holding its ready cycle
    written: List[int] = []      # regs to store back, first-write order
    pair_value: Dict[int, str] = {}
    pair_ready: Dict[int, str] = {}
    dones: List[str] = []
    taken = "False"
    alu_uops = load_uops = 0

    def read_value(reg: int) -> str:
        name = value.get(reg)
        if name is None:
            name = value[reg] = f"v_{reg}"
            emit(f"{name} = regs[{reg}]")
        return name

    def read_ready(reg: int) -> str:
        name = ready.get(reg)
        if name is None:
            name = ready[reg] = f"r_{reg}"
            emit(f"{name} = ready[{reg}]")
        return name

    def define(reg: int, value_name: str, ready_name: str) -> None:
        if reg not in written:
            written.append(reg)
        value[reg] = value_name
        ready[reg] = ready_name

    for index, op in enumerate(chain.exec_uops):
        opcode = op.opcode
        if op.is_store:
            # never writes memory inside the DCE: forward value + timing
            pair_value[index] = read_value(op.srcs[0])
            pair_ready[index] = read_ready(op.srcs[0])
            continue
        if op.is_load and index in chain.pair_map:
            store_index = chain.pair_map[index]
            define(op.dst, pair_value.get(store_index, "0"),
                   pair_ready.get(store_index, "start"))
            continue
        if not chain.timed_flags[index]:  # eliminated MOV
            define(op.dst, read_value(op.srcs[0]), read_ready(op.srcs[0]))
            continue

        # ---- functional value (before timing, like the interpreter) ----
        result = f"x{index}"
        if opcode <= U.SAR:
            emit(f"{result} = " + _wrap(_RR_TEMPLATES[opcode].format(
                a=read_value(op.srcs[0]), b=read_value(op.srcs[1]))))
        elif opcode == U.ADDI:
            emit(f"{result} = (({read_value(op.srcs[0])} + "
                 f"{op.imm + _SIGN}) & {_MASK}) - {_SIGN}")
        elif opcode <= U.SARI:
            emit(f"{result} = " + _wrap(_RI_TEMPLATES[opcode].format(
                a=read_value(op.srcs[0]), imm=op.imm, shift=op.imm & 63)))
        elif opcode == U.MOVI:
            result = repr(wrap64(op.imm))
        elif opcode == U.NOT:
            emit(f"{result} = " + _wrap(f"~{read_value(op.srcs[0])}"))
        elif opcode == U.SEXT32:
            emit(f"{result} = (({read_value(op.srcs[0])} + {1 << 31}) "
                 f"& {0xFFFFFFFF}) - {1 << 31}")
        elif opcode in (U.CMP, U.CMPI):
            right = (read_value(op.srcs[1]) if opcode == U.CMP
                     else repr(op.imm))
            emit(f"diff = {read_value(op.srcs[0])} - {right}")
            emit(f"{result} = (diff > 0) - (diff < 0)")
        elif opcode == U.LD:
            address = read_value(op.base)
            if op.index >= 0:
                address += f" + {read_value(op.index)} * {op.scale}"
            emit(f"addr = (({address} + {op.disp + _SIGN}) & {_MASK}) "
                 f"- {_SIGN}")
            emit(f"{result} = mem_get(addr, 0)")
        elif opcode == U.BR:
            taken = f"t{index}"
            emit(f"{taken} = {read_value(CC)} {_CONDITIONS[op.cond]}")
            result = None
        else:
            raise ValueError(f"{op!r} cannot be part of a chain")

        # ---- data ready --------------------------------------------------
        emit("dr = start")
        for src in op.src_regs:
            source = read_ready(src)
            emit(f"if {source} > dr: dr = {source}")
        if in_order and dones:
            # §4.2 ablation: strict program order serializes each uop
            # behind its predecessor's completion
            emit(f"if {dones[-1]} > dr: dr = {dones[-1]}")

        # ---- issue ---------------------------------------------------------
        done = f"d{index}"
        if opcode == U.LD:
            load_uops += 1
            emit("used = port_get(dr, 0)")
            emit("if used < port_count:")
            emit("    port_usage[dr] = used + 1")
            emit(f"    {done} = access_data(addr, dr, False, True)")
            emit("else:")
            emit("    port_slow += 1")
            emit(f"    {done} = access_data(addr, ports.acquire_free(dr), "
                 "False, True)")
        else:
            alu_uops += 1
            emit("used = alu_get(dr, 0)")
            emit("if used < alu_count:")
            emit("    alu_usage[dr] = used + 1")
            emit(f"    {done} = dr + {op.latency}")
            emit("else:")
            emit("    alu_slow += 1")
            emit(f"    {done} = alus.acquire(dr) + {op.latency}")
        dones.append(done)
        if result is not None:
            define(op.dst_regs[0], result, done)

    for reg in written:
        emit(f"regs[{reg}] = {value[reg]}")
        emit(f"ready[{reg}] = {ready[reg]}")
    if alu_uops:
        emit(f"alus.total_acquired += {alu_uops} - alu_slow")
    if load_uops:
        emit(f"ports.dce_uses += {load_uops} - port_slow")
    if alu_uops + load_uops:
        emit(f"stats.uops_executed += {alu_uops + load_uops}")
    if load_uops:
        emit(f"stats.loads_executed += {load_uops}")
    finish = f"max(start, {', '.join(dones)})" if dones else "start"
    emit(f"return {taken}, {finish}")

    prologue = []
    if alu_uops:
        prologue += ["alu_get = alu_usage.get", "alu_count = alus.count",
                     "alu_slow = 0"]
    if load_uops:
        prologue += ["port_get = port_usage.get",
                     "port_count = ports.num_ports", "port_slow = 0"]
    lines = ["def kernel(regs, ready, start, mem_get, alus, alu_usage, "
             "ports, port_usage, access_data, stats):"]
    lines += ["    " + line for line in prologue + body]
    return "\n".join(lines) + "\n"
