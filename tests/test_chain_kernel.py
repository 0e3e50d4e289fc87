"""Differential tests: compiled chain kernels vs the interpreter loop.

``reference_execute`` below is the Dependence Chain Engine's per-uop
interpreter as it ran before chains were compiled (one
:class:`~repro.emulator.trace.DynamicUop` per executed uop, every booking
through the trackers' own methods).  Each randomized chain runs several
instances through it and through the chain's compiled kernel, each side
on its own copy of the environment, and everything either side can touch
must come out equal: the lineage's registers and ready cycles, the branch
outcome and finish cycle, ``DceStats``, the ALU-pool and D-cache-port
usage and counters, and the memory hierarchy's statistics.
"""

import random
from typing import Dict

import pytest

from repro.core.chain import TERMINATED_SELF, WILDCARD, DependenceChain
from repro.core.chain_kernel import kernel_for
from repro.core.dce import DceStats
from repro.core.local_rename import local_rename
from repro.emulator.dispatch import compile_uop
from repro.emulator.machine import execute_uop
from repro.emulator.memory import Memory, wrap64
from repro.isa import uop as U
from repro.isa.registers import CC, NUM_ARCH_REGS
from repro.isa.uop import Uop
from repro.memsys.hierarchy import MemoryHierarchy
from repro.memsys.port import PortTracker
from repro.telemetry import StatRegistry
from repro.uarch.resources import FuTracker

CASES = 400
INSTANCES = 4
#: Registers the random chains use (a small set, so values flow).
REGS = (0, 1, 2, 3, 4, 5)

RR_OPS = (U.ADD, U.SUB, U.MUL, U.AND, U.OR, U.XOR, U.SHL, U.SHR, U.SAR)
RI_OPS = (U.ADDI, U.MULI, U.ANDI, U.ORI, U.XORI, U.SHLI, U.SHRI, U.SARI)
CHAINABLE = RR_OPS + RI_OPS + (U.MOV, U.MOVI, U.NOT, U.SEXT32, U.CMP,
                               U.CMPI, U.LD, U.ST)


def reference_execute(chain, start, regs, ready, memory, alus, ports,
                      hierarchy, stats, in_order):
    """The interpreter loop the kernels replace (kept as the reference)."""
    pair_values: Dict[int, int] = {}
    pair_ready: Dict[int, int] = {}
    taken = False
    finish = start
    previous_done = start
    for index, op in enumerate(chain.exec_uops):
        timed = chain.timed_flags[index]
        if op.is_store:
            pair_values[index] = regs[op.srcs[0]]
            pair_ready[index] = ready[op.srcs[0]]
            continue
        if op.is_load and index in chain.pair_map:
            store_index = chain.pair_map[index]
            regs[op.dst] = pair_values.get(store_index, 0)
            ready[op.dst] = pair_ready.get(store_index, start)
            continue
        if not timed:  # eliminated MOV
            regs[op.dst] = regs[op.srcs[0]]
            ready[op.dst] = ready[op.srcs[0]]
            continue
        data_ready = start
        for src in op.src_regs:
            if ready[src] > data_ready:
                data_ready = ready[src]
        if in_order and previous_done > data_ready:
            data_ready = previous_done
        run = op.execute
        if run is not None:
            record = run(regs, memory)
        else:
            record = execute_uop(op, regs, memory)
        if op.is_load:
            port_cycle = ports.acquire_free(data_ready)
            done = hierarchy.access_data(record.addr, port_cycle,
                                         from_dce=True)
            stats.loads_executed += 1
        else:
            issue = alus.acquire(data_ready)
            done = issue + op.latency
        stats.uops_executed += 1
        previous_done = done
        for dst in op.dst_regs:
            ready[dst] = done
        if op.is_cond_branch:
            taken = record.taken
        if done > finish:
            finish = done
    return taken, finish


class CountingFuTracker(FuTracker):
    """Counts the ``acquire`` calls a kernel makes (its slow path)."""

    slow_calls = 0

    def acquire(self, cycle):
        CountingFuTracker.slow_calls += 1
        return super().acquire(cycle)


class CountingPortTracker(PortTracker):
    slow_calls = 0

    def acquire_free(self, cycle, horizon=64):
        CountingPortTracker.slow_calls += 1
        return super().acquire_free(cycle, horizon)


def random_value(rng):
    roll = rng.random()
    if roll < 0.6:
        return rng.randrange(0, 48)
    if roll < 0.8:
        return -rng.randrange(1, 48)
    return wrap64(rng.getrandbits(64))


def random_uop(rng, opcode):
    reg = rng.choice
    if opcode in RR_OPS or opcode == U.CMP:
        dst = -1 if opcode == U.CMP else reg(REGS)
        return Uop(opcode, dst=dst, srcs=(reg(REGS), reg(REGS)))
    if opcode in RI_OPS or opcode == U.CMPI:
        dst = -1 if opcode == U.CMPI else reg(REGS)
        imm = rng.choice((rng.randrange(-70, 70), rng.getrandbits(64) - 2**63))
        return Uop(opcode, dst=dst, srcs=(reg(REGS),), imm=imm)
    if opcode == U.MOVI:
        return Uop(opcode, dst=reg(REGS + (CC,)),
                   imm=rng.choice((-rng.randrange(1, 99), rng.randrange(99),
                                   2**64 - 5)))
    if opcode in (U.MOV, U.NOT, U.SEXT32):
        return Uop(opcode, dst=reg(REGS), srcs=(reg(REGS),))
    index = reg(REGS) if rng.random() < 0.5 else -1
    scale = rng.choice((1, 2, 8)) if index >= 0 else 1
    disp = rng.randrange(-8, 40)
    if opcode == U.LD:
        return Uop(opcode, dst=reg(REGS), base=reg(REGS), index=index,
                   scale=scale, disp=disp)
    return Uop(opcode, srcs=(reg(REGS),), base=reg(REGS), index=index,
               scale=scale, disp=disp)


def random_chain(rng, opcodes):
    uops = [random_uop(rng, opcode) for opcode in opcodes]
    uops.append(Uop(U.CMPI, srcs=(rng.choice(REGS),),
                    imm=rng.randrange(-4, 20)))
    uops.append(Uop(U.BR, cond=rng.randrange(6), target=0))
    pair_map = {}
    stores = []
    for index, op in enumerate(uops):
        if op.is_store:
            stores.append(index)
        elif op.is_load and stores and rng.random() < 0.5:
            pair_map[index] = rng.choice(stores)
    compiled = rng.random() < 0.5  # program uops vs synthetic chain uops
    for pc, op in enumerate(uops):
        op.pc = 0x40 + pc
        if compiled:
            op.execute = compile_uop(op)
    rename = local_rename(uops, pair_map)
    return DependenceChain(
        branch_pc=uops[-1].pc, branch_uop=uops[-1], tag=(0x40, WILDCARD),
        exec_uops=uops, timed_flags=rename.timed_flags,
        live_ins=rename.live_ins, live_outs=rename.live_outs,
        pair_map=pair_map, terminated_by=TERMINATED_SELF,
        num_local_regs=rename.num_local_regs)


class Environment:
    """Everything an instance can read or write, built from one seed."""

    def __init__(self, seed, kernel_side, shared_core_alus):
        rng = random.Random(seed)
        self.memory = Memory({address: random_value(rng)
                              for address in range(-8, 120)})
        alu_class = CountingFuTracker if kernel_side else FuTracker
        port_class = CountingPortTracker if kernel_side else PortTracker
        # Core-Only shares the core's 4-ALU pool, already busy with the
        # core's own issue; the DCE's private pool has 2 ALUs
        self.alus = alu_class(4 if shared_core_alus else 2)
        self.ports = port_class(2)
        self.hierarchy = MemoryHierarchy()
        self.stats = DceStats()
        busy = rng.randrange(0, 30)
        for cycle in range(busy, busy + rng.randrange(0, 90)):
            # saturated stretches force the trackers' slow paths
            self.alus._usage[cycle] = rng.choice((self.alus.count,
                                                  rng.randrange(3)))
            self.ports._usage[cycle] = rng.choice((2, rng.randrange(3)))
        self.alus.total_acquired = rng.randrange(5)
        self.ports.core_uses = rng.randrange(5)
        for address in rng.sample(range(0, 400), 12):
            self.hierarchy.access_data(address, rng.randrange(50))
        self.regs = [random_value(rng) for _ in range(NUM_ARCH_REGS)]
        self.ready = [rng.randrange(0, 60) for _ in range(NUM_ARCH_REGS)]

    def snapshot(self):
        registry = StatRegistry()
        self.hierarchy.register_into(registry.scope("memsys"))
        return {
            "regs": list(self.regs),
            "ready": list(self.ready),
            "stats": dict(vars(self.stats)),
            "alus": (dict(self.alus._usage), self.alus.total_acquired),
            "ports": (dict(self.ports._usage), self.ports.dce_uses,
                      self.ports.dce_delay_cycles, self.ports.core_uses),
            "memsys": registry.to_dict(),
            "mshrs": (dict(self.hierarchy.mshrs._outstanding),
                      dict(self.hierarchy.dce_mshrs._outstanding),
                      self.hierarchy.mshrs.merges,
                      self.hierarchy.dce_mshrs.merges),
        }


def run_case(seed, chain, in_order, shared_core_alus):
    reference = Environment(seed, False, shared_core_alus)
    compiled = Environment(seed, True, shared_core_alus)
    kernel, _ = kernel_for(chain, in_order)
    rng = random.Random(seed)
    start = rng.randrange(0, 40)
    for _ in range(INSTANCES):
        expected = reference_execute(
            chain, start, reference.regs, reference.ready, reference.memory,
            reference.alus, reference.ports, reference.hierarchy,
            reference.stats, in_order)
        got = kernel(compiled.regs, compiled.ready, start,
                     compiled.memory._words.get, compiled.alus,
                     compiled.alus._usage, compiled.ports,
                     compiled.ports._usage, compiled.hierarchy.access_data,
                     compiled.stats)
        assert got == expected
        assert type(got[0]) is bool
        assert compiled.snapshot() == reference.snapshot()
        start = expected[1] - rng.randrange(0, 6)  # successor-like starts


def case_chains():
    """Randomized chains, plus one per opcode so every chainable opcode
    (negative MOVI, SHR/SAR/SEXT32 included) is guaranteed to appear."""
    rng = random.Random(20211)
    chains = []
    for opcode in CHAINABLE:
        chains.append(random_chain(rng, [U.LD, U.ST, opcode, U.LD, opcode]))
    while len(chains) < CASES:
        length = rng.randrange(1, 14)
        chains.append(random_chain(rng, [rng.choice(CHAINABLE)
                                         for _ in range(length)]))
    return chains


def test_kernels_match_the_interpreter():
    CountingFuTracker.slow_calls = CountingPortTracker.slow_calls = 0
    seen = set()
    eliminated = paired = negative_movi = 0
    for case, chain in enumerate(case_chains()):
        run_case(case, chain, in_order=case % 4 == 1,
                 shared_core_alus=case % 3 == 2)
        seen.update(op.opcode for op in chain.exec_uops)
        eliminated += sum(op.opcode == U.MOV and not timed for op, timed
                          in zip(chain.exec_uops, chain.timed_flags))
        paired += len(chain.pair_map)
        negative_movi += sum(op.opcode == U.MOVI and wrap64(op.imm) < 0
                             for op in chain.exec_uops)
    assert seen >= set(CHAINABLE) | {U.BR}
    assert eliminated and paired and negative_movi
    # the slow paths ran (saturated cycles), not just the inlined ones
    assert CountingFuTracker.slow_calls > 50
    assert CountingPortTracker.slow_calls > 20


@pytest.mark.parametrize("in_order", [False, True])
def test_kernel_cache_is_keyed_by_content(in_order):
    rng = random.Random(7)
    ops = [U.LD, U.ADDI, U.ST, U.LD, U.CMP]
    first = random_chain(random.Random(3), ops)
    twin = random_chain(random.Random(3), ops)
    other = random_chain(rng, [U.SUB, U.SHRI])
    kernel, _ = kernel_for(first, in_order)
    assert kernel_for(twin, in_order)[0] is kernel
    assert kernel_for(first, not in_order)[0] is not kernel
    assert kernel_for(other, in_order)[0] is not kernel
