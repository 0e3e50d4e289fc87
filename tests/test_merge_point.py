"""Tests for merge-point prediction (§4.4) and the WPB."""

from repro.core.config import BranchRunaheadConfig
from repro.core.merge_point import (
    BloomFilter,
    MergePointPredictor,
    OracleMergeTracker,
    WrongPathBuffer,
    static_merge_prediction,
)
from repro.emulator.machine import Machine, execute_uop
from repro.emulator.memory import OverlayMemory
from repro.emulator.shadow import ShadowUop, wrong_path_steps, wrong_path_walk
from repro.emulator.trace import DynamicUop
from repro.isa import uop as U
from repro.isa.program import ProgramBuilder
from repro.isa.registers import reg_bit
from repro.isa.uop import Uop


def hammock_program():
    """if/else with a clear merge point, inside a loop.

    Layout: 0 movi x / 1 movi y / loop: 2 ld v / 3 cmpi / 4 br -> 7 /
    5 addi y (NT side) / 6 jmp 8 / 7 addi y,100 (T side) / 8 addi x (merge)
    / 9 andi x / 10 jmp loop.
    """
    b = ProgramBuilder()
    data = b.data("data", [0, 1] * 64)
    datar, x, y, v = b.regs("data", "x", "y", "v")
    b.movi(datar, data)
    b.movi(x, 0)
    b.label("loop")
    b.ld(v, base=datar, index=x)
    b.cmpi(v, 0)
    b.br("ne", "taken_side")
    b.addi(y, y, 1)
    b.jmp("merge")
    b.label("taken_side")
    b.addi(y, y, 100)
    b.label("merge")
    b.addi(x, x, 1)
    b.andi(x, x, 127)
    b.jmp("loop")
    program = b.build()
    branch_pc = next(op.pc for op in program.uops if op.is_cond_branch)
    merge_pc = program.uops[branch_pc].target + 1  # the addi after T side
    return program, branch_pc, merge_pc


def run_until_branch(program, branch_pc, skip=3):
    """Advance a machine to just before the (skip+1)-th branch instance."""
    machine = Machine(program)
    seen = 0
    while True:
        if machine.pc == branch_pc:
            seen += 1
            if seen > skip:
                return machine
        machine.step()


class TestBloomFilter:
    def test_member_found(self):
        bloom = BloomFilter()
        bloom.add(1234)
        assert bloom.contains(1234)

    def test_empty_rejects(self):
        assert not BloomFilter().contains(99)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(bits=256)
        for value in range(10):
            bloom.add(value * 7919)
        false_hits = sum(bloom.contains(v) for v in range(100000, 100200))
        assert false_hits < 40  # sparse filter: few false positives

    def test_clear(self):
        bloom = BloomFilter()
        bloom.add(5)
        bloom.clear()
        assert not bloom.contains(5)


class TestWrongPathBuffer:
    def test_insert_probe(self):
        wpb = WrongPathBuffer(entries=16, ways=4)
        wpb.insert(0x10, 0b101)
        wpb.valid = True
        assert wpb.probe(0x10) == 0b101

    def test_invalid_returns_none(self):
        wpb = WrongPathBuffer()
        wpb.insert(0x10, 1)
        assert wpb.probe(0x10) is None  # not marked valid

    def test_first_occurrence_kept(self):
        wpb = WrongPathBuffer()
        wpb.insert(0x10, 0b1)
        wpb.insert(0x10, 0b111)  # loop revisit must not widen the dest set
        wpb.valid = True
        assert wpb.probe(0x10) == 0b1

    def test_associativity_eviction(self):
        wpb = WrongPathBuffer(entries=4, ways=2)  # 2 sets x 2 ways
        wpb.insert(0, 1)
        wpb.insert(2, 2)   # same set as 0
        wpb.insert(4, 3)   # evicts 0
        wpb.valid = True
        assert wpb.probe(0) is None
        assert wpb.probe(4) == 3


class TestStaticPredictor:
    def test_backward_branch_fallthrough(self):
        op = Uop(U.BR, cond=U.EQ, target=2)
        op.pc = 10
        assert static_merge_prediction(op) == 11

    def test_forward_branch_target(self):
        op = Uop(U.BR, cond=U.EQ, target=20)
        op.pc = 10
        assert static_merge_prediction(op) == 20


class TestMergePointPredictor:
    def _train_and_probe(self, wrong_taken):
        program, branch_pc, merge_pc = hammock_program()
        machine = run_until_branch(program, branch_pc)
        regs = list(machine.regs)
        record = machine.step()
        if record.taken == wrong_taken:
            return None, None  # need the other direction; caller retries
        predictor = MergePointPredictor(BranchRunaheadConfig())
        predictor.train_on_mispredict(
            record, wrong_path_steps(program, regs, machine.memory,
                                     branch_pc, wrong_taken), 50)
        result = None
        for _ in range(20):
            nxt = machine.step()
            result = predictor.on_retire(nxt)
            if result is not None:
                break
        return result, merge_pc

    def test_finds_hammock_merge(self):
        found = False
        for wrong_taken in (True, False):
            result, merge_pc = self._train_and_probe(wrong_taken)
            if result is not None:
                assert result.merge_pc == merge_pc
                found = True
        assert found

    def test_both_path_dest_set(self):
        program, branch_pc, merge_pc = hammock_program()
        machine = run_until_branch(program, branch_pc)
        regs = list(machine.regs)
        record = machine.step()
        predictor = MergePointPredictor(BranchRunaheadConfig())
        predictor.train_on_mispredict(
            record, wrong_path_steps(program, regs, machine.memory,
                                     branch_pc, not record.taken), 50)
        result = None
        while result is None:
            result = predictor.on_retire(machine.step())
        # y (reg index 2) is written on both sides of the branch
        assert result.both_path_dest_mask & reg_bit(2)

    def test_guarded_branch_collection(self):
        """Branches before the merge are guarded; ones after are not."""
        b = ProgramBuilder()
        data = b.data("data", [0, 1, 1, 0] * 32)
        datar, x, v, y = b.regs("data", "x", "v", "y")
        b.movi(datar, data)
        b.movi(x, 0)
        b.label("loop")
        b.ld(v, base=datar, index=x)
        b.cmpi(v, 0)
        b.br("ne", "other")         # outer branch
        b.ld(y, base=datar, index=x, disp=1)
        b.cmpi(y, 0)
        b.br("eq", "merge")         # inner branch, guarded by outer
        b.addi(y, y, 1)
        b.jmp("merge")
        b.label("other")
        b.addi(y, y, 2)
        b.label("merge")
        b.addi(x, x, 1)
        b.andi(x, x, 127)
        b.jmp("loop")
        program = b.build()
        outer_pc = 4
        inner_pc = 7
        machine = run_until_branch(program, outer_pc, skip=4)
        regs = list(machine.regs)
        record = machine.step()
        predictor = MergePointPredictor(BranchRunaheadConfig())
        predictor.train_on_mispredict(
            record, wrong_path_steps(program, regs, machine.memory,
                                     outer_pc, not record.taken), 60)
        result = None
        while result is None:
            result = predictor.on_retire(machine.step())
        assert inner_pc in result.guarded_branches

    def test_abort_on_second_instance(self):
        """If control re-reaches the branch before any merge: give up."""
        b = ProgramBuilder()
        data = b.data("data", [0, 1] * 64)
        datar, x, v = b.regs("data", "x", "v")
        b.movi(datar, data)
        b.movi(x, 0)
        b.label("loop")
        b.addi(x, x, 1)
        b.andi(x, x, 127)
        b.ld(v, base=datar, index=x)
        b.cmpi(v, 0)
        b.br("ne", "loop")          # taken -> loop, NT -> also loops below
        b.jmp("loop")
        program = b.build()
        branch_pc = 6
        machine = run_until_branch(program, branch_pc, skip=4)
        regs = list(machine.regs)
        record = machine.step()
        predictor = MergePointPredictor(BranchRunaheadConfig())
        # empty walk: pretend the wrong path produced nothing useful
        predictor.train_on_mispredict(record, [], 50)
        for _ in range(30):
            predictor.on_retire(machine.step())
            if not predictor.active:
                break
        assert not predictor.active
        assert predictor.merges_found == 0


class TestOracle:
    def test_scores_dynamic_and_static(self):
        program, branch_pc, merge_pc = hammock_program()
        machine = run_until_branch(program, branch_pc)
        regs = list(machine.regs)
        record = machine.step()
        oracle = OracleMergeTracker()
        shadow = wrong_path_walk(program, regs, machine.memory, branch_pc,
                                 not record.taken, 200)
        static_guess = static_merge_prediction(record.uop)
        oracle.start(record, shadow, static_guess)
        oracle.register_dynamic(merge_pc)
        for _ in range(30):
            oracle.on_retire(machine.step())
            if oracle.resolved:
                break
        assert oracle.resolved == 1
        assert oracle.dynamic_correct == 1


# -- lazy walk + fused fill vs the list-based reference -----------------------

def reference_walk(program, regs, memory, branch_pc, wrong_taken, max_uops):
    """The list-based wrong-path walk the lazy walk replaced.

    Returns ``(shadow_uops, end)`` where ``end`` says why the walk stopped:
    ``"budget"``, ``"halt"`` or ``"exit"`` (left the program).
    """
    branch_uop = program.uops[branch_pc]
    shadow_regs = list(regs)
    shadow_memory = OverlayMemory(memory)
    pc = branch_uop.target if wrong_taken else branch_pc + 1
    observed = []
    uops = program.uops
    for _ in range(max_uops):
        if not 0 <= pc < len(uops):
            return observed, "exit"
        op = uops[pc]
        if op.opcode == U.HALT:
            return observed, "halt"
        run = op.execute
        if run is not None:
            record = run(shadow_regs, shadow_memory)
        else:
            record = execute_uop(op, shadow_regs, shadow_memory)
        observed.append(ShadowUop(
            pc=pc, dst_regs=op.dst_regs, is_cond_branch=op.is_cond_branch,
            taken=record.taken,
            store_addr=record.addr if op.is_store else -1))
        pc = record.next_pc
    return observed, "budget"


def reference_fill(config, record, shadow_uops):
    """The list-based WPB fill, on its own buffer; returns its snapshot
    (as :func:`fill_snapshot`), the uops it read, and what it saw."""
    wpb = WrongPathBuffer(config.wpb_entries, config.wpb_ways)
    stores = BloomFilter()
    branch_order, pc_order = {}, {}
    running_mask = 0
    copied = read = 0
    seen = set()
    for shadow in shadow_uops:
        if copied >= config.max_merge_distance:
            break
        read += 1
        if shadow.pc == record.pc:
            seen.add("repeat")
            break
        if shadow.is_cond_branch and shadow.pc not in branch_order:
            branch_order[shadow.pc] = copied
        if shadow.pc not in pc_order:
            pc_order[shadow.pc] = copied
        elif shadow.pc not in wpb._set_for(shadow.pc):
            seen.add("revisit_after_eviction")
        wpb.insert(shadow.pc, running_mask)
        for dst in shadow.dst_regs:
            running_mask |= reg_bit(dst)
        if shadow.store_addr >= 0:
            stores.add(shadow.store_addr)
        elif shadow.store_addr != -1:
            seen.add("negative_store")
        copied += 1
    wpb.valid = copied > 0
    snapshot = ([list(entries.items()) for entries in wpb._sets],
                list(pc_order.items()), list(branch_order.items()),
                stores._bits, wpb.valid)
    return snapshot, read, seen


def fill_snapshot(predictor):
    return ([list(entries.items()) for entries in predictor.wpb._sets],
            list(predictor._wp_pc_order.items()),
            list(predictor._wp_branch_order.items()),
            predictor._wp_stores._bits, predictor.wpb.valid)


def random_program(rng):
    """Straight-line ALU/memory code with branches and jumps to any PC,
    the end of the program (leaving it) included, and the odd HALT."""
    b = ProgramBuilder()
    data = b.data("data", [rng.randrange(-60, 60) for _ in range(24)])
    regs = b.regs("a", "b", "c", "d", "e")
    size = rng.randrange(6, 40)
    branch_at = rng.randrange(size)
    for position in range(size):
        b.label(f"L{position}")
        pick = rng.random()
        r = rng.choice
        target = f"L{rng.randrange(size + 1)}"
        if position == branch_at or pick < 0.18:
            b.br(r(["eq", "ne", "lt", "le", "gt", "ge"]), target)
        elif pick < 0.24:
            b.jmp(target)
        elif pick < 0.27:
            b.halt()
        elif pick < 0.40:
            b.ld(r(regs), base=r(regs), disp=rng.randrange(-3, 8))
        elif pick < 0.55:
            b.st(r(regs), base=r(regs), disp=rng.randrange(-3, 8))
        elif pick < 0.65:
            b.cmpi(r(regs), rng.randrange(-20, 20))
        elif pick < 0.72:
            b.movi(r(regs), rng.choice([data, data + 5, -7, -40, 3]))
        else:
            b.addi(r(regs), r(regs), rng.randrange(-9, 9))
    b.label(f"L{size}")
    return b.build(), data


def test_fused_walk_fill_matches_list_reference():
    import random
    rng = random.Random(0x5EED)
    covered = set()
    for _ in range(600):
        program, data = random_program(rng)
        machine = Machine(program)  # compiles the execute closures
        branches = [op.pc for op in program.uops if op.is_cond_branch]
        branch_pc = rng.choice(branches)
        values = [data, data + 3, -5, -30, 0, 7, rng.randrange(-99, 99)]
        regs = [rng.choice(values) for _ in range(len(machine.regs))]
        wrong_taken = rng.random() < 0.5
        config = BranchRunaheadConfig(
            wpb_entries=rng.choice([4, 8, 128]), wpb_ways=2,
            max_merge_distance=rng.randrange(1, 40))
        budget = rng.randrange(0, 2 * config.max_merge_distance + 2)
        record = DynamicUop(program.uops[branch_pc], 0, branch_pc + 1,
                            not wrong_taken)

        shadow, end = reference_walk(program, regs, machine.memory,
                                     branch_pc, wrong_taken, budget)
        expected, read, seen = reference_fill(config, record, shadow)

        predictor = MergePointPredictor(config)
        pulled = predictor.train_on_mispredict(
            record, wrong_path_steps(program, regs, machine.memory,
                                     branch_pc, wrong_taken), budget)
        assert fill_snapshot(predictor) == expected
        assert pulled == read
        assert predictor.active

        if "repeat" not in seen and read == len(shadow):
            covered.add(end)  # the fill read the walk up to its end
        covered |= seen
        covered.add("budget_below" if budget < config.max_merge_distance
                    else "budget_above")
    assert covered >= {"budget_below", "budget_above", "halt", "exit",
                       "repeat", "negative_store",
                       "revisit_after_eviction"}, covered
