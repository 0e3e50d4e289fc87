"""Authoring a custom workload and comparing predictors on it.

Shows the full public API surface: write a kernel in the micro-op ISA,
replay a ladder of classic predictors (always-taken, bimodal, gshare,
TAGE-SC-L) over its committed branch stream in one batched pass, then
attach Branch Runahead for the full timing comparison.

The kernel is a toy interpreter dispatch loop: a classic source of
data-dependent branches (the opcode test depends on the loaded bytecode).

Run:  python examples/custom_workload.py
"""

import numpy as np

from repro import ProgramBuilder, mini, simulate, tage_scl_64kb
from repro.predictors import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    GSharePredictor,
)
from repro.sim.predictor_replay import replay_mpki_batch


def build_interpreter():
    rng = np.random.default_rng(7)
    b = ProgramBuilder("bytecode_interp")
    code = b.data("code", [int(v) for v in rng.integers(0, 4, 4096)])
    coder, pc_reg, op, acc = b.regs("code", "vpc", "op", "acc")
    b.movi(coder, code)
    b.movi(pc_reg, 0)
    b.movi(acc, 0)
    b.label("dispatch")
    b.ld(op, base=coder, index=pc_reg)   # fetch bytecode
    b.cmpi(op, 0)
    b.br("eq", "op_nop")                 # data-dependent dispatch...
    b.cmpi(op, 1)
    b.br("eq", "op_add")
    b.cmpi(op, 2)
    b.br("eq", "op_sub")
    b.muli(acc, acc, 3)                  # default: op_mul
    b.jmp("next")
    b.label("op_nop")
    b.jmp("next")
    b.label("op_add")
    b.addi(acc, acc, 5)
    b.jmp("next")
    b.label("op_sub")
    b.addi(acc, acc, -2)
    b.label("next")
    b.muli(pc_reg, pc_reg, 5)            # pseudo-random walk over the code
    b.addi(pc_reg, pc_reg, 31)
    b.andi(pc_reg, pc_reg, 4095)
    b.jmp("dispatch")
    return b.build()


def main():
    program = build_interpreter()
    print("trace-driven predictor accuracy on the dispatch branches:")
    predictors = [AlwaysTakenPredictor(), BimodalPredictor(),
                  GSharePredictor(), tage_scl_64kb()]
    # one pass over the committed branch stream advances every predictor
    results = replay_mpki_batch(program, predictors, instructions=30_000)
    for predictor, result in zip(predictors, results):
        print(f"  {predictor.name:16s} "
              f"{100 * result.core.branch_accuracy():6.2f}%  "
              f"(MPKI {result.mpki:.1f})")

    print("\nfull timing simulation:")
    baseline = simulate(program, instructions=20_000, warmup=10_000)
    runahead = simulate(program, instructions=20_000, warmup=10_000,
                        br_config=mini())
    print(f"  TAGE-SC-L core : IPC {baseline.ipc:.3f}  "
          f"MPKI {baseline.mpki:.2f}")
    print(f"  + Mini BR      : IPC {runahead.ipc:.3f}  "
          f"MPKI {runahead.mpki:.2f}")


if __name__ == "__main__":
    main()
