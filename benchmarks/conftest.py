"""Shared infrastructure for the figure/table benches.

Every bench reproduces one table or figure of the paper: it runs the
required simulations through the ``shared_session`` fixture, prints the
paper's rows/series, and asserts the qualitative shape.  Region length is
controlled with ``REPRO_INSTRUCTIONS`` / ``REPRO_WARMUP`` (or any other
config layer ``Session()`` resolves).

All benches share **one explicit** :class:`~repro.session.Session`:
every figure's ``shared_session.run`` call and every sweep lands in the
same result/trace caches, so each benchmark region is emulated once for
the whole tier-2 run.

Run everything with::

    pytest benchmarks/ --benchmark-only

"""

from __future__ import annotations

import pytest

from repro.session import Session
from repro.workloads import suite

#: Full benchmark list (the paper's x-axis order).
ALL_BENCHMARKS = list(suite.BENCHMARK_NAMES)

#: Subset used by the expensive sweep figure (paper footnote 16 reduced the
#: sweeps' region length for the same reason).  ``stress_many`` contributes
#: the many-hard-branch pressure the SPEC regions provide in the paper.
SWEEP_BENCHMARKS = ["leela_17", "deepsjeng_17", "gobmk_06", "sjeng_06",
                    "cc", "sssp", "stress_many"]


@pytest.fixture(scope="session")
def shared_session():
    """The one Session every figure/table bench runs under, built once
    from the resolved config (defaults < file < env)."""
    return Session()


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def print_series(rows, columns, name_width=14) -> None:
    """Print per-benchmark rows: rows = [(name, {column: value})]."""
    header = f"{'benchmark':{name_width}s}" + "".join(
        f"{column:>14s}" for column in columns)
    print(header)
    for name, values in rows:
        line = f"{name:{name_width}s}"
        for column in columns:
            value = values[column]
            if isinstance(value, float):
                line += f"{value:14.2f}"
            else:
                line += f"{value!s:>14s}"
        print(line)


def run_once(benchmark_fixture, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark_fixture.pedantic(fn, rounds=1, iterations=1,
                                      warmup_rounds=0)
