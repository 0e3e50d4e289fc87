"""Randomized differential suite for the packed-lane TAGE batch kernel.

The contract (DESIGN.md §6a.5): for pristine TAGE / TAGE-SC-L lanes,
:func:`repro.predictors.batched.replay_lanes` with the packed-lane kernel
engaged must return mispredicted-PC sequences **bit-identical** to the
reference per-object predictor spellings (``ReferenceTagePredictor``,
``ReferenceTageSCL`` in ``tests/reference_predictors.py``) driven one
event at a time.  The scenarios below deliberately provoke the corners where a
vectorized reimplementation drifts first:

* graceful useful-reset boundaries (tiny ``useful_reset_period`` so the
  stream crosses many resets in both phase polarities);
* allocation storms with multi-candidate LFSR tie-breaks (tiny tables
  and tags, so every lane allocates constantly);
* newly-allocated weak providers exercising the alternate-prediction /
  ``use_alt_on_na`` automaton;
* warmup truncation (split at 0, mid-stream, and the full stream).

Streams come from seeded ``random.Random`` instances, so the suite is
deterministic under any ``PYTHONHASHSEED`` (CI runs it under 0 and
1042 explicitly).  Mixed geometries always replay through **one**
``replay_lanes`` call — grouping, per-group engines, and cross-group
state isolation are part of what is under test.
"""

import random

import pytest

from repro.predictors import batched, tage_batch
from repro.predictors.batched import _lockstep, replay_lanes
from repro.predictors.loop_predictor import LoopPredictor
from repro.predictors.statistical_corrector import StatisticalCorrector
from repro.predictors.tage import TageConfig, TagePredictor
from repro.predictors.tage_scl import TageSCL
from tests.reference_predictors import (
    ReferenceLoopPredictor,
    ReferenceStatisticalCorrector,
    ReferenceTagePredictor,
    ReferenceTageSCL,
)

SEEDS = [0, 1042]


@pytest.fixture(params=["numpy"])
def backend(request):
    """The packed-lane batch path, the only one; its parameter keeps the
    historical id ``numpy`` so the suite's test ids stay stable."""
    return request.param


def tiny_cfg(**overrides):
    """A small TAGE geometry that still exercises every table mechanism."""
    knobs = dict(num_tables=5, table_size_log2=6, tag_bits=7,
                 counter_bits=3, useful_bits=2, min_history=2,
                 max_history=40, base_size_log2=7,
                 useful_reset_period=1 << 16)
    knobs.update(overrides)
    return TageConfig(**knobs)


def loopy_stream(events, seed, static_pcs=24):
    """Random branches plus two fixed-trip loop branches.

    The loop branches (taken ``trip - 1`` times, then not-taken) are what
    drives the loop predictor through allocation, confidence ramp, and
    confident overrides; the random remainder keeps TAGE allocating.
    """
    rng = random.Random(seed)
    loops = ((0x900, 7), (0x904, 3))
    iteration = {pc: 0 for pc, _ in loops}
    pc_column, taken_column = [], []
    for _ in range(events):
        roll = rng.random()
        if roll < 0.3:
            pc, trip = loops[rng.randrange(len(loops))]
            iteration[pc] += 1
            taken = iteration[pc] % trip != 0
        else:
            pc = 0x400 + rng.randrange(static_pcs) * 4
            bias = 0.8 if pc & 8 else 0.5  # some biased, some coin-flip
            taken = rng.random() < bias
        pc_column.append(pc)
        taken_column.append(int(taken))
    return pc_column, taken_column


def reference_lanes(predictors, pcs, takens, split):
    """Drive reference predictor objects scalar; mirror of the replay loop."""
    lanes = [[] for _ in predictors]
    for position, (pc, taken) in enumerate(zip(pcs, takens)):
        taken = bool(taken)
        for predictor, lane in zip(predictors, lanes):
            if predictor.observe(pc, taken) != taken and position >= split:
                lane.append(pc)
    return lanes


def scl_lanes(cfg_builder, loop_log2=4):
    """Matched (packed, reference) TAGE-SC-L builders from shared knobs."""
    def packed():
        return TageSCL(tage_config=cfg_builder(),
                       loop=LoopPredictor(size_log2=loop_log2),
                       corrector=StatisticalCorrector(
                           history_lengths=(2, 4, 7), table_size_log2=6))

    def reference():
        return ReferenceTageSCL(tage_config=cfg_builder(),
                                loop=ReferenceLoopPredictor(
                                    size_log2=loop_log2),
                                corrector=ReferenceStatisticalCorrector(
                                    history_lengths=(2, 4, 7),
                                    table_size_log2=6))
    return packed, reference


class TestTageBatchDifferential:
    """Batched lanes vs reference objects, one replay_lanes call per case."""

    @pytest.fixture(autouse=True)
    def kernel_on_every_group(self, monkeypatch):
        # the cases replay one- and two-lane geometry groups: engage the
        # kernel on groups of any size
        monkeypatch.setattr(batched, "TAGE_MIN_LANES", 1)

    def run_case(self, lane_specs, pcs, takens, split):
        batch = replay_lanes([packed() for packed, _ in lane_specs],
                             pcs, takens, split)
        expected = reference_lanes([ref() for _, ref in lane_specs],
                                   pcs, takens, split)
        assert batch == expected
        return batch

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_geometries_one_batch_call(self, backend, seed):
        # three TAGE geometries (two groups) plus two TAGE-SC-L shapes and
        # an exact duplicate, replayed together in a single call
        specs = [
            (lambda: TagePredictor(tiny_cfg()),
             lambda: ReferenceTagePredictor(tiny_cfg())),
            (lambda: TagePredictor(tiny_cfg(counter_bits=2, useful_bits=1)),
             lambda: ReferenceTagePredictor(
                 tiny_cfg(counter_bits=2, useful_bits=1))),
            (lambda: TagePredictor(tiny_cfg(table_size_log2=5, num_tables=4)),
             lambda: ReferenceTagePredictor(
                 tiny_cfg(table_size_log2=5, num_tables=4))),
            scl_lanes(tiny_cfg),
            scl_lanes(lambda: tiny_cfg(tag_bits=6)),
            (lambda: TagePredictor(tiny_cfg()),  # duplicate of lane 0
             lambda: ReferenceTagePredictor(tiny_cfg())),
        ]
        pcs, takens = loopy_stream(3_000, seed)
        batch = self.run_case(specs, pcs, takens, split=500)
        # equivalent configurations replay once; the duplicate lane
        # hands back the very same mispredict-list object
        assert batch[-1] is batch[0]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_graceful_reset_boundaries(self, backend, seed):
        # period 64 over 4000 events: ~60 resets, alternating the phase
        # mask between clearing the low and the high useful bit
        cfg = lambda: tiny_cfg(useful_reset_period=64)  # noqa: E731
        specs = [(lambda: TagePredictor(cfg()),
                  lambda: ReferenceTagePredictor(cfg())),
                 scl_lanes(cfg)]
        pcs, takens = loopy_stream(4_000, seed)
        self.run_case(specs, pcs, takens, split=700)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lfsr_allocation_ties(self, backend, seed):
        # 16-entry tables with 4-bit tags: constant aliasing, constant
        # mispredicts, so nearly every event allocates and most
        # allocations see several useful==0 candidates for the LFSR to
        # tie-break among
        cfg = lambda: tiny_cfg(table_size_log2=4, tag_bits=4,  # noqa: E731
                               num_tables=6, base_size_log2=5)
        specs = [(lambda: TagePredictor(cfg()),
                  lambda: ReferenceTagePredictor(cfg())),
                 (lambda: TagePredictor(cfg()),
                  lambda: ReferenceTagePredictor(cfg()))]
        pcs, takens = loopy_stream(2_500, seed, static_pcs=96)
        self.run_case(specs, pcs, takens, split=300)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_newly_allocated_weak_providers(self, backend, seed):
        # 5-bit tags alias enough that fresh allocations immediately
        # become providers with weak counters, keeping the alternate
        # prediction and the use_alt_on_na automaton hot
        cfg = lambda: tiny_cfg(tag_bits=5, table_size_log2=5)  # noqa: E731
        specs = [(lambda: TagePredictor(cfg()),
                  lambda: ReferenceTagePredictor(cfg())),
                 scl_lanes(cfg)]
        pcs, takens = loopy_stream(3_000, seed, static_pcs=64)
        self.run_case(specs, pcs, takens, split=400)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_wide_group_mixed_lane_bounds(self, backend, seed):
        # 40 TAGE-SC-L lanes of ONE geometry group whose counter and
        # useful widths, base and loop sizes and reset periods differ
        # lane to lane: every saturation bound and reset must stay inside
        # its own lane of the packed words
        specs = []
        for lane in range(40):
            knobs = dict(counter_bits=2 + lane % 6,
                         useful_bits=1 + lane % 3,
                         base_size_log2=5 + lane % 4,
                         useful_reset_period=40 + 7 * lane)
            specs.append(scl_lanes(lambda knobs=knobs: tiny_cfg(**knobs),
                                   loop_log2=3 + lane % 3))
        assert len({tage_batch._group_key(packed())
                    for packed, _ in specs}) == 1
        pcs, takens = loopy_stream(2_500, seed, static_pcs=48)
        self.run_case(specs, pcs, takens, split=400)

    @pytest.mark.parametrize("split_kind", ["none", "mid", "all"])
    def test_warmup_split_variants(self, backend, split_kind):
        pcs, takens = loopy_stream(1_500, seed=7)
        split = {"none": 0, "mid": 733, "all": len(pcs)}[split_kind]
        specs = [(lambda: TagePredictor(tiny_cfg()),
                  lambda: ReferenceTagePredictor(tiny_cfg())),
                 scl_lanes(tiny_cfg)]
        batch = self.run_case(specs, pcs, takens, split=split)
        if split_kind == "all":  # warmup-truncated: nothing measured
            assert batch == [[], []]

    def test_declined_geometry_falls_back(self, backend):
        # counter_bits=8 exceeds the kernel's int8 automaton domain: the
        # lane must decline to lockstep and still match the reference
        cfg = lambda: tiny_cfg(counter_bits=8)  # noqa: E731
        assert not tage_batch.supported(TagePredictor(cfg()))
        pcs, takens = loopy_stream(1_200, seed=3)
        self.run_case([(lambda: TagePredictor(cfg()),
                        lambda: ReferenceTagePredictor(cfg()))],
                      pcs, takens, split=200)


class TestMinLanesCutover:
    """The TAGE kernel cutover: a geometry group of ``TAGE_MIN_LANES``
    distinct lanes engages the kernel, one lane fewer stays on lockstep.

    Whether the kernel engaged is observable from the outside: the
    packed-lane kernel keeps lane evolution in its own words (the instance
    stays pristine, ``_tick == 0``), while lockstep drives the instance's
    own tables (``_tick`` advances every update).
    """

    def replay(self, lane_count):
        pcs, takens = loopy_stream(400, seed=11)
        # one geometry group of distinct lanes: the reset period is in
        # the dedupe key, not in the group key
        configs = [tiny_cfg(useful_reset_period=64 * (lane + 1))
                   for lane in range(lane_count)]
        predictors = [TagePredictor(cfg) for cfg in configs]
        result = replay_lanes(predictors, pcs, takens, split=100)
        expected = _lockstep([TagePredictor(cfg) for cfg in configs],
                             pcs, takens, split=100)
        assert result == expected
        return [predictor._tick for predictor in predictors]

    def test_floor_lane_count_engages_kernel(self):
        lanes = batched.TAGE_MIN_LANES
        assert self.replay(lanes) == [0] * lanes

    def test_below_floor_stays_lockstep(self):
        assert all(self.replay(batched.TAGE_MIN_LANES - 1))
