"""Differential tests for memoized baseline prediction columns and
wrong-path walks.

``simulate()`` records the baseline predictor's predictions for a region
as a column on the region's trace-cache entry, and a later run of the
region with an equally configured pristine predictor reads the column
instead of running the predictor.  With Branch Runahead attached it also
records each mispredicted branch's wrong-path walk on the entry, and a
later run of the region fills the merge-point predictor's WPB from it.
Every run below must produce the same payload digest as a run with no
trace cache at all.
"""

import pytest

from repro.core.config import mini
from repro.predictors.registry import PREDICTORS, make_predictor
from repro.predictors.tage_batch import stream_signature
from repro.predictors.tage_scl import TageSCL, tage_scl_64kb
from repro.sim.bench import payload_digest
from repro.sim.simulator import simulate
from repro.sim.trace_cache import TraceCache
from repro.workloads import suite

INSTRUCTIONS = 1_500
WARMUP = 700
#: One region from the program start, one from mid-program.
REGIONS = (("sjeng_06", 0), ("mcf_17", 2_500))


def run(region, predictor, br_config=None, trace_cache=None):
    bench, start = region
    return simulate(suite.load(bench), instructions=INSTRUCTIONS,
                    warmup=WARMUP, start_instruction=start,
                    predictor=predictor, br_config=br_config,
                    trace_cache=trace_cache)


def digest(result):
    return payload_digest(result.to_dict())


def trained_tage64():
    predictor = make_predictor("tage64")
    for step in range(400):
        predictor.observe(step % 23, step % 3 == 0)
    return predictor


class FlippedTage(TageSCL):
    """Same type signature as the 64KB baseline, opposite predictions."""

    def observe(self, pc, taken):
        return not super().observe(pc, taken)


def flipped_tage64():
    base = tage_scl_64kb()
    return FlippedTage(base.tage.config, loop=base.loop,
                       corrector=base.corrector, name=base.name)


@pytest.mark.parametrize("region", REGIONS, ids=lambda r: f"{r[0]}@{r[1]}")
@pytest.mark.parametrize("br_config", [None, "mini"],
                         ids=["predictor-only", "mini"])
@pytest.mark.parametrize("name", list(PREDICTORS.names()))
def test_record_and_memo_hit_match_an_uncached_run(name, br_config, region):
    reference = digest(run(region, make_predictor(name), br_config))
    cache = TraceCache()
    recording = digest(run(region, make_predictor(name), br_config, cache))
    replay = digest(run(region, make_predictor(name), br_config, cache))
    assert recording == reference
    assert replay == reference
    if stream_signature(make_predictor(name)) is not None:
        assert (cache.prediction_hits, cache.prediction_misses) == (1, 1)
    else:
        assert (cache.prediction_hits, cache.prediction_misses) == (0, 2)


@pytest.mark.parametrize("factory", [trained_tage64, flipped_tage64],
                         ids=["trained", "subclass"])
def test_unmemoizable_predictors_bypass_the_memo(factory):
    region = REGIONS[1]
    assert stream_signature(factory()) is None
    reference = digest(run(region, factory(), "mini"))
    cache = TraceCache()
    run(region, make_predictor("tage64"), "mini", cache)  # records a column
    assert digest(run(region, factory(), "mini", cache)) == reference
    assert cache.prediction_hits == 0


def test_memo_hit_leaves_the_predictor_pristine():
    region = REGIONS[1]
    cache = TraceCache()
    run(region, make_predictor("tage64"), "mini", cache)
    passed = make_predictor("tage64")
    result = run(region, passed, "mini", cache)
    assert cache.prediction_hits == 1
    assert passed.export_state() == make_predictor("tage64").export_state()
    registry = result.build_registry()
    assert registry.get("host.trace_cache.prediction_hits").value == 1
    assert registry.get("host.trace_cache.prediction_misses").value == 1
    assert registry.get("host.runahead.wrong_path_memo_hits").value > 0


def test_evicted_entry_takes_its_columns_with_it():
    first, second = REGIONS
    cache = TraceCache(capacity=1)
    run(first, make_predictor("tage64"), None, cache)
    run(second, make_predictor("tage64"), None, cache)  # evicts ``first``
    assert cache.evictions == 1
    run(first, make_predictor("tage64"), None, cache)
    assert (cache.prediction_hits, cache.prediction_misses) == (0, 3)
    run(first, make_predictor("tage64"), None, cache)
    assert (cache.prediction_hits, cache.prediction_misses) == (1, 3)


def test_columns_are_never_spilled(tmp_path):
    region = REGIONS[0]
    reference = digest(run(region, make_predictor("tage64")))
    run(region, make_predictor("tage64"), None,
        TraceCache(disk_dir=str(tmp_path)))
    reloaded = TraceCache(disk_dir=str(tmp_path))
    assert digest(run(region, make_predictor("tage64"), None,
                      reloaded)) == reference
    assert reloaded.disk_hits == 1
    assert (reloaded.prediction_hits, reloaded.prediction_misses) == (0, 1)


# -- wrong-path walk memo -----------------------------------------------------

#: Adds a region with many mispredictions and long wrong-path walks.
WALK_REGIONS = REGIONS + (("stress_many", 4_000),)


def host(result, name):
    return result.build_registry().get(f"host.runahead.{name}").value


@pytest.mark.parametrize("region", WALK_REGIONS,
                         ids=lambda r: f"{r[0]}@{r[1]}")
@pytest.mark.parametrize("br_config", ["mini", "big", "core-only"])
def test_walk_memo_hit_matches_an_uncached_run(br_config, region):
    reference = run(region, make_predictor("tage64"), br_config)
    cache = TraceCache()
    recording = run(region, make_predictor("tage64"), br_config, cache)
    hit = run(region, make_predictor("tage64"), br_config, cache)
    assert digest(recording) == digest(reference)
    assert digest(hit) == digest(reference)
    walked = host(reference, "wrong_path_uops")
    assert walked > 0
    assert host(recording, "wrong_path_uops") == walked
    assert host(recording, "wrong_path_memo_hits") == 0
    # a hit replays every walk: the same budgets pull nothing new
    assert host(hit, "wrong_path_memo_misses") == 0
    assert host(hit, "wrong_path_memo_hits") == \
        host(recording, "wrong_path_memo_misses") > 0
    assert host(hit, "wrong_path_uops") == 0


def test_budget_beyond_an_unfinished_prefix_rewalks():
    region = WALK_REGIONS[2]
    short = mini(max_merge_distance=6)  # records short, unfinished prefixes
    reference = run(region, make_predictor("tage64"), "mini")
    cache = TraceCache()
    run(region, make_predictor("tage64"), short, cache)
    extended = run(region, make_predictor("tage64"), "mini", cache)
    assert digest(extended) == digest(reference)
    assert host(extended, "wrong_path_memo_hits") > 0
    assert host(extended, "wrong_path_uops") > 0  # longer budgets re-walk
    # the extended prefixes now cover the longer budgets
    again = run(region, make_predictor("tage64"), "mini", cache)
    assert digest(again) == digest(reference)
    assert host(again, "wrong_path_uops") == 0


def test_evicted_entry_takes_its_walks_with_it():
    first, second = REGIONS
    cache = TraceCache(capacity=1)
    run(first, make_predictor("tage64"), "mini", cache)
    run(second, make_predictor("tage64"), "mini", cache)  # evicts ``first``
    assert cache.evictions == 1
    again = run(first, make_predictor("tage64"), "mini", cache)
    assert host(again, "wrong_path_memo_hits") == 0
    assert host(again, "wrong_path_memo_misses") > 0
    assert digest(again) == digest(run(first, make_predictor("tage64"),
                                       "mini"))


def test_walks_are_never_spilled(tmp_path):
    region = REGIONS[1]
    reference = run(region, make_predictor("tage64"), "mini")
    run(region, make_predictor("tage64"), "mini",
        TraceCache(disk_dir=str(tmp_path)))
    reloaded = TraceCache(disk_dir=str(tmp_path))
    result = run(region, make_predictor("tage64"), "mini", reloaded)
    assert reloaded.disk_hits == 1
    assert digest(result) == digest(reference)
    assert host(result, "wrong_path_memo_hits") == 0
    assert host(result, "wrong_path_uops") == \
        host(reference, "wrong_path_uops")
