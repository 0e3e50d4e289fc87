"""Differential tests for memoized baseline prediction columns.

``simulate()`` records the baseline predictor's predictions for a region
as a column on the region's trace-cache entry, and a later run of the
region with an equally configured pristine predictor reads the column
instead of running the predictor.  Every run below must produce the same
payload digest as a run with no trace cache at all.
"""

import pytest

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
    assert registry.get("host.runahead.wrong_path_uops").value > 0


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
