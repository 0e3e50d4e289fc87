"""Tests for the parallel experiment runner and the payload digest."""

import json
import re

import pytest

from repro import session as session_mod
from repro.config import RunConfig
from repro.session import Session
from repro.sim import bench
from repro.sim.variants import override_variant, spec_variant, \
    variant_kwargs


REGION = dict(instructions=1_200, warmup=600)


def strip(payload):
    clean = json.loads(json.dumps(payload))
    clean.get("stats", {}).pop("host", None)
    return clean


@pytest.fixture
def session():
    """A fresh session per test: cold result and trace caches."""
    return Session(RunConfig(**REGION))


class TestRunCells:
    CELLS = [("sjeng_06", "tage64"), ("sjeng_06", "mini"),
             ("mcf_17", "tage64"), ("mcf_17", "mini")]

    def test_serial_preserves_cell_order(self, session):
        rows = session.run_cells(self.CELLS, jobs=1)
        assert [(r["benchmark"], r["variant"]) for r in rows] == self.CELLS

    def test_trace_cache_hits_within_benchmark(self, session):
        rows = session.run_cells(self.CELLS, jobs=1)
        # first variant of each benchmark records, the second replays
        assert [r["trace_cache_hit"] for r in rows] == \
            [False, True, False, True]

    def test_parallel_equals_serial(self, session):
        serial = session.run_cells(self.CELLS, jobs=1)
        session.clear_caches()
        parallel = session.run_cells(self.CELLS, jobs=2)
        assert [(r["benchmark"], r["variant"]) for r in parallel] == \
            self.CELLS
        for left, right in zip(serial, parallel):
            assert strip(left["payload"]) == strip(right["payload"])


class TestSpecVariants:
    def test_token_round_trip(self):
        token = spec_variant("tage80", "mini")
        assert token == "spec:tage80+mini"
        kwargs = variant_kwargs(token)
        assert kwargs["predictor"].name
        assert kwargs["br_config"] is not None

    def test_baseline_token_has_no_config(self):
        kwargs = variant_kwargs(
            spec_variant("mtage"))
        assert "br_config" not in kwargs

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            spec_variant("nosuch")
        with pytest.raises(KeyError):
            spec_variant("tage64", "nosuch")

    def test_spec_run_matches_named_variant(self, session):
        named = session.run("sjeng_06", "mini")
        spec = session.run("sjeng_06", spec_variant("tage64", "mini"))
        assert strip(named.to_dict()) == strip(spec.to_dict())


class TestOverrideVariants:
    def test_fields_are_sorted(self):
        token = override_variant("mini", window_slots=16,
                                             hbt_entries=8)
        assert token == "mini[hbt_entries=8,window_slots=16]"
        assert override_variant("mini") == "mini"

    def test_int_and_bool_values_round_trip(self):
        token = override_variant("mini", hbt_entries=8,
                                             dce_in_order=True)
        config = variant_kwargs(token)["br_config"]
        assert type(config.hbt_entries) is int and config.hbt_entries == 8
        assert config.dce_in_order is True
        # the rest of the token's config is Mini's
        assert config.chain_cache_entries == variant_kwargs(
            "mini")["br_config"].chain_cache_entries

    def test_overrides_compose_with_spec_tokens(self):
        token = override_variant(
            spec_variant("tage80", "big"), hbt_entries=16)
        kwargs = variant_kwargs(token)
        assert kwargs["br_config"].name == "big"
        assert kwargs["br_config"].hbt_entries == 16

    @pytest.mark.parametrize("token", [
        "mini[hbt_entries]", "mini[hbt_entries=8", "mini[]",
        "mini[hbt_entries=eight]",
    ])
    def test_malformed_token_raises_naming_it(self, token):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            variant_kwargs(token)

    def test_non_canonical_spelling_rejected(self):
        # one configuration, one token: the error names the canonical one
        with pytest.raises(ValueError, match=re.escape(
                "'mini[hbt_entries=8,window_slots=16]'")):
            variant_kwargs("mini[window_slots=16,hbt_entries=8]")


class TestResultCacheLru:
    def test_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(session_mod, "RESULT_CACHE_SIZE", 2)
        session = Session()
        for variant in ("tage64", "tage80", "mtage", "core_only"):
            session.run("sjeng_06", variant, **REGION)
        assert len(session.result_cache) == 2

    def test_eviction_is_lru_ordered(self, monkeypatch):
        monkeypatch.setattr(session_mod, "RESULT_CACHE_SIZE", 2)
        session = Session()
        first = session.run("sjeng_06", "tage64", **REGION)
        session.run("sjeng_06", "tage80", **REGION)
        # touch tage64 so tage80 is now the least recently used
        assert session.run("sjeng_06", "tage64", **REGION) is first
        session.run("sjeng_06", "mtage", **REGION)
        keys = [key[1] for key in session.result_cache]
        assert "tage64" in keys and "tage80" not in keys

    def test_cache_false_bypasses_storage(self, session):
        result = session.run("sjeng_06", "tage64", cache=False)
        assert len(session.result_cache) == 0
        again = session.run("sjeng_06", "tage64", cache=False)
        assert again is not result
        assert strip(again.to_dict()) == strip(result.to_dict())


class TestBenchHarness:
    def test_payload_digest_ignores_host_timings(self, session):
        first = session.run("sjeng_06", "tage64", cache=False).to_dict()
        session.clear_caches()
        second = session.run("sjeng_06", "tage64", cache=False).to_dict()
        assert first["stats"]["host"] != second["stats"]["host"]
        assert bench.payload_digest(first) == bench.payload_digest(second)
