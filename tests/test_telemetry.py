"""Tests for the unified telemetry subsystem (registry, tracer, timers)."""

import json

import pytest

from repro.core import config as br_config
from repro.sim.simulator import simulate
from repro.telemetry import (
    NULL_TRACER,
    NullTracer,
    PhaseTimers,
    StatRegistry,
    TraceEvent,
    Tracer,
    Telemetry,
    iter_named,
)
from repro.uarch.core import CoreModel
from repro.uarch.stats import CoreStats
from repro.workloads import suite


class TestStatRegistry:
    def test_counter_accumulates(self):
        registry = StatRegistry()
        counter = registry.counter("core.fetch.mispredicts")
        counter.add()
        counter.add(4)
        assert registry.counter("core.fetch.mispredicts").value == 5

    def test_get_or_create_returns_same_object(self):
        registry = StatRegistry()
        assert registry.gauge("pq.occupancy") is registry.gauge(
            "pq.occupancy")

    def test_kind_conflict_raises(self):
        registry = StatRegistry()
        registry.counter("dce.chains.launched")
        with pytest.raises(TypeError):
            registry.gauge("dce.chains.launched")

    def test_malformed_name_rejected(self):
        registry = StatRegistry()
        with pytest.raises(ValueError):
            registry.counter("")
        with pytest.raises(ValueError):
            registry.counter(".leading")

    def test_scope_prefixes_names(self):
        registry = StatRegistry()
        scope = registry.scope("core").scope("fetch")
        scope.counter("mispredicts").add(2)
        assert "core.fetch.mispredicts" in registry
        assert registry.counter("core.fetch.mispredicts").value == 2

    def test_nested_dict_export(self):
        registry = StatRegistry()
        registry.counter("core.fetch.mispredicts").add(3)
        registry.gauge("core.ipc").set(1.5)
        tree = registry.to_dict()
        assert tree["core"]["fetch"]["mispredicts"] == 3
        assert tree["core"]["ipc"] == 1.5

    def test_leaf_and_namespace_collision_keeps_both(self):
        registry = StatRegistry()
        registry.counter("pq.occupancy").add(7)
        registry.counter("pq.occupancy.samples").add(2)
        tree = registry.to_dict()
        assert tree["pq"]["occupancy"]["_value"] == 7
        assert tree["pq"]["occupancy"]["samples"] == 2

    def test_json_round_trips(self):
        registry = StatRegistry()
        registry.counter("a.b").add(1)
        registry.histogram("a.h").record(3)
        assert json.loads(registry.to_json())["a"]["b"] == 1


class TestHistogram:
    def test_percentiles_nearest_rank(self):
        registry = StatRegistry()
        histogram = registry.histogram("h")
        histogram.record_many(range(1, 101))  # 1..100
        assert histogram.percentile(50) == 50
        assert histogram.percentile(90) == 90
        assert histogram.percentile(99) == 99
        assert histogram.percentile(100) == 100
        assert histogram.percentile(0) == 1

    def test_empty_histogram_exports_zeros(self):
        histogram = StatRegistry().histogram("h")
        export = histogram.export()
        assert export["count"] == 0 and export["p99"] == 0
        assert histogram.percentile(50) == 0

    def test_export_summary(self):
        histogram = StatRegistry().histogram("h")
        histogram.record_many([2, 4, 6])
        export = histogram.export()
        assert export["count"] == 3
        assert export["mean"] == 4.0
        assert export["min"] == 2 and export["max"] == 6

    def test_percentile_out_of_range(self):
        histogram = StatRegistry().histogram("h")
        histogram.record(1)
        with pytest.raises(ValueError):
            histogram.percentile(101)


class TestTracer:
    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=3)
        for cycle in range(5):
            tracer.emit("tick", "core", cycle)
        assert len(tracer) == 3
        assert tracer.emitted == 5
        assert tracer.dropped == 2
        assert [event.cycle for event in tracer.events()] == [2, 3, 4]

    def test_jsonl_round_trip(self):
        tracer = Tracer()
        tracer.emit("chain_launch", "dce", 10, pc=0x40, length=5)
        tracer.emit("chain_complete", "dce", 10, duration=7, pc=0x40,
                    outcome=True)
        parsed = Tracer.parse_jsonl(tracer.to_jsonl())
        assert parsed == tracer.events()

    def test_chrome_trace_shapes(self):
        tracer = Tracer()
        tracer.emit("pq_override", "pq", 5, pc=0x10)
        tracer.emit("chain_complete", "dce", 5, duration=3)
        chrome = tracer.to_chrome_trace()
        events = [event for event in chrome["traceEvents"]
                  if event["ph"] != "M"]
        instant, complete = events
        assert instant["ph"] == "i" and instant["s"] == "t"
        assert complete["ph"] == "X" and complete["dur"] == 3
        # category tracks are named via metadata events
        names = [event["args"]["name"] for event in chrome["traceEvents"]
                 if event["ph"] == "M"]
        assert "dce" in names and "pq" in names

    def test_write_and_reload(self, tmp_path):
        tracer = Tracer()
        tracer.emit("fetch", "core", 1, pc=2)
        chrome_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        tracer.write(str(chrome_path), fmt="chrome")
        tracer.write(str(jsonl_path), fmt="jsonl")
        assert json.loads(chrome_path.read_text())["traceEvents"]
        assert Tracer.parse_jsonl(jsonl_path.read_text()) == tracer.events()
        with pytest.raises(ValueError):
            tracer.write(str(chrome_path), fmt="xml")

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("x", "core", 0)
        assert len(NULL_TRACER) == 0 and NULL_TRACER.events() == []

    def test_iter_named(self):
        tracer = Tracer()
        tracer.emit("a", "core", 0)
        tracer.emit("b", "core", 1)
        tracer.emit("a", "core", 2)
        assert [event.cycle
                for event in iter_named(tracer.events(), "a")] == [0, 2]


class TestPhaseTimers:
    def test_phase_accumulates(self):
        timers = PhaseTimers()
        with timers.phase("setup"):
            pass
        with timers.phase("setup"):
            pass
        assert timers.elapsed("setup") >= 0.0
        assert set(timers.to_dict()) == {"setup"}

    def test_wrap_iter_attributes_producer_time(self):
        timers = PhaseTimers()
        assert list(timers.wrap_iter("emulation", iter(range(3)))) \
            == [0, 1, 2]
        assert timers.elapsed("emulation") >= 0.0

    def test_register_into(self):
        registry = StatRegistry()
        timers = PhaseTimers()
        timers.add("timing", 1.25)
        timers.register_into(registry.scope("host.phase"))
        assert registry.gauge("host.phase.timing_seconds").value == 1.25


class TestCoreStatsTelemetry:
    def test_hardest_branches_ties_break_on_pc(self):
        stats = CoreStats()
        # insert in an order that would betray dict-order dependence
        for pc in (0x30, 0x10, 0x20):
            stats.branch_mispredicts[pc] = 5
        stats.branch_mispredicts[0x40] = 9
        assert stats.hardest_branches(3) == [0x40, 0x10, 0x20]

    def test_register_into_namespaces(self):
        stats = CoreStats()
        stats.instructions = 1000
        stats.cycles = 500
        stats.mispredicts = 7
        registry = StatRegistry()
        stats.register_into(registry.scope("core"))
        assert registry.counter("core.fetch.mispredicts").value == 7
        assert registry.gauge("core.ipc").value == 2.0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def traced_result(self):
        tracer = Tracer(capacity=50_000)
        program = suite.load("mcf_06")
        return simulate(program, instructions=3000, warmup=1500,
                        br_config=br_config.mini(), tracer=tracer), tracer

    def test_registry_covers_required_namespaces(self, traced_result):
        result, _ = traced_result
        tree = result.to_dict()["stats"]
        for namespace in ("core", "predictor", "dce", "pq", "runahead",
                          "memsys", "host"):
            assert namespace in tree, f"missing {namespace}.*"
        assert tree["core"]["instructions"] == 3000
        assert tree["pq"]["queues_assigned"] >= 1
        assert tree["host"]["phase"]["timing_seconds"] > 0.0

    def test_trace_contains_pipeline_events(self, traced_result):
        _, tracer = traced_result
        names = {event.name for event in tracer.events()}
        assert {"fetch", "retire", "branch_resolve", "chain_launch",
                "chain_complete", "pq_push", "pq_pop",
                "cache_miss"} <= names

    def test_build_registry_is_idempotent(self, traced_result):
        result, _ = traced_result
        first = result.build_registry()
        again = result.build_registry()
        assert again is first

    def test_disabled_tracing_makes_no_emit_calls(self, monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError("NullTracer.emit called on hot path")
        monkeypatch.setattr(NullTracer, "emit", forbidden)
        program = suite.load("sjeng_06")
        result = simulate(program, instructions=600, warmup=300,
                          br_config=br_config.mini())
        assert result.core.instructions == 600

    def test_disabled_tracer_flag_checked_once(self):
        core = CoreModel()
        assert core._tracing is False
        assert core.tracer is NULL_TRACER

    def test_telemetry_bundle_defaults(self):
        bundle = Telemetry()
        assert bundle.tracer is NULL_TRACER
        assert isinstance(bundle.registry, StatRegistry)


class TestTraceEvent:
    def test_dict_round_trip(self):
        event = TraceEvent("resync", "runahead", 42, None, {"pc": 7})
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_repr_mentions_span(self):
        event = TraceEvent("chain_complete", "dce", 10, 4)
        assert "+4" in repr(event)
