"""Tests for the telemetry subsystem: spans, bus, histograms, metrics."""

import numpy as np
import pytest

from repro.net import DelaySpace, Network
from repro.query import Query, RangePredicate
from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.sim import MAINTENANCE, QUERY, UPDATE, Simulator
from repro.summaries import SummaryConfig
from repro.telemetry import (
    EventBus,
    MetricsRegistry,
    StreamingHistogram,
    Telemetry,
    TelemetryEvent,
)
from repro.workload import WorkloadConfig, generate_node_stores


def build_system(telemetry=None, num_nodes=16, seed=81):
    wcfg = WorkloadConfig(num_nodes=num_nodes, records_per_node=40, seed=seed)
    stores = generate_node_stores(wcfg)
    return RoadsSystem.build(
        RoadsConfig(num_nodes=num_nodes, records_per_node=40, max_children=3,
                    summary=SummaryConfig(histogram_buckets=60), seed=seed),
        stores,
        telemetry=telemetry,
    )


def wide_query():
    return Query.of(RangePredicate("u0", 0.0, 1.0))


class TestSpans:
    def test_sim_clock_timestamps(self):
        sim = Simulator()
        tel = Telemetry(clock=lambda: sim.now)
        sim.schedule(2.5, lambda: tel.event("tick", x=1))
        sim.run()
        tel.emit_span("epoch", 0.0, sim.now)
        tick, epoch = tel.events()
        assert (tick.ts, tick.kind, tick.tags) == (2.5, "event", {"x": 1})
        assert (epoch.ts, epoch.dur, epoch.kind) == (0.0, 2.5, "span")

    def test_emit_span_interval(self):
        tel = Telemetry()
        tel.emit_span("transit", 1.0, 1.5, server=3)
        ev = tel.events()[0]
        assert (ev.ts, ev.dur, ev.kind) == (1.0, 0.5, "span")


class TestEventBus:
    def test_ring_buffer_eviction(self):
        bus = EventBus(capacity=3)
        for i in range(5):
            bus.emit(TelemetryEvent(ts=float(i), name=f"e{i}"))
        assert len(bus) == 3
        assert bus.emitted == 5
        assert bus.dropped == 2
        assert [e.name for e in bus.events()] == ["e2", "e3", "e4"]

    def test_subscribe_unsubscribe(self):
        bus = EventBus()
        seen = []
        unsub = bus.subscribe(seen.append)
        bus.emit(TelemetryEvent(ts=0.0, name="a"))
        unsub()
        bus.emit(TelemetryEvent(ts=0.0, name="b"))
        assert [e.name for e in seen] == ["a"]

    def test_drain(self):
        bus = EventBus()
        bus.emit(TelemetryEvent(ts=0.0, name="a"))
        assert [e.name for e in bus.drain()] == ["a"]
        assert len(bus) == 0


class TestStreamingHistogram:
    @pytest.mark.parametrize("dist", ["uniform", "lognormal"])
    def test_percentiles_vs_numpy(self, dist):
        rng = np.random.default_rng(3)
        if dist == "uniform":
            samples = rng.uniform(0.001, 2.0, size=20_000)
        else:
            samples = rng.lognormal(mean=-2.0, sigma=1.0, size=20_000)
        h = StreamingHistogram()
        h.record_many(samples)
        for pct in (50, 90, 95, 99):
            ref = float(np.percentile(samples, pct))
            got = h.percentile(pct)
            assert got == pytest.approx(ref, rel=0.05), (pct, ref, got)

    def test_mean_min_max_exact(self):
        h = StreamingHistogram()
        h.record_many([0.1, 0.2, 0.3])
        assert h.mean == pytest.approx(0.2)
        assert h.min == pytest.approx(0.1)
        assert h.max == pytest.approx(0.3)

    def test_empty(self):
        h = StreamingHistogram()
        assert h.percentile(99) == 0.0
        assert h.summary()["count"] == 0

    def test_merge(self):
        a, b = StreamingHistogram(), StreamingHistogram()
        a.record_many([0.1] * 50)
        b.record_many([1.0] * 50)
        a.merge(b)
        assert a.count == 100
        assert a.percentile(25) == pytest.approx(0.1, rel=0.05)
        assert a.percentile(75) == pytest.approx(1.0, rel=0.05)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StreamingHistogram().record(-1.0)

    def test_percentile_extremes_clamp_to_min_max(self):
        h = StreamingHistogram()
        h.record_many([0.1, 0.5, 2.5])
        assert h.percentile(0) == pytest.approx(h.min)
        assert h.percentile(100) == pytest.approx(h.max)

    def test_empty_merge_keeps_sentinels(self):
        a, b = StreamingHistogram(), StreamingHistogram()
        a.merge(b)
        assert a.count == 0
        assert a.min == float("inf") and a.max == float("-inf")
        assert a.percentile(50) == 0.0
        assert a.summary()["count"] == 0

    def test_merge_into_empty_adopts_min_max(self):
        src = StreamingHistogram()
        src.record(0.7)
        dst = StreamingHistogram()
        dst.merge(src)
        assert dst.count == 1
        assert dst.min == pytest.approx(0.7)
        assert dst.max == pytest.approx(0.7)
        assert dst.percentile(0) == pytest.approx(0.7)
        assert dst.percentile(100) == pytest.approx(0.7)


class TestMetricsRegistry:
    def test_per_server_attribution(self):
        r = MetricsRegistry()
        r.count_message("query", 100, server=1, phase="forward")
        r.count_message("query", 50, server=1, phase="forward")
        r.count_message("query", 30, server=2, phase="forward")
        r.count_message("query", 10, server=1, phase="response")
        assert r.per_server("query", "forward") == {1: (2, 150), 2: (1, 30)}
        assert r.per_server("query") == {1: (3, 160), 2: (1, 30)}
        assert r.bytes_total("query") == 190
        assert r.messages_total("query") == 4

    def test_reset_selected_categories(self):
        r = MetricsRegistry()
        r.count_message("query", 10, server=1)
        r.count_message("update", 20, server=1)
        r.reset(["query"])
        assert r.bytes_total("query") == 0
        assert r.bytes_total("update") == 20

    def test_rows_deterministic_order(self):
        r = MetricsRegistry()
        r.count_message("query", 1, server=2)
        r.count_message("query", 1, server=1)
        r.count_message("query", 1)
        rows = r.rows()
        assert [row["server"] for row in rows] == [None, 1, 2]

    def test_merged_histogram(self):
        r = MetricsRegistry()
        r.observe("lat", 0.1, server=1)
        r.observe("lat", 0.2, server=2)
        assert r.merged_histogram("lat").count == 2


class TestMetricsCollectorFacade:
    """Category roll-ups and per-server attribution read one store."""

    def test_plain_dict_views_no_mutation_on_read(self):
        m = MetricsRegistry()
        m.count_message(UPDATE, 100)
        view, _ = m.totals_by_category()
        assert isinstance(view, dict)
        assert view.get("missing") is None
        # Reading an absent category must not materialise an entry.
        assert m.bytes_total("missing") == 0
        assert "missing" not in m.totals_by_category()[0]

    def test_server_attribution_through_facade(self):
        m = MetricsRegistry()
        m.count_message(QUERY, 64, server=3, phase="forward")
        m.count_message(QUERY, 64)
        assert m.bytes_total(QUERY) == 128
        assert m.per_server(QUERY, "forward") == {3: (1, 64)}


class TestPerNetworkMessageIds:
    def test_independent_networks_repeat_ids(self):
        def ids():
            sim = Simulator()
            net = Network(sim, DelaySpace(4, np.random.default_rng(0)),
                          MetricsRegistry())
            return [net.send(0, 1, QUERY, 8).msg_id for _ in range(3)]

        assert ids() == ids() == [0, 1, 2]

    def test_rollback_on_failed_sender(self):
        sim = Simulator()
        net = Network(sim, DelaySpace(4, np.random.default_rng(0)),
                      MetricsRegistry())
        net.fail_node(0)
        net.send(0, 1, QUERY, 100)
        assert net.metrics.bytes_total(QUERY) == 0
        assert net.metrics.messages_total(QUERY) == 0
        assert net.metrics.per_server(QUERY) == {}


class TestSystemIntegration:
    def test_trace_false_adds_zero_events(self):
        tel = Telemetry()
        system = build_system(telemetry=tel)
        baseline = tel.bus.emitted
        o = system.search(SearchRequest(wide_query(), client_node=0)).outcome
        # The bus sees the search's query.* structured events...
        assert tel.bus.emitted > baseline
        assert any(
            e.name.startswith("query.")
            and e.tags.get("trace_id") == o.trace_id
            for e in tel.events()
        )
        # ...but a system without telemetry records nothing anywhere.
        plain = build_system()
        o2 = plain.search(SearchRequest(wide_query(), client_node=0)).outcome
        assert (o2.trace_id, o2.root_span_id) == (0, 0)

    def test_query_span_emitted_with_sim_times(self):
        tel = Telemetry()
        system = build_system(telemetry=tel)
        o = system.search(SearchRequest(wide_query(), client_node=0)).outcome
        spans = [e for e in tel.events() if e.name == "query.execute"]
        assert len(spans) == 1
        span = spans[0]
        assert span.kind == "span"
        assert span.dur >= o.latency
        assert span.tags["servers"] == o.servers_contacted
        assert span.tags["matches"] == o.total_matches

    def test_update_round_spans_and_attribution(self):
        tel = Telemetry()
        system = build_system(telemetry=tel)
        system.refresh()
        names = {e.name for e in tel.events()}
        assert "update.aggregate" in names
        assert "update.replicate" in names
        per_server = system.metrics.per_server(UPDATE, "aggregate")
        # Every non-leaf server received at least one child report.
        parents = {s.server_id for s in system.hierarchy if s.children}
        assert parents == set(per_server)

    def test_query_forward_load_attribution(self):
        system = build_system()
        o = system.search(SearchRequest(wide_query(), client_node=0)).outcome
        loads = system.metrics.per_server(QUERY, "forward")
        assert set(loads) == set(o.arrivals)
        assert sum(m for m, _ in loads.values()) == o.servers_contacted

    def test_maintenance_events_on_failure(self):
        tel = Telemetry()
        system = build_system(telemetry=tel)
        proto = system.enable_maintenance()
        victim = next(
            s for s in system.hierarchy if not s.is_root and not s.children
        )
        proto.fail(victim)
        system.sim.run(until=120.0)
        names = [e.name for e in tel.events()]
        assert "maintenance.fail" in names
        assert "maintenance.failure_detected" in names
        hb = system.metrics.per_server(MAINTENANCE, "heartbeat")
        assert hb and all(m > 0 for m, _ in hb.values())
