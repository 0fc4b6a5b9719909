"""Time-series metrics plane: rings, sampler, zero perturbation.

The sampler snapshots per-server/per-plane gauges into bounded ring
buffers on a sim-clock cadence. Sampling only reads
state, so arming it must leave every simulated outcome byte-identical —
the determinism tripwire this suite asserts directly.
"""

import json

import pytest

from repro.net.transport import ServiceConfig
from repro.roads import RoadsConfig, RoadsSystem
from repro.roads.search import RetryPolicy, SearchRequest
from repro.summaries import SummaryConfig
from repro.telemetry import (
    FlightRecorder,
    HealthProbe,
    HealthSLO,
    RingSeries,
    SeriesSampler,
    Telemetry,
    sparkline,
)
from repro.telemetry.series import RAW_WINDOW
from repro.workload import WorkloadConfig, generate_node_stores
from repro.workload.queries import generate_queries

SEED = 11
NODES = 24


def build_system(*, loss=0.0, telemetry=None, service=None, interval=1.0):
    wcfg = WorkloadConfig(num_nodes=NODES, records_per_node=50, seed=SEED)
    cfg = RoadsConfig(
        num_nodes=NODES,
        records_per_node=50,
        max_children=4,
        summary=SummaryConfig(histogram_buckets=200),
        summary_interval=interval,
        delta_updates=True,
        loss_rate=loss,
        seed=SEED,
    )
    system = RoadsSystem.build(
        cfg, generate_node_stores(wcfg), telemetry=telemetry
    )
    if service is not None:
        system.enable_service(service)
    return system


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_low_bars(self):
        assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"

    def test_monotone_ramp_ends_high(self):
        line = sparkline(list(range(8)))
        assert line[0] == "▁" and line[-1] == "█"

    def test_folds_to_width(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40


class TestRingSeries:
    def test_raw_window_bounded(self):
        ring = RingSeries("g")
        n = RAW_WINDOW * 3 + 5
        for i in range(n):
            ring.append(i * 0.1, float(i))
        assert len(ring) == RAW_WINDOW
        assert ring.last == (pytest.approx((n - 1) * 0.1), float(n - 1))

    def test_window_filters_by_time(self):
        ring = RingSeries("g")
        for i in range(10):
            ring.append(float(i), float(i))
        assert ring.window(3.0, 6.0) == [(3.0, 3.0), (4.0, 4.0),
                                         (5.0, 5.0), (6.0, 6.0)]

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            SeriesSampler(build_system(), 0.0)

    @pytest.mark.parametrize("interval", [float("nan"), -0.25])
    def test_interval_must_be_positive(self, interval):
        with pytest.raises(ValueError, match="interval"):
            SeriesSampler(build_system(), interval)


class TestSampler:
    def test_cadence_and_gauge_names(self):
        system = build_system(
            loss=0.1, service=ServiceConfig(service_time=0.002)
        )
        system.update_plane.start()
        t0 = system.sim.now
        sampler = SeriesSampler(system, 0.5).start()
        system.sim.run(until=t0 + 4.0)
        sampler.stop()
        assert sampler.samples == 8
        names = sampler.names()
        for expect in (
            "net.sent", "net.lost", "sim.pending", "bytes.query",
            "bytes.update", "update.inflight", "summary.entries",
            "summary.stale_fraction", "service.depth",
            "service.depth_total", "service.waiting_total",
        ):
            assert expect in names
        # Federation-wide ring sampled every tick; loss observed.
        sent = sampler.series("net.sent")
        assert len(sent) == 8
        assert sampler.series("net.lost").last[1] > 0
        # Per-server service gauges keyed by server id.
        sid = system.hierarchy.root.server_id
        assert sampler.series("service.depth", sid) is not None

    def test_rows_schema_and_jsonl_round_trip(self):
        system = build_system()
        system.update_plane.start()
        sampler = SeriesSampler(system, 0.25).start()
        system.sim.run(until=system.sim.now + 0.25 * 18)
        doc = sampler.window()
        assert {"name", "server", "raw"} == set(doc[0])
        # Every held point, once.
        assert [g["raw"] for g in doc] == [
            [list(p) for p in ring.raw] for ring in sampler.all_series()
        ]
        # Plain JSON: `repro watch --json` writes it as it is, and it
        # loads back equal.
        assert json.loads(json.dumps(doc)) == doc

    def test_window_restricts_to_breach_window(self):
        system = build_system()
        system.update_plane.start()
        t0 = system.sim.now
        sampler = SeriesSampler(system, 0.5).start()
        system.sim.run(until=t0 + 4.0)
        gauges = sampler.window(t0 + 2.0, t0 + 3.0)
        assert gauges
        for g in gauges:
            for t, _ in g["raw"]:
                assert t0 + 2.0 <= t <= t0 + 3.0

    def test_format_renders_federation_gauges(self):
        system = build_system()
        system.update_plane.start()
        sampler = SeriesSampler(system, 0.5).start()
        system.sim.run(until=system.sim.now + 2.0)
        text = sampler.format(metrics=["net.sent", "sim.pending"])
        assert "net.sent" in text and "sim.pending" in text
        assert "service.depth" not in text


class TestZeroPerturbation:
    """The tentpole tripwire: sampled and unsampled arms byte-identical."""

    def _run(self, observe):
        tel = Telemetry()
        system = build_system(
            loss=0.1, telemetry=tel,
            service=ServiceConfig(service_time=0.002, queue_limit=16),
        )
        if observe:
            # Sampler, judge and recorder: the whole observing stack.
            probe = HealthProbe(
                SeriesSampler(system, 0.25).start(),
                slo=HealthSLO(),
            )
            FlightRecorder(tel).bind(probe)
        system.update_plane.start()
        system.sim.run(until=system.sim.now + 1.0)
        wcfg = WorkloadConfig(num_nodes=NODES, records_per_node=50, seed=SEED)
        queries = generate_queries(wcfg, num_queries=8)
        retry = RetryPolicy(timeout=1.0, retries=2, backoff_base=0.1)
        results = system.search_many(
            [
                SearchRequest(q, client_node=i % NODES, retry=retry)
                for i, q in enumerate(queries)
            ],
            arrivals=[0.05 * i for i in range(len(queries))],
        )
        return (
            [r.outcome.latency for r in results],
            [sorted(r.outcome.arrivals.items()) for r in results],
            system.network.counters(),
        )

    def test_observed_arm_is_byte_identical(self):
        latencies_off, arrivals_off, counters_off = self._run(False)
        latencies_on, arrivals_on, counters_on = self._run(True)
        assert latencies_on == latencies_off  # exact float equality
        assert arrivals_on == arrivals_off
        assert counters_on == counters_off
