"""Time-series metrics plane: rings, rollups, sampler, zero perturbation.

The sampler snapshots per-server/per-plane gauges into bounded
downsampling ring buffers on a sim-clock cadence. Sampling only reads
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
    RollupPoint,
    SeriesSampler,
    Telemetry,
    sparkline,
)
from repro.telemetry.series import RAW_WINDOW, ROLLUP_EVERY, ROLLUP_WINDOW
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
        n = ROLLUP_EVERY * (ROLLUP_WINDOW + 3) + 5
        for i in range(n):
            ring.append(i * 0.1, float(i))
        assert len(ring) == RAW_WINDOW
        assert ring.appended == n
        assert ring.last == (pytest.approx((n - 1) * 0.1), float(n - 1))
        # Rollup ring bounded too: three folds past the window evicted.
        assert len(ring.rollups) == ROLLUP_WINDOW

    def test_rollup_statistics(self):
        ring = RingSeries("g")
        values = [1.0, 5.0, 3.0, 7.0] * (ROLLUP_EVERY // 4)
        for t, v in enumerate(values):
            ring.append(float(t), v)
        (r,) = ring.rollups
        assert r.count == ROLLUP_EVERY
        assert r.vmin == 1.0 and r.vmax == 7.0
        assert r.mean == pytest.approx(4.0)
        assert r.p95 == 7.0
        assert (r.t_start, r.t_end) == (0.0, float(ROLLUP_EVERY - 1))

    def test_window_filters_by_time(self):
        ring = RingSeries("g")
        for i in range(10):
            ring.append(float(i), float(i))
        assert ring.window(3.0, 6.0) == [(3.0, 3.0), (4.0, 4.0),
                                         (5.0, 5.0), (6.0, 6.0)]
        assert ring.rollups_in(0.0, 100.0) == list(ring.rollups)

    def test_rollup_point_round_trip(self):
        ring = RingSeries("g")
        for t in range(ROLLUP_EVERY):
            ring.append(float(t), float(t % 3))
        (r,) = ring.rollups
        assert RollupPoint.from_dict(r.to_dict()) == r

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

    def test_rows_schema_and_jsonl_round_trip(self, tmp_path):
        system = build_system()
        system.update_plane.start()
        sampler = SeriesSampler(system, 0.25).start()
        system.sim.run(until=system.sim.now + 0.25 * (ROLLUP_EVERY + 2))
        rows = sampler.rows()
        kinds = {r["kind"] for r in rows}
        assert kinds == {"raw", "rollup"}
        raw = next(r for r in rows if r["kind"] == "raw")
        assert {"metric", "server", "t", "value"} <= set(raw)
        rollup = next(r for r in rows if r["kind"] == "rollup")
        assert {"min", "max", "mean", "p95", "count"} <= set(rollup)
        # The rows are plain JSON: `repro watch --json` writes them as
        # they are, and they load back equal.
        assert json.loads(json.dumps(rows)) == rows

    def test_window_dict_restricts_to_breach_window(self):
        system = build_system()
        system.update_plane.start()
        t0 = system.sim.now
        sampler = SeriesSampler(system, 0.5).start()
        system.sim.run(until=t0 + 4.0)
        bundles = sampler.window_dict(t0 + 2.0, t0 + 3.0)
        assert bundles
        for b in bundles:
            for t, _ in b["raw"]:
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
