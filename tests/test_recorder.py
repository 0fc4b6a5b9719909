"""Flight recorder: breach transitions, bundle round-trips, postmortems.

SLO judging is edge-triggered: a check that fails fires exactly one
postmortem and stays silent until it recovers and fails again. Bundles
freeze the breach window's series, the per-server event rings and the
overlapping causal trace trees, and round-trip through JSON.
"""

import pytest

from repro.net.transport import ServiceConfig
from repro.roads import RoadsConfig, RoadsSystem
from repro.roads.search import RetryPolicy, SearchRequest
from repro.summaries import SummaryConfig
from repro.telemetry import (
    FlightRecorder,
    HealthProbe,
    HealthSLO,
    PostmortemBundle,
    SeriesSampler,
    Telemetry,
)
from repro.telemetry.recorder import RING_EVENTS
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


def sample(**overrides):
    """A synthetic judged tick: the sampler's values plus coverage."""
    base = dict(
        t=1.0, queue_depth_total=0, queue_depth_max=0, sent=100,
        delivered=98, lost=2, dropped=0, shed=0, pending=3,
        summary_entries=40, summary_age_mean=0.5, summary_age_max=1.0,
        stale_fraction=0.0, coverage=1.0, precision=1.0, recall=1.0,
    )
    base.update(overrides)
    return base


def judge(tick, slo):
    """Names of the checks *tick* breaches on a fresh probe."""
    probe = HealthProbe(SeriesSampler(build_system()), slo=slo)
    return [c.name for c in probe.observe(tick)]


class TestJudgeSample:
    """The instantaneous verdict, read off the breach transitions."""

    def test_healthy_sample_passes_every_check(self):
        assert judge(sample(), HealthSLO()) == []

    def test_loss_check_fails_above_threshold(self):
        assert judge(sample(lost=50), HealthSLO()) == ["loss"]

    def test_queue_depth_check_is_opt_in(self):
        assert judge(sample(queue_depth_max=9), HealthSLO()) == []
        slo = HealthSLO(max_queue_depth=4)
        assert judge(sample(queue_depth_max=9), slo) == ["queue_depth"]


class TestTransitions:
    """One incident → one postmortem, re-armed only after recovery."""

    def _armed(self):
        tel = Telemetry()
        system = build_system(telemetry=tel)
        probe = HealthProbe(SeriesSampler(system), slo=HealthSLO())
        recorder = FlightRecorder(tel).bind(probe)
        return probe, recorder

    def test_fail_fires_exactly_once_until_recovery(self):
        probe, recorder = self._armed()
        fired = probe.observe(sample(lost=50))
        assert [c.name for c in fired] == ["loss"]
        assert len(recorder.bundles) == 1
        assert recorder.bundles[0].reason == "slo:loss"
        # Still failing: silent — no second bundle for the same incident.
        assert probe.observe(sample(t=2.0, lost=60)) == []
        assert len(recorder.bundles) == 1
        # Recovery re-arms; nothing fires on the ok transition itself.
        assert probe.observe(sample(t=3.0)) == []
        # A fresh failure is a new incident: exactly one more bundle.
        fired = probe.observe(sample(t=4.0, lost=50))
        assert [c.name for c in fired] == ["loss"]
        assert len(recorder.bundles) == 2
        assert len(probe.breaches) == 2

    def test_distinct_checks_fire_independently(self):
        probe, recorder = self._armed()
        probe.observe(sample(lost=50, stale_fraction=0.5))
        assert sorted(c.name for c in probe.breaches) == [
            "loss", "staleness",
        ]
        assert len(recorder.bundles) == 2

    def test_bundle_carries_check_and_report(self):
        probe, recorder = self._armed()
        probe.observe(sample(lost=50))
        bundle = recorder.bundles[0]
        assert bundle.check["name"] == "loss"
        assert not bundle.check["ok"]
        assert bundle.report is not None
        assert any(
            c["name"] == "loss" for c in bundle.report["checks"]
        )

    def test_bind_sets_breach_hook(self):
        tel = Telemetry()
        system = build_system(telemetry=tel)
        probe = HealthProbe(SeriesSampler(system), slo=HealthSLO())
        assert probe.on_breach is None
        recorder = FlightRecorder(tel).bind(probe)
        assert probe.on_breach == recorder._on_breach
        # The bundle's series window comes from the probe's own sampler.
        assert recorder.sampler is probe.sampler


class TestRecorderMechanics:
    def test_rings_attribute_events_per_server(self):
        tel = Telemetry()
        recorder = FlightRecorder(tel)
        tel.event("a", server=3)
        tel.event("b", dst=7)
        tel.event("c")
        assert [e.name for e in recorder.ring(3)] == ["a"]
        assert [e.name for e in recorder.ring(7)] == ["b"]
        assert [e.name for e in recorder.ring(None)] == ["c"]
        assert recorder.ring_servers == [3, 7, None]
        # Fixed-size: old events fall off the ring.
        for i in range(RING_EVENTS + 6):
            tel.event(f"x{i}", server=3)
        assert len(recorder.ring(3)) == RING_EVENTS

    def test_close_stops_recording(self):
        tel = Telemetry()
        recorder = FlightRecorder(tel)
        tel.event("before", server=1)
        recorder.close()
        tel.event("after", server=1)
        assert [e.name for e in recorder.ring(1)] == ["before"]

    def test_manual_trigger_without_sampler_or_probe(self):
        tel = Telemetry()
        recorder = FlightRecorder(tel)
        tel.event("evidence", server=2)
        bundle = recorder.trigger()
        assert bundle.reason == "manual"
        assert bundle.series == []
        assert bundle.ring_events == 1
        assert "postmortem: manual" in bundle.format()

    def test_dump_dir_writes_slugged_files(self, tmp_path):
        tel = Telemetry()
        recorder = FlightRecorder(tel, dump_dir=tmp_path / "pm")
        recorder.trigger("slo:loss")
        recorder.trigger("weird reason!!")
        names = [p.name for p in recorder.dumped]
        assert names == [
            "postmortem_001_slo-loss.json",
            "postmortem_002_weird-reason.json",
        ]
        assert all(p.exists() for p in recorder.dumped)


class TestBundleRoundTrip:
    def test_dict_and_file_round_trips(self, tmp_path):
        tel = Telemetry()
        recorder = FlightRecorder(tel)
        tel.event("evidence", server=4)
        bundle = recorder.trigger(
            "slo:loss",
            check={"name": "loss", "ok": False, "value": 0.5,
                   "threshold": 0.1, "detail": ""},
        )
        clone = PostmortemBundle.from_dict(bundle.to_dict())
        assert clone.to_dict() == bundle.to_dict()
        path = bundle.dump(tmp_path / "bundle.json")
        loaded = PostmortemBundle.load(path)
        assert loaded.to_dict() == bundle.to_dict()
        assert loaded.ring_events == 1
        assert "failing check: loss" in loaded.format()


class TestEndToEnd:
    """A lossy run breaches the SLO and auto-freezes a full bundle."""

    @pytest.fixture(scope="class")
    def run(self):
        tel = Telemetry()
        system = build_system(
            loss=0.18, telemetry=tel,
            service=ServiceConfig(service_time=0.004, queue_limit=16),
        )
        system.update_plane.start()
        # Converge first so the breach fires amid query traffic, with
        # the rings already holding causally-traced events.
        system.sim.run(until=system.sim.now + 2.0)
        probe = HealthProbe(
            SeriesSampler(system, 0.5).start(),
            slo=HealthSLO(),
        )
        recorder = FlightRecorder(tel).bind(probe)
        transitions = []
        freeze = probe.on_breach

        def log_then_freeze(check, tick):
            transitions.append((tick["t"], check.name))
            freeze(check, tick)

        probe.on_breach = log_then_freeze
        wcfg = WorkloadConfig(num_nodes=NODES, records_per_node=50, seed=SEED)
        queries = generate_queries(wcfg, num_queries=12)
        retry = RetryPolicy(timeout=1.0, retries=2, backoff_base=0.1)
        system.search_many(
            [
                SearchRequest(q, client_node=i % NODES, retry=retry)
                for i, q in enumerate(queries)
            ],
            arrivals=[0.05 * i for i in range(len(queries))],
        )
        system.sim.run(until=system.sim.now + 1.0)
        assert probe.breaches, "injected loss never breached the SLO"
        assert recorder.bundles
        return probe, recorder, transitions

    @pytest.fixture(scope="class")
    def bundle(self, run):
        return run[1].bundles[0]

    def test_verdicts_are_the_parent_commits(self, run):
        # Recorded on the commit before the probe became a judge over
        # the sampler's tick (its own 0.5 s periodic task, its own scan
        # of the federation, a list of HealthSample), and re-recorded
        # once when a keep-alive a receiver cannot apply became a
        # summary-nack: the NACKs repair lost fulls (worst coverage 0.865
        # -> 0.959) and draw from the loss stream, so every later loss
        # draw, and the breach instants after the first tick, moved.
        probe, recorder, transitions = run
        assert transitions == [
            (3.2084088523368464, "staleness"),
            (3.2084088523368464, "coverage"),
            (3.2084088523368464, "loss"),
            (4.208408852336847, "staleness"),
            (7.708408852336847, "staleness"),
        ]
        assert len(recorder.bundles) == 5
        report = probe.report(HealthSLO())
        assert report.samples == 11
        assert (report.window_start, report.window_end) == (
            3.2084088523368464, 8.208408852336847,
        )
        assert report.to_dict()["checks"] == [
            {"name": "staleness", "ok": False,
             "value": 0.17647058823529413, "threshold": 0.1,
             "detail": "worst stale_fraction across samples"},
            {"name": "coverage", "ok": False,
             "value": 0.9590643274853801, "threshold": 0.99,
             "detail": "worst replication coverage across samples"},
            {"name": "shedding", "ok": True, "value": 0.0,
             "threshold": 0.05, "detail": "0 shed of 2137 sent"},
            {"name": "loss", "ok": False, "value": 0.18249883013570425,
             "threshold": 0.1, "detail": "390 lost of 2137 sent"},
        ]

    def test_bundle_has_breach_window_series(self, bundle):
        assert bundle.series
        assert any(s["raw"] for s in bundle.series)
        for s in bundle.series:
            for t, _ in s["raw"]:
                assert bundle.window_start <= t <= bundle.window_end

    def test_bundle_has_ring_events_and_traces(self, bundle):
        assert bundle.ring_events > 0
        trees = bundle.trace_trees()  # re-assembled from the rings
        assert trees and len(trees[0]) > 0

    def test_bundle_renders(self, bundle):
        text = bundle.format()
        assert "postmortem: slo:" in text
        assert "overlapping causal traces:" in text
        assert "FAIL" in text
