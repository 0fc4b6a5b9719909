"""Federation health probe: a judge over the sampler's tick.

The series sampler is the one periodic reader of federation state; a
probe built over it judges each tick the sampler takes, adds
replication coverage, keeps running worst values (never a per-tick
list) and never perturbs the run — arming it must leave every simulated
outcome bit-identical.
"""

import sys

import pytest

from repro.net.transport import ServiceConfig
from repro.roads import RoadsConfig, RoadsSystem
from repro.summaries import SummaryConfig
from repro.telemetry import (
    FlightRecorder,
    HealthProbe,
    HealthSLO,
    SeriesConfig,
    SeriesSampler,
    Telemetry,
)
from repro.telemetry.probes import CHECKS
from repro.workload import WorkloadConfig, generate_node_stores

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


def armed(system, *, interval=1.0, stale_after=None, slo=None):
    """A started sampler with a probe judging its ticks."""
    sampler = SeriesSampler(
        system, SeriesConfig(interval=interval, stale_after=stale_after)
    ).start()
    return HealthProbe(sampler, slo=slo)


def tick(**overrides):
    """A synthetic judged tick (what the sampler hands the probe, plus
    coverage)."""
    base = dict(
        t=1.0, queue_depth_total=0, queue_depth_max=0, sent=100,
        delivered=98, lost=2, dropped=0, shed=0, pending=3,
        summary_entries=40, summary_age_mean=0.5, summary_age_max=1.0,
        stale_fraction=0.0, coverage=1.0, precision=1.0, recall=1.0,
    )
    base.update(overrides)
    return base


class TestSampling:
    def test_one_judge_per_sampler(self):
        sampler = SeriesSampler(build_system())
        HealthProbe(sampler)
        with pytest.raises(ValueError, match="already judged"):
            HealthProbe(sampler)

    def test_periodic_cadence(self):
        system = build_system(service=ServiceConfig(service_time=0.001))
        t0 = system.sim.now  # build already advanced the clock
        probe = armed(system, interval=0.5)
        system.update_plane.start()
        system.sim.run(until=t0 + 5.0)
        probe.sampler.stop()
        # The sampler's cadence is the probe's: every 0.5s over
        # (t0, t0+5.0], each tick judged exactly once.
        assert probe.ticks == probe.sampler.samples == 10
        report = probe.report()
        assert report.samples == 10
        assert report.window_start == pytest.approx(t0 + 0.5)
        assert report.window_end == pytest.approx(t0 + 5.0)
        times = [t for t, _ in probe.sampler.series("overlay.coverage").raw]
        diffs = [b - a for a, b in zip(times, times[1:])]
        assert len(times) == 10
        assert all(d == pytest.approx(0.5) for d in diffs)

    def test_probe_schedules_nothing_itself(self):
        system = build_system()
        before = system.sim.pending
        sampler = SeriesSampler(system).start()
        with_sampler = system.sim.pending
        HealthProbe(sampler, slo=HealthSLO())
        assert with_sampler == before + 1
        assert system.sim.pending == with_sampler

    def test_sample_reads_counters_and_staleness(self):
        system = build_system(loss=0.2, interval=0.5)
        system.update_plane.start()
        probe = armed(system, interval=0.5, stale_after=0.75)
        system.sim.run(until=6.0)
        last = probe.last
        assert last["sent"] > 0
        assert last["lost"] > 0  # loss injection observed via counters()
        assert last["summary_entries"] > 0
        assert last["summary_age_max"] > 0.0
        # With one in five updates lost and a tight staleness bound,
        # some judged tick catches stale summaries.
        by = {c.name: c for c in probe.report().checks}
        assert by["staleness"].value > 0.0
        assert by["coverage"].value <= 1.0

    def test_full_coverage_without_loss(self):
        system = build_system()
        system.update_plane.start()
        probe = armed(system)
        system.sim.run(until=4.0)
        assert probe.last["coverage"] == pytest.approx(1.0)

    def test_judge_records_coverage_and_deepest_queue(self):
        # Both are needed by nobody but the judge, so they are its
        # gauges: an un-judged sampler has neither, a judged one gets a
        # point per tick in the sampler's own rings.
        system = build_system(service=ServiceConfig(service_time=0.002))
        system.update_plane.start()
        bare = SeriesSampler(system, SeriesConfig(interval=0.5)).start()
        probe = armed(system, interval=0.5)
        system.sim.run(until=system.sim.now + 2.0)
        assert {"overlay.coverage", "service.depth_max"}.isdisjoint(
            bare.names()
        )
        judged = probe.sampler
        assert len(judged.series("overlay.coverage")) == judged.samples
        assert len(judged.series("service.depth_max")) == judged.samples
        assert judged.series("overlay.coverage").last[1] == (
            probe.last["coverage"]
        )

    def test_sampling_is_passive(self):
        # Identical runs with and without a probe: every network counter
        # must match — the probe sends nothing and consumes no
        # randomness.
        def run(with_probe):
            system = build_system(loss=0.1)
            system.update_plane.start()
            if with_probe:
                armed(system, interval=0.25, slo=HealthSLO())
            system.sim.run(until=6.0)
            return system.network.counters()

        assert run(True) == run(False)


class TestOneReader:
    """Sampler + probe + recorder armed: the federation is scanned once
    per sampler tick, by the sampler."""

    def test_one_scan_per_tick(self, monkeypatch):
        tel = Telemetry()
        system = build_system(
            loss=0.18, telemetry=tel, interval=0.5,
            service=ServiceConfig(service_time=0.004, queue_limit=16),
        )
        system.update_plane.start()
        calls = {"staleness": 0, "service": 0}
        plane, net = system.update_plane, system.network
        staleness, service = plane.staleness_snapshot, net.service_stats

        def counted_staleness(**kwargs):
            calls["staleness"] += 1
            return staleness(**kwargs)

        def counted_service(node):
            calls["service"] += 1
            return service(node)

        monkeypatch.setattr(plane, "staleness_snapshot", counted_staleness)
        monkeypatch.setattr(net, "service_stats", counted_service)
        probe = armed(system, interval=0.25, slo=HealthSLO())
        recorder = FlightRecorder(tel).bind(probe)
        system.sim.run(until=system.sim.now + 4.0)
        ticks = probe.sampler.samples
        assert ticks == 16
        # Breaches fired and bundles (with their reports) were frozen —
        # none of which took a second look at the federation.
        assert probe.breaches and recorder.bundles
        assert calls == {
            "staleness": ticks,
            "service": ticks * len(list(system.hierarchy)),
        }


class TestBoundedMemory:
    """The probe keeps running worst values, not samples: nothing it
    owns grows with the length of the run."""

    @staticmethod
    def footprint(probe):
        sizes = {}
        for name, value in vars(probe).items():
            if name in ("sampler", "system"):
                continue  # borrowed, not owned
            if hasattr(value, "__len__"):
                sizes[name] = len(value)
            sizes[f"sizeof:{name}"] = sys.getsizeof(value)
        return sizes

    def test_no_container_grows_with_ticks(self):
        probe = HealthProbe(
            SeriesSampler(build_system()), slo=HealthSLO(max_queue_depth=4)
        )

        def run(start, count):
            for i in range(start, start + count):
                # Every check flaps every other tick: the worst case for
                # anything that accumulates per tick or per breach.
                bad = i % 2 == 0
                probe.observe(tick(
                    t=float(i), sent=100 * (i + 1),
                    lost=(50 if bad else 1) * (i + 1),
                    shed=(50 if bad else 0) * (i + 1),
                    stale_fraction=0.5 if bad else 0.0,
                    coverage=0.5 if bad else 1.0,
                    queue_depth_max=9 if bad else 0,
                ))

        run(0, 50)
        run(50, 1000)  # past the breach ring's bound
        settled = self.footprint(probe)
        run(1050, 5000)
        assert probe.ticks == 6050
        assert self.footprint(probe) == settled


class TestReport:
    def probe(self, ticks, slo=None):
        p = HealthProbe(SeriesSampler(build_system()), slo=slo)
        for t in ticks:
            p.observe(t)
        return p

    def test_healthy_report(self):
        report = self.probe([tick(), tick(t=2.0)]).report()
        assert report.healthy
        assert report.samples == 2
        assert report.window_start == 1.0 and report.window_end == 2.0
        assert {c.name for c in report.checks} == {
            "staleness", "coverage", "shedding", "loss"
        }

    def test_worst_sample_fails_staleness(self):
        report = self.probe(
            [tick(), tick(t=2.0, stale_fraction=0.5), tick(t=3.0)]
        ).report()
        assert not report.healthy
        bad = next(c for c in report.checks if c.name == "staleness")
        assert not bad.ok and bad.value == pytest.approx(0.5)

    def test_coverage_and_loss_thresholds(self):
        report = self.probe(
            [tick(coverage=0.9, lost=50)]
        ).report(HealthSLO(min_coverage=0.95, max_loss_fraction=0.25))
        by = {c.name: c for c in report.checks}
        assert not by["coverage"].ok
        assert not by["loss"].ok  # 50/100 > 0.25
        assert by["shedding"].ok

    def test_queue_depth_check_is_opt_in(self):
        ticks = [tick(queue_depth_max=9)]
        names = {c.name for c in self.probe(ticks).report().checks}
        assert "queue_depth" not in names
        report = self.probe(ticks).report(HealthSLO(max_queue_depth=4))
        bad = next(c for c in report.checks if c.name == "queue_depth")
        assert not bad.ok and bad.value == 9.0

    def test_one_table_serves_instant_and_window_verdicts(self):
        # All seven checks armed: the instantaneous verdict (breach
        # transitions) and the window verdict (report) come off CHECKS,
        # in its order, and differ only where a gauge has recovered.
        slo = HealthSLO(
            max_queue_depth=4, min_precision=0.9, min_recall=0.9
        )
        names = [c.name for c in CHECKS]
        assert names == [
            "staleness", "coverage", "shedding", "loss",
            "queue_depth", "precision", "recall",
        ]
        probe = self.probe(
            [
                tick(stale_fraction=0.5, coverage=0.5, queue_depth_max=9,
                     precision=0.5, recall=0.5),
                tick(t=2.0),
            ],
            slo=slo,
        )
        # Instant: the five gauges breached on the first tick and have
        # recovered on the second; nothing new fired.
        assert [c.name for c in probe.breaches] == [
            "staleness", "coverage", "queue_depth", "precision", "recall",
        ]
        assert probe.breaches[0].detail == "stale_fraction at t=1.00s"
        # Window: the same gauges still fail at their worst value.
        report = probe.report(slo)
        assert [c.name for c in report.checks] == names
        failing = {c.name: c.value for c in report.checks if not c.ok}
        assert failing == {
            "staleness": 0.5, "coverage": 0.5, "queue_depth": 9.0,
            "precision": 0.5, "recall": 0.5,
        }
        by = {c.name: c for c in report.checks}
        assert by["staleness"].detail == "worst stale_fraction across samples"
        assert by["loss"].detail == "2 lost of 100 sent"

    def test_report_samples_on_demand_when_empty(self):
        system = build_system()
        probe = HealthProbe(SeriesSampler(system))
        report = probe.report()
        assert report.samples == 1  # one synchronous sampler tick
        assert probe.sampler.samples == 1

    def test_round_trips_and_formatting(self):
        report = self.probe([tick(shed=20)]).report()
        doc = report.to_dict()
        assert doc["healthy"] is False
        assert doc["last_sample"]["shed"] == 20.0
        assert all(isinstance(v, float) for v in doc["last_sample"].values())
        text = report.format()
        assert "UNHEALTHY" in text
        assert "shedding" in text
        assert "queue depth 0 (max 0), pending 3, sent 100" in text
