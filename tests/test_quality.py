"""The shadow-oracle quality plane (telemetry.quality).

Covers the oracle verdicts (TP/FP/FN/TN over a search's coverage
region), per-summary divergence attribution, the owner-level
false-positive semantics fix, the zero-perturbation tripwire, the
quality gauges in the series sampler, and the precision-SLO breach
path into the flight recorder.
"""

import numpy as np
import pytest

from repro.query.predicate import RangePredicate
from repro.query.query import Query
from repro.roads import (
    RetryPolicy,
    RoadsConfig,
    RoadsSystem,
    SearchRequest,
)
from repro.roads.policy import DenyAllPolicy
from repro.summaries import SummaryConfig
from repro.telemetry import (
    DivergenceAttribution,
    QualityPlane,
    QualityReport,
    Telemetry,
)
from repro.workload import WorkloadConfig, generate_node_stores

SEED = 7
NODES = 24
RECORDS = 40

#: the attribute band the churn tests vacate / fill on ``u0``
BAND = (0.70, 0.78)
LANDING = (0.985, 1.0)


def build_system(telemetry=None, **overrides):
    wcfg = WorkloadConfig(
        num_nodes=NODES, records_per_node=RECORDS, seed=SEED
    )
    stores = generate_node_stores(wcfg)
    cfg = RoadsConfig(
        num_nodes=NODES,
        records_per_node=RECORDS,
        max_children=4,
        summary=SummaryConfig(histogram_buckets=200),
        seed=SEED,
        **overrides,
    )
    return RoadsSystem.build(cfg, stores, telemetry=telemetry), stores


def band_query(lo, hi):
    return Query((RangePredicate("u0", lo, hi),))


def churn_band_to_landing(stores):
    """Move every record with ``u0`` in BAND to the landing band."""
    moved = 0
    for store in stores:
        col = store.numeric_column("u0")
        for row in range(len(store)):
            if BAND[0] <= float(col[row]) <= BAND[1]:
                store.update_numeric(row, "u0", LANDING[0] + 0.005)
                moved += 1
    return moved


class TestOracleBasics:
    def test_detached_system_reports_none(self):
        system, _ = build_system()
        system.refresh()
        result = system.search(SearchRequest(band_query(*BAND)))
        assert result.quality is None
        assert system.quality is None

    def test_attach_and_audit_every_search(self):
        system, _ = build_system()
        system.refresh()
        plane = system.attach_quality()
        assert isinstance(plane, QualityPlane)
        assert system.quality is plane
        result = system.search(SearchRequest(band_query(*BAND)))
        report = result.quality
        assert isinstance(report, QualityReport)
        assert plane.audits == 1
        assert plane.reports[-1] is report
        assert report.entry_mode == "start"
        # Verdicts partition the cover (the entry server may count
        # nowhere when it holds no local match, unreachable are split
        # out explicitly).
        total = len(system.hierarchy.servers())
        counted = report.tp + report.fp + report.fn + report.tn
        assert counted <= total
        assert counted >= total - len(report.unreachable) - 1
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0

    def test_snapshot_keys_and_accumulation(self):
        system, _ = build_system()
        system.refresh()
        plane = system.attach_quality()
        for lo in (0.1, 0.4, 0.7):
            system.search(SearchRequest(band_query(lo, lo + 0.08)))
        snap = plane.snapshot()
        assert snap["audits"] == 3
        assert {
            "tp", "fp", "fn", "tn", "precision", "recall", "fp_rate",
            "divergence_age_mean", "owner_hits", "owner_false_positives",
        } <= set(snap)
        assert snap["tp"] == sum(r.tp for r in plane.reports)
        # per-node counts roll up to the same totals
        for key in ("tp", "fp", "fn", "tn"):
            assert sum(c[key] for c in plane.per_node.values()) == snap[key]


class TestChurnDivergence:
    """Stale summaries after a churn burst: FPs and FNs with full
    per-summary attribution."""

    @pytest.fixture(scope="class")
    def audited(self):
        system, stores = build_system()
        system.refresh()
        plane = system.attach_quality()
        moved = churn_band_to_landing(stores)
        assert moved > 0
        fp_report = system.search(
            SearchRequest(band_query(*BAND))
        ).quality
        fn_report = system.search(
            SearchRequest(band_query(*LANDING))
        ).quality
        return system, plane, fp_report, fn_report

    def test_vacated_band_produces_attributed_fps(self, audited):
        system, _, report, _ = audited
        assert report.fp > 0
        fps = [a for a in report.attributions if a.kind == "fp"]
        assert len(fps) == report.fp
        for a in fps:
            assert a.table in ("child", "replica", "replica_local")
            assert a.holder_id in system.hierarchy
            assert a.holder_level >= 0
            # The summaries exist (refresh ran), so every lie has an age.
            assert a.staleness_age is not None
            assert a.staleness_age >= 0.0
            assert a.dimension
            assert a.reason

    def test_landing_band_produces_attributed_fns(self, audited):
        system, _, _, report = audited
        assert report.fn > 0
        fns = [a for a in report.attributions if a.kind == "fn"]
        assert len(fns) == report.fn
        reasons = {a.reason for a in fns}
        assert reasons <= {
            "stale-divergence", "missing", "expired", "refreshed-since"
        }
        # The stale per-dimension summaries diverge on the queried
        # attribute itself.
        stale = [a for a in fns if a.reason == "stale-divergence"]
        assert stale
        assert all(a.dimension == "u0" for a in stale)

    def test_attribution_complete(self, audited):
        _, _, fp_report, fn_report = audited
        for report in (fp_report, fn_report):
            assert len(report.attributions) == report.fp + report.fn

    def test_divergence_age_mean_tracks_attributions(self, audited):
        _, plane, _, _ = audited
        ages = [
            a.staleness_age
            for r in plane.reports
            for a in r.attributions
            if a.staleness_age is not None
        ]
        assert ages
        assert plane.divergence_age_mean == pytest.approx(
            sum(ages) / len(ages)
        )

    def test_report_round_trips_to_dict(self, audited):
        _, _, report, _ = audited
        doc = report.to_dict()
        assert doc["fp"] == report.fp
        assert doc["precision"] == report.precision
        assert all(
            set(a) == {
                "server_id", "kind", "table", "holder_id",
                "holder_level", "src_id", "staleness_age",
                "dimension", "reason",
            }
            for a in doc["attributions"]
        )


class TestOwnerFalsePositiveSemantics:
    """Satellite fix: policy-filtered empty answers are not summary FPs
    when the oracle can see the raw match."""

    def test_oracle_verdict_unit(self):
        system, _ = build_system()
        plane = QualityPlane(system)
        server = system.hierarchy.servers()[0]
        owner = server.owners[0]
        everything = band_query(0.0, 1.0)
        nothing = band_query(2.0, 3.0)
        # Raw match + empty answer: policy hid it, the summary was right.
        assert plane.owner_false_positive(everything, owner, 0) is False
        # No raw match + empty answer: the summary lied.
        assert plane.owner_false_positive(nothing, owner, 0) is True
        # Any returned record is never a false positive.
        assert plane.owner_false_positive(nothing, owner, 3) is False

    def _deny_all_hits(self, attach_quality):
        system, _ = build_system()
        system.refresh()
        for server in system.hierarchy.servers():
            for owner in server.owners:
                system.policies.set(owner.owner_id, DenyAllPolicy())
        if attach_quality:
            system.attach_quality()
        result = system.search(SearchRequest(band_query(0.0, 1.0)))
        hits = result.outcome.owner_hits
        assert hits and all(h.match_count == 0 for h in hits)
        return hits

    def test_legacy_semantics_when_detached(self):
        # Every answer is empty, so the legacy heuristic calls every
        # contact a false positive — even though raw matches exist.
        hits = self._deny_all_hits(attach_quality=False)
        assert all(h.false_positive for h in hits)

    def test_oracle_semantics_when_attached(self):
        # The oracle sees the raw matches behind the DenyAll filter:
        # the summaries routed correctly, so no owner contact is an FP.
        hits = self._deny_all_hits(attach_quality=True)
        assert not any(h.false_positive for h in hits)


class TestZeroPerturbation:
    """Quality-on and quality-off arms must be byte-identical."""

    def _arm(self, audit):
        from repro.telemetry.profiling import CallPathProfiler

        tel = Telemetry()
        profiler = CallPathProfiler()
        tel.attach_profiler(profiler)
        system, stores = build_system(
            telemetry=tel, loss_rate=0.2, delta_updates=True,
            summary_interval=1.0,
        )
        if audit:
            system.attach_quality()
        system.update_plane.start()
        system.sim.run(until=system.sim.now + 2.0)
        churn_band_to_landing(stores)
        requests = [
            SearchRequest(
                band_query(*(BAND if i % 2 == 0 else LANDING)),
                client_node=i % NODES,
                retry=RetryPolicy(timeout=1.0, retries=1, backoff_base=0.1),
            )
            for i in range(8)
        ]
        batch = system.search_many(
            requests, arrivals=[0.1 * i for i in range(len(requests))]
        )
        latency = sum(r.outcome.latency for r in batch)
        return latency, profiler.document(), system

    def test_latency_and_census_identical(self):
        base_latency, base_doc, base_system = self._arm(audit=False)
        audit_latency, audit_doc, system = self._arm(audit=True)
        assert audit_latency == base_latency
        assert system.network.census == base_system.network.census
        assert system.network.census["query"]
        assert system.quality.audits == 8
        # The audit's wall cost is visible as its own profiler frame.
        from repro.telemetry.profiling import flatten_document

        assert "quality.audit" in flatten_document(audit_doc)
        assert "quality.audit" not in flatten_document(base_doc)


class TestSeriesGauges:
    """quality.* gauges ride the series sampler (and the watch verb)."""

    def test_sampler_records_quality_gauges(self):
        from repro.telemetry import SeriesConfig, SeriesSampler

        system, stores = build_system(telemetry=Telemetry())
        system.refresh()
        system.attach_quality()
        sampler = SeriesSampler(
            system, SeriesConfig(interval=0.25, per_server=True)
        ).start()
        churn_band_to_landing(stores)
        for i in range(4):
            system.search(SearchRequest(band_query(*BAND)))
        system.sim.run(until=system.sim.now + 2.0)
        names = {r.name for r in sampler.all_series()}
        assert {
            "quality.audits", "quality.precision", "quality.recall",
            "quality.fp_rate", "quality.divergence_age",
        } <= names
        per_server = {
            r.name for r in sampler.all_series() if r.server is not None
        }
        assert {"quality.fp", "quality.fn"} <= per_server
        ring = next(
            r for r in sampler.all_series()
            if r.name == "quality.audits" and r.server is None
        )
        assert ring.values()[-1] == 4.0

    def test_sampler_skips_quality_when_detached(self):
        from repro.telemetry import SeriesConfig, SeriesSampler

        system, _ = build_system(telemetry=Telemetry())
        sampler = SeriesSampler(system, SeriesConfig(interval=0.25)).start()
        system.sim.run(until=system.sim.now + 1.0)
        assert not any(
            r.name.startswith("quality.") for r in sampler.all_series()
        )


class TestPrecisionSLOBreach:
    """A precision-SLO breach freezes oracle evidence in the bundle."""

    def _breach(self, tmp_path=None):
        from repro.telemetry import (
            FlightRecorder,
            HealthProbe,
            HealthSLO,
            SeriesConfig,
            SeriesSampler,
        )

        tel = Telemetry()
        system, stores = build_system(telemetry=tel)
        system.refresh()
        system.attach_quality()
        recorder = FlightRecorder(
            tel, dump_dir=tmp_path
        )
        probe = HealthProbe(
            SeriesSampler(system, SeriesConfig(interval=0.5)).start(),
            slo=HealthSLO(min_precision=0.999),
        )
        recorder.bind(probe)
        churn_band_to_landing(stores)
        for _ in range(3):
            system.search(SearchRequest(band_query(*BAND)))
        system.sim.run(until=system.sim.now + 2.0)
        probe.sampler.stop()
        return system, probe, recorder

    def test_probe_samples_carry_precision(self):
        system, probe, _ = self._breach()
        assert probe.ticks
        assert probe.last["precision"] == system.quality.precision
        assert probe.last["precision"] < 0.999
        assert "precision" in {c.name for c in probe.breaches}

    def test_bundle_carries_quality_evidence(self):
        system, _, recorder = self._breach()
        assert recorder.bundles
        bundle = recorder.bundles[0]
        assert bundle.quality is not None
        snap = bundle.quality["snapshot"]
        assert snap["fp"] > 0
        last = bundle.quality["last_report"]
        assert last is not None
        assert last["attributions"]
        assert "answer quality" in bundle.format()

    def test_bundle_quality_round_trips(self, tmp_path):
        from repro.telemetry.recorder import PostmortemBundle

        _, _, recorder = self._breach(tmp_path)
        assert recorder.dumped
        import json

        doc = json.loads(recorder.dumped[0].read_text())
        assert doc["quality"]["snapshot"]["fp"] > 0
        back = PostmortemBundle.from_dict(doc)
        assert back.quality == recorder.bundles[0].quality


class TestHealthReportQuality:
    def test_report_judges_worst_precision(self):
        from repro.telemetry import (
            HealthProbe,
            HealthSLO,
            SeriesConfig,
            SeriesSampler,
        )

        system, stores = build_system(telemetry=Telemetry())
        system.refresh()
        system.attach_quality()
        probe = HealthProbe(
            SeriesSampler(system, SeriesConfig(interval=0.5)).start(),
            slo=HealthSLO(min_precision=0.999),
        )
        churn_band_to_landing(stores)
        for _ in range(2):
            system.search(SearchRequest(band_query(*BAND)))
        system.sim.run(until=system.sim.now + 1.5)
        probe.sampler.stop()
        report = probe.report(HealthSLO(min_precision=0.999))
        checks = {c.name: c for c in report.checks}
        assert "precision" in checks
        assert not checks["precision"].ok
