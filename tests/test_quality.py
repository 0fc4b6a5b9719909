"""The shadow-oracle quality plane (telemetry.quality).

Covers the oracle verdicts (TP/FP/FN/TN over a search's coverage
region), per-summary divergence attribution read off the walk the search
recorded, the owner-level false-positive verdict, the audit of a search
whose entry server left, the zero-perturbation tripwire, the quality
gauges in the series sampler, and the precision-SLO breach path into the
flight recorder.
"""

import numpy as np
import pytest

from repro.query.predicate import RangePredicate
from repro.query.query import Query
from repro.roads import (
    OwnerHit,
    QueryOutcome,
    RetryPolicy,
    RoadsConfig,
    RoadsSystem,
    SearchRequest,
)
from repro.roads.policy import TieredPolicy
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
    """The audit is the one definition of an owner false positive: an
    empty answer over a raw match (a policy hid it) is a justified visit;
    an empty answer with no raw match is the summary's lie."""

    def test_oracle_verdict_unit(self):
        system, _ = build_system()
        plane = QualityPlane(system)
        server = system.hierarchy.servers()[0]
        owner = server.owners[0]
        sid = server.server_id

        def owner_verdicts(query, answered):
            outcome = QueryOutcome(
                query=query, start_server=sid, client_node=sid,
                arrivals={sid: 0.0},
                owner_hits=[OwnerHit(owner.owner_id, sid, 0.0, answered)],
            )
            report = plane.audit(SearchRequest(query, start_server=sid), outcome)
            return report.owner_false_positives, report.owner_hits

        everything = band_query(0.0, 1.0)
        nothing = band_query(2.0, 3.0)
        # Raw match + empty answer: policy hid it, the summary was right.
        assert owner_verdicts(everything, 0) == (0, 1)
        # No raw match + empty answer: the summary lied.
        assert owner_verdicts(nothing, 0) == (1, 0)
        # Any returned record is never a false positive.
        assert owner_verdicts(nothing, 3) == (0, 1)

    def _deny_all_search(self, attach_quality):
        system, _ = build_system()
        system.refresh()
        for server in system.hierarchy.servers():
            for owner in server.owners:
                system.policies.set(owner.owner_id, TieredPolicy(public_limit=0))
        if attach_quality:
            system.attach_quality()
        result = system.search(SearchRequest(band_query(0.0, 1.0)))
        hits = result.outcome.owner_hits
        assert hits and all(h.match_count == 0 for h in hits)
        return result

    def test_legacy_semantics_when_detached(self):
        # Detached, a hit records what the owner answered and nothing
        # else: no verdict is made outside the audit.
        result = self._deny_all_search(attach_quality=False)
        assert result.quality is None
        assert not hasattr(result.outcome.owner_hits[0], "false_positive")

    def test_oracle_semantics_when_attached(self):
        # The oracle sees the raw matches behind the closed policy:
        # the summaries routed correctly, so no owner contact is an FP.
        result = self._deny_all_search(attach_quality=True)
        report = result.quality
        assert report.owner_false_positives == 0
        assert report.owner_hits == len(result.outcome.owner_hits)


class TestRecordedWalk:
    """The audit reads the walk the search took (``QueryOutcome.routes``)
    and never re-decides it."""

    def test_fp_pinned_on_the_summary_the_search_consulted(self):
        # An ancestor A is churned out of the band, but the entry X still
        # holds a matching replicated_local summary of it, so the search
        # visits A owners-only. A fresh, non-matching summary of A lands
        # at X mid-search: a replay of X's decision would no longer reach
        # A, but the search did, on X's old replica_local entry.
        system, stores = build_system()
        system.refresh()
        plane = system.attach_quality()
        hierarchy = system.hierarchy
        query = band_query(*BAND)
        x = max(hierarchy.servers(), key=lambda s: (s.depth, s.server_id))
        a = hierarchy.get(x.root_path[-2])
        store = a.owners[0].origin
        col = store.numeric_column("u0")
        rows = [r for r in range(len(store)) if BAND[0] <= float(col[r]) <= BAND[1]]
        assert rows, "the ancestor must start with records in the band"
        for row in rows:
            store.update_numeric(row, "u0", LANDING[0] + 0.005)
        assert x.replicated_local_summaries[a.server_id].may_match(query)

        pending = system.submit(
            SearchRequest(query, client_node=x.server_id, start_server=x.server_id)
        )
        outcome = pending.execution.outcome
        system.sim.run(stop=lambda: x.server_id in outcome.arrivals)
        fresh = a.local_summary(system.config.summary, system.sim.now)
        assert not fresh.may_match(query)
        x.install_summary("replica_local", a.server_id, fresh)
        system.sim.run(stop=lambda: pending.done)

        assert outcome.routes[a.server_id] == (x.server_id, "local")
        report = pending.result.quality
        (verdict,) = [
            v for v in report.attributions if v.server_id == a.server_id
        ]
        assert verdict.kind == "fp"
        assert verdict.table == "replica_local"
        assert verdict.holder_id == x.server_id
        assert plane.per_node[a.server_id]["fp"] == 1

    def test_departed_entry_is_unreachable(self):
        # The entry answers, then leaves before the search resolves: the
        # cover was the entry's, so nothing is judged pruned, and every
        # server the search reached is still judged on its visit.
        system, stores = build_system()
        system.refresh()
        system.attach_quality()
        churn_band_to_landing(stores)
        entry = 8
        pending = system.submit(
            SearchRequest(band_query(*BAND), client_node=0, start_server=entry)
        )
        outcome = pending.execution.outcome
        system.sim.run(stop=lambda: bool(outcome.arrivals))
        system.enable_maintenance().leave(system.hierarchy.get(entry))
        assert entry not in system.hierarchy
        system.sim.run(stop=lambda: pending.done)

        report = pending.result.quality
        assert report.start_server == entry
        assert entry in report.unreachable
        assert report.fn == report.tn == 0
        reached = {s for s in outcome.arrivals if s in system.hierarchy}
        assert reached and report.contacted == len(reached)
        assert report.tp + report.fp == len(reached)
        assert len(report.attributions) == report.fp

    @staticmethod
    def _assert_every_visit_routed(system, results):
        hierarchy = system.hierarchy
        for result in results:
            o = result.outcome
            reached = {s for s in o.arrivals if s in hierarchy}
            assert reached - {o.start_server} <= set(o.routes)
            assert o.start_server not in o.routes
            for via, mode in o.routes.values():
                assert mode in ("descent", "local")
                # A redirect is read off a response, so its sender arrived.
                assert via in o.arrivals

    def test_every_visit_under_churn_has_a_route(self):
        system, stores = build_system()
        system.refresh()
        system.attach_quality()
        churn_band_to_landing(stores)
        results = [
            system.search(SearchRequest(band_query(*band), client_node=c))
            for band in (BAND, LANDING)
            for c in range(NODES)
        ]
        self._assert_every_visit_routed(system, results)

    def test_every_visit_under_loss_has_a_route(self):
        batch, _, system = TestZeroPerturbation()._arm(audit=True)
        # The loss bit: some redirects were followed to servers that
        # never answered, and those routes stay out of the verdicts.
        assert any(r.outcome.timed_out_servers for r in batch)
        self._assert_every_visit_routed(system, batch)


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
        return batch, profiler.document(), system

    def test_latency_and_census_identical(self):
        base, base_doc, base_system = self._arm(audit=False)
        audited, audit_doc, system = self._arm(audit=True)
        assert [r.outcome.latency for r in audited] == [
            r.outcome.latency for r in base
        ]
        assert system.network.census == base_system.network.census
        assert system.network.census["query"]
        assert system.quality.audits == 8
        # The audit's wall cost is visible as its own profiler frame.
        def frames(node):
            for child in node["children"]:
                yield child["name"]
                yield from frames(child)

        assert "quality.audit" in frames(audit_doc["tree"])
        assert "quality.audit" not in frames(base_doc["tree"])


class TestSeriesGauges:
    """quality.* gauges ride the series sampler (and the watch verb)."""

    def test_sampler_records_quality_gauges(self):
        from repro.telemetry import SeriesSampler

        system, stores = build_system(telemetry=Telemetry())
        system.refresh()
        system.attach_quality()
        sampler = SeriesSampler(system, 0.25).start()
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
        from repro.telemetry import SeriesSampler

        system, _ = build_system(telemetry=Telemetry())
        sampler = SeriesSampler(system, 0.25).start()
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
            SeriesSampler(system, 0.5).start(),
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
            SeriesSampler,
        )

        system, stores = build_system(telemetry=Telemetry())
        system.refresh()
        system.attach_quality()
        probe = HealthProbe(
            SeriesSampler(system, 0.5).start(),
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
