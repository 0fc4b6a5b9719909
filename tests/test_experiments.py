"""Tests for repro.experiments (drivers, runner, reporting)."""

import gc
import json
import math
import weakref

import pytest

from repro.bench import RunPlan
from repro.experiments import runner
from repro.experiments import (
    DEGREE_SWEEP,
    DIMENSION_SWEEP,
    NODE_SWEEP,
    ExperimentSettings,
    analytical_rows,
    analytical_update_rows,
    average_trials,
    fig3_latency_vs_nodes,
    fig6_latency_vs_dimensions,
    fig8_update_overhead_vs_records,
    fig9_latency_vs_overlap,
    fig10_latency_vs_degree,
    format_table,
    measured_rows,
    run_trial,
)


SMOKE = ExperimentSettings.smoke()


@pytest.fixture
def cold_memo():
    """Start from an empty trial memo, so every trial builds."""
    runner.clear_trial_memo()
    yield
    runner.clear_trial_memo()


class TestSettings:
    def test_paper_defaults(self):
        s = ExperimentSettings.paper()
        assert s.num_nodes == 320
        assert s.records_per_node == 500
        assert s.num_queries == 500
        assert s.runs == 10
        assert s.max_children == 8
        assert s.histogram_buckets == 1000

    def test_sweeps_match_paper(self):
        assert NODE_SWEEP == tuple(range(64, 641, 64))
        assert DIMENSION_SWEEP == tuple(range(2, 9))
        assert DEGREE_SWEEP == tuple(range(4, 13))

    def test_with_override(self):
        s = ExperimentSettings.paper().with_(num_nodes=64)
        assert s.num_nodes == 64 and s.records_per_node == 500

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSettings(num_nodes=1)
        with pytest.raises(ValueError):
            ExperimentSettings(runs=0)

    @pytest.mark.parametrize("name, value", [
        ("seed", -1), ("seed", True), ("seed", 1.0),
        ("records_per_node", 0), ("max_children", 0),
        ("histogram_buckets", 0), ("query_dimensions", 0),
        ("query_range_length", 0.0), ("query_range_length", 2.0),
        ("query_range_length", math.nan),
    ])
    def test_every_memo_key_is_checked_by_name(self, name, value):
        # Each one used to pass, and then fail deep inside a trial with
        # a message naming no field (seed=-1: "root_seed must be
        # non-negative") or run: records_per_node=0 reported a 0.5 ms
        # latency over an empty federation.
        with pytest.raises(ValueError, match=f"^{name} must be"):
            ExperimentSettings(**{name: value})

    @pytest.mark.parametrize(
        "name", ["update_window_seconds", "summary_interval", "record_interval"]
    )
    @pytest.mark.parametrize("value", [0.0, -5.0, -600.0, math.nan, math.inf])
    def test_intervals_must_be_finite_and_positive(self, name, value):
        # A non-positive window used to be charged one full epoch (so
        # fig4 at -600 s printed ROADS above SWORD), NaN and inf leaked
        # raw errors from round(), and summary_interval=0 got as far as
        # RoadsConfig after the trial's workload was generated.
        with pytest.raises(ValueError, match=name):
            SMOKE.with_(**{name: value})


class TestUpdateWindow:
    """Every system's ``update_overhead`` refuses a window with no epochs
    in it instead of charging one epoch for it."""

    @pytest.fixture(scope="class")
    def systems(self):
        settings = SMOKE.with_(num_nodes=16, records_per_node=10)
        _, stores = runner.build_workload(settings, 1)
        return [
            build(settings, stores, 1)
            for build in (
                runner.build_roads, runner.build_sword, runner.build_central
            )
        ]

    @pytest.mark.parametrize("window", [0.0, -5.0, -600.0, math.nan, math.inf])
    def test_refused(self, systems, window):
        for system in systems:
            with pytest.raises(ValueError, match="window_seconds"):
                system.update_overhead(window)

    def test_a_positive_window_is_charged_per_epoch(self, systems):
        roads, sword, central = systems
        per = roads.update_bytes_per_epoch()
        assert roads.update_overhead(600.0) == 10 * per
        assert roads.update_overhead(1.0) == per  # rounds up to one epoch
        assert sword.update_overhead(12.0) == 2 * sword.update_overhead(6.0)
        assert central.update_overhead(12.0) == 2 * central.update_overhead(6.0)


class TestRunner:
    def test_trial_pairs_systems(self):
        t = run_trial(SMOKE, seed=1, include_central=True)
        assert t.roads.mean_latency_s > 0
        assert t.sword.mean_latency_s > 0
        assert t.central.mean_latency_s > 0

    def test_roads_beats_sword_on_updates(self):
        t = run_trial(SMOKE, seed=1)
        assert t.roads.update_bytes_window < t.sword.update_bytes_window

    def test_sword_beats_roads_on_query_bytes(self):
        t = run_trial(SMOKE, seed=1)
        assert t.sword.mean_query_bytes < t.roads.mean_query_bytes

    def test_average_trials(self):
        avg = average_trials(SMOKE.with_(runs=2))
        assert "roads" in avg and "sword" in avg
        assert avg["roads"].mean_latency_s > 0

    def test_trial_federations_are_freed_as_the_sweep_goes(
        self, monkeypatch, cold_memo
    ):
        # A federation is full of reference cycles, so dropping it frees
        # nothing until the collector runs; a sweep's peak memory must be
        # one trial's however rarely that happens on its own.
        built, alive_when_next_built = [], []
        build_roads = runner.build_roads

        def recording(*args, **kwargs):
            alive_when_next_built.append(sum(r() is not None for r in built))
            system = build_roads(*args, **kwargs)
            built.append(weakref.ref(system.hierarchy))
            return system

        monkeypatch.setattr(runner, "build_roads", recording)
        gc.disable()
        try:
            average_trials(SMOKE.with_(runs=3))
        finally:
            gc.enable()
        assert alive_when_next_built == [0, 0, 0]
        assert all(r() is None for r in built)


class TestTrialMemo:
    """Figures 3-5 (and 6-7) are views of the same trials: each trial is
    simulated once per process and memoised as plain numbers, so a
    figure read after its donor builds nothing and prints the same
    bytes it prints alone."""

    @pytest.fixture
    def builds(self, monkeypatch, cold_memo):
        """The name of every workload, ROADS and SWORD build, in order."""
        counted = []
        for name in ("build_workload", "build_roads", "build_sword"):
            def counting(*args, _real=getattr(runner, name), _name=name, **kw):
                counted.append(_name)
                return _real(*args, **kw)

            monkeypatch.setattr(runner, name, counting)
        return counted

    @staticmethod
    def rows(target, **sweeps):
        plan = RunPlan(target, scale="smoke", sweeps=sweeps or None)
        return json.dumps(plan.rows())

    # fig8's 60 records and fig10's degree 8 are the smoke preset's own,
    # so a fig3 sweep through 48 nodes holds their default point.
    @pytest.mark.parametrize("donor, target, sweeps", [
        (None, "fig4", {}),
        ("fig3", "fig4", {}),
        ("fig3", "fig5", {}),
        ("fig6", "fig7", {}),
        ("fig3", "fig8", {"nodes": (32, 48), "records": (60, 150)}),
        ("fig3", "fig10", {"nodes": (32, 48), "degree": (4, 8)}),
    ])
    def test_warm_rows_are_cold_rows(self, cold_memo, donor, target, sweeps):
        cold = self.rows(target, **sweeps)
        runner.clear_trial_memo()
        if donor:
            self.rows(donor, **sweeps)
        assert self.rows(target, **sweeps) == cold

    @pytest.mark.parametrize(
        "donor, target", [("fig3", "fig4"), ("fig3", "fig5"), ("fig6", "fig7")]
    )
    def test_a_figure_after_its_donor_builds_nothing(self, builds, donor, target):
        self.rows(donor)
        assert builds.count("build_roads") == 2  # one per smoke sweep point
        del builds[:]
        self.rows(target)
        assert builds == []

    def test_shared_points_are_not_rebuilt(self, builds):
        self.rows("fig3", nodes=(32, 48))
        del builds[:]
        self.rows("fig8", records=(60, 150))  # only the 150-record point
        assert builds == ["build_workload", "build_roads", "build_sword"]
        del builds[:]
        self.rows("fig10", degree=(4, 8))  # only degree 4, and no SWORD
        assert builds == ["build_workload", "build_roads"]

    def test_facts_alone_drive_no_query(self, builds, monkeypatch):
        def no_queries(*args, **kwargs):
            raise AssertionError("a facts-only trial generated queries")

        monkeypatch.setattr(runner, "trial_queries", no_queries)
        t = run_trial(SMOKE, seed=1, stream=False)
        assert builds == ["build_workload", "build_roads", "build_sword"]
        assert math.isnan(t.roads.mean_latency_s)
        assert 0 < t.roads.update_bytes_window < t.sword.update_bytes_window

    def test_a_hit_is_a_copy(self, cold_memo):
        first = run_trial(SMOKE, seed=1)
        latency = first.roads.mean_latency_s
        first.roads.mean_latency_s = -1.0
        first.sword.update_bytes_window = -1
        again = run_trial(SMOKE, seed=1)
        assert again.roads.mean_latency_s == latency
        assert again.sword.update_bytes_window > 0

    def test_the_memo_holds_numbers_not_federations(self, monkeypatch, cold_memo):
        systems = []
        build_roads = runner.build_roads

        def recording(*args, **kwargs):
            system = build_roads(*args, **kwargs)
            systems.append(weakref.ref(system))
            return system

        monkeypatch.setattr(runner, "build_roads", recording)
        run_trial(SMOKE, seed=1)
        gc.collect()
        assert len(systems) == 1 and systems[0]() is None
        assert all(
            type(v) in (int, float)
            for values in runner._MEMO.values() for v in values
        )

    def test_bounded(self, monkeypatch, cold_memo):
        monkeypatch.setattr(runner, "_MEMO_SIZE", 3)
        tiny = SMOKE.with_(num_nodes=16, records_per_node=10, num_queries=3)
        first = run_trial(tiny, seed=1)
        assert len(runner._MEMO) == 3
        run_trial(tiny, seed=2)
        assert len(runner._MEMO) == 3
        assert run_trial(tiny, seed=1) == first  # rebuilt, same numbers


class TestStreamOutlivesNoSummary:
    """A figure driver's federation never runs its update plane, so its
    back-to-back stream must not age the summaries out from under
    itself: at the 300 s default TTL every search past that point was
    pruned to its entry server and returned ``ok`` with no matches."""

    def test_every_search_finds_every_match_past_the_default_ttl(self):
        from repro.roads import SearchRequest
        from repro.summaries import SummaryConfig

        # Two-dimensional queries: enough matches that a pruned search
        # shows, and ~0.5 simulated s a search.
        settings = SMOKE.with_(num_queries=640, query_dimensions=2)
        wcfg, stores = runner.build_workload(settings, settings.seed)
        queries, clients = runner.trial_queries(settings, wcfg, settings.seed)
        system = runner.build_roads(settings, stores, settings.seed)
        results = system.search_many([
            SearchRequest(q, client_node=int(c))
            for q, c in zip(queries, clients)
        ])
        assert system.sim.now > SummaryConfig().ttl
        truth = [sum(q.match_count(s) for s in stores) for q in queries]
        assert [r.outcome.total_matches for r in results] == truth
        assert sum(truth[-40:]) > 0


class TestFigureDrivers:
    def test_fig3_shape(self):
        # 96 and 160 nodes sit inside the same ROADS hierarchy depth
        # (4 levels at degree 8), isolating the growth-rate comparison
        # from level jumps: ROADS ~flat, SWORD linear in the segment.
        rows = fig3_latency_vs_nodes(
            SMOKE.with_(num_queries=15), node_sweep=(96, 160)
        )
        assert len(rows) == 2
        for r in rows:
            assert r["roads_latency_ms"] < r["sword_latency_ms"]
        sword_delta = rows[1]["sword_latency_ms"] - rows[0]["sword_latency_ms"]
        roads_delta = rows[1]["roads_latency_ms"] - rows[0]["roads_latency_ms"]
        assert sword_delta > roads_delta

    def test_fig6_roads_latency_falls_with_dims(self):
        rows = fig6_latency_vs_dimensions(
            SMOKE.with_(num_queries=20), dimension_sweep=(2, 8)
        )
        assert rows[1]["roads_latency_ms"] < rows[0]["roads_latency_ms"]

    def test_fig8_roads_constant_sword_linear(self):
        rows = fig8_update_overhead_vs_records(
            SMOKE.with_(num_queries=1), records_sweep=(30, 90)
        )
        roads_growth = (
            rows[1]["roads_update_bytes"] / rows[0]["roads_update_bytes"]
        )
        sword_growth = (
            rows[1]["sword_update_bytes"] / rows[0]["sword_update_bytes"]
        )
        assert roads_growth < 1.3  # ~constant
        assert sword_growth > 2.0  # ~linear in records (3x records)

    def test_fig9_runs(self):
        rows = fig9_latency_vs_overlap(
            SMOKE.with_(num_queries=10), overlap_sweep=(1, 8)
        )
        assert len(rows) == 2
        assert all(r["roads_latency_ms"] > 0 for r in rows)

    def test_fig10_latency_falls_with_degree(self):
        rows = fig10_latency_vs_degree(
            SMOKE.with_(num_queries=15), degree_sweep=(3, 12)
        )
        assert rows[-1]["roads_latency_ms"] < rows[0]["roads_latency_ms"]
        assert rows[-1]["levels"] <= rows[0]["levels"]


class TestTable1:
    def test_analytical_rows(self):
        rows = analytical_rows()
        designs = [r["design"] for r in rows]
        assert designs == ["ROADS", "SWORD", "Central"]
        assert rows[0]["formula_units"] < rows[1]["formula_units"]

    def test_analytical_update_rows(self):
        rows = analytical_update_rows()
        assert len(rows) == 3
        # Equations (1)-(3) at Table I's parameters: ROADS < central < SWORD.
        by = {r["design"]: r["update_units_per_second"] for r in rows}
        assert by["ROADS"] < by["Central"] < by["SWORD"]

    def test_measured_rows_ordering(self):
        # ROADS summary storage is constant in the record count; the
        # Table I ordering therefore emerges once records dominate — use
        # a record-heavy workload (the paper's table assumes 10^7 records).
        rows = measured_rows(SMOKE.with_(records_per_node=1500))
        by_design = {r["design"]: r for r in rows}
        assert (
            by_design["ROADS"]["mean_bytes_per_server"]
            < by_design["SWORD"]["mean_bytes_per_server"]
        )
        assert (
            by_design["SWORD"]["mean_bytes_per_server"]
            < by_design["Central"]["mean_bytes_per_server"]
        )

    def test_measured_roads_storage_constant_in_records(self):
        light = measured_rows(SMOKE.with_(records_per_node=100))
        heavy = measured_rows(SMOKE.with_(records_per_node=800))
        r_light = next(r for r in light if r["design"] == "ROADS")
        r_heavy = next(r for r in heavy if r["design"] == "ROADS")
        assert r_heavy["mean_bytes_per_server"] == pytest.approx(
            r_light["mean_bytes_per_server"], rel=0.05
        )


class TestReport:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 1e9}]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]
