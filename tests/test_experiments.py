"""Tests for repro.experiments (drivers, runner, reporting)."""

import gc
import weakref

import pytest

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
        avg = average_trials(SMOKE.with_(runs=2), measure_updates=False)
        assert "roads" in avg and "sword" in avg
        assert avg["roads"].mean_latency_s > 0


    def test_trial_federations_are_freed_as_the_sweep_goes(self, monkeypatch):
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
            average_trials(SMOKE.with_(runs=3), measure_updates=False)
        finally:
            gc.enable()
        assert alive_when_next_built == [0, 0, 0]
        assert all(r() is None for r in built)


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
