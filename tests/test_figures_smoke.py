"""Smoke tests for the figure drivers not covered elsewhere.

Shape assertions live in benchmarks/ (at meaningful scale); these verify
driver mechanics — row structure, sweep handling, determinism — at tiny
scale so the whole experiments package is exercised by `pytest tests/`.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench import RunPlan
from repro.experiments import (
    ExperimentSettings,
    fig4_update_overhead_vs_nodes,
    fig5_query_overhead_vs_nodes,
    fig7_query_overhead_vs_dimensions,
    fig11_response_time_vs_selectivity,
    save_rows_csv,
)
from repro.experiments.runner import clear_trial_memo

SMOKE = ExperimentSettings.smoke()


class TestFig4Driver:
    def test_rows_structure(self):
        rows = fig4_update_overhead_vs_nodes(SMOKE, node_sweep=(24, 48))
        assert [r["nodes"] for r in rows] == [24, 48]
        for r in rows:
            assert r["roads_update_bytes"] > 0
            assert r["sword_update_bytes"] > r["roads_update_bytes"]
            assert r["ratio"] > 1

    def test_deterministic(self):
        a = fig4_update_overhead_vs_nodes(SMOKE, node_sweep=(24,))
        clear_trial_memo()  # two simulations, not one and a memo hit
        b = fig4_update_overhead_vs_nodes(SMOKE, node_sweep=(24,))
        assert a == b


class TestFig5Driver:
    def test_rows_structure(self):
        rows = fig5_query_overhead_vs_nodes(
            SMOKE.with_(num_queries=10), node_sweep=(24, 48)
        )
        assert len(rows) == 2
        for r in rows:
            assert r["roads_query_bytes"] > 0
            assert r["sword_query_bytes"] > 0


class TestFig7Driver:
    def test_rows_structure(self):
        rows = fig7_query_overhead_vs_dimensions(
            SMOKE.with_(num_queries=10), dimension_sweep=(2, 6)
        )
        assert [r["dimensions"] for r in rows] == [2, 6]
        # SWORD messages grow with dimensionality (bigger queries).
        assert rows[1]["sword_query_bytes"] > rows[0]["sword_query_bytes"]


class TestFig11Driver:
    def test_rows_structure_small(self):
        # Tiny population: crossover position is out of scope here (it
        # needs the full 160k records); check mechanics only.
        rows = fig11_response_time_vs_selectivity(
            ExperimentSettings(
                num_nodes=24, records_per_node=100, num_queries=5,
                runs=1, seed=2,
            ),
            selectivity_sweep=(0.01, 0.05),
            queries_per_group=4,
        )
        assert [r["selectivity_pct"] for r in rows] == [1.0, 5.0]
        for r in rows:
            assert r["queries"] == 4
            assert r["roads_mean_ms"] > 0
            assert r["central_mean_ms"] > 0
            assert r["roads_p90_ms"] >= r["roads_mean_ms"] * 0.5

    def test_rows_are_exact_across_runs_and_processes(self, tmp_path):
        """The backend is charged per record, never timed, so Figure 11
        is as exact per seed as every other figure."""
        plan = RunPlan("fig11", scale="smoke", seed=1)
        rows = plan.rows()
        assert plan.rows() == rows
        save_rows_csv(rows, tmp_path / "here.csv")
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        for name in ("a.csv", "b.csv"):
            subprocess.run(
                [sys.executable, "-m", "repro", "figure", "fig11",
                 "--scale", "smoke", "--seed", "1",
                 "--output", str(tmp_path / name)],
                check=True, capture_output=True, env=env,
            )
            assert (tmp_path / name).read_bytes() == (
                tmp_path / "here.csv"
            ).read_bytes()
