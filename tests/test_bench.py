"""Benchmark observatory: profiler, scenarios, artifacts, compare, trajectory."""

import json

import pytest

from repro.bench import (
    BenchArtifact,
    DEFAULT_WALL_TOLERANCE,
    ROOT_SHARE_CEILING,
    SCALES,
    SCENARIOS,
    artifact_filename,
    available_scenarios,
    compare_artifacts,
    config_fingerprint,
    format_comparison,
    format_trajectory,
    load_artifact,
    load_trajectory,
    append_trajectory,
    resolve_scale,
    RunPlan,
    run_scenario,
    scale_settings,
    scale_sweeps,
    trajectory_row,
    validate_artifact,
    write_artifact,
)
from repro.experiments.config import ExperimentSettings
from repro.telemetry.profiling import CallPathProfiler


@pytest.fixture(scope="module")
def overlay_artifact():
    return run_scenario(RunPlan("overlay", scale="smoke", seed=3))


class TestProfiler:
    def test_section_accumulates(self):
        prof = CallPathProfiler()
        with prof.section("net.send"):
            pass
        with prof.section("net.send"):
            pass
        assert prof.calls("net.send") == 2
        assert prof.seconds("net.send") >= 0.0

    def test_add_and_count(self):
        prof = CallPathProfiler()
        prof.add("sim.dispatch", 0.25, calls=10)
        prof.add("sim.dispatch", 0.25, calls=10)
        prof.count("sim.events", 100)
        assert prof.seconds("sim.dispatch") == pytest.approx(0.5)
        assert prof.calls("sim.dispatch") == 20
        assert prof.counter("sim.events") == 100

    def test_events_per_second(self):
        prof = CallPathProfiler()
        prof.add("sim.dispatch", 2.0)
        prof.count("sim.events", 500)
        assert prof.events_per_second() == pytest.approx(250.0)
        assert prof.events_per_second(events=1000) == pytest.approx(500.0)

    def test_empty_throughput_is_zero(self):
        assert CallPathProfiler().events_per_second() == 0.0

    def test_snapshot_and_reset(self):
        prof = CallPathProfiler()
        prof.add("query.execute", 0.1)
        prof.count("sim.events", 7)
        snap = prof.snapshot()
        assert snap["sections"]["query.execute"]["calls"] == 1
        assert snap["counters"]["sim.events"] == 7
        json.dumps(snap)  # JSON-serialisable
        prof.reset()
        assert prof.snapshot() == {"sections": {}, "counters": {}}


class TestScales:
    def test_resolve_scale_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert resolve_scale() == "quick"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "smoke")
        assert resolve_scale() == "smoke"
        monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
        with pytest.raises(ValueError, match="REPRO_BENCH_SCALE"):
            resolve_scale()

    def test_scale_settings_ordering(self):
        smoke = scale_settings("smoke")
        quick = scale_settings("quick")
        paper = scale_settings("paper")
        assert smoke.num_nodes < quick.num_nodes
        assert quick.num_queries < paper.num_queries
        assert paper.num_nodes == quick.num_nodes  # same structure

    def test_scale_sweeps_have_all_axes(self):
        for scale in SCALES:
            sweeps = scale_sweeps(scale)
            assert {
                "nodes", "dims", "records", "overlap", "degree",
                "selectivity", "queries_per_group",
            } <= set(sweeps)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            scale_settings("huge")
        with pytest.raises(ValueError):
            scale_sweeps("huge")


class TestRunScenario:
    def test_registry_contents(self):
        names = available_scenarios()
        assert "fig3" in names and "table1" in names and "overlay" in names
        for s in ("fig4", "fig5", "fig8", "fig11"):
            assert s in names
        assert set(names) == set(SCENARIOS)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            RunPlan("fig99", scale="smoke")

    def test_overlay_artifact_contents(self, overlay_artifact):
        art = overlay_artifact
        assert art.scenario == "overlay" and art.scale == "smoke"
        assert art.ok, art.shape["failures"]
        assert art.rows  # per-server load rows
        assert art.simulated["root_share_overlay"] < ROOT_SHARE_CEILING
        assert (
            art.simulated["root_share_overlay"]
            < art.simulated["root_share_no_overlay"]
        )
        assert art.metrics["sim.latency_p50"] > 0
        assert art.metrics["wall.events_per_sec"] > 0
        assert art.wall["sections"]["sim.dispatch"]["seconds"] > 0
        assert art.config_fingerprint == config_fingerprint(
            scale_settings("smoke", 3)
        )

    def test_profile_off_leaves_wall_empty(self):
        art = run_scenario(RunPlan("fig8", scale="smoke", seed=2, profile=False))
        assert art.wall == {}
        assert not any(k.startswith("wall.") for k in art.metrics)

    def test_fingerprint_is_stable_and_sensitive(self):
        a = config_fingerprint(ExperimentSettings.smoke())
        b = config_fingerprint(ExperimentSettings.smoke())
        c = config_fingerprint(ExperimentSettings.smoke().with_(seed=9))
        assert a == b
        assert a != c


class TestArtifactIO:
    def test_roundtrip(self, overlay_artifact, tmp_path):
        path = write_artifact(
            overlay_artifact, tmp_path / artifact_filename("overlay")
        )
        assert path.name == "BENCH_overlay.json"
        back = load_artifact(path)
        assert back.metrics == overlay_artifact.metrics
        assert back.config_fingerprint == overlay_artifact.config_fingerprint

    def test_quality_plane_artifact_stem(self):
        assert artifact_filename("quality_plane") == "BENCH_quality.json"

    def test_validate_flags_problems(self, overlay_artifact):
        doc = overlay_artifact.to_dict()
        assert validate_artifact(doc) == []
        bad = dict(doc)
        del bad["metrics"]
        assert any("metrics" in p for p in validate_artifact(bad))
        bad = dict(doc, schema="roads.bench/999")
        assert any("schema" in p for p in validate_artifact(bad))
        bad = dict(doc, metrics={"sim.latency_p50": "fast"})
        assert any("non-numeric" in p for p in validate_artifact(bad))

    def test_load_rejects_invalid(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema": "nope"}))
        with pytest.raises(ValueError, match="invalid bench artifact"):
            load_artifact(path)


def _with_metrics(art: BenchArtifact, **overrides) -> BenchArtifact:
    doc = art.to_dict()
    doc = json.loads(json.dumps(doc))  # deep copy
    doc["metrics"].update(overrides)
    return BenchArtifact.from_dict(doc)


class TestCompare:
    def test_self_compare_ok(self, overlay_artifact):
        result = compare_artifacts(overlay_artifact, overlay_artifact)
        assert result.ok
        assert result.deltas and not result.failed_deltas()
        assert "[ok]" in format_comparison(result)

    def test_sim_band_is_symmetric(self, overlay_artifact):
        base = overlay_artifact
        slow = _with_metrics(
            base, **{"sim.latency_p95": base.metrics["sim.latency_p95"] * 2}
        )
        fast = _with_metrics(
            base, **{"sim.latency_p95": base.metrics["sim.latency_p95"] * 0.4}
        )
        for current in (slow, fast):
            result = compare_artifacts(current, base)
            assert not result.ok
            assert any(
                d.name == "sim.latency_p95" for d in result.failed_deltas()
            )

    def test_wall_band_is_regression_only(self, overlay_artifact):
        base = overlay_artifact
        factor = 1 + 2 * DEFAULT_WALL_TOLERANCE
        slower = _with_metrics(
            base,
            **{"wall.total_seconds": base.metrics["wall.total_seconds"] * factor},
        )
        faster = _with_metrics(
            base,
            **{"wall.total_seconds": base.metrics["wall.total_seconds"] / factor},
        )
        assert not compare_artifacts(slower, base).ok
        assert compare_artifacts(faster, base).ok  # speedups never fail

    def test_events_per_sec_fails_when_lower(self, overlay_artifact):
        base = overlay_artifact
        worse = _with_metrics(
            base,
            **{"wall.events_per_sec": base.metrics["wall.events_per_sec"] * 0.5},
        )
        result = compare_artifacts(worse, base)
        assert any(
            d.name == "wall.events_per_sec" for d in result.failed_deltas()
        )

    def test_skip_wall(self, overlay_artifact):
        base = overlay_artifact
        slower = _with_metrics(
            base, **{"wall.total_seconds": 1e6}
        )
        assert compare_artifacts(slower, base, include_wall=False).ok

    def test_fingerprint_mismatch_is_hard_failure(self, overlay_artifact):
        doc = json.loads(json.dumps(overlay_artifact.to_dict()))
        doc["config_fingerprint"] = "f" * 16
        other = BenchArtifact.from_dict(doc)
        result = compare_artifacts(other, overlay_artifact)
        assert not result.ok
        assert any("fingerprint" in f for f in result.failures)
        assert not result.deltas  # no metric diff on mismatched configs

    def test_shape_reasserted_on_current_rows(self, overlay_artifact):
        doc = json.loads(json.dumps(overlay_artifact.to_dict()))
        doc["simulated"]["root_share_overlay"] = 0.95
        doc["metrics"]["sim.root_share_overlay"] = 0.95
        broken = BenchArtifact.from_dict(doc)
        result = compare_artifacts(broken, broken)
        assert not result.ok
        assert any("root-load share" in f for f in result.shape_failures)


class TestTrajectory:
    def test_row_has_provenance_and_headline_metrics(self, overlay_artifact):
        row = trajectory_row(overlay_artifact)
        assert row["scenario"] == "overlay"
        assert row["shape_ok"] is True
        assert "sim.latency_p95" in row
        assert "wall.events_per_sec" in row
        assert not any(k.startswith("wall.section.") for k in row)

    def test_append_and_load(self, overlay_artifact, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        append_trajectory(overlay_artifact, path)
        append_trajectory(overlay_artifact, path)
        rows = load_trajectory(path)
        assert len(rows) == 2
        text = format_trajectory(rows)
        assert "overlay" in text and "p95_s" in text

    def test_load_missing_is_empty(self, tmp_path):
        assert load_trajectory(tmp_path / "nope.json") == []

    def test_load_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "BENCH_trajectory.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(ValueError, match="trajectory"):
            load_trajectory(path)
