"""Benchmark observatory: profiler, scenarios, artifacts, compare."""

import copy
import json

import pytest

from repro.bench import (
    BenchArtifact,
    DEFAULT_TOLERANCE,
    ROOT_SHARE_CEILING,
    SCALES,
    SCENARIOS,
    artifact_filename,
    available_scenarios,
    compare_artifacts,
    config_fingerprint,
    format_comparison,
    load_artifact,
    profile_scenario,
    resolve_scale,
    RunPlan,
    run_scenario,
    scale_settings,
    scale_sweeps,
    validate_artifact,
    write_artifact,
)
from repro.bench.scenarios import _canonical_block, _shared_block
from repro.experiments.config import ExperimentSettings
from repro.experiments import runner
from repro.experiments.runner import clear_trial_memo, run_trial
from repro.telemetry.profiling import (
    CallPathProfiler,
    census_fingerprint,
    flatten_document,
)


@pytest.fixture(scope="module")
def overlay_artifact():
    return run_scenario(RunPlan("overlay", scale="smoke", seed=3))


class TestProfiler:
    def test_section_accumulates(self):
        prof = CallPathProfiler()
        for _ in range(2):
            prof.enter("net.send")
            prof.exit()
        flat = flatten_document(prof.document())["net.send"]
        assert flat["calls"] == 2
        assert flat["seconds"] >= 0.0

    def test_document_is_json_without_census(self):
        prof = CallPathProfiler()
        assert prof.document()["tree"]["children"] == []
        prof.enter("query.execute")
        prof.exit()
        snap = json.loads(json.dumps(prof.document()))  # JSON-serialisable
        assert set(snap) == {"schema", "total_seconds", "tree"}
        assert snap["tree"]["children"][0]["name"] == "query.execute"
        # The event census is the network's, not the profiler's.
        assert "census" not in snap


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
        assert art.profile["census_fingerprint"]
        assert art.profile["census_kinds"]["query"] > 0
        assert art.config_fingerprint == config_fingerprint(
            scale_settings("smoke", 3)
        )

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

    def test_previous_schema_asks_for_regeneration(self, overlay_artifact):
        doc = dict(overlay_artifact.to_dict(), schema="roads.bench/1", wall={})
        (problem,) = validate_artifact(doc)
        assert "roads.bench/1" in problem
        assert "regenerate the baseline" in problem


class TestNoHostTime:
    """An artifact records what the simulation did, exactly, per seed."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_no_wall_or_share_anywhere(self, scenario):
        doc = run_scenario(RunPlan(scenario, scale="smoke", seed=2)).to_dict()
        assert "wall" not in doc
        assert set(doc["profile"]) == {"census_fingerprint", "census_kinds"}
        assert not [
            k for k in doc["metrics"]
            if k.startswith(("wall.", "profile.share."))
        ]
        assert not [
            k for row in doc["rows"] for k in row if k.startswith("wall_")
        ]

    def test_two_runs_differ_only_in_created_unix(self):
        # fig11 too: its backend is charged per record, never timed.
        for scenario in ("overlay", "fig11"):
            plan = RunPlan(scenario, scale="smoke", seed=3)
            docs = []
            for _ in range(2):
                _shared_block.cache_clear()  # two computations, not one hit
                docs.append(run_scenario(plan).to_dict())
            first, second = docs
            del first["created_unix"], second["created_unix"]
            assert first == second, scenario


class TestOneUnobservedFederation:
    """The canonical block builds one federation and arms no observer."""

    def test_no_observer_and_one_build_beyond_the_sweep(self, monkeypatch):
        from repro.roads.system import RoadsSystem
        from repro.telemetry import Telemetry

        constructed = []
        for cls in (Telemetry, CallPathProfiler):
            init = cls.__init__

            def spy(self, *args, _init=init, **kwargs):
                constructed.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", spy)
        builds = []
        build = RoadsSystem.build.__func__

        def counting(cls, *args, **kwargs):
            builds.append(kwargs.get("telemetry"))
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(RoadsSystem, "build", classmethod(counting))
        _shared_block.cache_clear()
        clear_trial_memo()
        artifact = run_scenario(RunPlan("fig3", scale="smoke"))
        assert constructed == []
        # one federation per sweep point + one for the canonical block
        sweep = len(scale_sweeps("smoke")["nodes"])
        assert len(builds) == sweep + 1
        assert len(builds) == len(artifact.rows) + 1
        assert builds == [None] * len(builds)
        # ... which the next scenario at that (scale, seed) reads back,
        # and so are fig3's trials: fig4 reads their federation facts
        del builds[:]
        run_scenario(RunPlan("fig4", scale="smoke"))
        assert builds == []
        assert constructed == []

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_shared_root_entry_arm_is_a_fresh_federations(self, seed):
        from repro.bench.scenarios import _canonical_block
        from repro.experiments.runner import (
            build_roads, build_workload, drive_queries, trial_queries,
        )
        from repro.telemetry import root_load_share

        settings = scale_settings("smoke", seed)
        block, census = _canonical_block(settings, seed)
        wcfg, stores = build_workload(settings, seed)
        trial = trial_queries(settings, wcfg, seed)
        fresh = drive_queries(
            build_roads(settings, stores, seed), *trial, use_overlay=False
        )
        assert block["root_share_no_overlay"] == root_load_share(
            fresh.metrics, fresh.hierarchy.root.server_id,
            category="query", phase="forward",
        )
        # ... and everything else was read before that arm ran: it is
        # what an overlay-only federation reports.
        overlay = drive_queries(build_roads(settings, stores, seed), *trial)
        update = overlay.refresh()
        registry = overlay.metrics
        assert block["latency"] == (
            registry.merged_histogram("query.latency").summary()
        )
        assert block["latency"]["count"] == settings.num_queries
        assert block["query_bytes_total"] == registry.bytes_total("query")
        assert block["update_bytes_epoch"] == update.total_bytes
        assert block["events_processed"] == overlay.sim.processed
        assert census == overlay.network.census
        assert "events_emitted" not in block


class TestCanonicalBlockMemo:
    """``run_scenario`` simulates the block once per (settings, seed) and
    hands every artifact its own copy; ``repro profile`` goes around it."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_memo_hit_is_a_fresh_block(self, seed):
        plan = RunPlan("overlay", scale="smoke", seed=seed)
        run_scenario(plan)
        run_scenario(plan.with_(scenario="fig4"))  # other work in between
        hits = _shared_block.cache_info().hits
        artifact = run_scenario(plan)
        assert _shared_block.cache_info().hits == hits + 1
        block, census = _canonical_block(plan.settings(), seed)
        assert artifact.simulated == block
        assert artifact.profile["census_fingerprint"] == (
            census_fingerprint(census)
        )

    def test_mutating_an_artifact_leaves_the_next_alone(self):
        plan = RunPlan("overlay", scale="smoke", seed=4)
        first = run_scenario(plan)
        expected = copy.deepcopy((first.simulated, first.profile))
        first.simulated["latency"]["p50"] = -1.0
        first.simulated["per_server_load"][0]["share"] = -1.0
        first.simulated["per_server_load"].clear()
        first.profile["census_kinds"].clear()
        second = run_scenario(plan)
        assert (second.simulated, second.profile) == expected

    def test_profile_scenario_neither_reads_nor_fills_it(self):
        _shared_block.cache_clear()
        clear_trial_memo()
        document = profile_scenario("smoke", 5)
        assert _shared_block.cache_info().currsize == 0
        assert runner._MEMO == {}  # nor the trial memo
        artifact = run_scenario(RunPlan("overlay", scale="smoke", seed=5))
        before = _shared_block.cache_info()
        assert profile_scenario("smoke", 5)["census_fingerprint"] == (
            document["census_fingerprint"]
        ) == artifact.profile["census_fingerprint"]
        assert _shared_block.cache_info() == before
        memo = dict(runner._MEMO)
        profile_scenario("smoke", 5)
        assert runner._MEMO == memo


class TestBlockIsTheTrialContinued:
    """The canonical block is the scale's own ROADS trial, continued: it
    memoises that trial, so a figure with the block's node count among
    its points builds one ROADS federation fewer and prints the same."""

    @staticmethod
    def count_builds(monkeypatch) -> list:
        from repro.roads.system import RoadsSystem

        builds, build = [], RoadsSystem.build.__func__

        def counting(cls, *args, **kwargs):
            builds.append(kwargs.get("telemetry"))
            return build(cls, *args, **kwargs)

        monkeypatch.setattr(RoadsSystem, "build", classmethod(counting))
        return builds

    def test_fig3_reads_the_blocks_trial(self, monkeypatch):
        # the smoke block has 48 nodes, so it is this sweep's last point
        plan = RunPlan("fig3", scale="smoke", sweeps={"nodes": (32, 48)})
        builds = self.count_builds(monkeypatch)
        _shared_block.cache_clear()
        clear_trial_memo()
        artifact = run_scenario(plan)
        assert len(builds) == 2  # 32 nodes and the block; 3 when apart
        # ... and the same artifact as the block and the rows, apart
        block, census = _canonical_block(plan.settings(), plan.seed)
        clear_trial_memo()
        assert artifact.rows == plan.rows()
        assert artifact.simulated == block
        assert artifact.profile["census_fingerprint"] == (
            census_fingerprint(census)
        )

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_memoised_trial_is_a_cold_one(self, monkeypatch, seed):
        settings = scale_settings("smoke", seed)
        cold = []
        for stream in (True, False):  # stream stats, then facts alone
            clear_trial_memo()
            cold.append(repr(run_trial(
                settings, seed, include_sword=False, stream=stream
            )))
        clear_trial_memo()
        _canonical_block(settings, seed)
        builds = self.count_builds(monkeypatch)
        # repr, since a facts-only latency is NaN: equal to the last bit
        assert [
            repr(run_trial(settings, seed, include_sword=False, stream=stream))
            for stream in (True, False)
        ] == cold
        assert builds == []


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

    def test_reload_compares_at_zero_delta(self, overlay_artifact, tmp_path):
        path = write_artifact(overlay_artifact, tmp_path / "BENCH_overlay.json")
        result = compare_artifacts(load_artifact(path), overlay_artifact)
        assert result.ok and result.deltas
        assert {d.row()["change"] for d in result.deltas} == {"+0.0%"}

    def test_quality_metrics_ride_the_one_tolerance(self, overlay_artifact):
        quality = {
            "rows.quality_fp.mean": 100.0,
            "rows.quality_precision.mean": 0.5,
        }
        base = _with_metrics(overlay_artifact, **quality)
        factor = 1 + 2 * DEFAULT_TOLERANCE
        for name, value in quality.items():
            up = _with_metrics(base, **{name: value * factor})
            down = _with_metrics(base, **{name: value / factor})
            worse, better = (
                (down, up) if "precision" in name else (up, down)
            )
            result = compare_artifacts(worse, base)
            assert [d.name for d in result.failed_deltas()] == [name]
            # Regression-only: a strictly more accurate answer passes.
            assert compare_artifacts(better, base).ok

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

