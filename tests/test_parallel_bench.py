"""RunPlan façade, legacy shims, and the parallel sweep runner.

Covers the canonical-run-API contract: a frozen :class:`RunPlan` is the
one way to describe a run, the legacy positional signatures are
rejected, and fanning a sweep across a process pool changes nothing but
the artifacts' ``created_unix`` stamp.
"""

import warnings

import pytest

from repro.bench import (
    RunPlan,
    run_plans,
    run_scenario,
    stress_shard_rows,
)
from repro.bench.parallel import resolve_workers, shard_settings
from repro.bench.scenarios import _shared_block
from repro.cli import build_parser
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import clear_trial_memo


class TestRunPlan:
    def test_frozen_and_defaulted(self):
        plan = RunPlan("overlay")
        assert plan.scale == "quick"
        assert plan.seed == 1
        assert plan.workers == 1
        with pytest.raises(Exception):
            plan.seed = 2

    def test_with_returns_new_plan(self):
        plan = RunPlan("overlay", scale="smoke")
        other = plan.with_(seed=9, workers=0)
        assert (other.seed, other.workers) == (9, 0)
        assert plan.seed == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RunPlan("no_such_scenario")
        with pytest.raises(ValueError):
            RunPlan("overlay", scale="galactic")
        with pytest.raises(ValueError):
            RunPlan("overlay", seed=True)
        with pytest.raises(ValueError, match="^seed must be an int >= 0"):
            RunPlan("fig3", seed=-1)
        with pytest.raises(ValueError):
            RunPlan("overlay", workers=-1)

    @pytest.mark.parametrize("scenario, key", [
        ("fig6", "dims"), ("fig8", "records"), ("fig3", "nodes"),
    ])
    def test_empty_sweep_refused(self, scenario, key):
        with pytest.raises(ValueError, match=rf"sweeps\['{key}'\] is empty"):
            RunPlan(scenario, scale="smoke", sweeps={key: ()})
        with pytest.raises(ValueError, match=key):
            RunPlan(scenario, scale="smoke", sweeps={key: []})

    def test_only_overlay_reads_the_blocks_rows(self, monkeypatch):
        # A figure that returns no rows has no rows in its artifact: it
        # never borrows the canonical block's per-server load rows,
        # which only ``overlay`` reports.
        import dataclasses

        from repro.bench import SCENARIOS

        overlay = run_scenario(RunPlan("overlay", scale="smoke"))
        assert overlay.rows == overlay.simulated["per_server_load"]
        monkeypatch.setitem(
            SCENARIOS, "fig6",
            dataclasses.replace(SCENARIOS["fig6"], driver=lambda s, sw: []),
        )
        assert run_scenario(RunPlan("fig6", scale="smoke")).rows == []

    def test_resolved_sweeps_merges_overrides(self):
        plan = RunPlan(
            "overlay", scale="smoke", workers=3, sweeps={"dims": (4,)}
        )
        sweeps = plan.resolved_sweeps()
        assert sweeps["dims"] == (4,)
        assert sweeps["workers"] == 3


class TestLegacyShims:
    def test_plan_plus_legacy_args_rejected(self):
        with pytest.raises(TypeError):
            run_scenario(RunPlan("overlay", scale="smoke"), "smoke")

    def test_non_plan_non_name_rejected(self):
        with pytest.raises(TypeError):
            run_scenario(42)
        with pytest.raises(TypeError, match="RunPlan"):
            run_scenario("fig8")

    def test_canonical_call_is_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_scenario(RunPlan("fig8", scale="smoke", seed=2))


class TestParallelRunner:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(0) >= 1
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError):
            resolve_workers(-2)

    def test_run_plans_pool_matches_serial(self):
        plans = [RunPlan("fig8", scale="smoke", seed=seed) for seed in (2, 5)]
        serial = run_plans(plans, workers=1)
        # A forked worker inherits this process's memos: empty them so
        # the pool simulates its canonical blocks and trials itself.
        _shared_block.cache_clear()
        clear_trial_memo()
        pooled = run_plans(plans, workers=2)

        def stampless(artifact):
            doc = artifact.to_dict()
            del doc["created_unix"]
            return doc

        assert [stampless(a) for a in serial] == [stampless(a) for a in pooled]

    def test_run_plans_rejects_non_plans(self):
        with pytest.raises(TypeError):
            run_plans(["overlay"], workers=1)


class TestStressSharding:
    @pytest.fixture(scope="class")
    def settings(self):
        return ExperimentSettings(
            num_nodes=30,
            records_per_node=4,
            num_queries=4,
            runs=1,
            histogram_buckets=20,
            seed=3,
        )

    def test_shard_settings_partitions_seeds(self, settings):
        seeds = {shard_settings(settings, s).seed for s in range(4)}
        assert len(seeds) == 4

    def test_shard_rows_deterministic_across_workers(self, settings):
        sweeps = {"shards": 2, "shard_queries": 2}
        serial = stress_shard_rows(settings, {**sweeps, "workers": 1})
        pooled = stress_shard_rows(settings, {**sweeps, "workers": 2})
        assert serial == pooled
        assert [row["shard"] for row in serial] == [0, 1]
        assert all(row["latency_mean_s"] > 0 for row in serial)
        assert all(row["update_bytes_epoch"] > 0 for row in serial)


class TestSharedCliFlags:
    @pytest.fixture()
    def parser(self):
        return build_parser()

    # Each verb paired with the shared flags it reads, as set below.
    @pytest.mark.parametrize(
        "verb",
        [
            (["bench", "run", "overlay"],
             {"scale": "smoke", "seed": 7, "out": "x", "json": "j"}),
            (["figure", "fig3"], {"scale": "smoke", "seed": 7}),
            (["trace", "events.jsonl"], {"json": "j"}),
            (["watch"], {"seed": 7, "json": "j"}),
            (["postmortem", "pm.json"], {"json": "j"}),
        ],
    )
    def test_common_flags_parse_everywhere(self, parser, verb):
        command, flags = verb
        argv = [
            arg for name, value in flags.items()
            for arg in (f"--{name}", str(value))
        ]
        args = vars(parser.parse_args(command + argv))
        assert {name: args[name] for name in flags} == flags

    def test_bare_json_means_stdout(self, parser):
        args = parser.parse_args(["postmortem", "pm.json", "--json"])
        assert args.json == "-"
        args = parser.parse_args(
            ["bench", "run", "overlay", "--json", "p.json"]
        )
        assert args.json == "p.json"

    def test_bench_run_parallel_flag(self, parser):
        args = parser.parse_args(["bench", "run", "overlay", "fig8"])
        assert args.scenario == ["overlay", "fig8"]
        assert args.parallel is None
        args = parser.parse_args(["bench", "run", "stress", "--parallel"])
        assert args.parallel == 0  # 0 = one worker per core
        args = parser.parse_args(
            ["bench", "run", "stress", "--parallel", "4"]
        )
        assert args.parallel == 4

    def test_stress_scale_exposed(self, parser):
        args = parser.parse_args(
            ["bench", "run", "stress", "--scale", "stress"]
        )
        assert args.scale == "stress"
