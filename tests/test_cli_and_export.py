"""Tests for the CLI (repro.cli) and row export (experiments.export)."""

import csv
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.experiments.export import save_rows_csv, save_rows_json


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestExportCSV:
    def test_roundtrip(self, tmp_path):
        rows = [
            {"nodes": 64, "latency_ms": 222.5, "name": "roads"},
            {"nodes": 128, "latency_ms": 300.0, "name": "sword"},
        ]
        path = save_rows_csv(rows, tmp_path / "rows.csv")
        back = read_csv(path)
        assert back == [{k: str(v) for k, v in r.items()} for r in rows]

    def test_union_of_columns(self, tmp_path):
        rows = [{"a": 1}, {"a": 2, "b": 3}]
        back = read_csv(save_rows_csv(rows, tmp_path / "r.csv"))
        assert back[0]["a"] == "1" and back[0]["b"] == ""
        assert back[1]["b"] == "3"

    def test_empty(self, tmp_path):
        path = save_rows_csv([], tmp_path / "empty.csv")
        assert path.read_text() == ""


class TestExportJSON:
    def test_roundtrip_with_meta(self, tmp_path):
        rows = [{"x": 1}]
        path = save_rows_json(
            rows, tmp_path / "doc.json", meta={"figure": "fig3", "seed": 1}
        )
        doc = json.loads(path.read_text())
        assert doc["rows"] == rows
        assert doc["meta"]["figure"] == "fig3"

    def test_valid_json_on_disk(self, tmp_path):
        path = save_rows_json([{"x": 1}], tmp_path / "d.json")
        json.loads(path.read_text())


class TestCLI:
    def test_parser_commands(self):
        parser = build_parser()
        args = parser.parse_args(["selftest", "--seed", "3"])
        assert args.command == "selftest" and args.seed == 3
        args = parser.parse_args(["figure", "fig3"])
        assert args.target == "fig3"

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out

    def test_figure_with_csv_output(self, tmp_path, capsys):
        out_path = tmp_path / "t1.csv"
        rc = main([
            "figure", "table1", "--scale", "smoke", "--output", str(out_path),
        ])
        assert rc == 0
        rows = read_csv(out_path)
        # analytical + measured rows present
        assert {"formula_units", "mean_bytes_per_server"} <= set(rows[0])
        out = capsys.readouterr().out
        assert "table1 (smoke scale)" in out
        # ... and both halves of the stacked table are printed
        assert "formula_units" in out and "mean_bytes_per_server" in out

    def test_figure_takes_the_shared_scale_and_seed(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "fig9"])
        assert (args.scale, args.seed) == ("quick", 1)
        for removed in ("--queries", "--runs"):
            with pytest.raises(SystemExit):
                parser.parse_args(["figure", "fig9", removed, "5"])


class TestOneScenarioRegistry:
    """`repro figure`, `run_suite` and `bench run` resolve a target
    through `bench.SCENARIOS` + `scale_settings` + `scale_sweeps`: one
    spelling of what "quick" or "smoke" means, so one set of rows."""

    SEED = 3

    @pytest.fixture(scope="class")
    def suite(self, tmp_path_factory):
        from repro.experiments import run_suite

        out = tmp_path_factory.mktemp("suite")
        return out, run_suite(
            out, scale="smoke", seed=self.SEED, progress=None
        )

    def test_targets_are_the_registrys_paper_scenarios(self, suite):
        from repro.bench import SCENARIOS
        from repro.experiments import available_targets

        targets = available_targets()
        assert targets == ["table1"] + [f"fig{n}" for n in range(3, 12)]
        assert set(targets) <= set(SCENARIOS)
        assert list(suite[1]) == targets  # the suite's default

    @pytest.mark.parametrize(
        "target", ["table1"] + [f"fig{n}" for n in range(3, 12)]
    )
    def test_figure_and_suite_print_the_registry_rows(
        self, target, suite, capsys
    ):
        from repro.bench import SCENARIOS, scale_settings, scale_sweeps
        from repro.experiments import format_table

        rows = SCENARIOS[target].driver(
            scale_settings("smoke", self.SEED), scale_sweeps("smoke")
        )
        assert rows
        rc = main([
            "figure", target, "--scale", "smoke", "--seed", str(self.SEED),
        ])
        assert rc == 0
        assert capsys.readouterr().out == (
            format_table(rows, title=f"{target} (smoke scale)") + "\n"
        )
        out, results = suite
        assert results[target] == rows
        doc = json.loads((out / f"{target}.json").read_text())
        assert doc["rows"] == rows


class TestSuite:
    def test_run_suite_smoke(self, tmp_path):
        from repro.experiments import run_suite

        results = run_suite(
            tmp_path / "res",
            targets=["table1", "fig10"],
            scale="smoke",
            progress=None,
        )
        assert set(results) == {"table1", "fig10"}
        assert (tmp_path / "res" / "fig10.csv").exists()
        assert (tmp_path / "res" / "fig10.json").exists()
        summary = (tmp_path / "res" / "SUMMARY.md").read_text()
        assert "fig10" in summary and "table1" in summary

    def test_unknown_target_rejected(self, tmp_path):
        from repro.experiments import run_suite

        with pytest.raises(ValueError, match="unknown targets"):
            run_suite(tmp_path, targets=["fig99"], progress=None)
        with pytest.raises(ValueError, match="unknown scale"):
            run_suite(tmp_path / "never", scale="huge", progress=None)
        assert not (tmp_path / "never").exists()

    def test_available_targets(self):
        from repro.experiments import available_targets

        targets = available_targets()
        assert "fig3" in targets and "fig11" in targets
        assert "table1" in targets
        # The registry's planes and stress sweep are bench scenarios,
        # not paper figures.
        assert "stress" not in targets and "load_plane" not in targets

    def test_cli_suite_subcommand(self, tmp_path, capsys):
        rc = main([
            "suite", "--out", str(tmp_path / "r"), "--scale", "smoke",
            "--targets", "table1",
        ])
        assert rc == 0
        assert (tmp_path / "r" / "SUMMARY.md").exists()


class TestBenchCLI:
    """`repro bench run/compare` end-to-end in a tmp dir."""

    @pytest.fixture(scope="class")
    def bench_dir(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("bench")
        rc = main([
            "bench", "run", "overlay", "--scale", "smoke",
            "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        return out

    def test_run_writes_schema_valid_artifact(self, bench_dir):
        from repro.bench import load_artifact

        path = bench_dir / "BENCH_overlay.json"
        doc = json.loads(path.read_text())
        art = load_artifact(path)
        assert art.scenario == "overlay" and art.scale == "smoke"
        assert art.metrics["sim.latency_p95"] > 0
        assert art.profile["census_fingerprint"]  # always stamped
        assert "wall" not in doc
        assert art.ok

    def test_run_exits_1_on_a_shape_violation(
        self, tmp_path, monkeypatch, capsys
    ):
        """A violated validator fails the verb, but only after every
        artifact of the run is written."""
        from dataclasses import replace

        from repro.bench import SCENARIOS, load_artifact

        monkeypatch.setitem(SCENARIOS, "fig10", replace(
            SCENARIOS["fig10"], shape=lambda rows: ["fig10 flattened"],
        ))
        rc = main([
            "bench", "run", "fig10", "overlay", "--scale", "smoke",
            "--seed", "7", "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "shape violation: fig10 flattened" in capsys.readouterr().out
        assert not load_artifact(tmp_path / "BENCH_fig10.json").ok
        assert load_artifact(tmp_path / "BENCH_overlay.json").ok

    def test_compare_clean_rerun_exits_zero(self, bench_dir, capsys):
        rc = main([
            "bench", "compare", str(bench_dir / "BENCH_overlay.json"),
            "--baseline", str(bench_dir / "BENCH_overlay.json"),
        ])
        assert rc == 0
        assert "[ok] overlay" in capsys.readouterr().out

    def test_compare_flags_injected_latency_regression(
        self, bench_dir, tmp_path, capsys
    ):
        doc = json.loads((bench_dir / "BENCH_overlay.json").read_text())
        for key in ("sim.latency_p50", "sim.latency_p95"):
            doc["metrics"][key] *= 2.0
        bad = tmp_path / "BENCH_overlay.json"
        bad.write_text(json.dumps(doc))
        rc = main([
            "bench", "compare", str(bad),
            "--baseline", str(bench_dir / "BENCH_overlay.json"),
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "sim.latency_p95" in out and "FAIL" in out

    def test_compare_rejects_fingerprint_mismatch(
        self, bench_dir, tmp_path, capsys
    ):
        doc = json.loads((bench_dir / "BENCH_overlay.json").read_text())
        doc["config_fingerprint"] = "0" * 16
        other = tmp_path / "BENCH_overlay.json"
        other.write_text(json.dumps(doc))
        rc = main([
            "bench", "compare", str(other),
            "--baseline", str(bench_dir / "BENCH_overlay.json"),
        ])
        assert rc == 1
        assert "fingerprint mismatch" in capsys.readouterr().out

    @pytest.mark.parametrize("side", ["current", "baseline"])
    @pytest.mark.parametrize(
        "content, reason",
        [
            (None, "No such file"),
            ("{not json", "Expecting"),
            ('{"schema": "roads.bench/1"}', "regenerate the baseline"),
            ('{"schema": "roads.bench/2"}', "'scenario' is missing"),
        ],
    )
    def test_compare_unloadable_file_exits_2(
        self, bench_dir, tmp_path, capsys, side, content, reason
    ):
        good = str(bench_dir / "BENCH_overlay.json")
        bad = tmp_path / "BENCH_bad.json"
        if content is not None:
            bad.write_text(content)
        current, baseline = (
            (str(bad), good) if side == "current" else (good, str(bad))
        )
        rc = main(["bench", "compare", current, "--baseline", baseline])
        assert rc == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"{bad}: ") and reason in line

    @pytest.mark.parametrize(
        "name, column",
        [("fig3", "roads_latency_ms"), ("load_plane", "use_overlay")],
    )
    def test_compare_row_missing_a_column_exits_2(
        self, tmp_path, capsys, name, column
    ):
        """A row the validator cannot read is one line naming the row and
        column, not a ``KeyError`` traceback (fig3's validator reads
        columns through a helper, load_plane's by subscript)."""
        baseline = (
            Path(__file__).resolve().parents[1]
            / "benchmarks" / "baselines" / f"BENCH_{name}.json"
        )
        doc = json.loads(baseline.read_text())
        doc["rows"] = [{}]
        bad = tmp_path / f"BENCH_{name}.json"
        bad.write_text(json.dumps(doc))
        rc = main(["bench", "compare", str(bad), "--baseline", str(baseline)])
        assert rc == 2
        assert capsys.readouterr().out.splitlines() == [
            f"{bad}: rows[0]: missing column {column!r}"
        ]

    def test_bench_list(self, capsys):
        rc = main(["bench", "list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "overlay" in out
        assert "quality_plane" in out
        assert "trace_deep_dive" not in out and "series_overhead" not in out


class TestTraceCLI:
    """`repro trace` reconstructs causal trees from an event artifact."""

    @pytest.fixture(scope="class")
    def artifact(self, tmp_path_factory):
        # One run, both of its event documents: the JSONL `trace` reads
        # and the Chrome trace_event file beside it.
        out = tmp_path_factory.mktemp("trace")
        jsonl = out / "events.jsonl"
        rc = main([
            "telemetry", "--nodes", "16", "--records", "30",
            "--queries", "6", "--seed", "3",
            "--export-jsonl", str(jsonl),
            "--export-chrome", str(out / "chrome.json"),
        ])
        assert rc == 0
        return jsonl

    def test_list_traces(self, artifact, capsys):
        rc = main(["trace", str(artifact), "--list"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "traces in" in out and "nodes" in out

    def test_render_largest_tree_with_critical_path(self, artifact, capsys):
        rc = main(["trace", str(artifact)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "root(s)" in out
        assert "critical path:" in out
        assert "wire" in out and "processing" in out

    def test_chrome_export(self, artifact):
        # The Chrome document draws each cross-server hop as a flow
        # arrow, and holds what the JSONL holds.
        from repro.telemetry import chrome_trace
        from repro.telemetry.export import read_jsonl

        doc = json.loads((artifact.parent / "chrome.json").read_text())
        assert any(e["ph"] == "s" for e in doc["traceEvents"])
        assert doc == json.loads(json.dumps(chrome_trace(read_jsonl(artifact))))

    def test_unknown_trace_id(self, artifact, capsys):
        rc = main(["trace", str(artifact), "--trace-id", "999999999"])
        assert rc == 1
        assert "not found" in capsys.readouterr().out

    def test_artifact_without_traces(self, tmp_path, capsys):
        empty = tmp_path / "events.jsonl"
        empty.write_text(
            '{"ts": 0.0, "name": "plain", "kind": "event", "dur": 0.0, '
            '"span_id": 0, "parent_id": 0, "tags": {}}\n'
        )
        rc = main(["trace", str(empty)])
        assert rc == 1
        assert "no causally-tagged events" in capsys.readouterr().out

    def test_diff_critical_paths(self, artifact, capsys):
        from repro.telemetry import assemble_traces, critical_path
        from repro.telemetry.export import read_jsonl

        trees = assemble_traces(read_jsonl(str(artifact)))
        ids = [
            tid for tid, tree in sorted(trees.items())
            if critical_path(tree).segments
        ]
        assert len(ids) >= 2, "artifact has too few traced searches"
        rc = main([
            "trace", str(artifact), "--diff", str(ids[0]), str(ids[1]),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"trace {ids[0]}" in out and f"trace {ids[1]}" in out
        assert "delta" in out
        for category in ("wire", "queue", "service", "processing"):
            assert category in out

    def test_diff_unknown_trace(self, artifact, capsys):
        rc = main([
            "trace", str(artifact), "--diff", "999999998", "999999999",
        ])
        assert rc == 1
        assert "not found" in capsys.readouterr().out


class TestHealthCLI:
    """`repro health` builds a small sim and judges it against SLOs."""

    def test_healthy_run_exits_zero(self, tmp_path, capsys):
        report = tmp_path / "health.json"
        rc = main([
            "health", "--nodes", "12", "--records", "20",
            "--queries", "10", "--rate", "10", "--duration", "2",
            "--json", str(report),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "federation HEALTHY" in out
        doc = json.loads(report.read_text())
        assert doc["healthy"] is True
        assert {c["name"] for c in doc["checks"]} >= {
            "staleness", "coverage", "shedding", "loss"
        }
        # The keys the report carried when a tick was a HealthSample.
        assert set(doc["last_sample"]) == {
            "t", "queue_depth_total", "queue_depth_max", "sent",
            "delivered", "lost", "dropped", "shed", "pending",
            "summary_entries", "summary_age_mean", "summary_age_max",
            "stale_fraction", "coverage", "precision", "recall",
        }


class TestLoadedFederationOutput:
    """`health`, `watch` and `quality` are one run with three printers;
    what each prints for fixed arguments is pinned byte for byte
    (sha256 of stdout). The `health` and `quality` digests were recorded
    before the three builders were merged. `watch` was re-recorded when
    the probe became a judge over the sampler's tick: two more gauges
    (`overlay.coverage`, `service.depth_max`), `sim.pending` one lower
    (the probe's own periodic event is gone) and the breach lines of a
    0.25 s judge. All five pins were re-recorded once more when a
    keep-alive a receiver cannot apply became a `summary-nack`: this run
    loses 10 % of its messages, the NACKs repair the lost fulls
    (`overlay.coverage` 0.858 -> 1.0, one more `dispatch.summary-nack`
    series) and draw from the loss stream, so every later loss moved."""

    ARGS = [
        "--nodes", "16", "--records", "20", "--queries", "10",
        "--rate", "20", "--duration", "2", "--seed", "4",
        "--loss", "0.1", "--interval", "1.0",
    ]

    @pytest.mark.parametrize(
        "verb, rc, digest",
        [
            ("health", 1, "daa241d1016fdb660160ed80ceda011d"
                          "ea1d1ba2a8cc7bd120f217aba916a605"),
            ("watch", 0, "8528cab094c5a997b7ba42cdd798bd3b"
                         "a07243916446487ba1d25d71e7d73143"),
            ("quality", 0, "4d784cb55e8b997fb6b21b931651e8ae"
                           "760dc969d61e45afd1bcce8abd3b1de5"),
        ],
    )
    def test_output_is_pinned(self, verb, rc, digest, capsys):
        import hashlib

        assert main([verb] + self.ARGS) == rc
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out

    def test_watch_json_is_pinned(self, capsys):
        # Every ring's points, per-server gauges included. Re-recorded
        # when the rollup tier went and the rows were grouped per gauge:
        # the raw rows of the previous pin, regrouped, equal it.
        import hashlib

        assert main(["watch"] + self.ARGS + ["--json", "-"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "f11319b29afa9c3dd327db7604767646"
            "7fcefc26c0b2a6eafb59f9497fb9357a"
        )

    @pytest.fixture(scope="class")
    def first_bundle(self, tmp_path_factory):
        pm = tmp_path_factory.mktemp("pm")
        assert main(["watch"] + self.ARGS + ["--postmortem-dir", str(pm)]) == 0
        return sorted(pm.glob("postmortem_*.json"))[0]

    def test_first_postmortem_bundle_is_pinned(self, first_bundle):
        # The bundle re-serialised with sorted keys, so the digest does
        # not depend on where it was written; query ids come from a
        # process-wide counter, so they depend on the tests run before.
        # Re-recorded at schema 2: the stored trace trees (a second copy
        # of ring events) and the series rollups are gone; the rest of
        # the previous pin's document is this one.
        import hashlib

        first = first_bundle
        bundle = json.loads(
            first.read_text(),
            object_hook=lambda d: {k: v for k, v in d.items() if k != "query_id"},
        )
        doc = json.dumps(bundle, sort_keys=True)
        assert first.name == "postmortem_001_slo-coverage.json"
        assert hashlib.sha256(doc.encode("utf-8")).hexdigest() == (
            "5431d4600e12112d89a969f5fd8daa21"
            "3f999b90c550a242cc531cfa557d398e"
        )

    def test_first_postmortem_rendering_is_pinned(self, first_bundle, capsys):
        # What `repro postmortem` prints for that bundle, its path masked.
        import hashlib

        capsys.readouterr()
        assert main(["postmortem", str(first_bundle)]) == 0
        out = capsys.readouterr().out.replace(str(first_bundle), "BUNDLE")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "daf09e817ee88b905b2b5630c27c69f8"
            "14a1a9560b987fb9164f4702c1b0e6d7"
        ), out


class TestLoadVerbOptions:
    """The nine federation/load options are declared once and read the
    same under all three verbs."""

    SHARED = {
        "nodes": 32, "records": 40, "queries": 30, "rate": 20.0,
        "duration": 5.0, "loss": 0.0, "interval": 5.0,
        "service_time": 0.002, "queue_limit": 64,
    }

    @pytest.mark.parametrize("verb", ["health", "watch", "quality"])
    def test_defaults_and_overrides(self, verb):
        parser = build_parser()
        args = vars(parser.parse_args([verb]))
        assert {k: args[k] for k in self.SHARED} == self.SHARED
        assert args["seed"] == 1
        args = parser.parse_args(
            [verb, "--loss", "0.2", "--queue-limit", "8", "--seed", "9"]
        )
        assert (args.loss, args.queue_limit, args.seed) == (0.2, 8, 9)

    def test_watch_judges_on_the_sampling_cadence(self):
        # One cadence: the probe has no interval of its own.
        parser = build_parser()
        assert parser.parse_args(["watch"]).sample_interval == 0.25
        with pytest.raises(SystemExit):
            parser.parse_args(["watch", "--probe-interval", "0.5"])
        assert parser.parse_args(["health"]).probe_interval == 0.5


class TestUnwritableExports:
    """Every file the CLI writes: an unwritable target is one
    ``PATH: reason`` line and exit status 2, never a traceback."""

    SMALL = ["--nodes", "8", "--records", "10", "--queries", "3"]
    LOAD = SMALL + ["--rate", "10", "--duration", "1"]

    @pytest.fixture(scope="class")
    def events(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("events") / "events.jsonl"
        assert main(
            ["telemetry"] + self.SMALL + ["--export-jsonl", str(path)]
        ) == 0
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ["health"] + LOAD + ["--json", "BAD"],
            ["watch"] + LOAD + ["--json", "BAD"],
            ["watch"] + LOAD + ["--loss", "0.4", "--postmortem-dir", "BAD"],
            ["quality"] + LOAD + ["--json", "BAD"],
            ["telemetry"] + SMALL + ["--export-jsonl", "BAD"],
            ["telemetry"] + SMALL + ["--export-chrome", "BAD"],
            ["telemetry"] + SMALL + ["--json", "BAD"],
            ["trace", "EVENTS", "--json", "BAD"],
            ["figure", "fig9", "--scale", "smoke", "--output", "BAD"],
            ["bench", "run", "table1", "--scale", "smoke", "--out", "BAD"],
            ["suite", "--scale", "smoke", "--targets", "fig9", "--out", "BAD"],
        ],
        ids=lambda argv: f"{argv[0]} {argv[argv.index('BAD') - 1]}",
    )
    def test_one_line_and_exit_2(self, argv, events, tmp_path, capsys):
        # A regular file where a directory is needed: nothing can be
        # created at or under it, whoever runs the tests.
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        bad = str(blocker / "sub" / "out.json")
        argv = [
            bad if a == "BAD" else events if a == "EVENTS" else a
            for a in argv
        ]
        assert main(argv) == 2
        last = capsys.readouterr().out.rstrip("\n").rsplit("\n", 1)[-1]
        path, _, reason = last.partition(": ")
        assert path.startswith(str(blocker)) and reason
        assert "Traceback" not in last

    def test_unreadable_input_is_one_line_too(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["trace", str(missing)]) == 2
        assert capsys.readouterr().out.startswith(f"{missing}: ")


class TestOutOfRangeInputs:
    """A value the configs reject is one ``repro <verb>: message`` line
    and exit status 2, never a traceback: the configs keep the rules,
    ``main`` only reports them."""

    CASES = [
        (["health", "--nodes", "0"], "num_nodes"),
        (["health", "--loss", "1.5"], "loss_rate"),
        (["health", "--rate", "0"], "rate"),
        (["health", "--interval", "0"], "interval"),
        (["health", "--probe-interval", "-1"], "interval"),
        (["watch", "--sample-interval", "0"], "interval"),
        # nan passes an `x <= 0` check: the rate used to hang the draw,
        # the others to fail later with a SimulationError traceback
        (["health", "--rate", "nan"], "rate"),
        (["health", "--interval", "nan"], "interval"),
        (["health", "--probe-interval", "nan"], "interval"),
        (["watch", "--sample-interval", "nan"], "interval"),
        (["health", "--service-time", "nan"], "service_time"),
        (["telemetry", "--nodes", "1"], "num_nodes"),
        (["suite", "--targets", "fig99"], "fig99"),
        (["figure", "fig3", "--seed", "-1"], "seed must be an int >= 0"),
    ]

    @pytest.mark.parametrize(
        "argv, reason", CASES, ids=[" ".join(argv) for argv, _ in CASES]
    )
    def test_one_line_and_exit_2(self, argv, reason, tmp_path, capsys):
        if argv[0] == "suite":
            argv = argv + ["--out", str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        (line,) = captured.out.splitlines()
        assert line.startswith(f"repro {argv[0]}: ") and reason in line
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("argv", [
        ["telemetry", "--top", "-2"],
        ["quality", "--top", "-1"],
        ["trace", "events.jsonl", "--max-nodes", "-5"],
        ["postmortem", "pm", "--max-nodes", "0"],
        ["quality", "--top", "ten"],
    ], ids=lambda argv: " ".join(argv))
    def test_counts_below_one_are_refused(self, argv, capsys):
        # A negative cap used to slice rows off the end of a table.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        flag = argv[-2]
        assert f"argument {flag}: must be an integer >= 1" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("line, reason", [
        ('{"a": 1}', "'ts' is missing"),
        ('{"ts": "abc", "name": "x"}', "'ts' is not a number"),
        ("[1]", "not an object"),
    ], ids=["no ts", "ts not a number", "not an object"])
    def test_malformed_trace_artifact_names_path_and_line(
        self, line, reason, tmp_path, capsys
    ):
        artifact = tmp_path / "events.jsonl"
        artifact.write_text(line + "\n")
        assert main(["trace", str(artifact)]) == 2
        captured = capsys.readouterr()
        (printed,) = captured.out.splitlines()
        assert printed.startswith(f"{artifact}: line 1: ") and reason in printed
        assert "Traceback" not in captured.out + captured.err


class TestNoSilentWrongAnswer:
    """Inputs that once printed a plausible answer to a question nobody
    asked: a dashboard of no gauge, a CSV of every gauge, a run of one
    query for ``--queries 0`` and latency percentiles over no query."""

    LOAD = ["--nodes", "8", "--records", "10", "--rate", "10",
            "--duration", "1", "--seed", "4"]

    def _csv_metrics(out):
        rows = out.splitlines()
        start = rows.index("metric,server,t,value") + 1
        return {row.split(",")[0] for row in rows[start:] if "," in row}

    CASES = [
        (["watch", "--metrics", "nosuch"] + LOAD, 2,
         lambda out: "repro watch: unknown metric(s) nosuch; the "
                     "federation-wide gauges are " in out
                     and "net.sent" in out),
        (["watch", "--format", "csv", "--metrics", "net.sent",
          "sim.pending"] + LOAD, 0,
         lambda out: TestNoSilentWrongAnswer._csv_metrics(out)
                     == {"net.sent", "sim.pending"}),
        (["health", "--queries", "0"] + LOAD, 2, None),
        (["watch", "--queries", "0"] + LOAD, 2, None),
        (["quality", "--queries", "0"] + LOAD, 2, None),
        (["telemetry", "--queries", "0"], 2, None),
    ]

    @pytest.mark.parametrize(
        "argv, rc, check", CASES, ids=[" ".join(c[0][:3]) for c in CASES],
    )
    def test_refused_or_answered_as_asked(self, argv, rc, check, capsys):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse's usage error
            status = exc.code
        captured = capsys.readouterr()
        assert status == rc
        if check is None:
            assert "argument --queries: must be an integer >= 1" in captured.err
        else:
            assert check(captured.out), captured.out
        assert "Traceback" not in captured.out + captured.err


class TestWatchCLI:
    """`repro watch` runs a federation with the full observability
    stack armed: series sampler, SLO probe, flight recorder."""

    def _run(self, extra):
        return main([
            "watch", "--nodes", "16", "--records", "20",
            "--queries", "10", "--rate", "20", "--duration", "2",
            "--seed", "4",
        ] + extra)

    def test_sparkline_dashboard(self, capsys):
        rc = self._run([])
        assert rc == 0
        out = capsys.readouterr().out
        assert "samples over" in out
        assert "net.sent" in out and "sim.pending" in out
        assert "postmortems captured:" in out

    def test_csv_format_and_jsonl_export(self, tmp_path, capsys):
        exported = tmp_path / "series.json"
        rc = self._run(["--format", "csv", "--json", str(exported)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "metric,server,t,value" in out
        gauges = json.loads(exported.read_text())
        assert gauges and set(gauges[0]) == {"name", "server", "raw"}

    def test_lossy_run_breaches_and_dumps_postmortems(
        self, tmp_path, capsys
    ):
        pm = tmp_path / "pm"
        rc = self._run([
            "--loss", "0.25", "--queue-limit", "8",
            "--service-time", "0.004", "--postmortem-dir", str(pm),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SLO breaches:" in out and "loss" in out
        assert "postmortem bundle written to" in out
        files = sorted(pm.glob("postmortem_*.json"))
        assert files
        # The companion verb renders what the recorder dumped.
        rc = main(["postmortem", str(pm)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "postmortem: slo:" in out
        assert "overlapping causal traces:" in out


MALFORMED = "malformed postmortem bundle: "
#: a failing check as ``HealthCheck.to_dict`` writes it
CHECK = {"name": "loss", "ok": False, "value": 0.2, "threshold": 0.1, "detail": ""}


class TestPostmortemCLI:
    def test_empty_dir_exits_nonzero(self, tmp_path, capsys):
        rc = main(["postmortem", str(tmp_path)])
        assert rc == 1
        assert "no postmortem bundles" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("{not json", "Expecting property name"),
            ("[1, 2, 3]", "not a schema-2 postmortem bundle"),
            ('{"schema": 1, "reason": "slo:loss"}',
             "not a schema-2 postmortem bundle"),
            ('{"schema": 2, "reason": "slo:loss", "triggered_at": 1.0}',
             "malformed postmortem bundle: 'window' is missing"),
        ],
        ids=["not-json", "not-an-object", "another-schema", "missing-key"],
    )
    def test_malformed_bundle_exits_2(self, text, reason, tmp_path, capsys):
        from repro.telemetry import PostmortemBundle

        path = tmp_path / "postmortem_001_slo-loss.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="postmortem bundle|Expecting"):
            PostmortemBundle.load(path)
        # ... as a lone file or as one of a directory's bundles.
        for target in (path, tmp_path):
            assert main(["postmortem", str(target)]) == 2
            out = capsys.readouterr().out
            assert out.startswith(f"{path}: ") and reason in out
            assert len(out.splitlines()) == 1

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("check", "x", MALFORMED + "'check' is not an object"),
            ("report", "x", MALFORMED + "'report' is not an object"),
            ("quality", "x", MALFORMED + "'quality' is not an object"),
            ("series", ["x"], MALFORMED + "'series[0]' is not an object"),
            ("rings", ["x"], MALFORMED + "'rings[0]' is not an object"),
            ("series", "abc", MALFORMED + "'series' is not a list"),
            ("rings", [{"server": 1, "events": [{"name": "e"}]}],
             MALFORMED + "'rings[0].events[0].ts' is missing"),
            ("rings", [{"server": 1, "events": 3}],
             MALFORMED + "'rings[0].events' is not a list"),
            ("report", {"checks": 3},
             MALFORMED + "'report.checks' is not a list"),
            ("quality", {"snapshot": 3},
             MALFORMED + "'quality.snapshot' is not an object"),
            ("quality", {"snapshot": None},
             MALFORMED + "'quality.snapshot' is not an object"),
            ("quality", {"last_report": 3},
             MALFORMED + "'quality.last_report' is not an object"),
            ("report", {"checks": [{"name": "loss", "severity": 2}]},
             MALFORMED + "'report.checks[0].value' is missing"),
            # the scalars format() converts are typed too
            ("series", [{"server": None, "raw": [[0.0, 1.0]]}],
             MALFORMED + "'series[0].name' is missing"),
            ("series", [{"name": "loss", "raw": 3}],
             MALFORMED + "'series[0].raw' is not a list"),
            ("series", [{"name": "loss", "raw": [[0.0, None]]}],
             MALFORMED + "'series[0].raw[0][1]' is not a number"),
            ("check", dict(CHECK, value=None),
             MALFORMED + "'check.value' is not a number"),
            ("quality", {"snapshot": {"fp": [1]}},
             MALFORMED + "'quality.snapshot.fp' is not a number"),
            ("check", dict(CHECK, value="abc"),
             MALFORMED + "'check.value' is not a number"),
            ("quality", {"last_report": {"attributions": [{"staleness_age": "old"}]}},
             MALFORMED + "'quality.last_report.attributions[0].staleness_age'"
             " is not a number"),
            # a non-finite number anywhere, a retyped ring event, a window
            # that is not a pair
            ("triggered_at", float("nan"), "'NaN' is not a number"),
            ("window", [float("-inf"), 1.0], "'-Infinity' is not a number"),
            ("rings", [{"server": 1, "events": [1, "x"]}],
             MALFORMED + "'rings[0].events[0]' is not an object"),
            ("window", [0.0, 1.0, 2.0],
             MALFORMED + "'window' is not a list of 2"),
        ],
        ids=["check", "report", "quality", "series", "rings",
             "series-string", "trace-event-without-ts", "ring-events-int",
             "report-checks-int", "quality-snapshot-int", "quality-snapshot-null",
             "quality-last-report-int", "report-check-unknown-key",
             "series-without-name", "series-raw-int", "series-point-null",
             "check-value-null", "quality-snapshot-fp-list",
             "check-value-string", "attribution-age-string",
             "triggered-at-nan", "window-minus-infinity", "ring-event-int",
             "window-of-three"],
    )
    def test_retyped_field_exits_2(self, key, value, reason, tmp_path, capsys):
        doc = {
            "schema": 2, "reason": "slo:loss", "triggered_at": 1.0,
            "window": [0.0, 1.0], "check": None, "report": None,
            "series": [], "rings": [], "quality": None,
        }
        doc[key] = value
        path = tmp_path / "postmortem_001_slo-loss.json"
        path.write_text(json.dumps(doc))
        assert main(["postmortem", str(path)]) == 2
        out = capsys.readouterr().out
        assert out == f"{path}: {reason}\n"

    @pytest.mark.parametrize("key, value, path", [
        ("triggered_at", float("nan"), "triggered_at"),
        ("window", [0.0, float("inf")], "window[1]"),
        ("check", dict(CHECK, value=float("nan")), "check.value"),
    ])
    def test_non_finite_number_is_refused_by_name(self, key, value, path):
        from repro.telemetry import PostmortemBundle

        doc = {
            "schema": 2, "reason": "manual", "triggered_at": 1.0,
            "window": [0.0, 1.0], "check": None, "report": None,
            "series": [], "rings": [], "quality": None,
        }
        doc[key] = value
        with pytest.raises(ValueError, match=f"'{re.escape(path)}' is not a number"):
            PostmortemBundle.from_dict(doc)

    def test_json_output_of_manual_bundle(self, tmp_path, capsys):
        from repro.telemetry import FlightRecorder, Telemetry

        tel = Telemetry()
        recorder = FlightRecorder(tel, dump_dir=tmp_path)
        tel.event("evidence", server=1)
        recorder.trigger("slo:loss")
        rc = main(["postmortem", str(recorder.dumped[0]), "--json"])
        assert rc == 0
        out = capsys.readouterr().out
        assert '"reason": "slo:loss"' in out


class TestWatchQualityRows:
    """The watch dashboard samples and renders both the dispatcher's
    per-kind gauges and the shadow oracle's quality gauges."""

    def test_dispatch_and_quality_sparklines(self, capsys):
        rc = main([
            "watch", "--nodes", "16", "--records", "20",
            "--queries", "10", "--rate", "20", "--duration", "2",
            "--seed", "4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dispatch.query" in out
        assert "dispatch.summary-full" in out
        assert "quality.precision" in out
        assert "quality.audits" in out
        assert "quality.fp_rate" in out


class TestQualityCLI:
    """`repro quality` arms the shadow oracle under load and reports
    precision/recall plus per-summary divergence attributions."""

    def _run(self, extra):
        return main([
            "quality", "--nodes", "16", "--records", "20",
            "--queries", "10", "--rate", "20", "--duration", "2",
            "--interval", "1.0", "--loss", "0.2", "--seed", "4",
        ] + extra)

    def test_summary_tables(self, capsys):
        rc = self._run([])
        assert rc == 0
        out = capsys.readouterr().out
        assert "oracle:" in out and "precision" in out
        assert "confusion:" in out

    def test_bare_json_is_clean_stdout_with_stderr_narration(
        self, capsys
    ):
        rc = self._run(["--json"])
        assert rc == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout is pure JSON
        assert {"snapshot", "per_node", "reports"} <= set(doc)
        assert doc["snapshot"]["audits"] > 0
        for report in doc["reports"]:
            assert len(report["attributions"]) == (
                report["fp"] + report["fn"]
            )
        assert "oracle:" in captured.err  # narration rerouted

    def test_json_to_file(self, tmp_path, capsys):
        target = tmp_path / "quality.json"
        rc = self._run(["--json", str(target)])
        assert rc == 0
        doc = json.loads(target.read_text())
        assert doc["snapshot"]["audits"] > 0
        assert "quality report JSON written to" in capsys.readouterr().out

    def test_min_precision_gate(self, capsys):
        # precision can never exceed 1.0, so this SLO floor must fail
        assert self._run(["--min-precision", "1.01"]) == 1
        capsys.readouterr()


class TestSharedParentParser:
    """Each verb takes the shared --scale/--seed/--out/--json flags it
    reads, and only those — same defaults, same bare-flag JSON."""

    CASES = {
        "trace": ["trace", "events.jsonl"],
        "watch": ["watch"],
        "quality": ["quality"],
        "health": ["health"],
        "telemetry": ["telemetry"],
        "postmortem": ["postmortem", "some/dir"],
        "bench run": ["bench", "run", "overlay"],
    }
    #: the shared flags each verb reads
    READS = {
        "trace": {"json"},
        "watch": {"seed", "json"},
        "quality": {"seed", "json"},
        "health": {"seed", "json"},
        "telemetry": {"seed", "json"},
        "postmortem": {"json"},
        "bench run": {"scale", "seed", "out", "json"},
    }
    DEFAULTS = {"scale": "quick", "seed": 1, "out": ".", "json": None}

    @pytest.mark.parametrize("verb", sorted(CASES))
    def test_shared_defaults(self, verb):
        args = vars(build_parser().parse_args(self.CASES[verb]))
        assert {name: args[name] for name in self.READS[verb]} == {
            name: self.DEFAULTS[name] for name in self.READS[verb]
        }

    @pytest.mark.parametrize("verb", sorted(CASES))
    def test_bare_json_means_stdout(self, verb):
        args = build_parser().parse_args(self.CASES[verb] + ["--json"])
        assert args.json == "-"
        args = build_parser().parse_args(
            self.CASES[verb] + ["--json", "doc.json"]
        )
        assert args.json == "doc.json"

    #: every (verb, flag) pair the CLI accepted and ignored, plus the
    #: selftest flag that printed the telemetry verb's tables
    IGNORED = [
        (["figure", "table1"], "--out", "D"),
        (["figure", "table1"], "--json", "F"),
        (["trace", "events.jsonl"], "--scale", "smoke"),
        (["trace", "events.jsonl"], "--seed", "3"),
        (["trace", "events.jsonl"], "--out", "D"),
        (["postmortem", "pm"], "--scale", "smoke"),
        (["postmortem", "pm"], "--seed", "3"),
        (["postmortem", "pm"], "--out", "D"),
        (["watch"], "--scale", "smoke"),
        (["watch"], "--out", "D"),
        (["quality"], "--scale", "smoke"),
        (["quality"], "--out", "D"),
        (["selftest"], "--telemetry", None),
    ]

    @pytest.mark.parametrize(
        "verb, flag, value", IGNORED,
        ids=[f"{verb[0]} {flag}" for verb, flag, _ in IGNORED],
    )
    def test_a_flag_nothing_reads_is_refused(self, verb, flag, value, capsys):
        argv = verb + [flag] + ([value] if value is not None else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    #: flags whose document another verb or flag writes, and the
    #: format nothing read that the JSON document carries
    REMOVED = [
        (["demo"], "--telemetry", None),
        (["trace", "events.jsonl"], "--chrome", "x.json"),
        (["watch"], "--export", "x.jsonl"),
        (["health"], "--export", "x.json"),
        (["telemetry"], "--export-prom", "x.prom"),
    ]

    @pytest.mark.parametrize(
        "verb, flag, value", REMOVED,
        ids=[f"{verb[0]} {flag}" for verb, flag, _ in REMOVED],
    )
    def test_removed_flags_are_refused(self, verb, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(verb + [flag] + ([value] if value is not None else []))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_jsonl_is_no_watch_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["watch", "--format", "jsonl"])
        assert exc.value.code == 2
        assert "invalid choice: 'jsonl'" in capsys.readouterr().err

    def test_settable_argument_count(self):
        # Every option, positional and sub-verb flag a user can set.
        import argparse

        def settable(parser):
            n = 0
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    n += sum(settable(p) for p in action.choices.values())
                elif not isinstance(action, argparse._HelpAction):
                    n += 1
            return n

        assert settable(build_parser()) == 76

    def test_profile_is_an_unknown_verb(self, capsys):
        # Host time is perf/run.py's: the in-tree profile report is gone.
        with pytest.raises(SystemExit) as exc:
            main(["profile"])
        assert exc.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err


class TestClosedStdout:
    def test_a_reader_that_closes_early_gets_no_traceback(self):
        # The reader's end is closed before the child writes anything,
        # so its first flush fails with EPIPE.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "repro", "bench", "list"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 1
