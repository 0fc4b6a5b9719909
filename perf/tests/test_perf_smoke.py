"""Smoke test of the benchmark harness: ``pytest perf/tests``.

Outside ``testpaths`` on purpose — tier-1 does not run it. Every
workload runs once at ``--smoke`` size with ``--trace 1``, which drives
the untraced arm, the traced arm and the digest comparison in one
process, so a single run per workload covers both metric families.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(*args, out=None):
    cmd = [sys.executable, *SPEC["command"][1:], *args, "--smoke"]
    if out is not None:
        cmd += ["--out", str(out)]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=180
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_benchmark_json_names_are_well_formed():
    names = WORKLOADS + [
        m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_listed_metric(workload, tmp_path):
    out = tmp_path / "results.jsonl"
    last = run("--workload", workload, "--seed", "3", "--trace", "1", out=out)
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    record = json.loads(out.read_text())
    # run.py fails the run (non-zero exit, asserted above) when the traced
    # arm's digest differs; the record carries the digest both arms share.
    assert re.fullmatch(r"[0-9a-f]{64}", record["sim_digest"])
    assert set(record["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v != 0 for v in record["metrics"].values())
    assert record["per_layer"]["trace.overhead_ratio"] > 0
    shares = sum(
        v for k, v in record["per_layer"].items() if k.endswith(".self_share")
    )
    assert abs(shares - 1.0) < 0.05
    for key in ("git_rev", "python", "numpy", "nproc", "seed"):
        assert key in record
    trace = json.loads((ROOT / "perf/out" / f"trace_{workload}.json").read_text())
    assert trace["traceEvents"] and trace["otherData"]["spans_written"] > 0


def test_untraced_result_line_and_determinism():
    first = run("--workload", "search_paper", "--seed", "3", "--trace", "0")
    again = run("--workload", "search_paper", "--seed", "3", "--trace", "0")
    assert set(first["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
    for name in ("sim_latency_ms_p50", "sim_latency_ms_p95",
                 "sim_update_bytes_per_epoch"):
        assert first["metrics"][name] == again["metrics"][name]


def test_layers_probes():
    last = run("--workload", "layers", "--seed", "3")
    assert last["correct"] is True


def test_refuses_to_run_outside_a_checkout(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "search_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
