#!/usr/bin/env python3
"""Compare two result sets against the bounds in ``BENCHMARK.json``.

    python3 perf/agree.py A.jsonl B.jsonl

A result set is a JSON-lines file that ``run.py --out`` appended to:
several runs of each workload. Every end-to-end metric is compared
workload by workload, each in its own row: B's median against A's, as a
share of A's median, signed so that positive means worse. A metric whose
run-to-run spread (quartile distance over median, the wider of the two
sets) exceeds its bound is reported as *unresolved*, not as unchanged —
unless every run of B reads better than every run of A. Runs of the same
workload, seed and size must carry the same ``sim_digest`` in both sets:
the simulator is deterministic, so a mismatch means the simulated
behaviour changed.

The ungated extras (raw ``wall_s``, ``op_host_ms_p50``,
``op_host_ms_tail`` and the ``cpu_share`` the calibration saw) are
listed the same way, without a verdict.

Exit code 0: every metric agrees within its bound. 1: a metric got worse
by more than its bound, or a digest differs. 2: nothing worse, but at
least one metric is unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: ``extras`` of a record worth a row: (name, unit, better)
EXTRAS = (
    ("wall_s", "s", "lower"),
    ("op_host_ms_p50", "ms", "lower"),
    ("op_host_ms_tail", "ms", "lower"),
    ("cpu_share", "ratio", "higher"),
)


def load(path) -> list:
    with open(path) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if r["workload"] != "layers"]


def spread(values) -> float:
    """Quartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def digest_mismatches(records) -> list:
    seen = defaultdict(set)
    for r in records:
        key = (r["workload"], r["seed"], r["seconds"], r["scale"])
        seen[key].add(r["sim_digest"])
    return [key for key, digests in seen.items() if len(digests) > 1]


def compare(a_records, b_records, spec) -> list:
    """One row per (workload, metric): the numbers and the verdict."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        a_runs, b_runs = (
            [{**r["metrics"], **r["extras"]} for r in records
             if r["workload"] == workload]
            for records in (a_records, b_records)
        )
        if not a_runs or not b_runs:
            continue
        ungated = [
            {"name": n, "unit": u, "better": b, "bound": None}
            for n, u, b in EXTRAS
        ]
        for metric in spec["end_to_end"] + ungated:
            name, bound = metric["name"], metric["bound"]
            a = [run[name] for run in a_runs]
            b = [run[name] for run in b_runs]
            a_med, b_med = statistics.median(a), statistics.median(b)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (b_med - a_med) / abs(a_med)
            width = max(spread(a), spread(b))
            every_b_better = (
                max(b) < min(a) if sign > 0 else min(b) > max(a)
            )
            if bound is None:
                verdict = "not gated"
            elif every_b_better:
                verdict = "better"
            elif width > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "WORSE"
            else:
                verdict = "same"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": a_med, "b": b_med, "worse": worse, "spread": width,
                "bound": bound, "verdict": verdict,
                "runs": (len(a), len(b)),
            })
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_records, b_records = load(args[0]), load(args[1])
    rows = compare(a_records, b_records, spec)

    print(f"{'workload':<14} {'metric':<27} {'A median':>14} {'B median':>14} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<14} {row['metric']:<27} {row['a']:>14.6g} "
            f"{row['b']:>14.6g} {row['worse']:>+9.2%} {row['spread']:>7.2%} "
            f"{'' if row['bound'] is None else format(row['bound'], '.0%'):>6}"
            f"  {row['verdict']} "
            f"(n={row['runs'][0]}/{row['runs'][1]})"
        )
    mismatched = digest_mismatches(a_records + b_records)
    for workload, seed, seconds, scale in mismatched:
        print(f"sim_digest MISMATCH: {workload} seed {seed} "
              f"({seconds:g} s, {scale})")
    counts = defaultdict(int)
    for row in rows:
        counts[row["verdict"]] += 1
    print(", ".join(f"{n} {verdict}" for verdict, n in sorted(counts.items()))
          + f"; {len(mismatched)} digest mismatches")
    if counts["WORSE"] or mismatched:
        return 1
    return 2 if counts["unresolved"] else 0


if __name__ == "__main__":
    sys.exit(main())
