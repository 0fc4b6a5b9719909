#!/usr/bin/env python3
"""Run one benchmark workload and print every metric by name.

    python3 perf/run.py --workload search_paper --seed 1 --seconds 14 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the same workload and seed twice in this process —
untraced, then with the spans of :mod:`tracing` patched in — checks that
both arms produce the same ``sim_digest``, and reports the per-layer
metrics of the traced arm. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding exactly
the metrics ``BENCHMARK.json`` lists for that mode; ``--out FILE``
appends the full record (stamp, digest, every metric) as one JSON line.

``--workload layers`` runs the isolated per-layer probes instead
(:mod:`probes`); it is not one of the gated workloads.

The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"

SIM_KEYS = (
    "sim_latency_ms_p50", "sim_latency_ms_p95", "sim_update_bytes_per_epoch",
)


def tail_percentile(n: int) -> int:
    """Highest of p99/p95/p90 with at least ten samples beyond it.

    Fewer than a hundred samples carry no tail; it then repeats the median.
    """
    return 99 if n >= 1000 else 95 if n >= 200 else 90 if n >= 100 else 50


def sim_digest(rounds) -> str:
    """sha256 over the ordered per-operation simulated outcomes."""
    blob = json.dumps([r.outcomes for r in rounds], default=float)
    return hashlib.sha256(blob.encode()).hexdigest()


#: reported with every untraced arm but not gated: raw host time takes
#: the full force of the machine's noise (see :mod:`calibration`)
EXTRA_UNITS = {
    "wall_s": "s", "operations": "count", "cpu_share": "ratio",
    "raw_ops_per_s": "1/s", "raw_events_per_s": "1/s",
    "op_host_ms_p50": "ms", "op_host_ms_tail": "ms",
    "op_host_tail_percentile": "%",
}


def end_to_end(rounds, calibration) -> tuple:
    """(gated metrics, ungated extras) of one untraced arm.

    The two rates are per reference-machine second: the operations' host
    time, multiplied by the share of a reference CPU the calibration
    sampler saw the process get during the measured slices.
    """
    import numpy as np

    host_s = np.concatenate([np.asarray(r.op_host_s) for r in rounds])
    events = sum(sum(r.op_events) for r in rounds)
    n = len(host_s)
    share = calibration.cpu_share
    ref_s = float(host_s.sum()) * share
    metrics = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "ops_per_ref_s": n / ref_s,
        "events_per_ref_s": events / ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for key in SIM_KEYS:
        metrics[key] = statistics.fmean(r.sim[key] for r in rounds)
    tail = tail_percentile(n)
    extras = {
        "wall_s": sum(r.wall_s for r in rounds),
        "operations": n,
        "cpu_share": share,
        "raw_ops_per_s": n / float(host_s.sum()),
        "raw_events_per_s": events / float(host_s.sum()),
        "op_host_ms_p50": float(np.percentile(host_s, 50)) * 1e3,
        "op_host_ms_tail": float(np.percentile(host_s, tail)) * 1e3,
        "op_host_tail_percentile": tail,
    }
    return metrics, extras


def per_layer(rounds, tracer, untraced_wall_s: float) -> dict:
    from tracing import BOUNDARIES, LAYERS, PHASE

    wall_s = sum(r.wall_s for r in rounds)
    spans = tracer.summary()
    metrics = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name in BOUNDARIES:
        row = spans[name]
        layer_self[name.split(".", 1)[0]] += row["self_s"]
        if name != PHASE:
            metrics[f"{name}.calls"] = row["calls"]
            metrics[f"{name}.self_s"] = row["self_s"]
    for layer, self_s in layer_self.items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.self_share"] = self_s / wall_s
    metrics["sim.schedule.calls"] = tracer.schedule_calls

    total = {}
    for r in rounds:
        for key, value in r.counts.items():
            total[key] = total.get(key, 0.0) + value
    events = sum(sum(r.op_events) for r in rounds)

    def per(numerator, key):
        """numerator / total[key]; 0 where the workload has no such unit."""
        denominator = total.get(key, 0.0)
        return numerator / denominator if denominator else 0.0

    contacted = total.get("contacted", 0.0)
    metrics.update({
        "sim.events_per_search": per(events, "phase_searches"),
        "sim.events_per_epoch": per(events, "epochs"),
        "net.msgs_per_epoch": per(total.get("sent", 0.0), "epochs"),
        "net.lost_share": per(total.get("lost", 0.0), "sent"),
        "net.query_bytes_per_search": per(
            total.get("query_bytes", 0.0), "searches"
        ),
        "roads.contacted_per_search": per(contacted, "searches"),
        "roads.matches_per_contact": per(total.get("matches", 0.0), "contacted"),
        "roads.retries_per_search": (
            per(tracer.query_sends - contacted, "phase_searches")
            if contacted else 0.0
        ),
        "roads.recall": per(total.get("matches", 0.0), "true_matches"),
        "roads.keepalive_share": per(total.get("keepalives", 0.0), "updates"),
        "summaries.may_match_true_share": (
            tracer.may_match_true / spans["summaries.may_match"]["calls"]
            if spans["summaries.may_match"]["calls"] else 0.0
        ),
        "summaries.from_store_per_server_epoch": (
            spans["summaries.from_store"]["calls"]
            / (total["epochs"] * total["servers"] / len(rounds))
            if total.get("epochs") else 0.0
        ),
        "hierarchy.installs_per_epoch": per(
            total.get("installed", 0.0), "epochs"
        ),
        "trace.overhead_ratio": wall_s / untraced_wall_s,
    })
    return metrics


def stamp(args, scale_name: str) -> dict:
    import numpy
    from repro.bench import git_rev

    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "scale": scale_name, "trace": args.trace,
        "git_rev": git_rev(ROOT), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def emit(record: dict, listed, values: dict, out) -> None:
    """Print the listing, append the record, end with the result line."""
    units = {**EXTRA_UNITS, **{m["name"]: m["unit"] for m in listed}}
    for name, value in values.items():
        print(f"{name} {value!r} {units.get(name, '')}".rstrip())
    for key in ("sim_digest", "shape_notes", "failures"):
        if record.get(key):
            print(f"{key} {record[key]}")
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }))


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(
            f"perf/run.py: {ROOT} is not a checkout of the repository "
            "(needs src/repro and BENCHMARK.json)", file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["layers"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="host seconds the measured slices are sized for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, tens of operations (ignores --seconds)")
    parser.add_argument("--out", type=Path,
                        help="append the full result record to this JSON-lines file")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    if args.smoke:
        args.seconds = 1.0
    record = stamp(args, scale.name)

    if args.workload == "layers":
        import probes

        values = probes.run(scale, args.seed)
        record.update(correct=True, attempted=len(values), failed=0,
                      metrics=values)
        emit(record, [], values, args.out)
        return 0

    run = workloads.WORKLOADS[args.workload]
    probe = workloads.Instruments()
    rounds = run(scale, args.seed, args.seconds, probe)
    failures = [f for r in rounds for f in r.failures]
    attempted = sum(r.attempted for r in rounds)
    record["shape_notes"] = [n for r in rounds for n in r.notes]
    record["sim_digest"] = sim_digest(rounds)
    record["metrics"], record["extras"] = end_to_end(rounds, probe.calibration)
    values = {**record["metrics"], **record["extras"]}
    listed = spec["end_to_end"]

    if args.trace:
        import tracing

        tracer = tracing.install()
        traced = run(
            scale, args.seed, args.seconds, workloads.Instruments(tracer)
        )
        failures += [f"traced arm: {f}" for r in traced for f in r.failures]
        attempted += sum(r.attempted for r in traced) + 2
        if sim_digest(traced) != record["sim_digest"]:
            failures.append("traced arm changed the sim_digest")
        values = per_layer(traced, tracer, record["extras"]["wall_s"])
        attributed = sum(values[f"{layer}.self_share"] for layer in tracing.LAYERS)
        if abs(attributed - 1.0) > 0.05:
            failures.append(
                f"layer self times cover {attributed:.3f} of the traced wall"
            )
        record["per_layer"] = values
        listed = spec["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace_{args.workload}.json"
        written = tracer.write_chrome(trace_file)
        print(f"trace {trace_file.relative_to(ROOT)} {written} spans")

    record.update(correct=not failures, attempted=attempted,
                  failed=len(failures), failures=failures[:20])
    emit(record, listed, values, args.out)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
