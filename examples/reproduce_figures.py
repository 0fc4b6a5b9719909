#!/usr/bin/env python
"""Regenerate any of the paper's tables/figures from the command line.

Usage::

    python examples/reproduce_figures.py table1
    python examples/reproduce_figures.py fig3 fig4 --scale quick
    python examples/reproduce_figures.py all --scale paper

``--scale quick`` (default) runs reduced sweeps in minutes; ``paper``
runs the full Section V configuration (expect a long run). A target is a
name in the one scenario registry, ``repro.bench.SCENARIOS`` — the rows
printed here are the rows ``python -m repro figure`` prints and ``python
-m repro bench run`` archives.

``--bench-artifact DIR`` runs each target through the benchmark
observatory (``repro.bench``) instead and also writes a
provenance-stamped ``BENCH_<target>.json`` to *DIR* — the same artifacts
``repro bench run`` produces and ``repro bench compare`` consumes.
"""

import argparse
import sys
import time

from repro.bench import (
    SCALES,
    SCENARIOS,
    RunPlan,
    artifact_filename,
    run_scenario,
    write_artifact,
)
from repro.experiments import available_targets, print_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "targets",
        nargs="+",
        help="table1, fig3..fig11, or 'all'",
    )
    parser.add_argument("--scale", choices=SCALES, default="quick")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--bench-artifact",
        metavar="DIR",
        help="also write a BENCH_<target>.json benchmark artifact per "
        "target to DIR (see `python -m repro bench`)",
    )
    args = parser.parse_args(argv)

    targets = (
        available_targets() if "all" in args.targets else args.targets
    )
    unknown = [t for t in targets if t not in SCENARIOS]
    if unknown:
        parser.error(
            f"unknown targets {unknown}; choose from {available_targets()}"
        )

    for target in targets:
        t0 = time.time()
        print(f"=== {target} (scale={args.scale}) ===")
        plan = RunPlan(target, scale=args.scale, seed=args.seed)
        if args.bench_artifact:
            # The artifact's rows are the figure: one run serves both.
            artifact = run_scenario(plan)
            rows = artifact.rows
        else:
            rows = plan.rows()
        print_table(rows, title=SCENARIOS[target].title)
        print(f"--- {target} done in {time.time() - t0:.1f}s ---\n")
        if args.bench_artifact:
            path = write_artifact(
                artifact, f"{args.bench_artifact}/{artifact_filename(target)}"
            )
            status = "ok" if artifact.ok else "SHAPE FAIL"
            print(f"    bench artifact [{status}] -> {path}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
