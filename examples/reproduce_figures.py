#!/usr/bin/env python
"""Regenerate any of the paper's tables/figures from the command line.

Usage::

    python examples/reproduce_figures.py table1
    python examples/reproduce_figures.py fig3 fig4 --scale quick
    python examples/reproduce_figures.py all --scale paper

``--scale quick`` (default) runs reduced sweeps in minutes; ``paper``
runs the full Section V configuration (expect a long run).

``--bench-artifact DIR`` additionally runs each target through the
benchmark observatory (``repro.bench``) and writes a provenance-stamped
``BENCH_<target>.json`` to *DIR* — the same artifacts ``repro bench
run`` produces and ``repro bench compare`` consumes.
"""

import argparse
import sys
import time

from repro.bench import (
    SCENARIOS,
    RunPlan,
    artifact_filename,
    run_scenario,
    scale_settings,
    scale_sweeps,
    write_artifact,
)
from repro.experiments import (
    SELECTIVITY_SWEEP,
    analytical_rows,
    analytical_update_rows,
    fig3_latency_vs_nodes,
    fig4_update_overhead_vs_nodes,
    fig5_query_overhead_vs_nodes,
    fig6_latency_vs_dimensions,
    fig7_query_overhead_vs_dimensions,
    fig8_update_overhead_vs_records,
    fig9_latency_vs_overlap,
    fig10_latency_vs_degree,
    fig11_response_time_vs_selectivity,
    measured_rows,
    print_table,
)

def build_registry(settings, sweeps, scale):
    small = settings.with_(num_nodes=min(settings.num_nodes, 192))
    return {
        "table1": lambda: (
            print_table(analytical_rows(), title="Table I (analytical)"),
            print(),
            print_table(
                analytical_update_rows(),
                title="Equations (1)-(3), units/second",
            ),
            print(),
            print_table(
                measured_rows(
                    small.with_(num_nodes=128, records_per_node=1500)
                ),
                title="Table I (measured)",
            ),
        ),
        "fig3": lambda: print_table(
            fig3_latency_vs_nodes(settings, sweeps["nodes"]),
            title="Figure 3: latency (ms) vs number of nodes",
        ),
        "fig4": lambda: print_table(
            fig4_update_overhead_vs_nodes(settings, sweeps["nodes"]),
            title="Figure 4: update overhead (bytes) vs number of nodes",
        ),
        "fig5": lambda: print_table(
            fig5_query_overhead_vs_nodes(settings, sweeps["nodes"]),
            title="Figure 5: query overhead (bytes) vs number of nodes",
        ),
        "fig6": lambda: print_table(
            fig6_latency_vs_dimensions(settings, sweeps["dims"]),
            title="Figure 6: latency (ms) vs query dimensions",
        ),
        "fig7": lambda: print_table(
            fig7_query_overhead_vs_dimensions(settings, sweeps["dims"]),
            title="Figure 7: query overhead (bytes) vs query dimensions",
        ),
        "fig8": lambda: print_table(
            fig8_update_overhead_vs_records(small, sweeps["records"]),
            title="Figure 8: update overhead (bytes) vs records per node",
        ),
        "fig9": lambda: print_table(
            fig9_latency_vs_overlap(small, sweeps["overlap"]),
            title="Figure 9: ROADS latency (ms) vs data overlap factor",
        ),
        "fig10": lambda: print_table(
            fig10_latency_vs_degree(settings, sweeps["degree"]),
            title="Figure 10: ROADS latency (ms) vs node degree",
        ),
        "fig11": lambda: print_table(
            fig11_response_time_vs_selectivity(
                settings.with_(num_nodes=320, records_per_node=500, runs=1),
                SELECTIVITY_SWEEP,
                queries_per_group=200 if scale == "paper" else 20,
            ),
            title="Figure 11: total response time (ms) vs selectivity (%)",
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "targets",
        nargs="+",
        help="table1, fig3..fig11, or 'all'",
    )
    parser.add_argument("--scale", choices=("quick", "paper"), default="quick")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--bench-artifact",
        metavar="DIR",
        help="also write a BENCH_<target>.json benchmark artifact per "
        "target to DIR (see `python -m repro bench`)",
    )
    args = parser.parse_args(argv)

    settings = scale_settings(args.scale, args.seed)
    sweeps = scale_sweeps(args.scale)

    registry = build_registry(settings, sweeps, args.scale)
    targets = (
        list(registry) if "all" in args.targets else args.targets
    )
    unknown = [t for t in targets if t not in registry]
    if unknown:
        parser.error(f"unknown targets {unknown}; choose from {list(registry)}")

    for target in targets:
        t0 = time.time()
        print(f"=== {target} (scale={args.scale}) ===")
        registry[target]()
        print(f"--- {target} done in {time.time() - t0:.1f}s ---\n")
        if args.bench_artifact and target in SCENARIOS:
            artifact = run_scenario(
                RunPlan(target, scale=args.scale, seed=args.seed)
            )
            path = write_artifact(
                artifact, f"{args.bench_artifact}/{artifact_filename(target)}"
            )
            status = "ok" if artifact.ok else "SHAPE FAIL"
            print(f"    bench artifact [{status}] -> {path}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
