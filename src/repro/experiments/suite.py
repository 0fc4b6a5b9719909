"""Run the whole evaluation and archive the results.

``run_suite`` executes any subset of the table/figure scenarios, writes
each result as CSV + JSON under an output directory, and emits a
SUMMARY.md with every table rendered — a one-command regeneration of the
paper's evaluation section.

A target is a name in the one scenario registry
(:data:`repro.bench.SCENARIOS`): its driver run at
``scale_settings(scale, seed)`` over ``scale_sweeps(scale)``, exactly
what ``repro figure`` prints and ``repro bench run`` archives.

Exposed on the CLI as ``python -m repro suite --out results/``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from .export import save_rows_csv, save_rows_json
from .report import format_table


def available_targets() -> List[str]:
    """The registry's paper targets: Table I and Figures 3–11."""
    # Imported lazily: repro.bench builds its registry out of this
    # package's drivers.
    from ..bench import SCENARIOS

    return [n for n in SCENARIOS if n == "table1" or n.startswith("fig")]


def run_suite(
    out_dir,
    *,
    targets: Optional[Sequence[str]] = None,
    scale: str = "quick",
    seed: int = 1,
    progress: Optional[Callable[[str], None]] = print,
) -> Dict[str, List[Dict]]:
    """Run the selected *targets* (default: every paper target) and
    archive everything.

    Returns the rows per target. Writes ``<target>.csv``,
    ``<target>.json`` and a combined ``SUMMARY.md`` under *out_dir*.
    """
    from ..bench import SCENARIOS, RunPlan

    chosen = available_targets() if targets is None else list(targets)
    unknown = [t for t in chosen if t not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown targets {unknown}; available: {sorted(SCENARIOS)}"
        )
    plans = [RunPlan(name, scale=scale, seed=seed) for name in chosen]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results: Dict[str, List[Dict]] = {}
    summary_parts = [
        f"# Evaluation suite (scale={scale}, seed={seed})\n",
    ]
    for plan in plans:
        name = plan.scenario
        t0 = time.time()
        if progress:
            progress(f"[suite] running {name} ...")
        rows = plan.rows()
        elapsed = time.time() - t0
        results[name] = rows
        save_rows_csv(rows, out / f"{name}.csv")
        save_rows_json(
            rows,
            out / f"{name}.json",
            meta={"target": name, "scale": scale, "seed": seed,
                  "elapsed_seconds": round(elapsed, 2)},
        )
        summary_parts.append(
            "## " + name + f" ({elapsed:.1f}s)\n\n```\n"
            + format_table(rows) + "\n```\n"
        )
        if progress:
            progress(f"[suite] {name} done in {elapsed:.1f}s")
    (out / "SUMMARY.md").write_text("\n".join(summary_parts))
    return results
