"""Benchmark observatory: simulated-fact artifacts and the regression gate.

The subsystem behind ``python -m repro bench``. It records what the
simulation *did* — rows, ``sim.*``/``rows.*`` metrics, shape verdicts,
the event-census fingerprint, all exact per seed — and never how long
the host took: host time has one instrument, ``perf/run.py`` with
``BENCHMARK.json``.

* :mod:`repro.bench.scenarios` — a registry wrapping the figure drivers
  behind a uniform ``run_scenario(RunPlan) -> BenchArtifact`` API;
* :mod:`repro.bench.parallel` — the process-pool sweep runner: plan
  fan-out with deterministic artifact merging, plus the ``stress``
  scale's shard sweep;
* :mod:`repro.bench.artifact` — the canonical ``BENCH_<scenario>.json``
  format (provenance stamp, paper-series rows, registry-derived
  simulated metrics, event-census fingerprint);
* :mod:`repro.bench.compare` — tolerance-banded artifact diffing plus
  paper-shape re-assertion (the CI regression sentinel).
"""

from .artifact import (
    SCHEMA,
    BenchArtifact,
    artifact_filename,
    census_fingerprint,
    config_fingerprint,
    git_rev,
    load_artifact,
    write_artifact,
)
from .compare import (
    DEFAULT_TOLERANCE,
    ComparisonResult,
    MetricDelta,
    compare_artifacts,
    format_comparison,
)
from .parallel import default_workers, run_plans, stress_shard_rows
from .scenarios import (
    ROOT_SHARE_CEILING,
    SCALES,
    SCENARIOS,
    RunPlan,
    Scenario,
    available_scenarios,
    run_scenario,
    scale_settings,
    scale_sweeps,
)

__all__ = [
    "BenchArtifact",
    "SCHEMA",
    "artifact_filename",
    "census_fingerprint",
    "config_fingerprint",
    "git_rev",
    "load_artifact",
    "write_artifact",
    "ComparisonResult",
    "MetricDelta",
    "DEFAULT_TOLERANCE",
    "compare_artifacts",
    "format_comparison",
    "default_workers",
    "run_plans",
    "stress_shard_rows",
    "RunPlan",
    "Scenario",
    "SCENARIOS",
    "SCALES",
    "ROOT_SHARE_CEILING",
    "available_scenarios",
    "run_scenario",
    "scale_settings",
    "scale_sweeps",
]
