"""Process-pool benchmark fan-out.

Two fan-out shapes, both driven by :class:`~repro.bench.scenarios.
RunPlan` and both order-deterministic (results come back in input
order, so a pooled run merges to the same document as a serial one):

* :func:`run_plans` — run many plans with one worker process per plan
  (one trial per core); :func:`seed_sweep` builds the seed-partitioned
  plan list, :func:`merge_artifacts` folds the artifacts into one
  deterministic sweep document.
* :func:`stress_shard_rows` — the ``stress`` scale's shard sweep: the
  10^5-server federation is ~100 disjoint 1000-server shards, each
  built and measured in its own process with a seed derived from the
  shard index.

An artifact holds no host measurement, so the one field that differs
between two runs of a plan is the stamp's ``created_unix``;
:func:`comparable_dict` drops it, and determinism checks (N-worker ==
serial) compare what is left with ``==``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Sequence

from ..experiments.config import ExperimentSettings
from .artifact import BenchArtifact

#: schema identifier of the merged sweep document
SWEEP_SCHEMA = "roads.bench.sweep/1"


def default_workers() -> int:
    """One worker per core (at least one)."""
    return max(1, os.cpu_count() or 1)


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker count: ``None``/``1`` serial, ``0`` one per core."""
    if workers is None:
        return 1
    if not isinstance(workers, int) or workers < 0:
        raise ValueError(
            f"workers must be an int >= 0 (0 = one per core), got {workers!r}"
        )
    return workers if workers else default_workers()


# -- plan fan-out ---------------------------------------------------------------
def _plan_worker(plan) -> BenchArtifact:
    # Module-level so the plan (a plain frozen dataclass) is the only
    # thing pickled to the worker process.
    from .scenarios import run_scenario

    return run_scenario(plan)


def run_plans(plans: Iterable, *, workers: Optional[int] = None) -> List[BenchArtifact]:
    """Run every plan; returns artifacts in input order.

    With ``workers`` > 1 (or ``0`` = one per core) plans run in a
    process pool; each worker executes :func:`~repro.bench.scenarios.
    run_scenario` on its plan. Ordering, seeding and artifact content
    are identical to the serial path.
    """
    from .scenarios import RunPlan, run_scenario

    plans = list(plans)
    for plan in plans:
        if not isinstance(plan, RunPlan):
            raise TypeError(
                f"run_plans expects RunPlan items, got {type(plan).__name__}"
            )
    pool_size = min(resolve_workers(workers), len(plans)) if plans else 0
    if pool_size <= 1:
        return [run_scenario(plan) for plan in plans]
    with ProcessPoolExecutor(max_workers=pool_size) as pool:
        return list(pool.map(_plan_worker, plans, chunksize=1))


def seed_sweep(plan, seeds: Sequence[int]) -> List:
    """The seed-partitioned plan list: one plan per seed, same shape."""
    return [plan.with_(seed=int(seed)) for seed in seeds]


def comparable_dict(artifact) -> Dict[str, object]:
    """Artifact view without the stamp's ``created_unix``.

    Two runs of the same plan — serial or pooled, on any host — must
    agree exactly on this view; it is the currency of the determinism
    tripwires and of :func:`merge_artifacts`.
    """
    doc = artifact.to_dict() if isinstance(artifact, BenchArtifact) else dict(artifact)
    doc.pop("created_unix", None)
    return doc


def merge_artifacts(artifacts: Iterable[BenchArtifact]) -> Dict[str, object]:
    """Fold a sweep's artifacts into one deterministic document.

    Runs are ordered by ``(scenario, scale, seed)`` — not completion
    order — and reduced to their :func:`comparable_dict` views, so the
    merged document is byte-identical however the sweep was scheduled.
    The top-level ``metrics`` block is the cross-run mean of each
    metric.
    """
    arts = sorted(artifacts, key=lambda a: (a.scenario, a.scale, a.seed))
    if not arts:
        raise ValueError("merge_artifacts needs at least one artifact")
    runs = [comparable_dict(a) for a in arts]
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for doc in runs:
        for key, value in doc["metrics"].items():
            sums[key] = sums.get(key, 0.0) + float(value)
            counts[key] = counts.get(key, 0) + 1
    return {
        "schema": SWEEP_SCHEMA,
        "scenarios": sorted({a.scenario for a in arts}),
        "seeds": sorted({a.seed for a in arts}),
        "metrics": {k: sums[k] / counts[k] for k in sorted(sums)},
        "runs": runs,
    }


# -- stress shard sweep ---------------------------------------------------------
def shard_settings(settings: ExperimentSettings, shard: int) -> ExperimentSettings:
    """The per-shard settings: disjoint seed stream per shard index."""
    return settings.with_(seed=settings.seed * 100_000 + shard)


def _shard_worker(task) -> Dict[str, object]:
    settings, shard, num_queries = task
    from ..experiments.runner import build_roads, build_workload, trial_queries
    from ..roads.search import SearchRequest

    wcfg, stores = build_workload(settings, settings.seed)
    system = build_roads(settings, stores, settings.seed)
    # ``build`` already drove one summary epoch through the message
    # fabric; reuse its report instead of paying a second epoch.
    report = system.last_update_report
    queries, clients = trial_queries(settings, wcfg, settings.seed)
    queries, clients = queries[:num_queries], clients[:num_queries]
    latencies: List[float] = []
    query_bytes: List[int] = []
    for query, client in zip(queries, clients):
        outcome = system.search(
            SearchRequest(query, client_node=int(client))
        ).outcome
        latencies.append(outcome.latency)
        query_bytes.append(outcome.query_bytes)
    storage = system.storage_bytes_by_server()
    return {
        "shard": shard,
        "nodes": settings.num_nodes,
        "records_per_node": settings.records_per_node,
        "levels": system.levels,
        "latency_mean_s": sum(latencies) / max(1, len(latencies)),
        "query_bytes_mean": sum(query_bytes) / max(1, len(query_bytes)),
        "update_bytes_epoch": int(report.total_bytes),
        "update_messages_epoch": int(report.total_messages),
        "storage_bytes_mean": sum(storage.values()) / max(1, len(storage)),
    }


def stress_shard_rows(
    settings: ExperimentSettings, sweeps: Dict[str, object]
) -> List[Dict[str, object]]:
    """One row per shard of the sharded stress federation.

    Each shard is an independent ``settings``-sized federation with a
    seed derived from the shard index; shards are built and measured in
    parallel (``sweeps["workers"]``: ``0`` = one per core, ``1`` =
    in-process) and rows always come back in shard order, so the row
    set is independent of the worker count.
    """
    shards = int(sweeps.get("shards", 4))
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    num_queries = int(sweeps.get("shard_queries", 4))
    workers = min(resolve_workers(int(sweeps.get("workers", 1))), shards)
    tasks = [
        (shard_settings(settings, shard), shard, num_queries)
        for shard in range(shards)
    ]
    if workers <= 1:
        return [_shard_worker(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_shard_worker, tasks, chunksize=1))
