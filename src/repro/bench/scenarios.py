"""Scenario registry: uniform ``run_scenario(RunPlan) -> BenchArtifact``.

Wraps the existing figure drivers (:mod:`repro.experiments.figures`) and
the canonical overlay/load run behind one API. The canonical
input is a :class:`RunPlan` — one frozen object carrying the scenario,
scale, seed, sweep overrides and parallelism — that :func:`run_scenario`
and the process-pool runner (:mod:`repro.bench.parallel`) accept.

Every run:

* executes the scenario's driver at the requested scale (the paper
  series rows),
* reads a copy of one canonical run at the same scale (simulated once
  per process and seed): one un-observed federation, queried through the
  overlay and then from the root, giving latency p50/p95/p99 from the
  registry's streaming histograms, query/update byte totals, the
  per-server load distribution and the root-load share,
* stamps it with the network's event census (deliveries per message
  kind per server), whose fingerprint pins the dispatch mix,
* re-checks the scenario's paper-shape validators,

and returns a provenance-stamped :class:`~repro.bench.artifact.
BenchArtifact` ready for ``BENCH_<scenario>.json``. Nothing here reads
a host clock or arms an observer: the artifact is exact per seed, and
only ``repro profile`` (:func:`profile_scenario`) runs the canonical
block under telemetry and a profiler.

Scales: ``smoke`` (unit-test sized), ``quick`` (CI-sized, the
EXPERIMENTS.md default), ``paper`` (full Section V) and ``stress`` (a
sharded 10^5-server / 10^6-record federation fanned out through the
parallel runner), selected explicitly or via the ``REPRO_BENCH_SCALE``
environment variable.
"""

from __future__ import annotations

import copy
import functools
import os
from dataclasses import asdict, dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from ..experiments.config import (
    DEGREE_SWEEP,
    DIMENSION_SWEEP,
    NODE_SWEEP,
    OVERLAP_SWEEP,
    RECORDS_SWEEP,
    SELECTIVITY_SWEEP,
    ExperimentSettings,
)
from ..experiments.figures import (
    fig3_latency_vs_nodes,
    fig4_update_overhead_vs_nodes,
    fig5_query_overhead_vs_nodes,
    fig6_latency_vs_dimensions,
    fig7_query_overhead_vs_dimensions,
    fig8_update_overhead_vs_records,
    fig9_latency_vs_overlap,
    fig10_latency_vs_degree,
    fig11_response_time_vs_selectivity,
)
from ..experiments.load import offered_load_rows
from ..experiments.runner import drive_queries, roads_trial
from ..experiments.staleness import (
    LOSS_SWEEP,
    update_plane_staleness_rows,
    validate_update_plane,
)
from ..experiments.qualitybench import (
    INTERVAL_SWEEP,
    QUALITY_LOSS_SWEEP,
    quality_plane_rows,
    validate_quality_plane,
)
from ..experiments.table1 import analytical_rows, measured_rows
from ..experiments.validation import (
    validate_fig3,
    validate_fig4,
    validate_fig5,
    validate_fig8,
    validate_fig11,
    validate_load_plane,
)
from ..telemetry.profiling import census_document, census_fingerprint
from .artifact import BenchArtifact, SCHEMA, stamp

#: allowed benchmark scales, smallest first
SCALES = ("smoke", "quick", "paper", "stress")

#: root-load share the overlay must stay under (the paper's Fig. 5/7
#: bottleneck argument: replicated start servers spread the entry load)
ROOT_SHARE_CEILING = 0.70


def resolve_scale(
    default: str = "quick",
    *,
    env: str = "REPRO_BENCH_SCALE",
    allowed: Sequence[str] = SCALES,
) -> str:
    """Scale from the environment (``REPRO_BENCH_SCALE``) or *default*."""
    scale = os.environ.get(env, default).lower()
    if scale not in allowed:
        raise ValueError(
            f"{env} must be one of {'|'.join(allowed)}, got {scale!r}"
        )
    return scale


def scale_settings(scale: str, seed: int = 1) -> ExperimentSettings:
    """The :class:`ExperimentSettings` preset behind each scale name."""
    if scale == "paper":
        return ExperimentSettings.paper().with_(seed=seed)
    if scale == "quick":
        # The EXPERIMENTS.md quick preset: paper structure, fewer
        # samples.
        return ExperimentSettings.paper().with_(
            num_queries=60, runs=1, seed=seed
        )
    if scale == "smoke":
        return ExperimentSettings.smoke().with_(seed=seed)
    if scale == "stress":
        # Per-shard settings: the stress federation is ~100 shards of
        # 1000 servers x 10 records each (10^5 servers / 10^6 records
        # total), fanned out through the parallel runner. Coarse
        # histograms are deliberate — with 10 records per node the
        # default 1000-bucket resolution is pure overhead.
        return ExperimentSettings(
            num_nodes=1000,
            records_per_node=10,
            num_queries=20,
            runs=1,
            histogram_buckets=100,
            seed=seed,
        )
    raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")


def scale_sweeps(scale: str) -> Dict[str, tuple]:
    """Per-figure sweep points for each scale."""
    if scale == "paper":
        return {
            "nodes": NODE_SWEEP,
            "dims": DIMENSION_SWEEP,
            "records": RECORDS_SWEEP,
            "overlap": OVERLAP_SWEEP,
            "degree": DEGREE_SWEEP,
            "selectivity": SELECTIVITY_SWEEP,
            "queries_per_group": 200,
            "load_rates": (5.0, 20.0, 60.0),
            "load_horizon": 20.0,
            "quality_intervals": INTERVAL_SWEEP,
            "quality_loss": QUALITY_LOSS_SWEEP,
        }
    if scale == "quick":
        return {
            "nodes": (64, 192, 320),
            "dims": (2, 4, 6, 8),
            "records": (50, 200, 500),
            "overlap": (1, 4, 8, 12),
            "degree": (4, 8, 12),
            "selectivity": SELECTIVITY_SWEEP,
            "queries_per_group": 20,
            "load_rates": (5.0, 20.0, 60.0),
            "load_horizon": 12.0,
            "quality_intervals": INTERVAL_SWEEP,
            "quality_loss": QUALITY_LOSS_SWEEP,
        }
    if scale == "smoke":
        return {
            "nodes": (32, 64),
            "dims": (2, 6),
            "records": (50, 150),
            "overlap": (1, 8),
            "degree": (4, 8),
            "selectivity": (0.001, 0.01, 0.03),
            "queries_per_group": 8,
            "load_rates": (5.0, 60.0),
            "load_horizon": 6.0,
            "quality_intervals": (0.5, 1.0, 2.0),
            "quality_loss": (0.0,),
        }
    if scale == "stress":
        # Single-point sweeps at the per-shard size, plus the shard
        # fan-out width. REPRO_STRESS_SHARDS bounds CI smokes without
        # touching the committed full-width baseline.
        return {
            "nodes": (1000,),
            "dims": (6,),
            "records": (10,),
            "overlap": (8,),
            "degree": (8,),
            "selectivity": (0.001, 0.01),
            "queries_per_group": 8,
            "load_rates": (20.0,),
            "load_horizon": 6.0,
            "quality_intervals": (0.5, 1.0, 2.0),
            "quality_loss": (0.0,),
            "shards": int(os.environ.get("REPRO_STRESS_SHARDS", "100")),
            "shard_queries": 4,
        }
    raise ValueError(f"unknown scale {scale!r}; choose from {SCALES}")


Rows = List[Dict[str, object]]
Driver = Callable[[ExperimentSettings, Dict[str, tuple]], Rows]
Shape = Callable[[Rows], List[str]]


@dataclass(frozen=True)
class Scenario:
    """One registered benchmark scenario."""

    name: str
    title: str
    driver: Driver
    #: row-level paper-shape validator (None = provenance-only)
    shape: Optional[Shape] = None


def _small(settings: ExperimentSettings) -> ExperimentSettings:
    return settings.with_(num_nodes=min(settings.num_nodes, 192))


def _validate_table1(rows: Rows) -> List[str]:
    by_design = {
        r["design"]: float(r["mean_bytes_per_server"])
        for r in rows
        if "mean_bytes_per_server" in r
    }
    failures = []
    if not {"ROADS", "SWORD", "Central"} <= set(by_design):
        return ["measured Table I rows missing a design"]
    if not by_design["ROADS"] < by_design["SWORD"] < by_design["Central"]:
        failures.append(
            "storage ordering ROADS < SWORD < Central violated: "
            f"{by_design}"
        )
    return failures


def _stress_driver(settings: ExperimentSettings, sweeps: Dict[str, tuple]) -> "Rows":
    # Imported lazily: parallel.py pulls run_scenario back out of this
    # module for its plan fan-out.
    from .parallel import stress_shard_rows

    return stress_shard_rows(settings, sweeps)


def _validate_stress(rows: "Rows") -> List[str]:
    failures: List[str] = []
    if not rows:
        return ["stress run produced no shard rows"]
    shards = {int(r["shard"]) for r in rows}
    if shards != set(range(len(rows))):
        failures.append(f"shard ids not contiguous: {sorted(shards)[:5]}...")
    for r in rows:
        if float(r["latency_mean_s"]) <= 0:
            failures.append(f"shard {r['shard']} measured no query latency")
        if int(r["update_bytes_epoch"]) <= 0:
            failures.append(f"shard {r['shard']} reported no update traffic")
        if int(r["levels"]) < 2:
            failures.append(f"shard {r['shard']} hierarchy did not branch")
    return failures[:10]


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "table1", "Table I: per-server storage",
            # 800 records a node at every scale: the measured ordering
            # only emerges once records outweigh the fixed-size summaries.
            lambda s, sw: analytical_rows() + measured_rows(
                s.with_(num_nodes=min(s.num_nodes, 96), records_per_node=800)
            ),
            _validate_table1,
        ),
        Scenario(
            "fig3", "Figure 3: latency vs nodes",
            lambda s, sw: fig3_latency_vs_nodes(s, sw["nodes"]),
            validate_fig3,
        ),
        Scenario(
            "fig4", "Figure 4: update overhead vs nodes",
            lambda s, sw: fig4_update_overhead_vs_nodes(s, sw["nodes"]),
            validate_fig4,
        ),
        Scenario(
            "fig5", "Figure 5: query overhead vs nodes",
            lambda s, sw: fig5_query_overhead_vs_nodes(s, sw["nodes"]),
            validate_fig5,
        ),
        Scenario(
            "fig6", "Figure 6: latency vs dimensions",
            lambda s, sw: fig6_latency_vs_dimensions(s, sw["dims"]),
        ),
        Scenario(
            "fig7", "Figure 7: query overhead vs dimensions",
            lambda s, sw: fig7_query_overhead_vs_dimensions(s, sw["dims"]),
        ),
        Scenario(
            "fig8", "Figure 8: update overhead vs records/node",
            lambda s, sw: fig8_update_overhead_vs_records(
                _small(s), sw["records"]
            ),
            validate_fig8,
        ),
        Scenario(
            "fig9", "Figure 9: latency vs overlap factor",
            lambda s, sw: fig9_latency_vs_overlap(_small(s), sw["overlap"]),
        ),
        Scenario(
            "fig10", "Figure 10: latency vs node degree",
            lambda s, sw: fig10_latency_vs_degree(s, sw["degree"]),
        ),
        Scenario(
            "fig11", "Figure 11: response time vs selectivity",
            lambda s, sw: fig11_response_time_vs_selectivity(
                s.with_(runs=1),
                sw["selectivity"],
                queries_per_group=sw["queries_per_group"],
            ),
            validate_fig11,
        ),
        Scenario(
            "overlay", "Per-server load attribution (overlay on/off)",
            lambda s, sw: [],  # rows come from the canonical run
        ),
        Scenario(
            "update_plane",
            "Update-plane propagation lag and staleness under loss",
            lambda s, sw: update_plane_staleness_rows(
                s, LOSS_SWEEP,
                epochs=4 if sw["queries_per_group"] <= 8 else 8,
            ),
            validate_update_plane,
        ),
        Scenario(
            "load_plane",
            "Offered load vs latency/goodput (concurrent serving plane)",
            lambda s, sw: offered_load_rows(
                s, sw["load_rates"], horizon=sw["load_horizon"]
            ),
            validate_load_plane,
        ),
        Scenario(
            "quality_plane",
            "Shadow-oracle quality: update-bytes vs false-positive "
            "frontier, per-summary attribution, zero perturbation",
            lambda s, sw: quality_plane_rows(
                s, sw["quality_intervals"], sw["quality_loss"]
            ),
            validate_quality_plane,
        ),
        Scenario(
            "stress",
            "Sharded federation stress: 10^5 servers / 10^6 records "
            "through the process-pool runner",
            _stress_driver,
            _validate_stress,
        ),
    )
}


def available_scenarios() -> List[str]:
    return sorted(SCENARIOS)


@dataclass(frozen=True)
class RunPlan:
    """Canonical, frozen description of one benchmark run.

    One object carries everything a run needs — scenario, scale, seed,
    sweep overrides and parallelism — so :func:`run_scenario` and the
    process-pool runner (:mod:`repro.bench.parallel`) share a single
    input type and a plan can be pickled to a worker process or
    replayed verbatim.
    Derive variants with :meth:`with_` (``plan.with_(seed=7)``).
    """

    scenario: str
    scale: str = "quick"
    seed: int = 1
    #: worker processes for scenario-internal fan-out (the ``stress``
    #: shard sweep); ``0`` means one per core, ``1`` stays in-process
    workers: int = 1
    #: per-key overrides merged over :func:`scale_sweeps`
    sweeps: Optional[Dict[str, object]] = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; "
                f"available: {available_scenarios()}"
            )
        if self.scale not in SCALES:
            raise ValueError(
                f"unknown scale {self.scale!r}; choose from {SCALES}"
            )
        seed = self.seed
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"seed must be an int >= 0, got {seed!r}")
        if not isinstance(self.workers, int) or self.workers < 0:
            raise ValueError(
                f"workers must be an int >= 0 (0 = one per core), "
                f"got {self.workers!r}"
            )

    def settings(self) -> ExperimentSettings:
        """The fully-resolved :class:`ExperimentSettings` for this plan."""
        return scale_settings(self.scale, self.seed)

    def resolved_sweeps(self) -> Dict[str, object]:
        """Scale sweeps with this plan's overrides and worker count."""
        sweeps: Dict[str, object] = dict(scale_sweeps(self.scale))
        if self.sweeps:
            sweeps.update(self.sweeps)
        sweeps["workers"] = self.workers
        return sweeps

    def rows(self) -> "Rows":
        """The scenario's series rows: its driver at this plan's scale.

        What ``repro figure`` prints, ``repro suite`` archives and an
        artifact's ``rows`` hold — every figure verb resolves a name
        here.
        """
        return SCENARIOS[self.scenario].driver(
            self.settings(), self.resolved_sweeps()
        )

    def with_(self, **kwargs) -> "RunPlan":
        return replace(self, **kwargs)


# -- canonical run -------------------------------------------------------------
def _canonical_block(
    settings: ExperimentSettings, seed: int, telemetry=None
) -> tuple:
    """(registry-derived simulated metrics + per-server load rows, the
    event census they were dispatched under).

    One federation, the scale's own ROADS trial continued
    (:func:`~repro.experiments.runner.roads_trial`, which memoises the
    trial when unobserved): one summary epoch after the trial's stream,
    then the same requests again entering at the root. Unobserved unless
    *telemetry* (:func:`profile_scenario`).
    """
    from ..sim.metrics import QUERY
    from ..telemetry import per_server_load_rows, root_load_share

    system, queries, clients = roads_trial(settings, seed, telemetry)
    root_id = system.hierarchy.root.server_id
    update_report = system.refresh()
    registry = system.metrics
    load_rows = per_server_load_rows(
        registry, category=QUERY, phase="forward", top=10, root_id=root_id
    )
    block = {
        "num_queries": settings.num_queries,
        "latency": registry.merged_histogram("query.latency").summary(),
        "query_bytes_total": registry.bytes_total(QUERY),
        "query_messages_total": registry.messages_total(QUERY),
        "update_bytes_epoch": update_report.total_bytes,
        "update_messages_epoch": update_report.total_messages,
        "root_share_overlay": root_load_share(
            registry, root_id, category=QUERY, phase="forward"
        ),
        "root_share_no_overlay": None,  # the root-entry arm, below
        "top_server_share": load_rows[0]["share"] if load_rows else 0.0,
        "per_server_load": load_rows,
        "events_processed": system.sim.processed,
    }
    census = {kind: dict(per) for kind, per in system.network.census.items()}

    # Root-entry arm, on the same federation, once everything above is
    # read: the epoch has just re-installed every summary, and the arm
    # contributes one ratio of (QUERY, forward) message counts, which do
    # not depend on the clock. Its latencies do (a fresh build's only to
    # the last bits), so nothing latency-shaped may be read after it.
    registry.reset([QUERY])
    drive_queries(system, queries, clients, use_overlay=False)
    block["root_share_no_overlay"] = root_load_share(
        registry, root_id, category=QUERY, phase="forward"
    )
    return block, census


#: the block's plain data, simulated once per process for each (settings,
#: seed); :func:`run_scenario` reads a deep copy, ``repro profile`` never
_shared_block = functools.lru_cache(maxsize=4)(_canonical_block)


def _simulated_invariants(sim: Dict[str, object]) -> List[str]:
    """Paper-shape checks on the canonical block (any scenario)."""
    failures: List[str] = []
    share = float(sim["root_share_overlay"])
    if share >= ROOT_SHARE_CEILING:
        failures.append(
            f"overlay root-load share {share:.1%} >= "
            f"{ROOT_SHARE_CEILING:.0%} ceiling"
        )
    if share >= float(sim["root_share_no_overlay"]):
        failures.append(
            "overlay did not reduce the root-load share "
            f"({share:.1%} with vs "
            f"{float(sim['root_share_no_overlay']):.1%} without)"
        )
    if float(sim["latency"]["count"]) <= 0:
        failures.append("canonical run recorded no latency samples")
    return failures


def _rows_metrics(rows: Rows) -> Dict[str, float]:
    """Column means of the paper series as flat comparable metrics."""
    sums: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for row in rows:
        for col, value in row.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            sums[col] = sums.get(col, 0.0) + float(value)
            counts[col] = counts.get(col, 0) + 1
    return {
        f"rows.{col}.mean": sums[col] / counts[col] for col in sorted(sums)
    }


def profile_scenario(scale: str = "quick", seed: int = 1) -> Dict[str, object]:
    """Profile the canonical run at *scale*; returns the full document.

    The payload behind ``repro profile`` and the only armed run in this
    package: a :class:`~repro.telemetry.profiling.CallPathProfiler`'s
    call-path tree over a fresh canonical block (never the memo's) —
    the run every scenario's artifact shares, so there is no scenario
    to choose — beside the network's event census an artifact stamps.
    """
    from ..telemetry import CallPathProfiler, Telemetry

    profiler = CallPathProfiler()
    telemetry = Telemetry(capacity=200_000)
    telemetry.attach_profiler(profiler)
    _, census = _canonical_block(scale_settings(scale, seed), seed, telemetry)
    document = profiler.document()
    document["census"] = census_document(census)
    document["census_fingerprint"] = census_fingerprint(census)
    return document


def run_scenario(plan: RunPlan) -> BenchArtifact:
    """Run one registered scenario end to end; returns its artifact."""
    if not isinstance(plan, RunPlan):
        raise TypeError(
            f"run_scenario expects a RunPlan; got {type(plan).__name__}"
        )
    scenario = SCENARIOS[plan.scenario]
    settings = plan.settings()
    # The block first: it memoises the scale's own ROADS trial, which a
    # figure may then read (overlay's rows are the block's load rows).
    simulated, census = copy.deepcopy(_shared_block(settings, plan.seed))
    rows = plan.rows() or list(simulated["per_server_load"])

    failures = list(scenario.shape(rows)) if scenario.shape else []
    failures += _simulated_invariants(simulated)

    metrics = _rows_metrics(rows)
    latency = simulated["latency"]
    metrics.update({
        "sim.latency_p50": float(latency["p50"]),
        "sim.latency_p95": float(latency["p95"]),
        "sim.latency_p99": float(latency["p99"]),
        "sim.latency_mean": float(latency["mean"]),
        "sim.query_bytes_per_query": (
            simulated["query_bytes_total"] / max(1, simulated["num_queries"])
        ),
        "sim.update_bytes_epoch": float(simulated["update_bytes_epoch"]),
        "sim.root_share_overlay": float(simulated["root_share_overlay"]),
        "sim.root_share_no_overlay": float(
            simulated["root_share_no_overlay"]
        ),
        "sim.top_server_share": float(simulated["top_server_share"]),
    })

    return BenchArtifact(
        **stamp(plan.scenario, plan.scale, plan.seed, settings),
        settings=asdict(settings),
        rows=rows,
        metrics=metrics,
        simulated=simulated,
        shape={
            "validator": getattr(scenario.shape, "__name__", None),
            "failures": failures,
        },
        profile={
            "census_fingerprint": census_fingerprint(census),
            "census_kinds": {
                kind: sum(per.values()) for kind, per in sorted(census.items())
            },
        },
        schema=SCHEMA,
    )
