"""Experiment drivers: one function per evaluation figure.

Every driver returns a list of row dicts — the same series the paper
plots — and takes an :class:`~repro.experiments.config.ExperimentSettings`
so benchmarks can run them at paper scale or scaled down. Use
:mod:`repro.experiments.report` to print them as aligned tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..prototype.backend import BackendCostModel
from ..prototype.response import (
    CentralResponder,
    RoadsResponder,
    summarize_responses,
)
from ..sim.rng import SeedSequenceFactory
from ..workload.generator import merge_stores
from ..workload.queries import generate_selectivity_groups
from .config import (
    DEGREE_SWEEP,
    DIMENSION_SWEEP,
    NODE_SWEEP,
    OVERLAP_SWEEP,
    RECORDS_SWEEP,
    SELECTIVITY_SWEEP,
    ExperimentSettings,
)
from .runner import (
    average_trials,
    build_central,
    build_roads,
    build_workload,
)

Row = Dict[str, float]


def fig3_latency_vs_nodes(
    settings: ExperimentSettings = ExperimentSettings.paper(),
    node_sweep: Sequence[int] = NODE_SWEEP,
) -> List[Row]:
    """Figure 3: query latency vs number of nodes.

    Expected shape: ROADS grows logarithmically (with jumps at hierarchy
    level boundaries) and sits 40-60% below SWORD, which grows linearly.
    """
    rows: List[Row] = []
    for n in node_sweep:
        avg = average_trials(settings.with_(num_nodes=n))
        rows.append(
            {
                "nodes": n,
                "roads_latency_ms": avg["roads"].mean_latency_s * 1000,
                "sword_latency_ms": avg["sword"].mean_latency_s * 1000,
                "roads_levels": avg["roads"].levels,
            }
        )
    return rows


def fig4_update_overhead_vs_nodes(
    settings: ExperimentSettings = ExperimentSettings.paper(),
    node_sweep: Sequence[int] = NODE_SWEEP,
) -> List[Row]:
    """Figure 4: update message overhead vs number of nodes (log scale).

    Expected shape: ROADS 1-2 orders of magnitude below SWORD.
    """
    rows: List[Row] = []
    for n in node_sweep:
        avg = average_trials(settings.with_(num_nodes=n), stream=False)
        rows.append(
            {
                "nodes": n,
                "roads_update_bytes": avg["roads"].update_bytes_window,
                "sword_update_bytes": avg["sword"].update_bytes_window,
                "ratio": (
                    avg["sword"].update_bytes_window
                    / max(1, avg["roads"].update_bytes_window)
                ),
            }
        )
    return rows


def fig5_query_overhead_vs_nodes(
    settings: ExperimentSettings = ExperimentSettings.paper(),
    node_sweep: Sequence[int] = NODE_SWEEP,
) -> List[Row]:
    """Figure 5: query message overhead vs number of nodes.

    Expected shape: ROADS 2-5x above SWORD (it must visit every owner
    with possibly-matching data — the voluntary-sharing cost).
    """
    rows: List[Row] = []
    for n in node_sweep:
        avg = average_trials(settings.with_(num_nodes=n))
        rows.append(
            {
                "nodes": n,
                "roads_query_bytes": avg["roads"].mean_query_bytes,
                "sword_query_bytes": avg["sword"].mean_query_bytes,
                "ratio": (
                    avg["roads"].mean_query_bytes
                    / max(1.0, avg["sword"].mean_query_bytes)
                ),
            }
        )
    return rows


def fig6_latency_vs_dimensions(
    settings: ExperimentSettings = ExperimentSettings.paper(),
    dimension_sweep: Sequence[int] = DIMENSION_SWEEP,
) -> List[Row]:
    """Figure 6: latency vs query dimensionality.

    Expected shape: ROADS latency falls (~40% from 2 to 8 dimensions, as
    every dimension confines the search); SWORD stays flat (one ring is
    used regardless of dimensionality).
    """
    rows: List[Row] = []
    for q in dimension_sweep:
        avg = average_trials(settings.with_(query_dimensions=q))
        rows.append(
            {
                "dimensions": q,
                "roads_latency_ms": avg["roads"].mean_latency_s * 1000,
                "sword_latency_ms": avg["sword"].mean_latency_s * 1000,
            }
        )
    return rows


def fig7_query_overhead_vs_dimensions(
    settings: ExperimentSettings = ExperimentSettings.paper(),
    dimension_sweep: Sequence[int] = DIMENSION_SWEEP,
) -> List[Row]:
    """Figure 7: query overhead vs dimensionality.

    Expected shape: SWORD grows linearly (bigger query messages over the
    same path); ROADS dips first (smaller search scope) then rises again
    (scope reduction flattens out while messages keep growing).
    """
    rows: List[Row] = []
    for q in dimension_sweep:
        avg = average_trials(settings.with_(query_dimensions=q))
        rows.append(
            {
                "dimensions": q,
                "roads_query_bytes": avg["roads"].mean_query_bytes,
                "sword_query_bytes": avg["sword"].mean_query_bytes,
            }
        )
    return rows


def fig8_update_overhead_vs_records(
    settings: ExperimentSettings = ExperimentSettings.paper(),
    records_sweep: Sequence[int] = RECORDS_SWEEP,
) -> List[Row]:
    """Figure 8: update overhead vs records per node.

    Expected shape: ROADS constant (fixed-size summaries); SWORD linear
    (each record is re-exported).
    """
    rows: List[Row] = []
    for k in records_sweep:
        avg = average_trials(settings.with_(records_per_node=k), stream=False)
        rows.append(
            {
                "records_per_node": k,
                "roads_update_bytes": avg["roads"].update_bytes_window,
                "sword_update_bytes": avg["sword"].update_bytes_window,
            }
        )
    return rows


def fig9_latency_vs_overlap(
    settings: ExperimentSettings = ExperimentSettings.paper(),
    overlap_sweep: Sequence[float] = OVERLAP_SWEEP,
) -> List[Row]:
    """Figure 9: ROADS latency vs data overlap factor.

    Expected shape: latency creeps up slightly (~8% over Of = 1..12) as
    more servers hold matching records.
    """
    rows: List[Row] = []
    for of in overlap_sweep:
        avg = average_trials(
            settings,
            overlap_factor=float(of),
            include_sword=False,
        )
        rows.append(
            {
                "overlap_factor": of,
                "roads_latency_ms": avg["roads"].mean_latency_s * 1000,
                "roads_query_bytes": avg["roads"].mean_query_bytes,
            }
        )
    return rows


def fig10_latency_vs_degree(
    settings: ExperimentSettings = ExperimentSettings.paper(),
    degree_sweep: Sequence[int] = DEGREE_SWEEP,
) -> List[Row]:
    """Figure 10: ROADS latency vs node degree.

    Expected shape: latency falls as the hierarchy flattens (degree 4 to
    12 cut the paper's latency from ~1000 ms to ~650 ms); query overhead
    falls for the same reason.
    """
    rows: List[Row] = []
    for k in degree_sweep:
        avg = average_trials(settings.with_(max_children=k), include_sword=False)
        rows.append(
            {
                "degree": k,
                "roads_latency_ms": avg["roads"].mean_latency_s * 1000,
                "roads_query_bytes": avg["roads"].mean_query_bytes,
                "levels": avg["roads"].levels,
            }
        )
    return rows


def fig11_response_time_vs_selectivity(
    settings: ExperimentSettings = ExperimentSettings.paper(),
    selectivity_sweep: Sequence[float] = SELECTIVITY_SWEEP,
    *,
    queries_per_group: int = 200,
    cost_model: Optional[BackendCostModel] = None,
) -> List[Row]:
    """Figure 11: prototype total response time vs query selectivity.

    Expected shape: the central repository wins at low selectivity (one
    round trip); as selectivity grows, retrieval dominates and ROADS'
    parallel per-owner retrieval becomes comparable (~1%) then better
    (~3%).
    """
    seed = settings.seed
    wcfg, stores = build_workload(settings, seed)
    reference = merge_stores(stores)
    groups = generate_selectivity_groups(
        wcfg,
        reference,
        targets=selectivity_sweep,
        queries_per_group=queries_per_group,
        dimensions=settings.query_dimensions,
    )
    roads = build_roads(settings, stores, seed)
    central = build_central(settings, stores, seed)
    roads_resp = RoadsResponder(roads, cost_model)
    central_resp = CentralResponder(central, cost_model)
    rng = SeedSequenceFactory(seed).fresh_generator("fig11-clients")

    rows: List[Row] = []
    for group in groups:
        clients = rng.integers(0, settings.num_nodes, size=len(group.queries))
        r_out = [
            roads_resp.respond(q, int(c)) for q, c in zip(group.queries, clients)
        ]
        c_out = [
            central_resp.respond(q, int(c)) for q, c in zip(group.queries, clients)
        ]
        r_sum, c_sum = summarize_responses(r_out), summarize_responses(c_out)
        rows.append(
            {
                "selectivity_pct": group.target * 100,
                "roads_mean_ms": r_sum["mean_seconds"] * 1000,
                "roads_p90_ms": r_sum["p90_seconds"] * 1000,
                "central_mean_ms": c_sum["mean_seconds"] * 1000,
                "central_p90_ms": c_sum["p90_seconds"] * 1000,
                "queries": r_sum["queries"],
            }
        )
    return rows
