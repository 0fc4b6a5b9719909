"""Trial runner: builds paired systems on a shared workload and measures.

One *trial* = one seeded workload + one ROADS system + one SWORD system
(+ optionally a central repository), with the identical query stream and
client placements fed to each design, so per-figure comparisons are
paired. Figures average trials over ``settings.runs`` seeds.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..central.system import CentralConfig, CentralSystem
from ..query.query import Query
from ..records.store import RecordStore
from ..roads.config import RoadsConfig
from ..roads.search import SearchRequest
from ..roads.system import RoadsSystem
from ..sim.rng import SeedSequenceFactory
from ..summaries.config import SummaryConfig
from ..sword.system import SwordConfig, SwordSystem
from ..workload.generator import WorkloadConfig, generate_node_stores
from ..workload.queries import generate_queries
from .config import ExperimentSettings


@dataclass
class TrialMeasurement:
    """Aggregate metrics of one system over one trial's query stream."""

    mean_latency_s: float = 0.0
    latency_std_s: float = 0.0
    latency_p90_s: float = 0.0
    mean_query_bytes: float = 0.0
    mean_servers_contacted: float = 0.0
    mean_matches: float = 0.0
    update_bytes_window: int = 0
    storage_bytes_mean: float = 0.0
    storage_bytes_max: int = 0
    levels: int = 0


@dataclass
class TrialResult:
    roads: TrialMeasurement
    sword: Optional[TrialMeasurement] = None
    central: Optional[TrialMeasurement] = None


def build_workload(
    settings: ExperimentSettings,
    seed: int,
    *,
    overlap_factor: Optional[float] = None,
) -> tuple:
    """(workload config, per-node stores) for one trial."""
    wcfg = WorkloadConfig(
        num_nodes=settings.num_nodes,
        records_per_node=settings.records_per_node,
        overlap_factor=overlap_factor,
        seed=seed,
    )
    return wcfg, generate_node_stores(wcfg)


def build_roads(
    settings: ExperimentSettings,
    stores: Sequence[RecordStore],
    seed: int,
    telemetry=None,
) -> RoadsSystem:
    """The figure drivers' federation: converged, update plane idle.

    The modelled system re-installs a static store's summary every
    ``summary_interval``; here that is a TTL no clock reaches — at the
    300 s default a paper-scale stream of 500 back-to-back searches
    outlives its summaries and the rest are pruned to one server.
    """
    cfg = RoadsConfig(
        num_nodes=settings.num_nodes,
        records_per_node=settings.records_per_node,
        max_children=settings.max_children,
        summary=SummaryConfig(
            histogram_buckets=settings.histogram_buckets, ttl=math.inf
        ),
        summary_interval=settings.summary_interval,
        record_interval=settings.record_interval,
        seed=seed,
    )
    return RoadsSystem.build(cfg, stores, telemetry=telemetry)


def build_sword(
    settings: ExperimentSettings,
    stores: Sequence[RecordStore],
    seed: int,
) -> SwordSystem:
    cfg = SwordConfig(
        num_nodes=settings.num_nodes,
        records_per_node=settings.records_per_node,
        record_interval=settings.record_interval,
        seed=seed,
    )
    return SwordSystem(cfg, stores)


def build_central(
    settings: ExperimentSettings,
    stores: Sequence[RecordStore],
    seed: int,
) -> CentralSystem:
    cfg = CentralConfig(
        num_nodes=settings.num_nodes,
        record_interval=settings.record_interval,
        seed=seed,
    )
    return CentralSystem(cfg, stores)


def trial_queries(
    settings: ExperimentSettings, wcfg: WorkloadConfig, seed: int
) -> tuple:
    """(queries, client node per query) for one trial."""
    queries = generate_queries(
        wcfg,
        num_queries=settings.num_queries,
        dimensions=settings.query_dimensions,
        range_length=settings.query_range_length,
    )
    rng = SeedSequenceFactory(seed).fresh_generator("clients")
    clients = rng.integers(0, settings.num_nodes, size=len(queries))
    return queries, clients


def drive_queries(
    system: RoadsSystem,
    queries: Sequence[Query],
    clients: Sequence[int],
    *,
    use_overlay: bool = True,
) -> RoadsSystem:
    """Drive the trial's queries through *system* back to back (root
    entry without the overlay); returns it.

    Over :func:`build_roads` of :func:`build_workload`'s stores, fed
    :func:`trial_queries`, it sees the same seeded workload and client
    placement as :func:`run_trial`, so its registry's per-server
    attribution matches the paired measurements.
    """
    system.search_many([
        SearchRequest(q, client_node=int(c), use_overlay=use_overlay)
        for q, c in zip(queries, clients)
    ])
    return system


def measure_system(
    system,
    queries: Sequence[Query],
    clients: Sequence[int],
    settings: ExperimentSettings,
    *,
    measure_updates: bool = True,
) -> TrialMeasurement:
    """Drive the trial's query stream through a ROADS or SWORD system."""
    if isinstance(system, RoadsSystem):
        def ask(q: Query, c: int):
            return system.search(SearchRequest(q, client_node=c)).outcome
    else:
        ask = system.execute_query
    lat, qbytes, servers, matches = [], [], [], []
    for q, c in zip(queries, clients):
        o = ask(q, int(c))
        lat.append(o.latency)
        qbytes.append(o.query_bytes)
        servers.append(o.servers_contacted)
        matches.append(o.total_matches)
    storage = system.storage_bytes_by_server()
    return TrialMeasurement(
        mean_latency_s=float(np.mean(lat)),
        latency_std_s=float(np.std(lat)),
        latency_p90_s=float(np.percentile(lat, 90)),
        mean_query_bytes=float(np.mean(qbytes)),
        mean_servers_contacted=float(np.mean(servers)),
        mean_matches=float(np.mean(matches)),
        update_bytes_window=(
            system.update_overhead(settings.update_window_seconds)
            if measure_updates
            else 0
        ),
        storage_bytes_mean=float(np.mean(list(storage.values()))),
        storage_bytes_max=int(max(storage.values())),
        levels=getattr(system, "levels", 0),  # a DHT ring has none
    )


def measure_central(
    system: CentralSystem,
    queries: Sequence[Query],
    clients: Sequence[int],
    settings: ExperimentSettings,
) -> TrialMeasurement:
    lat = [system.execute_query(q, int(c)).latency for q, c in zip(queries, clients)]
    return TrialMeasurement(
        mean_latency_s=float(np.mean(lat)),
        mean_query_bytes=float(np.mean([q.size_bytes for q in queries])),
        mean_servers_contacted=1.0,
        update_bytes_window=system.update_overhead(settings.update_window_seconds),
        storage_bytes_mean=float(system.storage_bytes()),
        storage_bytes_max=system.storage_bytes(),
        levels=1,
    )


def run_trial(
    settings: ExperimentSettings,
    seed: int,
    *,
    overlap_factor: Optional[float] = None,
    include_sword: bool = True,
    include_central: bool = False,
    measure_updates: bool = True,
) -> TrialResult:
    """One seeded trial with paired systems over the same workload."""
    wcfg, stores = build_workload(settings, seed, overlap_factor=overlap_factor)
    queries, clients = trial_queries(settings, wcfg, seed)
    roads = build_roads(settings, stores, seed)
    result = TrialResult(
        roads=measure_system(
            roads, queries, clients, settings, measure_updates=measure_updates
        )
    )
    if include_sword:
        sword = build_sword(settings, stores, seed)
        result.sword = measure_system(
            sword, queries, clients, settings, measure_updates=measure_updates
        )
    if include_central:
        central = build_central(settings, stores, seed)
        result.central = measure_central(central, queries, clients, settings)
    return result


def average_trials(
    settings: ExperimentSettings,
    *,
    overlap_factor: Optional[float] = None,
    include_sword: bool = True,
    include_central: bool = False,
    measure_updates: bool = True,
) -> Dict[str, TrialMeasurement]:
    """Run ``settings.runs`` trials and average every numeric field."""
    trials = []
    for run in range(settings.runs):
        trials.append(run_trial(
            settings,
            settings.seed + run,
            overlap_factor=overlap_factor,
            include_sword=include_sword,
            include_central=include_central,
            measure_updates=measure_updates,
        ))
        # A trial's federations are full of reference cycles: free them
        # now, so a sweep's peak memory is one trial's and not a matter
        # of when the collector next runs on its own.
        gc.collect()
    out: Dict[str, TrialMeasurement] = {"roads": _mean([t.roads for t in trials])}
    if include_sword:
        out["sword"] = _mean([t.sword for t in trials])
    if include_central:
        out["central"] = _mean([t.central for t in trials])
    return out


#: how a field folds across trials when it is not the plain mean
_FOLDS = {
    "update_bytes_window": lambda values: int(np.mean(values)),
    "storage_bytes_max": lambda values: int(max(values)),
    "levels": lambda values: int(round(np.mean(values))),
}


def _mean(measurements: List[TrialMeasurement]) -> TrialMeasurement:
    return TrialMeasurement(**{
        f.name: _FOLDS.get(f.name, lambda values: float(np.mean(values)))(
            [getattr(m, f.name) for m in measurements]
        )
        for f in fields(TrialMeasurement)
    })
