"""Trial runner: builds paired systems on a shared workload and measures.

One *trial* = one seeded workload + one ROADS system + one SWORD system
(+ optionally a central repository), with the identical query stream and
client placements fed to each design, so per-figure comparisons are
paired. Figures average trials over ``settings.runs`` seeds; a trial's
numbers are memoised per process (:func:`run_trial`), never its systems.
"""

from __future__ import annotations

import gc
import math
from dataclasses import astuple, dataclass, fields, replace
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
    """One system's numbers over one trial.

    *Federation facts* (``update_bytes_window``, ``levels``) depend on the
    build alone; *stream stats* (``mean_latency_s``, ``mean_query_bytes``)
    also on the query stream, and read NaN when a trial drove none.
    """

    mean_latency_s: float = math.nan
    mean_query_bytes: float = math.nan
    update_bytes_window: int = 0
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
    entry without the overlay); returns it. :func:`roads_trial` gives
    the federation and stream :func:`run_trial` measures."""
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
) -> TrialMeasurement:
    """Drive the trial's query stream through a ROADS, SWORD or central
    system, then read its federation facts (read-only: they come out the
    same after any number of searches)."""
    if isinstance(system, RoadsSystem):
        def ask(q: Query, c: int):
            return system.search(SearchRequest(q, client_node=c)).outcome
    else:
        ask = system.execute_query
    lat, qbytes = [], []
    for q, c in zip(queries, clients):
        o = ask(q, int(c))
        lat.append(o.latency)
        qbytes.append(o.query_bytes)
    return TrialMeasurement(
        mean_latency_s=float(np.mean(lat)) if lat else math.nan,
        mean_query_bytes=float(np.mean(qbytes)) if qbytes else math.nan,
        update_bytes_window=system.update_overhead(
            settings.update_window_seconds
        ),
        levels=getattr(system, "levels", 0),  # a DHT ring has none
    )


#: trial measurements already taken in this process: plain tuples of
#: :class:`TrialMeasurement`'s fields keyed (system, build inputs, query
#: stream), where a stream of None keys the federation facts alone;
#: oldest first, at most ``_MEMO_SIZE`` entries
_MEMO: Dict[tuple, tuple] = {}
_MEMO_SIZE = 4096
#: the settings that shape the query stream; every other one but ``runs``
#: is a build input (``seed`` read as the trial's), and so is the overlap
_STREAM = ("num_queries", "query_dimensions", "query_range_length")


def clear_trial_memo() -> None:
    """Forget every memoised trial: the next one builds its federations."""
    _MEMO.clear()


def trial_keys(
    settings: ExperimentSettings, seed: int,
    overlap_factor: Optional[float] = None, stream: bool = True,
) -> tuple:
    """(build, queried): a trial's memo keys, its build inputs then its
    query stream's (None: the federation facts alone)."""
    build = tuple(
        seed if f.name == "seed" else getattr(settings, f.name)
        for f in fields(settings) if f.name not in _STREAM + ("runs",)
    ) + (overlap_factor,)
    return build, tuple(getattr(settings, n) for n in _STREAM) if stream else None


def _trial_inputs(settings, seed, overlap_factor, queried) -> tuple:
    """(stores, queries, clients): the trial's workload and stream."""
    wcfg, stores = build_workload(settings, seed, overlap_factor=overlap_factor)
    queries, clients = trial_queries(settings, wcfg, seed) if queried else ((), ())
    return stores, queries, clients


def _remember(name: str, build: tuple, queried, m: TrialMeasurement) -> tuple:
    """Memoise one system's measurement, its facts also under None."""
    _MEMO[(name, build, queried)] = measured = astuple(m)
    _MEMO[(name, build, None)] = astuple(
        replace(m, mean_latency_s=math.nan, mean_query_bytes=math.nan)
    )
    while len(_MEMO) > _MEMO_SIZE:
        del _MEMO[next(iter(_MEMO))]
    return measured


def _measure(
    settings: ExperimentSettings, seed: int, overlap_factor: Optional[float],
    names: Sequence[str], build: tuple, queried: Optional[tuple],
) -> Dict[str, tuple]:
    """Build the trial's workload and named systems; memoise each one."""
    builders = {"roads": build_roads, "sword": build_sword, "central": build_central}
    stores, queries, clients = _trial_inputs(settings, seed, overlap_factor, queried)
    return {
        name: _remember(name, build, queried, measure_system(
            builders[name](settings, stores, seed), queries, clients, settings
        ))
        for name in names
    }


def roads_trial(settings: ExperimentSettings, seed: int) -> tuple:
    """(federation, queries, clients): ``run_trial(settings, seed)``'s
    ROADS half, built, measured and memoised as it builds, measures and
    memoises it, and the federation left running."""
    build, queried = trial_keys(settings, seed)
    stores, queries, clients = _trial_inputs(settings, seed, None, queried)
    system = build_roads(settings, stores, seed)
    _remember("roads", build, queried, measure_system(
        system, queries, clients, settings
    ))
    return system, queries, clients


def run_trial(
    settings: ExperimentSettings,
    seed: int,
    *,
    overlap_factor: Optional[float] = None,
    include_sword: bool = True,
    include_central: bool = False,
    stream: bool = True,
) -> TrialResult:
    """One seeded trial with paired systems over the same workload.

    ``stream=False`` asks for the federation facts only: no query is
    generated or driven. Each system's measurement is memoised per
    process under :func:`trial_keys`, the facts by the build inputs
    (nodes, records, degree, buckets, the three intervals, seed,
    overlap) and the stream stats by those plus the query stream's. A
    system already measured is not built again, and ROADS is measured
    before SWORD exists, so its half does not depend on ``include_sword``.
    """
    build, queried = trial_keys(settings, seed, overlap_factor, stream)
    names = ("roads",) + ("sword",) * include_sword + ("central",) * include_central
    measured = {name: _MEMO.get((name, build, queried)) for name in names}
    missing = [name for name in names if measured[name] is None]
    if missing:
        measured.update(
            _measure(settings, seed, overlap_factor, missing, build, queried)
        )
        # A trial's federations are full of reference cycles: free them
        # now, so a sweep's peak memory is one trial's and not a matter
        # of when the collector next runs on its own.
        gc.collect()
    return TrialResult(**{
        name: TrialMeasurement(*measured[name]) for name in names
    })


def average_trials(
    settings: ExperimentSettings,
    *,
    overlap_factor: Optional[float] = None,
    include_sword: bool = True,
    include_central: bool = False,
    stream: bool = True,
) -> Dict[str, TrialMeasurement]:
    """Run ``settings.runs`` trials and average every numeric field."""
    trials = [
        run_trial(
            settings,
            settings.seed + run,
            overlap_factor=overlap_factor,
            include_sword=include_sword,
            include_central=include_central,
            stream=stream,
        )
        for run in range(settings.runs)
    ]
    return {
        name: _mean([getattr(t, name) for t in trials])
        for name in ("roads", "sword", "central")
        if getattr(trials[0], name) is not None
    }


#: how a field folds across trials when it is not the plain mean
_FOLDS = {
    "update_bytes_window": lambda values: int(np.mean(values)),
    "levels": lambda values: int(round(np.mean(values))),
}


def _mean(measurements: List[TrialMeasurement]) -> TrialMeasurement:
    return TrialMeasurement(**{
        f.name: _FOLDS.get(f.name, lambda values: float(np.mean(values)))(
            [getattr(m, f.name) for m in measurements]
        )
        for f in fields(TrialMeasurement)
    })
