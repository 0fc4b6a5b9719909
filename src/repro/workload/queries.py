"""Query workload generation.

Default queries follow Section V: 500 queries of 6 dimensions — two on
uniform attributes, two on range attributes, one each on a Gaussian and a
Pareto attribute — each dimension a range of length 0.25 at a random
location. Varying dimensionality (Figure 6/7) cycles dimensions through
the family order so, e.g., 8-dimensional queries use two attributes of
every family.

For the prototype benchmark (Figure 11), queries are calibrated against
the global record population to hit target selectivities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..query.predicate import RangePredicate
from ..query.query import Query
from ..query.selectivity import calibrate_to_selectivity
from ..records.store import RecordStore
from ..sim.rng import SeedSequenceFactory
from .generator import FAMILY_ORDER, WorkloadConfig


def query_attribute_cycle(config: WorkloadConfig, dimensions: int) -> List[str]:
    """Attribute names for a *dimensions*-dimensional query.

    Cycles ``u0, r0, g0, p0, u1, r1, g1, p1, ...`` so the default
    ``dimensions=6`` yields two uniform, two range, one Gaussian and one
    Pareto dimension, exactly the paper's mix.
    """
    if dimensions < 1:
        raise ValueError("dimensions must be >= 1")
    max_dims = config.num_attributes
    if dimensions > max_dims:
        raise ValueError(
            f"cannot build {dimensions}-dimensional query over "
            f"{max_dims} attributes"
        )
    out = []
    for i in range(dimensions):
        fam = FAMILY_ORDER[i % len(FAMILY_ORDER)]
        idx = i // len(FAMILY_ORDER)
        out.append(f"{fam[0]}{idx}")
    return out


def generate_query(
    config: WorkloadConfig,
    rng: np.random.Generator,
    *,
    dimensions: int = 6,
    range_length: float = 0.25,
    requester: Optional[str] = None,
) -> Query:
    """One random multi-dimensional range query."""
    if not (0.0 < range_length <= 1.0):
        raise ValueError(f"range_length must be in (0, 1], got {range_length}")
    preds = []
    for name in query_attribute_cycle(config, dimensions):
        lo = float(rng.uniform(0.0, 1.0 - range_length))
        preds.append(RangePredicate(name, lo, lo + range_length))
    return Query(tuple(preds), requester=requester)


def generate_queries(
    config: WorkloadConfig,
    *,
    num_queries: int = 500,
    dimensions: int = 6,
    range_length: float = 0.25,
    seed_label: str = "queries",
) -> List[Query]:
    """The paper's query workload (500 six-dimensional queries)."""
    seeds = SeedSequenceFactory(config.seed)
    rng = seeds.fresh_generator(seed_label)
    return [
        generate_query(
            config, rng, dimensions=dimensions, range_length=range_length
        )
        for _ in range(num_queries)
    ]


@dataclass
class SelectivityGroup:
    """Queries sharing one target selectivity (Figure 11 grouping)."""

    target: float
    queries: List[Query]


def generate_selectivity_groups(
    config: WorkloadConfig,
    reference: RecordStore,
    *,
    targets: Sequence[float] = (0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03),
    queries_per_group: int = 200,
    dimensions: int = 6,
    tolerance: float = 0.5,
    max_attempts_factor: int = 30,
) -> List[SelectivityGroup]:
    """Queries grouped by selectivity against the *reference* population.

    Random queries are calibrated (range widths rescaled) to each target;
    queries that cannot reach a target are discarded and regenerated, up
    to ``max_attempts_factor * queries_per_group`` attempts per group.
    """
    seeds = SeedSequenceFactory(config.seed)
    groups: List[SelectivityGroup] = []
    for target in targets:
        rng = seeds.fresh_generator(f"selectivity:{target}")
        accepted: List[Query] = []
        attempts = 0
        max_attempts = max_attempts_factor * queries_per_group
        while len(accepted) < queries_per_group and attempts < max_attempts:
            attempts += 1
            base = generate_query(config, rng, dimensions=dimensions)
            calibrated = calibrate_to_selectivity(
                base, reference, target, tolerance=tolerance
            )
            if calibrated is not None:
                accepted.append(calibrated)
        if not accepted:
            raise RuntimeError(
                f"could not calibrate any query to selectivity {target}"
            )
        groups.append(SelectivityGroup(target=target, queries=accepted))
    return groups
