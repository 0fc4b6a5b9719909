"""Record workload generation.

Builds per-node record stores following the paper's evaluation setup:
16 numeric attributes, four per distribution family, 500 records per node
by default. The optional *overlap factor* mode (Figure 9) confines each
server's data on the first eight attributes to a random range of length
``Of / num_nodes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..records.attribute import numeric
from ..records.schema import Schema
from ..records.store import RecordStore
from ..sim.rng import SeedSequenceFactory
from .distributions import (
    gaussian_values,
    overlap_values,
    pareto_values,
    range_values,
    uniform_values,
)

#: family order used when laying out attributes and cycling query dims
FAMILY_ORDER = ("uniform", "range", "gaussian", "pareto")
#: attributes per family: 16 in all, as in Section V
ATTRS_PER_FAMILY = 4
#: length of the sub-range each node confines its range attributes to
RANGE_LENGTH = 0.5
#: spread of each node's Gaussian attributes around their per-node mean
GAUSSIAN_SIGMA = 0.01
#: tail index of the Pareto attributes, and the range their per-node
#: scale is drawn from
PARETO_SHAPE = 3.0
PARETO_SCALE_RANGE = (0.005, 0.04)


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the generated record workload.

    The default reproduces Section V: 320 nodes × 500 records × 16
    attributes (4 uniform, 4 range, 4 Gaussian, 4 Pareto). Every node
    holds ``records_per_node`` records.
    """

    num_nodes: int = 320
    records_per_node: int = 500
    #: Figure 9 mode: when set, the first ``2 * ATTRS_PER_FAMILY``
    #: attributes are confined per server to a range of ``Of/num_nodes``
    overlap_factor: Optional[float] = None
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.records_per_node < 0:
            raise ValueError("num_nodes >= 1 and records_per_node >= 0 required")
        if self.overlap_factor is not None and not self.overlap_factor > 0:
            raise ValueError(
                f"overlap_factor must be positive, got {self.overlap_factor}"
            )

    @property
    def num_attributes(self) -> int:
        return ATTRS_PER_FAMILY * len(FAMILY_ORDER)

    def attribute_names(self) -> List[str]:
        """Names grouped by family: u0..u3, r0..r3, g0..g3, p0..p3."""
        out = []
        for fam in FAMILY_ORDER:
            out.extend(f"{fam[0]}{i}" for i in range(ATTRS_PER_FAMILY))
        return out

    def family_of(self, name: str) -> str:
        for fam in FAMILY_ORDER:
            if name.startswith(fam[0]):
                return fam
        raise KeyError(f"unknown attribute {name!r}")


def make_schema(config: WorkloadConfig) -> Schema:
    """Unit-range numeric schema for the configured workload."""
    return Schema(numeric(name) for name in config.attribute_names())


def _node_column(family: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if family == "uniform":
        return uniform_values(rng, n)
    if family == "range":
        return range_values(rng, n, RANGE_LENGTH)
    if family == "gaussian":
        return gaussian_values(rng, n, sigma=GAUSSIAN_SIGMA)
    if family == "pareto":
        return pareto_values(
            rng, n, shape=PARETO_SHAPE, scale_range=PARETO_SCALE_RANGE
        )
    raise KeyError(f"unknown family {family!r}")


def generate_node_store(
    config: WorkloadConfig,
    node_id: int,
    schema: Optional[Schema] = None,
    seeds: Optional[SeedSequenceFactory] = None,
) -> RecordStore:
    """The record store of one node."""
    if schema is None:
        schema = make_schema(config)
    if seeds is None:
        seeds = SeedSequenceFactory(config.seed)
    rng = seeds.fresh_generator(f"records:{node_id}")
    n = config.records_per_node
    names = config.attribute_names()
    overlap_attrs = (
        set(names[: 2 * ATTRS_PER_FAMILY])
        if config.overlap_factor is not None
        else set()
    )
    columns = np.empty((n, len(names)), dtype=np.float64)
    for j, name in enumerate(names):
        if name in overlap_attrs:
            length = min(1.0, config.overlap_factor / config.num_nodes)
            columns[:, j] = overlap_values(rng, n, length)
        else:
            columns[:, j] = _node_column(config.family_of(name), rng, n)
    return RecordStore.from_arrays(
        schema, columns, [], owner=f"owner-{node_id}"
    )


def generate_node_stores(config: WorkloadConfig) -> List[RecordStore]:
    """One record store per node, independently seeded."""
    schema = make_schema(config)
    seeds = SeedSequenceFactory(config.seed)
    return [
        generate_node_store(config, i, schema, seeds)
        for i in range(config.num_nodes)
    ]


def merge_stores(stores: Sequence[RecordStore]) -> RecordStore:
    """All nodes' records in one store (global reference for selectivity)."""
    return RecordStore.concat(stores)
