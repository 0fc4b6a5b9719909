"""Record workload generation.

Builds per-node record stores following the paper's evaluation setup:
16 numeric attributes, four per distribution family, 500 records per node
by default. The optional *overlap factor* mode (Figure 9) confines each
server's data on the first eight attributes to a random range of length
``Of / num_nodes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the generated record workload.

    The default reproduces Section V: 320 nodes × 500 records × 16
    attributes (4 uniform, 4 range, 4 Gaussian, 4 Pareto).
    """

    num_nodes: int = 320
    records_per_node: int = 500
    attrs_per_family: int = 4
    range_length: float = 0.5
    gaussian_sigma: float = 0.01
    pareto_shape: float = 3.0
    pareto_scale_range: Tuple[float, float] = (0.005, 0.04)
    #: Figure 9 mode: when set, the first ``2 * attrs_per_family``
    #: attributes are confined per server to a range of ``Of/num_nodes``
    overlap_factor: Optional[float] = None
    #: how records are apportioned: ``"fixed"`` gives every owner exactly
    #: ``records_per_node``; ``"zipf"`` draws skewed counts with the same
    #: mean — real federations are heterogeneous
    records_distribution: str = "fixed"
    zipf_exponent: float = 1.5
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.records_per_node < 0:
            raise ValueError("num_nodes >= 1 and records_per_node >= 0 required")
        if self.attrs_per_family < 1:
            raise ValueError("attrs_per_family must be >= 1")
        if self.overlap_factor is not None and self.overlap_factor <= 0:
            raise ValueError("overlap_factor must be positive")
        if self.records_distribution not in ("fixed", "zipf"):
            raise ValueError(
                f"unknown records_distribution {self.records_distribution!r}"
            )
        if self.zipf_exponent <= 1.0:
            raise ValueError("zipf_exponent must be > 1")

    @property
    def num_attributes(self) -> int:
        return self.attrs_per_family * len(FAMILY_ORDER)

    def attribute_names(self) -> List[str]:
        """Names grouped by family: u0..u3, r0..r3, g0..g3, p0..p3."""
        out = []
        for fam in FAMILY_ORDER:
            out.extend(f"{fam[0]}{i}" for i in range(self.attrs_per_family))
        return out

    def family_of(self, name: str) -> str:
        for fam in FAMILY_ORDER:
            if name.startswith(fam[0]):
                return fam
        raise KeyError(f"unknown attribute {name!r}")


def make_schema(config: WorkloadConfig) -> Schema:
    """Unit-range numeric schema for the configured workload."""
    return Schema(numeric(name) for name in config.attribute_names())


def _node_column(
    family: str,
    rng: np.random.Generator,
    n: int,
    config: WorkloadConfig,
) -> np.ndarray:
    if family == "uniform":
        return uniform_values(rng, n)
    if family == "range":
        return range_values(rng, n, config.range_length)
    if family == "gaussian":
        return gaussian_values(rng, n, sigma=config.gaussian_sigma)
    if family == "pareto":
        return pareto_values(
            rng,
            n,
            shape=config.pareto_shape,
            scale_range=config.pareto_scale_range,
        )
    raise KeyError(f"unknown family {family!r}")


def records_for_node(
    config: WorkloadConfig,
    node_id: int,
    seeds: Optional[SeedSequenceFactory] = None,
) -> int:
    """How many records *node_id* holds under the configured skew."""
    if config.records_distribution == "fixed":
        return config.records_per_node
    if seeds is None:
        seeds = SeedSequenceFactory(config.seed)
    rng = seeds.fresh_generator(f"record-count:{node_id}")
    # Zipf draw rescaled so the mean stays near records_per_node; capped
    # so a single owner cannot dwarf the rest of the federation.
    norm_rng = SeedSequenceFactory(config.seed).fresh_generator("zipf-norm")
    zipf_mean = float(
        np.mean(np.minimum(norm_rng.zipf(config.zipf_exponent, 4096), 20 * 50))
    )
    raw = min(int(rng.zipf(config.zipf_exponent)), 1000)
    count = int(round(raw / zipf_mean * config.records_per_node))
    return int(np.clip(count, 1, config.records_per_node * 20))


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
    n = records_for_node(config, node_id, seeds)
    names = config.attribute_names()
    overlap_attrs = (
        set(names[: 2 * config.attrs_per_family])
        if config.overlap_factor is not None
        else set()
    )
    columns = np.empty((n, len(names)), dtype=np.float64)
    for j, name in enumerate(names):
        if name in overlap_attrs:
            length = min(1.0, config.overlap_factor / config.num_nodes)
            columns[:, j] = overlap_values(rng, n, length)
        else:
            columns[:, j] = _node_column(config.family_of(name), rng, n, config)
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
