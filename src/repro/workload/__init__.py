"""Workload generation: record populations and query streams."""

from .distributions import (
    gaussian_values,
    overlap_values,
    pareto_values,
    range_values,
    uniform_values,
)
from .catalogs import (
    STREAM_SPECIALITIES,
    compute_org_inventory,
    stream_site_catalog,
)
from .dynamics import DynamicsConfig, RecordDynamics
from .generator import (
    FAMILY_ORDER,
    WorkloadConfig,
    generate_node_store,
    generate_node_stores,
    make_schema,
    merge_stores,
)
from .queries import (
    SelectivityGroup,
    generate_queries,
    generate_query,
    generate_selectivity_groups,
    query_attribute_cycle,
)

__all__ = [
    "FAMILY_ORDER",
    "uniform_values",
    "range_values",
    "gaussian_values",
    "pareto_values",
    "overlap_values",
    "WorkloadConfig",
    "DynamicsConfig",
    "stream_site_catalog",
    "compute_org_inventory",
    "STREAM_SPECIALITIES",
    "RecordDynamics",
    "make_schema",
    "generate_node_store",
    "generate_node_stores",
    "merge_stores",
    "generate_query",
    "generate_queries",
    "query_attribute_cycle",
    "SelectivityGroup",
    "generate_selectivity_groups",
]
