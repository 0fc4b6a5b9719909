"""Federated server hierarchy: formation, aggregation, maintenance."""

from .aggregation import AggregationReport
from .churn import ChurnConfig, ChurnProcess, ChurnStats
from .join import Hierarchy, JoinError, build_hierarchy
from .maintenance import MaintenanceConfig, MaintenanceProtocol
from .node import AttachedOwner, BranchStats, Server
from .render import default_label, render_tree, tree_stats

__all__ = [
    "Server",
    "AttachedOwner",
    "BranchStats",
    "Hierarchy",
    "JoinError",
    "build_hierarchy",
    "AggregationReport",
    "MaintenanceConfig",
    "MaintenanceProtocol",
    "ChurnConfig",
    "ChurnProcess",
    "ChurnStats",
    "render_tree",
    "tree_stats",
    "default_label",
]
