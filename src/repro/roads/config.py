"""ROADS system configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..summaries.config import SummaryConfig


@dataclass(frozen=True)
class RoadsConfig:
    """Parameters of a simulated ROADS deployment.

    Defaults follow the paper's evaluation setup (Section V): 320 nodes,
    500 records each, a maximum of 8 children per server, 1000 histogram
    buckets per attribute, 5-D synthesized delay space. Every node is both
    a server and a resource owner controlling that server (so raw records
    stay local and only summaries travel).

    ``summary_interval`` is the paper's ``t_s`` (how often summaries are
    refreshed/propagated). The paper's ``t_r`` (how often records change)
    is read where records are re-registered or changed: ``SwordConfig``,
    ``CentralConfig`` and ``DynamicsConfig``.
    """

    num_nodes: int = 320
    records_per_node: int = 500
    max_children: int = 8
    summary: SummaryConfig = field(default_factory=SummaryConfig)
    summary_interval: float = 60.0
    #: delta propagation: unchanged summaries send only a keep-alive
    #: header each epoch instead of the full summary
    delta_updates: bool = False
    #: probability that any individual message is silently lost in
    #: transit (update-plane robustness experiments; 0 disables)
    loss_rate: float = 0.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.records_per_node < 0:
            raise ValueError("records_per_node must be >= 0")
        if self.max_children < 1:
            raise ValueError("max_children must be >= 1")
        if not 0 < self.summary_interval < math.inf:
            raise ValueError(f"update intervals must be positive and "
                             f"finite: summary_interval={self.summary_interval}")
        if not (0.0 <= self.loss_rate < 1.0):
            raise ValueError(
                f"loss_rate must be in [0, 1), got {self.loss_rate}"
            )
