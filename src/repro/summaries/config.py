"""Summary construction configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SummaryConfig:
    """How record sets are condensed into summaries.

    Parameters
    ----------
    histogram_buckets:
        Buckets per numeric attribute (the paper's ``m``; evaluation
        default is 1000).
    ttl:
        Soft-state lifetime of a summary in simulated seconds. Summaries
        older than this are considered stale and dropped by servers
        (Section III-B: data and summaries are soft state with TTLs).
    """

    histogram_buckets: int = 1000
    ttl: float = 300.0

    def __post_init__(self) -> None:
        if self.histogram_buckets <= 0:
            raise ValueError("histogram_buckets must be positive")
        if not self.ttl > 0:
            raise ValueError("ttl must be positive")
