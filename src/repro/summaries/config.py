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
    categorical_summary:
        ``"set"`` for explicit value sets, ``"bloom"`` for Bloom filters.
    bloom_bits / bloom_hashes:
        Bloom filter parameters, used when ``categorical_summary="bloom"``.
    ttl:
        Soft-state lifetime of a summary in simulated seconds. Summaries
        older than this are considered stale and dropped by servers
        (Section III-B: data and summaries are soft state with TTLs).
    """

    histogram_buckets: int = 1000
    categorical_summary: str = "set"
    bloom_bits: int = 1024
    bloom_hashes: int = 4
    ttl: float = 300.0

    def __post_init__(self) -> None:
        if self.histogram_buckets <= 0:
            raise ValueError("histogram_buckets must be positive")
        if self.categorical_summary not in ("set", "bloom"):
            raise ValueError(
                f"unknown categorical summary kind {self.categorical_summary!r}"
            )
        if self.bloom_bits <= 0 or self.bloom_hashes <= 0:
            raise ValueError("bloom parameters must be positive")
        if not self.ttl > 0:
            raise ValueError("ttl must be positive")
