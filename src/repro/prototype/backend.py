"""Cost model of the record backend standing in for the prototype's DB2 store.

The paper's prototype benchmark (Section V, Figure 11) measures *total
response time*: network latency plus the time servers take to search
their local record stores and return all matching records. Their testbed
attached a DB2 database to every server; we charge a modelled backend
instead — a fixed overhead, a scan of every stored record and a
retrieval of every matching one, each at a constant rate — preserving
exactly the effect the figure demonstrates: response time is dominated
by record retrieval, which ROADS parallelizes across servers while the
central repository serializes on one machine. No charge reads the host
clock, so a Figure 11 row is exact per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seconds to scan one stored record: ``Query.mask``'s median per-record
#: cost on the quick-scale 160 000-record merged store, 6-dimensional
#: queries (DESIGN.md §2). SWORD charges its local scan the same way.
SCAN_SECONDS_PER_RECORD = 35e-9


@dataclass(frozen=True)
class BackendCostModel:
    """Calibration of the storage backend's costs.

    ``per_record_retrieval_seconds`` models fetching + serializing one
    matching record out of the backing store (the paper's JDBC/DB2 path;
    2008-era per-row ODBC/JDBC retrieval sat in the hundreds of
    microseconds). At 200 µs/record, a 3%-selectivity query over a
    160k-record federation costs ~1 s of serial retrieval at a central
    repository, matching the figure's regime.
    ``bandwidth_bytes_per_second`` models the result return channel.
    """

    per_record_retrieval_seconds: float = 200e-6
    bandwidth_bytes_per_second: float = 10e6
    fixed_overhead_seconds: float = 0.002

    def __post_init__(self) -> None:
        if self.per_record_retrieval_seconds < 0:
            raise ValueError("per_record_retrieval_seconds must be >= 0")
        if self.bandwidth_bytes_per_second <= 0:
            raise ValueError("bandwidth_bytes_per_second must be positive")
        if self.fixed_overhead_seconds < 0:
            raise ValueError("fixed_overhead_seconds must be >= 0")

    def retrieval_seconds(self, match_count: int) -> float:
        return self.fixed_overhead_seconds + match_count * self.per_record_retrieval_seconds

    def server_seconds(self, records: int, matches: int) -> float:
        """Time a server holding *records* is busy answering with
        *matches* of them: one scan of the store, then the retrieval."""
        return (
            self.fixed_overhead_seconds
            + SCAN_SECONDS_PER_RECORD * records
            + self.per_record_retrieval_seconds * matches
        )

    def transfer_seconds(self, result_bytes: int) -> float:
        return result_bytes / self.bandwidth_bytes_per_second
