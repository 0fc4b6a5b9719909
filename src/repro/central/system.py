"""Central repository baseline.

Every resource owner exports its raw records to one repository, which
answers queries locally (Section IV). One query/reply round trip, but a
single machine does all the searching and record retrieval — which is why
ROADS' parallel retrieval overtakes it at higher selectivities (Fig. 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..net.coordinates import DelaySpace
from ..query.query import Query
from ..records.store import RecordStore
from ..sim.metrics import epochs_in
from ..sim.rng import SeedSequenceFactory

_RECORD_HEADER_BYTES = 16
_PROCESSING_DELAY = 0.0005


@dataclass(frozen=True)
class CentralConfig:
    """Parameters of the central-repository deployment."""

    num_nodes: int = 320
    record_interval: float = 6.0  # t_r
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.record_interval <= 0:
            raise ValueError("record_interval must be positive")


@dataclass
class CentralQueryOutcome:
    query: Query
    client_node: int
    latency: float = 0.0  # one-way, query reaching the repository
    round_trip: float = 0.0  # query + reply, excluding search time
    query_bytes: int = 0
    match_count: int = 0
    matches: Optional[RecordStore] = None

    @property
    def servers_contacted(self) -> int:
        return 1


class CentralSystem:
    """All records in one repository; clients query it directly."""

    levels = 1  # the repository is the whole "hierarchy"

    #: the repository occupies one extra point in the delay space
    def __init__(self, config: CentralConfig, stores: Sequence[RecordStore]):
        if len(stores) != config.num_nodes:
            raise ValueError(
                f"config.num_nodes={config.num_nodes} but "
                f"{len(stores)} stores supplied"
            )
        self.config = config
        seeds = SeedSequenceFactory(config.seed)
        self.delay_space = DelaySpace(
            config.num_nodes + 1, seeds.generator("delay-space")
        )
        self.repository_node = config.num_nodes
        self.store = RecordStore.concat(stores)
        self._per_owner_records = [len(s) for s in stores]
        self.record_size_bytes = (
            self.store.schema.record_size_bytes + _RECORD_HEADER_BYTES
        )

    # -- overheads ----------------------------------------------------------------
    def export_bytes_per_epoch(self) -> int:
        """Every owner re-exports every record once per t_r epoch."""
        return sum(self._per_owner_records) * self.record_size_bytes

    def update_overhead(self, window_seconds: float) -> int:
        return self.export_bytes_per_epoch() * epochs_in(
            window_seconds, self.config.record_interval
        )

    def storage_bytes(self) -> int:
        return len(self.store) * self.record_size_bytes

    # -- queries ----------------------------------------------------------------
    def execute_query(
        self, query: Query, client_node: int, *, collect_records: bool = False
    ) -> CentralQueryOutcome:
        one_way = (
            self.delay_space.latency(client_node, self.repository_node)
            + _PROCESSING_DELAY
        )
        mask = query.mask(self.store)
        count = int(mask.sum())
        return CentralQueryOutcome(
            query=query,
            client_node=client_node,
            latency=one_way,
            round_trip=2.0 * one_way,
            query_bytes=query.size_bytes,
            match_count=count,
            matches=self.store.select(mask) if collect_records else None,
        )
