"""The SWORD baseline system.

A DHT-based resource discovery design (Section IV): every resource record
is registered in one ring per searchable attribute (``r`` replicas per
record, each routed over O(log n) hops). A multi-dimensional range query
is resolved in a single ring — routed to the start of the segment
responsible for the queried range, then walked sequentially through the
segment's servers, each of which filters its locally stored records
against *all* query dimensions.

Record registration traffic is computed exactly (vectorized hop counts ×
record size) rather than event-by-event: a single 320-node epoch re-routes
2.5M record replicas, and the byte total is what the experiments need.
Query execution walks the actual finger paths and segment chains over the
same delay space the ROADS simulation uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..net.coordinates import DelaySpace
from ..query.predicate import RangePredicate
from ..query.query import Query
from ..records.store import RecordStore
from ..sim.metrics import epochs_in, finite_positive
from ..sim.rng import SeedSequenceFactory
from .hashing import LocalityHash
from .ring import ChordRouter, popcount

#: per-record registration header (record id, owner, ring)
_RECORD_HEADER_BYTES = 16
#: per-hop processing delay, matching the ROADS network default
_PROCESSING_DELAY = 0.0005
#: per-record local search time at a segment server. The query walks
#: the segment *sequentially*, and each server scans its stored records
#: (K·N·r/n of them) against all dimensions before forwarding — this
#: serial scan time is part of the paper's SWORD latency.
SEARCH_SECONDS_PER_RECORD = 5e-6


@dataclass(frozen=True)
class SwordConfig:
    """Parameters of a simulated SWORD deployment."""

    num_nodes: int = 320
    record_interval: float = 6.0  # the paper's t_r
    seed: int = 1

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        finite_positive("record_interval", self.record_interval)


@dataclass
class SwordQueryOutcome:
    """Everything measured about one SWORD query."""

    query: Query
    client_node: int
    ring_attribute: str
    #: finger-path servers then segment servers, in visit order
    route: List[int] = field(default_factory=list)
    segment: List[int] = field(default_factory=list)
    #: per visited segment server: (server, arrival time, local match count)
    segment_hits: List[Tuple[int, float, int]] = field(default_factory=list)
    latency: float = 0.0
    query_bytes: int = 0
    query_messages: int = 0
    matched_rows: Optional[np.ndarray] = None

    @property
    def servers_contacted(self) -> int:
        return len(set(self.route) | set(self.segment))

    @property
    def total_matches(self) -> int:
        return sum(c for _, _, c in self.segment_hits)


class SwordSystem:
    """A simulated SWORD federation over the same workload as ROADS."""

    def __init__(
        self,
        config: SwordConfig,
        stores: Sequence[RecordStore],
    ):
        n = config.num_nodes
        if len(stores) != n:
            raise ValueError(
                f"config.num_nodes={n} but {len(stores)} stores supplied"
            )
        self.config = config
        self.schema = stores[0].schema
        self.attributes = [a.name for a in self.schema.numeric_attributes]
        r = len(self.attributes)
        seeds = SeedSequenceFactory(config.seed)
        self.delay_space = DelaySpace(n, seeds.generator("delay-space"))
        self.hash = LocalityHash(n, r)
        self.router = ChordRouter(n)

        # Attribute-major records (a row per numeric attribute, a column
        # per record), filled in place: no second full-size copy.
        self.columns = np.empty((r, sum(len(s) for s in stores)))
        np.concatenate(
            [s.numeric_matrix.T for s in stores], axis=1, out=self.columns
        )
        self.owner_of_row = np.concatenate(
            [np.full(len(s), i, dtype=np.int64) for i, s in enumerate(stores)]
        )
        self.record_size_bytes = self.schema.record_size_bytes + _RECORD_HEADER_BYTES

        # Registration: ring j's responsible server per row, counted in
        # finger hops and dropped, then every member's rows (ascending)
        # from one stable sort of the ring — ids cast narrow radix-sort.
        hops = popcount(np.arange(n))
        self._registration_hops = 0
        self._rows_by_server: Dict[int, np.ndarray] = dict.fromkeys(range(n))
        narrow = np.min_scalar_type(n - 1)
        for j in range(r):
            dest = self.hash.responsible(j, self.columns[j])
            dist = (dest - self.owner_of_row) % n
            self._registration_hops += int(hops[dist].sum())
            members = self.hash.members(j)
            key = dest.astype(narrow)
            order = np.argsort(key, kind="stable")
            ends = np.searchsorted(
                key, members.astype(narrow), side="right", sorter=order
            )
            lo = 0
            for server, hi in zip(members.tolist(), ends.tolist()):
                self._rows_by_server[server] = order[lo:hi]
                lo = hi

    def _ring_of_attribute(self, name: str) -> int:
        try:
            return self.attributes.index(name)
        except ValueError:
            raise KeyError(f"no ring for attribute {name!r}") from None

    # -- storage / registration overhead ------------------------------------------
    def rows_stored_at(self, server: int) -> np.ndarray:
        """Row indices of records stored at *server* (its ring only)."""
        return self._rows_by_server[server]

    def storage_bytes_by_server(self) -> Dict[int, int]:
        return {
            s: len(rows) * self.record_size_bytes
            for s, rows in self._rows_by_server.items()
        }

    def registration_bytes_per_epoch(self) -> int:
        """Bytes to (re-)register every record in every ring once.

        Each replica travels its full O(log n) finger path, re-transmitted
        at every hop — the SWORD update-overhead model of equation (2).
        """
        return self._registration_hops * self.record_size_bytes

    def update_overhead(self, window_seconds: float) -> int:
        """Total update bytes over *window_seconds* (records refresh every t_r)."""
        return self.registration_bytes_per_epoch() * epochs_in(
            window_seconds, self.config.record_interval
        )

    # -- query execution ----------------------------------------------------------
    def _choose_ring(self, query: Query) -> RangePredicate:
        """The first queried range picks the ring (the paper's fixed
        choice, which is why its Figure 6 is flat)."""
        ranges = query.range_predicates()
        if not ranges:
            raise ValueError(
                "SWORD resolves queries in an attribute ring; the query "
                "needs at least one range predicate"
            )
        return ranges[0]

    def _hop_latency(self, a: int, b: int) -> float:
        return self.delay_space.latency(a, b) + _PROCESSING_DELAY

    def execute_query(
        self,
        query: Query,
        client_node: int,
        *,
        collect_rows: bool = False,
    ) -> SwordQueryOutcome:
        """Route and resolve one query; purely sequential, so latencies
        accumulate along the single forwarding chain."""
        pred = self._choose_ring(query)
        ring = self._ring_of_attribute(pred.attribute)
        segment = [int(s) for s in self.hash.segment(ring, pred.lo, pred.hi)]
        outcome = SwordQueryOutcome(
            query=query,
            client_node=client_node,
            ring_attribute=pred.attribute,
            segment=segment,
        )
        # Finger-route from the client's node to the segment head.
        t = 0.0
        current = client_node
        for nxt in self.router.path(client_node, segment[0]):
            t += self._hop_latency(current, nxt)
            outcome.query_bytes += query.size_bytes
            outcome.query_messages += 1
            outcome.route.append(nxt)
            current = nxt
        if current != segment[0]:  # client hosts the segment head itself
            outcome.route.append(segment[0])
        # Walk the segment sequentially; each server filters locally.
        matched: List[np.ndarray] = []
        for server in segment:
            if server != current:
                t += self._hop_latency(current, server)
                outcome.query_bytes += query.size_bytes
                outcome.query_messages += 1
                current = server
            rows = self._rows_by_server[server]
            hits = self._local_matches(query, rows)
            outcome.segment_hits.append((server, t, int(hits.size)))
            matched.append(hits)
            # Local scan blocks the sequential forwarding chain.
            t += rows.size * SEARCH_SECONDS_PER_RECORD
        # Latency is measured until the query *reaches* the last server;
        # that server's own scan is not part of it.
        outcome.latency = outcome.segment_hits[-1][1] if outcome.segment_hits else t
        if collect_rows:
            outcome.matched_rows = np.concatenate(matched)
        return outcome

    def _local_matches(self, query: Query, rows: np.ndarray) -> np.ndarray:
        """Those of a server's *rows* matching every predicate, narrowed
        predicate by predicate: each compare runs over what the previous
        ones left, not the whole share."""
        for p in query.predicates:
            if not isinstance(p, RangePredicate):
                raise ValueError(
                    "this SWORD model indexes numeric attributes only"
                )
            col = self.columns[self.schema.numeric_position(p.attribute)][rows]
            rows = rows[(col >= p.lo) & (col <= p.hi)]
        return rows
