"""Total response time measurement (prototype benchmark, Figure 11).

Response time = time from the client sending a query until it has
received **all** matching records. For ROADS the query fans out through
the hierarchy/overlay; each owner with matching data searches its backend
and streams results back — owners work in parallel, so the client's
response time is the maximum over owners of

    (query arrival at owner) + (search + retrieval at owner)
    + (owner -> client latency) + (result transfer time).

The central repository answers in one round trip, but a single machine
searches the whole federation's records and serializes all retrieval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..central.system import CentralSystem
from ..query.query import Query
from ..records.store import RecordStore
from ..roads.search import SearchRequest
from ..roads.system import RoadsSystem
from ..sword.system import SwordSystem
from .backend import BackendCostModel


@dataclass
class ResponseOutcome:
    """Total response time of one query under one design."""

    query: Query
    response_seconds: float
    forwarding_seconds: float
    server_seconds: float  # max (ROADS) / total (central) backend time
    match_count: int


class RoadsResponder:
    """Measures ROADS total response time over each owner's own store."""

    def __init__(
        self,
        system: RoadsSystem,
        cost_model: Optional[BackendCostModel] = None,
    ):
        self.system = system
        self.cost_model = cost_model if cost_model is not None else BackendCostModel()
        self._stores: Dict[str, RecordStore] = {
            owner.owner_id: owner.origin
            for server in system.hierarchy
            for owner in server.owners
        }

    def respond(self, query: Query, client_node: Optional[int] = None) -> ResponseOutcome:
        outcome = self.system.search(
            SearchRequest(query, client_node=client_node)
        ).outcome
        client = outcome.client_node
        completion = 0.0
        worst_server = 0.0
        matches = 0
        for hit in outcome.owner_hits:
            store = self._stores[hit.owner_id]
            count = hit.match_count
            server_seconds = self.cost_model.server_seconds(len(store), count)
            result_bytes = count * store.schema.record_size_bytes
            matches += count
            return_latency = self.system.network.latency(hit.server_id, client)
            done = (
                (hit.arrival_time - outcome.started_at)
                + server_seconds
                + return_latency
                + self.cost_model.transfer_seconds(result_bytes)
            )
            completion = max(completion, done)
            worst_server = max(worst_server, server_seconds)
        # Even a no-match query costs its forwarding time.
        completion = max(completion, outcome.latency)
        return ResponseOutcome(
            query=query,
            response_seconds=completion,
            forwarding_seconds=outcome.latency,
            server_seconds=worst_server,
            match_count=matches,
        )


class CentralResponder:
    """Measures central-repository total response time."""

    def __init__(
        self,
        system: CentralSystem,
        cost_model: Optional[BackendCostModel] = None,
    ):
        self.system = system
        self.cost_model = cost_model if cost_model is not None else BackendCostModel()

    def respond(self, query: Query, client_node: int) -> ResponseOutcome:
        outcome = self.system.execute_query(query, client_node)
        store = self.system.store
        count = outcome.match_count
        server_seconds = self.cost_model.server_seconds(len(store), count)
        result_bytes = count * store.schema.record_size_bytes
        response = (
            outcome.round_trip
            + server_seconds
            + self.cost_model.transfer_seconds(result_bytes)
        )
        return ResponseOutcome(
            query=query,
            response_seconds=response,
            forwarding_seconds=outcome.round_trip,
            server_seconds=server_seconds,
            match_count=count,
        )


class SwordResponder:
    """Measures SWORD total response time (not in the paper's Figure 11,
    provided for three-way comparisons).

    The segment is walked sequentially, but each segment server can
    stream its matching records back to the client as soon as it has
    searched — so the response completes at the *latest* of
    (arrival + search + retrieval + return) over the segment.
    """

    def __init__(
        self,
        system: SwordSystem,
        cost_model: Optional[BackendCostModel] = None,
    ):
        self.system = system
        self.cost_model = cost_model if cost_model is not None else BackendCostModel()
        self.record_bytes = system.schema.record_size_bytes

    def respond(self, query: Query, client_node: int) -> ResponseOutcome:
        outcome = self.system.execute_query(query, client_node)
        completion = outcome.latency
        worst_server = 0.0
        matches = 0
        for server, arrival, count in outcome.segment_hits:
            matches += count
            server_seconds = self.cost_model.retrieval_seconds(count)
            return_latency = self.system.delay_space.latency(server, client_node)
            done = (
                arrival
                + server_seconds
                + return_latency
                + self.cost_model.transfer_seconds(count * self.record_bytes)
            )
            completion = max(completion, done)
            worst_server = max(worst_server, server_seconds)
        return ResponseOutcome(
            query=query,
            response_seconds=completion,
            forwarding_seconds=outcome.latency,
            server_seconds=worst_server,
            match_count=matches,
        )


def summarize_responses(
    outcomes: Sequence[ResponseOutcome],
) -> Dict[str, float]:
    """Mean and 90th-percentile response time (the figure's two series)."""
    times = np.array([o.response_seconds for o in outcomes], dtype=float)
    return {
        "mean_seconds": float(times.mean()) if times.size else 0.0,
        "p90_seconds": float(np.percentile(times, 90)) if times.size else 0.0,
        "queries": int(times.size),
    }
