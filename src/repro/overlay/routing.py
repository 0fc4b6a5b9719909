"""Query routing decisions over the hierarchy and overlay.

Pure decision logic (no simulation): given a server's local state and a
query, decide which attached owners have possibly-matching data and which
other servers the client should be redirected to. The client-side driving
of these decisions through the simulated network lives in
:mod:`repro.roads.client`.

At the **start server** the search fans out across the disjoint cover
formed by: the server's own children and attached owners, its sibling
branches, and its ancestors' sibling branches (all held locally thanks to
the replication overlay). During the subsequent **descent**, each visited
server only fans out to its own children/owners — branches are disjoint,
so no server is visited twice.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from ..query.query import Query
from ..hierarchy.node import AttachedOwner, Server

#: per-target entry bytes in a redirect response
_REDIRECT_ENTRY_BYTES = 8
_REDIRECT_HEADER_BYTES = 16


class RoutingDecision(NamedTuple):
    """What one server tells the querying client (a slotted record)."""

    server_id: int
    #: attached owners whose exported data may match (terminal hits)
    owner_hits: List[AttachedOwner]
    #: servers the client should query next (full branch descent)
    redirect_ids: List[int]
    #: ancestors to query for their *locally attached* owners only — their
    #: descendants are already covered by the sibling-branch redirects
    owners_only_ids: List[int]
    #: table entries skipped because their TTL had passed: branches this
    #: decision could not vouch for (a child with no entry is not counted)
    expired: int = 0

    @property
    def response_size_bytes(self) -> int:
        return _REDIRECT_HEADER_BYTES + _REDIRECT_ENTRY_BYTES * (
            len(self.redirect_ids)
            + len(self.owners_only_ids)
            + len(self.owner_hits)
        )


def _owner_may_match(owner: AttachedOwner, query: Query) -> bool:
    if owner.controls_server:
        # The server holds the raw records: its summary of them, then they.
        return owner.holds_match(query)
    if owner.summary is None:
        return False
    return owner.summary.may_match(query)


def decide_descent(server: Server, query: Query,
                   now: float = 0.0) -> RoutingDecision:
    """Routing decision using only the server's own branch state."""
    owner_hits = [o for o in server.owners if _owner_may_match(o, query)]
    redirect_ids = []
    expired = 0
    held = server.child_summaries
    for child in server.children:
        summary = held.get(child.server_id)
        if summary is None:
            continue
        # ``summary.is_expired(now)``, inline: this is the descent's loop
        if now - summary.created_at > summary.config.ttl:
            expired += 1
        elif summary.may_match(query):
            redirect_ids.append(child.server_id)
    return RoutingDecision(server.server_id, owner_hits, redirect_ids, [], expired)


def decide_local(server: Server, query: Query) -> RoutingDecision:
    """Owners-only decision: evaluate locally attached owners, no fan-out."""
    return RoutingDecision(
        server.server_id,
        [o for o in server.owners if _owner_may_match(o, query)], [], [],
    )


def decide_start(server: Server, query: Query,
                 now: float = 0.0) -> RoutingDecision:
    """Routing decision at the search's entry point.

    Adds the overlay's sibling / ancestor-sibling branches to the full
    fan-out. Ancestors are handled specially: their branch summaries
    contain this server's own branch, so redirecting into them would
    duplicate the descent — but their *locally attached* owners are not
    inside any sibling branch, so matching ancestors are queried in
    owners-only mode. Together this covers the whole hierarchy exactly
    once.
    """
    decision = decide_descent(server, query, now)
    expired = decision.expired
    ancestors = set(server.root_path[:-1])
    for src_id, summary in server.replicated_summaries.items():
        if src_id in ancestors:
            continue  # handled below via their local summaries
        if now - summary.created_at > summary.config.ttl:
            expired += 1
        elif summary.may_match(query):
            decision.redirect_ids.append(src_id)
    for src_id, summary in server.replicated_local_summaries.items():
        if now - summary.created_at > summary.config.ttl:
            expired += 1
        elif summary.may_match(query):
            decision.owners_only_ids.append(src_id)
    return decision._replace(expired=expired) if expired else decision


def scope_candidates(server: Server) -> List[int]:
    """Ancestor ids (nearest first) a client may pick as a wider scope.

    Section III-C: each ancestor (or its siblings) is one level higher in
    the hierarchy, providing more resources at the cost of a longer search
    path; the client chooses how wide a scope to search.
    """
    return [a.server_id for a in server.ancestors()]
