"""Replication overlay (Section III-C).

Each server replicates the branch summaries of its **siblings**, its
**ancestors**, and its **ancestors' siblings** — chosen so the summaries
held locally (together with the server's own children/owner summaries)
cover the entire hierarchy, letting a search start at any server.

Replication piggybacks on the hierarchy: a server's branch summary is
propagated down its own branch, and its parent forwards it to its siblings
which propagate it to their descendants. Each replicated summary therefore
reaches each holder across one tree edge per round; we account one message
of the summary's encoded size per (holder, replicated summary) pair, which
reproduces the paper's ``O(k·n·log n)`` replication message term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..summaries.config import SummaryConfig
from ..summaries.summary import ResourceSummary
from ..hierarchy.aggregation import HEADER_BYTES, SummaryUpdate
from ..hierarchy.join import Hierarchy
from ..hierarchy.node import Server


def replication_sources(server: Server) -> List[Server]:
    """The servers whose branch summaries *server* must replicate.

    Ordered: own siblings, then (ancestor, ancestor's siblings) from the
    nearest ancestor up to the root. For the node ``D1`` of the paper's
    Figure 2 this yields ``[D2, C1, C2, B1, B2, A]``.
    """
    out: List[Server] = []
    out.extend(server.siblings())
    for anc in server.ancestors():
        out.append(anc)
        out.extend(anc.siblings())
    return out


def replication_audience(server: Server) -> List[Server]:
    """The servers that replicate *server*'s branch summary (push set).

    Exact inverse of :func:`replication_sources`: ``server`` is a source
    for its own siblings, for every server in its subtree (it is their
    ancestor), and for every server in a sibling's subtree (it is one of
    their ancestors' siblings). Equivalently: everything under
    ``server``'s parent except ``server`` itself, plus ``server``'s own
    descendants. In push order: each child's, then each sibling's
    subtree, in preorder.
    """
    return _preorder(server.children + server.siblings())


def _preorder(roots: List[Server]) -> List[Server]:
    """The subtrees of *roots*, one after another, each in preorder."""
    out: List[Server] = []
    stack = [iter(roots)]  # one iterator per open level of the walk
    while stack:
        for node in stack[-1]:
            out.append(node)
            if node.children:
                stack.append(iter(node.children))
                break
        else:
            stack.pop()
    return out


def coverage_ids(server: Server) -> Set[int]:
    """All server ids covered by *server*'s local + replicated summaries.

    Own branch, sibling branches, and ancestor-sibling branches partition
    the hierarchy, so this must equal the full membership — the invariant
    the overlay is designed around. Ancestor summaries overlap this cover
    (they include the server's own branch) and add no new ids.
    """
    covered: Set[int] = {s.server_id for s in server.iter_subtree()}
    for src in replication_sources(server):
        covered.update(s.server_id for s in src.iter_subtree())
    return covered


@dataclass
class ReplicationReport:
    """Outcome of one overlay replication round."""

    replication_bytes: int
    messages: int
    #: delta propagation: full summary sends vs keep-alive refreshes
    full_sends: int = 0
    keepalive_sends: int = 0


class ReplicationOverlay:
    """The overlay's membership view: who replicates whom, and coverage."""

    def __init__(self, hierarchy: Hierarchy, config: SummaryConfig):
        self.hierarchy = hierarchy
        self.config = config

    def check_coverage(self) -> None:
        """Assert the whole-hierarchy coverage invariant for every server."""
        all_ids = {s.server_id for s in self.hierarchy}
        for server in self.hierarchy:
            covered = coverage_ids(server)
            missing = all_ids - covered
            assert not missing, (
                f"server {server.server_id} overlay does not cover {sorted(missing)}"
            )

    def per_node_message_counts(self) -> Dict[int, int]:
        """Replication messages received per node per round (paper eq. 4)."""
        return {
            s.server_id: len(replication_sources(s)) for s in self.hierarchy
        }


class ReplicaPusher:
    """Per-server actor: pushes this server's summaries to its holders.

    Each *source* pushes its branch summary to
    :func:`replication_audience` and its local-owner summary to its
    descendants, through real network messages installed at delivery
    time. Delta state is sender-side only: per ``(holder, table)``, the
    fingerprint last shipped. A holder that cannot apply a keep-alive
    answers with a ``summary-nack``; :meth:`forget` then makes the next
    push to it full.
    """

    __slots__ = ("server", "delta", "_sent")

    def __init__(self, server: Server, *, delta: bool = False):
        self.server = server
        self.delta = delta
        # (holder_id, table) -> fingerprint last shipped in full
        self._sent: Dict[tuple, bytes] = {}

    def forget(self, holder_id: int, table: str) -> None:
        """The next push of *table* to *holder_id* is full."""
        self._sent.pop((holder_id, table), None)

    def plan_updates(
        self, branch: Optional[ResourceSummary], local: Optional[ResourceSummary]
    ) -> List[tuple]:
        """The pushes :meth:`build_updates` would send: ``[(holder_id, update, size)]``.

        Side-effect-free: the one definition of the audience, the
        per-holder keep-alive-or-full decision and the wire sizes, shared
        by the real send and by ``UpdatePlane.measure_epoch``. Payload
        objects are shared across holders receiving the same content
        (installation never mutates them), so an epoch allocates O(1)
        payloads per source, not per message.
        """
        server = self.server
        if not server.alive:
            return []
        out: List[tuple] = []
        sent = self._sent
        sid = server.server_id
        may_keepalive = self.delta

        def push_table(table: str, summary, holders) -> None:
            if summary is None:
                return
            full = SummaryUpdate(table, sid, summary)
            full_size = HEADER_BYTES + summary.encoded_size()
            if may_keepalive:  # the only branch that compares, so hashes
                fp = summary.fingerprint()
                keepalive = SummaryUpdate(table, sid, None, fp)
            for holder in holders:
                if not holder.alive:
                    continue
                hid = holder.server_id
                if may_keepalive and sent.get((hid, table)) == fp:
                    out.append((hid, keepalive, HEADER_BYTES))
                    continue
                out.append((hid, full, full_size))

        push_table("replica", branch, replication_audience(server))
        push_table("replica_local", local, _preorder(server.children))
        return out

    def build_updates(
        self, branch: Optional[ResourceSummary], local: Optional[ResourceSummary]
    ) -> List[tuple]:
        """One epoch's pushes from this source: ``[(holder_id, update, size)]``.

        *branch* (stamped with the tick's time) and *local* are the
        server's summaries for this tick, built once by the caller and
        shared with the server's exporter; either may be ``None`` when there is nothing
        to summarize. Commits :meth:`plan_updates`' answer to the
        pusher's delta state — a push counts as sent even if lost.
        """
        pushes = self.plan_updates(branch, local)
        if not self.delta:
            return pushes  # nothing ever reads the delta state
        sent = self._sent
        for holder_id, update, _ in pushes:
            if update.summary is not None:
                sent[holder_id, update.table] = update.summary.fingerprint()
        return pushes
