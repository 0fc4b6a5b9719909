"""Bottom-up summary aggregation (Section III-B).

Every summary epoch, each resource owner exports its (summary or raw)
data to its attachment point, and every non-root server sends its branch
summary — the merge of its local data and its children's latest branch
summaries — to its parent. After one full epoch the root holds the global
view. Summaries are soft state: reports carry the time they were built
and expire after their TTL.

This module holds the pieces of that protocol a single server owns: the
wire payload (:class:`SummaryUpdate`, installed at delivery time), the
per-server sending actor (:class:`SummaryExporter`) and a guest owner's
export (:func:`build_owner_export`). Scheduling, transport and
accounting belong to :class:`~repro.roads.update_plane.UpdatePlane`,
the only driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..summaries.config import SummaryConfig
from ..summaries.summary import ResourceSummary
from .node import Server

#: bytes of branch metadata (depth, descendant count) piggybacked on each
#: aggregation message for the balanced join rule
BRANCH_STATS_BYTES = 8
#: fixed message header bytes
HEADER_BYTES = 16


@dataclass
class AggregationReport:
    """Outcome of one aggregation round."""

    export_bytes: int
    aggregation_bytes: int
    messages: int
    #: delta propagation: how many reports shipped the full summary vs a
    #: keep-alive header because the branch summary was unchanged
    full_reports: int = 0
    keepalive_reports: int = 0

    @property
    def total_bytes(self) -> int:
        return self.export_bytes + self.aggregation_bytes


@dataclass
class SummaryUpdate:
    """Wire payload of one update-plane message.

    ``summary is None`` marks a keep-alive: the receiver re-stamps its
    held soft state only when *fingerprint* matches the held content
    (:meth:`~repro.hierarchy.node.Server.refresh_summary`), and
    otherwise asks for a full one (a ``summary-nack``). A full
    update carries no fingerprint — installing never reads one, and the
    summary hashes itself if a later keep-alive is compared. ``table``
    selects the receiver-side soft-state table: ``"child"`` for
    bottom-up reports, ``"replica"`` / ``"replica_local"`` for overlay
    pushes, ``"owner"`` for a guest owner's summary export.

    One payload object is shared across every holder of the same source
    summary in an epoch — installation never mutates it in place.
    """

    table: str
    src: int
    summary: Optional[ResourceSummary] = None
    fingerprint: Optional[bytes] = None
    owner_id: Optional[str] = None

    def install(self, server: Server, now: float) -> str:
        """Apply this update at the receiving *server*; returns outcome.

        The outcome is ``"installed"``, ``"refreshed"`` or ``"ignored"``.
        A keep-alive is ignored against absent or content-mismatched
        state; the update plane answers it with a ``summary-nack``, and
        the sender's next message to this receiver is full.
        """
        if self.table == "owner":
            for owner in server.owners:
                if owner.owner_id == self.owner_id:
                    owner.summary = self.summary
                    return "installed"
            return "ignored"
        if self.summary is not None:
            ok = server.install_summary(self.table, self.src, self.summary)
            return "installed" if ok else "ignored"
        if self.fingerprint is None:
            return "ignored"  # bare stats report from an empty branch
        ok = server.refresh_summary(self.table, self.src, self.fingerprint, now)
        return "refreshed" if ok else "ignored"


def install_batch(server: Server, updates, now: float) -> list:
    """Apply a same-destination batch of updates; returns their outcomes.

    One call installs a whole ``(destination, tick)`` delivery group —
    each update addresses a distinct ``(table, src)`` slot, so outcomes
    are order-independent within the batch and identical to installing
    the messages one event at a time. Nothing merges here: the receiver
    folds its tables at its next tick (:meth:`Server.fold_branch`).
    """
    return [u.install(server, now) for u in updates]


class SummaryExporter:
    """Per-server actor: exports the branch summary to the parent.

    Sender-side delta state only: the exporter remembers the summary
    it last shipped (``server.last_reported``) and the parent it shipped
    to. A full send is forced when the parent changed (rejoin — the new
    parent has no state for us) or when the parent said it cannot apply
    our keep-alive (a ``summary-nack``, or its heartbeat saying it holds
    nothing for us): both reach :meth:`forget_parent`.
    """

    __slots__ = ("server", "delta", "_last_parent")

    def __init__(self, server: Server, *, delta: bool = False):
        self.server = server
        self.delta = delta
        self._last_parent: Optional[int] = None

    def forget_parent(self) -> None:
        """Force a full send on the next export (new or forgetful parent)."""
        self._last_parent = None

    def plan_update(self, branch: Optional[ResourceSummary]) -> Optional[tuple]:
        """The report :meth:`build_update` would send: ``(update, size_bytes)``.

        Side-effect-free: the one definition of the keep-alive-or-full
        decision and the report's wire size, shared by the real send and
        by ``UpdatePlane.measure_epoch``. Returns None when there is no
        parent to report to (root) or the server is dead.
        """
        server = self.server
        parent = server.parent
        if parent is None or not server.alive:
            return None
        size = HEADER_BYTES + BRANCH_STATS_BYTES
        if branch is None:
            return SummaryUpdate("child", server.server_id), size
        # Only a report that could be a keep-alive is compared, so hashed.
        if self.delta and parent.server_id == self._last_parent:
            fp = branch.fingerprint()
            if fp == server.last_reported_fingerprint:
                return SummaryUpdate("child", server.server_id, None, fp), size
        size += branch.encoded_size()
        return SummaryUpdate("child", server.server_id, branch), size

    def build_update(self, branch: Optional[ResourceSummary]) -> Optional[tuple]:
        """One epoch's report to the parent: ``(update, size_bytes)``.

        *branch* is the server's branch summary for this tick, stamped
        with its time (``None`` for an empty branch); the caller builds
        it once and hands the same object to the server's
        :class:`~repro.overlay.replication.ReplicaPusher`. Commits :meth:`plan_update`'s answer
        to the exporter's delta state — the report counts as sent
        whether or not it survives the network.
        """
        built = self.plan_update(branch)
        if built is not None and branch is not None:
            self._last_parent = self.server.parent.server_id
            if built[0].summary is not None:
                self.server.last_reported = branch
        return built


def build_owner_export(
    owner, config: SummaryConfig, now: float
) -> tuple:
    """A guest owner's summary export, stamped *now*: ``(update, size_bytes)``."""
    summary = owner.summarize(config, now)
    size = summary.encoded_size() + HEADER_BYTES
    update = SummaryUpdate(
        "owner", owner.node_id, summary, owner_id=owner.owner_id
    )
    return update, size
