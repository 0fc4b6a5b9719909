"""Bottom-up summary aggregation.

Each aggregation round, every resource owner exports its (summary or raw)
data to its attachment point, and every non-root server sends its branch
summary — the merge of its local data and its children's latest branch
summaries — to its parent. After one full round the root holds the global
view. Summaries are soft state: reports carry the round's timestamp and
expire after their TTL.

Two execution modes are provided:

* :func:`aggregate_round` — one synchronous post-order round with exact
  byte accounting, used by the overhead experiments (running the DES for
  every one of the millions of update messages in a SWORD comparison
  would be pointlessly slow; the byte totals are identical).
* :class:`PeriodicAggregation` — event-driven periodic rounds inside the
  simulator, used by the maintenance/dynamics tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.engine import PeriodicTask, Simulator
from ..sim.metrics import UPDATE, MetricsCollector
from ..summaries.config import SummaryConfig
from ..summaries.summary import ResourceSummary
from ..telemetry.core import Telemetry
from .join import Hierarchy
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


def refresh_owner_exports(
    hierarchy: Hierarchy, config: SummaryConfig, now: float = 0.0
) -> int:
    """Re-export every attached owner's data; returns the bytes sent.

    Owners that control their server re-send records only conceptually
    (the server reads them locally — no wide-area traffic); third-party
    attached owners ship a fresh summary over the network.
    """
    total = 0
    for server in hierarchy:
        for owner in server.owners:
            if not owner.controls_server:
                owner.summary = ResourceSummary.from_store(
                    owner.origin, config, created_at=now
                )
                total += owner.summary.encoded_size() + HEADER_BYTES
    return total


def aggregate_round(
    hierarchy: Hierarchy,
    config: SummaryConfig,
    now: float = 0.0,
    metrics: Optional[MetricsCollector] = None,
    *,
    refresh_exports: bool = True,
    delta: bool = False,
    telemetry: Optional[Telemetry] = None,
) -> AggregationReport:
    """One synchronous bottom-up aggregation round.

    Children report before parents (post-order), so after the round each
    server's ``child_summaries`` reflect this round and the root's branch
    summary covers the whole federation.

    With ``delta=True``, a server whose branch summary is unchanged since
    its last report sends only a keep-alive header that refreshes the
    parent's soft state — the steady-state traffic saving behind the
    paper's t_s >> t_r argument (records changing within the same
    histogram bucket leave the summary untouched).
    """
    span = (
        telemetry.span("update.aggregate", delta=delta)
        if telemetry is not None
        else None
    )
    prof = telemetry.profiler if telemetry is not None else None
    if prof is not None:
        prof.enter("update.aggregate")
    export_bytes = refresh_owner_exports(hierarchy, config, now) if refresh_exports else 0
    if metrics is not None and export_bytes:
        metrics.record_message(UPDATE, export_bytes, phase="export")

    agg_bytes = 0
    messages = 0
    full_reports = 0
    keepalive_reports = 0

    def visit(server: Server) -> None:
        nonlocal agg_bytes, messages, full_reports, keepalive_reports
        for child in server.children:
            visit(child)
        if server.parent is not None:
            summary = server.branch_summary(config, now)
            size = HEADER_BYTES + BRANCH_STATS_BYTES
            if summary is not None:
                summary = summary.refreshed(now)
                fp = summary.fingerprint()
                unchanged = (
                    delta
                    and fp == server.last_reported_fingerprint
                    and server.server_id in server.parent.child_summaries
                )
                server.parent.child_summaries[server.server_id] = summary
                if unchanged:
                    keepalive_reports += 1
                else:
                    size += summary.encoded_size()
                    full_reports += 1
                server.last_reported_fingerprint = fp
            agg_bytes += size
            messages += 1
            if metrics is not None:
                # The parent receives (and merges) the child's report.
                metrics.record_message(
                    UPDATE, size,
                    server=server.parent.server_id, phase="aggregate",
                )

    visit(hierarchy.root)
    if prof is not None:
        prof.exit()
    if span is not None:
        span.annotate(
            bytes=export_bytes + agg_bytes,
            messages=messages,
            full_reports=full_reports,
            keepalive_reports=keepalive_reports,
        )
        span.close()
    return AggregationReport(
        export_bytes=export_bytes,
        aggregation_bytes=agg_bytes,
        messages=messages,
        full_reports=full_reports,
        keepalive_reports=keepalive_reports,
    )


@dataclass
class SummaryUpdate:
    """Wire payload of one update-plane message.

    ``summary is None`` marks a keep-alive: the receiver re-stamps its
    held soft state only when *fingerprint* matches the held content
    (:meth:`~repro.hierarchy.node.Server.refresh_summary`). ``table``
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

        The outcome is ``"installed"``, ``"refreshed"`` or ``"ignored"``
        (keep-alive against absent or content-mismatched state — the
        receiver's copy is left to age out, Section III-B soft state).
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
    the messages one event at a time. The stacked-array work happens
    when the receiver next folds the installed tables into a branch
    summary via :meth:`ResourceSummary.merge_many`; this entry point
    exists so that fold sees every summary of the tick at once instead
    of re-running per message.
    """
    return [u.install(server, now) for u in updates]


class SummaryExporter:
    """Per-server actor: exports the branch summary to the parent.

    Replaces the receiver-peeking delta rule of :func:`aggregate_round`
    with sender-side state only: the exporter remembers the fingerprint
    it last shipped (shared with :func:`aggregate_round` through
    ``server.last_reported_fingerprint``), the parent it shipped to, and
    when it last sent a full summary. A full send is forced when the
    parent changed (rejoin — the new parent has no state for us) or when
    ``refresh_after`` elapsed since the last full (soft-state
    anti-entropy: bounds staleness when a full send was lost and the
    receiver is silently discarding our keep-alives).
    """

    __slots__ = ("server", "delta", "refresh_after",
                 "_last_parent", "_last_full_at")

    def __init__(
        self,
        server: Server,
        config: SummaryConfig,
        *,
        delta: bool = False,
        refresh_after: Optional[float] = None,
    ):
        self.server = server
        self.delta = delta
        self.refresh_after = (
            refresh_after if refresh_after is not None else config.ttl
        )
        self._last_parent: Optional[int] = None
        self._last_full_at = float("-inf")

    def forget_parent(self) -> None:
        """Force a full send on the next export (parent changed)."""
        self._last_parent = None

    def build_update(
        self,
        now: float,
        branch: Optional[ResourceSummary],
        *,
        force_full: bool = False,
    ) -> Optional[tuple]:
        """One epoch's report to the parent: ``(update, size_bytes)``.

        *branch* is the server's branch summary for this tick, stamped
        *now* (``None`` for an empty branch); the caller builds it once
        and hands the same object to the server's :class:`~repro.overlay.
        replication.ReplicaPusher`. Returns None when there is no parent
        to report to (root) or the server is dead. Mutates the exporter's
        delta state — the report counts as sent whether or not it
        survives the network.
        """
        server = self.server
        parent = server.parent
        if parent is None or not server.alive:
            return None
        size = HEADER_BYTES + BRANCH_STATS_BYTES
        if branch is None:
            return SummaryUpdate("child", server.server_id), size
        fp = branch.fingerprint()
        keepalive = (
            self.delta
            and not force_full
            and parent.server_id == self._last_parent
            and fp == server.last_reported_fingerprint
            and (now - self._last_full_at) < self.refresh_after
        )
        server.last_reported_fingerprint = fp
        self._last_parent = parent.server_id
        if keepalive:
            return SummaryUpdate("child", server.server_id, None, fp), size
        self._last_full_at = now
        size += branch.encoded_size()
        return SummaryUpdate("child", server.server_id, branch, fp), size


def build_owner_export(
    owner, config: SummaryConfig, now: float
) -> tuple:
    """A guest owner's fresh summary export: ``(update, size_bytes)``."""
    summary = ResourceSummary.from_store(owner.origin, config, created_at=now)
    size = summary.encoded_size() + HEADER_BYTES
    update = SummaryUpdate(
        "owner", owner.node_id, summary, owner_id=owner.owner_id
    )
    return update, size


class PeriodicAggregation:
    """Event-driven aggregation: one round every ``interval`` (= t_s)."""

    def __init__(
        self,
        sim: Simulator,
        hierarchy: Hierarchy,
        config: SummaryConfig,
        interval: float,
        metrics: Optional[MetricsCollector] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.sim = sim
        self.hierarchy = hierarchy
        self.config = config
        self.interval = interval
        self.metrics = metrics
        self.telemetry = telemetry
        self.rounds = 0
        self.last_report: Optional[AggregationReport] = None
        self._task: Optional[PeriodicTask] = sim.schedule_periodic(
            interval, self._round, first_delay=0.0, label="update.round"
        )

    def _round(self) -> None:
        now = self.sim.now
        for server in self.hierarchy:
            server.expire_stale_summaries(now)
        self.last_report = aggregate_round(
            self.hierarchy, self.config, now, self.metrics,
            telemetry=self.telemetry,
        )
        self.rounds += 1

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None
