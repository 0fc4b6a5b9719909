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

from ..sim.metrics import UPDATE, MetricsCollector
from ..summaries.config import SummaryConfig
from ..telemetry.core import Telemetry
from ..summaries.summary import ResourceSummary
from ..hierarchy.join import Hierarchy
from ..hierarchy.node import Server

_HEADER_BYTES = 16


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
    descendants.
    """
    out: List[Server] = [s for s in server.iter_subtree() if s is not server]
    for sib in server.siblings():
        out.extend(sib.iter_subtree())
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
    """Maintains replicated summaries across a hierarchy."""

    def __init__(self, hierarchy: Hierarchy, config: SummaryConfig):
        self.hierarchy = hierarchy
        self.config = config
        # last shipped fingerprint per (holder, source, table) for deltas
        self._last_fp: Dict[tuple, bytes] = {}

    def replicate_round(
        self,
        now: float = 0.0,
        metrics: Optional[MetricsCollector] = None,
        *,
        delta: bool = False,
        telemetry: Optional[Telemetry] = None,
    ) -> ReplicationReport:
        """Refresh every server's replicated summaries from current state.

        Must run after an aggregation round so branch summaries are fresh.
        With ``delta=True``, a replica whose source summary is unchanged
        since the last round costs only a keep-alive header.
        """
        span = (
            telemetry.span("update.replicate", delta=delta)
            if telemetry is not None
            else None
        )
        prof = telemetry.profiler if telemetry is not None else None
        if prof is not None:
            prof.enter("update.replicate")
        # Each server's local summary is built once; its branch summary
        # is folded from that same object.
        branch: Dict[int, Optional[ResourceSummary]] = {}
        local: Dict[int, Optional[ResourceSummary]] = {}
        for server in self.hierarchy:
            own = server.local_summary(self.config, now)
            local[server.server_id] = own
            branch[server.server_id] = server.fold_branch(own, now)

        total_bytes = 0
        messages = 0
        full_sends = 0
        keepalive_sends = 0
        # Fingerprints computed once per source per round.
        fp_cache: Dict[tuple, bytes] = {}

        def fp_of(table: str, src_id: int, summary: ResourceSummary) -> bytes:
            key = (table, src_id)
            fp = fp_cache.get(key)
            if fp is None:
                fp = summary.fingerprint()
                fp_cache[key] = fp
            return fp

        def ship(server: Server, table: str, src_id: int,
                 summary: ResourceSummary, target: Dict[int, ResourceSummary]) -> None:
            nonlocal total_bytes, messages, full_sends, keepalive_sends
            target[src_id] = summary
            size = _HEADER_BYTES
            key = (server.server_id, src_id, table)
            if delta:
                fp = fp_of(table, src_id, summary)
                if self._last_fp.get(key) == fp:
                    keepalive_sends += 1
                else:
                    size += summary.encoded_size()
                    full_sends += 1
                self._last_fp[key] = fp
            else:
                size += summary.encoded_size()
                full_sends += 1
            total_bytes += size
            messages += 1
            if metrics is not None:
                # The holder receives the replicated summary.
                metrics.record_message(
                    UPDATE, size, server=server.server_id, phase="replicate"
                )

        for server in self.hierarchy:
            server.replicated_summaries.clear()
            server.replicated_local_summaries.clear()
            for src in replication_sources(server):
                summary = branch.get(src.server_id)
                if summary is None:
                    continue
                ship(server, "branch", src.server_id, summary,
                     server.replicated_summaries)
            # Ancestors additionally ship their local-owner summaries
            # (piggybacked on the same downward propagation) so a start
            # server can tell whether the ancestor itself holds data.
            for anc in server.ancestors():
                summary = local.get(anc.server_id)
                if summary is None:
                    continue
                ship(server, "local", anc.server_id, summary,
                     server.replicated_local_summaries)
        if prof is not None:
            prof.exit()
        if span is not None:
            span.annotate(
                bytes=total_bytes, messages=messages,
                full_sends=full_sends, keepalive_sends=keepalive_sends,
            )
            span.close()
        return ReplicationReport(
            replication_bytes=total_bytes,
            messages=messages,
            full_sends=full_sends,
            keepalive_sends=keepalive_sends,
        )

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

    The event-driven counterpart of :meth:`ReplicationOverlay.
    replicate_round`, inverted: instead of every holder pulling from all
    its sources in one synchronous pass, each *source* pushes its branch
    summary to :func:`replication_audience` and its local-owner summary
    to its descendants, through real network messages installed at
    delivery time. Delta state lives in the overlay's shared
    ``(holder, source, table) -> fingerprint`` map so synchronous rounds
    and pushed epochs stay coherent; ``refresh_after`` forces a periodic
    full re-send per holder (soft-state anti-entropy under loss).
    """

    __slots__ = ("server", "overlay", "delta", "refresh_after",
                 "_last_full_at")

    def __init__(
        self,
        server: Server,
        overlay: ReplicationOverlay,
        *,
        delta: bool = False,
        refresh_after: Optional[float] = None,
    ):
        self.server = server
        self.overlay = overlay
        self.delta = delta
        self.refresh_after = (
            refresh_after
            if refresh_after is not None
            else overlay.config.ttl
        )
        # (holder_id, table) -> time of the last full send to that holder
        self._last_full_at: Dict[tuple, float] = {}

    def build_updates(
        self,
        now: float,
        branch: Optional[ResourceSummary],
        local: Optional[ResourceSummary],
        *,
        force_full: bool = False,
    ) -> List[tuple]:
        """One epoch's pushes from this source: ``[(holder_id, update, size)]``.

        *branch* (stamped *now*) and *local* are the server's summaries
        for this tick, built once by the caller and shared with the
        server's exporter; either may be ``None`` when there is nothing
        to summarize. Payload objects are shared across holders receiving
        the same content (installation never mutates them), so an epoch
        allocates O(1) payloads per source, not per message. Mutates the
        shared delta fingerprint map — a push counts as sent even if lost.
        """
        from ..hierarchy.aggregation import SummaryUpdate

        server = self.server
        if not server.alive:
            return []
        out: List[tuple] = []
        last_fp = self.overlay._last_fp
        sid = server.server_id

        def push_table(table: str, dest_table: str, summary, holders) -> None:
            if summary is None:
                return
            fp = summary.fingerprint()
            full_size = _HEADER_BYTES + summary.encoded_size()
            full = SummaryUpdate(dest_table, sid, summary, fp)
            keepalive = SummaryUpdate(dest_table, sid, None, fp)
            for holder in holders:
                if not holder.alive:
                    continue
                key = (holder.server_id, sid, table)
                full_key = (holder.server_id, table)
                stale_full = (
                    now - self._last_full_at.get(full_key, float("-inf"))
                ) >= self.refresh_after
                send_keepalive = (
                    self.delta
                    and not force_full
                    and not stale_full
                    and last_fp.get(key) == fp
                )
                last_fp[key] = fp
                if send_keepalive:
                    out.append((holder.server_id, keepalive, _HEADER_BYTES))
                else:
                    self._last_full_at[full_key] = now
                    out.append((holder.server_id, full, full_size))

        push_table("branch", "replica", branch, replication_audience(server))
        push_table(
            "local", "replica_local", local,
            [s for s in server.iter_subtree() if s is not server],
        )
        return out
