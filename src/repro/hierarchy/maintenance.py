"""Hierarchy maintenance: heartbeats, failure recovery, root election.

Follows Section III-A (adapted from universal multicast tree maintenance
[9]):

* every parent/child pair exchanges periodic heartbeats; several
  consecutive losses mean the other end is presumed failed;
* parents piggyback the root path on heartbeats to their children; the
  root additionally piggybacks its children list so root failure can be
  survived;
* a child whose parent failed rejoins starting at its grandparent (taken
  from its last known root path), escalating one level at a time up to the
  root;
* a parent whose child failed drops that child's summary and branch state;
* when the root fails, its children elect the one with the smallest id as
  the new root and the rest rejoin under it (a leaving root hands over
  the same way);
* a crashed server that comes back is one more joiner: it forgets its
  old tree and rejoins from the root;
* loop avoidance: a server never attaches to a node whose root path
  contains itself.

Heartbeats flow through the simulated network (so failed nodes genuinely
go silent and maintenance traffic is byte-accounted); detection and
rejoin run in periodic check events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..net.transport import Message, Network
from ..sim.engine import Simulator
from ..sim.metrics import MAINTENANCE
from ..telemetry.core import Telemetry
from .join import Hierarchy
from .node import Server

_HEARTBEAT_HEADER = 16
_ID_BYTES = 4

#: sim-seconds between two sweeps for silent neighbours
FAILURE_SWEEP_INTERVAL = 5.0


@dataclass(frozen=True)
class MaintenanceConfig:
    heartbeat_interval: float = 5.0
    miss_threshold: int = 3

    def __post_init__(self) -> None:
        value = self.heartbeat_interval
        if not 0 < value < math.inf:
            raise ValueError(
                f"heartbeat_interval must be finite and positive, got {value}"
            )
        threshold = self.miss_threshold
        if isinstance(threshold, bool) or not isinstance(threshold, int) or threshold < 1:
            raise ValueError(f"miss_threshold must be an int >= 1, got {threshold!r}")

    @property
    def failure_timeout(self) -> float:
        return self.heartbeat_interval * self.miss_threshold


@dataclass
class _Heartbeat:
    sender: int
    root_path: List[int]
    root_children: Optional[List[int]] = None  # only on root -> child beats
    #: parent -> child only, one header bit: whether the parent holds the
    #: child's branch summary (if not, the child's next report is full)
    holds_summary: bool = True


class MaintenanceProtocol:
    """Runs heartbeat exchange and failure recovery for a hierarchy."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        hierarchy: Hierarchy,
        config: MaintenanceConfig = MaintenanceConfig(),
        *,
        telemetry: Optional[Telemetry] = None,
        update_plane=None,
    ):
        self.sim = sim
        self.network = network
        self.hierarchy = hierarchy
        self.config = config
        self.telemetry = telemetry
        #: optional :class:`~repro.roads.update_plane.UpdatePlane`:
        #: rejoins trigger an immediate full re-export, and a parent's
        #: beat saying it holds no summary for a child makes the child's
        #: next report full
        self.update_plane = update_plane
        # per-server: neighbour id -> last time we heard from it
        self._last_rx: Dict[int, Dict[int, float]] = {}
        # per-server: last known root path / root children (from heartbeats)
        self._known_root_path: Dict[int, List[int]] = {}
        self._known_root_children: Dict[int, List[int]] = {}
        self.failures_detected = 0
        self.rejoins = 0
        self.root_elections = 0
        self.orphaned: Set[int] = set()

        for server in hierarchy:
            self._register(server)
        self._beat_task = sim.schedule_periodic(
            config.heartbeat_interval, self._send_heartbeats,
            first_delay=0.0, label="maint.heartbeat",
        )
        self._check_task = sim.schedule_periodic(
            FAILURE_SWEEP_INTERVAL,
            self._check_failures,
            first_delay=config.failure_timeout,
            label="maint.check",
        )

    def _event(self, name: str, **tags) -> None:
        if self.telemetry is not None:
            self.telemetry.event(name, **tags)

    # -- wiring ----------------------------------------------------------------
    def _register(self, server: Server) -> None:
        self._last_rx.setdefault(server.server_id, {})
        self._known_root_path[server.server_id] = list(server.root_path)
        self.network.register(
            server.server_id, lambda msg, sid=server.server_id: self._on_message(sid, msg)
        )

    def stop(self) -> None:
        self._beat_task.stop()
        self._check_task.stop()

    # -- heartbeats ----------------------------------------------------------------
    def _heartbeat_size(self, hb: _Heartbeat) -> int:
        size = _HEARTBEAT_HEADER + len(hb.root_path) * _ID_BYTES
        if hb.root_children is not None:
            size += len(hb.root_children) * _ID_BYTES
        return size

    def _send_heartbeats(self) -> None:
        for server in list(self.hierarchy):
            if not server.alive:
                continue
            sid = server.server_id
            targets: List[Server] = []
            if server.parent is not None:
                targets.append(server.parent)
            targets.extend(server.children)
            for peer in targets:
                hb = _Heartbeat(
                    sender=sid,
                    root_path=list(server.root_path),
                    root_children=(
                        server.child_ids() if server.is_root and peer in server.children
                        else None
                    ),
                    holds_summary=(
                        peer is server.parent
                        or peer.server_id in server.child_summaries
                    ),
                )
                self.network.send(
                    sid,
                    peer.server_id,
                    MAINTENANCE,
                    self._heartbeat_size(hb),
                    payload=hb,
                    phase="heartbeat",
                )

    def _on_message(self, server_id: int, msg: Message) -> None:
        hb = msg.payload
        if not isinstance(hb, _Heartbeat):
            return
        self._last_rx.setdefault(server_id, {})[hb.sender] = self.sim.now
        server = self._get(server_id)
        if server is None:
            return
        # Heartbeats from the parent carry the authoritative root path.
        if server.parent is not None and hb.sender == server.parent.server_id:
            self._known_root_path[server_id] = hb.root_path + [server_id]
            if hb.root_children is not None:
                self._known_root_children[server_id] = list(hb.root_children)
            if not hb.holds_summary and self.update_plane is not None:
                self.update_plane.on_summary_missing(server, hb.sender, "child")

    def _get(self, server_id: int) -> Optional[Server]:
        try:
            return self.hierarchy.get(server_id)
        except KeyError:
            return None

    # -- failure detection ----------------------------------------------------------
    def _silent(self, observer: int, peer: int) -> bool:
        last = self._last_rx.get(observer, {}).get(peer)
        if last is None:
            # A fresh edge (new parent/child): grant a grace period from
            # now rather than declaring an unheard peer dead.
            self._last_rx.setdefault(observer, {})[peer] = self.sim.now
            return False
        return (self.sim.now - last) > self.config.failure_timeout

    def _check_failures(self) -> None:
        for server in list(self.hierarchy):
            if not server.alive:
                continue
            # children silence -> drop their state
            for child in list(server.children):
                if self._silent(server.server_id, child.server_id):
                    self.failures_detected += 1
                    self._event(
                        "maintenance.failure_detected",
                        server=server.server_id,
                        peer=child.server_id, relation="child",
                    )
                    server.remove_child(child.server_id)
            # parent silence -> rejoin elsewhere
            parent = server.parent
            if parent is not None and self._silent(server.server_id, parent.server_id):
                self.failures_detected += 1
                self._event(
                    "maintenance.failure_detected",
                    server=server.server_id,
                    peer=parent.server_id, relation="parent",
                )
                self._handle_parent_failure(server)
            elif parent is None and server is not self.hierarchy.root:
                # Orphaned (e.g. detached during a root election run by a
                # sibling): self-heal by rejoining under the current root.
                if not self._try_rejoin(server, self.hierarchy.root):
                    self.orphaned.add(server.server_id)
        self.forget_failed()

    # -- recovery ----------------------------------------------------------------
    def _handle_parent_failure(self, server: Server) -> None:
        failed = server.parent
        assert failed is not None
        failed.remove_child(server.server_id)
        known_path = self._known_root_path.get(
            server.server_id, list(server.root_path)
        )
        # Candidates: grandparent, then one level up each retry, then root.
        # known_path = [root, ..., grandparent, parent, self]
        candidates = [sid for sid in reversed(known_path[:-2])]
        if failed.server_id == self.hierarchy.root.server_id:
            self._handle_root_failure(server, failed)
            return
        for cand_id in candidates:
            cand = self._get(cand_id)
            if cand is None or not cand.alive or self.network.is_failed(cand_id):
                continue
            if self._try_rejoin(server, cand):
                return
        # Last resort: the current root.
        root = self.hierarchy.root
        if root.alive and self._try_rejoin(server, root):
            return
        self.orphaned.add(server.server_id)

    def _try_rejoin(self, server: Server, start: Server) -> bool:
        """Run the balanced join walk from *start*; True on success."""
        parent = self.hierarchy.attach(server, start)
        if parent is None:
            return False
        # The walk costs one probe per visited level; approximate with the
        # target's depth in join-protocol bytes.
        probe_bytes = _HEARTBEAT_HEADER * (parent.depth + 1)
        self.network.metrics.count_message(
            MAINTENANCE, probe_bytes,
            server=parent.server_id, phase="rejoin",
        )
        self._known_root_path[server.server_id] = list(server.root_path)
        # Grace-stamp the new edge in both directions.
        now = self.sim.now
        self._last_rx.setdefault(server.server_id, {})[parent.server_id] = now
        self._last_rx.setdefault(parent.server_id, {})[server.server_id] = now
        self.rejoins += 1
        self.orphaned.discard(server.server_id)
        if self.update_plane is not None:
            # The new parent holds no state for this branch: re-export
            # the full branch summary now instead of waiting out t_s.
            self.update_plane.on_rejoin(server)
        self._event(
            "maintenance.rejoin",
            server=server.server_id, parent=parent.server_id,
        )
        return True

    def _handle_root_failure(self, detector: Server, failed_root: Server) -> None:
        """Elect the smallest-id live child of the failed root as the new
        root, from the root's children list the detector last heard."""
        known = self._known_root_children.get(detector.server_id, [])
        candidates = [
            s for s in map(self._get, known)
            if s is not None and s.alive
            and not self.network.is_failed(s.server_id)
        ]
        if detector not in candidates:
            candidates.append(detector)
        new_root = self._replace_root(
            failed_root, candidates, detector=detector.server_id
        )
        if detector is not new_root and detector.parent is None:
            if not self._try_rejoin(detector, new_root):
                self.orphaned.add(detector.server_id)

    def _replace_root(
        self, old_root: Server, candidates: List[Server], **tags
    ) -> Server:
        """Make the smallest-id candidate root in place of *old_root*.

        *old_root* leaves the membership; every child it still had, but
        the new root, rejoins under the new root. Returns the new root.
        """
        new_root = min(candidates, key=lambda s: s.server_id)
        self.root_elections += 1
        self._event(
            "maintenance.root_election",
            server=new_root.server_id, failed_root=old_root.server_id, **tags,
        )
        detached = list(old_root.children)
        for child in detached:
            old_root.remove_child(child.server_id)
        if new_root.parent is not None:
            new_root.parent.remove_child(new_root.server_id)
        self.hierarchy.set_root(new_root)
        self.hierarchy.remove(old_root.server_id)
        for child in detached:
            if child is new_root or not child.alive:
                continue
            if not self._try_rejoin(child, new_root):
                self.orphaned.add(child.server_id)
        return new_root

    # -- explicit departures ---------------------------------------------------------
    def leave(self, server: Server) -> None:
        """Graceful departure: children rejoin from their grandparent; a
        leaving root hands over to its smallest-id live child first."""
        self._event("maintenance.leave", server=server.server_id)
        server.alive = False
        if server is self.hierarchy.root:
            successors = [c for c in server.children if c.alive]
            if successors:
                self._replace_root(server, successors)
        else:
            parent = server.parent
            if parent is not None:
                parent.remove_child(server.server_id)
            for child in list(server.children):
                server.remove_child(child.server_id)
                start = parent if parent is not None else self.hierarchy.root
                if not self._try_rejoin(child, start):
                    if not self._try_rejoin(child, self.hierarchy.root):
                        self.orphaned.add(child.server_id)
            self.hierarchy.remove(server.server_id)
        self.network.unregister(server.server_id)

    def fail(self, server: Server) -> None:
        """Crash-fail a server: it goes silent; recovery is detection-driven."""
        self._event("maintenance.fail", server=server.server_id)
        server.alive = False
        self.network.fail_node(server.server_id)

    def recover(self, server: Server) -> bool:
        """A crashed server comes back and rejoins like any orphan.

        The root resumes in place when no election replaced it. Anyone
        else forgets the tree it left and runs the balanced join walk
        from the root; returns False if no server would accept it.
        """
        self.network.recover_node(server.server_id)
        server.alive = True
        self._register(server)
        if server is self.hierarchy.root:
            return True
        server.forget_tree()
        return self._try_rejoin(server, self.hierarchy.root)

    def forget_failed(self) -> None:
        """Drop fully detached dead servers from the membership table.

        A server that crashed (or was excised during recovery) ends up
        with no parent and no children once its neighbours have healed;
        keeping it in the membership table would make the tree and the
        table disagree.
        """
        for server in list(self.hierarchy):
            if server is self.hierarchy.root:
                continue
            detached = server.parent is None and not server.children
            presumed_dead = not server.alive or self.network.is_failed(
                server.server_id
            )
            if detached and presumed_dead:
                self.hierarchy.remove(server.server_id)
