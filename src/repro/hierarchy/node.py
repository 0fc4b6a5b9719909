"""Hierarchy servers.

A :class:`Server` is one machine in the ROADS federated hierarchy. It
tracks its tree neighbourhood (parent, children, root path), per-child
branch statistics (depth / descendant counts, maintained from bottom-up
aggregation and used by the balanced join rule), summaries received from
children and attached resource owners, and summaries replicated via the
overlay.

Resource owners attach to a server of their choice (their *attachment
point*). An owner that controls the server exports its raw record store;
an owner attaching to a third-party server exports only a summary
(voluntary sharing, Section III-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

import numpy as np

from ..query.query import Query
from ..records.store import RecordStore
from ..summaries.config import SummaryConfig
from ..summaries.summary import ResourceSummary


@dataclass
class AttachedOwner:
    """A resource owner exporting data to its attachment point.

    Exactly one of ``store`` / ``summary`` reflects what the *server*
    holds: raw records when the owner controls the server, a summary
    otherwise. The owner always keeps its full store privately (``origin``)
    so it can answer queries under its own policy.

    ``node_id`` is the owner's own location in the delay space. For an
    owner that controls its attachment server the two coincide; a guest
    owner (the paper's Figure 1, owner D) lives at its own node, and a
    query that matches its summary costs the client one extra hop to
    reach the owner's records.
    """

    owner_id: str
    origin: RecordStore
    controls_server: bool
    summary: Optional[ResourceSummary] = None
    node_id: Optional[int] = None
    #: not a field: ``(store, its write stamp, summary)`` of the last summarize()
    _built = None
    #: not a field: ``(query, store, write stamp, mask)`` of the last hit's scan
    _scanned = None

    def summarize(self, config: SummaryConfig, now: float) -> ResourceSummary:
        """This owner's records summarized under *config*, stamped *now*.

        Scans the store only if it was written since the last call (its
        write stamp moved) and re-stamps that call's summary otherwise:
        the store is sealed, so no write can have skipped the stamp.
        """
        store = self.origin
        stamp = store.write_stamp
        built = self._built
        if (
            built is not None and built[0] is store and built[1] == stamp
            and built[2].config == config
        ):
            summary = built[2].refreshed(now)
        else:
            summary = ResourceSummary.from_store(store, config, created_at=now)
        self._built = (store, stamp, summary)
        return summary

    def holds_match(self, query: Query) -> bool:
        """Whether any record of ``origin`` matches *query*.

        The summary :meth:`summarize` last built is asked first: while it
        is of this store at this write stamp its "no" is final (summaries
        have no false negatives), and the records are scanned otherwise.
        The scan behind a "yes" is kept for :meth:`match_mask`.
        """
        store = self.origin
        stamp = store.write_stamp
        built = self._built
        if (
            built is not None and built[0] is store
            and built[1] == stamp and not built[2].may_match(query)
        ):
            return False
        mask = query.mask(store)
        hit = bool(mask.any())
        self._scanned = (query, store, stamp, mask) if hit else None
        return hit

    def match_mask(self, query: Query) -> np.ndarray:
        """``query.mask(origin)``: the scan behind the last :meth:`holds_match`
        hit, handed over once while it is of this query, store and write
        stamp (never keyed on values), else a fresh one."""
        store = self.origin
        last, self._scanned = self._scanned, None
        if (
            last is not None and last[0] is query and last[1] is store
            and last[2] == store.write_stamp
        ):
            return last[3]
        return query.mask(store)


@dataclass
class BranchStats:
    """Per-child branch statistics used by the balanced join rule."""

    depth: int = 1
    descendants: int = 1


class Server:
    """One server in the federated hierarchy."""

    def __init__(self, server_id: int, *, max_children: int = 8):
        if max_children < 1:
            raise ValueError("max_children must be >= 1")
        self.server_id = server_id
        self.max_children = max_children
        self.parent: Optional["Server"] = None
        self.children: List["Server"] = []
        # ids of all servers from the root down to (and including) self
        self.root_path: List[int] = [server_id]
        self.branch_stats: Dict[int, BranchStats] = {}
        self.owners: List[AttachedOwner] = []
        # summaries most recently reported by each child (branch summaries)
        self.child_summaries: Dict[int, ResourceSummary] = {}
        # summaries replicated via the overlay, keyed by origin server id
        self.replicated_summaries: Dict[int, ResourceSummary] = {}
        # ancestors' local-owner summaries (overlay): used to decide
        # whether an ancestor itself (not its branch) is worth contacting
        self.replicated_local_summaries: Dict[int, ResourceSummary] = {}
        # the soft-state tables by the name a SummaryUpdate gives them
        self._tables: Dict[str, Dict[int, ResourceSummary]] = {
            "child": self.child_summaries,
            "replica": self.replicated_summaries,
            "replica_local": self.replicated_local_summaries,
        }
        # the last branch summary shipped to the parent — the very object
        # the parent was sent, so keeping it keeps no array alive twice
        self.last_reported: Optional[ResourceSummary] = None
        self.alive = True

    @property
    def last_reported_fingerprint(self) -> Optional[bytes]:
        """Content hash of :attr:`last_reported`, computed when first
        compared (delta propagation)."""
        reported = self.last_reported
        return None if reported is None else reported.fingerprint()

    # -- tree structure ------------------------------------------------------------
    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def depth(self) -> int:
        """Distance from the root (root = 0)."""
        return len(self.root_path) - 1

    def child_ids(self) -> List[int]:
        return [c.server_id for c in self.children]

    def willing_to_accept(self, joiner_id: int) -> bool:
        """Child-acceptance: alive, below capacity, and no loop."""
        return (
            self.alive
            and len(self.children) < self.max_children
            and joiner_id not in self.root_path
        )

    def add_child(self, child: "Server") -> None:
        if child.server_id in (c.server_id for c in self.children):
            raise ValueError(f"server {child.server_id} is already a child")
        if child.server_id in self.root_path:
            raise ValueError(
                f"joining server {child.server_id} is on the root path of "
                f"server {self.server_id} (loop)"
            )
        child.parent = self
        self.children.append(child)
        child.refresh_root_path()
        self.branch_stats[child.server_id] = BranchStats(
            depth=child.subtree_depth(), descendants=child.subtree_size()
        )
        self._propagate_stats_up()

    def remove_child(self, child_id: int) -> Optional["Server"]:
        """Detach a child; its summary and stats are dropped (Section III-A)."""
        for i, c in enumerate(self.children):
            if c.server_id == child_id:
                self.children.pop(i)
                c.parent = None
                self.branch_stats.pop(child_id, None)
                self.child_summaries.pop(child_id, None)
                self._propagate_stats_up()
                return c
        return None

    def forget_tree(self) -> None:
        """Drop every tree edge and all held soft state.

        A crashed server comes back knowing nothing of the tree it left.
        If it recovered before the failure detector noticed, its old
        edges still exist: they are severed here so the neighbours stay
        consistent (its children become orphans and rejoin).
        """
        if self.parent is not None:
            self.parent.remove_child(self.server_id)
        for child in list(self.children):
            self.remove_child(child.server_id)
        self.root_path = [self.server_id]
        self.replicated_summaries.clear()
        self.replicated_local_summaries.clear()
        self.last_reported = None

    def refresh_root_path(self) -> None:
        """Recompute root paths for this subtree after reattachment."""
        if self.parent is None:
            self.root_path = [self.server_id]
        else:
            self.root_path = self.parent.root_path + [self.server_id]
        for c in self.children:
            c.refresh_root_path()

    def _propagate_stats_up(self) -> None:
        node = self
        while node.parent is not None:
            node.parent.branch_stats[node.server_id] = BranchStats(
                depth=node.subtree_depth(), descendants=node.subtree_size()
            )
            node = node.parent

    def subtree_depth(self) -> int:
        """Height of the subtree rooted here (a leaf has depth 1)."""
        if not self.children:
            return 1
        return 1 + max(c.subtree_depth() for c in self.children)

    def subtree_size(self) -> int:
        """Number of servers in the subtree rooted here (including self)."""
        return 1 + sum(c.subtree_size() for c in self.children)

    def iter_subtree(self) -> Iterator["Server"]:
        yield self
        for c in self.children:
            yield from c.iter_subtree()

    def siblings(self) -> List["Server"]:
        if self.parent is None:
            return []
        return [c for c in self.parent.children if c.server_id != self.server_id]

    def ancestors(self) -> List["Server"]:
        """Proper ancestors, nearest first."""
        out = []
        node = self.parent
        while node is not None:
            out.append(node)
            node = node.parent
        return out

    # -- owners ----------------------------------------------------------------
    def attach_owner(self, owner: AttachedOwner) -> None:
        if any(o.owner_id == owner.owner_id for o in self.owners):
            raise ValueError(f"owner {owner.owner_id!r} already attached")
        self.owners.append(owner)

    def detach_owner(self, owner_id: str) -> Optional[AttachedOwner]:
        for i, o in enumerate(self.owners):
            if o.owner_id == owner_id:
                return self.owners.pop(i)
        return None

    # -- summaries ----------------------------------------------------------------
    def local_summary(
        self,
        config: SummaryConfig,
        now: float = 0.0,
        exports: Optional[Dict[str, ResourceSummary]] = None,
    ) -> Optional[ResourceSummary]:
        """Summary of everything exported by directly attached owners.

        *exports* (guest owner id -> summary) stands in for guest exports
        still on their way here; a guest it does not name contributes
        the summary this server already holds for it.
        """
        parts: List[ResourceSummary] = []
        for o in self.owners:
            if o.controls_server:
                parts.append(o.summarize(config, now))
                continue
            summary = exports.get(o.owner_id) if exports else None
            if summary is None:
                summary = o.summary
            if summary is not None:
                parts.append(summary)
        if not parts:
            return None
        return ResourceSummary.merge_many(parts)

    def branch_summary(
        self, config: SummaryConfig, now: float = 0.0
    ) -> Optional[ResourceSummary]:
        """Local summary merged with the latest child branch summaries."""
        return self.fold_branch(self.local_summary(config, now), now)

    def fold_branch(
        self,
        local: Optional[ResourceSummary],
        now: float,
        reports: Optional[Dict[int, ResourceSummary]] = None,
    ) -> Optional[ResourceSummary]:
        """*local* merged with the latest child branch summaries.

        Uses the *reported* child summaries (soft state), not a live
        recomputation — matching the bottom-up aggregation protocol.
        Taking *local* as an argument lets a caller that also ships the
        local summary (the replication overlay) build it only once.
        *reports* (child id -> branch summary) stands in for full child
        reports still on their way here, replacing what is held.
        """
        parts: List[ResourceSummary] = []
        if local is not None:
            parts.append(local)
        for cid in self.child_ids():
            s = reports.get(cid) if reports else None
            if s is None:
                s = self.child_summaries.get(cid)
            if s is not None and not s.is_expired(now):
                parts.append(s)
        if not parts:
            return None
        return ResourceSummary.merge_many(parts)

    def install_summary(
        self, table: str, src_id: int, summary: ResourceSummary
    ) -> bool:
        """Delivery-time install of a full summary update.

        Child reports are only installed while *src_id* is an actual
        child (a report racing a failure-triggered detach must not
        resurrect the dropped branch state). Replica tables install
        unconditionally — the holder cannot validate overlay membership.
        Returns whether the summary was installed.
        """
        if table == "child" and src_id not in (
            c.server_id for c in self.children
        ):
            return False
        self._tables[table][src_id] = summary
        return True

    def refresh_summary(
        self, table: str, src_id: int, fingerprint: bytes, now: float
    ) -> bool:
        """Delivery-time keep-alive: re-stamp matching soft state.

        The keep-alive carries only the sender's current content
        fingerprint. It refreshes the held summary's TTL **only when the
        content matches** — if a full update was lost, the held content
        is genuinely stale and must be allowed to age out rather than be
        kept alive under a fingerprint it no longer has. Returns whether
        the refresh was accepted.
        """
        summaries = self._tables[table]
        held = summaries.get(src_id)
        if held is None or held.fingerprint() != fingerprint:
            return False
        # refreshed() copies: full sends can share one payload object
        # across many holders, so re-stamping must not mutate in place.
        summaries[src_id] = held.refreshed(now)
        return True

    def summary_ages(self, now: float) -> List[float]:
        """Age in seconds of every piece of held soft state."""
        return [
            now - s.created_at for table in self._tables.values()
            for s in table.values()
        ]

    def expire_stale_summaries(self, now: float) -> int:
        """Drop expired soft-state summaries; returns how many were dropped."""
        dropped = 0
        for table in self._tables.values():
            stale = [k for k, s in table.items() if s.is_expired(now)]
            for k in stale:
                del table[k]
                dropped += 1
        return dropped

    def __repr__(self) -> str:
        return (
            f"Server(id={self.server_id}, depth={self.depth}, "
            f"children={len(self.children)}, owners={len(self.owners)})"
        )
