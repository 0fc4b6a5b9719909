"""Hierarchy formation: incremental balanced join.

A joining server starts at a known server (the root by default), and at
each step either attaches to the current server (if willing to accept) or
descends into the child branch with the least depth — least descendants
breaking ties — exactly the incremental join rule of Section III-A. If it
reaches a leaf that refuses, it backtracks to try other branches.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set

from .node import BranchStats, Server


class JoinError(RuntimeError):
    """No server in the hierarchy would accept the joining server."""


class Hierarchy:
    """The federated server hierarchy (a rooted tree of :class:`Server`)."""

    def __init__(self, root: Server):
        self.root = root
        self._servers: Dict[int, Server] = {root.server_id: root}

    # -- container protocol ---------------------------------------------------------
    def __contains__(self, server_id: int) -> bool:
        return server_id in self._servers

    def __len__(self) -> int:
        return len(self._servers)

    def __iter__(self) -> Iterator[Server]:
        return iter(self._servers.values())

    def get(self, server_id: int) -> Server:
        try:
            return self._servers[server_id]
        except KeyError:
            raise KeyError(f"no server with id {server_id}") from None

    def servers(self) -> List[Server]:
        return list(self._servers.values())

    def leaves(self) -> List[Server]:
        return [s for s in self._servers.values() if s.is_leaf]

    @property
    def levels(self) -> int:
        """Number of levels (the paper's ``L + 1``; a lone root is 1)."""
        return self.root.subtree_depth()

    # -- joining ----------------------------------------------------------------
    def attach(
        self, server: Server, start: Optional[Server] = None
    ) -> Optional[Server]:
        """Attach *server* by the balanced join walk from *start* (the root
        by default); returns its new parent, or None if no server accepts.

        The one way a server enters the tree: a new server, an orphan
        whose parent failed and a crashed server that came back all
        attach here. The walk records the descent path so it can
        backtrack when a subtree is exhausted without a willing parent.
        """
        current = start if start is not None else self.root
        parent = self._find_parent(current, server.server_id, visited=set())
        if parent is not None:
            parent.add_child(server)
            self._servers[server.server_id] = server
        return parent

    def join(self, server: Server, start: Optional[Server] = None) -> Server:
        """Attach a server that is not yet a member; returns its parent."""
        if server.server_id in self._servers:
            raise ValueError(f"server {server.server_id} already in hierarchy")
        parent = self.attach(server, start)
        if parent is None:
            raise JoinError(
                f"no server willing to accept {server.server_id} "
                f"(hierarchy size {len(self)})"
            )
        return parent

    def _find_parent(
        self, current: Server, joiner_id: int, visited: Set[int]
    ) -> Optional[Server]:
        """Depth-first balanced descent with backtracking."""
        visited.add(current.server_id)
        if current.willing_to_accept(joiner_id):
            return current
        # Order children by (branch depth, branch descendants): least first.
        candidates = sorted(
            (c for c in current.children if c.server_id not in visited),
            key=lambda c: (
                current.branch_stats.get(c.server_id, BranchStats()).depth,
                current.branch_stats.get(c.server_id, BranchStats()).descendants,
            ),
        )
        for child in candidates:
            found = self._find_parent(child, joiner_id, visited)
            if found is not None:
                return found
        return None

    # -- removal (used by the maintenance protocol) -----------------------------------
    def remove(self, server_id: int) -> Server:
        """Remove a server record from the membership table.

        Tree-edge surgery (re-parenting orphans) is the maintenance
        protocol's job; this only forgets the server. :meth:`attach`,
        this and :meth:`set_root` are the only writers of membership.
        """
        if server_id == self.root.server_id:
            raise ValueError("cannot remove the root via remove(); elect a new root first")
        server = self._servers.pop(server_id)
        return server

    def set_root(self, server: Server) -> None:
        if server.server_id not in self._servers:
            raise ValueError("new root must already be a member")
        self.root = server
        server.parent = None
        server.refresh_root_path()

    # -- validation (used heavily by tests) ---------------------------------------
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` on any structural inconsistency."""
        seen: Set[int] = set()
        for s in self.root.iter_subtree():
            assert s.server_id not in seen, f"server {s.server_id} reachable twice"
            seen.add(s.server_id)
            expected_path = (
                [s.server_id]
                if s.parent is None
                else s.parent.root_path + [s.server_id]
            )
            assert s.root_path == expected_path, (
                f"server {s.server_id} root path {s.root_path} != {expected_path}"
            )
            for c in s.children:
                assert c.parent is s, f"child {c.server_id} has wrong parent"
                stats = s.branch_stats.get(c.server_id)
                assert stats is not None, (
                    f"server {s.server_id} missing stats for child {c.server_id}"
                )
                assert stats.depth == c.subtree_depth(), (
                    f"stale depth for branch {c.server_id}"
                )
                assert stats.descendants == c.subtree_size(), (
                    f"stale descendant count for branch {c.server_id}"
                )
            assert len(s.children) <= s.max_children, (
                f"server {s.server_id} over capacity"
            )
        assert seen == set(self._servers), (
            f"membership/tree mismatch: {seen ^ set(self._servers)}"
        )


def build_hierarchy(
    servers: Iterable[Server], *, root: Optional[Server] = None
) -> Hierarchy:
    """Build a hierarchy by joining *servers* one at a time (first = root
    unless *root* is given)."""
    it = iter(servers)
    if root is None:
        try:
            root = next(it)
        except StopIteration:
            raise ValueError("need at least one server") from None
    h = Hierarchy(root)
    for s in it:
        h.join(s)
    return h
