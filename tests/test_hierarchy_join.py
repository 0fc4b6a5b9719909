"""Unit tests for repro.hierarchy.join."""

import pytest

from repro.hierarchy import Hierarchy, JoinError, Server, build_hierarchy


def build(n, k=3):
    return build_hierarchy(Server(i, max_children=k) for i in range(n))


class TestJoin:
    def test_single_root(self):
        h = build(1)
        assert len(h) == 1
        assert h.levels == 1

    def test_fills_root_first(self):
        h = build(4, k=3)
        assert set(h.root.child_ids()) == {1, 2, 3}
        assert h.levels == 2

    def test_descends_when_root_full(self):
        h = build(5, k=3)
        assert h.levels == 3
        h.check_invariants()

    def test_balanced_distribution(self):
        h = build(13, k=3)  # 1 root + 3 children + 9 grandchildren
        h.check_invariants()
        assert h.levels == 3
        # all three branches should carry equal weight
        sizes = [c.subtree_size() for c in h.root.children]
        assert max(sizes) - min(sizes) <= 1

    def test_levels_grow_logarithmically(self):
        # capacity of L levels with degree k: 1 + k + k^2 + ...
        assert build(4, k=3).levels == 2
        assert build(13, k=3).levels == 3
        assert build(14, k=3).levels == 4

    def test_duplicate_join_rejected(self):
        h = build(3)
        with pytest.raises(ValueError, match="already in hierarchy"):
            h.join(Server(1))

    def test_join_error_when_no_acceptor(self):
        # Degree-1 chain where everyone refuses: max_children=1 gives a
        # path; joining is always possible, so force refusal via a full
        # single-node hierarchy of capacity... instead check loop rule:
        root = Server(0, max_children=1)
        h = Hierarchy(root)
        a = Server(1, max_children=1)
        h.join(a)
        # Root full; a accepts. Chain grows - join always succeeds here,
        # so instead verify JoinError on an impossible constraint: an
        # acceptor set that excludes the joiner everywhere.
        b = Server(2, max_children=1)
        h.join(b)
        assert h.levels == 3

    def test_join_from_custom_start(self):
        h = build(4, k=3)
        branch = h.get(1)
        newcomer = Server(99, max_children=3)
        parent = h.join(newcomer, start=branch)
        assert parent is branch

    def test_container_protocol(self):
        h = build(5)
        assert 3 in h and 99 not in h
        assert len(h.servers()) == 5
        assert h.get(2).server_id == 2
        with pytest.raises(KeyError):
            h.get(42)

    def test_leaves(self):
        h = build(4, k=3)
        assert {s.server_id for s in h.leaves()} == {1, 2, 3}


class TestBuildHierarchy:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            build_hierarchy([])

    def test_explicit_root(self):
        root = Server(10, max_children=2)
        h = build_hierarchy([Server(1), Server(2)], root=root)
        assert h.root is root
        assert len(h) == 3


class TestInvariantChecker:
    def test_detects_stale_stats(self):
        h = build(5, k=2)
        # Corrupt a branch stat and expect the checker to trip.
        some_child = h.root.children[0]
        h.root.branch_stats[some_child.server_id].descendants = 999
        with pytest.raises(AssertionError, match="stale descendant"):
            h.check_invariants()

    def test_detects_wrong_root_path(self):
        h = build(5, k=2)
        h.get(3).root_path = [99]
        with pytest.raises(AssertionError, match="root path"):
            h.check_invariants()


class TestRemovalAndRoot:
    def test_remove_forgets_member(self):
        h = build(4)
        h.root.remove_child(1)
        h.remove(1)
        assert 1 not in h

    def test_remove_root_rejected(self):
        h = build(3)
        with pytest.raises(ValueError, match="root"):
            h.remove(0)

    def test_set_root(self):
        h = build(4, k=3)
        new_root = h.get(1)
        h.root.remove_child(1)
        h.set_root(new_root)
        assert h.root is new_root
        assert new_root.root_path == [1]

    def test_set_root_requires_membership(self):
        h = build(3)
        with pytest.raises(ValueError, match="member"):
            h.set_root(Server(42))


class TestBacktracking:
    """A server's say in the join walk is capacity, loop avoidance and
    being alive; a branch where no server is willing is left for the
    next one."""

    def test_walk_backtracks_past_a_full_branch(self):
        h = Hierarchy(Server(0, max_children=2))
        a, b = Server(1, max_children=1), Server(2, max_children=1)
        h.join(a)
        h.join(b)
        c = Server(3, max_children=1)
        assert h.join(c, start=a) is a  # a is full
        e, f = Server(4, max_children=1), Server(5, max_children=1)
        h.join(e, start=b)
        h.join(f, start=e)  # b's branch is now the deeper one
        c.alive = False  # the shallow branch's one leaf refuses too
        assert h.join(Server(6)) is f
        h.check_invariants()

    def test_no_willing_server_is_a_join_error(self):
        h = Hierarchy(Server(0, max_children=1))
        a = Server(1, max_children=1)
        h.join(a)
        a.alive = False
        with pytest.raises(JoinError, match="no server willing"):
            h.join(Server(2))
