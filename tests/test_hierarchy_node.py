"""Unit tests for repro.hierarchy.node."""

import numpy as np
import pytest

from repro.hierarchy import AttachedOwner, Server
from repro.records import RecordStore, Schema, numeric
from repro.summaries import SummaryConfig


@pytest.fixture
def schema():
    return Schema([numeric("a"), numeric("b")])


def store(schema, n=10, seed=0):
    rng = np.random.default_rng(seed)
    return RecordStore.from_arrays(schema, rng.random((n, 2)), [])


def chain(k):
    """A simple path hierarchy s0 -> s1 -> ... -> s(k-1)."""
    servers = [Server(i) for i in range(k)]
    for parent, child in zip(servers, servers[1:]):
        parent.add_child(child)
    return servers


class TestTreeStructure:
    def test_root_properties(self):
        s = Server(0)
        assert s.is_root and s.is_leaf
        assert s.depth == 0
        assert s.root_path == [0]

    def test_add_child_updates_paths(self):
        a, b, c = chain(3)
        assert c.root_path == [0, 1, 2]
        assert c.depth == 2
        assert b.child_ids() == [2]

    def test_add_duplicate_child_rejected(self):
        a = Server(0)
        b = Server(1)
        a.add_child(b)
        with pytest.raises(ValueError, match="already a child"):
            a.add_child(Server(1))

    def test_loop_rejected(self):
        a, b, c = chain(3)
        with pytest.raises(ValueError, match="loop"):
            c.add_child(a)

    def test_subtree_metrics(self):
        root = Server(0)
        for i in (1, 2):
            root.add_child(Server(i))
        root.children[0].add_child(Server(3))
        assert root.subtree_size() == 4
        assert root.subtree_depth() == 3
        assert root.children[1].subtree_depth() == 1

    def test_branch_stats_maintained(self):
        root = Server(0)
        child = Server(1)
        root.add_child(child)
        child.add_child(Server(2))
        stats = root.branch_stats[1]
        assert stats.depth == 2
        assert stats.descendants == 2

    def test_remove_child(self):
        a, b, c = chain(3)
        removed = a.remove_child(1)
        assert removed is b
        assert b.parent is None
        assert a.children == []
        assert 1 not in a.branch_stats

    def test_remove_unknown_child(self):
        assert Server(0).remove_child(99) is None

    def test_siblings_and_ancestors(self):
        root = Server(0)
        kids = [Server(i) for i in (1, 2, 3)]
        for k in kids:
            root.add_child(k)
        grand = Server(4)
        kids[0].add_child(grand)
        assert {s.server_id for s in kids[0].siblings()} == {2, 3}
        assert [a.server_id for a in grand.ancestors()] == [1, 0]
        assert root.siblings() == []

    def test_willing_to_accept_capacity(self):
        s = Server(0, max_children=1)
        s.add_child(Server(1))
        assert not s.willing_to_accept(2)

    def test_willing_to_accept_loop_avoidance(self):
        a, b, c = chain(3)
        assert not c.willing_to_accept(0)

    def test_max_children_validation(self):
        with pytest.raises(ValueError):
            Server(0, max_children=0)

    def test_iter_subtree_preorder(self):
        root = Server(0)
        c1, c2 = Server(1), Server(2)
        root.add_child(c1)
        root.add_child(c2)
        c1.add_child(Server(3))
        ids = [s.server_id for s in root.iter_subtree()]
        assert ids == [0, 1, 3, 2]


class TestOwners:
    def test_attach_detach(self, schema):
        s = Server(0)
        o = AttachedOwner("org-a", store(schema), controls_server=True)
        s.attach_owner(o)
        assert s.owners == [o]
        with pytest.raises(ValueError, match="already attached"):
            s.attach_owner(o)
        assert s.detach_owner("org-a") is o
        assert s.detach_owner("org-a") is None


class TestSummaries:
    def test_local_summary_merges_owners(self, schema):
        cfg = SummaryConfig(histogram_buckets=16)
        s = Server(0)
        s.attach_owner(AttachedOwner("a", store(schema, 5, 1), True))
        s.attach_owner(AttachedOwner("b", store(schema, 7, 2), True))
        local = s.local_summary(cfg)
        assert local.attributes["a"].total == 12

    def test_local_summary_none_when_no_owners(self, schema):
        assert Server(0).local_summary(SummaryConfig()) is None

    def test_branch_summary_includes_children_reports(self, schema):
        from repro.summaries import ResourceSummary

        cfg = SummaryConfig(histogram_buckets=16)
        parent, child = Server(0), Server(1)
        parent.add_child(child)
        parent.attach_owner(AttachedOwner("p", store(schema, 5, 3), True))
        child_summary = ResourceSummary.from_store(store(schema, 9, 4), cfg)
        parent.child_summaries[1] = child_summary
        branch = parent.branch_summary(cfg)
        assert branch.attributes["a"].total == 14

    def test_branch_summary_skips_expired(self, schema):
        from repro.summaries import ResourceSummary

        cfg = SummaryConfig(histogram_buckets=16, ttl=10.0)
        parent, child = Server(0), Server(1)
        parent.add_child(child)
        stale = ResourceSummary.from_store(store(schema, 9, 4), cfg, created_at=0.0)
        parent.child_summaries[1] = stale
        assert parent.branch_summary(cfg, now=100.0) is None

    def test_expire_stale_summaries(self, schema):
        from repro.summaries import ResourceSummary

        cfg = SummaryConfig(histogram_buckets=16, ttl=10.0)
        s = Server(0)
        s.child_summaries[1] = ResourceSummary.from_store(
            store(schema, 3, 1), cfg, created_at=0.0
        )
        s.replicated_summaries[2] = ResourceSummary.from_store(
            store(schema, 3, 2), cfg, created_at=95.0
        )
        dropped = s.expire_stale_summaries(now=100.0)
        assert dropped == 1
        assert 1 not in s.child_summaries
        assert 2 in s.replicated_summaries
