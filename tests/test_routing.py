"""Unit tests for repro.overlay.routing."""

import numpy as np
import pytest

from repro.hierarchy import AttachedOwner, Server, build_hierarchy
from repro.overlay import (
    decide_descent,
    decide_start,
    scope_candidates,
)
from repro.query import Query, RangePredicate
from repro.records import RecordStore, Schema, numeric
from repro.summaries import SummaryConfig

from .conftest import converge

CFG = SummaryConfig(histogram_buckets=100)


@pytest.fixture
def schema():
    return Schema([numeric("x")])


@pytest.fixture
def hierarchy(schema):
    """Degree-2, 7 servers; each leaf/branch owns a disjoint value band.

    Server i's records live in [i/10, i/10 + 0.05], so queries can be
    aimed at exactly one server's band.
    """
    h = build_hierarchy(Server(i, max_children=2) for i in range(7))
    rng = np.random.default_rng(0)
    for i in range(7):
        vals = (i / 10.0 + rng.random((20, 1)) * 0.05).clip(0, 1)
        st = RecordStore.from_arrays(schema, vals, [])
        h.get(i).attach_owner(AttachedOwner(f"o{i}", st, True))
    converge(h, CFG)
    return h


def band_query(i):
    return Query.of(RangePredicate("x", i / 10.0, i / 10.0 + 0.05))


class TestDecideDescent:
    def test_local_owner_hit(self, hierarchy):
        server = hierarchy.get(3)
        decision = decide_descent(server, band_query(3))
        assert [o.owner_id for o in decision.owner_hits] == ["o3"]

    def test_redirects_to_matching_children_only(self, hierarchy):
        root = hierarchy.root
        decision = decide_descent(root, band_query(3))
        # server 3 lives under child 1 (degree-2 build: 1,2 children of 0)
        path_to_3 = hierarchy.get(3).root_path
        assert decision.redirect_ids == [path_to_3[1]]

    def test_no_match_no_redirects(self, hierarchy):
        decision = decide_descent(hierarchy.root, Query.of(
            RangePredicate("x", 0.95, 0.99)
        ))
        assert decision.redirect_ids == []
        assert decision.owner_hits == []

    def test_response_size_scales(self, hierarchy):
        d0 = decide_descent(hierarchy.root, Query.of(
            RangePredicate("x", 0.95, 0.99)
        ))
        d1 = decide_descent(hierarchy.root, Query.of(
            RangePredicate("x", 0.0, 1.0)
        ))
        assert d1.response_size_bytes > d0.response_size_bytes


    def test_expired_entries_are_counted_missing_ones_are_not(self, hierarchy):
        root = hierarchy.root
        q = Query.of(RangePredicate("x", 0.0, 1.0))
        late = CFG.ttl + 1.0
        assert decide_descent(root, q).expired == 0
        decision = decide_descent(root, q, late)
        assert decision.redirect_ids == [] and decision.expired == 2
        # a child with no entry at all: an empty branch or a lost report
        del root.child_summaries[root.children[0].server_id]
        assert decide_descent(root, q, late).expired == 1


class TestDecideStart:
    def test_overlay_shortcuts_included(self, hierarchy):
        # Start at a leaf; target a band owned by a different branch.
        leaf = hierarchy.get(5)
        target = hierarchy.get(4)
        decision = decide_start(leaf, band_query(4))
        # The overlay must point (directly or via a branch top) toward
        # the target's branch without going through the root: every
        # redirect target is a sibling/ancestor-sibling of the start.
        assert decision.redirect_ids
        covered = set()
        for rid in decision.redirect_ids:
            covered.update(
                s.server_id for s in hierarchy.get(rid).iter_subtree()
            )
        assert target.server_id in covered

    def test_ancestors_not_redirect_targets(self, hierarchy):
        leaf = hierarchy.get(5)
        decision = decide_start(leaf, Query.of(RangePredicate("x", 0, 1)))
        ancestors = set(leaf.root_path[:-1])
        assert not ancestors & set(decision.redirect_ids)

    def test_start_covers_disjoint_partition(self, hierarchy):
        """Start fan-out plus own subtree covers every server exactly once."""
        leaf = hierarchy.get(6)
        decision = decide_start(leaf, Query.of(RangePredicate("x", 0, 1)))
        seen = [s.server_id for s in leaf.iter_subtree()]
        for rid in decision.redirect_ids:
            seen.extend(s.server_id for s in hierarchy.get(rid).iter_subtree())
        assert sorted(seen) == sorted(
            s.server_id for s in hierarchy if s.server_id not in
            set(leaf.root_path[:-1])
        )

    def test_expired_replicas_are_counted(self, hierarchy):
        leaf = hierarchy.get(5)
        q = Query.of(RangePredicate("x", 0.0, 1.0))
        # ancestors' branch entries are never consulted: their owners are
        # reached through the replicated local summaries
        ancestors = set(leaf.root_path[:-1])
        held = len(leaf.replicated_local_summaries) + sum(
            1 for sid in leaf.replicated_summaries if sid not in ancestors
        )
        assert held
        decision = decide_start(leaf, q, CFG.ttl + 1.0)
        assert decision.expired == held
        assert decision.redirect_ids == decision.owners_only_ids == []

    def test_start_equals_descent_at_root(self, hierarchy):
        q = band_query(2)
        start = decide_start(hierarchy.root, q)
        descent = decide_descent(hierarchy.root, q)
        assert start.redirect_ids == descent.redirect_ids


class TestScopeCandidates:
    def test_nearest_first(self, hierarchy):
        leaf = hierarchy.get(5)
        cands = scope_candidates(leaf)
        assert cands == list(reversed(leaf.root_path[:-1]))

    def test_root_has_none(self, hierarchy):
        assert scope_candidates(hierarchy.root) == []
