"""Unit tests for repro.overlay.replication."""

import numpy as np
import pytest

from repro.hierarchy import AttachedOwner, Server, build_hierarchy
from repro.overlay import (
    ReplicationOverlay,
    coverage_ids,
    replication_sources,
)
from repro.records import RecordStore, Schema, numeric
from repro.sim import UPDATE
from repro.summaries import SummaryConfig

from .conftest import converge, make_plane

CFG = SummaryConfig(histogram_buckets=32)


@pytest.fixture
def schema():
    return Schema([numeric("a"), numeric("b")])


@pytest.fixture
def hierarchy(schema):
    """21 servers, degree 4 -> 3 levels; every server owns 5 records."""
    h = build_hierarchy(Server(i, max_children=4) for i in range(21))
    rng = np.random.default_rng(0)
    for i in range(21):
        st = RecordStore.from_arrays(schema, rng.random((5, 2)), [])
        h.get(i).attach_owner(AttachedOwner(f"o{i}", st, True))
    return h


class TestReplicationSources:
    def test_paper_figure2_shape(self):
        """D1 replicates [D2, C1, C2, B1, B2, A] (siblings, ancestors,
        ancestors' siblings)."""
        a = Server(0, max_children=2)
        b1, b2 = Server(1, max_children=2), Server(2, max_children=2)
        c1, c2 = Server(3, max_children=2), Server(4, max_children=2)
        d1, d2 = Server(5, max_children=2), Server(6, max_children=2)
        a.add_child(b1)
        a.add_child(b2)
        b1.add_child(c1)
        b1.add_child(c2)
        c1.add_child(d1)
        c1.add_child(d2)
        ids = [s.server_id for s in replication_sources(d1)]
        assert ids == [6, 3, 4, 1, 2, 0]  # D2, C1, C2, B1, B2, A

    def test_root_has_no_sources(self, hierarchy):
        assert replication_sources(hierarchy.root) == []

    def test_source_count_scales_with_depth(self, hierarchy):
        for server in hierarchy:
            srcs = replication_sources(server)
            # siblings (<= k-1) plus per ancestor (1 + its siblings)
            assert len(srcs) <= server.depth * 4 + 3


class TestCoverage:
    def test_every_server_covers_whole_hierarchy(self, hierarchy):
        all_ids = {s.server_id for s in hierarchy}
        for server in hierarchy:
            assert coverage_ids(server) == all_ids

    def test_check_coverage_passes(self, hierarchy):
        ReplicationOverlay(hierarchy, CFG).check_coverage()


class TestReplicateRound:
    def test_replicas_installed(self, hierarchy):
        converge(hierarchy, CFG)
        for server in hierarchy:
            expected = {s.server_id for s in replication_sources(server)}
            assert set(server.replicated_summaries) == expected

    def test_replica_contents_match_branch_summaries(self, hierarchy):
        converge(hierarchy, CFG)
        some_leaf = hierarchy.leaves()[0]
        for src_id, summary in some_leaf.replicated_summaries.items():
            src = hierarchy.get(src_id)
            assert (
                summary.attributes["a"].total
                == 5 * src.subtree_size()
            )

    def test_bytes_and_messages_accounted(self, hierarchy):
        plane = make_plane(hierarchy, CFG)
        report = plane.run_epoch().replication
        # one message per replicated branch summary, plus one per
        # ancestor local-owner summary (every server here has owners)
        expected = sum(
            len(replication_sources(s)) + len(s.ancestors())
            for s in hierarchy
        )
        assert report.messages == expected
        assert report.replication_bytes > 0
        # Every push is attributed to the holder that receives it.
        received = plane.network.metrics.per_server(UPDATE, phase="replicate")
        assert sum(b for _, b in received.values()) == report.replication_bytes
        for s in hierarchy:
            messages, _ = received.get(s.server_id, (0, 0))
            assert messages == len(replication_sources(s)) + len(s.ancestors())

    def test_ancestor_local_summaries_installed(self, hierarchy):
        converge(hierarchy, CFG)
        leaf = hierarchy.leaves()[0]
        assert set(leaf.replicated_local_summaries) == {
            a.server_id for a in leaf.ancestors()
        }
        # Local summaries cover only the ancestor's own owners.
        for aid, summ in leaf.replicated_local_summaries.items():
            assert summ.attributes["a"].total == 5

    def test_round_replaces_previous_state(self, hierarchy):
        """Soft state: a replica no source refreshes is gone one TTL
        later, while every pushed one is replaced by its fresh copy."""
        plane = make_plane(hierarchy, CFG)
        plane.run_epoch()
        leaf = hierarchy.leaves()[0]
        leaf.replicated_summaries[999] = next(
            iter(hierarchy.root.child_summaries.values())
        )
        plane.sim.run(until=plane.sim.now + CFG.ttl + 1.0)
        plane.run_epoch()
        assert 999 not in leaf.replicated_summaries
        assert set(leaf.replicated_summaries) == {
            s.server_id for s in replication_sources(leaf)
        }
        assert not any(
            s.is_expired(plane.sim.now)
            for s in leaf.replicated_summaries.values()
        )

    def test_per_node_message_counts(self, hierarchy):
        overlay = ReplicationOverlay(hierarchy, CFG)
        counts = overlay.per_node_message_counts()
        assert counts[hierarchy.root.server_id] == 0
        deepest = max(hierarchy, key=lambda s: s.depth)
        assert counts[deepest.server_id] == len(replication_sources(deepest))
