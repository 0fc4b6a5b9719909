"""Unit tests for repro.overlay.replication."""

import numpy as np
import pytest

from repro.hierarchy import AttachedOwner, Server, build_hierarchy
from repro.overlay import (
    ReplicationOverlay,
    coverage_ids,
    replication_sources,
)
from repro.overlay.replication import replication_audience
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


def figure2_tree():
    """The paper's Figure 2: A; B1, B2; C1, C2 under B1; D1, D2 under C1."""
    a = Server(0, max_children=2)
    b1, b2 = Server(1, max_children=2), Server(2, max_children=2)
    c1, c2 = Server(3, max_children=2), Server(4, max_children=2)
    d1, d2 = Server(5, max_children=2), Server(6, max_children=2)
    for parent, child in ((a, b1), (a, b2), (b1, c1), (b1, c2), (c1, d1), (c1, d2)):
        parent.add_child(child)
    return [a, b1, b2, c1, c2, d1, d2]


def seeded_tree(seed, n=320):
    """An irregular hierarchy: a seeded join order and fan-out limits."""
    rng = np.random.default_rng(seed)
    fanout = rng.integers(1, 9, n)
    servers = [Server(int(i), max_children=int(fanout[i])) for i in rng.permutation(n)]
    return list(build_hierarchy(servers))


class TestReplicationSources:
    def test_paper_figure2_shape(self):
        """D1 replicates [D2, C1, C2, B1, B2, A] (siblings, ancestors,
        ancestors' siblings)."""
        d1 = figure2_tree()[5]
        ids = [s.server_id for s in replication_sources(d1)]
        assert ids == [6, 3, 4, 1, 2, 0]  # D2, C1, C2, B1, B2, A

    def test_root_has_no_sources(self, hierarchy):
        assert replication_sources(hierarchy.root) == []

    def test_source_count_scales_with_depth(self, hierarchy):
        for server in hierarchy:
            srcs = replication_sources(server)
            # siblings (<= k-1) plus per ancestor (1 + its siblings)
            assert len(srcs) <= server.depth * 4 + 3


class TestReplicationAudience:
    """The push set is also the push order: it feeds loss draws, message
    ids and heap sequence numbers, so it must not move."""

    @staticmethod
    def generator_preorder(server):
        """The nested-generator walk the audience was first defined by."""
        out = [s for s in server.iter_subtree() if s is not server]
        for sib in server.siblings():
            out.extend(sib.iter_subtree())
        return out

    @pytest.mark.parametrize(
        "servers", [figure2_tree(), seeded_tree(1), seeded_tree(2)],
        ids=["figure2", "seeded-1", "seeded-2"],
    )
    def test_same_ids_in_the_same_order(self, servers):
        for server in servers:
            got = [s.server_id for s in replication_audience(server)]
            assert got == [s.server_id for s in self.generator_preorder(server)]

    @pytest.mark.parametrize(
        "servers", [figure2_tree(), seeded_tree(3)], ids=["figure2", "seeded-3"]
    )
    def test_inverse_of_sources(self, servers):
        pushes = {
            (s.server_id, h.server_id) for s in servers for h in replication_audience(s)
        }
        pulls = {
            (src.server_id, s.server_id) for s in servers for src in replication_sources(s)
        }
        assert pushes == pulls
        for s in servers:  # and pushes nothing twice
            audience = replication_audience(s)
            assert len({h.server_id for h in audience}) == len(audience)

    def test_figure2_audience_of_c1(self):
        c1 = figure2_tree()[3]
        assert [s.server_id for s in replication_audience(c1)] == [5, 6, 4]


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
