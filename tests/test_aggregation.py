"""Bottom-up aggregation, driven through the update plane's epochs."""

import numpy as np
import pytest

from repro.hierarchy import AttachedOwner, Server, build_hierarchy
from repro.hierarchy.aggregation import HEADER_BYTES, build_owner_export
from repro.records import RecordStore, Schema, numeric
from repro.sim import UPDATE, SimulationError
from repro.summaries import SummaryConfig

from .conftest import converge, make_plane


@pytest.fixture
def schema():
    return Schema([numeric("a"), numeric("b")])


def store(schema, n, seed):
    rng = np.random.default_rng(seed)
    return RecordStore.from_arrays(schema, rng.random((n, 2)), [])


@pytest.fixture
def hierarchy(schema):
    """9 servers, degree 2, each owning 10 records."""
    h = build_hierarchy(Server(i, max_children=2) for i in range(9))
    for i in range(9):
        h.get(i).attach_owner(
            AttachedOwner(f"owner-{i}", store(schema, 10, i), controls_server=True)
        )
    return h


CFG = SummaryConfig(histogram_buckets=32)


class TestAggregateRound:
    def test_root_sees_all_records(self, hierarchy):
        converge(hierarchy, CFG)
        root_summary = hierarchy.root.branch_summary(CFG)
        assert root_summary.attributes["a"].total == 90

    def test_every_parent_has_child_summaries(self, hierarchy):
        converge(hierarchy, CFG)
        for server in hierarchy:
            for cid in server.child_ids():
                assert cid in server.child_summaries

    def test_intermediate_counts(self, hierarchy):
        converge(hierarchy, CFG)
        for server in hierarchy:
            branch = server.branch_summary(CFG)
            assert branch.attributes["a"].total == 10 * server.subtree_size()

    def test_message_count_is_one_per_edge(self, hierarchy):
        report = converge(hierarchy, CFG)
        assert report.aggregation.messages == len(hierarchy) - 1

    def test_bytes_accounted_in_metrics(self, hierarchy):
        plane = make_plane(hierarchy, CFG)
        report = plane.run_epoch()
        metrics = plane.network.metrics
        assert metrics.bytes_total(UPDATE) == report.total_bytes
        assert metrics.messages_total(UPDATE) == report.total_messages
        # Every report is attributed to the parent that receives it.
        received = metrics.per_server(UPDATE, phase="aggregate")
        for server in hierarchy:
            messages, _ = received.get(server.server_id, (0, 0))
            assert messages == len(server.children)

    def test_controlling_owner_exports_free(self, hierarchy):
        # All owners control their servers: no summary export traffic.
        report = converge(hierarchy, CFG)
        assert report.aggregation.export_bytes == 0

    def test_third_party_owner_pays_export(self, hierarchy, schema):
        hierarchy.get(3).attach_owner(
            AttachedOwner("guest", store(schema, 20, 99), controls_server=False)
        )
        report = converge(hierarchy, CFG)
        assert report.aggregation.export_bytes > 0
        guest = [o for o in hierarchy.get(3).owners if o.owner_id == "guest"][0]
        assert guest.summary is not None
        assert guest.summary.attributes["a"].total == 20

    def test_guest_records_visible_at_root(self, hierarchy, schema):
        hierarchy.get(3).attach_owner(
            AttachedOwner("guest", store(schema, 20, 99), controls_server=False)
        )
        converge(hierarchy, CFG)
        assert hierarchy.root.branch_summary(CFG).attributes["a"].total == 110

    def test_timestamps_applied(self, hierarchy):
        plane = make_plane(hierarchy, CFG)
        plane.sim.run(until=123.0)
        plane.run_epoch()
        # A report carries the time its sender built it, inside the epoch.
        for s in hierarchy.root.child_summaries.values():
            assert 123.0 < s.created_at < plane.sim.now

    def test_refresh_owner_exports_only(self, hierarchy, schema):
        guest = AttachedOwner(
            "guest", store(schema, 5, 50), controls_server=False
        )
        hierarchy.get(1).attach_owner(guest)
        update, size = build_owner_export(guest, CFG, now=1.0)
        assert size == update.summary.encoded_size() + HEADER_BYTES
        assert update.summary.created_at == 1.0
        assert guest.summary is None  # exporting installs nothing by itself


class TestPeriodicAggregation:
    def test_rounds_fire(self, hierarchy):
        plane = make_plane(hierarchy, CFG, interval=10.0)
        plane.start(jitter=0.0)
        plane.sim.run(until=35.0)
        # First ticks are spread over one interval: 3 or 4 each by t=35.
        assert 3 * len(hierarchy) <= plane.ticks <= 4 * len(hierarchy)
        assert plane.counters.aggregation_messages > 0
        plane.stop()
        ticks = plane.ticks
        plane.sim.run(until=100.0)
        assert plane.ticks == ticks

    def test_bad_jitter_is_rejected_at_start(self, hierarchy):
        # jitter=1.5 used to start, then raise "cannot schedule into the
        # past" from inside a later tick (the third, at this seed).
        plane = make_plane(hierarchy, CFG, interval=1.0)
        with pytest.raises(SimulationError, match=r"^jitter must be in \[0, 1\)"):
            plane.start(jitter=1.5)
        assert plane.sim.pending == 0

    def test_soft_state_freshness(self, hierarchy):
        cfg = SummaryConfig(histogram_buckets=32, ttl=15.0)
        plane = make_plane(hierarchy, cfg, interval=10.0)
        plane.start()
        plane.sim.run(until=55.0)
        now = plane.sim.now
        for server in hierarchy:
            assert set(server.child_summaries) == set(server.child_ids())
            for s in server.child_summaries.values():
                assert not s.is_expired(now)

    def test_unrefreshed_soft_state_expires(self, hierarchy):
        cfg = SummaryConfig(histogram_buckets=32, ttl=15.0)
        plane = make_plane(hierarchy, cfg, interval=10.0)
        plane.run_epoch()
        leaf = hierarchy.leaves()[0]
        leaf.alive = False  # crashed, still attached: reports stop
        plane.sim.run(until=plane.sim.now + 20.0)
        plane.run_epoch()
        assert leaf.server_id not in leaf.parent.child_summaries
        assert plane.counters.expired > 0

    def test_metrics_accumulate(self, hierarchy):
        plane = make_plane(hierarchy, CFG, interval=10.0)
        plane.start(jitter=0.0)
        plane.sim.run(until=25.0)
        plane.stop()
        plane.drain()
        c = plane.counters
        metrics = plane.network.metrics
        assert metrics.messages_total(UPDATE) == (
            c.aggregation_messages + c.replication_messages
        )
        assert metrics.bytes_total(UPDATE) == (
            c.aggregation_bytes + c.replication_bytes
        )
        # 8 edges, each child reporting on every one of its 2-3 ticks.
        assert 16 <= c.aggregation_messages <= 24
