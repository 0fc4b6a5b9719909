"""Tests for repro.hierarchy.maintenance (heartbeats, failures, election)."""

import numpy as np
import pytest

from repro.hierarchy import (
    MaintenanceConfig,
    MaintenanceProtocol,
    Server,
    build_hierarchy,
)
from repro.hierarchy.maintenance import FAILURE_SWEEP_INTERVAL
from repro.net import DelaySpace, Network
from repro.sim import MAINTENANCE, Simulator
from repro.telemetry import MetricsRegistry


def make_system(n=10, k=3, seed=0):
    sim = Simulator()
    ds = DelaySpace(n, np.random.default_rng(seed), jitter_ms=0.0)
    net = Network(sim, ds, MetricsRegistry())
    h = build_hierarchy(Server(i, max_children=k) for i in range(n))
    cfg = MaintenanceConfig(heartbeat_interval=1.0, miss_threshold=3)
    proto = MaintenanceProtocol(sim, net, h, cfg)
    return sim, net, h, proto


def alive_reachable(h):
    return {s.server_id for s in h.root.iter_subtree() if s.alive}


class TestHeartbeats:
    def test_traffic_flows(self):
        sim, net, h, proto = make_system()
        sim.run(until=5.0)
        assert net.metrics.messages_total(MAINTENANCE) > 0

    def test_no_false_failures_in_steady_state(self):
        sim, net, h, proto = make_system()
        sim.run(until=30.0)
        assert proto.failures_detected == 0
        h.check_invariants()


class TestLeafFailure:
    def test_parent_drops_failed_leaf(self):
        sim, net, h, proto = make_system()
        leaf = next(s for s in h.leaves())
        parent = leaf.parent
        proto.fail(leaf)
        sim.run(until=20.0)
        assert leaf.server_id not in parent.child_ids()
        assert proto.failures_detected >= 1


class TestInternalFailure:
    def test_children_rejoin(self):
        sim, net, h, proto = make_system(n=13, k=3)
        # Fail an internal (level-1) server with children.
        victim = next(
            s for s in h if not s.is_root and s.children
        )
        orphan_ids = [c.server_id for c in victim.children]
        proto.fail(victim)
        sim.run(until=40.0)
        reachable = alive_reachable(h)
        for oid in orphan_ids:
            assert oid in reachable, f"orphan {oid} not reattached"
        assert proto.rejoins >= len(orphan_ids)
        assert not proto.orphaned

    def test_no_loops_after_recovery(self):
        sim, net, h, proto = make_system(n=13, k=3)
        victim = next(s for s in h if not s.is_root and s.children)
        proto.fail(victim)
        sim.run(until=40.0)
        # Walk up from every alive node; must terminate at the root.
        for s in h:
            if not s.alive or s.server_id == victim.server_id:
                continue
            seen = set()
            node = s
            while node.parent is not None:
                assert node.server_id not in seen
                seen.add(node.server_id)
                node = node.parent
            assert node is h.root


class TestRootFailure:
    def test_smallest_id_child_elected(self):
        sim, net, h, proto = make_system(n=10, k=3)
        old_root = h.root
        expected_new_root = min(old_root.child_ids())
        # Let a few heartbeats flow so children learn the sibling list.
        sim.run(until=3.0)
        proto.fail(old_root)
        sim.run(until=60.0)
        assert proto.root_elections >= 1
        assert h.root.server_id == expected_new_root
        assert h.root.parent is None

    def test_membership_recovers(self):
        sim, net, h, proto = make_system(n=10, k=3)
        old_root = h.root
        sim.run(until=3.0)
        proto.fail(old_root)
        sim.run(until=60.0)
        reachable = alive_reachable(h)
        expected = {s.server_id for s in h if s.alive}
        assert reachable == expected
        assert old_root.server_id not in reachable


class TestRecovery:
    def test_recovery_under_old_parent_is_not_a_failure(self):
        """A recovered server rejoins like an orphan: the new edge is
        grace-stamped, so a pre-crash heartbeat time is never read as
        silence on the loss-free network."""
        sim, net, h, proto = make_system(n=12, k=3, seed=3)
        leaf = h.get(4)  # a leaf under server 1
        parent = leaf.parent
        proto.fail(leaf)
        sim.run(until=10.0)
        assert proto.failures_detected == 1
        assert leaf.server_id not in h
        assert proto.recover(leaf)
        assert leaf.parent is parent  # the balanced walk refills the gap
        assert proto.rejoins == 1
        sim.run(until=sim.now + 2 * FAILURE_SWEEP_INTERVAL)
        assert proto.failures_detected == 1
        assert leaf.parent is parent
        assert net.counters()["lost"] == 0
        h.check_invariants()

    def test_recovered_root_resumes_in_place(self):
        sim, net, h, proto = make_system()
        root = h.root
        sim.run(until=2.0)
        proto.fail(root)
        sim.run(until=2.5)  # back before anyone notices the silence
        assert proto.recover(root)
        sim.run(until=20.0)
        assert h.root is root
        assert proto.root_elections == 0
        h.check_invariants()


class TestGracefulLeave:
    def test_children_reattach_to_grandparent_side(self):
        sim, net, h, proto = make_system(n=13, k=3)
        leaver = next(s for s in h if not s.is_root and s.children)
        orphans = [c.server_id for c in leaver.children]
        proto.leave(leaver)
        assert leaver.server_id not in h
        reachable = alive_reachable(h)
        for oid in orphans:
            assert oid in reachable
        h.check_invariants()

    def test_root_leave_hands_over_to_smallest_child(self):
        sim, net, h, proto = make_system(n=13, k=3)
        sim.run(until=3.0)
        old_root = h.root
        expected_new_root = min(old_root.child_ids())
        proto.leave(old_root)
        sim.run(until=30.0)
        h.check_invariants()
        assert not proto.orphaned
        assert h.root.server_id == expected_new_root
        assert proto.root_elections == 1
        assert alive_reachable(h) == set(range(13)) - {old_root.server_id}

    def test_leaf_leave(self):
        sim, net, h, proto = make_system()
        leaf = h.leaves()[0]
        proto.leave(leaf)
        assert leaf.server_id not in h
        h.check_invariants()


class TestConfig:
    def test_failure_timeout(self):
        cfg = MaintenanceConfig(heartbeat_interval=2.0, miss_threshold=4)
        assert cfg.failure_timeout == 8.0

    @pytest.mark.parametrize("field, value", [
        ("heartbeat_interval", 0.0),
        ("heartbeat_interval", -1.0),
        ("heartbeat_interval", float("nan")),
        ("heartbeat_interval", float("inf")),
        # 0 declares every server dead at its first check: a healthy
        # loss-free federation reports false failures and rejoins
        ("miss_threshold", 0),
        ("miss_threshold", -1),
        ("miss_threshold", 2.5),
        ("miss_threshold", True),
    ])
    def test_invalid_value_is_refused_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            MaintenanceConfig(**{field: value})

    def test_stop_halts_traffic(self):
        sim, net, h, proto = make_system()
        sim.run(until=2.0)
        before = net.metrics.messages_total(MAINTENANCE)
        proto.stop()
        sim.run(until=20.0)
        assert net.metrics.messages_total(MAINTENANCE) == before


class TestEquation4Bound:
    """Section IV, equation (4), on the quick-scale 192-server
    federation: a level-i server receives O(k^2 * i) replicated
    summaries per epoch, a few per second at t_s = 60 s, and heartbeats
    are tiny next to one epoch of update traffic."""

    def test_replication_and_heartbeat_load(self):
        from repro.bench import scale_settings
        from repro.experiments import build_roads, build_workload

        s = scale_settings("quick").with_(num_nodes=192)
        system = build_roads(s, build_workload(s, s.seed)[1], s.seed)
        k = s.max_children
        counts = system.overlay.per_node_message_counts()
        for server in system.hierarchy:
            c = counts[server.server_id]
            assert c <= k * k * max(1, server.depth) + k, (server.server_id, c)
        assert max(counts.values()) / 60.0 < 10

        system.enable_maintenance(MaintenanceConfig(heartbeat_interval=5.0))
        before = system.metrics.bytes_total(MAINTENANCE)
        system.sim.run(until=system.sim.now + 60.0)
        heartbeat_bytes = system.metrics.bytes_total(MAINTENANCE) - before
        assert 0 < heartbeat_bytes < system.update_bytes_per_epoch() / 10
