"""Tests for delta (change-detection) summary propagation.

The paper's efficiency argument hinges on summaries changing an order of
magnitude slower than records (t_s >> t_r): a record update that stays
within the same histogram bucket leaves the summary untouched, so in
steady state most epochs need only keep-alive refreshes.
"""

import numpy as np
import pytest

from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.summaries import SummaryConfig
from repro.workload import WorkloadConfig, generate_node_stores, generate_queries, merge_stores

from .conftest import make_plane


@pytest.fixture
def delta_system():
    wcfg = WorkloadConfig(num_nodes=24, records_per_node=60, seed=21)
    stores = generate_node_stores(wcfg)
    cfg = RoadsConfig(
        num_nodes=24,
        records_per_node=60,
        max_children=3,
        summary=SummaryConfig(histogram_buckets=50),
        delta_updates=True,
        seed=21,
    )
    return wcfg, stores, RoadsSystem.build(cfg, stores)


class TestFingerprints:
    def test_stable_under_copy(self, delta_system):
        _, stores, system = delta_system
        from repro.summaries import ResourceSummary

        cfg = system.config.summary
        s = ResourceSummary.from_store(stores[0], cfg)
        assert s.fingerprint() == s.copy().fingerprint()
        assert s.fingerprint() == s.refreshed(99.0).fingerprint()

    def test_changes_with_content(self, delta_system):
        _, stores, system = delta_system
        from repro.summaries import ResourceSummary

        cfg = system.config.summary
        a = ResourceSummary.from_store(stores[0], cfg)
        b = ResourceSummary.from_store(stores[1], cfg)
        assert a.fingerprint() != b.fingerprint()


class TestSteadyState:
    def test_steady_state_epoch_is_nearly_free(self, delta_system):
        _, _, system = delta_system
        # Reference: what a full (non-delta) epoch costs.
        full = make_plane(
            system.hierarchy, system.config.summary
        ).measure_epoch().total_bytes
        # Steady state under delta: nothing changed since the last epoch.
        steady = system.refresh()
        assert steady.aggregation.full_reports == 0
        assert steady.replication.full_sends == 0
        assert steady.total_bytes < full / 10

    def test_message_count_unchanged(self, delta_system):
        """Delta mode saves bytes, not messages (soft state still needs
        periodic refresh)."""
        _, _, system = delta_system
        first = system.refresh()
        second = system.refresh()
        assert second.total_messages == first.total_messages


class TestChangePropagation:
    def test_within_bucket_change_is_free(self, delta_system):
        _, stores, system = delta_system
        system.refresh()
        # Nudge one value within its (width 1/50) bucket.
        store = stores[0]
        old = float(store.numeric_column("u0")[0])
        bucket = int(old * 50)
        nudged = min((bucket + 0.5) / 50, 1.0)
        store.update_numeric(0, "u0", nudged)
        report = system.refresh()
        assert report.aggregation.full_reports == 0

    def test_cross_bucket_change_propagates_along_path_only(self, delta_system):
        _, stores, system = delta_system
        system.refresh()
        store = stores[5]
        old = float(store.numeric_column("u0")[0])
        # Move the value to the far side of the domain (different bucket).
        store.update_numeric(0, "u0", 1.0 - old if abs(0.5 - old) > 0.01 else 0.99)
        report = system.refresh()
        changed_server = system.hierarchy.get(5)
        path_len = changed_server.depth  # reports from 5 up to the root
        assert 1 <= report.aggregation.full_reports <= path_len + 1
        # Replication re-ships only summaries derived from the changed path.
        assert report.replication.full_sends < report.replication.messages

    def test_results_identical_with_and_without_delta(self):
        wcfg = WorkloadConfig(num_nodes=20, records_per_node=50, seed=8)
        stores = generate_node_stores(wcfg)
        reference = merge_stores(stores)
        queries = generate_queries(wcfg, num_queries=10, dimensions=3)
        outcomes = {}
        for delta in (False, True):
            system = RoadsSystem.build(
                RoadsConfig(
                    num_nodes=20,
                    records_per_node=50,
                    max_children=3,
                    summary=SummaryConfig(histogram_buckets=50),
                    delta_updates=delta,
                    seed=8,
                ),
                stores,
            )
            system.refresh()
            outcomes[delta] = [
                system.search(SearchRequest(q, client_node=0)).outcome.total_matches
                for q in queries
            ]
        assert outcomes[False] == outcomes[True]
        assert outcomes[True] == [q.match_count(reference) for q in queries]


class TestAggregateRoundDeltaFlag:
    def test_non_delta_rounds_always_full(self, delta_system):
        _, _, system = delta_system
        plane = make_plane(system.hierarchy, system.config.summary)
        plane.run_epoch()
        report = plane.run_epoch()  # nothing changed, still all full
        assert report.aggregation.keepalive_reports == 0
        assert report.aggregation.full_reports == len(system.hierarchy) - 1
        assert report.replication.keepalive_sends == 0


class TestDeltaUnderTopologyChange:
    def test_reattached_child_resends_full_summary(self):
        """A child that moves to a new parent must ship its full branch
        summary even if its fingerprint is unchanged — the new parent
        has no prior state for it."""
        wcfg = WorkloadConfig(num_nodes=12, records_per_node=30, seed=33)
        stores = generate_node_stores(wcfg)
        system = RoadsSystem.build(
            RoadsConfig(
                num_nodes=12, records_per_node=30, max_children=4,
                summary=SummaryConfig(histogram_buckets=40),
                delta_updates=True, seed=33,
            ),
            stores,
        )
        system.refresh()  # steady state armed
        # Move one leaf under a different parent manually.
        leaf = system.hierarchy.leaves()[0]
        old_parent = leaf.parent
        new_parent = next(
            s for s in system.hierarchy
            if s is not old_parent and s is not leaf
            and s.willing_to_accept(leaf.server_id)
        )
        old_parent.remove_child(leaf.server_id)
        new_parent.add_child(leaf)
        report = system.refresh()
        # The moved leaf (at least) sent a full report to its new parent.
        assert report.aggregation.full_reports >= 1
        assert leaf.server_id in new_parent.child_summaries
        # Queries remain exact afterwards.
        reference = merge_stores(stores)
        queries = generate_queries(wcfg, num_queries=5, dimensions=2)
        for q in queries:
            o = system.search(SearchRequest(q, client_node=0)).outcome
            assert o.total_matches == q.match_count(reference)

    def test_delta_system_survives_failure_and_heal(self):
        """Delta propagation stays correct through crash + rejoin."""
        wcfg = WorkloadConfig(num_nodes=16, records_per_node=30, seed=34)
        stores = generate_node_stores(wcfg)
        system = RoadsSystem.build(
            RoadsConfig(
                num_nodes=16, records_per_node=30, max_children=3,
                summary=SummaryConfig(histogram_buckets=40),
                delta_updates=True, seed=34,
            ),
            stores,
        )
        proto = system.enable_maintenance()
        system.refresh()
        victim = next(
            s for s in system.hierarchy if not s.is_root and s.children
        )
        victim_id = victim.server_id
        proto.fail(victim)
        system.sim.run(until=system.sim.now + 60.0)
        system.refresh()
        alive_ids = [s.server_id for s in system.hierarchy if s.alive]
        reference = merge_stores([stores[i] for i in alive_ids])
        queries = generate_queries(wcfg, num_queries=5, dimensions=2)
        for q in queries:
            o = system.search(SearchRequest(q, client_node=alive_ids[0])).outcome
            assert o.total_matches == q.match_count(reference)
