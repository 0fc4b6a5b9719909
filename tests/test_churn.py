"""Tests for repro.hierarchy.churn — sustained fail/recover dynamics."""

import numpy as np
import pytest

from repro.hierarchy import MaintenanceConfig
from repro.hierarchy.churn import ChurnConfig, ChurnProcess
from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.summaries import SummaryConfig
from repro.workload import (
    WorkloadConfig,
    generate_node_stores,
    generate_queries,
    merge_stores,
)


def build_churny_system(n=20, seed=77, mttf=120.0, mttr=30.0):
    wcfg = WorkloadConfig(num_nodes=n, records_per_node=40, seed=seed)
    stores = generate_node_stores(wcfg)
    cfg = RoadsConfig(
        num_nodes=n,
        records_per_node=40,
        max_children=3,
        summary=SummaryConfig(histogram_buckets=60),
        seed=seed,
    )
    system = RoadsSystem.build(cfg, stores)
    proto = system.enable_maintenance(
        MaintenanceConfig(heartbeat_interval=2.0, miss_threshold=3,
                          check_interval=2.0)
    )
    churn = ChurnProcess(
        system.sim,
        system.network,
        system.hierarchy,
        proto,
        np.random.default_rng(seed),
        ChurnConfig(
            mean_time_to_failure=mttf,
            mean_time_to_recovery=mttr,
            min_alive=4,
        ),
    )
    return wcfg, stores, system, proto, churn


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChurnConfig(mean_time_to_failure=0)
        with pytest.raises(ValueError):
            ChurnConfig(mean_time_to_recovery=-1)
        with pytest.raises(ValueError):
            ChurnConfig(min_alive=0)


class TestSustainedChurn:
    def test_events_happen_and_tree_stays_valid(self):
        _, _, system, proto, churn = build_churny_system()
        system.sim.run(until=600.0)
        assert churn.stats.crashes >= 3
        assert churn.stats.recoveries >= 1
        # The live membership forms a valid tree.
        system.hierarchy.check_invariants()

    def test_min_alive_floor_respected(self):
        # Aggressive churn: fail fast, recover slowly.
        _, _, system, proto, churn = build_churny_system(
            n=10, mttf=20.0, mttr=200.0
        )
        min_seen = 10
        for _ in range(60):
            system.sim.run(until=system.sim.now + 10.0)
            min_seen = min(min_seen, churn.alive_count())
        assert min_seen >= churn.config.min_alive

    def test_queries_bounded_during_churn(self):
        """Mid-churn, results are a subset of the full federation's truth
        (soft state may transiently hide recovering nodes, but never
        fabricates records) and queries always complete."""
        wcfg, stores, system, proto, churn = build_churny_system()
        queries = generate_queries(wcfg, num_queries=5, dimensions=2)
        everything = merge_stores(stores)
        for phase in range(3):
            system.sim.run(until=system.sim.now + 150.0)
            alive_ids = sorted(s.server_id for s in system.hierarchy if s.alive)
            for q in queries:
                o = system.search(SearchRequest(q, client_node=alive_ids[0])).outcome
                assert o.completed
                assert o.total_matches <= q.match_count(everything)

    def test_queries_exact_after_quiesce(self):
        """Once churn stops and the maintenance protocol heals, queries
        are exact over the surviving membership — 70+ crash/recover
        cycles leave no permanent damage."""
        wcfg, stores, system, proto, churn = build_churny_system()
        queries = generate_queries(wcfg, num_queries=5, dimensions=2)
        system.sim.run(until=600.0)
        assert churn.stats.crashes >= 20
        churn.stop()
        system.sim.run(until=system.sim.now + 120.0)  # heal
        system.hierarchy.check_invariants()
        # No half-broken edges anywhere, no lingering orphans.
        for s in system.hierarchy:
            if s.parent is not None:
                assert any(
                    c.server_id == s.server_id for c in s.parent.children
                )
            if s.alive and s is not system.hierarchy.root:
                assert s.parent is not None
        system.refresh()
        alive_ids = sorted(s.server_id for s in system.hierarchy if s.alive)
        reference = merge_stores([stores[i] for i in alive_ids])
        for q in queries:
            o = system.search(SearchRequest(q, client_node=alive_ids[0])).outcome
            assert o.total_matches == q.match_count(reference)

    def test_availability_accounting(self):
        _, _, system, proto, churn = build_churny_system(mttf=60.0, mttr=60.0)
        system.sim.run(until=400.0)
        a = churn.availability()
        assert 0.2 < a < 1.0
        # With MTTF == MTTR the long-run availability trends toward ~0.5;
        # allow wide slack on a short window.
        assert a < 0.95

    def test_availability_exact_right_after_a_crash(self):
        """A crashed server is still a member until the detector forgets
        it; the population is counted once all the same."""
        n = 10
        _, _, system, proto, churn = build_churny_system(n=n, mttf=60.0)
        sim = system.sim
        sim.run(stop=lambda: churn.stats.crashes == 1)
        sim.run(until=sim.now + 1.0)  # well inside the 6 s failure timeout
        (sid, start, end), = churn.stats.downtime_log
        assert end is None and sid in system.hierarchy
        down = sim.now - start
        assert churn.availability() == pytest.approx(1 - down / (n * sim.now))

    def test_recovered_nodes_rejoin_and_serve(self):
        _, _, system, proto, churn = build_churny_system(mttf=60.0, mttr=20.0)
        system.sim.run(until=500.0)
        assert churn.stats.recoveries >= 2
        # A recovered node is reachable from the root again.
        reachable = {s.server_id for s in system.hierarchy.root.iter_subtree()}
        for server in system.hierarchy:
            if server.alive:
                assert server.server_id in reachable

    def test_stop_halts_events(self):
        _, _, system, proto, churn = build_churny_system(mttf=30.0, mttr=10.0)
        system.sim.run(until=100.0)
        churn.stop()
        crashes = churn.stats.crashes
        system.sim.run(until=400.0)
        assert churn.stats.crashes == crashes
