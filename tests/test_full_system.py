"""Whole-system soak test: churn + record drift + lossy network, at once.

The strongest integration claim in the repo: a ROADS federation survives
simultaneous server crash/recover churn, continuously drifting records,
and a lossy wide-area network — and after quiescing and one summary
refresh, answers every query exactly over the surviving membership.
"""

import numpy as np
import pytest

from repro.hierarchy import MaintenanceConfig
from repro.hierarchy.churn import ChurnConfig, ChurnProcess
from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.summaries import SummaryConfig
from repro.workload import (
    DynamicsConfig,
    RecordDynamics,
    WorkloadConfig,
    generate_node_stores,
    generate_queries,
    merge_stores,
)

N = 24


@pytest.fixture(scope="module")
def soak():
    wcfg = WorkloadConfig(num_nodes=N, records_per_node=60, seed=101)
    stores = generate_node_stores(wcfg)
    system = RoadsSystem.build(
        RoadsConfig(
            num_nodes=N,
            records_per_node=60,
            max_children=3,
            summary=SummaryConfig(histogram_buckets=60),
            delta_updates=True,
            seed=101,
        ),
        stores,
    )
    # Inject 5% message loss under the running protocols.
    system.network.loss_rate = 0.05
    system.network._rng = np.random.default_rng(103)
    proto = system.enable_maintenance(
        MaintenanceConfig(heartbeat_interval=2.0, miss_threshold=5)
    )
    churn = ChurnProcess(
        system.sim,
        system.network,
        system.hierarchy,
        proto,
        np.random.default_rng(104),
        ChurnConfig(
            mean_time_to_failure=150.0,
            mean_time_to_recovery=40.0,
            min_alive=5,
        ),
    )
    dynamics = RecordDynamics(
        system.sim,
        stores,
        np.random.default_rng(105),
        DynamicsConfig(record_interval=6.0),
    )
    # Soak: ten minutes of simulated chaos.
    system.sim.run(until=600.0)
    return wcfg, stores, system, proto, churn, dynamics


class TestSoak:
    def test_chaos_actually_happened(self, soak):
        _, _, system, proto, churn, dynamics = soak
        assert churn.stats.crashes >= 3
        assert dynamics.epochs >= 90
        assert system.network.counters()["lost"] > 0
        assert proto.failures_detected >= 1

    def test_membership_healthy_after_quiesce(self, soak):
        _, _, system, proto, churn, dynamics = soak
        churn.stop()
        dynamics.pause()
        system.network.loss_rate = 0.0
        system.sim.run(until=system.sim.now + 120.0)
        system.hierarchy.check_invariants()
        for s in system.hierarchy:
            if s.alive and s is not system.hierarchy.root:
                assert s.parent is not None

    def test_exact_queries_after_quiesce(self, soak):
        wcfg, stores, system, proto, churn, dynamics = soak
        churn.stop()
        dynamics.pause()
        system.network.loss_rate = 0.0
        system.sim.run(until=system.sim.now + 120.0)
        system.refresh()
        alive_ids = sorted(s.server_id for s in system.hierarchy if s.alive)
        assert len(alive_ids) >= 5
        reference = merge_stores([stores[i] for i in alive_ids])
        queries = generate_queries(wcfg, num_queries=8, dimensions=2)
        for q in queries:
            o = system.search(SearchRequest(q, client_node=alive_ids[0])).outcome
            assert o.completed
            assert o.total_matches == q.match_count(reference)

    def test_overlay_still_covers_after_soak(self, soak):
        _, _, system, proto, churn, dynamics = soak
        churn.stop()
        dynamics.pause()
        system.sim.run(until=system.sim.now + 120.0)
        system.refresh()
        system.overlay.check_coverage()
