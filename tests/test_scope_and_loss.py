"""Tests for scope-controlled queries and message-loss injection."""

import numpy as np
import pytest

from repro.net import DelaySpace, Network
from repro.query import Query, RangePredicate
from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.sim import QUERY, Simulator
from repro.telemetry import MetricsRegistry
from repro.summaries import SummaryConfig
from repro.workload import (
    WorkloadConfig,
    generate_node_stores,
    generate_queries,
    merge_stores,
)


@pytest.fixture(scope="module")
def system_and_workload():
    wcfg = WorkloadConfig(num_nodes=28, records_per_node=60, seed=17)
    stores = generate_node_stores(wcfg)
    cfg = RoadsConfig(
        num_nodes=28,
        records_per_node=60,
        max_children=3,
        summary=SummaryConfig(histogram_buckets=100),
        seed=17,
    )
    return wcfg, stores, RoadsSystem.build(cfg, stores)


class TestScopedQueries:
    def test_scope_limits_to_subtree(self, system_and_workload):
        wcfg, stores, system = system_and_workload
        q = generate_queries(wcfg, num_queries=1, dimensions=2)[0]
        # Choose an internal scope server.
        scope_server = next(
            s for s in system.hierarchy if not s.is_root and s.children
        )
        outcome = system.search(SearchRequest(q, client_node=0, scope=scope_server.server_id)).outcome
        subtree_ids = {x.server_id for x in scope_server.iter_subtree()}
        assert set(outcome.arrivals) <= subtree_ids
        subtree_ref = merge_stores([stores[i] for i in sorted(subtree_ids)])
        assert outcome.total_matches == q.match_count(subtree_ref)

    def test_root_scope_equals_full_search(self, system_and_workload):
        wcfg, stores, system = system_and_workload
        q = generate_queries(wcfg, num_queries=1, dimensions=2)[0]
        root_id = system.hierarchy.root.server_id
        scoped = system.search(SearchRequest(q, client_node=3, scope=root_id)).outcome
        full = system.search(SearchRequest(q, client_node=3)).outcome
        assert scoped.total_matches == full.total_matches

    def test_widening_search_monotone(self, system_and_workload):
        wcfg, stores, system = system_and_workload
        q = generate_queries(wcfg, num_queries=1, dimensions=2)[0]
        leaf = max(system.hierarchy, key=lambda s: s.depth)
        outcomes = [
            r.outcome
            for r in system.widening(
                SearchRequest(q, client_node=leaf.server_id),
                min_matches=10**9,  # never satisfied: all scopes
            )
        ]
        counts = [o.total_matches for o in outcomes]
        assert counts == sorted(counts)  # widening can only add results
        reference = merge_stores(stores)
        assert counts[-1] == q.match_count(reference)

    def test_widening_search_stops_early(self, system_and_workload):
        wcfg, stores, system = system_and_workload
        q = generate_queries(wcfg, num_queries=1, dimensions=2)[0]
        leaf = max(system.hierarchy, key=lambda s: s.depth)
        outcomes = [r.outcome for r in system.widening(SearchRequest(q, client_node=leaf.server_id), min_matches=1)]
        if outcomes[-1].total_matches >= 1:
            # every earlier scope must have been insufficient
            for o in outcomes[:-1]:
                assert o.total_matches < 1


class TestLossInjection:
    def _net(self, loss):
        sim = Simulator()
        ds = DelaySpace(8, np.random.default_rng(0), jitter_ms=0.0)
        rng = np.random.default_rng(1)
        return sim, Network(
            sim, ds, MetricsRegistry(), loss_rate=loss, rng=rng
        )

    def test_invalid_params(self):
        sim = Simulator()
        ds = DelaySpace(4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="loss_rate"):
            Network(sim, ds, loss_rate=1.5, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="rng"):
            Network(sim, ds, loss_rate=0.1)

    def test_losses_occur_at_configured_rate(self):
        sim, net = self._net(0.3)
        delivered = []
        net.register(1, lambda m: delivered.append(m))
        for _ in range(500):
            net.send(0, 1, QUERY, 8)
        sim.run()
        counters = net.counters()
        assert counters["lost"] == pytest.approx(150, abs=40)
        assert len(delivered) == counters["sent"] - counters["lost"]
        # bytes are still accounted at the sender
        assert net.metrics.bytes_total(QUERY) == 500 * 8

    def test_zero_loss_default(self):
        sim, net = self._net(0.0)
        got = []
        net.register(1, lambda m: got.append(m))
        for _ in range(50):
            net.send(0, 1, QUERY, 8)
        sim.run()
        assert net.counters()["lost"] == 0 and len(got) == 50

    def test_maintenance_survives_lossy_network(self):
        """Heartbeats tolerate moderate loss without false failures."""
        from repro.hierarchy import (
            MaintenanceConfig,
            MaintenanceProtocol,
            Server,
            build_hierarchy,
        )

        sim = Simulator()
        ds = DelaySpace(12, np.random.default_rng(3), jitter_ms=0.0)
        net = Network(
            sim, ds, MetricsRegistry(),
            loss_rate=0.10, rng=np.random.default_rng(4),
        )
        h = build_hierarchy(Server(i, max_children=3) for i in range(12))
        proto = MaintenanceProtocol(
            sim, net, h,
            MaintenanceConfig(heartbeat_interval=1.0, miss_threshold=5),
        )
        sim.run(until=120.0)
        # With 10% loss and a 5-miss threshold, the odds of five
        # consecutive losses are 1e-5 per edge-window: no false failures.
        assert proto.failures_detected == 0
        h.check_invariants()
