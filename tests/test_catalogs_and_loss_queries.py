"""Tests for query execution over a lossy network."""

import numpy as np

from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.summaries import SummaryConfig
from repro.workload import (
    WorkloadConfig,
    generate_node_stores,
    generate_queries,
    merge_stores,
)


class TestQueriesOverLossyNetwork:
    def test_queries_complete_despite_loss(self):
        """Message loss turns into timeouts, not hangs; results are a
        subset of the truth (lost legs are reported as timed out)."""
        wcfg = WorkloadConfig(num_nodes=20, records_per_node=50, seed=91)
        stores = generate_node_stores(wcfg)
        system = RoadsSystem.build(
            RoadsConfig(num_nodes=20, records_per_node=50, max_children=3,
                        summary=SummaryConfig(histogram_buckets=60), seed=91),
            stores,
        )
        system.network.loss_rate = 0.15
        system.network._rng = np.random.default_rng(92)
        reference = merge_stores(stores)
        complete, lossy = 0, 0
        for q in generate_queries(wcfg, num_queries=12, dimensions=2):
            o = system.search(SearchRequest(q, client_node=0)).outcome
            assert o.completed
            assert o.total_matches <= q.match_count(reference)
            if o.timed_out_servers:
                lossy += 1
            if o.total_matches == q.match_count(reference):
                complete += 1
        # With 15% loss, some queries lose legs but most still finish whole.
        assert complete >= 4

    def test_zero_loss_is_exact(self):
        wcfg = WorkloadConfig(num_nodes=20, records_per_node=50, seed=91)
        stores = generate_node_stores(wcfg)
        system = RoadsSystem.build(
            RoadsConfig(num_nodes=20, records_per_node=50, max_children=3,
                        summary=SummaryConfig(histogram_buckets=60), seed=91),
            stores,
        )
        reference = merge_stores(stores)
        for q in generate_queries(wcfg, num_queries=6, dimensions=2):
            o = system.search(SearchRequest(q, client_node=0)).outcome
            assert o.total_matches == q.match_count(reference)
            assert not o.timed_out_servers
