"""Tests for repro.prototype (backend and response-time model)."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentSettings,
    build_central,
    build_roads,
    build_workload,
)
from repro.prototype import (
    BackendCostModel,
    CentralResponder,
    RoadsResponder,
    summarize_responses,
)
from repro.prototype.backend import SCAN_SECONDS_PER_RECORD
from repro.query import Query, RangePredicate
from repro.workload import generate_queries, merge_stores


@pytest.fixture(scope="module")
def setting():
    return ExperimentSettings.smoke()


@pytest.fixture(scope="module")
def built(setting):
    wcfg, stores = build_workload(setting, seed=1)
    roads = build_roads(setting, stores, seed=1)
    central = build_central(setting, stores, seed=1)
    return wcfg, stores, roads, central


class TestCostModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            BackendCostModel(per_record_retrieval_seconds=-1)
        with pytest.raises(ValueError):
            BackendCostModel(bandwidth_bytes_per_second=0)

    def test_retrieval_linear_in_matches(self):
        m = BackendCostModel(
            per_record_retrieval_seconds=1e-4, fixed_overhead_seconds=0.0
        )
        assert m.retrieval_seconds(100) == pytest.approx(0.01)
        assert m.retrieval_seconds(0) == 0.0

    def test_transfer(self):
        m = BackendCostModel(bandwidth_bytes_per_second=1e6)
        assert m.transfer_seconds(1_000_000) == pytest.approx(1.0)


class TestRecordBackend:
    """The backend is charged, never timed: a fixed overhead, a scan of
    every stored record and a retrieval of every match."""

    def test_search_counts_match_query(self, built):
        _, _, _, central = built
        cost = BackendCostModel()
        q = Query.of(RangePredicate("u0", 0.0, 0.5))
        out = CentralResponder(central, cost).respond(q, client_node=0)
        matches = q.match_count(central.store)
        assert out.match_count == matches
        assert out.server_seconds == (
            cost.fixed_overhead_seconds
            + SCAN_SECONDS_PER_RECORD * len(central.store)
            + cost.per_record_retrieval_seconds * matches
        )
        assert out.response_seconds == (
            out.forwarding_seconds
            + out.server_seconds
            + cost.transfer_seconds(
                matches * central.store.schema.record_size_bytes
            )
        )

    def test_server_seconds_dominated_by_retrieval(self, built):
        _, stores, _, _ = built
        cost = BackendCostModel(per_record_retrieval_seconds=1.0)
        records = len(stores[0])
        assert cost.server_seconds(records, 0) == (
            cost.fixed_overhead_seconds + SCAN_SECONDS_PER_RECORD * records
        )
        assert cost.server_seconds(records, records) >= records * 1.0


class TestResponders:
    def test_roads_response_counts_all_matches(self, built):
        wcfg, stores, roads, _ = built
        reference = merge_stores(stores)
        responder = RoadsResponder(roads)
        q = generate_queries(wcfg, num_queries=3, dimensions=2)[0]
        out = responder.respond(q, client_node=0)
        assert out.match_count == q.match_count(reference)
        assert out.response_seconds >= out.forwarding_seconds

    def test_central_response_counts_all_matches(self, built):
        wcfg, stores, _, central = built
        reference = merge_stores(stores)
        responder = CentralResponder(central)
        q = generate_queries(wcfg, num_queries=3, dimensions=2)[1]
        out = responder.respond(q, client_node=0)
        assert out.match_count == q.match_count(reference)
        assert out.response_seconds >= out.forwarding_seconds

    def test_central_beats_roads_on_selective_queries(self, built):
        """The Figure 11 low-selectivity regime."""
        wcfg, stores, roads, central = built
        r_resp = RoadsResponder(roads)
        c_resp = CentralResponder(central)
        queries = generate_queries(wcfg, num_queries=8)
        r = np.mean([r_resp.respond(q, 0).response_seconds for q in queries])
        c = np.mean([c_resp.respond(q, 0).response_seconds for q in queries])
        assert c < r

    def test_roads_parallelism_wins_at_high_retrieval_cost(self, built):
        """The Figure 11 high-selectivity regime: crank per-record cost
        so serial retrieval at the repository dominates."""
        wcfg, stores, roads, central = built
        cost = BackendCostModel(per_record_retrieval_seconds=5e-3)
        r_resp = RoadsResponder(roads, cost)
        c_resp = CentralResponder(central, cost)
        # an unselective query matching plenty of records
        q = Query.of(
            RangePredicate("u0", 0.0, 1.0), RangePredicate("u1", 0.0, 1.0)
        )
        r = r_resp.respond(q, 0).response_seconds
        c = c_resp.respond(q, 0).response_seconds
        assert r < c


class TestSummaries:
    def test_summarize_responses(self, built):
        wcfg, _, roads, _ = built
        responder = RoadsResponder(roads)
        outs = [
            responder.respond(q, 0)
            for q in generate_queries(wcfg, num_queries=5)
        ]
        s = summarize_responses(outs)
        assert s["queries"] == 5
        assert s["p90_seconds"] >= s["mean_seconds"] * 0.5

    def test_summarize_empty(self):
        s = summarize_responses([])
        assert s["queries"] == 0 and s["mean_seconds"] == 0.0


class TestSwordResponder:
    def test_counts_match_ground_truth(self, built):
        from repro.prototype import SwordResponder
        from repro.experiments import build_sword

        wcfg, stores, _, _ = built
        import repro.experiments as ex

        setting = ExperimentSettings.smoke()
        sword = build_sword(setting, stores, seed=1)
        responder = SwordResponder(sword)
        reference = merge_stores(stores)
        q = generate_queries(wcfg, num_queries=3, dimensions=2)[0]
        out = responder.respond(q, client_node=0)
        assert out.match_count == q.match_count(reference)
        assert out.response_seconds >= out.forwarding_seconds

    def test_multi_hop_worst_case_exceeds_central(self, built):
        """SWORD's multi-hop routing shows in the tail: when the client
        is far from the segment, its response exceeds the central
        repository's single round trip (a lucky client co-located with
        the segment head can beat it — hence tail, not mean)."""
        from repro.prototype import CentralResponder, SwordResponder
        from repro.experiments import build_sword

        wcfg, stores, _, central = built
        setting = ExperimentSettings.smoke()
        sword = build_sword(setting, stores, seed=1)
        s_resp = SwordResponder(sword)
        c_resp = CentralResponder(central)
        queries = generate_queries(wcfg, num_queries=6)
        clients = range(6)
        s_times = [
            s_resp.respond(q, c).response_seconds
            for q in queries
            for c in clients
        ]
        c_times = [
            c_resp.respond(q, c).response_seconds
            for q in queries
            for c in clients
        ]
        assert np.percentile(s_times, 90) > np.percentile(c_times, 90)
