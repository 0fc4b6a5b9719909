"""Edge-case tests across modules: timeout paths, empty inputs, and
less-travelled branches."""

import numpy as np
import pytest

from repro.hierarchy import AttachedOwner, Server, build_hierarchy
from repro.net import DelaySpace, Network
from repro.overlay import decide_local
from repro.query import Query, RangePredicate
from repro.records import RecordStore, Schema, numeric
from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.roads.client import QueryExecution
from repro.sim import SimulationError, Simulator
from repro.telemetry import MetricsRegistry
from repro.summaries import ResourceSummary, SummaryConfig
from repro.workload import WorkloadConfig, generate_node_stores

from .conftest import converge


class TestQueryTimeoutPath:
    def test_failed_server_times_out_not_hangs(self):
        """A query to a crashed server completes via the timeout and
        reports the server as timed out."""
        wcfg = WorkloadConfig(num_nodes=12, records_per_node=20, seed=41)
        stores = generate_node_stores(wcfg)
        system = RoadsSystem.build(
            RoadsConfig(num_nodes=12, records_per_node=20, max_children=3,
                        summary=SummaryConfig(histogram_buckets=40), seed=41),
            stores,
        )
        # Crash a branch top silently — summaries still point at it.
        victim = next(
            s for s in system.hierarchy if not s.is_root and s.children
        )
        system.network.fail_node(victim.server_id)
        victim.alive = False
        q = Query.of(RangePredicate("u0", 0.0, 1.0))
        outcome = system.search(SearchRequest(q, client_node=0)).outcome
        assert outcome.completed
        assert victim.server_id in outcome.timed_out_servers
        # The rest of the federation still answered.
        assert outcome.total_matches > 0

    def test_latency_not_poisoned_by_timeouts(self):
        """Timed-out contacts don't inflate the latency metric (which
        only counts arrivals at servers actually reached)."""
        wcfg = WorkloadConfig(num_nodes=12, records_per_node=20, seed=42)
        stores = generate_node_stores(wcfg)
        system = RoadsSystem.build(
            RoadsConfig(num_nodes=12, records_per_node=20, max_children=3,
                        summary=SummaryConfig(histogram_buckets=40), seed=42),
            stores,
        )
        leaf = system.hierarchy.leaves()[0]
        system.network.fail_node(leaf.server_id)
        leaf.alive = False
        q = Query.of(RangePredicate("u0", 0.0, 1.0))
        outcome = system.search(SearchRequest(q, client_node=0)).outcome
        assert outcome.latency < 5.0  # well under the 5 s timeout


class TestDecideLocal:
    def test_owners_only_no_redirects(self, unit_store):
        cfg = SummaryConfig(histogram_buckets=20)
        s = Server(0)
        child = Server(1)
        s.add_child(child)
        s.attach_owner(AttachedOwner("o", unit_store, True))
        s.child_summaries[1] = ResourceSummary.from_store(unit_store, cfg)
        decision = decide_local(s, Query.of(RangePredicate("a", 0, 1)))
        assert decision.redirect_ids == []
        assert decision.owners_only_ids == []
        assert [o.owner_id for o in decision.owner_hits] == ["o"]


class TestAggregationEdges:
    def test_empty_federation_aggregates_nothing(self):
        h = build_hierarchy(Server(i, max_children=2) for i in range(4))
        cfg = SummaryConfig(histogram_buckets=8)
        report = converge(h, cfg)
        # Messages flow (soft-state headers) but no summaries exist.
        assert report.aggregation.messages == 3
        assert report.aggregation.full_reports == 0
        assert report.replication.messages == 0
        assert h.root.branch_summary(cfg) is None


class TestStoreEdges:
    def test_store_of_zero_records_summary_empty(self):
        schema = Schema([numeric("a")])
        st = RecordStore(schema)
        s = ResourceSummary.from_store(st, SummaryConfig(histogram_buckets=8))
        assert s.is_empty
        assert not s.may_match(Query.of(RangePredicate("a", 0, 1)))

    def test_single_record_store(self):
        schema = Schema([numeric("a")])
        st = RecordStore.from_arrays(schema, np.array([[0.5]]), [])
        q = Query.of(RangePredicate("a", 0.4, 0.6))
        assert q.match_count(st) == 1


class TestSimulatorEdges:
    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule(0.5 - sim.now, lambda: None)
        assert sim.pending == 0

    def test_run_until_zero(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append(1))
        sim.run(until=0.0)
        assert fired == [1]

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        assert sim.pending == 1


class TestNetworkEdges:
    def test_message_ids_unique(self):
        sim = Simulator()
        ds = DelaySpace(4, np.random.default_rng(0))
        net = Network(sim, ds, MetricsRegistry())
        a = net.send(0, 1, "query", 1)
        b = net.send(0, 1, "query", 1)
        assert a.msg_id != b.msg_id

    def test_unregister(self):
        sim = Simulator()
        ds = DelaySpace(4, np.random.default_rng(0))
        net = Network(sim, ds, MetricsRegistry())
        got = []
        net.register(1, lambda m: got.append(m))
        net.unregister(1)
        net.send(0, 1, "query", 1)
        sim.run()
        assert got == []


class TestGeneratorEdges:
    def test_zero_records_per_node(self):
        cfg = WorkloadConfig(num_nodes=2, records_per_node=0, seed=1)
        stores = generate_node_stores(cfg)
        assert all(len(s) == 0 for s in stores)
        # A federation of empty owners still builds and answers (nothing).
        system = RoadsSystem.build(
            RoadsConfig(num_nodes=2, records_per_node=0, max_children=2,
                        summary=SummaryConfig(histogram_buckets=8), seed=1),
            stores,
        )
        q = Query.of(RangePredicate("u0", 0, 1))
        assert system.search(SearchRequest(q, client_node=0)).outcome.total_matches == 0
