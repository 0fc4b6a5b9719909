"""Feature-interaction tests.

Production systems break where features meet. These tests combine the
library's orthogonal features — guests, delta updates, scope control,
early termination, policies, tracing, churn — and check the pairings
behave as the sum of their parts.
"""

import numpy as np
import pytest

from repro.hierarchy import MaintenanceConfig
from repro.query import Query, RangePredicate
from repro.records import RecordStore
from repro.roads import (
    GuestOwner,
    RoadsConfig,
    RoadsSystem,
    SearchRequest,
    TieredPolicy,
)
from repro.summaries import SummaryConfig
from repro.telemetry import Telemetry
from repro.workload import (
    WorkloadConfig,
    generate_node_stores,
    generate_queries,
    make_schema,
    merge_stores,
)

N = 20


def build(seed=111, delta=False, guests=(), telemetry=None):
    wcfg = WorkloadConfig(num_nodes=N, records_per_node=50, seed=seed)
    stores = generate_node_stores(wcfg)
    system = RoadsSystem.build(
        RoadsConfig(
            num_nodes=N,
            records_per_node=50,
            max_children=3,
            summary=SummaryConfig(histogram_buckets=60),
            delta_updates=delta,
            seed=seed,
        ),
        stores,
        guests=list(guests),
        telemetry=telemetry,
    )
    return wcfg, stores, system


def guest_store(wcfg, seed=5, n=200, band=(0.4, 0.6)):
    schema = make_schema(wcfg)
    rng = np.random.default_rng(seed)
    cols = rng.random((n, wcfg.num_attributes))
    cols[:, 0] = band[0] + (band[1] - band[0]) * rng.random(n)
    return RecordStore.from_arrays(schema, cols, [])


class TestGuestsWithDelta:
    def test_guest_summaries_participate_in_delta(self):
        wcfg = WorkloadConfig(num_nodes=N, records_per_node=50, seed=111)
        gs = guest_store(wcfg)
        _, stores, system = build(
            delta=True, guests=[GuestOwner(gs, attach_to=3, owner_id="g")]
        )
        system.refresh()  # arm fingerprints
        steady = system.refresh()
        assert steady.aggregation.full_reports == 0
        # A change in the guest's data re-ships the attachment path.
        gs.update_numeric(0, "u0", 0.95)
        report = system.refresh()
        assert report.aggregation.full_reports >= 1
        # And the guest's new value is discoverable.
        q = Query.of(RangePredicate("u0", 0.94, 0.96))
        o = system.search(SearchRequest(q, client_node=0)).outcome
        assert any(h.owner_id == "g" for h in o.owner_hits)


class TestGuestsWithScope:
    def test_scoped_query_sees_guest_only_in_its_branch(self):
        wcfg = WorkloadConfig(num_nodes=N, records_per_node=50, seed=111)
        gs = guest_store(wcfg)
        _, stores, system = build(
            guests=[GuestOwner(gs, attach_to=3, owner_id="g")]
        )
        attach_server = system.hierarchy.get(3)
        q = Query.of(RangePredicate("u0", 0.45, 0.55))
        # Scope = the attachment server's subtree root: guest visible.
        scoped_in = system.search(SearchRequest(q, client_node=0, scope=attach_server.root_path[1]
            if len(attach_server.root_path) > 1
            else attach_server.server_id)).outcome
        in_branch = any(h.owner_id == "g" for h in scoped_in.owner_hits)
        # Scope = a sibling branch: guest invisible.
        root = system.hierarchy.root
        other_branch = next(
            c.server_id
            for c in root.children
            if attach_server.server_id not in
            [s.server_id for s in c.iter_subtree()]
        )
        scoped_out = system.search(SearchRequest(q, client_node=0, scope=other_branch)).outcome
        out_branch = any(h.owner_id == "g" for h in scoped_out.owner_hits)
        assert in_branch and not out_branch


class TestFirstKWithPolicies:
    def test_denied_owners_do_not_satisfy_first_k(self):
        """Early termination counts *returned* records, so a deny-all
        owner's hits don't stop the search prematurely."""
        wcfg, stores, system = build()
        reference = merge_stores(stores)
        q = max(
            generate_queries(wcfg, num_queries=8, dimensions=2),
            key=lambda q: q.match_count(reference),
        )
        # Deny at the owner holding the most matches.
        per_owner = [(i, q.match_count(stores[i])) for i in range(N)]
        top = max(per_owner, key=lambda t: t[1])[0]
        system.set_policy(f"owner-{top}", TieredPolicy(public_limit=0))
        k = 5
        o = system.search(SearchRequest(q, client_node=0, first_k=k)).outcome
        assert o.total_matches >= k
        denied = [h for h in o.owner_hits if h.owner_id == f"owner-{top}"]
        for h in denied:
            assert h.match_count == 0


class TestTieredPolicyWithTrace:
    def test_trace_shows_policy_filtered_counts(self):
        wcfg, stores, system = build(telemetry=Telemetry())
        for i in range(N):
            system.set_policy(
                f"owner-{i}",
                TieredPolicy(partners=frozenset({"friend"}), public_limit=1),
            )
        q = Query.of(RangePredicate("u0", 0.0, 1.0))
        tel = system.telemetry
        pub = system.search(SearchRequest(q.with_requester("stranger"), client_node=0)).outcome
        owner_events = [
            e for e in tel.events()
            if e.name == "query.owner" and e.tags["trace_id"] == pub.trace_id
        ]
        friend = system.search(SearchRequest(q.with_requester("friend"), client_node=0)).outcome
        assert pub.total_matches == N  # one record per owner
        assert friend.total_matches == sum(len(s) for s in stores)
        assert len(owner_events) == N
        assert all(e.tags["detail"] == "matches=1" for e in owner_events)


class TestChurnWithGuests:
    def test_guest_survives_attachment_churn(self):
        wcfg = WorkloadConfig(num_nodes=N, records_per_node=50, seed=112)
        gs = guest_store(wcfg, seed=6)
        stores = generate_node_stores(wcfg)
        probe = RoadsSystem.build(
            RoadsConfig(num_nodes=N, records_per_node=50, max_children=3,
                        summary=SummaryConfig(histogram_buckets=60), seed=112),
            stores, refresh=False,
        )
        leaf_id = probe.hierarchy.leaves()[-1].server_id
        system = RoadsSystem.build(
            RoadsConfig(num_nodes=N, records_per_node=50, max_children=3,
                        summary=SummaryConfig(histogram_buckets=60), seed=112),
            stores,
            guests=[GuestOwner(gs, attach_to=leaf_id, owner_id="g")],
        )
        proto = system.enable_maintenance(
            MaintenanceConfig(heartbeat_interval=2.0, miss_threshold=3)
        )
        # Kill the attachment point twice in a row; re-home each time.
        for _ in range(2):
            sid = system._guest_attachment["g"]
            proto.fail(system.hierarchy.get(sid))
            system.sim.run(until=system.sim.now + 30.0)
            assert system.reattach_orphaned_guests() == 1
            system.refresh()
            q = Query.of(RangePredicate("u0", 0.45, 0.55))
            o = system.search(SearchRequest(q, client_node=next(
                    s.server_id for s in system.hierarchy if s.alive
                ))).outcome
            assert any(h.owner_id == "g" for h in o.owner_hits)


class TestWideningWithFirstK:
    def test_widening_with_early_termination_composes(self):
        wcfg, stores, system = build()
        reference = merge_stores(stores)
        q = max(
            generate_queries(wcfg, num_queries=8, dimensions=2),
            key=lambda q: q.match_count(reference),
        )
        leaf = max(system.hierarchy, key=lambda s: s.depth)
        outcomes = [r.outcome for r in system.widening(SearchRequest(q, client_node=leaf.server_id), min_matches=3)]
        assert outcomes[-1].total_matches >= 3 or (
            outcomes[-1].total_matches == q.match_count(reference)
        )
