"""Tests for repro.roads.system and client (the assembled ROADS system)."""

import gc
import hashlib

import numpy as np
import pytest

from repro.bench import census_fingerprint
from repro.overlay import decide_descent, decide_start
from repro.overlay.routing import decide_local
from repro.query import Query, RangePredicate
from repro.net.transport import ServiceConfig
from repro.roads import (
    GuestOwner,
    LoadConfig,
    LoadReport,
    RetryPolicy,
    RoadsConfig,
    RoadsSystem,
    SearchRequest,
    Verdict,
    TieredPolicy,
)
from repro.summaries import SummaryConfig
from repro.workload import (
    WorkloadConfig,
    generate_node_stores,
    generate_queries,
    merge_stores,
)


class TestBuild:
    def test_structure(self, small_roads):
        assert len(small_roads.hierarchy) == 32
        small_roads.hierarchy.check_invariants()
        small_roads.overlay.check_coverage()

    def test_every_node_owns_its_store(self, small_roads):
        for server in small_roads.hierarchy:
            assert len(server.owners) == 1
            owner = server.owners[0]
            assert owner.controls_server
            assert owner.owner_id == f"owner-{server.server_id}"

    def test_store_count_mismatch_rejected(self, small_workload):
        _, stores = small_workload
        cfg = RoadsConfig(num_nodes=10, records_per_node=80)
        with pytest.raises(ValueError, match="stores supplied"):
            RoadsSystem.build(cfg, stores)

    def test_join_order_permutation(self, small_workload):
        _, stores = small_workload
        cfg = RoadsConfig(num_nodes=32, records_per_node=80, seed=5)
        order = list(reversed(range(32)))
        system = RoadsSystem.build(cfg, stores, join_order=order)
        assert system.hierarchy.root.server_id == 31

    def test_bad_join_order_rejected(self, small_workload):
        _, stores = small_workload
        cfg = RoadsConfig(num_nodes=32, records_per_node=80)
        with pytest.raises(ValueError, match="permutation"):
            RoadsSystem.build(cfg, stores, join_order=[0, 0, 1])

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RoadsConfig(num_nodes=0)
        with pytest.raises(ValueError):
            RoadsConfig(summary_interval=0)

    @pytest.mark.parametrize("field", ["summary_interval"])
    def test_nan_interval_rejected(self, field):
        with pytest.raises(ValueError, match="intervals must be positive"):
            RoadsConfig(**{field: float("nan")})

    @pytest.mark.parametrize("field", ["summary_interval"])
    def test_infinite_interval_rejected_by_name(self, field):
        with pytest.raises(ValueError, match=f"{field}=inf"):
            RoadsConfig(**{field: float("inf")})


class TestQueryCompleteness:
    """ROADS must find every record a ground-truth scan finds."""

    def test_no_false_negatives(self, small_roads, small_workload, small_queries):
        _, stores = small_workload
        reference = merge_stores(stores)
        for q in small_queries[:15]:
            outcome = small_roads.search(SearchRequest(q)).outcome
            assert outcome.completed
            assert outcome.total_matches == q.match_count(reference)

    def test_collected_records_match(self, small_roads, small_workload):
        wcfg, stores = small_workload
        reference = merge_stores(stores)
        candidates = generate_queries(wcfg, num_queries=10, dimensions=2)
        q = max(candidates, key=lambda q: q.match_count(reference))
        want = q.match_count(reference)
        assert want > 0
        outcome = small_roads.search(SearchRequest(q, collect_records=True)).outcome
        got = outcome.matched_records()
        assert got is not None and len(got) == want

    def test_start_anywhere_equivalence(self, small_roads, small_queries):
        """Overlay invariant: results identical from any start server."""
        q = small_queries[0]
        counts = {
            small_roads.search(SearchRequest(q, start_server=s, client_node=s)).outcome.total_matches
            for s in (0, 7, 19, 31)
        }
        assert len(counts) == 1

    def test_root_start_without_overlay(self, small_roads, small_queries):
        q = small_queries[1]
        with_overlay = small_roads.search(SearchRequest(q, client_node=3)).outcome
        without = small_roads.search(SearchRequest(q, client_node=3, use_overlay=False)).outcome
        assert without.total_matches == with_overlay.total_matches
        assert without.start_server == small_roads.hierarchy.root.server_id


class TestExpiredRoutingIsDegraded:
    """Once the clock passes the TTL with no epoch, routing skips every
    expired table entry and the search ends at its entry server. Nothing
    failed, so it is ``ok``; its verdict says the answer is partial."""

    def test_search_past_the_ttl_is_degraded(self):
        wcfg = WorkloadConfig(num_nodes=32, records_per_node=50, seed=3)
        system = RoadsSystem.build(
            RoadsConfig(num_nodes=32, records_per_node=50, seed=3),
            generate_node_stores(wcfg),
        )
        queries = generate_queries(
            wcfg, num_queries=3, dimensions=2, range_length=0.6
        )

        def search():
            return [
                system.search(SearchRequest(q, client_node=0)) for q in queries
            ]

        fresh = search()
        assert [r.total_matches for r in fresh] == [729, 722, 717]
        assert [r.servers_contacted for r in fresh] == [32] * 3
        assert all(r.verdict == Verdict(0) for r in fresh)
        assert str(fresh[0].verdict) == "complete"

        system.sim.run(until=system.sim.now + 400)  # TTL 300 s, no epoch
        stale = search()
        assert [r.total_matches for r in stale] == [14, 10, 30]
        assert [r.servers_contacted for r in stale] == [1] * 3
        for r in stale:
            assert r.ok and r.outcome.completed
            assert r.verdict.degraded
            assert r.verdict.expired == sum(r.outcome.expired.values()) > 0
            assert 0 in r.outcome.expired  # the entry server's own table
        assert str(stale[0].verdict) == (
            f"degraded (routed past {stale[0].verdict.expired} expired entries)"
        )
        report = LoadReport(LoadConfig(rate=1.0, horizon=1.0), fresh + stale)
        assert report.ok == 6 and report.degraded == 3

        system.refresh()
        assert all(r.verdict == Verdict(0) for r in search())


class TestQueryMetrics:
    def test_latency_measures_last_arrival(self, small_roads, small_queries):
        o = small_roads.search(SearchRequest(small_queries[2], client_node=5)).outcome
        assert o.latency >= 0
        if o.arrivals:
            assert o.latency == max(o.arrivals.values()) - o.started_at

    def test_bytes_grow_with_contacts(self, small_roads, small_queries):
        outs = [small_roads.search(SearchRequest(q)).outcome for q in small_queries[:10]]
        for o in outs:
            assert o.query_bytes >= o.servers_contacted * o.query.size_bytes

    def test_no_duplicate_contacts(self, small_roads, small_queries):
        for q in small_queries[:10]:
            o = small_roads.search(SearchRequest(q)).outcome
            assert len(o.arrivals) == o.servers_contacted


class TestPolicies:
    def test_deny_all_hides_owner(self, small_workload, small_queries):
        wcfg, stores = small_workload
        cfg = RoadsConfig(
            num_nodes=32, records_per_node=80, max_children=4,
            summary=SummaryConfig(histogram_buckets=200), seed=5,
        )
        system = RoadsSystem.build(cfg, stores)
        reference = merge_stores(stores)
        # Low-dimensional queries are unselective enough to always match.
        candidates = generate_queries(wcfg, num_queries=10, dimensions=2)
        q = max(candidates, key=lambda q: q.match_count(reference))
        baseline = system.search(SearchRequest(q)).outcome.total_matches
        assert baseline > 0
        # Deny everything at the owner holding the most matches.
        per_owner = [(i, q.match_count(stores[i])) for i in range(32)]
        worst = max(per_owner, key=lambda t: t[1])
        system.set_policy(f"owner-{worst[0]}", TieredPolicy(public_limit=0))
        filtered = system.search(SearchRequest(q)).outcome.total_matches
        assert filtered == baseline - worst[1]


class TestUpdates:
    def test_epoch_bytes_positive_and_stable(self, small_roads):
        a = small_roads.update_bytes_per_epoch()
        b = small_roads.update_bytes_per_epoch()
        assert a > 0
        assert a == b  # deterministic given unchanged records

    def test_window_scales_epochs(self, small_roads):
        per_epoch = small_roads.update_bytes_per_epoch()
        window = small_roads.update_overhead(
            small_roads.config.summary_interval * 10
        )
        assert window == per_epoch * 10

    def test_storage_excludes_private_records(self, small_roads):
        storage = small_roads.storage_bytes_by_server()
        # Summaries only: far below the raw record bytes.
        raw = 80 * small_roads.hierarchy.get(0).owners[0].origin.schema.record_size_bytes
        assert all(v >= 0 for v in storage.values())
        total_summaries = sum(storage.values())
        total_raw = raw * 32
        assert total_summaries < total_raw * 32  # sanity ceiling


class TestResilienceIntegration:
    def test_queries_survive_node_failure(self):
        wcfg = WorkloadConfig(num_nodes=24, records_per_node=40, seed=9)
        stores = generate_node_stores(wcfg)
        cfg = RoadsConfig(
            num_nodes=24, records_per_node=40, max_children=3,
            summary=SummaryConfig(histogram_buckets=100), seed=9,
        )
        system = RoadsSystem.build(cfg, stores)
        proto = system.enable_maintenance()
        queries = generate_queries(wcfg, num_queries=10)

        victim = next(
            s for s in system.hierarchy
            if not s.is_root and s.children
        )
        victim_id = victim.server_id
        proto.fail(victim)
        system.sim.run(until=system.sim.now + 60.0)
        system.hierarchy.check_invariants()

        # Re-aggregate and re-replicate after the topology change.
        system.refresh()
        reference = merge_stores(
            [stores[i] for i in range(24) if i != victim_id]
        )
        for q in queries:
            healthy_client = next(
                s.server_id for s in system.hierarchy if s.alive
            )
            o = system.search(SearchRequest(q, client_node=healthy_client)).outcome
            assert o.total_matches == q.match_count(reference)


#: per search (latency rounded to 1e-12 s, total_matches, servers_contacted,
#: query_bytes) of the federation below, recorded at commit 4591c75 — the
#: last one that pruned with NumPy slices over the bucket counters. They
#: are the same for plain, multi-resolution and bitmap-encoded histograms.
PINNED_SEARCHES = [
    (0.0005, 0, 1, 176),
    (0.289187749106, 0, 5, 912),
    (0.309826291792, 0, 5, 912),
    (0.0005, 0, 1, 176),
    (0.0005, 0, 1, 176),
    (0.271794106824, 0, 10, 1832),
    (0.576191323644, 2, 24, 4424),
    (0.526471236041, 0, 17, 3120),
    (0.125677568613, 0, 2, 360),
    (0.570946519838, 18, 29, 5392),
    (0.0005, 0, 1, 176),
    (0.414205728785, 0, 7, 1280),
    (0.0005, 0, 1, 176),
    (0.0005, 0, 1, 176),
    (0.658995136744, 101, 27, 5144),
    (0.284735599678, 0, 9, 1648),
    (0.091089677117, 0, 2, 360),
    (0.302665323238, 0, 6, 1096),
    (0.0005, 0, 1, 176),
    (0.415789664096, 0, 8, 1464),
    (0.0005, 0, 1, 176),
    (0.0005, 0, 1, 176),
    (0.0005, 0, 1, 176),
    (0.121639294812, 0, 2, 360),
    (0.319589394067, 0, 3, 544),
    (0.31028017432, 0, 3, 544),
    (0.755187432005, 4, 20, 3704),
    (0.0005, 0, 1, 176),
    (0.408785055555, 0, 4, 728),
    (0.082699888302, 0, 2, 360),
]
#: sha256 prefix over every server's start / descent / local decision for
#: every query (same commit), and a few of those decisions spelled out:
#: (query, server) -> (redirect_ids, owners_only_ids, owner hits)
PINNED_DECISIONS = "c7e114d3af018095"
PINNED_START_DECISIONS = {
    (6, 0): ([1, 2, 3, 4], [], []),
    (6, 33): ([13, 9, 5, 2, 4, 3], [17], []),
    (9, 17): ([33, 9, 5, 2, 4, 3], [0], ["owner-17"]),
    (9, 33): ([9, 5, 2, 4, 3], [17, 0], []),
    (14, 17): ([33, 9, 13, 5, 2, 4, 3], [], ["owner-17"]),
    (14, 33): ([13, 9, 5, 2, 4, 3], [17], ["owner-33"]),
    (26, 17): ([9, 13, 2, 4, 3], [], []),
}


class TestReadPathDeterminism:
    """Tripwire: the read-path kernels may get faster, but which servers a
    search contacts, what it finds, how long it takes and what it sends
    are fixed by the seed."""

    @pytest.mark.parametrize("summary_kw", [{}], ids=["plain"])
    def test_searches_and_routing_decisions_are_pinned(self, summary_kw):
        wcfg = WorkloadConfig(num_nodes=40, records_per_node=100, seed=15)
        cfg = RoadsConfig(
            num_nodes=40, records_per_node=100, max_children=4,
            summary=SummaryConfig(histogram_buckets=128, **summary_kw), seed=15,
        )
        system = RoadsSystem.build(cfg, generate_node_stores(wcfg))
        queries = generate_queries(wcfg, num_queries=30, range_length=0.4)
        assert all(q.dimensions == 6 for q in queries)

        searches = []
        for i, q in enumerate(queries):
            o = system.search(SearchRequest(q, client_node=(7 * i) % 40)).outcome
            searches.append(
                (round(o.latency, 12), o.total_matches, o.servers_contacted,
                 o.query_bytes)
            )
        assert searches == PINNED_SEARCHES

        def decision(decide, server, query):
            now = () if decide is decide_local else (system.sim.now,)
            d = decide(server, query, *now)
            return (d.redirect_ids, d.owners_only_ids,
                    [o.owner_id for o in d.owner_hits])

        for (i, sid), expected in PINNED_START_DECISIONS.items():
            server = system.hierarchy.get(sid)
            assert decision(decide_start, server, queries[i]) == expected
        digest = hashlib.sha256()
        for i, q in enumerate(queries):
            for server in system.hierarchy:
                for decide in (decide_start, decide_descent, decide_local):
                    digest.update(repr(
                        (i, server.server_id, *decision(decide, server, q))
                    ).encode())
        assert digest.hexdigest()[:16] == PINNED_DECISIONS


class TestNoCyclicGarbage:
    """The read path makes no reference cycles: contacts, messages and
    timers are freed by reference count, so what the cyclic collector
    finds after a batch of searches does not grow with the batch."""

    NODES, RECORDS, N = 48, 60, 6

    #: regime -> (RoadsConfig extras, retry policy, service model)
    REGIMES = {
        "defaults": ({}, RetryPolicy(), None),
        "loss_and_retries": (
            {"loss_rate": 0.02},
            RetryPolicy(timeout=0.5, retries=3, backoff_base=0.05),
            None,
        ),
        "shedding": (
            {},
            RetryPolicy(timeout=0.5, retries=3, backoff_base=0.05),
            ServiceConfig(service_time=0.05, queue_limit=0),
        ),
    }

    def _unreachable_after(self, regime, searches):
        extras, retry, service = self.REGIMES[regime]
        wcfg = WorkloadConfig(
            num_nodes=self.NODES, records_per_node=self.RECORDS, seed=5
        )
        system = RoadsSystem.build(
            RoadsConfig(
                num_nodes=self.NODES, records_per_node=self.RECORDS, seed=5,
                **extras,
            ),
            generate_node_stores(wcfg),
        )
        if service is not None:
            system.enable_service(service)
        requests = [
            SearchRequest(q, retry=retry)
            for q in generate_queries(wcfg, num_queries=searches)
        ]
        gc.collect()
        gc.disable()
        try:
            if service is None:
                results = [system.search(r) for r in requests]
            else:
                # Concurrent, so servers saturate and shed with notices.
                results = system.search_many(
                    requests, arrivals=[0.001 * i for i in range(searches)]
                )
            # Let cancelled timers and late duplicates drain.
            system.sim.run(until=system.sim.now + 30)
            seen = {
                "contacts": sum(r.outcome.servers_contacted for r in results),
                "rejections": sum(r.outcome.rejections for r in results),
                "lost": system.network.lost,
            }
            del results, requests
            return gc.collect(), seen
        finally:
            gc.enable()

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    def test_garbage_does_not_grow_with_searches(self, regime):
        few, _ = self._unreachable_after(regime, self.N)
        many, seen = self._unreachable_after(regime, 4 * self.N)
        assert seen["contacts"] > 4 * self.N  # searches fanned out
        if regime == "loss_and_retries":
            assert seen["lost"] > 0
        if regime == "shedding":
            assert seen["rejections"] > 0
        assert many == few


class TestSearchStreamPinned:
    """What the searches of TestNoCyclicGarbage's regimes cost, not only
    what they find: events, sends, the registry and the delivery census
    behind 12 searches each, pinned to the values the transport gave
    before its delivery became one in-flight record. A change to the
    message path may make it cheaper on the host, never move these."""

    N = 12

    #: regime -> (sim.processed, network.counters() as (sent, delivered,
    #: lost, dropped, shed), census fingerprint, sha256 of metrics.rows())
    PINNED = {
        "defaults": (760, (798, 798, 0, 0, 0), "9338d36f9adc86ce", "eed21c07c5b2a7fc"),
        "loss_and_retries": (763, (802, 793, 9, 0, 0), "d1b3dccbae56f9f7", "905e9641d53c2757"),
        "shedding": (1041, (864, 823, 0, 0, 41), "e00031cc9caf1948", "951cfa9ad307b873"),
    }
    #: regime -> per search: (latency, matches, contacts, query bytes,
    #: rejections, timed-out servers)
    SEARCHES = {
        "defaults": [
            (0.0005, 0, 1, 176, 0, 0), (0.0005, 0, 1, 176, 0, 0),
            (0.0005, 0, 1, 176, 0, 0), (0.354240163326, 1, 10, 1840, 0, 0),
            (0.0005, 0, 1, 176, 0, 0), (0.277311010092, 0, 11, 2016, 0, 0),
            (0.0005, 0, 1, 176, 0, 0), (0.0005, 0, 1, 176, 0, 0),
            (0.0005, 0, 1, 176, 0, 0), (0.0005, 0, 1, 176, 0, 0),
            (0.127538319469, 0, 6, 1096, 0, 0), (0.44661677197, 3, 14, 2584, 0, 0),
        ],
        "loss_and_retries": [
            (0.0005, 0, 1, 176, 0, 0), (0.0005, 0, 1, 176, 0, 0),
            (0.0005, 0, 1, 176, 0, 0), (0.354240163326, 1, 10, 1840, 0, 0),
            (0.0005, 0, 1, 176, 0, 0), (0.277311010092, 0, 11, 2192, 0, 0),
            (0.0005, 0, 1, 176, 0, 0), (0.0005, 0, 1, 176, 0, 0),
            (0.0005, 0, 1, 176, 0, 0), (0.0005, 0, 1, 176, 0, 0),
            (0.628675480308, 0, 6, 1256, 0, 0), (0.854678333299, 3, 14, 2744, 0, 0),
        ],
        "shedding": [
            (0.0505, 0, 1, 176, 0, 0), (0.0505, 0, 1, 176, 0, 0),
            (0.0505, 0, 1, 176, 0, 0), (1.301228283215, 1, 10, 4232, 5, 1),
            (0.0505, 0, 1, 176, 0, 0), (2.351570894817, 0, 11, 3592, 2, 0),
            (0.0505, 0, 1, 176, 0, 0), (0.0505, 0, 1, 176, 0, 0),
            (0.0505, 0, 1, 176, 0, 0), (0.0505, 0, 1, 176, 0, 0),
            (0.693278842314, 0, 6, 1928, 3, 0), (1.84661677197, 3, 14, 4512, 2, 1),
        ],
    }

    @pytest.mark.parametrize("regime", sorted(PINNED))
    def test_stream_is_pinned(self, regime):
        extras, retry, service = TestNoCyclicGarbage.REGIMES[regime]
        nodes, records = TestNoCyclicGarbage.NODES, TestNoCyclicGarbage.RECORDS
        wcfg = WorkloadConfig(num_nodes=nodes, records_per_node=records, seed=5)
        system = RoadsSystem.build(
            RoadsConfig(num_nodes=nodes, records_per_node=records, seed=5, **extras),
            generate_node_stores(wcfg),
        )
        requests = [
            SearchRequest(q, retry=retry)
            for q in generate_queries(wcfg, num_queries=self.N)
        ]
        if service is None:
            results = [system.search(r) for r in requests]
        else:
            system.enable_service(service)
            results = system.search_many(
                requests, arrivals=[0.001 * i for i in range(self.N)]
            )
        system.sim.run(until=system.sim.now + 30)
        rows = hashlib.sha256(repr(system.metrics.rows()).encode()).hexdigest()
        got = (
            system.sim.processed,
            tuple(system.network.counters().values()),
            census_fingerprint(system.network.census),
            rows[:16],
        )
        assert got == self.PINNED[regime]
        assert [
            (round(o.latency, 12), o.total_matches, o.servers_contacted,
             o.query_bytes, o.rejections, len(o.timed_out_servers))
            for o in (r.outcome for r in results)
        ] == self.SEARCHES[regime]


#: (tp, fp, fn, tn) over TestOwnSummaryFirst's 30 audited searches
PINNED_AUDIT = (416, 24, 0, 38)


class TestOwnSummaryFirst:
    """A server asks the summary it built of its own records before it
    scans them: a "no" costs no scan while that summary is current, and
    anything less than current falls back to the records."""

    ENTRY, GUEST_AT = 5, 3

    @pytest.fixture
    def scanned(self, monkeypatch):
        """Every store ``Query.mask`` is asked to scan, in order."""
        stores = []
        mask = Query.mask
        monkeypatch.setattr(
            Query, "mask",
            lambda query, store: stores.append(store) or mask(query, store),
        )
        return stores

    def _federation(self):
        wcfg = WorkloadConfig(num_nodes=17, records_per_node=40, seed=5)
        stores = generate_node_stores(wcfg)
        system = RoadsSystem.build(
            RoadsConfig(
                num_nodes=16, records_per_node=40, max_children=4,
                summary=SummaryConfig(histogram_buckets=64), seed=5,
            ),
            stores[:16],
            guests=[GuestOwner(stores[16], attach_to=self.GUEST_AT, owner_id="g")],
        )
        queries = generate_queries(
            wcfg, num_queries=30, dimensions=2, range_length=0.3
        )
        return system, stores, queries

    def test_ruled_out_store_is_not_scanned_until_it_is_written(self, scanned):
        system, stores, queries = self._federation()
        query, own = queries[5], stores[self.ENTRY]
        request = SearchRequest(query, client_node=self.ENTRY)
        truth = sum(query.match_count(s) for s in stores)
        assert truth > 0 and query.match_count(own) == 0

        del scanned[:]
        outcome = system.search(request).outcome
        assert outcome.total_matches == truth
        assert self.ENTRY in outcome.arrivals
        assert not any(s is own for s in scanned)
        assert scanned  # servers whose summary said maybe did scan

        # Written, not yet re-summarized: the summary at hand describes
        # other records, so the records themselves answer.
        donor = next(s for s in stores if query.match_count(s))
        row = int(np.flatnonzero(query.mask(donor))[0])
        own.write_rows(np.array([0]), donor.numeric_matrix[[row]])
        assert query.match_count(own) > 0  # written into the range

        del scanned[:]
        outcome = system.search(request).outcome
        assert any(s is own for s in scanned)
        assert [
            h.match_count for h in outcome.owner_hits
            if h.owner_id == f"owner-{self.ENTRY}"
        ] == [query.match_count(own)]

        # Re-summarized at the new stamp: a query the new summary rules
        # out (here: a range beyond the attribute's bounds) is again
        # answered without a scan, one it admits is scanned.
        system.refresh()
        server = system.hierarchy.get(self.ENTRY)
        beyond = Query.of(RangePredicate("u0", 1.5, 2.0))
        del scanned[:]
        assert not decide_local(server, beyond).owner_hits
        assert not scanned
        assert decide_local(server, query).owner_hits
        assert [s is own for s in scanned] == [True]

    def test_guest_owner_is_judged_by_its_exported_summary(self, scanned):
        system, stores, queries = self._federation()
        query, server = queries[5], system.hierarchy.get(self.GUEST_AT)
        guest = next(o for o in server.owners if not o.controls_server)
        assert guest in decide_local(server, query).owner_hits
        # The server holds no guest records: emptying them changes
        # nothing it can see, and it never scans them.
        guest.origin.clear()
        del scanned[:]
        assert guest in decide_local(server, query).owner_hits
        assert not any(s is guest.origin for s in scanned)

    def test_oracle_scans_and_reports_what_it_reported(self, scanned):
        """The quality plane's ground truth never takes the shortcut it
        audits; its verdicts are those of the commit before the
        shortcut existed."""
        system, stores, queries = self._federation()
        plane = system.attach_quality()
        results = [
            system.search(SearchRequest(q, client_node=(7 * i) % 16))
            for i, q in enumerate(queries)
        ]
        assert [r.quality.recall for r in results] == [1.0] * len(queries)
        snap = plane.snapshot()
        assert (snap["tp"], snap["fp"], snap["fn"], snap["tn"]) == PINNED_AUDIT
        assert snap["owner_false_positives"] == 0
        # ground truth of the entry server of query 5, which its own
        # summary rules out, still came from its records
        del scanned[:]
        request = SearchRequest(queries[5], client_node=self.ENTRY)
        assert system.search(request).quality.recall == 1.0
        assert any(s is stores[self.ENTRY] for s in scanned)
