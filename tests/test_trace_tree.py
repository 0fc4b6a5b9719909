"""Causal tracing end to end: context propagation, tree assembly,
critical-path attribution.

The acceptance claim of the tracing tentpole: a seeded widening search
under message loss, with bounded service queues installed, reconstructs
as a *single* causal tree — every contact, retry and reject hop hangs
off the widening umbrella — and the critical path from the last
``query.arrive`` telescopes exactly to the reported query latency.
"""

import pytest

from repro.net.transport import ServiceConfig
from repro.roads import (
    RetryPolicy,
    RoadsConfig,
    RoadsSystem,
    SearchRequest,
)
from repro.summaries import SummaryConfig
from repro.telemetry import (
    PATH_CATEGORIES,
    Telemetry,
    TraceContext,
    assemble_traces,
    critical_path,
    path_category,
)
from repro.telemetry.events import TelemetryEvent
from repro.workload import WorkloadConfig, generate_node_stores, generate_queries

SEED = 9
NODES = 24
RETRY = RetryPolicy(timeout=0.5, retries=2, backoff_base=0.1)


def build_system(*, loss=0.0, service=None, traced=True, seed=SEED):
    wcfg = WorkloadConfig(num_nodes=NODES, records_per_node=60, seed=seed)
    cfg = RoadsConfig(
        num_nodes=NODES,
        records_per_node=60,
        max_children=4,
        summary=SummaryConfig(histogram_buckets=200),
        loss_rate=loss,
        seed=seed,
    )
    tel = Telemetry(capacity=200_000) if traced else None
    system = RoadsSystem.build(cfg, generate_node_stores(wcfg), telemetry=tel)
    if service is not None:
        system.enable_service(service)
    return system, tel, wcfg


class TestTraceContext:
    def test_child_links_parent_and_keeps_baggage(self):
        root = TraceContext(trace_id=7, span_id=1, baggage=(("q", 3),))
        child = root.child(2, hop="contact")
        assert child.trace_id == 7
        assert child.parent_span_id == 1
        assert dict(child.baggage) == {"q": 3, "hop": "contact"}
        tags = child.tags()
        assert tags["trace_id"] == 7 and tags["span_id"] == 2
        assert tags["parent_span_id"] == 1 and tags["q"] == 3

    def test_minting_and_forking(self):
        tel = Telemetry()
        ctx = tel.new_trace()
        assert ctx.parent_span_id == 0
        assert tel.fork(ctx).parent_span_id == ctx.span_id
        assert tel.fork(None) is None  # nothing to parent to

    def test_path_category_mapping(self):
        assert path_category("net.transit") == "wire"
        assert path_category("service.wait") == "queue"
        assert path_category("service.serve") == "service"
        assert path_category("query.retry") == "processing"
        assert set(PATH_CATEGORIES) == {
            "wire", "queue", "service", "processing"
        }


class TestAssembleTraces:
    @staticmethod
    def ev(name, ts, *, kind="event", dur=0.0, **tags):
        return TelemetryEvent(ts=ts, name=name, kind=kind, dur=dur, tags=tags)

    def test_untagged_events_are_ignored(self):
        events = [self.ev("plain", 0.0), self.ev("half", 0.0, trace_id=1)]
        assert assemble_traces(events) == {}

    def test_span_outranks_instant_on_same_span_id(self):
        # ``net.send`` (instant) and ``net.transit`` (span) share the
        # message context's span id; the span must win regardless of
        # arrival order.
        events = [
            self.ev("net.send", 0.0, trace_id=1, span_id=5),
            self.ev("net.transit", 0.0, kind="span", dur=0.2,
                    trace_id=1, span_id=5),
        ]
        tree = assemble_traces(events)[1]
        assert tree.nodes[5].name == "net.transit"
        events.reverse()
        tree = assemble_traces(events)[1]
        assert tree.nodes[5].name == "net.transit"

    def test_parent_edges_and_orphan_roots(self):
        events = [
            self.ev("root", 0.0, kind="span", dur=1.0, trace_id=1, span_id=1),
            self.ev("child", 0.2, trace_id=1, span_id=2, parent_span_id=1),
            self.ev("orphan", 0.5, trace_id=1, span_id=9, parent_span_id=77),
        ]
        tree = assemble_traces(events)[1]
        assert {n.span_id for n in tree.roots} == {1, 9}
        assert tree.root.span_id == 1  # earliest-starting root
        assert [c.span_id for c in tree.nodes[1].children] == [2]
        assert [a.span_id for a in tree.ancestors(tree.nodes[2])] == [1]


class TestCriticalPath:
    def test_telescopes_to_leaf_end_minus_root_start(self):
        tel = Telemetry()
        clock = {"t": 0.0}
        tel.bind_clock(lambda: clock["t"])
        root = tel.new_trace()
        hop = tel.fork(root)
        tel.emit_span("net.transit", 0.1, 0.3, **hop.tags())
        serve = tel.fork(hop)
        tel.emit_span("service.serve", 0.3, 0.45, **serve.tags())
        arrive = tel.fork(serve)
        clock["t"] = 0.45
        tel.event("query.arrive", **arrive.tags())
        tel.emit_span("search", 0.0, 0.5, **root.tags())
        tree = assemble_traces(tel.events())[root.trace_id]
        path = critical_path(tree)
        assert path.leaf.name == "query.arrive"
        assert path.total == pytest.approx(0.45)  # leaf end - root start
        by = path.by_category()
        assert by["wire"] == pytest.approx(0.2)
        assert by["service"] == pytest.approx(0.15)
        assert by["processing"] == pytest.approx(0.1)  # pre-send think
        assert path.dominant == "wire"

    def test_no_leaf_means_empty_path(self):
        tel = Telemetry()
        root = tel.new_trace()
        tel.emit_span("search", 0.0, 1.0, **root.tags())
        tree = assemble_traces(tel.events())[root.trace_id]
        path = critical_path(tree)
        assert path.leaf is None and path.segments == []
        assert path.total == 0.0


class TestWideningSearchTrace:
    """The tentpole acceptance: one lossy widening search, one tree."""

    @pytest.fixture(scope="class")
    def widened(self):
        system, tel, wcfg = build_system(
            loss=0.15,
            service=ServiceConfig(service_time=0.005, queue_limit=8),
        )
        query = generate_queries(
            wcfg, num_queries=4, seed_label="trace-widen"
        )[0]
        results = system.widening(
            SearchRequest(query, client_node=5, retry=RETRY),
            min_matches=10**9,  # unsatisfiable: widen to the root scope
        )
        return system, tel, results

    def test_all_scopes_share_one_trace(self, widened):
        _, _, results = widened
        trace_ids = {r.outcome.trace_id for r in results}
        assert len(results) > 1  # widening actually widened
        assert len(trace_ids) == 1 and 0 not in trace_ids

    def test_single_causal_tree_under_the_umbrella(self, widened):
        _, tel, results = widened
        tree = assemble_traces(tel.events())[results[0].outcome.trace_id]
        # Every hop of every scope hangs off the widening umbrella: no
        # orphan roots, one tree.
        assert len(tree.roots) == 1
        assert tree.root.name == "search.widening"
        umbrella_sid = tree.root.span_id
        for r in results:
            scope_root = tree.nodes[r.outcome.root_span_id]
            assert scope_root.name == "search"
            assert scope_root.parent_span_id == umbrella_sid

    def test_tree_covers_contact_retry_and_service_hops(self, widened):
        _, tel, results = widened
        tree = assemble_traces(tel.events())[results[0].outcome.trace_id]
        names = {n.name for n in tree.nodes.values()}
        assert "query.contact" in names
        assert "query.arrive" in names
        assert "net.transit" in names
        assert "service.serve" in names
        # Loss at 15% across several scopes forces at least one retry
        # and loses at least one message on this seed.
        assert "query.retry" in names
        assert "net.loss" in names

    def test_retry_hop_is_parented_to_its_contact(self, widened):
        _, tel, results = widened
        tree = assemble_traces(tel.events())[results[0].outcome.trace_id]
        for retry in tree.find("query.retry"):
            chain = [n.name for n in tree.ancestors(retry)]
            assert "query.contact" in chain
            assert chain[-1] == "search.widening"

    def test_critical_path_sum_equals_reported_latency(self, widened):
        _, tel, results = widened
        tree = assemble_traces(tel.events())[results[0].outcome.trace_id]
        verified = 0
        for r in results:
            root = tree.nodes[r.outcome.root_span_id]
            path = critical_path(tree, root=root)
            if path.leaf is None:
                continue  # every attempt of the scope was lost
            assert path.total == pytest.approx(
                r.outcome.latency, abs=1e-9
            )
            verified += 1
        assert verified == len(results)


class TestConcurrentBatchTrace:
    """A staggered concurrent batch on the lossy, queue-limited
    federation: every search telescopes, and tracing changes nothing."""

    @staticmethod
    def batch(traced):
        system, tel, wcfg = build_system(
            loss=0.15,
            service=ServiceConfig(service_time=0.005, queue_limit=8),
            traced=traced,
        )
        queries = generate_queries(
            wcfg, num_queries=12, seed_label="trace-batch"
        )
        results = system.search_many(
            [
                SearchRequest(q, client_node=i % NODES, retry=RETRY)
                for i, q in enumerate(queries)
            ],
            arrivals=[0.05 * i for i in range(len(queries))],
        )
        return system, tel, results

    @pytest.fixture(scope="class")
    def traced(self):
        return self.batch(traced=True)

    def test_every_search_telescopes_to_its_latency(self, traced):
        system, tel, results = traced
        assert system.network.counters()["lost"] > 0
        trees = assemble_traces(tel.events())
        verified = 0
        for r in results:
            tree = trees[r.outcome.trace_id]
            path = critical_path(
                tree, root=tree.nodes[r.outcome.root_span_id]
            )
            if path.leaf is None:
                continue  # every attempt of the search was lost
            assert path.total == pytest.approx(
                r.outcome.latency, abs=1e-9
            )
            verified += 1
        assert verified > 0

    def test_tracing_does_not_perturb_the_batch(self, traced):
        system, _, results = traced
        bare_system, tel, bare = self.batch(traced=False)
        assert tel is None
        # Exact float equality: span ids come from telemetry counters,
        # never from the simulation's RNG.
        assert [r.outcome.latency for r in bare] == [
            r.outcome.latency for r in results
        ]
        assert bare_system.network.counters() == system.network.counters()


class TestRejectHops:
    """Shed messages and their reject notices join the causal tree."""

    @pytest.fixture(scope="class")
    def congested(self):
        # Zero waiting room and a long service time at every server;
        # concurrent searches all enter at the root, so most first
        # contacts are shed and retried with backoff.
        system, tel, wcfg = build_system(
            service=ServiceConfig(service_time=0.05, queue_limit=0),
        )
        queries = generate_queries(
            wcfg, num_queries=6, seed_label="trace-shed"
        )
        requests = [
            SearchRequest(
                q, client_node=int(i), use_overlay=False, retry=RETRY
            )
            for i, q in enumerate(queries)
        ]
        results = system.search_many(
            requests, arrivals=[0.001 * i for i in range(len(requests))]
        )
        return tel, results

    def test_reject_notice_joins_the_senders_tree(self, congested):
        tel, results = congested
        trees = assemble_traces(tel.events())
        rejected = [
            (tid, node)
            for tid, tree in trees.items()
            for node in tree.find("query.rejected")
        ]
        assert rejected, "congestion produced no reject notices"
        search_traces = {r.outcome.trace_id for r in results}
        for tid, node in rejected:
            assert tid in search_traces
            chain = [n.name for n in trees[tid].ancestors(node)]
            # reject notice <- shed attempt's message hop <- contact
            assert "query.contact" in chain

    def test_shed_events_carry_kind_and_msg_id(self, congested):
        tel, _ = congested
        sheds = [e for e in tel.events() if e.name == "net.shed"]
        assert sheds
        assert any(e.tags["kind"] == "query" for e in sheds)
        for e in sheds:
            # Both directions saturate: forwards and responses shed.
            assert e.tags["kind"] in ("query", "query-response")
            assert e.tags["msg_id"] > 0
            assert "trace_id" in e.tags  # shed hops stay in the tree
