"""The concurrent serving plane: service queues, load-shed, multiplexing.

Transport level: ServiceConfig turns each node into a single-server
FIFO with a bounded waiting room — messages serialize behind the
service time, overflow is shed, and sheds notify the sender. System
level: many in-flight queries interleave with the free-running update
plane over the shared dispatcher, deterministically for a fixed seed,
and the simulator drains back to an empty event heap.
"""

import dataclasses

import numpy as np
import pytest

from repro.net import DelaySpace, Network
from repro.net.transport import ServiceConfig
from repro.roads import (
    LoadConfig,
    LoadGenerator,
    RetryPolicy,
    RoadsConfig,
    RoadsSystem,
    SearchRequest,
)
from repro.sim import QUERY, Simulator
from repro.telemetry import MetricsRegistry, Telemetry
from repro.summaries import SummaryConfig
from repro.workload import WorkloadConfig, generate_node_stores, generate_queries

SEED = 9
NODES = 24


def make_net(service=None, node=1):
    sim = Simulator()
    ds = DelaySpace(8, np.random.default_rng(0), jitter_ms=0.0)
    net = Network(sim, ds, MetricsRegistry())
    if service is not None:
        net.set_service(node, service)
    return sim, ds, net


def build_system(**overrides):
    wcfg = WorkloadConfig(num_nodes=NODES, records_per_node=60, seed=SEED)
    cfg = RoadsConfig(
        num_nodes=NODES,
        records_per_node=60,
        max_children=4,
        summary=SummaryConfig(histogram_buckets=200),
        seed=SEED,
        **overrides,
    )
    return RoadsSystem.build(cfg, generate_node_stores(wcfg))


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(service_time=0)
        with pytest.raises(ValueError):
            ServiceConfig(queue_limit=-1)
        ServiceConfig(queue_limit=0)  # zero waiting room is legal

    def test_unconfigured_stats_are_zero(self):
        _, _, net = make_net()
        stats = net.service_stats(3)
        assert stats == {
            "served": 0, "shed": 0, "depth": 0,
            "max_depth": 0, "busy_seconds": 0.0, "waiting": 0.0,
        }


class TestServiceQueue:
    def test_messages_serialize_behind_service_time(self):
        sim, ds, net = make_net(ServiceConfig(service_time=0.5))
        done = []
        net.register(1, lambda m: done.append((m.payload, sim.now)))
        net.send(0, 1, QUERY, 10, payload="a")
        net.send(0, 1, QUERY, 10, payload="b")
        sim.run()
        assert [p for p, _ in done] == ["a", "b"]
        (_, t_a), (_, t_b) = done
        # Second message waits for the first's full service time.
        assert t_b - t_a == pytest.approx(0.5)
        stats = net.service_stats(1)
        assert stats["served"] == 2
        assert stats["max_depth"] == 2
        assert stats["busy_seconds"] == pytest.approx(1.0)

    def test_bounded_queue_sheds_overflow(self):
        sim, ds, net = make_net(
            ServiceConfig(service_time=1.0, queue_limit=0)
        )
        delivered, droppedreasons, rejected = [], [], []
        net.register(1, lambda m: delivered.append(m.payload))
        net.send(0, 1, QUERY, 10, payload="first")
        net.send(
            0, 1, QUERY, 10, payload="second",
            on_dropped=lambda m, reason: droppedreasons.append(reason),
            on_rejected=lambda m: rejected.append((m.payload, sim.now)),
        )
        sim.run()
        assert delivered == ["first"]
        assert droppedreasons == ["shed"]
        assert net.counters()["shed"] == 1
        assert net.service_stats(1)["shed"] == 1
        # The reject notice travelled back to the sender.
        assert [p for p, _ in rejected] == ["second"]

    def test_queued_message_dropped_if_node_fails(self):
        sim, ds, net = make_net(ServiceConfig(service_time=1.0))
        delivered, reasons = [], []
        net.register(1, lambda m: delivered.append(m.payload))
        net.send(0, 1, QUERY, 10, payload="a")
        net.send(
            0, 1, QUERY, 10, payload="b",
            on_dropped=lambda m, r: reasons.append(r),
        )
        # Fail the node while "a" is in service and "b" is waiting:
        # neither reaches a handler on the dead node.
        sim.schedule(0.6, lambda: net.fail_node(1))
        sim.run()
        assert delivered == []
        assert reasons == ["receiver_failed"]

    def test_service_removable(self):
        sim, ds, net = make_net(ServiceConfig(service_time=5.0))
        net.set_service(1, None)
        got = []
        net.register(1, lambda m: got.append(sim.now))
        net.send(0, 1, QUERY, 10)
        sim.run()
        # No service model: delivered after latency + processing only.
        assert got[0] < 1.0


class TestClientRejectPath:
    def test_shed_past_retries_gives_up_and_counts(self):
        """A saturated entry server sheds every attempt; the client
        backs off, retries, then gives up with the server recorded."""
        system = build_system()
        entry = system.hierarchy.root.server_id
        # Zero waiting room and a service time longer than the whole
        # retry schedule: every attempt of the second query is shed.
        system.network.set_service(
            entry, ServiceConfig(service_time=30.0, queue_limit=0)
        )
        retry = RetryPolicy(timeout=5.0, retries=2, backoff_base=0.05)
        q = generate_queries(
            WorkloadConfig(num_nodes=NODES, records_per_node=60, seed=SEED),
            num_queries=1, dimensions=3,
        )[0]
        first, second = system.search_many(
            [
                SearchRequest(q, scope=entry, client_node=0, retry=retry),
                SearchRequest(q, scope=entry, client_node=0, retry=retry),
            ],
            arrivals=[0.0, 0.001],
        )
        # First query's contact is in service (not yet answered by the
        # 30 s server) only after the horizon... it eventually times out
        # or completes; the second query was shed on every attempt.
        assert second.outcome.rejections == 3  # 1 try + 2 retries
        assert entry in second.outcome.shed_servers
        assert second.shed and not second.ok
        assert second.outcome.completed

    def test_queue_depth_telemetry_recorded(self):
        system = build_system()
        system.enable_service(ServiceConfig(service_time=0.002))
        system.search(SearchRequest(generate_queries(
            WorkloadConfig(num_nodes=NODES, records_per_node=60, seed=SEED),
            num_queries=1, dimensions=3,
        )[0], client_node=0))
        hist = system.metrics.merged_histogram(
            "service.queue_depth"
        ).summary()
        assert hist["count"] > 0


def outcome_key(r):
    return (
        r.outcome.total_matches,
        r.outcome.servers_contacted,
        r.outcome.query_bytes,
        r.outcome.latency,
        r.sojourn,
        tuple(sorted(r.outcome.timed_out_servers)),
        tuple(sorted(r.outcome.shed_servers)),
    )


class TestConcurrentServing:
    def _fixture(self):
        """Lossy, queue-limited, free-running plane; ten requests."""
        system = build_system(loss_rate=0.05)
        system.enable_service(
            ServiceConfig(service_time=0.005, queue_limit=32)
        )
        plane = system.update_plane
        plane.start()
        wcfg = WorkloadConfig(
            num_nodes=NODES, records_per_node=60, seed=SEED
        )
        queries = generate_queries(wcfg, num_queries=10, dimensions=3)
        requests = [
            SearchRequest(
                q,
                client_node=i % NODES,
                retry=RetryPolicy(timeout=2.0, retries=1),
            )
            for i, q in enumerate(queries)
        ]
        return system, requests

    def _run_once(self):
        system, requests = self._fixture()
        # Overlapping arrivals: all ten in flight within half a second.
        arrivals = [0.05 * i for i in range(len(requests))]
        results = system.search_many(requests, arrivals=arrivals)
        system.update_plane.stop()
        while system.sim.step():
            pass
        return system, results

    def test_overlapping_queries_deterministic_under_loss(self):
        _, first = self._run_once()
        _, second = self._run_once()
        key = lambda r: (
            r.outcome.total_matches,
            r.outcome.servers_contacted,
            r.outcome.query_bytes,
            round(r.outcome.latency, 12),
            round(r.sojourn, 12),
            tuple(sorted(r.outcome.timed_out_servers)),
            tuple(sorted(r.outcome.shed_servers)),
        )
        assert [key(r) for r in first] == [key(r) for r in second]

    def test_queries_overlap_in_virtual_time(self):
        _, results = self._run_once()
        assert all(r.done if hasattr(r, "done") else True for r in results)
        # At least one query was submitted before an earlier one
        # finished — genuinely concurrent, not sequential.
        overlaps = sum(
            1
            for a, b in zip(results, results[1:])
            if b.submitted_at < a.finished_at
        )
        assert overlaps > 0

    def test_simulator_drains_to_empty(self):
        system, _ = self._run_once()
        assert system.sim.pending == 0

    def test_search_many_length_mismatch_rejected(self):
        system = build_system()
        q = generate_queries(
            WorkloadConfig(num_nodes=NODES, records_per_node=60, seed=SEED),
            num_queries=1, dimensions=3,
        )[0]
        with pytest.raises(ValueError, match="arrivals"):
            system.search_many([SearchRequest(q)], arrivals=[0.0, 1.0])

    def test_counted_driver_is_the_hand_driven_loop(self):
        """``search_many(arrivals=)`` is told of each completion; a loop
        that polls every handle before every event must see the same
        outcomes, in request order, and stop at the same event — which
        is what keeps every ``sim_digest``."""
        # Arrival order differs from request order.
        arrivals = [0.05 * ((7 * i) % 10) for i in range(10)]
        system, requests = self._fixture()
        results = system.search_many(requests, arrivals=arrivals)

        assert [r.request for r in results] == requests

        ref, ref_requests = self._fixture()
        pendings = [None] * len(ref_requests)
        for i, (req, at) in enumerate(zip(ref_requests, arrivals)):
            def launch(i=i, req=req):
                pendings[i] = ref.submit(req)

            ref.sim.schedule(at, launch, "query.submit")
        while (
            any(p is None or not p.done for p in pendings) and ref.sim.step()
        ):
            pass
        assert [outcome_key(r) for r in results] == [
            outcome_key(p.result) for p in pendings
        ]
        assert system.sim.processed == ref.sim.processed
        assert system.sim.now == ref.sim.now
        assert system.sim.pending == ref.sim.pending > 0  # the plane runs on

    def test_driver_never_polls_the_batch(self, monkeypatch):
        """No per-event pass over the batch: ``PendingSearch.done`` is
        for callers. (The polling loop read it ~10^5 times here.)"""
        from repro.roads.search import PendingSearch

        reads = []
        done = PendingSearch.done
        monkeypatch.setattr(
            PendingSearch, "done",
            property(lambda self: reads.append(1) or done.fget(self)),
        )
        system = build_system()
        queries = generate_queries(
            WorkloadConfig(num_nodes=NODES, records_per_node=60, seed=SEED),
            num_queries=20, dimensions=3,
        )
        requests = [
            SearchRequest(queries[i % 20], client_node=i % NODES)
            for i in range(200)
        ]
        before = system.sim.processed
        results = system.search_many(
            requests, arrivals=[0.01 * i for i in range(200)]
        )
        assert all(r.ok for r in results)
        assert system.sim.processed - before > 10 * len(requests)
        assert len(reads) <= len(requests)

    @pytest.mark.parametrize(
        "arrivals, index",
        [([0.1, -1.0, 0.2], 1), ([0.0, 0.1, float("nan")], 2),
         ([float("inf"), 0.0, 0.0], 0)],
    )
    def test_bad_offset_rejected_before_anything_is_scheduled(
        self, arrivals, index
    ):
        system, requests = self._fixture()
        sim = system.sim
        pending, processed = sim.pending, sim.processed
        with pytest.raises(ValueError, match=rf"arrivals\[{index}\]"):
            system.search_many(requests[:3], arrivals=arrivals)
        assert (sim.pending, sim.processed) == (pending, processed)
        # No orphan launch: driving on serves no search nobody asked for.
        sim.run(until=sim.now + 5.0)
        assert system.metrics.merged_histogram("query.latency").count == 0


class TestOneSearchPath:
    """``search(r)`` is ``submit(r)`` run to completion: the result, the
    latency observation, the quality audit and the ``query.execute``
    span are made in one place, so a search and a hand-driven submit of
    the same request agree on all of them."""

    @staticmethod
    def _armed(seed):
        tel = Telemetry()
        wcfg = WorkloadConfig(num_nodes=NODES, records_per_node=60, seed=seed)
        system = RoadsSystem.build(
            RoadsConfig(
                num_nodes=NODES, records_per_node=60, max_children=4,
                summary=SummaryConfig(histogram_buckets=200), seed=seed,
                loss_rate=0.05,
            ),
            generate_node_stores(wcfg),
            telemetry=tel,
        )
        # Lossy, shedding, with the update plane running underneath:
        # searches time out, give up on shed servers and stop mid-stream.
        system.enable_service(ServiceConfig(service_time=0.02, queue_limit=0))
        system.update_plane.start()
        system.attach_quality()
        requests = [
            SearchRequest(q, retry=RetryPolicy(timeout=2.0, retries=0))
            for q in generate_queries(wcfg, num_queries=8, dimensions=3)
        ]
        return system, tel, requests

    @staticmethod
    def _key(result):
        # Query ids are process-wide, so the two builds' differ.
        quality = dataclasses.replace(result.quality, query_id=None)
        return (outcome_key(result), result.submitted_at, result.finished_at,
                quality)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_search_is_submit_run_to_completion(self, seed):
        system, tel, requests = self._armed(seed)
        searched = [system.search(r) for r in requests]

        ref, ref_tel, ref_requests = self._armed(seed)
        submitted = []
        for request in ref_requests:
            pending = ref.submit(request)
            while not pending.done and ref.sim.step():
                pass
            submitted.append(pending.result)

        assert [self._key(r) for r in searched] == [
            self._key(r) for r in submitted
        ]
        assert all(r.quality is not None for r in searched)
        assert (system.sim.processed, system.sim.now) == (
            ref.sim.processed, ref.sim.now
        )
        assert [e.to_dict() for e in tel.events()] == [
            e.to_dict() for e in ref_tel.events()
        ]
        spans = [e for e in tel.events() if e.name == "query.execute"]
        assert len(spans) == len(requests)
        for span, result in zip(spans, searched):
            assert span.kind == "span"
            assert span.tags["servers"] == result.outcome.servers_contacted
            assert span.tags["matches"] == result.outcome.total_matches
            assert span.tags["shed"] == len(result.outcome.shed_servers)
            assert (span.ts, span.dur) == (
                result.submitted_at, result.finished_at - result.submitted_at
            )
        latency = system.metrics.merged_histogram("query.latency")
        assert latency.count == len(requests)


class TestLoadGenerator:
    def _system_and_queries(self):
        system = build_system()
        wcfg = WorkloadConfig(
            num_nodes=NODES, records_per_node=60, seed=SEED
        )
        return system, generate_queries(wcfg, num_queries=6, dimensions=3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(rate=0, horizon=1.0)
        with pytest.raises(ValueError):
            LoadConfig(rate=1.0, horizon=0)
        with pytest.raises(ValueError):
            LoadConfig(rate=1.0, horizon=1.0, scope_fraction=1.5)

    def test_empty_query_pool_rejected(self):
        system, _ = self._system_and_queries()
        with pytest.raises(ValueError, match="pool"):
            LoadGenerator(
                system, [], LoadConfig(rate=5.0, horizon=1.0),
                np.random.default_rng(0),
            )

    def test_deterministic_for_fixed_seed(self):
        reports = []
        for _ in range(2):
            system, queries = self._system_and_queries()
            system.enable_service(ServiceConfig(service_time=0.002))
            gen = LoadGenerator(
                system, queries,
                LoadConfig(rate=8.0, horizon=4.0),
                np.random.default_rng(123),
            )
            reports.append(gen.run())
        a, b = reports
        assert a.offered == b.offered > 0
        assert a.summary() == b.summary()
        assert list(a.latencies()) == list(b.latencies())

    def test_report_accounting(self):
        system, queries = self._system_and_queries()
        gen = LoadGenerator(
            system, queries,
            LoadConfig(rate=10.0, horizon=3.0),
            np.random.default_rng(7),
        )
        report = gen.run()
        assert report.offered == report.completed == report.ok
        assert report.shed_queries == 0
        assert report.goodput > 0
        assert report.drained_at >= report.started_at
        s = report.summary()
        assert s["offered"] == report.offered
        assert s["latency_p95"] >= s["latency_p50"] > 0

    def test_scoped_fraction_scopes_to_client(self):
        system, queries = self._system_and_queries()
        gen = LoadGenerator(
            system, queries,
            LoadConfig(rate=10.0, horizon=3.0, scope_fraction=1.0),
            np.random.default_rng(5),
        )
        requests = gen._draw_schedule()
        assert requests
        assert all(r.scope == r.client_node for r in requests)
