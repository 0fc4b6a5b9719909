"""Tests for third-party (guest) owner attachment — Figure 1's owner D.

A guest owner has no server of its own: it exports a *summary* to a
server run by someone else, keeps its records private at its own node,
and answers matching queries directly (one extra hop for the client).
"""

import numpy as np
import pytest

from repro.net.transport import Message
from repro.query import Query, RangePredicate
from repro.roads import (
    GuestOwner,
    RetryPolicy,
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
from repro.records import RecordStore

N = 16


def build(telemetry=None):
    wcfg = WorkloadConfig(num_nodes=N, records_per_node=40, seed=31)
    stores = generate_node_stores(wcfg)
    schema = make_schema(wcfg)
    rng = np.random.default_rng(99)
    # A guest with distinctive data: u0 confined to [0.45, 0.55].
    cols = rng.random((600, wcfg.num_attributes))
    cols[:, 0] = 0.45 + 0.1 * rng.random(600)
    guest_store = RecordStore.from_arrays(schema, cols, [], owner="guest-co")
    cfg = RoadsConfig(
        num_nodes=N,
        records_per_node=40,
        max_children=3,
        summary=SummaryConfig(histogram_buckets=100),
        seed=31,
    )
    system = RoadsSystem.build(
        cfg,
        stores,
        guests=[GuestOwner(store=guest_store, attach_to=5, owner_id="guest-co")],
        telemetry=telemetry,
    )
    return wcfg, stores, guest_store, system


@pytest.fixture
def setup():
    return build()


class TestAttachment:
    def test_guest_attached_as_summary_only(self, setup):
        _, _, guest_store, system = setup
        server = system.hierarchy.get(5)
        guest = next(o for o in server.owners if o.owner_id == "guest-co")
        assert not guest.controls_server
        assert guest.node_id == N  # first guest slot
        assert guest.summary is not None
        # The attachment server holds a summary, not the records.
        assert guest.summary.encoded_size() < guest_store.size_bytes

    def test_bad_attach_to_rejected(self, setup):
        wcfg, stores, guest_store, _ = setup
        cfg = RoadsConfig(
            num_nodes=N, records_per_node=40, max_children=3, seed=31
        )
        with pytest.raises(ValueError, match="attach_to"):
            RoadsSystem.build(
                cfg, stores, guests=[GuestOwner(guest_store, attach_to=N + 3)]
            )

    def test_guest_export_costs_update_traffic(self, setup):
        _, _, _, system = setup
        report = system.refresh()
        assert report.aggregation.export_bytes > 0


class TestDiscovery:
    def query(self):
        return Query.of(RangePredicate("u0", 0.46, 0.54))

    def test_guest_records_discoverable(self, setup):
        _, stores, guest_store, system = setup
        q = self.query()
        outcome = system.search(SearchRequest(q, client_node=0)).outcome
        want = q.match_count(merge_stores(stores)) + q.match_count(guest_store)
        assert outcome.total_matches == want
        assert any(h.owner_id == "guest-co" for h in outcome.owner_hits)

    def test_query_travels_to_guest_node(self, setup):
        _, _, _, system = setup
        outcome = system.search(SearchRequest(self.query(), client_node=0)).outcome
        assert N in outcome.arrivals  # the guest's own node was contacted
        # The guest hit is recorded at the guest node, after the server.
        hit = next(h for h in outcome.owner_hits if h.owner_id == "guest-co")
        assert hit.server_id == N
        assert hit.arrival_time >= outcome.arrivals[5] if 5 in outcome.arrivals else True

    def test_extra_hop_costs_latency(self, setup):
        """The guest leg adds client->guest latency to the completion."""
        _, _, _, system = setup
        outcome = system.search(SearchRequest(self.query(), client_node=0)).outcome
        # The guest arrival is strictly after the query start.
        assert outcome.arrivals[N] > outcome.started_at

    def test_non_matching_query_skips_guest(self, setup):
        _, _, _, system = setup
        q = Query.of(RangePredicate("u0", 0.95, 0.99))
        outcome = system.search(SearchRequest(q, client_node=0)).outcome
        assert not any(h.owner_id == "guest-co" for h in outcome.owner_hits)
        assert N not in outcome.arrivals


class TestGuestPolicy:
    def test_guest_policy_applies_at_guest(self, setup):
        _, _, guest_store, system = setup
        system.set_policy("guest-co", TieredPolicy(public_limit=0))
        q = Query.of(RangePredicate("u0", 0.46, 0.54))
        outcome = system.search(SearchRequest(q, client_node=0)).outcome
        guest_hits = [h for h in outcome.owner_hits if h.owner_id == "guest-co"]
        # Still discovered and contacted, but the owner returns nothing:
        # voluntary sharing retains final control at the owner.
        assert guest_hits and guest_hits[0].match_count == 0


class TestOwnerRetry:
    """The guest-owner hop rides the client retry policy under loss."""

    RETRY = RetryPolicy(timeout=0.5, retries=2, backoff_base=0.05)

    def query(self):
        return Query.of(RangePredicate("u0", 0.46, 0.54))

    def _swallow(self, system, pred, *, first_n=None):
        """Silently drop sends matching *pred* (the first ``first_n``,
        or all of them), simulating loss on exactly that leg."""
        net = system.network
        real_send = net.send
        swallowed = []

        def send(src, dst, category, size, **kwargs):
            if pred(src, dst, kwargs.get("kind")) and (
                first_n is None or len(swallowed) < first_n
            ):
                swallowed.append(system.sim.now)
                return None
            return real_send(src, dst, category, size, **kwargs)

        net.send = send
        return swallowed

    def test_lost_owner_query_is_retried(self, setup):
        _, _, _, system = setup
        swallowed = self._swallow(
            system,
            lambda src, dst, kind: dst == N and kind == "query",
            first_n=1,
        )
        result = system.search(
            SearchRequest(self.query(), client_node=0, retry=self.RETRY)
        )
        outcome = result.outcome
        assert len(swallowed) == 1
        assert result.ok
        assert any(h.owner_id == "guest-co" for h in outcome.owner_hits)
        assert N not in outcome.timed_out_servers
        # The hit arrived only after a full client timeout + backoff.
        assert outcome.arrivals[N] > outcome.started_at + self.RETRY.timeout

    def test_silent_owner_leg_times_out_cleanly(self, setup):
        _, _, _, system = setup
        swallowed = self._swallow(
            system, lambda src, dst, kind: dst == N and kind == "query"
        )
        result = system.search(
            SearchRequest(self.query(), client_node=0, retry=self.RETRY)
        )
        outcome = result.outcome
        # Initial attempt + `retries` re-sends, then the client gives up
        # — the search still resolves instead of hanging forever.
        assert len(swallowed) == 1 + self.RETRY.retries
        assert outcome.completed
        assert not result.ok
        assert N in outcome.timed_out_servers
        assert N not in outcome.arrivals
        assert not any(h.owner_id == "guest-co" for h in outcome.owner_hits)

    def test_lost_ack_retries_without_duplicate_hits(self, setup):
        _, _, _, system = setup
        swallowed = self._swallow(
            system,
            lambda src, dst, kind: src == N and kind == "query-ack",
            first_n=1,
        )
        result = system.search(
            SearchRequest(self.query(), client_node=0, retry=self.RETRY)
        )
        outcome = result.outcome
        assert len(swallowed) == 1
        assert result.ok
        # The owner answered twice (original + retry) but the answer is
        # recorded idempotently: exactly one guest hit.
        hits = [h for h in outcome.owner_hits if h.owner_id == "guest-co"]
        assert len(hits) == 1


class TestOneContactImplementation:
    """Server contacts and the guest-owner hop are one retry state
    machine: the same fault on either leg is handled identically."""

    RETRY = RetryPolicy(timeout=0.5, retries=2, backoff_base=0.05)
    #: the guest's attachment server / the guest's own node
    TARGETS = {"server": 5, "owner": N}

    #: fault -> what the client must record about the faulted contact
    FAULTS = {
        "lose_query_once": dict(attempts=2, rejections=0, terminal=""),
        "lose_response_once": dict(attempts=2, rejections=0, terminal=""),
        "reject_once": dict(attempts=2, rejections=1, terminal=""),
        "late_response": dict(attempts=2, rejections=0, terminal=""),
        "silent": dict(attempts=3, rejections=0, terminal="timeout"),
        "always_shed": dict(attempts=3, rejections=3, terminal="shed"),
    }

    def _inject(self, system, target, fault):
        """Apply *fault* to the client's exchange with node *target*."""
        net, sim = system.network, system.sim
        real_send = net.send
        hits = []

        def send(src, dst, category, size, **kwargs):
            kind = kwargs.get("kind")
            query = dst == target and kind == "query"
            response = src == target and kind in ("query-response", "query-ack")
            once = not hits
            if query and (
                fault in ("silent", "always_shed")
                or (once and fault in ("lose_query_once", "reject_once"))
            ):
                hits.append(sim.now)
                if fault in ("reject_once", "always_shed"):
                    # The reject notice of a saturated node, without one.
                    msg = Message(src, dst, category, size, kind=kind,
                                  trace=kwargs.get("trace"))
                    sim.schedule(0.01, lambda: kwargs["on_rejected"](msg))
                return None
            if response and once and fault == "lose_response_once":
                hits.append(sim.now)
                return None
            if response and once and fault == "late_response":
                # Overtaken by the retry's response: arrives as a duplicate.
                hits.append(sim.now)
                sim.schedule(
                    2.0, lambda: real_send(src, dst, category, size, **kwargs)
                )
                return None
            return real_send(src, dst, category, size, **kwargs)

        net.send = send
        return hits

    def _observe(self, target, fault):
        tel = Telemetry(capacity=100_000)
        _, _, _, system = build(telemetry=tel)
        hits = self._inject(system, target, fault)
        done = []
        pending = system.submit(
            SearchRequest(
                Query.of(RangePredicate("u0", 0.46, 0.54)),
                client_node=0, retry=self.RETRY,
            ),
            on_complete=done.append,
        )
        system.sim.run(until=system.sim.now + 30)
        assert hits and len(done) == 1 and system.sim.pending == 0
        outcome = pending.result.outcome
        spans = [
            e.tags for e in tel.events()
            if e.name == "query.contact" and e.tags["server"] == target
        ]
        assert len(spans) == 1  # closed exactly once, duplicates or not
        return dict(
            attempts=spans[0]["attempts"],
            terminal=spans[0].get("terminal", ""),
            rejections=outcome.rejections,
            timed_out=target in outcome.timed_out_servers,
            shed=target in outcome.shed_servers,
            completed=outcome.completed,
        )

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_same_fault_same_handling(self, fault):
        want = dict(
            self.FAULTS[fault],
            timed_out=fault == "silent",
            shed=fault == "always_shed",
            completed=True,
        )
        for leg, target in self.TARGETS.items():
            assert self._observe(target, fault) == want, leg

    def test_contact_span_names_the_leg(self):
        tel = Telemetry(capacity=100_000)
        _, _, _, system = build(telemetry=tel)
        system.search(
            SearchRequest(
                Query.of(RangePredicate("u0", 0.46, 0.54)), client_node=0
            )
        )
        tags = {
            e.tags["server"]: e.tags
            for e in tel.events() if e.name == "query.contact"
        }
        assert tags[N]["mode"] == "owner" and tags[N]["owner"] == "guest-co"
        assert tags[5]["mode"] in ("start", "descent") and "owner" not in tags[5]


class TestStorageAccounting:
    def test_attachment_server_counts_guest_summary(self, setup):
        _, _, _, system = setup
        storage = system.storage_bytes_by_server()
        server = system.hierarchy.get(5)
        guest = next(o for o in server.owners if o.owner_id == "guest-co")
        other = system.storage_bytes_by_server()[6]
        assert storage[5] >= guest.summary.encoded_size()

    def test_storage_is_held_summaries_not_records(self, setup):
        """Table I's per-server bytes: every summary a server holds — a
        guest's export, child reports and both replica tables — and none
        of the raw records an owner keeps on a server it controls."""
        _, _, _, system = setup
        storage = system.storage_bytes_by_server()
        for server in system.hierarchy:
            held = [
                o.summary for o in server.owners if not o.controls_server
            ]
            for table in (
                server.child_summaries,
                server.replicated_summaries,
                server.replicated_local_summaries,
            ):
                held.extend(table.values())
            assert storage[server.server_id] == sum(
                s.encoded_size() for s in held
            )
        assert min(storage.values()) > 0
