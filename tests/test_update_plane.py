"""The event-driven summary update plane.

Summaries now travel as real simulated messages (``summary-full`` /
``summary-keepalive`` kinds) installed at delivery time; these tests pin
down the properties that matter:

* a drained loss-free epoch costs byte-for-byte what ``measure_epoch``
  said it would, crashed servers and a TTL gap included, and never
  NACKs;
* measuring an epoch's cost does not perturb delta state (the old
  ``update_bytes_per_epoch`` observer effect);
* a lost full update leaves genuinely stale soft state: keep-alives are
  rejected and answered with a ``summary-nack``, queries quietly miss
  the unreachable content, and the sender's next report is full; an
  entry whose sender fell silent expires at its TTL;
* a free-running plane restarted after a gap longer than the TTL sweeps
  nothing its senders' next keep-alives refresh;
* maintenance integration: rejoins re-export immediately, a parent's
  heartbeat repairs a lost first report;
* the public ``QueryExecution.start(mode=...)`` entry points.
"""

import dataclasses
import hashlib
from contextlib import contextmanager

import numpy as np
import pytest

from repro.bench import census_fingerprint
from repro.net.transport import SUMMARY_FULL, SUMMARY_KEEPALIVE
from repro.query import Query, RangePredicate
from repro.roads import (
    GuestOwner,
    RetryPolicy,
    RoadsConfig,
    RoadsSystem,
    SearchRequest,
)
from repro.summaries import ResourceSummary, SummaryConfig
from repro.workload import WorkloadConfig, generate_node_stores, merge_stores
from repro.workload.dynamics import RecordDynamics
from repro.workload.queries import generate_queries

from .conftest import counting_hashes

N = 18
RECORDS = 24
BUCKETS = 120


def build(
    *, delta=True, seed=21, ttl=300.0, loss_rate=0.0, guests=(), n=N
):
    wcfg = WorkloadConfig(num_nodes=n, records_per_node=RECORDS, seed=seed)
    stores = generate_node_stores(wcfg)
    system = RoadsSystem.build(
        RoadsConfig(
            num_nodes=n,
            records_per_node=RECORDS,
            max_children=3,
            summary=SummaryConfig(histogram_buckets=BUCKETS, ttl=ttl),
            delta_updates=delta,
            loss_rate=loss_rate,
            seed=seed,
        ),
        stores,
        guests=list(guests),
    )
    return wcfg, stores, system


class _AlwaysLose:
    """rng stub: every loss draw comes up lost."""

    def random(self):
        return 0.0


def lossy(network):
    network.loss_rate = 0.9
    network._rng = _AlwaysLose()


def lossless(network):
    network.loss_rate = 0.0
    network._rng = None


class TestEpochParity:
    """A drained loss-free epoch sends exactly what was measured."""

    @pytest.mark.parametrize("delta", [False, True])
    def test_epoch_matches_measured_cost(self, delta):
        _, _, system = build(delta=delta)
        measured = system.update_plane.measure_epoch()
        assert system.refresh() == measured
        assert system.update_plane.counters.nacks == 0

    @pytest.mark.parametrize("delta", [False, True])
    def test_crashed_server_neither_sends_nor_is_sent_to(self, delta):
        _, _, system = build(delta=delta)
        leaf = max(system.hierarchy, key=lambda s: s.depth)
        leaf.alive = False
        system.network.fail_node(leaf.server_id)
        measured = system.update_plane.measure_epoch()
        assert system.refresh() == measured
        assert measured.aggregation.messages == N - 2
        assert system.update_plane.counters.nacks == 0

    def test_epoch_after_a_ttl_gap_is_measured(self):
        _, _, system = build(delta=True, ttl=300.0)
        plane = system.update_plane
        system.refresh()  # steady state: the next epoch is keep-alives
        assert plane.measure_epoch().replication.full_sends == 0
        system.sim.run(until=system.sim.now + 1000.0)
        # Every held entry expired, and no sender tracks the TTL: each
        # keep-alive re-stamps its holder's entry before the epoch's
        # sweep, and the measurement folds the re-stamped child entries.
        measured = plane.measure_epoch()
        gap = system.refresh()
        assert gap == measured
        assert gap.aggregation.full_reports == gap.replication.full_sends == 0
        now = system.sim.now
        held = [e for s in system.hierarchy for e in (
            *s.child_summaries.values(), *s.replicated_summaries.values(),
            *s.replicated_local_summaries.values(),
        )]
        assert len(held) == (N - 1) + gap.replication.keepalive_sends
        assert not any(e.is_expired(now) for e in held)
        assert plane.counters.nacks == plane.counters.expired == 0

    def test_epoch_parity_with_guests(self):
        wcfg = WorkloadConfig(num_nodes=N, records_per_node=RECORDS, seed=3)
        gs = generate_node_stores(wcfg)[0]
        _, _, system = build(
            seed=3, guests=[GuestOwner(gs, attach_to=2, owner_id="g")]
        )
        measured = system.update_plane.measure_epoch()
        epoch = system.refresh()
        assert epoch.aggregation.export_bytes > 0
        assert (
            epoch.aggregation.export_bytes
            == measured.aggregation.export_bytes
        )
        assert epoch.total_bytes == measured.total_bytes
        assert system.update_plane.counters.nacks == 0

    def test_update_messages_use_wire_kinds(self):
        _, stores, system = build()
        # Churn one record so the steady-state delta epoch still carries
        # at least one full send alongside the keep-alives.
        old = float(stores[0].numeric_column("u0")[0])
        stores[0].update_numeric(
            0, "u0", 1.0 - old if abs(old - 0.5) > 0.05 else 0.95
        )
        kinds = []
        original = system.network.send
        original_many = system.network.send_many

        def spy(src, dst, category, size, *args, **kwargs):
            if kwargs.get("kind"):
                kinds.append((kwargs["kind"], size))
            return original(src, dst, category, size, *args, **kwargs)

        def spy_many(src, requests, category, **kwargs):
            requests = list(requests)
            for dst, size, payload, kind, trace in requests:
                if kind:
                    kinds.append((kind, size))
            return original_many(src, requests, category, **kwargs)

        system.network.send = spy
        system.network.send_many = spy_many
        system.refresh()
        names = {k for k, _ in kinds}
        assert names == {SUMMARY_FULL, SUMMARY_KEEPALIVE}  # no NACK
        assert system.update_plane.counters.nacks == 0
        # Keep-alives are headers; full sends carry the encoded summary.
        max_keepalive = max(s for k, s in kinds if k == SUMMARY_KEEPALIVE)
        min_full = min(s for k, s in kinds if k == SUMMARY_FULL)
        assert max_keepalive < min_full


class TestMeasurementDoesNotPerturb:
    """Satellite fix: asking an epoch's cost must not change the epoch."""

    def test_measure_is_repeatable_and_clock_free(self):
        _, _, system = build()
        t = system.sim.now
        a = system.update_bytes_per_epoch()
        b = system.update_bytes_per_epoch()
        assert a == b > 0
        assert system.sim.now == t  # measurement sends nothing

    def test_pending_change_still_ships_after_measuring(self):
        """The old implementation ran a real round into a scratch
        collector: it armed the delta fingerprints, so the change that
        was about to propagate silently became a keep-alive. Measuring
        must leave the pending full sends pending."""
        _, stores, system = build()
        system.refresh()  # steady state
        store = stores[5]
        old = float(store.numeric_column("u0")[0])
        store.update_numeric(0, "u0", 1.0 - old if abs(old - 0.5) > 0.05 else 0.9)
        measured = system.update_bytes_per_epoch()
        report = system.refresh()
        assert report.aggregation.full_reports >= 1
        assert report.total_bytes == measured

    def test_measure_preserves_soft_state_tables(self):
        _, _, system = build()
        system.refresh()
        root = system.hierarchy.root
        before = dict(root.child_summaries)
        system.update_plane.measure_epoch()
        assert root.child_summaries == before


@contextmanager
def counting_from_store(monkeypatch):
    """Count ``ResourceSummary.from_store`` calls made inside the block."""
    original = ResourceSummary.__dict__["from_store"].__func__
    calls = []

    def counted(cls, store, config, created_at=0.0):
        calls.append(store)
        return original(cls, store, config, created_at)

    with monkeypatch.context() as patch:
        patch.setattr(ResourceSummary, "from_store", classmethod(counted))
        yield calls


#: One churned epoch of the seeded 40-server federation below, recorded
#: before summaries were built once per tick: the measured cost, the
#: epoch's reports, and the plane's cumulative counters (set-up epoch
#: included). Building once must not move a single byte or message.
PINNED = {
    False: dict(
        measured=(3562808, 447),
        aggregation=dict(
            export_bytes=7952, aggregation_bytes=310440, messages=39,
            full_reports=39, keepalive_reports=0,
        ),
        replication=dict(
            replication_bytes=3244416, messages=408,
            full_sends=408, keepalive_sends=0,
        ),
        counters=dict(
            export_bytes=15904, export_messages=2,
            aggregation_bytes=620880, aggregation_messages=78,
            full_reports=78, keepalive_reports=0,
            replication_bytes=6488832, replication_messages=816,
            full_sends=816, keepalive_sends=0,
            installed=896, refreshed=0, ignored=0, nacks=0,
            lost=0, dropped=0, expired=0,
            install_lag_sum=97.4778710542604,
            install_lag_max=0.44762922134032035,
            installs_timed=896,
        ),
    ),
    True: dict(
        measured=(2562872, 447),
        aggregation=dict(
            export_bytes=7952, aggregation_bytes=72360, messages=39,
            full_reports=9, keepalive_reports=30,
        ),
        replication=dict(
            replication_bytes=2482560, messages=408,
            full_sends=312, keepalive_sends=96,
        ),
        counters=dict(
            export_bytes=15904, export_messages=2,
            aggregation_bytes=382800, aggregation_messages=78,
            full_reports=48, keepalive_reports=30,
            replication_bytes=5726976, replication_messages=816,
            full_sends=720, keepalive_sends=96,
            installed=770, refreshed=126, ignored=0, nacks=0,
            lost=0, dropped=0, expired=0,
            install_lag_sum=83.58853131160461,
            install_lag_max=0.44762922134032035,
            installs_timed=770,
        ),
    ),
}


class TestSummariesBuiltOncePerTick:
    """The tick contract: one store scan per store *written since its
    last summary* (controlling owner or guest alike), at unchanged bytes
    and messages."""

    SERVERS = 40
    MOVED = 10  # stores churned() steps; the guest's is not one of them

    def churned(self, delta):
        guest = generate_node_stores(
            WorkloadConfig(num_nodes=1, records_per_node=RECORDS, seed=13)
        )[0]
        _, stores, system = build(
            delta=delta, seed=12, n=self.SERVERS,
            guests=[GuestOwner(guest, attach_to=5, owner_id="g")],
        )
        # A quarter of the stores move, so a delta epoch mixes full
        # sends with keep-alives.
        dynamics = RecordDynamics(
            system.sim, stores[:self.MOVED], np.random.default_rng(7)
        )
        dynamics.stop()
        dynamics.step()
        return system

    @pytest.mark.parametrize("delta", [False, True])
    def test_epoch_scans_each_store_once_at_pinned_cost(
        self, delta, monkeypatch
    ):
        system = self.churned(delta)
        plane = system.update_plane
        with counting_from_store(monkeypatch) as calls:
            measured = plane.measure_epoch()
        assert len(calls) == self.MOVED  # the set-up epoch summarized the rest
        assert len({id(store) for store in calls}) == len(calls)
        with counting_from_store(monkeypatch) as calls:
            epoch = plane.run_epoch()
        assert len(calls) == 0  # nothing was written since the measurement

        pinned = PINNED[delta]
        assert (measured.total_bytes, measured.total_messages) == pinned["measured"]
        assert (epoch.total_bytes, epoch.total_messages) == pinned["measured"]
        assert dataclasses.asdict(epoch.aggregation) == pinned["aggregation"]
        assert dataclasses.asdict(epoch.replication) == pinned["replication"]
        assert dataclasses.asdict(plane.counters) == pytest.approx(
            pinned["counters"], rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("delta", [False, True])
    def test_free_running_tick_scans_each_store_once(self, delta, monkeypatch):
        system = self.churned(delta)
        plane = system.update_plane
        sim = system.sim
        exports = plane.counters.export_messages
        plane.start()
        with counting_from_store(monkeypatch) as calls:
            sim.run(until=sim.now + plane.interval)
        plane.stop()
        assert plane.ticks >= self.SERVERS  # every server ticked
        exports = plane.counters.export_messages - exports
        assert exports >= 1
        assert len(calls) == self.MOVED  # at each moved store's first tick

    @pytest.mark.parametrize("delta", [False, True])
    def test_epoch_scans_exactly_the_written_stores(self, delta, monkeypatch):
        system = self.churned(delta)
        guest = system.hierarchy.get(5).owners[1]
        guest.origin.update_numeric(0, "u0", 0.5)
        with counting_from_store(monkeypatch) as calls:
            system.update_plane.run_epoch()
        written = [
            system.hierarchy.get(i).owners[0].origin for i in range(self.MOVED)
        ] + [guest.origin]
        assert len(calls) == len(written)
        assert {id(store) for store in calls} == {id(store) for store in written}


@contextmanager
def counting_new_contents(monkeypatch):
    """Collect the summaries built with *new* count arrays inside the
    block: every store scan, and every merge of two or more parts."""
    scan = ResourceSummary.__dict__["from_store"].__func__
    merge = ResourceSummary.__dict__["merge_many"].__func__
    built = []

    def from_store(cls, store, config, created_at=0.0):
        built.append(scan(cls, store, config, created_at))
        return built[-1]

    def merge_many(cls, summaries):
        summaries = list(summaries)
        merged = merge(cls, summaries)
        if len(summaries) > 1:
            built.append(merged)
        return merged

    with monkeypatch.context() as patch:
        patch.setattr(ResourceSummary, "from_store", classmethod(from_store))
        patch.setattr(ResourceSummary, "merge_many", classmethod(merge_many))
        yield built


def free_run(system, intervals=1):
    plane = system.update_plane
    plane.start()
    system.sim.run(until=system.sim.now + intervals * plane.interval)
    plane.stop()


class TestHashOnlyWhatIsCompared:
    """A fingerprint exists to be compared with another one. The paper's
    default mode ships every summary in full and compares nothing, so it
    hashes nothing; delta mode hashes a content once, when first built."""

    def test_non_delta_plane_never_hashes(self, monkeypatch):
        _, stores, system = build(delta=False)
        with counting_hashes(monkeypatch) as hashes:
            system.refresh()
            stores[3].update_numeric(0, "u0", 0.77)
            system.update_plane.measure_epoch()
            system.refresh()
            free_run(system)
        assert system.update_plane.ticks >= N
        assert not hashes
        # ... until a heartbeat asks what was last shipped
        leaf = max(system.hierarchy, key=lambda s: s.depth)
        held = leaf.parent.child_summaries[leaf.server_id]
        assert leaf.last_reported is held
        assert leaf.last_reported_fingerprint == held.fingerprint()

    def test_delta_plane_hashes_each_new_content_once(self, monkeypatch):
        _, stores, system = build(delta=True)
        per_summary = 1 + len(stores[0].schema)  # its attributes, then itself
        internal = sum(1 for s in system.hierarchy if s.children)
        assert 0 < internal < N
        stores[3].update_numeric(0, "u0", 0.77)
        for run, scans in (
            (system.refresh, 1),  # the written store
            (system.refresh, 0),  # static: keep-alives only
            (lambda: free_run(system), 0),
        ):
            with counting_hashes(monkeypatch) as hashes:
                with counting_new_contents(monkeypatch) as built:
                    run()
            # Static stores are re-stamped, not re-scanned, and a leaf's
            # branch *is* its local summary: only the branches folded
            # anew (one per internal server per tick) are new content.
            assert len(built) == scans + internal
            assert 0 < len(hashes) <= len(built) * per_summary
        assert system.update_plane.counters.ignored == 0

    def test_receivers_share_the_senders_hash(self, monkeypatch):
        _, _, system = build(delta=True)
        leaf = max(system.hierarchy, key=lambda s: s.depth)
        shipped = leaf.last_reported
        assert shipped._fp is not None  # hashed by the sender's compare
        with counting_hashes(monkeypatch) as hashes:
            for server in system.hierarchy:
                held = server.replicated_summaries.get(leaf.server_id)
                if held is not None:
                    assert held.fingerprint() == shipped.fingerprint()
        assert not hashes


def held_count_arrays(server):
    """ids of every histogram count block *server*'s soft state holds."""
    tables = (
        server.child_summaries, server.replicated_summaries,
        server.replicated_local_summaries,
    )
    return {id(s.block) for table in tables for s in table.values()}


class TestRetainedStateIsWhatHoldersHold:
    """The sender-side state a server keeps between ticks — the summary
    it built last (per owner) and the branch it last shipped — must be
    the objects that were shipped: keeping a rebuilt equal-content copy
    instead doubles the live count blocks of a static federation."""

    TICKS = 4

    @pytest.mark.parametrize("delta", [False, True])
    def test_keepalive_ticks_retain_only_shipped_arrays(self, delta):
        _, _, system = build(delta=delta)
        for _ in range(self.TICKS):
            system.refresh()
        free_run(system, intervals=2)
        if delta:
            assert system.update_plane.counters.keepalive_sends > 0
        servers = list(system.hierarchy)
        everywhere = set().union(*(held_count_arrays(s) for s in servers))
        for server in servers:
            built = server.owners[0]._built[2]
            retained = {id(built.block)}
            if server.parent is not None:
                reported = server.last_reported
                at_parent = server.parent.child_summaries[server.server_id]
                assert reported.block is at_parent.block
                retained.add(id(reported.block))
            if server.parent is not None or server.children:
                assert retained <= everywhere, server
        # ... so the federation's live arrays are the holders' arrays
        # (the root alone builds a branch it ships nowhere).
        live = everywhere | {
            id(kept.block)
            for s in servers
            for kept in (s.owners[0]._built[2], s.last_reported)
            if kept is not None
        }
        assert len(live) - len(everywhere) <= 1


def empty_bucket_value(store, merged, buckets=BUCKETS):
    """A u0 value in a bucket empty at *store* (prefer empty everywhere)."""
    fallback = None
    for b in range(buckets - 1):
        lo, hi = b / buckets, (b + 1) / buckets
        col = store.numeric_column("u0")
        if ((col >= lo) & (col < hi)).any():
            continue
        value = (b + 0.5) / buckets
        merged_col = merged.numeric_column("u0")
        if not ((merged_col >= lo) & (merged_col < hi)).any():
            return value
        if fallback is None:
            fallback = value
    assert fallback is not None, "no empty bucket in the victim store"
    return fallback


class TestLossAndTTL:
    """Lost full update -> stale soft state -> NACK -> full -> heal;
    a silent sender's entry expires at its TTL."""

    def _stale_system(self, ttl=40.0, replicated=False):
        _, stores, system = build(ttl=ttl)
        system.refresh()  # steady state armed
        # replicated: the leaf's branch has replica holders (siblings)
        leaf = max(
            (s for s in system.hierarchy if s.siblings() or not replicated),
            key=lambda s: s.depth,
        )
        assert leaf.parent is not None
        merged = merge_stores(stores)
        value = empty_bucket_value(stores[leaf.server_id], merged)
        stores[leaf.server_id].update_numeric(0, "u0", value)
        # The epoch that would have propagated the change is lost whole.
        lossy(system.network)
        lost_report = system.refresh()
        lossless(system.network)
        assert system.update_plane.counters.lost > 0
        assert lost_report.aggregation.full_reports >= 1
        width = 1.0 / BUCKETS
        query = Query.of(
            RangePredicate("u0", value - width / 4, value + width / 4)
        )
        return stores, system, leaf, query

    def test_lost_update_leaves_serving_stale_summary(self):
        stores, system, leaf, query = self._stale_system()
        plane = system.update_plane
        rejected_before = plane.counters.ignored
        measured = plane.measure_epoch()
        report = system.refresh()  # clean epoch: keep-alives flow again
        # Parents fold the stale content they hold, not what the child
        # believes it shipped — and the measurement knows it.
        assert report == measured
        # The sender believes its content is unchanged-since-shipped, so
        # it keeps sending keep-alives; receivers hold the pre-change
        # content and must reject them rather than refresh a lie.
        assert report.aggregation.keepalive_reports >= 1
        assert plane.counters.ignored > rejected_before
        held = leaf.parent.child_summaries[leaf.server_id]
        assert not held.is_expired(system.sim.now)  # still serving...
        assert held.fingerprint() != (
            leaf.branch_summary(system.config.summary, system.sim.now)
            .fingerprint()
        )  # ...but genuinely stale
        # A query for the new value quietly misses the changed owner:
        # every summary on the routing path still shows the old content.
        outcome = system.search(SearchRequest(query, client_node=0)).outcome
        assert outcome.completed
        owner = f"owner-{leaf.server_id}"
        assert owner not in {h.owner_id for h in outcome.owner_hits}

    def test_stale_summary_expires_and_query_degrades_gracefully(self):
        stores, system, leaf, query = self._stale_system(ttl=40.0)
        sim = system.sim
        parent = leaf.parent
        # The leaf crashes: nothing refreshes its parent's stale entry.
        leaf.alive = False
        system.network.fail_node(leaf.server_id)
        # Keep the rest of the soft state fresh while that entry ages:
        # epochs every 10s.
        for _ in range(3):
            sim.run(until=sim.now + 10.0)
            system.refresh()
        stale_entry = parent.child_summaries[leaf.server_id]
        assert not stale_entry.is_expired(sim.now)
        sim.run(until=sim.now + 12.0)  # past the 40s TTL, no epoch yet
        assert stale_entry.is_expired(sim.now)
        outcome = system.search(SearchRequest(query, client_node=0)).outcome
        assert outcome.completed  # expired branch degrades, not raises
        owner = f"owner-{leaf.server_id}"
        assert owner not in {h.owner_id for h in outcome.owner_hits}
        expired = system.update_plane.counters.expired
        system.refresh()  # the parent's tick sweeps the entry
        assert leaf.server_id not in parent.child_summaries
        assert system.update_plane.counters.expired > expired

    def test_nack_repairs_a_lost_full_report(self):
        stores, system, leaf, query = self._stale_system()
        plane = system.update_plane
        system.refresh()  # the parent ignores the keep-alive and NACKs
        held = leaf.parent.child_summaries[leaf.server_id]
        current = leaf.branch_summary(system.config.summary, system.sim.now)
        assert held.fingerprint() != current.fingerprint()
        report = system.refresh()  # the NACKed report goes out full
        assert report.aggregation.full_reports >= 1
        held = leaf.parent.child_summaries[leaf.server_id]
        assert held.fingerprint() == current.fingerprint()
        outcome = system.search(SearchRequest(query, client_node=0)).outcome
        owner = f"owner-{leaf.server_id}"
        assert owner in {h.owner_id for h in outcome.owner_hits}
        assert outcome.total_matches == query.match_count(merge_stores(stores))
        nacks = plane.counters.nacks
        assert nacks > 0
        system.refresh()  # repaired: keep-alives apply again
        assert plane.counters.nacks == nacks

    def test_nack_repairs_a_lost_replica_push(self):
        stores, system, leaf, query = self._stale_system(replicated=True)
        holder = leaf.siblings()[0]
        system.refresh()  # the holder ignores the keep-alive and NACKs
        held = holder.replicated_summaries[leaf.server_id]
        current = leaf.branch_summary(system.config.summary, system.sim.now)
        assert held.fingerprint() != current.fingerprint()
        report = system.refresh()  # the NACKed push goes out full
        assert report.replication.full_sends >= 1
        held = holder.replicated_summaries[leaf.server_id]
        assert held.fingerprint() == current.fingerprint()
        outcome = system.search(
            SearchRequest(query, client_node=0, start_server=holder.server_id)
        ).outcome
        owner = f"owner-{leaf.server_id}"
        assert owner in {h.owner_id for h in outcome.owner_hits}

    def test_seeded_loss_rate_reports_losses(self):
        _, _, system = build(loss_rate=0.2, seed=9)
        system.refresh()
        assert system.update_plane.counters.lost > 0
        assert system.network.counters()["lost"] > 0


class TestFreeRunning:
    def test_free_running_converges_to_exact_queries(self):
        wcfg, stores, system = build(seed=11)
        plane = system.update_plane
        plane.start()
        sim = system.sim
        # Churn a record, then give the plane two intervals to carry the
        # change through export, aggregation and replication.
        old = float(stores[4].numeric_column("u0")[0])
        stores[4].update_numeric(0, "u0", 1.0 - old if abs(old - 0.5) > 0.05 else 0.9)
        sim.run(until=sim.now + 2.5 * plane.interval)
        plane.stop()
        assert plane.ticks >= len(system.hierarchy)
        reference = merge_stores(stores)
        for q in generate_queries(wcfg, num_queries=5, dimensions=2):
            o = system.search(SearchRequest(q, client_node=1)).outcome
            assert o.total_matches == q.match_count(reference)

    def test_start_is_idempotent_and_stop_halts_traffic(self):
        _, _, system = build()
        plane = system.update_plane
        plane.start()
        tasks = dict(plane._tasks)
        plane.start()
        assert plane._tasks == tasks
        plane.stop()
        bytes_before = system.metrics.bytes_total()
        sim = system.sim
        sim.run(until=sim.now + 3 * plane.interval)
        assert system.metrics.bytes_total() == bytes_before
        assert plane._tasks == {}


class TestRestartAfterGap:
    """A plane stopped for longer than the TTL and started again finds
    every entry aged past it. The senders' next keep-alives refresh
    them, so a holder sweeps none of them in the restart's first TTL:
    no entry is lost and no keep-alive is NACKed."""

    def test_restart_keeps_what_the_next_keep_alives_refresh(self):
        wcfg = WorkloadConfig(num_nodes=18, records_per_node=20, seed=1)
        system = RoadsSystem.build(
            RoadsConfig(
                num_nodes=18, records_per_node=20, seed=1,
                delta_updates=True, summary_interval=60.0,
                summary=SummaryConfig(ttl=300.0),
            ),
            generate_node_stores(wcfg),
        )
        plane, sim = system.update_plane, system.sim
        plane.start()
        sim.run(until=sim.now + 130)
        held = plane.staleness_snapshot()["entries"]
        assert held == 190
        plane.stop()
        sim.run(until=sim.now + 1000)
        plane.start()
        sim.run(until=sim.now + plane.interval)
        assert plane.staleness_snapshot()["entries"] == held
        assert plane.counters.expired == 0 and plane.counters.nacks == 0
        assert plane.counters.refreshed >= held

    def test_an_unrefreshed_entry_goes_one_ttl_after_the_restart(self):
        _, _, system = build(seed=4)
        plane, sim = system.update_plane, system.sim
        ttl = system.config.summary.ttl
        holder = system.hierarchy.root
        orphan = next(iter(holder.child_summaries.values())).refreshed(sim.now)
        holder.replicated_local_summaries[999] = orphan  # no sender behind it
        sim.run(until=sim.now + 2 * ttl)
        plane.start()
        restart = sim.now
        sim.run(until=restart + ttl)
        assert 999 in holder.replicated_local_summaries
        sim.run(until=restart + ttl + 1.5 * plane.interval)
        assert 999 not in holder.replicated_local_summaries
        assert plane.counters.expired == 1 and plane.counters.nacks == 0


class TestMaintenanceIntegration:
    def test_rejoin_triggers_immediate_full_export(self):
        _, stores, system = build(seed=13)
        proto = system.enable_maintenance()
        system.refresh()
        victim = next(
            s for s in system.hierarchy
            if not s.is_root and s.children and s.parent is not None
        )
        child = victim.children[0]
        proto.fail(victim)
        plane = system.update_plane
        full_before = plane.counters.full_reports
        system.sim.run(until=system.sim.now + 60.0)
        assert proto.rejoins >= 1
        assert child.parent is not None
        assert child.parent.server_id != victim.server_id
        # The rejoin hook re-exported without waiting for an epoch.
        assert plane.counters.full_reports > full_before
        assert child.server_id in child.parent.child_summaries

    def test_recovered_branch_reaches_new_parent_before_an_epoch(self):
        from repro.hierarchy.maintenance import MaintenanceConfig

        _, _, system = build(seed=3, n=12)
        proto = system.enable_maintenance(
            MaintenanceConfig(heartbeat_interval=1.0)
        )
        plane = system.update_plane
        leaf = system.hierarchy.get(4)
        proto.fail(leaf)
        sim = system.sim
        sim.run(until=sim.now + 10.0)  # detected and forgotten
        epochs = plane.epochs
        assert proto.recover(leaf)
        sim.run(until=sim.now + 0.5)
        assert plane.epochs == epochs
        held = leaf.parent.child_summaries[leaf.server_id]
        assert held.fingerprint() == (
            leaf.branch_summary(system.config.summary, sim.now).fingerprint()
        )

    def test_parent_heartbeat_repairs_lost_first_reports(self):
        wcfg, stores, system = build(seed=13)
        proto = system.enable_maintenance()
        for s in system.hierarchy:  # as if every full report had been lost
            if s.parent is not None:
                del s.parent.child_summaries[s.server_id]
        sim = system.sim
        sim.run(until=sim.now + 3 * proto.config.heartbeat_interval)
        # Each parent's heartbeat said it holds nothing for the child, so
        # the next epoch reports in full instead of keep-alives that the
        # parent would ignore and NACK.
        report = system.refresh()
        assert report.aggregation.keepalive_reports == 0
        for s in system.hierarchy:
            if s.parent is not None:
                assert s.server_id in s.parent.child_summaries
        reference = merge_stores(stores)
        for q in generate_queries(wcfg, num_queries=5, dimensions=2):
            o = system.search(SearchRequest(q, client_node=1)).outcome
            assert o.total_matches == q.match_count(reference)


class TestQueryEntryModes:
    def test_run_mode_descent_matches_scoped_semantics(self):
        _, stores, system = build(seed=17)
        system.refresh()
        root = system.hierarchy.root
        branch = root.children[0]
        branch_ids = {s.server_id for s in branch.iter_subtree()}
        q = Query.of(RangePredicate("u0", 0.0, 1.0))
        outcome = system.search(SearchRequest(q, client_node=0, scope=branch.server_id)).outcome
        contacted_servers = set(outcome.arrivals) & {
            s.server_id for s in system.hierarchy
        }
        assert contacted_servers <= branch_ids
        reference = merge_stores(
            [stores[i] for i in sorted(branch_ids) if i < len(stores)]
        )
        assert outcome.total_matches == q.match_count(reference)

    def test_invalid_mode_rejected(self):
        from repro.roads import QueryExecution

        _, _, system = build(seed=17)
        q = Query.of(RangePredicate("u0", 0.4, 0.6))
        execution = QueryExecution(
            system.sim, system.network, system.hierarchy,
            system.policies, q, 0, 0,
            retry=RetryPolicy(),
        )
        with pytest.raises(ValueError, match="mode"):
            execution.start(mode="sideways")

    def test_done_property_tracks_completion(self):
        from repro.roads import QueryExecution

        _, _, system = build(seed=17)
        system.refresh()
        q = Query.of(RangePredicate("u0", 0.4, 0.6))
        execution = QueryExecution(
            system.sim, system.network, system.hierarchy,
            system.policies, q, 0, 0,
            retry=RetryPolicy(),
        )
        assert not execution.done
        execution.start(mode="start")
        assert not execution.done
        system.sim.run(stop=lambda: execution.done)
        assert execution.done and execution.outcome.completed


class TestOneEpochPinned:
    """One churned coordinated epoch of a seeded 64-server federation,
    pinned to the values the epoch's first message-driven form gave: any
    change to its event structure (events, sends, the per-kind census) or
    to what it installs (every held summary, its stamp and content) fails.
    """

    PINNED = {
        (False, 0.0): (673, 807, "1bf7302d877e458a", "898c457d1b58033f"),
        (True, 0.05): (656, 807, "9b5e6ccd6b4aaa86", "3105431db94364cd"),
    }

    @staticmethod
    def held_digest(system):
        h = hashlib.sha256()
        for server in sorted(system.hierarchy, key=lambda s: s.server_id):
            for table, held in (
                ("child", server.child_summaries),
                ("replica", server.replicated_summaries),
                ("replica_local", server.replicated_local_summaries),
            ):
                for src in sorted(held):
                    summary = held[src]
                    h.update(f"{server.server_id}/{table}/{src}/{summary.created_at!r}/".encode())
                    h.update(summary.fingerprint())
        return h.hexdigest()[:16]

    @pytest.mark.parametrize("delta, loss_rate", sorted(PINNED))
    def test_epoch_is_pinned(self, delta, loss_rate):
        _, stores, system = build(n=64, seed=38, delta=delta, loss_rate=loss_rate)
        dynamics = RecordDynamics(system.sim, stores, np.random.default_rng(38))
        dynamics.pause()
        dynamics.step()
        events, sent = system.sim.processed, system.network.sent
        system.refresh()
        got = (
            system.sim.processed - events,
            system.network.sent - sent,
            census_fingerprint(system.network.census),
            self.held_digest(system),
        )
        assert got == self.PINNED[delta, loss_rate]
        assert system.update_plane.counters.nacks == 0
