"""The event-driven summary update plane — the one summary propagation path.

Every server is a protocol actor on the message fabric: it periodically
exports its branch summary to its parent and pushes its summaries to its
overlay holders through :meth:`~repro.net.transport.Network.send`, as
distinct ``summary-full`` / ``summary-keepalive`` message kinds.
Installation happens at delivery time at the receiver
(:meth:`SummaryUpdate.install`). A lost full send leaves the receiver
holding stale content — genuine observable staleness — until the
sender's next keep-alive, which the receiver cannot apply: it answers
with one ``summary-nack``, and the sender's next message to it is full
(:meth:`UpdatePlane.on_summary_missing`, the one repair path).

Two driving modes:

* :meth:`run_epoch` — one coordinated epoch, drained to quiescence:
  exports are staggered deepest-first so each parent hears all its
  children before it reports upward, and a loss-free epoch leaves every
  summary in the federation current.
* :meth:`start` — free-running per-server periodic ticks with jitter,
  for experiments that measure propagation lag and staleness under
  message loss.

:meth:`measure_epoch` answers "what would one coordinated epoch cost
right now?" by asking the same actors what they would send — a read-only
walk that mutates nothing, sends nothing and leaves the clock alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from ..hierarchy.aggregation import (
    HEADER_BYTES,
    AggregationReport,
    SummaryExporter,
    SummaryUpdate,
    build_owner_export,
    install_batch,
)
from ..hierarchy.join import Hierarchy
from ..hierarchy.node import Server
from ..net.transport import (
    PROCESSING_DELAY,
    Message,
    Network,
    SUMMARY_FULL,
    SUMMARY_KEEPALIVE,
    SUMMARY_NACK,
)
from ..overlay.replication import (
    ReplicaPusher,
    ReplicationOverlay,
    ReplicationReport,
)
from ..sim.engine import PeriodicTask, Simulator
from ..sim.metrics import UPDATE
from ..summaries.config import SummaryConfig
from ..summaries.summary import ResourceSummary
from ..telemetry.core import Telemetry


@dataclass
class UpdateRoundReport:
    """Byte accounting for one summary epoch (t_s)."""

    aggregation: AggregationReport
    replication: ReplicationReport

    @property
    def total_bytes(self) -> int:
        return self.aggregation.total_bytes + self.replication.replication_bytes

    @property
    def total_messages(self) -> int:
        return self.aggregation.messages + self.replication.messages


@dataclass
class PlaneCounters:
    """Cumulative update-plane accounting (epoch reports diff snapshots)."""

    export_bytes: int = 0
    export_messages: int = 0
    aggregation_bytes: int = 0
    aggregation_messages: int = 0
    full_reports: int = 0
    keepalive_reports: int = 0
    replication_bytes: int = 0
    replication_messages: int = 0
    full_sends: int = 0
    keepalive_sends: int = 0
    #: delivery-time outcomes
    installed: int = 0
    refreshed: int = 0
    ignored: int = 0
    #: ignored keep-alives answered with a ``summary-nack`` (a repair
    #: request, so not part of an epoch's :class:`UpdateRoundReport`)
    nacks: int = 0
    #: terminal message dispositions that never reached a handler
    lost: int = 0
    dropped: int = 0
    #: soft-state entries that aged past their TTL and were removed
    expired: int = 0
    #: full-summary install lag (send -> install), streaming moments
    install_lag_sum: float = 0.0
    install_lag_max: float = 0.0
    installs_timed: int = 0

    # The accounting rules of one epoch, shared by the sends that happen
    # and by ``measure_epoch``'s sends that would.
    def count_export(self, size: int) -> None:
        self.export_bytes += size
        self.export_messages += 1

    def count_report(self, update: SummaryUpdate, size: int) -> None:
        self.aggregation_bytes += size
        self.aggregation_messages += 1
        if update.summary is not None:
            self.full_reports += 1
        elif update.fingerprint is not None:
            self.keepalive_reports += 1

    def count_pushes(self, pushes) -> None:
        """Count a source's ``[(holder_id, update, size)]`` replica pushes."""
        full = sum(1 for _, update, _ in pushes if update.summary is not None)
        self.replication_bytes += sum(size for _, _, size in pushes)
        self.replication_messages += len(pushes)
        self.full_sends += full
        self.keepalive_sends += len(pushes) - full

    def epoch_since(self, before: "PlaneCounters") -> UpdateRoundReport:
        """The sends counted since the *before* snapshot, as a report."""

        def since(name: str) -> int:
            return getattr(self, name) - getattr(before, name)

        return UpdateRoundReport(
            aggregation=AggregationReport(
                export_bytes=since("export_bytes"),
                aggregation_bytes=since("aggregation_bytes"),
                messages=since("aggregation_messages"),
                full_reports=since("full_reports"),
                keepalive_reports=since("keepalive_reports"),
            ),
            replication=ReplicationReport(
                replication_bytes=since("replication_bytes"),
                messages=since("replication_messages"),
                full_sends=since("full_sends"),
                keepalive_sends=since("keepalive_sends"),
            ),
        )


class UpdatePlane:
    """Per-server summary export/replication actors on the simulator."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        hierarchy: Hierarchy,
        overlay: ReplicationOverlay,
        *,
        interval: float = 60.0,
        delta: bool = False,
        rng: Optional[np.random.Generator] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.sim = sim
        self.network = network
        self.hierarchy = hierarchy
        self.overlay = overlay
        self.config: SummaryConfig = overlay.config
        self.interval = interval
        self.delta = delta
        self.telemetry = telemetry
        # Cached like Network's: the disabled path stays one attribute test.
        self._profiler = telemetry.profiler if telemetry is not None else None
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.counters = PlaneCounters()
        self.epochs = 0
        self.ticks = 0
        self._exporters: Dict[int, SummaryExporter] = {}
        self._pushers: Dict[int, ReplicaPusher] = {}
        #: messages and scheduled epoch events not yet terminally resolved
        self._inflight = 0
        self._tasks: Dict[int, PeriodicTask] = {}
        #: when the plane last stopped sending (an epoch drained, or
        #: :meth:`stop`), and the start a free-running holder's sweep
        #: counts its TTL from (see :meth:`start`)
        self._idle_since = sim.now
        self._sweep_from = -math.inf
        for kind in (SUMMARY_FULL, SUMMARY_KEEPALIVE):
            # A delivery group installs in one call; a message that waited
            # in a service queue alone, under the context forked for it.
            network.register_kind_batch(kind, self._install_group)
            network.register_kind(
                kind, lambda m: self._install_group([m], network.delivery_trace)
            )
        network.register_kind_batch(SUMMARY_NACK, self._on_nacks)
        network.register_kind(SUMMARY_NACK, lambda m: self._on_nacks([m]))

    @property
    def inflight(self) -> int:
        """Update messages and epoch events not yet terminally resolved
        (read-only gauge for the time-series plane)."""
        return self._inflight

    # -- actor registry ----------------------------------------------------------
    def _exporter(self, server: Server) -> SummaryExporter:
        ex = self._exporters.get(server.server_id)
        if ex is None or ex.server is not server:
            ex = SummaryExporter(server, delta=self.delta)
            self._exporters[server.server_id] = ex
        return ex

    def _pusher(self, server: Server) -> ReplicaPusher:
        pu = self._pushers.get(server.server_id)
        if pu is None or pu.server is not server:
            pu = ReplicaPusher(server, delta=self.delta)
            self._pushers[server.server_id] = pu
        return pu

    # -- message plumbing --------------------------------------------------------
    def _send_updates(self, src: int, pushes, phase: str) -> None:
        """Send ``[(dst, update, size)]`` from *src* as one batch: accounted
        per message, one delivery event per ``(dst, kind)`` group.

        Each message is its own causal root (send -> transit -> install
        outcome: the exact message that refreshed, or failed to refresh, a
        receiver's soft state), with no baggage: the net.* events already
        label kind and phase, and baggage keys must not collide with tags.
        """
        tel = self.telemetry
        requests = [
            (dst, size, update,
             SUMMARY_KEEPALIVE if update.summary is None else SUMMARY_FULL,
             None if tel is None else tel.new_trace())
            for dst, update, size in pushes
        ]
        self._inflight += len(requests)
        self.network.send_many(
            src, requests, UPDATE, phase=phase, on_dropped=self._on_dropped
        )

    def _on_dropped(self, msg: Message, reason: str) -> None:
        self._inflight -= 1
        if reason == "lost":
            self.counters.lost += 1
        else:
            self.counters.dropped += 1

    def _install_group(self, msgs: List[Message], ctx=None) -> None:
        """Install a same-kind ``(destination, tick)`` delivery group.

        One ``update.install`` frame and one hierarchy lookup cover the
        whole group (every message shares the destination); outcomes
        are accounted per message. A batch delivery (no *ctx*: batch
        dispatch leaves the shared ``delivery_trace`` unset) takes each
        message's causal parent from its own trace. Each keep-alive the
        receiver cannot apply is answered with one ``summary-nack``.
        """
        prof = self._profiler
        if prof is not None:
            prof.enter("update.install")
        try:
            self._inflight -= len(msgs)
            c = self.counters
            try:
                server = self.hierarchy.get(msgs[0].dst)
            except KeyError:
                c.ignored += len(msgs)  # receiver left the federation in flight
                return
            now = self.sim.now
            outcomes = install_batch(server, [m.payload for m in msgs], now)
            tel = self.telemetry
            nacks = []
            for msg, outcome in zip(msgs, outcomes):
                dctx = None
                if tel is not None:
                    dctx = tel.fork(ctx if ctx is not None else msg.trace)
                    tel.event(
                        "update.deliver", server=msg.dst, src=msg.src,
                        kind=msg.kind, msg_id=msg.msg_id, outcome=outcome,
                        **(dctx.tags() if dctx is not None else {}),
                    )
                if outcome == "installed":
                    c.installed += 1
                    summary = msg.payload.summary
                    if summary is not None:
                        lag = now - summary.created_at
                        c.install_lag_sum += lag
                        c.installs_timed += 1
                        if lag > c.install_lag_max:
                            c.install_lag_max = lag
                elif outcome == "refreshed":
                    c.refreshed += 1
                else:
                    c.ignored += 1
                    if msg.payload.fingerprint is not None:  # a keep-alive
                        nacks.append((msg.src, HEADER_BYTES, msg.payload.table,
                                      SUMMARY_NACK, dctx))
            if nacks:
                c.nacks += len(nacks)
                self._inflight += len(nacks)
                self.network.send_many(
                    server.server_id, nacks, UPDATE, phase="nack",
                    on_dropped=self._on_dropped,
                )
        finally:
            if prof is not None:
                prof.exit()

    def _on_nacks(self, msgs: List[Message]) -> None:
        """A receiver could not apply this server's keep-alives."""
        self._inflight -= len(msgs)
        try:
            server = self.hierarchy.get(msgs[0].dst)
        except KeyError:
            return  # the sender left the federation in flight
        for msg in msgs:
            self.on_summary_missing(server, msg.src, msg.payload)

    # -- per-server protocol steps -------------------------------------------------
    def _export_guest_owners(self, server: Server) -> None:
        """Guest owners re-export their summary to their attachment point."""
        now = self.sim.now
        for owner in server.owners:
            if owner.controls_server:
                continue
            update, size = build_owner_export(owner, self.config, now)
            self.counters.count_export(size)
            src = owner.node_id if owner.node_id is not None else server.server_id
            self._send_updates(src, [(server.server_id, update, size)], "export")

    def _aggregate(self, server: Server) -> tuple:
        """Build *server*'s summaries for this tick and report upward.

        The tick contract: one ``local`` summary (its owners' records and
        guest exports), one ``branch`` summary folded from it and the held
        child reports, stamped now. The branch goes to the parent through
        the exporter; ``(branch, local)`` is returned so the pusher ships
        the very same objects. A store not written since its owner's last
        summary is re-stamped, not re-scanned (:meth:`~repro.hierarchy.
        node.AttachedOwner.summarize`); the fold is redone every tick.
        """
        prof = self._profiler
        if prof is not None:
            prof.enter("update.aggregate")
        try:
            now = self.sim.now
            local = server.local_summary(self.config, now)
            branch = server.fold_branch(local, now)
            if branch is not None:
                branch = branch.refreshed(now)
            built = None
            if server.parent is not None:
                built = self._exporter(server).build_update(branch)
            if built is not None:
                update, size = built
                self.counters.count_report(update, size)
                self._send_updates(
                    server.server_id, [(server.parent.server_id, update, size)],
                    "aggregate",
                )
            return branch, local
        finally:
            if prof is not None:
                prof.exit()

    def _push_replicas(self, server: Server, branch, local) -> None:
        prof = self._profiler
        if prof is not None:
            prof.enter("update.replicate")
        try:
            pushes = self._pusher(server).build_updates(branch, local)
            if pushes:  # the whole fan-out of this server's tick: one batch
                self.counters.count_pushes(pushes)
                self._send_updates(server.server_id, pushes, "replicate")
        finally:
            if prof is not None:
                prof.exit()

    # -- coordinated epochs ---------------------------------------------------------
    def _schedule(self, delay: float, fn) -> None:
        """Schedule an epoch step, tracked by the in-flight counter."""
        self._inflight += 1

        def step() -> None:
            self._inflight -= 1
            fn()

        self.sim.schedule(
            delay, step,
            None if self._profiler is None else "update.epoch",
        )

    def _cascade_stagger(self) -> float:
        """Per-level slot width: every report lands within one slot.

        At least the worst one-way latency of any parent-child or
        guest-owner-attachment edge plus the receiver processing delay,
        stretched slightly so a level's deliveries strictly precede the
        next level's export events.
        """
        net = self.network
        worst = 0.0
        for server in self.hierarchy:
            sid = server.server_id
            if server.parent is not None:
                lat = net.delay_space.latency(sid, server.parent.server_id)
                if lat > worst:
                    worst = lat
            for owner in server.owners:
                if not owner.controls_server and owner.node_id is not None:
                    lat = net.delay_space.latency(owner.node_id, sid)
                    if lat > worst:
                        worst = lat
        return (worst + PROCESSING_DELAY) * 1.001 + 1e-9

    def trigger_epoch(self) -> None:
        """Schedule one coordinated epoch: deepest servers export first.

        Guest owners export at slot zero; a server at depth ``d``
        exports (and pushes its replicas) at slot ``max_depth - d + 1``,
        so its children's reports have arrived by the time it runs.
        """
        stagger = self._cascade_stagger()
        max_depth = 0
        for server in self.hierarchy:
            if server.alive and server.depth > max_depth:
                max_depth = server.depth
        for server in list(self.hierarchy):
            if any(not o.controls_server for o in server.owners):
                self._schedule(
                    0.0, lambda s=server: self._export_guest_owners(s)
                )
            if not server.alive:
                continue
            slot = (max_depth - server.depth + 1) * stagger

            def act(s: Server = server) -> None:
                if s.alive:  # may have failed since the epoch was scheduled
                    branch, local = self._aggregate(s)
                    self._push_replicas(s, branch, local)

            self._schedule(slot, act)

    def drain(self) -> None:
        """Run the simulator until every epoch step and message resolves."""
        self.sim.run(stop=lambda: self._inflight <= 0)

    def run_epoch(self) -> UpdateRoundReport:
        """One epoch, drained to quiescence; returns its byte accounting."""
        before = replace(self.counters)
        t0 = self.sim.now
        self.trigger_epoch()
        self.drain()
        # Expired entries go once the epoch has drained, not at each
        # server's slot: a holder's slot comes before its shallower
        # sources' keep-alives arrive, and would turn each one into a
        # NACK (folds and routing skip expired entries either way).
        now = self._idle_since = self.sim.now
        for server in self.hierarchy:
            if server.alive:
                self.counters.expired += server.expire_stale_summaries(now)
        self.epochs += 1
        report = self.counters.epoch_since(before)
        agg, rep = report.aggregation, report.replication
        tel = self.telemetry
        if tel is not None:
            now = self.sim.now
            tel.emit_span(
                "update.aggregate", t0, now,
                bytes=agg.total_bytes, messages=agg.messages,
                full_reports=agg.full_reports,
                keepalive_reports=agg.keepalive_reports, delta=self.delta,
            )
            tel.emit_span(
                "update.replicate", t0, now,
                bytes=rep.replication_bytes, messages=rep.messages,
                full_sends=rep.full_sends,
                keepalive_sends=rep.keepalive_sends, delta=self.delta,
            )
        return report

    # -- free-running mode ---------------------------------------------------------
    def start(self, *, jitter: float = 0.05) -> None:
        """Run every server's update actor periodically (paper's t_s).

        First ticks are spread uniformly over one interval so the plane
        has no global phase; subsequent ticks jitter independently.
        Opt-in: coordinated :meth:`run_epoch` callers never pay for (or
        observe) background traffic they didn't ask for.

        A start after the plane sat idle (a :meth:`stop`, or a build left
        standing) finds entries aged by the gap, which their senders'
        next keep-alives refresh: until one TTL has passed since this
        start, a tick sweeps nothing, so none of them turns into a NACK
        and a full resend. A start right where the plane stopped (the
        build's own epoch) sweeps as before.
        """
        if self._tasks:
            return
        if self.sim.now > self._idle_since:
            self._sweep_from = self.sim.now
        for server in list(self.hierarchy):
            sid = server.server_id
            first = float(self._rng.random()) * self.interval
            self._tasks[sid] = self.sim.schedule_periodic(
                self.interval,
                lambda s=sid: self._tick(s),
                first_delay=first,
                jitter=jitter,
                rng=self._rng,
                label=None if self._profiler is None else "update.tick",
            )

    def stop(self) -> None:
        for task in self._tasks.values():
            task.stop()
        self._tasks.clear()
        self._idle_since = self.sim.now

    def _tick(self, server_id: int) -> None:
        try:
            server = self.hierarchy.get(server_id)
        except KeyError:
            task = self._tasks.pop(server_id, None)
            if task is not None:
                task.stop()
            return
        if not server.alive:
            return
        self.ticks += 1
        now = self.sim.now
        if now - self._sweep_from > self.config.ttl:
            self.counters.expired += server.expire_stale_summaries(now)
        self._export_guest_owners(server)
        branch, local = self._aggregate(server)
        self._push_replicas(server, branch, local)

    # -- maintenance hooks -----------------------------------------------------------
    def on_rejoin(self, server: Server) -> None:
        """A server re-attached under a new parent: re-export immediately.

        The exporter forgets its previous parent, forcing the next report
        to carry the full branch summary (the new parent holds no state
        for this child), and an export fires right away rather than
        waiting out the current period.
        """
        self._exporter(server).forget_parent()
        if server.parent is not None and server.alive:
            self._schedule(0.0, lambda: (
                self._aggregate(server)
                if server.parent is not None and server.alive
                else None
            ))

    def on_summary_missing(
        self, server: Server, receiver_id: int, table: str
    ) -> None:
        """*receiver_id* holds nothing current of *server*'s in *table*
        (a full send was lost, or the entry expired): the next message
        *server* sends it there is full, not a keep-alive it would
        ignore. The one repair path of soft state; a ``summary-nack``
        and a parent's heartbeat both land here."""
        if table == "child":
            self._exporter(server).forget_parent()
        else:
            self._pusher(server).forget(receiver_id, table)

    # -- measurement -----------------------------------------------------------------
    def measure_epoch(self) -> UpdateRoundReport:
        """Cost of one loss-free coordinated epoch started now, *without*
        running one.

        A read-only post-order walk: each server's summaries are built
        as :meth:`_aggregate` would build them once its guests' exports
        and its children's reports have arrived, and its own exporter
        and pusher say what they would send. No soft state, delta
        fingerprint or owner export changes, no message is sent, and
        the virtual clock does not advance.
        """
        cost = PlaneCounters()
        now = self.sim.now
        for server in self.hierarchy:
            if server.parent is None:  # the root, or an orphan awaiting rejoin
                self._measure_branch(server, now, cost)
        return cost.epoch_since(PlaneCounters())

    def _measure_branch(
        self, server: Server, now: float, cost: PlaneCounters
    ) -> Optional[ResourceSummary]:
        """Add what *server*'s subtree would send to *cost*.

        Returns the branch summary *server*'s report would leave at its
        parent: the fresh branch of a full report, the parent's held
        entry re-stamped *now* for a keep-alive that matches it, or None
        when the parent keeps what it holds (dead server, empty branch,
        a keep-alive it cannot apply). A child's fresh branch is
        referenced only here, so it is released once *server* has
        folded it.
        """
        reports: Dict[int, ResourceSummary] = {}
        for child in server.children:
            branch = self._measure_branch(child, now, cost)
            if branch is not None:
                reports[child.server_id] = branch
        exports: Dict[str, ResourceSummary] = {}
        for owner in server.owners:
            if not owner.controls_server:
                update, size = build_owner_export(owner, self.config, now)
                cost.count_export(size)
                exports[owner.owner_id] = update.summary
        if not server.alive:
            return None
        local = server.local_summary(self.config, now, exports)
        branch = server.fold_branch(local, now, reports)
        cost.count_pushes(self._pusher(server).plan_updates(branch, local))
        built = self._exporter(server).plan_update(branch)
        if built is None:
            return None
        cost.count_report(*built)
        update = built[0]
        if update.fingerprint is not None:  # a keep-alive
            held = server.parent.child_summaries.get(server.server_id)
            if held is not None and held.fingerprint() == update.fingerprint:
                return held.refreshed(now)
        return update.summary

    def staleness_snapshot(self) -> Dict[str, float]:
        """Age statistics over every held soft-state summary, right now.

        An entry is stale past 1.5 update intervals: in loss-free steady
        state every entry is refreshed once per interval, so anything
        older has missed at least one update.
        """
        threshold = 1.5 * self.interval
        ages: List[float] = []
        now = self.sim.now
        for server in self.hierarchy:
            ages.extend(server.summary_ages(now))
        n = len(ages)
        c = self.counters
        return {
            "entries": float(n),
            "age_mean": float(sum(ages) / n) if n else 0.0,
            "age_max": float(max(ages)) if n else 0.0,
            "stale_fraction": (
                float(sum(1 for a in ages if a > threshold) / n) if n else 0.0
            ),
            "expired": float(c.expired),
            "lost": float(c.lost),
            "installed": float(c.installed),
            "refreshed": float(c.refreshed),
            "rejected": float(c.ignored),
            "install_lag_mean": (
                c.install_lag_sum / c.installs_timed if c.installs_timed else 0.0
            ),
            "install_lag_max": c.install_lag_max,
        }
