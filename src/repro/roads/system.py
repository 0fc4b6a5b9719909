"""The assembled ROADS system.

:class:`RoadsSystem` wires together every substrate: the simulator, delay
space and network, the federated hierarchy, bottom-up aggregation, the
replication overlay, per-owner sharing policies, and client-driven query
execution. This is the library's primary entry point::

    from repro.roads import RoadsSystem, RoadsConfig, SearchRequest
    from repro.workload import WorkloadConfig, generate_node_stores

    cfg = RoadsConfig(num_nodes=64, records_per_node=100)
    stores = generate_node_stores(WorkloadConfig(num_nodes=64, records_per_node=100))
    system = RoadsSystem.build(cfg, stores)
    result = system.search(SearchRequest(query))
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..net.coordinates import DelaySpace
from ..net.transport import Network, ServiceConfig
from ..records.store import RecordStore
from ..sim.engine import Simulator
from ..sim.metrics import epochs_in
from ..sim.rng import SeedSequenceFactory
from ..hierarchy.join import Hierarchy, build_hierarchy
from ..hierarchy.maintenance import MaintenanceConfig, MaintenanceProtocol
from ..hierarchy.node import AttachedOwner, Server
from ..overlay.replication import ReplicationOverlay
from ..telemetry.core import Telemetry
from .client import QueryExecution, QueryOutcome
from .config import RoadsConfig
from .search import PendingSearch, SearchRequest, SearchResult
from .policy import PolicyTable, SharingPolicy
from .update_plane import UpdatePlane, UpdateRoundReport


@dataclass
class GuestOwner:
    """A resource owner without a server of its own (Figure 1, owner D).

    The guest lives at its own network node, attaches to an existing
    server (``attach_to``), and exports only a summary there — keeping
    its detailed records to itself. Queries matching the summary cost the
    client one extra hop to the guest's node.
    """

    store: RecordStore
    attach_to: int
    owner_id: Optional[str] = None


class RoadsSystem:
    """A simulated ROADS federation."""

    def __init__(
        self,
        config: RoadsConfig,
        sim: Simulator,
        network: Network,
        hierarchy: Hierarchy,
        overlay: ReplicationOverlay,
        policies: PolicyTable,
        telemetry: Optional[Telemetry] = None,
    ):
        self.config = config
        self.sim = sim
        self.network = network
        self.hierarchy = hierarchy
        self.overlay = overlay
        self.policies = policies
        self.metrics = network.metrics
        self.telemetry = telemetry
        #: the event-driven summary plane; ``build`` wires one in, and
        #: :meth:`refresh` lazily creates one for hand-assembled systems
        self.update_plane: Optional[UpdatePlane] = None
        self.maintenance: Optional[MaintenanceProtocol] = None
        #: the shadow-oracle quality plane (:meth:`attach_quality`);
        #: strictly read-only — attaching it never perturbs the sim
        self.quality = None
        self._rng = np.random.default_rng(config.seed)
        self.last_update_report: Optional[UpdateRoundReport] = None
        # guest owner -> current attachment server id
        self._guest_attachment: Dict[str, int] = {}
        self._guest_owners: Dict[str, AttachedOwner] = {}

    # -- construction ------------------------------------------------------------
    @classmethod
    def build(
        cls,
        config: RoadsConfig,
        stores: Sequence[RecordStore],
        *,
        join_order: Optional[Sequence[int]] = None,
        guests: Sequence[GuestOwner] = (),
        refresh: bool = True,
        telemetry: Optional[Telemetry] = None,
    ) -> "RoadsSystem":
        """Build a federation of ``len(stores)`` nodes.

        Node ``i`` runs server ``i`` and owns ``stores[i]``, attached to its
        own server (raw records stay local; only summaries travel — the
        paper's evaluation setup). A custom *join_order* permutes the
        incremental joins (the first id becomes the root).

        *guests* are additional resource owners without servers: guest
        ``g`` occupies network node ``num_nodes + g`` and exports only a
        summary to its chosen attachment server.
        """
        n = len(stores)
        if n != config.num_nodes:
            raise ValueError(
                f"config.num_nodes={config.num_nodes} but {n} stores supplied"
            )
        seeds = SeedSequenceFactory(config.seed)
        sim = Simulator()
        delay_space = DelaySpace(n + len(guests), seeds.generator("delay-space"))
        if telemetry is not None:
            telemetry.bind_clock(lambda: sim.now)
            # Wall-clock profiling: the engine holds its own reference so
            # event dispatch stays a single attribute check when disabled.
            sim.profiler = telemetry.profiler
        network = Network(
            sim, delay_space,
            loss_rate=config.loss_rate,
            rng=(
                seeds.generator("net-loss") if config.loss_rate > 0 else None
            ),
            telemetry=telemetry,
        )
        order = list(join_order) if join_order is not None else list(range(n))
        if sorted(order) != list(range(n)):
            raise ValueError("join_order must be a permutation of node ids")
        servers = [
            Server(i, max_children=config.max_children) for i in order
        ]
        hierarchy = build_hierarchy(servers)
        for i in range(n):
            hierarchy.get(i).attach_owner(
                AttachedOwner(
                    owner_id=f"owner-{i}",
                    origin=stores[i],
                    controls_server=True,
                    node_id=i,
                )
            )
        guest_owners = []
        for g, guest in enumerate(guests):
            if not (0 <= guest.attach_to < n):
                raise ValueError(
                    f"guest {g} attach_to={guest.attach_to} is not a server id"
                )
            owner = AttachedOwner(
                owner_id=guest.owner_id or f"guest-{g}",
                origin=guest.store,
                controls_server=False,
                node_id=n + g,
            )
            hierarchy.get(guest.attach_to).attach_owner(owner)
            guest_owners.append((owner, guest.attach_to))
        overlay = ReplicationOverlay(hierarchy, config.summary)
        system = cls(
            config, sim, network, hierarchy, overlay, PolicyTable(),
            telemetry=telemetry,
        )
        system.update_plane = UpdatePlane(
            sim, network, hierarchy, overlay,
            interval=config.summary_interval,
            delta=config.delta_updates,
            rng=seeds.generator("update-plane"),
            telemetry=telemetry,
        )
        for owner, sid in guest_owners:
            system._guest_owners[owner.owner_id] = owner
            system._guest_attachment[owner.owner_id] = sid
        if refresh:
            system.refresh()
        return system

    # -- guest attachment maintenance ---------------------------------------------
    def reattach_orphaned_guests(self) -> int:
        """Re-home guests whose attachment point died.

        Attachment-point selection "follows a similar process as choosing
        a parent server" (Section III-A); we pick the alive server
        nearest to the guest's own node. Returns how many guests moved.
        Run :meth:`refresh` afterwards so the new summaries propagate.
        """
        moved = 0
        alive_ids = [s.server_id for s in self.hierarchy if s.alive]
        if not alive_ids:
            return 0
        for owner_id, sid in list(self._guest_attachment.items()):
            healthy = (
                sid in self.hierarchy
                and self.hierarchy.get(sid).alive
                and not self.network.is_failed(sid)
            )
            if healthy:
                continue
            owner = self._guest_owners[owner_id]
            # Detach from the dead server if the object still lists us.
            if sid in self.hierarchy:
                self.hierarchy.get(sid).detach_owner(owner_id)
            new_sid = self.network.delay_space.nearest(owner.node_id, alive_ids)
            self.hierarchy.get(new_sid).attach_owner(owner)
            self._guest_attachment[owner_id] = new_sid
            moved += 1
        return moved

    # -- policies ----------------------------------------------------------------
    def set_policy(self, owner_id: str, policy: SharingPolicy) -> None:
        self.policies.set(owner_id, policy)

    # -- updates ----------------------------------------------------------------
    def _plane(self) -> UpdatePlane:
        if self.update_plane is None:
            # Hand-assembled system (tests building the pieces directly):
            # attach a plane with the config's update parameters.
            self.update_plane = UpdatePlane(
                self.sim, self.network, self.hierarchy, self.overlay,
                interval=self.config.summary_interval,
                delta=self.config.delta_updates,
                telemetry=self.telemetry,
            )
        return self.update_plane

    def refresh(self) -> UpdateRoundReport:
        """One summary epoch, driven through the message fabric.

        :meth:`UpdatePlane.run_epoch` plus bookkeeping: triggers a
        coordinated epoch (guest exports, then bottom-up reports deepest
        level first, replica pushes alongside) and drains the simulator
        to quiescence, so callers see a completed epoch. The virtual
        clock advances by the epoch's real propagation time.
        """
        report = self._plane().run_epoch()
        self.last_update_report = report
        if self.telemetry is not None:
            self.telemetry.event(
                "update.epoch",
                aggregation_bytes=report.aggregation.total_bytes,
                replication_bytes=report.replication.replication_bytes,
            )
        return report

    def update_bytes_per_epoch(self) -> int:
        """Bytes one summary epoch costs (measured, not modelled).

        A pure measurement (:meth:`UpdatePlane.measure_epoch` is
        read-only): asking the question does not change what the next
        epoch sends.
        """
        return self._plane().measure_epoch().total_bytes

    def update_overhead(self, window_seconds: float) -> int:
        """Total update bytes over *window_seconds* of operation.

        Summaries refresh every ``summary_interval`` (t_s); one epoch's
        cost is measured and multiplied by the number of epochs.
        """
        return self.update_bytes_per_epoch() * epochs_in(
            window_seconds, self.config.summary_interval
        )

    # -- the serving plane -------------------------------------------------------
    def _resolve_entry(self, request: SearchRequest) -> tuple:
        """(client node, entry server) for one request.

        A missing client is drawn uniformly (the evaluation's default).
        With the replication overlay the search starts at the client's
        own node; without it every query must start at the root. A
        *scope* enters at the scope server; an explicit *start_server*
        forces the entry (consistency with *scope* was already checked
        by :class:`SearchRequest`).

        Raises :class:`ValueError` naming the field, before anything is
        sent, for a client that is not a node of the delay space or a
        *scope* / *start_server* that is not a member of the hierarchy.
        A client's own server that left is still its entry: that search
        finds its entry unreachable.
        """
        client = request.client_node
        if client is None:
            client = int(self._rng.integers(0, len(self.hierarchy)))
        elif not 0 <= client < self.network.delay_space.num_nodes:
            raise ValueError(
                f"client_node={client} is not a node of the delay space "
                f"(0..{self.network.delay_space.num_nodes - 1})"
            )
        name = "scope" if request.scope is not None else "start_server"
        start = getattr(request, name)
        if start is None:
            start = (
                client
                if request.use_overlay
                else self.hierarchy.root.server_id
            )
        elif start not in self.hierarchy:
            raise ValueError(f"{name}={start} is not a member of the hierarchy")
        return client, start

    def attach_quality(self, plane=None):
        """Arm the shadow-oracle quality plane on this system.

        Every completed search is then audited against ground truth
        recomputed from the authoritative leaf stores and the resulting
        :class:`~repro.telemetry.quality.QualityReport` rides on the
        :class:`SearchResult`. The audit only reads state, so the
        simulated behaviour stays byte-identical per seed.
        """
        if plane is None:
            from ..telemetry.quality import QualityPlane

            plane = QualityPlane(self)
        self.quality = plane
        return plane

    def _audit_quality(self, request, outcome):
        """Run the oracle audit (if armed) under its own profiler frame."""
        if self.quality is None:
            return None
        tel = self.telemetry
        prof = tel.profiler if tel is not None else None
        if prof is not None:
            prof.enter("quality.audit")
        try:
            return self.quality.audit(request, outcome)
        finally:
            if prof is not None:
                prof.exit()

    def search(
        self, request: SearchRequest, *, trace_parent=None
    ) -> SearchResult:
        """Run one request to completion; the canonical query entry point.

        :meth:`submit` plus driving the shared simulator until the query
        fully resolves (other in-flight activity — update plane,
        heartbeats — runs interleaved). For many concurrent queries use
        :meth:`submit` or :meth:`search_many` with arrival offsets.
        """
        tel = self.telemetry
        prof = tel.profiler if tel is not None else None
        # The query frame opens *around* the dispatch loop, so in the
        # call-path tree query-time decomposes into the labeled events
        # processed on this query's behalf.
        if prof is not None:
            prof.enter("query.execute")
        done: List[SearchResult] = []
        try:
            pending = self.submit(request, on_complete=done.append, trace_parent=trace_parent)
            # asked before every event: a list's ``__len__`` is a C call
            self.sim.run(stop=done.__len__)
        finally:
            if prof is not None:
                prof.exit()
        return pending.result

    def submit(
        self,
        request: SearchRequest,
        *,
        on_complete=None,
        trace_parent=None,
    ) -> PendingSearch:
        """Start a query **without** driving the simulator (non-blocking).

        The serving-plane primitive: the first contact goes out now, and
        the query resolves as the shared dispatcher is driven — by
        :meth:`search`, a surrounding :meth:`search_many`, a
        :class:`~repro.roads.load.LoadGenerator`, or a caller's own
        ``sim.run`` — interleaved with every other in-flight query, the
        free-running update plane and maintenance traffic.
        *on_complete* (if given) fires with the :class:`SearchResult`
        the moment the query fully resolves; that is where the result,
        the ``query.latency`` observation, the quality audit and the
        ``query.execute`` span are made, for every search.
        """
        client, start = self._resolve_entry(request)
        pending = PendingSearch(request=request)
        submitted = self.sim.now

        def finish(outcome: QueryOutcome) -> None:
            result = SearchResult(
                request=request,
                outcome=outcome,
                submitted_at=submitted,
                finished_at=self.sim.now,
                quality=self._audit_quality(request, outcome),
            )
            pending.result = result
            self.metrics.observe(
                "query.latency", outcome.latency, server=start
            )
            if self.telemetry is not None:
                self.telemetry.emit_span(
                    "query.execute", submitted, self.sim.now,
                    client=client, start=start,
                    overlay=request.use_overlay, scope=request.scope,
                    servers=outcome.servers_contacted,
                    matches=outcome.total_matches,
                    shed=len(outcome.shed_servers),
                )
            if on_complete is not None:
                on_complete(result)

        pending.execution = QueryExecution(
            self.sim, self.network, self.hierarchy, self.policies,
            request.query, client, start,
            collect_records=request.collect_records,
            retry=request.retry,
            first_k=request.first_k,
            telemetry=self.telemetry,
            on_complete=finish,
            trace_parent=trace_parent,
        ).start(mode=request.entry_mode)
        return pending

    def search_many(
        self,
        requests: Sequence[SearchRequest],
        *,
        arrivals: Optional[Sequence[float]] = None,
    ) -> List[SearchResult]:
        """Serve a batch of requests; results in request order.

        Without *arrivals*, requests run back-to-back (each drained to
        completion before the next starts). With
        *arrivals* — per-request submission offsets in seconds from now
        — all queries are multiplexed concurrently over the shared
        dispatcher and the simulator is driven until every one resolves.
        An offset that is negative or not finite rejects the whole call
        before any of it is scheduled.
        """
        requests = list(requests)
        if arrivals is None:
            return [self.search(r) for r in requests]
        offsets = [float(a) for a in arrivals]
        if len(offsets) != len(requests):
            raise ValueError(
                f"{len(requests)} requests but {len(offsets)} arrivals"
            )
        for i, at in enumerate(offsets):
            if not 0.0 <= at < np.inf:
                raise ValueError(f"arrivals[{i}] must be finite and >= 0, got {at}")
        results: List[Optional[SearchResult]] = [None] * len(requests)
        outstanding = len(requests)

        def landed(i: int, result: SearchResult) -> None:
            nonlocal outstanding
            results[i] = result
            outstanding -= 1

        def launch(i: int) -> None:
            self.submit(requests[i], on_complete=partial(landed, i))

        for i, at in enumerate(offsets):
            self.sim.schedule(at, partial(launch, i), "query.submit")
        # Each search reports its own completion: the loop pays nothing
        # per event for the searches still out, or for those already in.
        self.sim.run(stop=lambda: not outstanding)
        return results

    def widening(
        self, request: SearchRequest, *, min_matches: int = 1
    ) -> List[SearchResult]:
        """Scope-controlled search: own branch first, then each ancestor.

        Every scope reuses the request's client (one user widening one
        search, Section III-C). Returns the results of every scope
        tried, stopping at the first with at least *min_matches* matches
        (the last result is the successful one, or the widest scope if
        none sufficed).
        """
        from ..overlay.routing import scope_candidates

        if request.client_node is None:
            raise ValueError(
                "widening requires an explicit client_node: every scope "
                "of one widening search is issued by the same client"
            )
        start = self.hierarchy.get(request.client_node)
        scopes = [request.client_node] + scope_candidates(start)
        # One umbrella context for the whole widening search: every
        # scope's ``search`` root forks from it, so all rounds (and their
        # retries and rejects) reconstruct as a single causal tree.
        tel = self.telemetry
        umbrella = tel.new_trace() if tel is not None else None
        started_at = self.sim.now
        results: List[SearchResult] = []
        for scope in scopes:
            results.append(
                self.search(
                    replace(request, scope=scope, start_server=None),
                    trace_parent=umbrella,
                )
            )
            if results[-1].outcome.total_matches >= min_matches:
                break
        if tel is not None and umbrella is not None:
            tel.emit_span(
                "search.widening", started_at, self.sim.now,
                client=request.client_node, scopes=len(results),
                matches=results[-1].outcome.total_matches,
                **umbrella.tags(),
            )
        return results

    def enable_service(
        self,
        config: ServiceConfig,
        *,
        nodes: Optional[Sequence[int]] = None,
    ) -> None:
        """Install the server-side service model on every server.

        Gives each server (or just *nodes*) a single-server bounded
        queue per :class:`~repro.net.transport.ServiceConfig`, so
        offered load turns into queueing delay and shed messages — the
        contention the root-bottleneck experiments measure.
        """
        ids = (
            list(nodes)
            if nodes is not None
            else [s.server_id for s in self.hierarchy]
        )
        for sid in ids:
            self.network.set_service(sid, config)

    # -- maintenance ----------------------------------------------------------------
    def enable_maintenance(
        self, config: MaintenanceConfig = MaintenanceConfig()
    ) -> MaintenanceProtocol:
        if self.maintenance is None:
            self.maintenance = MaintenanceProtocol(
                self.sim, self.network, self.hierarchy, config,
                telemetry=self.telemetry,
                update_plane=self._plane(),
            )
        return self.maintenance

    # -- storage accounting ----------------------------------------------------------
    def storage_bytes_by_server(self) -> Dict[int, int]:
        """Summary bytes held per server (Table I's ROADS column).

        Excludes raw records owners keep on servers they control — those
        never left the owner; Table I compares *exported/replicated* state.
        """
        out: Dict[int, int] = {}
        for server in self.hierarchy:
            total = 0
            for o in server.owners:
                if not o.controls_server and o.summary is not None:
                    total += o.summary.encoded_size()
            for s in server.child_summaries.values():
                total += s.encoded_size()
            for s in server.replicated_summaries.values():
                total += s.encoded_size()
            for s in server.replicated_local_summaries.values():
                total += s.encoded_size()
            out[server.server_id] = total
        return out

    @property
    def levels(self) -> int:
        return self.hierarchy.levels
