"""Client-driven query execution over the simulated network.

The search protocol (Sections III-A and III-C) is client-driven: the
client sends the query to a start server; the server evaluates it against
all summaries it holds and *redirects* the client; the client then queries
the redirected servers, which redirect it further down their branches,
until the query has reached every server whose summaries match.

Latency is measured exactly as in the paper: from query initiation until
the query reaches the **last server it needs to contact** (record
retrieval time is excluded here; the prototype benchmark adds it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ..net.transport import Message, Network
from ..query.query import Query
from ..records.store import RecordStore
from ..sim.engine import Simulator
from ..sim.metrics import QUERY
from ..summaries.config import SummaryConfig
from ..telemetry.core import Telemetry
from ..telemetry.events import TraceEvent
from ..telemetry.tracing import TraceContext
from ..hierarchy.join import Hierarchy
from ..hierarchy.node import AttachedOwner, Server
from ..overlay.routing import (
    RoutingDecision,
    decide_descent,
    decide_local,
    decide_start,
)
from .policy import PolicyTable

#: acknowledgement size when an owner returns only a match count
_ACK_BYTES = 16


@dataclass
class OwnerHit:
    """A resource owner whose data matched (per its summaries) a query."""

    owner_id: str
    server_id: int
    arrival_time: float
    match_count: int
    records: Optional[RecordStore] = None
    false_positive: bool = False


@dataclass
class QueryOutcome:
    """Everything measured about one query execution."""

    query: Query
    start_server: int
    client_node: int
    started_at: float = 0.0
    #: per-server time the query message arrived
    arrivals: Dict[int, float] = field(default_factory=dict)
    owner_hits: List[OwnerHit] = field(default_factory=list)
    query_bytes: int = 0
    query_messages: int = 0
    completed: bool = False
    timed_out_servers: Set[int] = field(default_factory=set)
    #: servers that load-shed every attempt (client gave up after retries)
    shed_servers: Set[int] = field(default_factory=set)
    #: individual contact attempts rejected by a saturated server
    rejections: int = 0
    #: optional structured event log (:class:`TraceEvent` entries)
    trace_events: List[TraceEvent] = field(default_factory=list)
    #: causal trace this execution recorded under (0 = untraced)
    trace_id: int = 0
    #: span id of this execution's ``search`` root span (0 = untraced);
    #: widening searches share one trace_id across scopes, so tests and
    #: the CLI locate each round's subtree through this id
    root_span_id: int = 0

    def format_trace(self) -> str:
        """Human-readable rendering of the event trace."""
        lines = []
        for t, event, subject, detail in self.trace_events:
            rel = (t - self.started_at) * 1000
            lines.append(f"{rel:8.1f} ms  {event:<9} {subject} {detail}")
        return "\n".join(lines)

    @property
    def latency(self) -> float:
        """Seconds until the query reached the last contacted server."""
        if not self.arrivals:
            return 0.0
        return max(self.arrivals.values()) - self.started_at

    @property
    def servers_contacted(self) -> int:
        return len(self.arrivals)

    @property
    def total_matches(self) -> int:
        return sum(h.match_count for h in self.owner_hits)

    def matched_records(self) -> Optional[RecordStore]:
        """Union of returned record stores (when records were collected)."""
        stores = [h.records for h in self.owner_hits if h.records is not None]
        if not stores:
            return None
        out = stores[0]
        for s in stores[1:]:
            out = out.merged_with(s)
        return out


class QueryExecution:
    """One client's interaction for one query."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        hierarchy: Hierarchy,
        summary_config: SummaryConfig,
        policies: PolicyTable,
        query: Query,
        client_node: int,
        start_server_id: int,
        *,
        collect_records: bool = False,
        timeout: float = 5.0,
        retries: int = 1,
        backoff_base: float = 0.0,
        backoff_factor: float = 2.0,
        first_k: Optional[int] = None,
        trace: bool = False,
        telemetry: Optional[Telemetry] = None,
        on_complete: Optional[Callable[[QueryOutcome], None]] = None,
        trace_parent: Optional[TraceContext] = None,
        quality=None,
    ):
        self.sim = sim
        self.network = network
        self.hierarchy = hierarchy
        self.summary_config = summary_config
        self.policies = policies
        self.query = query
        self.client_node = client_node
        self.collect_records = collect_records
        self.timeout = timeout
        #: how many times a timed-out contact is retried before the
        #: client gives up on that server (lossy networks lose single
        #: messages far more often than whole servers)
        self.retries = retries
        #: wait before the first re-attempt; each further re-attempt
        #: multiplies it by ``backoff_factor``. Zero (the default)
        #: retries immediately — the historical behaviour.
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        #: invoked exactly once, with the outcome, when the query has
        #: fully resolved — the serving plane's completion hook
        self.on_complete = on_complete
        #: stop issuing new contacts once this many matches are in hand
        #: (best-effort early termination; in-flight contacts complete)
        self.first_k = first_k
        self._tracing = trace
        self._telemetry = telemetry
        #: causal parent the root context forks from (a widening search
        #: passes its umbrella context so all rounds share one trace)
        self._trace_parent = trace_parent
        #: the system's shadow-oracle quality plane, when attached; used
        #: only for the ground-truthed owner false-positive verdict
        self._quality = quality
        self._root_ctx: Optional[TraceContext] = None
        self.outcome = QueryOutcome(
            query=query, start_server=start_server_id, client_node=client_node
        )
        self._outstanding = 0
        self._contacted: Set[int] = set()
        self._answered_owners: Set[str] = set()
        self._done = False

    def _trace(
        self, event: str, subject, detail="",
        ctx: Optional[TraceContext] = None,
    ) -> None:
        if self._tracing:
            self.outcome.trace_events.append(
                TraceEvent(self.sim.now, event, str(subject), str(detail))
            )
        if self._telemetry is not None:
            self._telemetry.event(
                f"query.{event}", subject=str(subject), detail=str(detail),
                **(ctx.tags() if ctx is not None else {}),
            )

    def _fork(
        self, ctx: Optional[TraceContext], **baggage
    ) -> Optional[TraceContext]:
        tel = self._telemetry
        if tel is None:
            return None
        return tel.fork(ctx, **baggage)

    # -- driving ----------------------------------------------------------------
    #: entry modes for the first contacted server: ``"start"`` fans out
    #: over everything the server's summaries cover (hierarchy + overlay
    #: replicas); ``"descent"`` stays within its branch (scoped search /
    #: no-overlay root entry); ``"local"`` asks only its attached owners.
    ENTRY_MODES = ("start", "descent", "local")

    def start(self, *, mode: str = "start") -> "QueryExecution":
        """Issue the first contact; the simulator drives the rest."""
        if mode not in self.ENTRY_MODES:
            raise ValueError(
                f"mode must be one of {self.ENTRY_MODES}, got {mode!r}"
            )
        self.outcome.started_at = self.sim.now
        tel = self._telemetry
        if tel is not None:
            if self._trace_parent is not None:
                self._root_ctx = tel.fork(self._trace_parent)
            else:
                self._root_ctx = tel.new_trace()
        if self._root_ctx is not None:
            self.outcome.trace_id = self._root_ctx.trace_id
            self.outcome.root_span_id = self._root_ctx.span_id
        self._contact(self.outcome.start_server, mode=mode)
        return self

    @property
    def done(self) -> bool:
        """Whether the query has fully resolved (fan-out and timeouts)."""
        return self._done

    def run(self, *, mode: str = "start") -> QueryOutcome:
        """Start and run the simulator until this query completes."""
        self.start(mode=mode)
        # Events from other activity may interleave; loop until done.
        while not self._done and self.sim.step():
            pass
        return self.outcome

    # -- internals ----------------------------------------------------------------
    def _account(self, size_bytes: int) -> None:
        self.outcome.query_bytes += size_bytes
        self.outcome.query_messages += 1

    def _retry_delay(self, next_attempt: int) -> float:
        """Exponential backoff before re-attempt *next_attempt* (>= 2)."""
        if next_attempt <= 1 or self.backoff_base <= 0:
            return 0.0
        return self.backoff_base * self.backoff_factor ** (next_attempt - 2)

    def _contact(
        self,
        server_id: int,
        *,
        mode: str,
        parent_ctx: Optional[TraceContext] = None,
    ) -> None:
        if server_id in self._contacted:
            return
        self._contacted.add(server_id)
        self._outstanding += 1
        # The contact context spans every attempt at this server; the
        # first contact forks from the search root, a redirected contact
        # from the delivery of the response that named this server.
        ctx = self._fork(
            parent_ctx if parent_ctx is not None else self._root_ctx
        )
        state = {"replied": False, "attempts": 0, "first_at": None}

        def close_contact(terminal: str = "") -> None:
            tel = self._telemetry
            if tel is not None and ctx is not None:
                tags = ctx.tags()
                tags.update(
                    server=server_id, mode=mode, attempts=state["attempts"]
                )
                if terminal:
                    tags["terminal"] = terminal
                tel.emit_span(
                    "query.contact", state["first_at"], self.sim.now, **tags
                )

        def attempt() -> None:
            state["attempts"] += 1
            if state["first_at"] is None:
                state["first_at"] = self.sim.now
            msg_ctx = self._fork(ctx)
            self._trace(
                "send",
                f"server {server_id}",
                f"mode={mode} try={state['attempts']}",
            )
            self._account(self.query.size_bytes)
            self.network.send(
                self.client_node,
                server_id,
                QUERY,
                self.query.size_bytes,
                payload=self.query,
                on_delivery=lambda msg: self._at_server(server_id, mode, state),
                phase="forward",
                kind="query",
                on_rejected=rejected,
                trace=msg_ctx,
            )
            state["timeout_event"] = self.sim.schedule(
                self.timeout, expire, "query.timeout"
            )

        def retry_or_give_up(terminal: str) -> None:
            if state["attempts"] <= self.retries:
                self._trace("retry", f"server {server_id}", ctx=self._fork(ctx))
                delay = self._retry_delay(state["attempts"] + 1)
                if delay > 0:
                    self.sim.schedule(delay, lambda: (
                        attempt() if not state["replied"] else None
                    ), "query.retry")
                else:
                    attempt()
                return
            state["replied"] = True
            if terminal == "shed":
                self.outcome.shed_servers.add(server_id)
            else:
                self.outcome.timed_out_servers.add(server_id)
            self._trace(terminal, f"server {server_id}", ctx=self._fork(ctx))
            close_contact(terminal)
            self._finish_one()

        def expire() -> None:
            if state["replied"]:
                return
            retry_or_give_up("timeout")

        def rejected(msg: Message) -> None:
            # The server load-shed this attempt and said so: back off and
            # retry (the timeout timer for the dead attempt is cancelled).
            if state["replied"]:
                return
            self.outcome.rejections += 1
            ev = state.get("timeout_event")
            if ev is not None:
                ev.cancel()
            # The reject notice parents to the shed attempt's message
            # context, so the tree shows which attempt bounced.
            self._trace(
                "rejected", f"server {server_id}", ctx=self._fork(msg.trace)
            )
            retry_or_give_up("shed")

        state["close_contact"] = close_contact
        attempt()

    def _get_server(self, server_id: int) -> Optional[Server]:
        try:
            server = self.hierarchy.get(server_id)
        except KeyError:
            return None
        return server if server.alive else None

    def _at_server(self, server_id: int, mode: str, state: Dict) -> None:
        server = self._get_server(server_id)
        if server is None:
            return  # silent; the client-side timeout reclaims the slot
        dctx = self.network.delivery_trace
        first_arrival = server_id not in self.outcome.arrivals
        self.outcome.arrivals.setdefault(server_id, self.sim.now)
        # Only the first arrival is a causal-tree leaf; a duplicate
        # delivery (retry after a lost response) must not mint a later
        # ``query.arrive`` or the critical path would overshoot the
        # reported latency.
        self._trace(
            "arrive", f"server {server_id}",
            ctx=self._fork(dctx) if first_arrival else None,
        )
        decide = {
            "start": decide_start,
            "descent": decide_descent,
            "local": decide_local,
        }[mode]
        decision = decide(server, self.query, self.summary_config, self.sim.now)
        tel = self._telemetry
        if tel is not None:
            mctx = self._fork(dctx)
            tel.event(
                "server.match", server=server_id, mode=mode,
                redirects=len(decision.redirect_ids),
                owner_hits=len(decision.owner_hits),
                owners_only=len(decision.owners_only_ids),
                **(mctx.tags() if mctx is not None else {}),
            )
        for owner in decision.owner_hits:
            self._evaluate_owner(owner, server_id, dctx)
        self._account(decision.response_size_bytes)
        self.network.send(
            server_id,
            self.client_node,
            QUERY,
            decision.response_size_bytes,
            payload=decision,
            on_delivery=lambda msg: self._on_redirects(decision, state),
            phase="response",
            kind="query-response",
            trace=self._fork(dctx),
        )

    def _evaluate_owner(
        self,
        owner: AttachedOwner,
        server_id: int,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """The query may have matching data at *owner*.

        Owners co-located with their attachment point (they control the
        server, or no separate node is declared) answer on the spot; a
        guest owner only exported a summary, so the client must send the
        query one hop further to the owner's own node.
        """
        remote = (
            not owner.controls_server
            and owner.node_id is not None
            and owner.node_id != server_id
        )
        if remote:
            self._contact_owner_node(owner, ctx)
            return
        self._record_owner_answer(owner, server_id, self.sim.now, ctx)

    def _record_owner_answer(
        self,
        owner: AttachedOwner,
        at_node: int,
        arrival: float,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        """Apply the owner's local policy and record the hit.

        Idempotent per owner: a retried contact (lost response) must not
        double-count the owner's records.
        """
        if owner.owner_id in self._answered_owners:
            return
        self._answered_owners.add(owner.owner_id)
        answered = self.policies.answer(owner.owner_id, self.query, owner.origin)
        # With the quality plane attached the flag is the oracle verdict:
        # an empty answer is only a false positive when the raw store
        # holds no matching record either (the *summary* lied) — a
        # policy-filtered empty answer was still a justified visit.
        # Detached, the legacy empty-answer semantics are preserved.
        false_positive = (
            self._quality.owner_false_positive(self.query, owner, len(answered))
            if self._quality is not None
            else (len(answered) == 0)
        )
        hit = OwnerHit(
            owner_id=owner.owner_id,
            server_id=at_node,
            arrival_time=arrival,
            match_count=len(answered),
            records=answered if self.collect_records else None,
            false_positive=false_positive,
        )
        self.outcome.owner_hits.append(hit)
        self._trace(
            "owner", owner.owner_id, f"matches={hit.match_count}",
            ctx=self._fork(ctx),
        )

    def _contact_owner_node(
        self,
        owner: AttachedOwner,
        parent_ctx: Optional[TraceContext] = None,
    ) -> None:
        """Forward the query to a guest owner's own node.

        The owner hop rides the same retry policy as server contacts:
        each attempt arms a timeout, a lost query or lost ack triggers
        backoff and re-send, and after ``retries`` re-attempts the
        client gives up and reports the node in ``timed_out_servers`` —
        so a lossy network can no longer strand the whole search on one
        silent guest-owner leg.
        """
        node = owner.node_id
        assert node is not None
        if node in self._contacted:
            return
        self._contacted.add(node)
        self._outstanding += 1
        ctx = self._fork(parent_ctx)
        state = {"replied": False, "attempts": 0, "first_at": None}

        def close_contact(terminal: str = "") -> None:
            tel = self._telemetry
            if tel is not None and ctx is not None:
                tags = ctx.tags()
                tags.update(
                    server=node, mode="owner", owner=owner.owner_id,
                    attempts=state["attempts"],
                )
                if terminal:
                    tags["terminal"] = terminal
                tel.emit_span(
                    "query.contact", state["first_at"], self.sim.now, **tags
                )

        def ack_delivered() -> None:
            # A duplicate ack (slow first ack racing a retry's) must not
            # double-close the contact slot.
            if state["replied"]:
                return
            state["replied"] = True
            ev = state.get("timeout_event")
            if ev is not None:
                ev.cancel()
            close_contact()
            self._finish_one()

        def at_owner(msg: Message) -> None:
            dctx = self.network.delivery_trace
            first_arrival = node not in self.outcome.arrivals
            self.outcome.arrivals.setdefault(node, self.sim.now)
            tel = self._telemetry
            if first_arrival and tel is not None:
                actx = self._fork(dctx)
                tel.event(
                    "query.arrive", subject=f"owner node {node}", detail="",
                    **(actx.tags() if actx is not None else {}),
                )
            self._record_owner_answer(owner, node, self.sim.now, dctx)
            self._account(_ACK_BYTES)
            self.network.send(
                node,
                self.client_node,
                QUERY,
                _ACK_BYTES,
                on_delivery=lambda _msg: ack_delivered(),
                phase="response",
                kind="query-ack",
                trace=self._fork(dctx),
            )

        def attempt() -> None:
            state["attempts"] += 1
            if state["first_at"] is None:
                state["first_at"] = self.sim.now
            msg_ctx = self._fork(ctx)
            self._trace(
                "send",
                f"owner node {node}",
                f"mode=owner try={state['attempts']}",
            )
            self._account(self.query.size_bytes)
            self.network.send(
                self.client_node,
                node,
                QUERY,
                self.query.size_bytes,
                payload=self.query,
                on_delivery=at_owner,
                phase="forward",
                kind="query",
                on_rejected=rejected,
                trace=msg_ctx,
            )
            state["timeout_event"] = self.sim.schedule(
                self.timeout, expire, "query.timeout"
            )

        def retry_or_give_up(terminal: str) -> None:
            if state["attempts"] <= self.retries:
                self._trace(
                    "retry", f"owner node {node}", ctx=self._fork(ctx)
                )
                delay = self._retry_delay(state["attempts"] + 1)
                if delay > 0:
                    self.sim.schedule(delay, lambda: (
                        attempt() if not state["replied"] else None
                    ), "query.retry")
                else:
                    attempt()
                return
            state["replied"] = True
            if terminal == "shed":
                self.outcome.shed_servers.add(node)
            else:
                self.outcome.timed_out_servers.add(node)
            self._trace(terminal, f"owner node {node}", ctx=self._fork(ctx))
            close_contact(terminal)
            self._finish_one()

        def expire() -> None:
            if state["replied"]:
                return
            retry_or_give_up("timeout")

        def rejected(msg: Message) -> None:
            if state["replied"]:
                return
            self.outcome.rejections += 1
            ev = state.get("timeout_event")
            if ev is not None:
                ev.cancel()
            self._trace(
                "rejected", f"owner node {node}", ctx=self._fork(msg.trace)
            )
            retry_or_give_up("shed")

        attempt()

    def _on_redirects(self, decision: RoutingDecision, state: Dict) -> None:
        if state["replied"]:
            return
        state["replied"] = True
        ev = state.get("timeout_event")
        if ev is not None:
            ev.cancel()  # don't let dead timers drag the clock forward
        # Context of the response delivery: redirected contacts fork from
        # it, so the tree shows match -> response transit -> new contact.
        dctx = self.network.delivery_trace
        close_contact = state.get("close_contact")
        if close_contact is not None:
            close_contact()
        if not self._satisfied():
            if decision.redirect_ids or decision.owners_only_ids:
                self._trace(
                    "redirect",
                    f"server {decision.server_id}",
                    f"-> {decision.redirect_ids + decision.owners_only_ids}",
                    ctx=self._fork(dctx),
                )
            for rid in decision.redirect_ids:
                self._contact(rid, mode="descent", parent_ctx=dctx)
            for rid in decision.owners_only_ids:
                self._contact(rid, mode="local", parent_ctx=dctx)
        elif decision.redirect_ids or decision.owners_only_ids:
            self._trace("satisfied", f"server {decision.server_id}",
                        f"skipping {len(decision.redirect_ids)} redirects",
                        ctx=self._fork(dctx))
        self._finish_one()

    def _satisfied(self) -> bool:
        return (
            self.first_k is not None
            and self.outcome.total_matches >= self.first_k
        )

    def _finish_one(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0 and not self._done:
            self._done = True
            # Completed means the fan-out fully resolved; timed-out and
            # shed servers are reported separately on the outcome.
            self.outcome.completed = True
            tel = self._telemetry
            if tel is not None and self._root_ctx is not None:
                # The root span of this search's causal tree: it opens at
                # query initiation, so the critical path from the last
                # ``query.arrive`` telescopes to the reported latency.
                tel.emit_span(
                    "search", self.outcome.started_at, self.sim.now,
                    client=self.client_node,
                    start_server=self.outcome.start_server,
                    servers=len(self.outcome.arrivals),
                    **self._root_ctx.tags(),
                )
            if self.on_complete is not None:
                self.on_complete(self.outcome)
