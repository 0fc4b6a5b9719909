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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

from ..net.transport import Message, Network
from ..query.query import Query
from ..records.store import RecordStore
from ..sim.engine import Event, Simulator
from ..sim.metrics import QUERY
from ..summaries.config import SummaryConfig
from ..telemetry.core import Telemetry
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

if TYPE_CHECKING:  # search.py imports QueryOutcome from this module
    from .search import RetryPolicy

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
    #: how the search reached each server it was redirected to:
    #: ``server id -> (id of the server whose redirect was followed,
    #: "descent" | "local")``; the entry server has no route
    routes: Dict[int, Tuple[int, str]] = field(default_factory=dict)
    #: causal trace this execution recorded under (0 = untraced)
    trace_id: int = 0
    #: span id of this execution's ``search`` root span (0 = untraced);
    #: widening searches share one trace_id across scopes, so tests and
    #: the CLI locate each round's subtree through this id
    root_span_id: int = 0

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
        return RecordStore.concat(stores) if stores else None


class _Contact:
    """One client contact with one node: its attempts, timer and outcome.

    The record's bound methods are the network and timer callbacks, so a
    contact allocates no closures. It refers to its execution; only
    in-flight messages and its own pending timer refer to it, and it
    lets go of that timer whenever the timer is spent, so the record is
    freed by reference count. *owner* is ``None`` for a server contact;
    for the hop to a guest owner's own node it is that owner.
    """

    __slots__ = (
        "ex", "node", "mode", "owner", "ctx",
        "replied", "attempts", "first_at", "timer",
    )

    def __init__(
        self, ex: "QueryExecution", node: int, mode: str,
        owner: Optional[AttachedOwner], ctx: Optional[TraceContext],
    ):
        self.ex = ex
        self.node = node
        self.mode = mode
        self.owner = owner
        #: spans every attempt at this node
        self.ctx = ctx
        self.replied = False
        self.attempts = 0
        self.first_at: Optional[float] = None
        self.timer: Optional[Event] = None

    def _subject(self) -> str:
        kind = "server" if self.owner is None else "owner node"
        return f"{kind} {self.node}"

    def attempt(self) -> None:
        ex = self.ex
        self.attempts += 1
        if self.first_at is None:
            self.first_at = ex.sim.now
        msg_ctx = ex._fork(self.ctx)
        if ex._observed:
            ex._trace(
                "send", self._subject(),
                f"mode={self.mode} try={self.attempts}",
            )
        size = ex.query.size_bytes
        ex.outcome.query_bytes += size
        ex.outcome.query_messages += 1
        ex.network.send(
            ex.client_node,
            self.node,
            QUERY,
            size,
            payload=ex.query,
            on_delivery=self.arrived,
            phase="forward",
            kind="query",
            on_rejected=self.rejected,
            trace=msg_ctx,
        )
        self.timer = ex.sim.schedule(
            ex.retry.timeout, self.expire, "query.timeout"
        )

    def retry(self) -> None:
        """Backoff elapsed; re-attempt unless a late reply got in first."""
        if not self.replied:
            self.attempt()

    def _disarm(self) -> None:
        # Don't let dead timers drag the clock forward.
        if self.timer is not None:
            self.timer.cancel()
            self.timer = None

    def expire(self) -> None:
        # A fired event keeps its callback, a bound method of this
        # record: let go of it (unless a later attempt already re-armed).
        timer = self.timer
        if timer is not None and timer.fired:
            self.timer = None
        if not self.replied:
            self._retry_or_give_up("timeout")

    def rejected(self, msg: Message) -> None:
        # The node load-shed this attempt and said so: back off and
        # retry (the timeout timer for the dead attempt is cancelled).
        if self.replied:
            return
        ex = self.ex
        ex.outcome.rejections += 1
        self._disarm()
        # The reject notice parents to the shed attempt's message
        # context, so the tree shows which attempt bounced.
        ex._trace("rejected", self._subject(), ctx=ex._fork(msg.trace))
        self._retry_or_give_up("shed")

    def _retry_or_give_up(self, terminal: str) -> None:
        ex = self.ex
        if self.attempts <= ex.retry.retries:
            ex._trace("retry", self._subject(), ctx=ex._fork(self.ctx))
            delay = ex.retry.delay_before_attempt(self.attempts + 1)
            if delay > 0:
                ex.sim.schedule(delay, self.retry, "query.retry")
            else:
                self.attempt()
            return
        self.replied = True
        if terminal == "shed":
            ex.outcome.shed_servers.add(self.node)
        else:
            ex.outcome.timed_out_servers.add(self.node)
        ex._trace(terminal, self._subject(), ctx=ex._fork(self.ctx))
        self._close(terminal)
        ex._finish_one()

    def arrived(self, msg: Message) -> None:
        """The query reached the node: answer it and respond."""
        ex = self.ex
        node = self.node
        owner = self.owner
        if owner is None:
            server = ex._get_server(node)
            if server is None:
                return  # silent; the client-side timeout reclaims the slot
        dctx = ex.network.delivery_trace
        first_arrival = node not in ex.outcome.arrivals
        if first_arrival:
            ex.outcome.arrivals[node] = ex.sim.now
        if ex._observed:
            # Only the first arrival is a causal-tree leaf; a duplicate
            # delivery (retry after a lost response) must not mint a
            # later ``query.arrive`` or the critical path would
            # overshoot the reported latency.
            ex._trace(
                "arrive", self._subject(),
                ctx=ex._fork(dctx) if first_arrival else None,
            )
        if owner is None:
            decision = ex._decide(server, self.mode, dctx)
            size, kind = decision.response_size_bytes, "query-response"
        else:
            ex._record_owner_answer(owner, node, ex.sim.now, dctx)
            decision, size, kind = None, _ACK_BYTES, "query-ack"
        ex.outcome.query_bytes += size
        ex.outcome.query_messages += 1
        ex.network.send(
            node,
            ex.client_node,
            QUERY,
            size,
            payload=decision,
            on_delivery=self.answered,
            phase="response",
            kind=kind,
            trace=ex._fork(dctx),
        )

    def answered(self, msg: Message) -> None:
        """The node's response (redirects, or an owner's ack) came back."""
        # A duplicate (slow first response racing a retry's) must not
        # double-close the contact slot.
        if self.replied:
            return
        self.replied = True
        self._disarm()
        ex = self.ex
        # Context of the response delivery: redirected contacts fork from
        # it, so the tree shows match -> response transit -> new contact.
        dctx = ex.network.delivery_trace
        self._close()
        if self.owner is None:
            ex._follow(msg.payload, dctx)
        ex._finish_one()

    def _close(self, terminal: str = "") -> None:
        """Emit the ``query.contact`` span covering every attempt."""
        tel = self.ex._telemetry
        if tel is None or self.ctx is None:
            return
        tags = self.ctx.tags()
        tags.update(server=self.node, mode=self.mode)
        if self.owner is not None:
            tags["owner"] = self.owner.owner_id
        tags["attempts"] = self.attempts
        if terminal:
            tags["terminal"] = terminal
        tel.emit_span("query.contact", self.first_at, self.ex.sim.now, **tags)


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
        retry: RetryPolicy,
        collect_records: bool = False,
        first_k: Optional[int] = None,
        telemetry: Optional[Telemetry] = None,
        on_complete: Optional[Callable[[QueryOutcome], None]] = None,
        trace_parent: Optional[TraceContext] = None,
    ):
        self.sim = sim
        self.network = network
        self.hierarchy = hierarchy
        self.summary_config = summary_config
        self.policies = policies
        self.query = query
        self.client_node = client_node
        self.collect_records = collect_records
        #: the request's patience: per-contact timeout, how many times a
        #: timed-out or shed contact is re-sent, and the backoff schedule
        #: (:meth:`RetryPolicy.delay_before_attempt`) between re-sends
        self.retry = retry
        #: invoked exactly once, with the outcome, when the query has
        #: fully resolved — the serving plane's completion hook
        self.on_complete = on_complete
        #: stop issuing new contacts once this many matches are in hand
        #: (best-effort early termination; in-flight contacts complete)
        self.first_k = first_k
        self._telemetry = telemetry
        #: whether anything records ``_trace`` calls; the per-message
        #: call sites skip formatting their arguments when nothing does
        self._observed = telemetry is not None
        #: causal parent the root context forks from (a widening search
        #: passes its umbrella context so all rounds share one trace)
        self._trace_parent = trace_parent
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
        if self._telemetry is not None:
            self._telemetry.event(
                f"query.{event}", subject=str(subject), detail=str(detail),
                **(ctx.tags() if ctx is not None else {}),
            )

    def _fork(self, ctx: Optional[TraceContext]) -> Optional[TraceContext]:
        tel = self._telemetry
        return tel.fork(ctx) if tel is not None else None

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
        self._contact(self.outcome.start_server, mode, self._root_ctx)
        return self

    @property
    def done(self) -> bool:
        """Whether the query has fully resolved (fan-out and timeouts)."""
        return self._done

    # -- internals ----------------------------------------------------------------
    def _contact(
        self,
        node: int,
        mode: str,
        parent_ctx: Optional[TraceContext],
        owner: Optional[AttachedOwner] = None,
        via: Optional[int] = None,
    ) -> None:
        """Open the one contact this query makes with *node*.

        Server and guest-owner contacts ride the same retry policy: each
        attempt arms a timeout, a lost query or lost response triggers
        backoff and re-send, and after ``retries`` re-attempts the
        client gives up and reports the node in ``timed_out_servers`` /
        ``shed_servers`` — a silent node cannot strand the search.
        *via* is the server whose redirect led here; the contact's route
        is recorded on the outcome.
        """
        if node in self._contacted:
            return
        self._contacted.add(node)
        if via is not None:
            self.outcome.routes[node] = (via, mode)
        self._outstanding += 1
        _Contact(self, node, mode, owner, self._fork(parent_ctx)).attempt()

    def _get_server(self, server_id: int) -> Optional[Server]:
        try:
            server = self.hierarchy.get(server_id)
        except KeyError:
            return None
        return server if server.alive else None

    def _decide(
        self, server: Server, mode: str, dctx: Optional[TraceContext]
    ) -> RoutingDecision:
        """*server* evaluates the query: where next, and which of its
        owners may hold matches (answered or contacted on the spot)."""
        # Looked up by name on every call: the routing functions are
        # rebound by outside-in tracers.
        if mode == "start":
            decide = decide_start
        elif mode == "descent":
            decide = decide_descent
        else:
            decide = decide_local
        decision = decide(server, self.query, self.summary_config, self.sim.now)
        tel = self._telemetry
        if tel is not None:
            mctx = self._fork(dctx)
            tel.event(
                "server.match", server=server.server_id, mode=mode,
                redirects=len(decision.redirect_ids),
                owner_hits=len(decision.owner_hits),
                owners_only=len(decision.owners_only_ids),
                **(mctx.tags() if mctx is not None else {}),
            )
        for owner in decision.owner_hits:
            self._evaluate_owner(owner, server.server_id, dctx)
        return decision

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
            self._contact(owner.node_id, "owner", ctx, owner)
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
        hit = OwnerHit(
            owner_id=owner.owner_id,
            server_id=at_node,
            arrival_time=arrival,
            match_count=len(answered),
            records=answered if self.collect_records else None,
        )
        self.outcome.owner_hits.append(hit)
        if self._observed:
            self._trace(
                "owner", owner.owner_id, f"matches={hit.match_count}",
                ctx=self._fork(ctx),
            )

    def _follow(
        self, decision: RoutingDecision, dctx: Optional[TraceContext]
    ) -> None:
        """Contact the servers a response redirected the client to."""
        if not (decision.redirect_ids or decision.owners_only_ids):
            return
        if self._satisfied():
            self._trace("satisfied", f"server {decision.server_id}",
                        f"skipping {len(decision.redirect_ids)} redirects",
                        ctx=self._fork(dctx))
            return
        if self._observed:
            self._trace(
                "redirect",
                f"server {decision.server_id}",
                f"-> {decision.redirect_ids + decision.owners_only_ids}",
                ctx=self._fork(dctx),
            )
        parent = dctx if dctx is not None else self._root_ctx
        via = decision.server_id
        for rid in decision.redirect_ids:
            self._contact(rid, "descent", parent, via=via)
        for rid in decision.owners_only_ids:
            self._contact(rid, "local", parent, via=via)

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
            # Fires once, then is let go: the serving plane's hook closes
            # over a handle that refers back to this execution.
            on_complete, self.on_complete = self.on_complete, None
            if on_complete is not None:
                on_complete(self.outcome)
