"""Message transport over the simulated network.

The :class:`Network` binds a :class:`~repro.sim.engine.Simulator`, a
:class:`~repro.net.coordinates.DelaySpace` and a
:class:`~repro.telemetry.metrics.MetricsRegistry`. A message arrives
after the pairwise one-way delay; failed nodes silently drop inbound
messages (the sender learns of failures only via missing heartbeats, as
in the paper's maintenance protocol).

Every message takes the same two steps whichever entry point sent it:
``Network._admit`` decides its fate at send time (accounted; dropped by a
failed sender, lost, or on the wire) and a ``_Delivery`` record on
arrival (dropped by a failed receiver, handed to a handler, queued or
shed). The record is the simulator event itself, pushed straight onto
the heap, so a send allocates its :class:`Message`, the record and a
heap entry: one record per :meth:`Network.send`, one per ``(destination,
kind)`` group of a :meth:`Network.send_many`.

Each message is attributed to its destination server and the sender's
protocol ``phase`` in the metrics registry; when a
:class:`~repro.telemetry.Telemetry` recorder is attached, sends, losses,
drops and deliveries additionally emit structured events (deliveries as
``net.transit`` spans covering the in-flight interval).

Nodes may additionally carry a :class:`ServiceConfig` — a single-server
bounded FIFO queue in front of the handler — so that offered load turns
into queueing delay and, past the queue bound, shed messages. This is
the serving plane's contention model: without it (the default), message
handling is instantaneous and concurrency is free.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import partial
from heapq import heappush
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from ..sim.engine import Simulator
from ..sim.metrics import finite_positive
from ..telemetry.core import Telemetry
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracing import TraceContext


#: update-plane message kinds (Sections III-B/III-D): a *full* message
#: carries an encoded summary; a *keep-alive* carries only a fingerprint
#: header that refreshes the receiver's matching soft state. They are
#: distinct on the wire so the delta-propagation saving is observable.
SUMMARY_FULL = "summary-full"
SUMMARY_KEEPALIVE = "summary-keepalive"

#: shared empty tag dict for untraced messages (never mutated)
_NO_TAGS: Dict[str, object] = {}

#: size of the reject notice a shedding server returns to the sender
REJECT_BYTES = 16

#: fixed per-message handling time at the receiver in seconds, modelling
#: (cheap) summary evaluation / forwarding decisions
PROCESSING_DELAY = 0.0005


@dataclass(frozen=True)
class ServiceConfig:
    """Server-side service model for one node (the serving plane).

    Without a service model (the default everywhere) a delivered message
    invokes its handler instantly — infinite capacity, the historical
    behaviour. With one, the node is a single server with a bounded FIFO
    queue: each inbound message occupies the server for ``service_time``
    seconds before its handler runs, at most ``queue_limit`` further
    messages wait, and overflow is **shed** — the terminal
    ``on_dropped`` hook fires with reason ``"shed"`` and, when the
    sender asked for notification (``on_rejected``), a small reject
    notice of :data:`REJECT_BYTES` travels back so the sender can retry
    with backoff. Saturation therefore shows up exactly as the paper's
    root bottleneck predicts: queueing delay first, then shed load.
    """

    #: seconds of exclusive server time each inbound message costs
    service_time: float = 0.001
    #: messages allowed to wait behind the one in service (None = no cap)
    queue_limit: Optional[int] = None

    def __post_init__(self) -> None:
        finite_positive("service_time", self.service_time)
        if self.queue_limit is not None and self.queue_limit < 0:
            raise ValueError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )


class _ServiceQueue:
    """Single-server FIFO queue in front of one node's message handler:
    one-message :class:`_Delivery` records wait here in arrival order,
    and the one in service is back on the heap, due when it is done."""

    __slots__ = (
        "net", "node", "config", "waiting", "busy",
        "served", "shed", "max_depth", "busy_seconds",
    )

    def __init__(self, net: "Network", node: int, config: ServiceConfig):
        self.net = net
        self.node = node
        self.config = config
        self.waiting: Deque["_Delivery"] = deque()
        self.busy = False
        self.served = 0
        self.shed = 0
        self.max_depth = 0
        self.busy_seconds = 0.0

    @property
    def depth(self) -> int:
        """Messages in the system: waiting plus the one in service."""
        return len(self.waiting) + (1 if self.busy else 0)

    def offer(self, delivery: "_Delivery") -> bool:
        """Admit an arrived one-message delivery (queue or serve) or shed it."""
        limit = self.config.queue_limit
        if self.busy and limit is not None and len(self.waiting) >= limit:
            self.shed += 1
            return False
        tel = self.net.telemetry
        # Waiting gets its own forked context, so the wait span slots
        # between the transit span and the serve span in the causal tree.
        ctx = tel.fork(delivery.msg.trace) if tel is not None else None
        if self.busy:
            delivery.ctx, delivery.since = ctx, self.net.sim.now
            self.waiting.append(delivery)
        else:
            self.busy = True
            self._serve(delivery, ctx)
        depth = self.depth
        self.max_depth = max(self.max_depth, depth)
        self.net.metrics.observe(
            "service.queue_depth", float(depth), server=self.node
        )
        return True

    def _serve(self, delivery: "_Delivery", ctx) -> None:
        """Start serving *delivery*: its record fires again when done."""
        net = self.net
        delivery.queue, delivery.ctx, delivery.since = self, ctx, net.sim.now
        heappush(net._events, (
            net.sim.now + self.config.service_time, next(net._seq), delivery
        ))

    def next(self) -> None:
        """The message in service is done: serve the next one, or idle."""
        if not self.waiting:
            self.busy = False
            return
        net = self.net
        tel = net.telemetry
        nxt = self.waiting.popleft()
        now, msg, wait_ctx = net.sim.now, nxt.msg, nxt.ctx
        net.metrics.observe(
            "service.queue_delay", now - nxt.since, server=self.node
        )
        if tel is not None and wait_ctx is not None:
            tel.emit_span(
                "service.wait", nxt.since, now,
                server=self.node, category=msg.category,
                kind=msg.kind, msg_id=msg.msg_id,
                depth=len(self.waiting), **wait_ctx.tags(),
            )
        self._serve(nxt, tel.fork(wait_ctx) if tel is not None else None)


class Message:
    """An in-flight message between two node indices.

    A slotted value built once per send by the :class:`Network` and
    never written afterwards: treat it as immutable.
    """

    __slots__ = (
        "src", "dst", "category", "size_bytes", "payload", "msg_id",
        "kind", "trace",
    )

    def __init__(
        self, src: int, dst: int, category: str, size_bytes: int,
        payload: Any = None, msg_id: int = 0, kind: str = "",
        trace: Optional[TraceContext] = None,
    ):
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        self.src = src
        self.dst = dst
        self.category = category
        self.size_bytes = size_bytes
        self.payload = payload
        self.msg_id = msg_id
        #: protocol message kind; dispatches to a kind handler when set
        self.kind = kind
        #: causal trace coordinates propagated across this hop (None when
        #: the sender is untraced or telemetry is disabled)
        self.trace = trace

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"Message({fields})"


def _ctags(msg: Message) -> Dict[str, object]:
    """Causal-trace tags of *msg* for its telemetry events."""
    return msg.trace.tags() if msg.trace is not None else _NO_TAGS


def _profiled(prof, handler: Callable, arg) -> None:
    """``handler(arg)`` inside a ``net.deliver`` profiler frame."""
    prof.enter("net.deliver")
    try:
        handler(arg)
    finally:
        prof.exit()


class _Delivery:
    """One delivery in flight, then at its receiver: the simulator event
    of its arrival and, behind a service queue, of its end of service.

    The heap holds the record itself and the dispatch loop calls its
    :meth:`fn`, the arrival-time half of the path (``Network._admit`` is
    the send-time half). Slotted and never cancelled, so a message in
    flight holds no closure, no handle and nothing that refers back to it.
    """

    __slots__ = (
        "net", "msg", "group", "phase", "sent_at",
        "on_dropped", "on_delivery", "on_rejected",
        "fired", "queue", "ctx", "since",
    )
    #: nothing holds a handle to a delivery, so nothing cancels one
    cancelled = False

    def __init__(
        self, net, msg, group, phase, on_dropped, on_delivery, on_rejected
    ):
        # *msg*: the message, or the first of *group* (a ``send_many``
        # group; None: one message). *on_delivery*: the sender's callback,
        # or in a service queue the handler resolved at arrival.
        self.net = net
        self.msg = msg
        self.group = group
        self.phase = phase
        self.sent_at = net.sim.now
        self.on_dropped = on_dropped
        self.on_delivery = on_delivery
        self.on_rejected = on_rejected
        #: the service queue serving it; ``ctx`` and ``since`` are its
        #: causal context and enqueue or service-start time there
        self.queue = None

    @property
    def label(self) -> str:
        """Profiling frame of this event (read only under a profiler)."""
        stage = "net.deliver:" if self.queue is None else "service.serve:"
        return stage + (self.msg.kind or self.msg.category)

    def fn(self) -> None:
        """Arrival, or end of service: dropped by a failed receiver,
        queued or shed by its service queue, or handed to its handler."""
        net = self.net
        first = self.msg
        group = self.group
        dst = first.dst
        tel = net.telemetry
        queue = self.queue
        if queue is not None:
            queue.busy_seconds += queue.config.service_time
        if dst in net._failed:
            self._receiver_failed()
            return
        handler = self.on_delivery
        arg, ctx = first, first.trace
        if queue is None:
            if tel is not None:
                now = net.sim.now
                for msg in (first,) if group is None else group:
                    tel.emit_span("net.transit", self.sent_at, now,
                                  src=first.src, server=dst,
                                  category=first.category, phase=self.phase,
                                  kind=first.kind, msg_id=msg.msg_id,
                                  bytes=msg.size_bytes, **_ctags(msg))
            svc = net._service.get(dst)
            kind = first.kind
            if handler is None and kind:
                if svc is None:
                    handler = net._kind_batch_handlers.get(kind)
                if handler is not None:
                    arg, ctx = [first] if group is None else group, None
                else:
                    handler = net._kind_handlers.get(kind)
            if handler is None:
                handler = net._handlers.get(dst)
                if handler is None:
                    return
            if svc is not None:
                self._offer(svc, handler)
                return
        else:
            queue.served += 1
            if tel is not None and self.ctx is not None:
                ctx = self.ctx
                tel.emit_span(
                    "service.serve", self.since, net.sim.now,
                    server=dst, category=first.category,
                    kind=first.kind, msg_id=first.msg_id, **ctx.tags(),
                )
        # The hand-off. Accounting is per message: the ``delivered``
        # counter and the census advance by the group's size whether a
        # batch handler takes it in one call or a handler message by
        # message; :attr:`Network.delivery_trace` is set for each call.
        n = 1 if group is None else len(group)
        net.delivered += n
        mix = first.kind or first.category
        try:
            net.census[mix][dst] += n
        except KeyError:
            net.census.setdefault(mix, {})[dst] = n
        if net._profiler is not None:
            handler = partial(_profiled, net._profiler, handler)
        try:
            if group is None or arg is group:
                net.delivery_trace = ctx
                handler(arg)
            else:
                for msg in group:
                    net.delivery_trace = msg.trace
                    handler(msg)
        finally:
            net.delivery_trace = None
        if queue is not None:
            queue.next()

    def _receiver_failed(self) -> None:
        net, tel, queue = self.net, self.net.telemetry, self.queue
        for msg in (self.msg,) if self.group is None else self.group:
            net.dropped += 1
            if tel is not None and queue is None:
                tel.event("net.drop", src=msg.src, dst=msg.dst,
                          category=msg.category, phase=self.phase,
                          kind=msg.kind, msg_id=msg.msg_id,
                          reason="receiver_failed", **_ctags(msg))
            elif tel is not None:  # it was queued or in service
                tel.event("net.drop", src=msg.src, dst=msg.dst,
                          category=msg.category, kind=msg.kind,
                          msg_id=msg.msg_id, reason="receiver_failed",
                          **(self.ctx.tags() if self.ctx is not None else {}))
            if self.on_dropped is not None:
                self.on_dropped(msg, "receiver_failed")
        if queue is not None:
            queue.next()

    def _offer(self, svc: _ServiceQueue, handler: Callable) -> None:
        """Offer each message to the receiver's service queue, one record
        each; a shed message is terminal, and a sender that asked for
        notification hears back explicitly."""
        net = self.net
        tel = net.telemetry
        first = self.msg
        src, dst, category, kind = first.src, first.dst, first.category, first.kind
        on_dropped, on_rejected = self.on_dropped, self.on_rejected
        for msg in (first,) if self.group is None else self.group:
            one = self if self.group is None else _Delivery(
                net, msg, None, self.phase, on_dropped, None, on_rejected
            )
            one.on_delivery = handler
            if svc.offer(one):
                continue
            net.shed += 1
            if tel is not None:
                tel.event("net.shed", src=src, dst=dst, category=category,
                          phase=self.phase, kind=kind, msg_id=msg.msg_id,
                          depth=svc.depth, **_ctags(msg))
            if on_rejected is not None:
                net.metrics.count_message(
                    category, REJECT_BYTES,
                    server=src, phase="reject",
                )
                back = net.delay_space.latency(dst, src) + PROCESSING_DELAY
                net.sim.schedule(
                    back, lambda m=msg: on_rejected(m),
                    None if net._profiler is None else "net.reject",
                )
            if on_dropped is not None:
                on_dropped(msg, "shed")


class Network:
    """Latency-accurate, loss-free (except node failure) message fabric."""

    def __init__(
        self,
        sim: Simulator,
        delay_space,
        metrics: Optional[MetricsRegistry] = None,
        *,
        loss_rate: float = 0.0,
        rng=None,
        telemetry: Optional[Telemetry] = None,
    ):
        """
        Parameters
        ----------
        loss_rate:
            Probability that any individual message is silently lost in
            transit (failure injection for robustness tests). Requires
            *rng* when non-zero.
        telemetry:
            Optional structured-event recorder; ``None`` disables event
            emission entirely (*metrics* is always maintained).
        """
        if not (0.0 <= loss_rate < 1.0):
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        if loss_rate > 0 and rng is None:
            raise ValueError("loss_rate > 0 requires an rng")
        self.sim = sim
        # Deliveries push themselves (see :class:`_Delivery`).
        self._events, self._seq = sim.event_heap()
        self.delay_space = delay_space
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.loss_rate = loss_rate
        self.telemetry = telemetry
        # Wall-clock profiler reference cached at construction (attach a
        # profiler to the telemetry recorder *before* building); None
        # keeps the per-message hot path to a single attribute check.
        self._profiler = telemetry.profiler if telemetry is not None else None
        self._rng = rng
        self._handlers: Dict[int, Callable[[Message], None]] = {}
        # Per-kind handlers: one protocol object owns a message kind for
        # every node (e.g. the update plane installs summaries at
        # delivery time). Resolution order at delivery: an explicit
        # ``on_delivery`` callback, then the kind handler, then the
        # destination node's registered handler.
        self._kind_handlers: Dict[str, Callable[[Message], None]] = {}
        # Batch kind handlers: a plane that can install a whole
        # same-kind, same-destination delivery group in one call (e.g.
        # stacked summary installs) registers one here; delivery groups
        # dispatch through it instead of per message.
        self._kind_batch_handlers: Dict[str, Callable[[list], None]] = {}
        self._failed: Set[int] = set()
        # Per-node server-side service queues (None entry = infinite
        # capacity, the default); see :class:`ServiceConfig`.
        self._service: Dict[int, _ServiceQueue] = {}
        self.dropped = 0
        self.lost = 0
        #: messages shed by saturated service queues (all nodes)
        self.shed = 0
        #: messages that hit the wire (sender alive at send time)
        self.sent = 0
        #: handler invocations (post queue/service when configured)
        self.delivered = 0
        #: the event census: handler invocations per message kind
        #: (category when kindless) per destination server. Always
        #: maintained and never read by the simulation — its
        #: ``census_fingerprint`` is a run's determinism stamp
        self.census: Dict[str, Dict[int, int]] = {}
        #: causal context of the delivery currently being handled; valid
        #: only for the duration of a handler call — receivers fork it
        #: for the sends they make in response.
        self.delivery_trace: Optional[TraceContext] = None
        # Message ids are per-network so independently built systems are
        # reproducible (a module-level counter would leak state between
        # builds and break id-based assertions across test orderings).
        self._msg_counter = itertools.count()

    # -- membership ----------------------------------------------------------------
    def register(self, node: int, handler: Callable[[Message], None]) -> None:
        """Install the inbound-message handler for *node*."""
        self._handlers[node] = handler

    def unregister(self, node: int) -> None:
        self._handlers.pop(node, None)

    def register_kind(
        self, kind: str, handler: Callable[[Message], None]
    ) -> None:
        """Install the handler for all messages of protocol *kind*."""
        if not kind:
            raise ValueError("kind must be a non-empty string")
        self._kind_handlers[kind] = handler

    def register_kind_batch(
        self, kind: str, handler: Callable[[list], None]
    ) -> None:
        """Install the batch handler for delivery groups of *kind*.

        The handler receives the full list of same-kind messages
        arriving at one destination at one instant (a ``send_many``
        delivery group, or the single message of a ``send``), unless
        the destination has a service queue. Per-message accounting — the
        ``delivered`` counter and the event census — is performed by
        the network before the single handler call; the handler reads
        each message's causal context from ``msg.trace`` (the shared
        :attr:`delivery_trace` is not set for batch dispatch).
        """
        if not kind:
            raise ValueError("kind must be a non-empty string")
        self._kind_batch_handlers[kind] = handler

    def fail_node(self, node: int) -> None:
        """Mark *node* failed: all inbound messages are dropped."""
        self._failed.add(node)
        if self.telemetry is not None:
            self.telemetry.event("net.node_failed", server=node)

    def recover_node(self, node: int) -> None:
        self._failed.discard(node)
        if self.telemetry is not None:
            self.telemetry.event("net.node_recovered", server=node)

    def is_failed(self, node: int) -> bool:
        return node in self._failed

    # -- server-side service model --------------------------------------------------
    def set_service(self, node: int, config: Optional[ServiceConfig]) -> None:
        """Install (or, with ``None``, remove) *node*'s service model.

        Any queued messages of a previous model are discarded, so
        configure servers before offering load.
        """
        if config is None:
            self._service.pop(node, None)
        else:
            self._service[node] = _ServiceQueue(self, node, config)

    def service_stats(self, node: int) -> Dict[str, float]:
        """Service-queue counters for *node* (zeros when unconfigured)."""
        svc = self._service.get(node)
        if svc is None:
            return dict.fromkeys(
                ("served", "shed", "depth", "waiting", "max_depth", "busy_seconds"), 0.0
            )
        return {
            "served": float(svc.served),
            "shed": float(svc.shed),
            "depth": float(svc.depth),
            "waiting": float(len(svc.waiting)),
            "max_depth": float(svc.max_depth),
            "busy_seconds": svc.busy_seconds,
        }

    # -- sending ----------------------------------------------------------------
    def send(
        self, src: int, dst: int, category: str, size_bytes: int, payload: Any = None,
        on_delivery: Optional[Callable[[Message], None]] = None, phase: str = "",
        kind: str = "", on_dropped: Optional[Callable[[Message, str], None]] = None,
        on_rejected: Optional[Callable[[Message], None]] = None,
        trace: Optional[TraceContext] = None,
    ) -> Message:
        """Send a message; returns the :class:`Message` descriptor.

        Traffic is accounted at send time (the bytes hit the wire whether
        or not the destination is alive) and attributed to the receiving
        node under *phase*. Delivery invokes *on_delivery* when given,
        else the handler registered for the message *kind* (its batch
        handler, with a one-message group, when the destination has no
        service queue), else the destination's registered handler.
        *on_dropped* is the terminal failure hook: it fires exactly once,
        with a reason of ``"sender_failed"``, ``"lost"``,
        ``"receiver_failed"`` or ``"shed"``, when the message will never
        reach a handler — protocol actors use it to keep in-flight
        accounting exact under loss. *on_rejected* opts into explicit
        load-shed notification: when the destination's service queue
        sheds the message, a reject notice travels back and
        *on_rejected* fires at the sender one one-way delay later (the
        notice itself is delivered reliably). *trace* rides on the
        message so every event of this hop (send, transit, wait, serve,
        loss, shed) lands in the sender's causal tree; during handler
        execution the receiver finds the hop's context in
        :attr:`delivery_trace` to fork for downstream sends.
        """
        prof = self._profiler
        if prof is not None:
            prof.enter("net.send")
        try:
            msg = Message(src, dst, category, int(size_bytes), payload,
                          next(self._msg_counter), kind, trace)
            if self._admit(msg, phase, on_dropped):
                heappush(self._events, (
                    self.sim.now + (
                        self.delay_space.latency(src, dst) + PROCESSING_DELAY
                    ),
                    next(self._seq),
                    _Delivery(self, msg, None, phase, on_dropped,
                              on_delivery, on_rejected),
                ))
            return msg
        finally:
            if prof is not None:
                prof.exit()

    def send_many(
        self, src: int, requests, category: str, *, phase: str = "",
        on_dropped: Optional[Callable[[Message, str], None]] = None,
    ) -> "list[Message]":
        """Send a batch of messages from *src* in one call.

        *requests* is a sequence of ``(dst, size_bytes, payload, kind,
        trace)`` tuples. Send-time disposition is that of issuing
        :meth:`send` once per request, in request order (accounting,
        sender-failure, loss draws, telemetry events, ``on_dropped``);
        a negative size anywhere rejects the whole call before any of
        it. What the batch amortizes is the rest: one profiler frame,
        and **one** delivery record per ``(dst, kind)`` group of the
        surviving messages (they arrive at the same instant anyway),
        which a batch handler (:meth:`register_kind_batch`) installs
        with a single call. For ``on_delivery``/``on_rejected`` hooks,
        use :meth:`send`.
        """
        prof = self._profiler
        if prof is not None:
            prof.enter("net.send")
        try:
            counter = self._msg_counter
            msgs = [
                Message(src, dst, category, int(size_bytes), payload,
                        next(counter), kind, trace)
                for dst, size_bytes, payload, kind, trace in requests
            ]
            groups: Dict[Tuple[int, str], list] = {}
            for msg in msgs:
                group = groups.setdefault((msg.dst, msg.kind), [])
                if self._admit(msg, phase, on_dropped):
                    group.append(msg)
            now, latency = self.sim.now, self.delay_space.latency
            for group in groups.values():
                if group:
                    heappush(self._events, (
                        now + (latency(src, group[0].dst) + PROCESSING_DELAY),
                        next(self._seq),
                        _Delivery(self, group[0], group, phase, on_dropped,
                                  None, None),
                    ))
            return msgs
        finally:
            if prof is not None:
                prof.exit()

    def _admit(
        self, msg: Message, phase: str, on_dropped: Optional[Callable[[Message, str], None]]
    ) -> bool:
        """Send-time disposition of one message; True when it will arrive.

        Drops it (failed sender: the bytes never hit the wire, so nothing
        is accounted), or accounts it and then loses it (loss draw) or
        announces it on the wire.
        """
        src, dst, category = msg.src, msg.dst, msg.category
        tel = self.telemetry
        ctags = _ctags(msg) if tel is not None else _NO_TAGS
        if src in self._failed:
            self.dropped += 1
            if tel is not None:
                tel.event("net.drop", src=src, dst=dst, category=category,
                          phase=phase, kind=msg.kind, msg_id=msg.msg_id,
                          reason="sender_failed", **ctags)
            if on_dropped is not None:
                on_dropped(msg, "sender_failed")
            return False
        cell = self.metrics.traffic.get((category, dst, phase))
        if cell is None:  # the first of its key: the registry mints it
            self.metrics.count_message(
                category, msg.size_bytes, server=dst, phase=phase
            )
        else:
            cell[0] += 1
            cell[1] += msg.size_bytes
        self.sent += 1
        if self.loss_rate > 0 and self._rng.random() < self.loss_rate:
            self.lost += 1
            if tel is not None:
                tel.event("net.loss", src=src, dst=dst, category=category,
                          phase=phase, kind=msg.kind, msg_id=msg.msg_id,
                          bytes=msg.size_bytes, **ctags)
            if on_dropped is not None:
                on_dropped(msg, "lost")
            return False
        if tel is not None:
            tel.event("net.send", src=src, dst=dst, category=category,
                      phase=phase, bytes=msg.size_bytes, msg_id=msg.msg_id,
                      **ctags)
        return True

    @property
    def delivered_by_kind(self) -> Dict[str, int]:
        """The census summed over servers: the dispatch mix the
        time-series plane samples as a gauge family."""
        return {kind: sum(per.values()) for kind, per in self.census.items()}

    def counters(self) -> Dict[str, int]:
        """One snapshot of the network-level message dispositions.

        ``sent`` counts messages that actually hit the wire (a failed
        sender never transmits); ``delivered`` counts handler
        invocations. ``sent - delivered`` at quiescence equals
        ``lost + shed`` plus receiver-failed drops plus handlerless
        deliveries.
        """
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "lost": self.lost,
            "dropped": self.dropped,
            "shed": self.shed,
        }
