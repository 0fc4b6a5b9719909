"""Outside-in span tracing for the benchmark's ``--trace 1`` arm.

Nothing under ``src/`` knows about this module. :func:`install` replaces
the public callables listed in :func:`_targets` (patched on the class, or on every ``repro.*`` module that looked the
function up by name) with wrappers that record one span per call into
flat in-memory arrays: boundary name, start, end, parent span and the id
of the enclosing operation (search / epoch / simulated second / figure).
Recording is gated by :attr:`Tracer.on`, so only the measured phase is
traced; the spans are reduced to per-boundary and per-layer self times
after the run (:meth:`Tracer.summary`) and written out as a Chrome
``trace_event`` file (:meth:`Tracer.write_chrome`).

The process is single-threaded and spans nest properly, so a span's self
time is its duration minus the durations of its direct children, and the
self times of all spans sum exactly to the duration of the root
``harness.phase`` spans the benchmark opens around each measured slice.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

#: root span the harness opens around every measured slice; its self
#: time is whatever ran outside every boundary below (driver loops,
#: load-generator bookkeeping, the harness's own per-operation timing)
PHASE = "harness.phase"

#: every boundary the tracer can record, in report order. The layer is
#: the text before the first dot and names a ``repro`` package.
BOUNDARIES = (
    PHASE,
    "roads.search",
    "roads.submit",
    "roads.run_epoch",
    "roads.measure_epoch",
    "sim.run",
    "sim.step",
    "net.send",
    "net.send_many",
    "net.handler",
    "overlay.decide",
    "overlay.build_updates",
    "hierarchy.build_update",
    "hierarchy.install",
    "hierarchy.branch_summary",
    "hierarchy.build",
    "summaries.from_store",
    "summaries.merge_many",
    "summaries.may_match",
    "summaries.fingerprint",
    "summaries.encoded_size",
    "summaries.refreshed",
    "query.mask",
    "records.mask_range",
    "workload.generate_stores",
    "workload.dynamics_step",
    "sword.build",
    "sword.execute_query",
    "central.execute_query",
    "experiments.figure",
    "bench.run_scenario",
)

LAYERS = tuple(dict.fromkeys(name.split(".", 1)[0] for name in BOUNDARIES))


class Tracer:
    """Span recorder: five parallel arrays, one entry per call."""

    def __init__(self) -> None:
        #: recording gate; the harness opens it for the measured phase
        self.on = False
        #: id of the operation the harness is currently driving
        self.op_id = -1
        #: index of the innermost open span (-1 = none)
        self.current = -1
        self._ids: Dict[str, int] = {n: i for i, n in enumerate(BOUNDARIES)}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        #: count-only boundaries and useful-work tallies
        self.schedule_calls = 0
        self.may_match_true = 0
        self.query_sends = 0

    # -- recording ---------------------------------------------------------------
    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.current = i
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.current = self.parent[i]

    def wrap(self, name: str, fn: Callable, *, metadata: bool = True) -> Callable:
        """*fn* with a *name* span around every call made while ``on``.

        ``metadata=False`` skips the ``functools.wraps`` copy, for
        wrappers built once per message rather than once per process.
        """
        nid = self._ids[name]
        tr = self

        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            i = tr._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close(i)

        return functools.wraps(fn)(traced) if metadata else traced

    @contextmanager
    def phase(self):
        """Open the recording gate under one root :data:`PHASE` span."""
        self.on = True
        i = self._open(self._ids[PHASE])
        try:
            yield
        finally:
            self._close(i)
            self.on = False

    # -- reduction ---------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """``{boundary: {"calls": n, "self_s": s}}`` over recorded spans."""
        n = len(self.start)
        name_id = np.frombuffer(self.name_id, dtype=np.intc, count=n)
        parent = np.frombuffer(self.parent, dtype=np.intc, count=n)
        dur = (
            np.frombuffer(self.end, dtype=np.float64, count=n)
            - np.frombuffer(self.start, dtype=np.float64, count=n)
        )
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        self_s = dur - children
        k = len(BOUNDARIES)
        calls = np.bincount(name_id, minlength=k)
        total = np.bincount(name_id, weights=self_s, minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(total[i])}
            for i, name in enumerate(BOUNDARIES)
        }

    def write_chrome(self, path, *, limit: int = 50_000) -> int:
        """Write the first *limit* spans as Chrome ``trace_event`` JSON.

        One lane (``tid``) per layer; every event carries the span's
        index, its parent's index and the operation id all spans of one
        search / epoch share. Returns the number of spans written.
        """
        n = min(len(self.start), limit)
        t0 = self.start[0] if n else 0.0
        lane = {layer: i for i, layer in enumerate(LAYERS)}
        events: List[dict] = [
            {"ph": "M", "pid": 1, "tid": i, "name": "thread_name",
             "args": {"name": layer}}
            for layer, i in lane.items()
        ]
        for i in range(n):
            name = BOUNDARIES[self.name_id[i]]
            events.append({
                "ph": "X", "pid": 1, "tid": lane[name.split(".", 1)[0]],
                "name": name, "cat": name.split(".", 1)[0],
                "ts": (self.start[i] - t0) * 1e6,
                "dur": (self.end[i] - self.start[i]) * 1e6,
                "args": {"span": i, "parent": self.parent[i],
                         "op": self.op[i]},
            })
        with open(path, "w") as fh:
            json.dump({
                "traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"spans_recorded": len(self.start),
                              "spans_written": n},
            }, fh)
        return n


# -- patch table -------------------------------------------------------------------
def _targets():
    """(methods, functions) to wrap; imports every layer of ``repro``."""
    from repro.bench import scenarios
    from repro.central.system import CentralSystem
    from repro.experiments import figures
    from repro.hierarchy import aggregation, join
    from repro.hierarchy.node import Server
    from repro.overlay import routing
    from repro.overlay.replication import ReplicaPusher
    from repro.query.query import Query
    from repro.records.store import RecordStore
    from repro.roads.system import RoadsSystem
    from repro.roads.update_plane import UpdatePlane
    from repro.sim.engine import Simulator
    from repro.summaries.summary import ResourceSummary
    from repro.sword.system import SwordSystem
    from repro.workload import generator
    from repro.workload.dynamics import RecordDynamics

    methods = [
        ("roads.search", RoadsSystem, "search"),
        ("roads.submit", RoadsSystem, "submit"),
        ("roads.run_epoch", UpdatePlane, "run_epoch"),
        ("roads.measure_epoch", UpdatePlane, "measure_epoch"),
        ("sim.run", Simulator, "run"),
        ("sim.step", Simulator, "step"),
        ("overlay.build_updates", ReplicaPusher, "build_updates"),
        ("hierarchy.build_update", aggregation.SummaryExporter, "build_update"),
        ("hierarchy.install", aggregation.SummaryUpdate, "install"),
        ("hierarchy.branch_summary", Server, "branch_summary"),
        ("hierarchy.branch_summary", Server, "local_summary"),
        ("summaries.from_store", ResourceSummary, "from_store"),
        ("summaries.merge_many", ResourceSummary, "merge_many"),
        ("summaries.fingerprint", ResourceSummary, "fingerprint"),
        ("summaries.encoded_size", ResourceSummary, "encoded_size"),
        ("summaries.refreshed", ResourceSummary, "refreshed"),
        ("query.mask", Query, "mask"),
        ("query.mask", Query, "match_count"),
        ("records.mask_range", RecordStore, "mask_range"),
        ("records.mask_range", RecordStore, "mask_equals"),
        ("workload.dynamics_step", RecordDynamics, "step"),
        ("sword.build", SwordSystem, "__init__"),
        ("sword.execute_query", SwordSystem, "execute_query"),
        ("central.execute_query", CentralSystem, "execute_query"),
    ]
    functions = [
        ("overlay.decide", routing.decide_start),
        ("overlay.decide", routing.decide_descent),
        ("overlay.decide", routing.decide_local),
        ("hierarchy.install", aggregation.install_batch),
        ("hierarchy.build", join.build_hierarchy),
        ("workload.generate_stores", generator.generate_node_stores),
        ("experiments.figure", figures.fig3_latency_vs_nodes),
        ("experiments.figure", figures.fig4_update_overhead_vs_nodes),
        ("bench.run_scenario", scenarios.run_scenario),
    ]
    return methods, functions


def _patch_method(tracer: Tracer, name: str, cls, attr: str) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
    else:
        setattr(cls, attr, tracer.wrap(name, raw))


def _patch_function(tracer: Tracer, name: str, fn) -> None:
    """Rebind *fn* in every loaded ``repro`` module that imported it."""
    traced = tracer.wrap(name, fn)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, key, traced)


def _patch_network(tracer: Tracer) -> None:
    """Spans for sends, and for every handler and per-message callback.

    Handlers are wrapped where they are handed to the network — at
    ``register*`` time or as a ``send`` callback — so the time a
    delivery spends in the receiving actor is separated from dispatch.
    """
    from repro.net.transport import Network

    registered = functools.partial(tracer.wrap, "net.handler")
    callback = functools.partial(tracer.wrap, "net.handler", metadata=False)

    for attr in ("register", "register_kind", "register_kind_batch"):
        original = getattr(Network, attr)

        def register(self, key, fn, _original=original):
            return _original(self, key, registered(fn))

        setattr(Network, attr, functools.wraps(original)(register))

    send = tracer.wrap("net.send", Network.send)

    @functools.wraps(Network.send)
    def traced_send(self, *args, **kwargs):
        if tracer.on:
            if kwargs.get("kind") == "query":
                tracer.query_sends += 1
            for key in ("on_delivery", "on_dropped", "on_rejected"):
                fn = kwargs.get(key)
                if fn is not None:
                    kwargs[key] = callback(fn)
        return send(self, *args, **kwargs)

    Network.send = traced_send

    send_many = tracer.wrap("net.send_many", Network.send_many)

    @functools.wraps(Network.send_many)
    def traced_send_many(self, src, requests, category, **kwargs):
        fn = kwargs.get("on_dropped")
        if tracer.on and fn is not None:
            kwargs["on_dropped"] = callback(fn)
        return send_many(self, src, requests, category, **kwargs)

    Network.send_many = traced_send_many


def _patch_counters(tracer: Tracer) -> None:
    """Boundaries that also keep a tally next to (or instead of) a span."""
    from repro.sim.engine import Simulator
    from repro.summaries.summary import ResourceSummary

    schedule = Simulator.schedule

    @functools.wraps(schedule)
    def counted_schedule(self, *args, **kwargs):
        if tracer.on:
            tracer.schedule_calls += 1
        return schedule(self, *args, **kwargs)

    Simulator.schedule = counted_schedule

    may_match = ResourceSummary.may_match
    nid = tracer._ids["summaries.may_match"]

    @functools.wraps(may_match)
    def traced_may_match(self, query):
        if not tracer.on:
            return may_match(self, query)
        i = tracer._open(nid)
        try:
            hit = may_match(self, query)
        finally:
            tracer._close(i)
        if hit:
            tracer.may_match_true += 1
        return hit

    ResourceSummary.may_match = traced_may_match


def install() -> Tracer:
    """Patch every boundary in this process; returns the recorder.

    Call once, before building the system under test: handlers are
    wrapped as they are registered, and bound methods captured at
    construction (periodic tasks) resolve to the patched attribute.
    There is no uninstall — the traced arm is the last thing a
    benchmark process runs.
    """
    tracer = Tracer()
    methods, functions = _targets()
    for name, cls, attr in methods:
        _patch_method(tracer, name, cls, attr)
    for name, fn in functions:
        _patch_function(tracer, name, fn)
    _patch_network(tracer)
    _patch_counters(tracer)
    return tracer
