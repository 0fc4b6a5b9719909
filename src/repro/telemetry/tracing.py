"""Causal distributed tracing: context propagation and span trees.

The event log records *what* happened; this module records *why*. A
:class:`TraceContext` is a frozen (trace id, span id, parent span id)
tuple minted by :meth:`Telemetry.new_trace` and forked with
:meth:`Telemetry.fork` at every causal hop — the client's first contact,
the message's transit, the service-queue wait, the service slot, the
server's summary match, the redirect, the reject notice, the retry, and
the update plane's ``summary-full`` / ``summary-keepalive`` deliveries.
Instrumented code attaches ``ctx.tags()`` to the events it emits, so the
flat event stream carries explicit parent edges that survive export and
re-import.

:func:`assemble_traces` folds a stream of :class:`TelemetryEvent` back
into one :class:`TraceTree` per trace id; :func:`critical_path` walks
from a chosen leaf (by default the last ``query.arrive``) to the root
and attributes every second of the end-to-end latency to the hop that
spent it — **wire** (``net.transit``), **queue** (``service.wait``),
**service** (``service.serve``) or **processing** (everything else:
client think time, timeout waits, backoff). For a complete trace the
segment sum telescopes exactly to ``leaf end - root start``, which for a
search trace is the reported query latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .events import TelemetryEvent

#: critical-path categories, in reporting order
PATH_CATEGORIES = ("wire", "queue", "service", "processing")

#: span-name prefix -> critical-path category; anything unlisted is
#: client/server-side processing (timeout waits, backoff, think time)
_CATEGORY_BY_NAME = {
    "net.transit": "wire",
    "service.wait": "queue",
    "service.serve": "service",
}


def path_category(name: str) -> str:
    """The critical-path category a span name accounts under."""
    return _CATEGORY_BY_NAME.get(name, "processing")


@dataclass(frozen=True)
class TraceContext:
    """Immutable causal coordinates carried on a message or span."""

    trace_id: int
    span_id: int
    parent_span_id: int = 0

    def child(self, span_id: int) -> "TraceContext":
        """Fork: same trace, new span parented to this one."""
        return TraceContext(self.trace_id, span_id, self.span_id)

    def tags(self) -> Dict[str, object]:
        """Tag dict instrumented code attaches to emitted events."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
        }


@dataclass
class SpanNode:
    """One event in an assembled trace tree (span or instant)."""

    event: TelemetryEvent
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.event.name

    @property
    def start(self) -> float:
        return self.event.ts

    @property
    def end(self) -> float:
        return self.event.ts + self.event.dur

    @property
    def span_id(self) -> int:
        return int(self.event.tags["span_id"])

    @property
    def parent_span_id(self) -> int:
        return int(self.event.tags.get("parent_span_id", 0))

    @property
    def category(self) -> str:
        return path_category(self.event.name)


@dataclass
class TraceTree:
    """All causally-tagged events of one trace, linked by parent edges."""

    trace_id: int
    nodes: Dict[int, SpanNode] = field(default_factory=dict)
    #: nodes whose parent span never produced an event (the trace root
    #: plus any hop whose parent was lost to ring-buffer eviction)
    roots: List[SpanNode] = field(default_factory=list)

    @property
    def root(self) -> Optional[SpanNode]:
        """The earliest-starting root (the minted trace origin)."""
        if not self.roots:
            return None
        return min(self.roots, key=lambda n: (n.start, n.span_id))

    def __len__(self) -> int:
        return len(self.nodes)

    def find(self, name: str) -> List[SpanNode]:
        """All nodes with the given event name, in start order."""
        out = [n for n in self.nodes.values() if n.name == name]
        out.sort(key=lambda n: (n.start, n.span_id))
        return out

    def subtree(self, node: SpanNode) -> List[SpanNode]:
        """*node* and every descendant (pre-order)."""
        out: List[SpanNode] = []
        stack = [node]
        while stack:
            n = stack.pop()
            out.append(n)
            stack.extend(reversed(n.children))
        return out

    def ancestors(self, node: SpanNode) -> List[SpanNode]:
        """Chain from *node*'s parent up to its root, nearest first."""
        out: List[SpanNode] = []
        seen = {node.span_id}
        cur = self.nodes.get(node.parent_span_id)
        while cur is not None and cur.span_id not in seen:
            out.append(cur)
            seen.add(cur.span_id)
            cur = self.nodes.get(cur.parent_span_id)
        return out

    def format(self, *, max_nodes: int = 200) -> str:
        """Indented human-readable rendering of the causal tree."""
        lines: List[str] = []
        origin = self.root.start if self.root is not None else 0.0

        def walk(node: SpanNode, depth: int) -> None:
            if len(lines) >= max_nodes:
                return
            rel = (node.start - origin) * 1000
            dur = node.event.dur * 1000
            shape = f"{dur:8.2f} ms" if node.event.kind == "span" else "   instant "
            detail = " ".join(
                f"{k}={v}"
                for k, v in sorted(node.event.tags.items())
                if k not in ("trace_id", "span_id", "parent_span_id")
            )
            lines.append(
                f"{rel:9.2f} ms  {shape}  {'  ' * depth}{node.name}"
                + (f"  [{detail}]" if detail else "")
            )
            for child in sorted(
                node.children, key=lambda n: (n.start, n.span_id)
            ):
                walk(child, depth + 1)

        for root in sorted(self.roots, key=lambda n: (n.start, n.span_id)):
            walk(root, 0)
        if len(self.nodes) > max_nodes:
            lines.append(f"... ({len(self.nodes) - max_nodes} more nodes)")
        return "\n".join(lines)


def assemble_traces(
    events: Iterable[TelemetryEvent],
) -> Dict[int, TraceTree]:
    """Group causally-tagged events into one :class:`TraceTree` each.

    Only events carrying ``trace_id``/``span_id`` tags participate;
    untagged events (plain metrics spans) are ignored. When two events
    carry the same span id, a span outranks an instant (``net.transit``
    subsumes the ``net.send`` instant of the same hop); among equals the
    first occurrence wins.
    """
    trees: Dict[int, TraceTree] = {}
    for e in events:
        tags = e.tags
        if "trace_id" not in tags or "span_id" not in tags:
            continue
        tid = int(tags["trace_id"])
        tree = trees.get(tid)
        if tree is None:
            tree = trees[tid] = TraceTree(trace_id=tid)
        sid = int(tags["span_id"])
        existing = tree.nodes.get(sid)
        if existing is not None:
            if existing.event.kind != "span" and e.kind == "span":
                tree.nodes[sid] = SpanNode(event=e)
            continue
        tree.nodes[sid] = SpanNode(event=e)
    for tree in trees.values():
        for node in tree.nodes.values():
            parent = tree.nodes.get(node.parent_span_id)
            if parent is None or parent is node:
                tree.roots.append(node)
            else:
                parent.children.append(node)
        for node in tree.nodes.values():
            node.children.sort(key=lambda n: (n.start, n.span_id))
        tree.roots.sort(key=lambda n: (n.start, n.span_id))
    return trees


@dataclass
class PathSegment:
    """One hop's contribution to the end-to-end latency."""

    node: SpanNode
    seconds: float

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def category(self) -> str:
        return self.node.category


@dataclass
class CriticalPath:
    """The latency decomposition along one leaf-to-root chain.

    ``total`` equals ``leaf end - root start``; for a search trace whose
    root span starts at query initiation and whose leaf is the last
    ``query.arrive``, that is exactly the reported query latency.
    """

    leaf: Optional[SpanNode]
    root: Optional[SpanNode]
    segments: List[PathSegment] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(s.seconds for s in self.segments)

    def by_category(self) -> Dict[str, float]:
        out = {c: 0.0 for c in PATH_CATEGORIES}
        for seg in self.segments:
            out[seg.category] = out.get(seg.category, 0.0) + seg.seconds
        return out

    @property
    def dominant(self) -> str:
        """The category that spent the most of the end-to-end latency."""
        by = self.by_category()
        return max(PATH_CATEGORIES, key=lambda c: by.get(c, 0.0))

    def format(self) -> str:
        lines = [
            f"critical path: {self.total * 1000:.2f} ms over "
            f"{len(self.segments)} hops (dominant: {self.dominant})"
        ]
        by = self.by_category()
        for cat in PATH_CATEGORIES:
            secs = by.get(cat, 0.0)
            share = secs / self.total if self.total > 0 else 0.0
            lines.append(f"  {cat:<10} {secs * 1000:9.2f} ms  {share:6.1%}")
        for seg in self.segments:
            lines.append(
                f"    {seg.seconds * 1000:9.3f} ms  {seg.category:<10} "
                f"{seg.name}"
            )
        return "\n".join(lines)


def critical_path(
    tree: TraceTree,
    *,
    root: Optional[SpanNode] = None,
    leaf: Optional[SpanNode] = None,
    leaf_name: str = "query.arrive",
) -> CriticalPath:
    """Latency attribution along the chain that finished last.

    Picks the latest-ending ``leaf_name`` node under *root* (default:
    the whole trace under its origin root), then walks leaf-to-root.
    Each hop is charged the interval between its own start and the point
    the next-lower hop took over, so the segment sum telescopes to
    ``leaf end - root start`` — no double counting, no gaps.
    """
    if root is None:
        root = tree.root
    if root is None:
        return CriticalPath(leaf=None, root=None)
    if leaf is None:
        candidates = [
            n for n in tree.subtree(root) if n.name == leaf_name
        ]
        if not candidates:
            return CriticalPath(leaf=None, root=root)
        leaf = max(candidates, key=lambda n: (n.end, n.span_id))
    chain = [leaf]
    for anc in tree.ancestors(leaf):
        chain.append(anc)
        if anc is root:
            break
    else:
        # Leaf does not descend from the requested root; nothing to sum.
        return CriticalPath(leaf=leaf, root=root)
    segments: List[PathSegment] = []
    deadline = leaf.end
    for node in chain:
        seconds = max(0.0, deadline - max(node.start, root.start))
        if seconds > 0.0:
            segments.append(PathSegment(node=node, seconds=seconds))
        deadline = min(deadline, max(node.start, root.start))
        if deadline <= root.start:
            break
    return CriticalPath(leaf=leaf, root=root, segments=segments)


def diff_critical_paths(
    a: CriticalPath,
    b: CriticalPath,
    *,
    label_a: str = "A",
    label_b: str = "B",
) -> str:
    """Side-by-side comparison of two critical paths.

    Renders both paths' totals, the per-category
    (wire/queue/service/processing) attribution with absolute deltas,
    and the two hop chains aligned row-by-row — the answer to "these two
    searches took different times: *where* did the extra milliseconds
    go?". Powers ``repro trace --diff``.
    """
    width = max(len(label_a), len(label_b))
    lines = [
        f"{label_a:<{width}}  total {a.total * 1000:9.2f} ms over "
        f"{len(a.segments)} hops (dominant: {a.dominant})",
        f"{label_b:<{width}}  total {b.total * 1000:9.2f} ms over "
        f"{len(b.segments)} hops (dominant: {b.dominant})",
        f"{'delta':<{width}}        {(b.total - a.total) * 1000:+9.2f} ms",
        "",
        f"  {'category':<10} {label_a + ' ms':>10} {label_b + ' ms':>10} "
        f"{'delta ms':>10}",
    ]
    by_a = a.by_category()
    by_b = b.by_category()
    for cat in PATH_CATEGORIES:
        va = by_a.get(cat, 0.0) * 1000
        vb = by_b.get(cat, 0.0) * 1000
        lines.append(
            f"  {cat:<10} {va:10.3f} {vb:10.3f} {vb - va:+10.3f}"
        )
    lines.append("")
    name_w = max(
        [len(f"{s.category}:{s.name}") for s in a.segments + b.segments]
        + [len("(no hop)")]
    )
    lines.append(
        f"  {label_a + ' hop':<{name_w + 14}} {label_b + ' hop'}"
    )
    for i in range(max(len(a.segments), len(b.segments))):
        sa = a.segments[i] if i < len(a.segments) else None
        sb = b.segments[i] if i < len(b.segments) else None
        left = (
            f"{sa.seconds * 1000:9.3f} ms  {sa.category}:{sa.name}"
            if sa is not None else f"{'':>9}     (no hop)"
        )
        right = (
            f"{sb.seconds * 1000:9.3f} ms  {sb.category}:{sb.name}"
            if sb is not None else f"{'':>9}     (no hop)"
        )
        lines.append(f"  {left:<{name_w + 14}} {right}")
    return "\n".join(lines)
