"""The profiling plane: hierarchical hot-path attribution.

A flat seconds-per-section map can tell perf PRs *that*
``sim.dispatch`` dominates bench wall time but not *why*: nested
sections double-count (``query.execute`` encloses the ``sim.dispatch``
seconds of its event loop, so summing sections overshoots the total) and
nothing attributes dispatch time to the event kinds, planes or servers
burning it. :class:`CallPathProfiler` is a call-path tree instead:

* **Frames** are keyed by (parent path, name); ``enter(name)`` /
  ``exit()`` push and pop the current path, accumulating *cumulative*
  wall seconds per frame. *Self* seconds — cumulative minus the
  children's cumulative — form an exact partition of the root total, so
  "where does the time actually go" finally has a well-defined answer.
  Frames carry host wall seconds (``time.perf_counter``) only.
* **Labeled dispatch.** The engine wraps every event callback in a frame
  named after the event's schedule-site label (``net.deliver:query``,
  ``update.epoch``, ``service.serve:query-response`` …), so the
  dispatch loop's time decomposes by event kind and plane. The message
  mix itself — the **event census**, deliveries per message kind per
  server — is kept by the network, profiled or not
  (``Network.census``); :func:`census_fingerprint` hashes it.
* **Exporters.** :func:`collapsed_stacks` emits Brendan Gregg
  collapsed-stack lines (``a;b;c <self µs>``) ready for any flame-graph
  tool; :func:`speedscope_document` emits a speedscope-schema JSON
  loadable at speedscope.app; :func:`diff_documents` compares two
  profile dumps hotspot by hotspot.

**Non-perturbation.** The profiler only reads host clocks and Python
state: it sends no messages, consumes no simulation randomness, and
never touches telemetry ids, so a seeded run with profiling enabled is
byte-identical — same outcomes, same latencies — to the same run
without it. ``tests/test_profiling.py`` asserts this tripwire per seed.

The disabled path stays free: instrumented call sites cache the profiler
reference (``None`` by default) and guard on a single ``is not None``.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter
from typing import Dict, Iterable, List, Tuple

#: profile document schema identifier; bump on incompatible changes
PROFILE_SCHEMA = "roads.profile/1"

class Frame:
    """One node of the call-path tree.

    Identity is the path from the root, so the same section name under
    two different parents is two frames — that is what makes *self*
    seconds a partition instead of a hot-path soup (a frame re-entered
    from inside itself is its own child, never counted twice).
    """

    __slots__ = ("name", "children", "calls", "cum_wall")

    def __init__(self, name: str):
        self.name = name
        self.children: Dict[str, "Frame"] = {}
        self.calls = 0
        #: wall seconds spent inside this frame, children included
        self.cum_wall = 0.0

    @property
    def self_wall(self) -> float:
        """Wall seconds in this frame minus its children (never < 0)."""
        return max(
            0.0, self.cum_wall - sum(c.cum_wall for c in self.children.values())
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "calls": self.calls,
            "cum_seconds": self.cum_wall,
            "self_seconds": self.self_wall,
            "children": [
                self.children[k].to_dict() for k in sorted(self.children)
            ],
        }


class CallPathProfiler:
    """Hierarchical wall-clock profiler: ``enter`` / ``exit`` and a
    :meth:`document` of the tree."""

    __slots__ = ("_root", "_stack")

    def __init__(self):
        self._root = Frame("(root)")
        # (frame, wall t0) pairs for the open frames
        self._stack: List[Tuple[Frame, float]] = []

    def enter(self, name: str) -> None:
        """Open a frame named *name* under the current call path."""
        parent = self._stack[-1][0] if self._stack else self._root
        frame = parent.children.get(name)
        if frame is None:
            frame = parent.children[name] = Frame(name)
        frame.calls += 1
        self._stack.append((frame, perf_counter()))

    def exit(self) -> None:
        """Close the innermost open frame."""
        if not self._stack:
            raise RuntimeError("profiler exit() without a matching enter()")
        frame, wall_t0 = self._stack.pop()
        frame.cum_wall += perf_counter() - wall_t0

    def document(self) -> Dict[str, object]:
        """The full hierarchical profile document (JSON-serialisable).

        ``total_seconds`` is the wall time across all top-level frames,
        the total the self times partition.
        """
        return {
            "schema": PROFILE_SCHEMA,
            "total_seconds": sum(
                c.cum_wall for c in self._root.children.values()
            ),
            "tree": self._root.to_dict(),
        }


# -- census fingerprint ---------------------------------------------------------
def census_document(census: Dict[str, Dict]) -> Dict[str, Dict[str, int]]:
    """A deliveries-per-kind-per-server census (``Network.census``) in
    its JSON form: string keys, sorted."""
    return {
        str(kind): {
            str(server): int(count)
            for server, count in sorted(
                servers.items(), key=lambda kv: str(kv[0])
            )
        }
        for kind, servers in sorted(census.items())
    }


def census_fingerprint(census: Dict[str, Dict]) -> str:
    """Stable short hash of a deliveries-per-kind-per-server census.

    Deterministic per seed and configuration: two runs whose dispatch
    mixes differ in any (kind, server, count) triple get different
    fingerprints, so baseline comparisons can gate on the mix without
    committing the full census.
    """
    doc = json.dumps(census_document(census), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


# -- document helpers -----------------------------------------------------------
def _walk(
    node: Dict[str, object], path: Tuple[str, ...] = ()
) -> Iterable[Tuple[Tuple[str, ...], Dict[str, object]]]:
    """Yield ``(path, node)`` for every non-root node of a document tree."""
    for child in node.get("children", ()):
        child_path = path + (child["name"],)
        yield child_path, child
        yield from _walk(child, child_path)


def flatten_document(document: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """Recompute the flat per-name projection from a loaded document."""
    out: Dict[str, Dict[str, float]] = {}

    def visit(node: Dict[str, object], ancestors: frozenset) -> None:
        for child in node.get("children", ()):
            name = child["name"]
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {
                    "calls": 0, "seconds": 0.0, "self_seconds": 0.0,
                }
            entry["calls"] += int(child["calls"])
            entry["self_seconds"] += float(child["self_seconds"])
            if name not in ancestors:
                entry["seconds"] += float(child["cum_seconds"])
            visit(child, ancestors | {name})

    visit(document["tree"], frozenset())
    return out


def hotspot_shares(
    document: Dict[str, object], *, min_share: float = 0.0
) -> Dict[str, float]:
    """Per-name share of total self time (what ``repro profile`` ranks)."""
    total = float(document["total_seconds"])
    if total <= 0:
        return {}
    return {
        name: entry["self_seconds"] / total
        for name, entry in sorted(flatten_document(document).items())
        if entry["self_seconds"] / total >= min_share
    }


def top_frames(
    document: Dict[str, object], k: int = 15
) -> List[Dict[str, object]]:
    """Top-*k* frame names by self time, with shares and call counts."""
    total = float(document["total_seconds"])
    flat = flatten_document(document)
    rows = [
        {
            "section": name,
            "calls": int(entry["calls"]),
            "self_s": entry["self_seconds"],
            "cum_s": entry["seconds"],
            "share": entry["self_seconds"] / total if total > 0 else 0.0,
        }
        for name, entry in flat.items()
    ]
    rows.sort(key=lambda r: (-r["self_s"], r["section"]))
    return rows[:k]


def format_top(document: Dict[str, object], k: int = 15) -> str:
    """Human-readable top-*k* self-time table."""
    rows = top_frames(document, k)
    total = float(document["total_seconds"])
    lines = [
        f"{'section':<36} {'calls':>9} {'self s':>9} {'cum s':>9} {'share':>7}"
    ]
    for r in rows:
        lines.append(
            f"{r['section']:<36} {r['calls']:>9} {r['self_s']:>9.3f} "
            f"{r['cum_s']:>9.3f} {r['share']:>6.1%}"
        )
    lines.append(f"{'total (self-time partition)':<36} {'':>9} {total:>9.3f}")
    return "\n".join(lines)


def format_tree(
    document: Dict[str, object],
    *,
    max_depth: int = 5,
    min_share: float = 0.01,
) -> str:
    """Indented call-path tree, hottest cumulative branches first."""
    total = float(document["total_seconds"])
    lines: List[str] = []

    def visit(node: Dict[str, object], depth: int) -> None:
        children = sorted(
            node.get("children", ()),
            key=lambda c: -float(c["cum_seconds"]),
        )
        for child in children:
            cum = float(child["cum_seconds"])
            share = cum / total if total > 0 else 0.0
            if share < min_share:
                continue
            lines.append(
                f"{'  ' * depth}{child['name']}  "
                f"cum={cum:.3f}s ({share:.1%})  "
                f"self={float(child['self_seconds']):.3f}s  "
                f"calls={int(child['calls'])}"
            )
            if depth + 1 < max_depth:
                visit(child, depth + 1)

    visit(document["tree"], 0)
    return "\n".join(lines) if lines else "(empty profile)"


# -- collapsed-stack export ------------------------------------------------------
def collapsed_stacks(document: Dict[str, object]) -> str:
    """Brendan Gregg collapsed-stack lines: ``a;b;c <self µs>``.

    One line per call path with non-zero self time, value in integer
    microseconds — the input format of ``flamegraph.pl`` and every
    flame-graph renderer descended from it.
    """
    lines: List[str] = []
    for path, node in _walk(document["tree"]):
        micros = int(round(float(node["self_seconds"]) * 1e6))
        if micros > 0:
            lines.append(";".join(path) + f" {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_collapsed(text: str) -> Dict[Tuple[str, ...], int]:
    """Inverse of :func:`collapsed_stacks`: ``{path: self µs}``."""
    out: Dict[Tuple[str, ...], int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, value = line.rpartition(" ")
        path = tuple(stack.split(";"))
        out[path] = out.get(path, 0) + int(value)
    return out


# -- speedscope export -----------------------------------------------------------
_SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def speedscope_document(
    document: Dict[str, object], *, name: str = "repro profile"
) -> Dict[str, object]:
    """Speedscope-schema JSON for the call-path tree (sampled profile).

    Every call path with non-zero self time becomes one weighted sample,
    so the rendered flame graph's widths are the tree's self-time
    partition. Load the result at https://www.speedscope.app/ or with
    the ``speedscope`` CLI.
    """
    frame_index: Dict[str, int] = {}
    frames: List[Dict[str, str]] = []
    samples: List[List[int]] = []
    weights: List[int] = []
    for path, node in _walk(document["tree"]):
        micros = int(round(float(node["self_seconds"]) * 1e6))
        if micros <= 0:
            continue
        stack: List[int] = []
        for frame_name in path:
            idx = frame_index.get(frame_name)
            if idx is None:
                idx = frame_index[frame_name] = len(frames)
                frames.append({"name": frame_name})
            stack.append(idx)
        samples.append(stack)
        weights.append(micros)
    end_value = sum(weights)
    return {
        "$schema": _SPEEDSCOPE_SCHEMA,
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": [
            {
                "type": "sampled",
                "name": name,
                "unit": "microseconds",
                "startValue": 0,
                "endValue": end_value,
                "samples": samples,
                "weights": weights,
            }
        ],
        "exporter": "repro.telemetry.profiling",
    }


def parse_speedscope(doc: Dict[str, object]) -> Dict[Tuple[str, ...], int]:
    """Path → weight (µs) map from a speedscope sampled profile."""
    frames = doc["shared"]["frames"]
    profile = doc["profiles"][0]
    out: Dict[Tuple[str, ...], int] = {}
    for stack, weight in zip(profile["samples"], profile["weights"]):
        path = tuple(frames[i]["name"] for i in stack)
        out[path] = out.get(path, 0) + int(weight)
    return out


# -- profile diffing -------------------------------------------------------------
def diff_documents(
    doc_a: Dict[str, object],
    doc_b: Dict[str, object],
    *,
    label_a: str = "A",
    label_b: str = "B",
    k: int = 20,
) -> str:
    """Side-by-side hotspot comparison of two profile documents.

    Rows are per section name: self seconds and share of total under
    each profile, the share delta (percentage points), and the census
    verdict; sorted by absolute share delta so the biggest hot-path
    shifts lead.
    """
    shares_a = hotspot_shares(doc_a)
    shares_b = hotspot_shares(doc_b)
    flat_a = flatten_document(doc_a)
    flat_b = flatten_document(doc_b)
    names = sorted(set(shares_a) | set(shares_b))
    rows = []
    for name in names:
        sa = shares_a.get(name, 0.0)
        sb = shares_b.get(name, 0.0)
        rows.append((abs(sb - sa), name, sa, sb))
    rows.sort(key=lambda r: (-r[0], r[1]))
    lines = [
        f"{'section':<36} {label_a + ' self s':>12} {label_a + ' %':>8} "
        f"{label_b + ' self s':>12} {label_b + ' %':>8} {'Δ share':>9}"
    ]
    for _, name, sa, sb in rows[:k]:
        self_a = flat_a.get(name, {}).get("self_seconds", 0.0)
        self_b = flat_b.get(name, {}).get("self_seconds", 0.0)
        lines.append(
            f"{name:<36} {self_a:>12.3f} {sa:>7.1%} "
            f"{self_b:>12.3f} {sb:>7.1%} {sb - sa:>+8.1%}"
        )
    total_a = float(doc_a["total_seconds"])
    total_b = float(doc_b["total_seconds"])
    lines.append(
        f"{'total':<36} {total_a:>12.3f} {'':>8} {total_b:>12.3f}"
    )
    fp_a = doc_a.get("census_fingerprint")
    fp_b = doc_b.get("census_fingerprint")
    if fp_a and fp_b:
        verdict = "identical" if fp_a == fp_b else "DIFFERENT"
        lines.append(
            f"event census: {verdict} ({label_a}={fp_a} {label_b}={fp_b})"
        )
    return "\n".join(lines)
