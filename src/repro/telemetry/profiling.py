"""The in-tree call-path recorder: hierarchical wall-clock frames.

:class:`CallPathProfiler` is a call-path tree. Frames are keyed by
(parent path, name); ``enter(name)`` / ``exit()`` push and pop the
current path, accumulating *cumulative* wall seconds
(``time.perf_counter``) per frame. *Self* seconds — cumulative minus the
children's cumulative — form an exact partition of the root total. The
engine wraps every event callback in a frame named after the event's
schedule-site label (``net.deliver:query``, ``update.epoch`` …), so an
armed run's dispatch time decomposes by event kind and plane.

Host time is reported by ``perf/run.py --workload W --trace 1``
(per-layer shares, plus a Chrome trace that loads in Perfetto or
speedscope), from outside and with no hook in ``src/``. This recorder
stays only until ``perf/probes.py`` stops measuring its armed cost
(``telemetry.probe.profiler_ratio``); nothing in ``src/`` arms it.

**Non-perturbation.** The profiler only reads host clocks and Python
state: it sends no messages, consumes no simulation randomness, and
never touches telemetry ids, so a seeded run with it attached is
byte-identical — same outcomes, same latencies — to the same run
without it. ``tests/test_profiling.py`` asserts this tripwire per seed.

The disabled path stays free: instrumented call sites cache the profiler
reference (``None`` by default) and guard on a single ``is not None``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Tuple


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
            "total_seconds": sum(
                c.cum_wall for c in self._root.children.values()
            ),
            "tree": self._root.to_dict(),
        }
