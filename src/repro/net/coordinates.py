"""Synthesized Internet delay space.

The paper simulates pairwise Internet latencies with the 5-dimensional
synthesized coordinate system of Zhang et al. [12] ("Measurement-based
analysis, modeling, and synthesis of the Internet delay space", IMC 2006).
We reproduce the same mechanism: each node is embedded at a point in a
5-D Euclidean space and the one-way delay between two nodes is an affine
function of their Euclidean distance, plus an optional deterministic
per-pair jitter. Defaults are calibrated so one-way delays average
roughly 100 ms, matching the paper's per-hop scale (its ~800 ms ROADS
query latencies over 3–5 hierarchy levels of client redirection).
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

#: dimensionality of the synthesized coordinate space (paper ref [12])
DELAY_SPACE_DIMENSIONS = 5


class DelaySpace:
    """Euclidean coordinate embedding yielding pairwise one-way delays."""

    def __init__(
        self,
        num_nodes: int,
        rng: np.random.Generator,
        *,
        dimensions: int = DELAY_SPACE_DIMENSIONS,
        scale_ms: float = 100.0,
        base_ms: float = 10.0,
        jitter_ms: float = 5.0,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        if scale_ms < 0 or base_ms < 0 or jitter_ms < 0:
            raise ValueError("delay parameters must be non-negative")
        self.num_nodes = int(num_nodes)
        self.dimensions = int(dimensions)
        self.scale_ms = float(scale_ms)
        self.base_ms = float(base_ms)
        self.jitter_ms = float(jitter_ms)
        self.coordinates = rng.random((self.num_nodes, self.dimensions))
        # Deterministic per-pair jitter from a symmetric random matrix.
        if jitter_ms > 0:
            raw = rng.random((self.num_nodes, self.num_nodes))
            self._jitter = (raw + raw.T) / 2.0 * jitter_ms
            self._jitter.flags.writeable = False
        else:
            self._jitter = None
        # Read-only, so the memo below can never go stale.
        self.coordinates.flags.writeable = False
        #: one-way delays in seconds already computed, ``[min][max]`` of
        #: the unordered pair (nested: no out-of-range pair aliases a
        #: key). :meth:`latency_ms` is exactly symmetric (``d.dot(d)``
        #: squares each component, the jitter matrix equals its
        #: transpose), so both legs share the float the first computed.
        self._latency: Dict[int, Dict[int, float]] = {}

    def latency_ms(self, a: int, b: int) -> float:
        """One-way delay between nodes *a* and *b* in milliseconds.

        Symmetric, zero on the diagonal, strictly positive off it.
        """
        n = self.num_nodes
        if not (0 <= a < n and 0 <= b < n):
            self._check(a)
            self._check(b)
        if a == b:
            return 0.0
        # ``np.linalg.norm``'s own expression for a real vector, without
        # its Python layers: the same float, bit for bit.
        d = self.coordinates[a] - self.coordinates[b]
        dist = math.sqrt(d.dot(d))
        jitter = float(self._jitter[a, b]) if self._jitter is not None else 0.0
        return self.base_ms + self.scale_ms * dist + jitter

    def latency(self, a: int, b: int) -> float:
        """One-way delay in seconds (the simulator's clock unit).

        A memo hit is two dictionary reads; only a miss checks bounds.
        """
        if a > b:
            a, b = b, a
        row = self._latency.get(a)
        if row is not None:
            seconds = row.get(b)
            if seconds is not None:
                return seconds
        seconds = self.latency_ms(a, b) / 1000.0  # bounds-checked
        self._latency.setdefault(a, {})[b] = seconds
        return seconds

    def _check(self, i: int) -> None:
        if not (0 <= i < self.num_nodes):
            raise IndexError(f"node index {i} out of range [0, {self.num_nodes})")

    def matrix_ms(self) -> np.ndarray:
        """Full pairwise one-way delay matrix in milliseconds."""
        diff = self.coordinates[:, None, :] - self.coordinates[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=2))
        out = self.base_ms + self.scale_ms * dist
        if self._jitter is not None:
            out = out + self._jitter
        np.fill_diagonal(out, 0.0)
        return out

    def mean_latency_ms(self) -> float:
        """Average off-diagonal one-way delay."""
        m = self.matrix_ms()
        n = self.num_nodes
        if n == 1:
            return 0.0
        return float((m.sum()) / (n * (n - 1)))

    def nearest(self, node: int, candidates) -> int:
        """The candidate with the smallest delay from *node*."""
        cands = list(candidates)
        if not cands:
            raise ValueError("candidates must be non-empty")
        lats = [self.latency(node, c) for c in cands]
        return cands[int(np.argmin(lats))]
