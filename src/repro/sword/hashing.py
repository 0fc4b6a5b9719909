"""Locality-preserving hashing for the SWORD rings.

SWORD (Oppenheimer et al., HPDC 2005 — the paper's DHT-based comparison
point) organizes servers into one DHT ring per searchable attribute, using
a locality-preserving hash: a range of attribute values maps to a
contiguous segment of the ring, so a range query is answered by walking
the servers of that segment.

We model all rings as sub-rings of a single identifier circle (footnote 1
of the paper): ``n`` servers sit at dense integer ids ``0..n-1``; the
sub-ring for attribute ``j`` consists of the servers with ``id % r == j``.
A value ``v`` in [0, 1] of attribute ``j`` maps to the ``floor(v * n_j)``-th
member of sub-ring ``j``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np


class LocalityHash:
    """Maps (attribute index, value) to responsible servers."""

    def __init__(self, num_servers: int, num_attributes: int):
        if num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        if num_attributes < 1:
            raise ValueError("num_attributes must be >= 1")
        if num_servers < num_attributes:
            raise ValueError(
                f"need at least one server per ring: "
                f"{num_servers} servers < {num_attributes} attributes"
            )
        self.num_servers = int(num_servers)
        self.num_attributes = int(num_attributes)
        self._members: List[np.ndarray] = [
            np.arange(j, self.num_servers, self.num_attributes, dtype=np.int64)
            for j in range(self.num_attributes)
        ]

    def members(self, ring: int) -> np.ndarray:
        """Server ids in *ring*, in ring order."""
        self._check_ring(ring)
        return self._members[ring]

    def ring_size(self, ring: int) -> int:
        return int(self._members[ring].shape[0])

    def responsible(self, ring: int, values) -> np.ndarray:
        """Server id(s) responsible for value(s) in [0, 1] on *ring*."""
        self._check_ring(ring)
        members = self._members[ring]
        vals = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
        idx = np.minimum(
            (vals * members.shape[0]).astype(np.int64), members.shape[0] - 1
        )
        return members[idx]

    def segment(self, ring: int, lo: float, hi: float) -> np.ndarray:
        """The contiguous servers responsible for range [lo, hi] on *ring*."""
        if lo > hi:
            raise ValueError(f"invalid range [{lo}, {hi}]")
        self._check_ring(ring)
        members = self._members[ring]
        m = members.shape[0]
        first = min(int(np.clip(lo, 0.0, 1.0) * m), m - 1)
        last = min(int(np.clip(hi, 0.0, 1.0) * m), m - 1)
        return members[first : last + 1]

    def _check_ring(self, ring: int) -> None:
        if not (0 <= ring < self.num_attributes):
            raise IndexError(
                f"ring {ring} out of range [0, {self.num_attributes})"
            )
