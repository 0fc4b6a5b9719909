"""Chord-style greedy routing on the identifier circle.

Servers occupy dense integer ids on a circle of size ``n``; each server
keeps fingers to the servers at clockwise distances ``1, 2, 4, ...``.
Greedy routing repeatedly takes the largest finger not overshooting the
destination, so the hop sequence follows the binary decomposition of the
clockwise distance and the hop count is its popcount — the classic
O(log n) bound the paper assumes for record registration and query
routing.
"""

from __future__ import annotations

from typing import List

import numpy as np


class ChordRouter:
    """Finger-table routing over ``n`` dense ids."""

    def __init__(self, num_servers: int):
        if num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        self.num_servers = int(num_servers)

    def distance(self, src: int, dst: int) -> int:
        """Clockwise distance from *src* to *dst*."""
        self._check(src)
        self._check(dst)
        return (dst - src) % self.num_servers

    def hops(self, src: int, dst: int) -> int:
        """Number of greedy finger hops from *src* to *dst*."""
        return int(bin(self.distance(src, dst)).count("1"))

    def path(self, src: int, dst: int) -> List[int]:
        """The intermediate servers visited, ending at *dst*.

        Empty when ``src == dst``. Each element is the node after one
        greedy finger jump; consecutive elements are one network hop
        apart, which is what the latency simulation charges.
        """
        dist = self.distance(src, dst)
        out: List[int] = []
        current = src
        while dist > 0:
            jump = 1 << (dist.bit_length() - 1)
            current = (current + jump) % self.num_servers
            out.append(current)
            dist -= jump
        return out

    def _check(self, i: int) -> None:
        if not (0 <= i < self.num_servers):
            raise IndexError(f"server {i} out of range [0, {self.num_servers})")


def popcount(values: np.ndarray) -> np.ndarray:
    """Vectorized population count for non-negative int64 arrays."""
    v = np.asarray(values, dtype=np.uint64)
    count = np.zeros(v.shape, dtype=np.int64)
    while v.any():
        count += (v & np.uint64(1)).astype(np.int64)
        v >>= np.uint64(1)
    return count
