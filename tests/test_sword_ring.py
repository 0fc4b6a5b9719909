"""Unit tests for repro.sword.ring and repro.sword.hashing."""

import numpy as np
import pytest

from repro.sword import ChordRouter, LocalityHash, popcount


class TestPopcount:
    def test_known_values(self):
        assert popcount(np.array([0, 1, 2, 3, 255])).tolist() == [0, 1, 1, 2, 8]

    def test_matches_python_bitcount(self):
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 2**40, size=100)
        got = popcount(vals)
        want = [bin(int(v)).count("1") for v in vals]
        assert got.tolist() == want


class TestChordRouter:
    def test_distance_wraps(self):
        r = ChordRouter(10)
        assert r.distance(8, 2) == 4
        assert r.distance(2, 8) == 6
        assert r.distance(5, 5) == 0

    def test_hops_are_popcount_of_distance(self):
        r = ChordRouter(64)
        for src, dst in [(0, 63), (5, 5), (10, 42)]:
            assert r.hops(src, dst) == bin((dst - src) % 64).count("1")

    def test_hops_bounded_by_log(self):
        r = ChordRouter(512)
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b = rng.integers(0, 512, 2)
            assert r.hops(int(a), int(b)) <= 9  # log2(512)

    def test_path_reaches_destination(self):
        r = ChordRouter(37)
        rng = np.random.default_rng(2)
        for _ in range(100):
            a, b = int(rng.integers(0, 37)), int(rng.integers(0, 37))
            path = r.path(a, b)
            if a == b:
                assert path == []
            else:
                assert path[-1] == b
                assert len(path) == r.hops(a, b)

    def test_path_strictly_approaches(self):
        r = ChordRouter(64)
        path = r.path(3, 60)
        dist = [(60 - p) % 64 for p in [3] + path]
        assert dist == sorted(dist, reverse=True)

    def test_bounds_checked(self):
        r = ChordRouter(8)
        with pytest.raises(IndexError):
            r.hops(0, 8)
        with pytest.raises(ValueError):
            ChordRouter(0)


class TestLocalityHash:
    def test_membership_partition(self):
        h = LocalityHash(20, 4)
        all_members = np.concatenate([h.members(j) for j in range(4)])
        assert sorted(all_members.tolist()) == list(range(20))

    def test_ring_of_server(self):
        h = LocalityHash(20, 4)
        for s in range(20):
            assert s in h.members(h.ring_of_server(s)).tolist()

    def test_ring_sizes_balanced(self):
        h = LocalityHash(22, 4)
        sizes = [h.ring_size(j) for j in range(4)]
        assert max(sizes) - min(sizes) <= 1

    def test_locality_preserved(self):
        """Nearby values map to the same or adjacent ring members."""
        h = LocalityHash(64, 4)
        a = h.responsible(0, 0.50)
        b = h.responsible(0, 0.501)
        members = h.members(0).tolist()
        ia, ib = members.index(int(a)), members.index(int(b))
        assert abs(ia - ib) <= 1

    def test_responsible_vectorized(self):
        h = LocalityHash(64, 4)
        vals = np.linspace(0, 1, 33)
        dests = h.responsible(1, vals)
        assert all(int(d) % 4 == 1 for d in dests)
        # Monotone: larger value -> same or later member.
        members = h.members(1).tolist()
        idx = [members.index(int(d)) for d in dests]
        assert idx == sorted(idx)

    def test_boundary_values(self):
        h = LocalityHash(64, 4)
        assert int(h.responsible(0, 0.0)) == h.members(0)[0]
        assert int(h.responsible(0, 1.0)) == h.members(0)[-1]

    def test_segment_contiguous_and_covering(self):
        h = LocalityHash(64, 4)
        seg = h.segment(2, 0.25, 0.50)
        members = h.members(2).tolist()
        idx = [members.index(int(s)) for s in seg]
        assert idx == list(range(idx[0], idx[-1] + 1))
        # every value in the range maps inside the segment
        for v in np.linspace(0.25, 0.5, 20):
            assert int(h.responsible(2, v)) in set(int(s) for s in seg)

    def test_segment_size_proportional_to_range(self):
        h = LocalityHash(320, 16)  # 20 servers per ring
        seg = h.segment(0, 0.0, 0.25)
        assert len(seg) in (5, 6)  # ~alpha * n / r

    def test_segment_invalid_range(self):
        h = LocalityHash(16, 4)
        with pytest.raises(ValueError):
            h.segment(0, 0.7, 0.3)

    def test_ring_bounds(self):
        h = LocalityHash(16, 4)
        with pytest.raises(IndexError):
            h.members(4)

    def test_more_attrs_than_servers_rejected(self):
        with pytest.raises(ValueError, match="one server per ring"):
            LocalityHash(3, 5)
