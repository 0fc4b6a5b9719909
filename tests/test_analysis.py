"""Tests for repro.analysis.model (Section IV equations and Table I)."""

import math

import pytest

from repro.analysis import (
    ModelParams,
    central_storage,
    central_update_overhead,
    roads_maintenance_overhead,
    roads_maintenance_per_node,
    roads_storage,
    roads_update_overhead,
    sword_storage,
    sword_update_overhead,
    table1,
    update_overheads,
)


class TestParams:
    def test_defaults_match_paper_example(self):
        p = ModelParams()
        assert (p.r, p.m, p.k, p.L) == (25, 100, 5, 4)
        assert p.t_r / p.t_s == pytest.approx(0.1)
        assert p.summary_size == 2500

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(r=0)
        with pytest.raises(ValueError):
            ModelParams(t_s=0)


class TestUpdateOverheads:
    def test_equation_1(self):
        p = ModelParams()
        expected = p.m * p.r * (p.N + p.k * p.n * math.log2(p.n)) / p.t_s
        assert roads_update_overhead(p) == pytest.approx(expected)

    def test_equation_2(self):
        p = ModelParams()
        expected = p.r**2 * p.K * p.N * math.log2(p.n) / p.t_r
        assert sword_update_overhead(p) == pytest.approx(expected)

    def test_equation_3(self):
        p = ModelParams()
        assert central_update_overhead(p) == pytest.approx(
            p.r * p.K * p.N / p.t_r
        )

    def test_roads_orders_below_sword_at_simulation_scale(self):
        """The headline claim, at the simulation's parameters (320 nodes,
        500 records, 16 attributes, 1000 buckets, t_r/t_s = 0.1)."""
        p = ModelParams(N=320, K=500, r=16, m=1000, n=320, k=8, L=3)
        ratio = sword_update_overhead(p) / roads_update_overhead(p)
        assert 5 <= ratio <= 1000

    def test_roads_far_below_sword_at_table1_scale(self):
        """With Table I's N=1000 owners of 10^4 records each, the gap is
        even wider (the summaries don't grow with the record volume)."""
        p = ModelParams()
        ratio = sword_update_overhead(p) / roads_update_overhead(p)
        assert ratio > 1000

    def test_sword_exceeds_central_by_r_logn(self):
        p = ModelParams()
        ratio = sword_update_overhead(p) / central_update_overhead(p)
        assert ratio == pytest.approx(p.r * math.log2(p.n))

    def test_roads_independent_of_record_count(self):
        a = roads_update_overhead(ModelParams(K=100))
        b = roads_update_overhead(ModelParams(K=1_000_000))
        assert a == b

    def test_sword_linear_in_records(self):
        a = sword_update_overhead(ModelParams(K=100))
        b = sword_update_overhead(ModelParams(K=200))
        assert b == pytest.approx(2 * a)

    def test_update_overheads_dict(self):
        out = update_overheads()
        assert set(out) == {"ROADS", "SWORD", "Central"}


class TestMaintenance:
    def test_per_node_scales_with_level(self):
        p = ModelParams()
        assert roads_maintenance_per_node(p, 0) == 0
        assert roads_maintenance_per_node(p, 3) == p.k**2 * 3

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            roads_maintenance_per_node(ModelParams(), 99)

    def test_equation_4_small(self):
        """A few summaries per second at most (paper: ~150 per t_s)."""
        p = ModelParams(n=5**7, L=7)
        per_ts = roads_maintenance_overhead(p) * p.t_s
        assert per_ts < 500
        assert roads_maintenance_overhead(p) < 10  # messages per second


class TestStorage:
    def test_roads_formula(self):
        p = ModelParams()
        assert roads_storage(p, level=2) == p.m * p.r * p.k * 3
        assert roads_storage(p) == p.m * p.r * p.k * (p.L + 1)

    def test_sword_formula(self):
        p = ModelParams()
        assert sword_storage(p) == pytest.approx(p.r**2 * p.K * p.N / p.n)

    def test_central_formula(self):
        p = ModelParams()
        assert central_storage(p) == p.r * p.K * p.N

    def test_ordering_matches_table1(self):
        t = table1()
        assert t["ROADS"] < t["SWORD"] < t["Central"]
        # ROADS is orders of magnitude below the others
        assert t["SWORD"] / t["ROADS"] > 100

    def test_roads_independent_of_records(self):
        assert roads_storage(ModelParams(K=10)) == roads_storage(
            ModelParams(K=10**7)
        )
