"""Tests for repro.workload (distributions, generator, queries)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.query import selectivity
from repro.roads import SearchRequest
from repro.sim.rng import SeedSequenceFactory
from repro.workload import (
    FAMILY_ORDER,
    WorkloadConfig,
    gaussian_values,
    generate_node_store,
    generate_node_stores,
    generate_queries,
    generate_query,
    generate_selectivity_groups,
    make_schema,
    merge_stores,
    overlap_values,
    pareto_values,
    query_attribute_cycle,
    range_values,
    uniform_values,
)
from repro.workload.generator import RANGE_LENGTH


class TestDistributions:
    def rng(self):
        return np.random.default_rng(11)

    def test_uniform_in_unit_interval(self):
        v = uniform_values(self.rng(), 1000)
        assert v.min() >= 0 and v.max() <= 1
        assert abs(v.mean() - 0.5) < 0.05

    def test_range_confined(self):
        v = range_values(self.rng(), 1000, 0.5)
        assert v.max() - v.min() <= 0.5 + 1e-12

    def test_range_invalid_length(self):
        with pytest.raises(ValueError):
            range_values(self.rng(), 10, 0.0)
        with pytest.raises(ValueError):
            range_values(self.rng(), 10, 1.5)

    def test_gaussian_truncated(self):
        v = gaussian_values(self.rng(), 1000, mean=0.5, sigma=0.3)
        assert v.min() >= 0 and v.max() <= 1

    def test_gaussian_concentrated(self):
        v = gaussian_values(self.rng(), 1000, mean=0.5, sigma=0.01)
        assert abs(v.mean() - 0.5) < 0.01
        assert v.std() < 0.02

    def test_gaussian_invalid_sigma(self):
        with pytest.raises(ValueError):
            gaussian_values(self.rng(), 10, sigma=0)

    def test_pareto_heavy_tail_shape(self):
        v = pareto_values(self.rng(), 5000, shape=2.0, scale=0.05)
        assert v.min() >= 0.05 - 1e-12
        assert v.max() <= 1.0
        # median near scale * 2^(1/shape)
        assert np.median(v) == pytest.approx(0.05 * 2 ** 0.5, rel=0.15)

    def test_pareto_invalid_shape(self):
        with pytest.raises(ValueError):
            pareto_values(self.rng(), 10, shape=0)

    def test_overlap_values_confined(self):
        v = overlap_values(self.rng(), 500, 0.01)
        assert v.max() - v.min() <= 0.01 + 1e-12

    def test_overlap_invalid(self):
        with pytest.raises(ValueError):
            overlap_values(self.rng(), 10, 0.0)


class TestWorkloadConfig:
    def test_defaults_match_paper(self):
        cfg = WorkloadConfig()
        assert cfg.num_nodes == 320
        assert cfg.records_per_node == 500
        assert cfg.num_attributes == 16

    def test_attribute_names_grouped(self):
        assert WorkloadConfig().attribute_names() == [
            f"{family}{i}" for family in "urgp" for i in range(4)
        ]

    def test_family_of(self):
        cfg = WorkloadConfig()
        assert cfg.family_of("u3") == "uniform"
        assert cfg.family_of("p0") == "pareto"
        with pytest.raises(KeyError):
            cfg.family_of("x9")

    def test_invalid(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_nodes=0)
        with pytest.raises(ValueError):
            WorkloadConfig(overlap_factor=0)
        # min(1.0, nan / n) is 1.0: a NaN factor would confine nothing.
        with pytest.raises(ValueError, match="overlap_factor"):
            WorkloadConfig(overlap_factor=float("nan"))


class TestGenerator:
    def test_store_shape(self):
        cfg = WorkloadConfig(num_nodes=4, records_per_node=30, seed=2)
        stores = generate_node_stores(cfg)
        assert len(stores) == 4
        assert all(len(s) == 30 for s in stores)
        assert all(s.schema == make_schema(cfg) for s in stores)

    def test_deterministic(self):
        cfg = WorkloadConfig(num_nodes=3, records_per_node=20, seed=9)
        a = generate_node_stores(cfg)
        b = generate_node_stores(cfg)
        for x, y in zip(a, b):
            assert np.allclose(x.numeric_matrix, y.numeric_matrix)

    def test_nodes_differ(self):
        cfg = WorkloadConfig(num_nodes=2, records_per_node=20, seed=9)
        a, b = generate_node_stores(cfg)
        assert not np.allclose(a.numeric_matrix, b.numeric_matrix)

    def test_range_family_confined_per_node(self):
        cfg = WorkloadConfig(num_nodes=1, records_per_node=400, seed=1)
        st = generate_node_store(cfg, 0)
        col = st.numeric_column("r0")
        assert col.max() - col.min() <= RANGE_LENGTH + 1e-12

    def test_overlap_factor_mode(self):
        cfg = WorkloadConfig(
            num_nodes=10, records_per_node=200, overlap_factor=2.0, seed=1
        )
        st = generate_node_store(cfg, 0)
        # first 8 attributes confined to Of/num_nodes = 0.2
        for name in cfg.attribute_names()[:8]:
            col = st.numeric_column(name)
            assert col.max() - col.min() <= 0.2 + 1e-12
        # remaining attributes keep their family behaviour
        g = st.numeric_column("g0")
        assert g.max() <= 1.0

    def test_merge_stores(self):
        cfg = WorkloadConfig(num_nodes=3, records_per_node=10, seed=2)
        stores = generate_node_stores(cfg)
        merged = merge_stores(stores)
        assert len(merged) == 30

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_stores([])


class TestQueries:
    def test_dimension_cycle_matches_paper_default(self):
        cfg = WorkloadConfig()
        names = query_attribute_cycle(cfg, 6)
        # two uniform, two range, one gaussian, one pareto
        fams = [cfg.family_of(n) for n in names]
        assert fams.count("uniform") == 2
        assert fams.count("range") == 2
        assert fams.count("gaussian") == 1
        assert fams.count("pareto") == 1

    def test_cycle_eight_dims(self):
        cfg = WorkloadConfig()
        fams = [cfg.family_of(n) for n in query_attribute_cycle(cfg, 8)]
        assert all(fams.count(f) == 2 for f in FAMILY_ORDER)

    def test_cycle_bounds(self):
        cfg = WorkloadConfig()
        with pytest.raises(ValueError):
            query_attribute_cycle(cfg, 0)
        with pytest.raises(ValueError):
            query_attribute_cycle(cfg, 17)

    def test_default_query_shape(self):
        cfg = WorkloadConfig(seed=4)
        rng = SeedSequenceFactory(4).fresh_generator("q")
        q = generate_query(cfg, rng)
        assert q.dimensions == 6
        for p in q.range_predicates():
            assert p.length == pytest.approx(0.25)
            assert 0 <= p.lo and p.hi <= 1

    def test_generate_queries_deterministic(self):
        cfg = WorkloadConfig(seed=4)
        a = generate_queries(cfg, num_queries=5)
        b = generate_queries(cfg, num_queries=5)
        for x, y in zip(a, b):
            assert str(x) == str(y)

    def test_invalid_range_length(self):
        cfg = WorkloadConfig()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_query(cfg, rng, range_length=0.0)


class TestSelectivityGroups:
    def test_groups_hit_targets(self):
        cfg = WorkloadConfig(num_nodes=16, records_per_node=200, seed=8)
        stores = generate_node_stores(cfg)
        reference = merge_stores(stores)
        groups = generate_selectivity_groups(
            cfg,
            reference,
            targets=(0.01, 0.05),
            queries_per_group=10,
            tolerance=0.5,
        )
        assert [g.target for g in groups] == [0.01, 0.05]
        for g in groups:
            assert len(g.queries) == 10
            for q in g.queries:
                s = selectivity(q, reference)
                assert abs(s - g.target) <= 0.5 * g.target + 1e-9


class TestZipfSkew:
    """Record counts: every node holds exactly ``records_per_node``, as in
    the paper's Section V, and a federation whose stores differ in size
    is still searched exactly."""

    def test_fixed_default(self):
        cfg = WorkloadConfig(num_nodes=8, records_per_node=100, seed=1)
        assert [len(s) for s in generate_node_stores(cfg)] == [100] * 8

    def test_skewed_federation_queries_exact(self):
        """ROADS stays exact on a heterogeneous federation."""
        from repro.roads import RoadsConfig, RoadsSystem
        from repro.summaries import SummaryConfig

        cfg = WorkloadConfig(num_nodes=16, records_per_node=60, seed=9)
        stores = [
            generate_node_store(replace(cfg, records_per_node=n), i)
            for i, n in enumerate([1, 5, 60, 400] * 4)
        ]
        system = RoadsSystem.build(
            RoadsConfig(num_nodes=16, records_per_node=60, max_children=3,
                        summary=SummaryConfig(histogram_buckets=60), seed=9),
            stores,
        )
        reference = merge_stores(stores)
        for q in generate_queries(cfg, num_queries=5, dimensions=2):
            o = system.search(SearchRequest(q, client_node=0)).outcome
            assert o.total_matches == q.match_count(reference)
