"""Tests for dynamic records (repro.workload.dynamics) and the full
dynamics + aggregation + delta-propagation loop."""

import numpy as np
import pytest

from repro.records import RecordStore, Schema, categorical, numeric
from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.sim import Simulator
from repro.summaries import SummaryConfig
from repro.workload import (
    DynamicsConfig,
    RecordDynamics,
    WorkloadConfig,
    generate_node_stores,
    generate_queries,
    merge_stores,
)
from repro.workload.dynamics import MOVING_FRACTION, STEP_SCALE


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicsConfig(record_interval=0)

    @pytest.mark.parametrize("field", ["record_interval"])
    def test_nan_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            DynamicsConfig(**{field: float("nan")})


class TestRandomWalk:
    def make(self, **kwargs):
        wcfg = WorkloadConfig(num_nodes=4, records_per_node=100, seed=3)
        stores = generate_node_stores(wcfg)
        sim = Simulator()
        dyn = RecordDynamics(
            sim, stores, np.random.default_rng(0), DynamicsConfig(**kwargs)
        )
        return wcfg, stores, sim, dyn

    def test_step_changes_expected_fraction(self):
        _, stores, _, dyn = self.make()
        before = stores[0].numeric_matrix.copy()
        changed = dyn.step()
        assert changed == 4 * 20  # MOVING_FRACTION of 100 records each
        after = stores[0].numeric_matrix
        rows_changed = (np.abs(after - before).sum(axis=1) > 0).sum()
        assert rows_changed <= 20  # clipping can leave some unchanged
        assert rows_changed >= 12

    def test_values_stay_in_bounds(self):
        _, stores, _, dyn = self.make()
        for _ in range(10):
            dyn.step()
        for st in stores:
            m = st.numeric_matrix
            assert m.min() >= 0.0 and m.max() <= 1.0

    def test_periodic_scheduling(self):
        _, _, sim, dyn = self.make(record_interval=6.0)
        sim.run(until=30.5)
        assert dyn.epochs == 5
        dyn.stop()
        sim.run(until=100.0)
        assert dyn.epochs == 5


def reference_perturb(matrix, schema, rng):
    """The per-column loop ``RecordDynamics._perturb`` ran before it
    became one block write, on a plain writable *matrix*: one normal
    draw and one fancy-indexed column write per attribute."""
    n = matrix.shape[0]
    if n == 0:
        return 0
    k = max(1, int(round(n * MOVING_FRACTION)))
    rows = rng.choice(n, size=k, replace=False)
    for spec in schema.numeric_attributes:
        col = schema.numeric_position(spec.name)
        lo, hi = spec.bounds
        steps = rng.normal(0.0, STEP_SCALE * (hi - lo), k)
        matrix[rows, col] = np.clip(matrix[rows, col] + steps, lo, hi)
    return k


class TestBlockWriteEqualsColumnLoop:
    """One draw, one gather/add/clip/scatter — the same bits, and the
    same generator state afterwards, as the loop it replaced."""

    #: uneven spans and offsets, a categorical between the numerics
    SCHEMA = Schema([
        numeric("load", 0.0, 1.0), numeric("ram", 0.5, 512.0),
        categorical("os"), numeric("temp", -40.0, 85.0),
        numeric("rate", 1e-3, 1e4), numeric("tiny", -1e-6, 1e-6),
    ])

    def stores(self, seed):
        rng = np.random.default_rng(seed)
        bounds = np.array([a.bounds for a in self.SCHEMA.numeric_attributes])
        out = []
        for n in (0, 1, 2, 57, 300):
            values = rng.uniform(bounds[:, 0], bounds[:, 1], (n, len(bounds)))
            values[: n // 3] = bounds[:, rng.integers(0, 2)]  # rows on an edge
            out.append(RecordStore.from_arrays(
                self.SCHEMA, values, [rng.choice(["a", "b"], n).tolist()]
            ))
        return out

    def test_bit_for_bit(self):
        stores = self.stores(seed=4)
        expected = [s.numeric_matrix.copy() for s in stores]
        rng, ref_rng = np.random.default_rng(99), np.random.default_rng(99)
        dyn = RecordDynamics(Simulator(), stores, rng)
        dyn.stop()
        # Enough epochs for the walk to reach the edges and be clipped.
        for _ in range(40):
            changed = dyn.step()
            ref_changed = sum(
                reference_perturb(m, self.SCHEMA, ref_rng) for m in expected
            )
            assert changed == ref_changed
            for store, matrix in zip(stores, expected):
                assert store.numeric_matrix.tobytes() == matrix.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_step_moves_every_nonempty_store_stamp(self):
        stores = self.stores(seed=5)
        dyn = RecordDynamics(Simulator(), stores, np.random.default_rng(1))
        dyn.stop()
        before = [s.write_stamp for s in stores]
        dyn.step()
        moved = [s.write_stamp != b for s, b in zip(stores, before)]
        assert moved == [len(s) > 0 for s in stores]


class TestDynamicFederation:
    def test_summaries_track_drifting_data(self):
        """After any number of drift epochs, a refresh restores exact
        query results — the soft-state freshness guarantee."""
        wcfg = WorkloadConfig(num_nodes=16, records_per_node=80, seed=5)
        stores = generate_node_stores(wcfg)
        system = RoadsSystem.build(
            RoadsConfig(
                num_nodes=16,
                records_per_node=80,
                max_children=3,
                summary=SummaryConfig(histogram_buckets=80),
                delta_updates=True,
                seed=5,
            ),
            stores,
        )
        dyn = RecordDynamics(
            system.sim,
            stores,
            np.random.default_rng(7),
            DynamicsConfig(record_interval=6.0),
        )
        # Stepped by hand: query execution advances virtual time, which
        # would otherwise let epochs fire mid-check.
        dyn.pause()
        queries = generate_queries(wcfg, num_queries=5, dimensions=2)
        for _ in range(5):
            system.sim.run(until=system.sim.now + 60.0)
            for _ in range(10):  # 10 t_r epochs
                dyn.step()
            system.refresh()  # one t_s epoch
            reference = merge_stores(stores)
            for q in queries:
                o = system.search(SearchRequest(q, client_node=0)).outcome
                assert o.total_matches == q.match_count(reference)

    def test_small_steps_mostly_free_under_delta(self):
        """Drift confined to the deepest leaf's store changes the branch
        summaries on one root path only: delta epochs ship far fewer full
        summaries than the federation has edges."""
        wcfg = WorkloadConfig(num_nodes=16, records_per_node=80, seed=6)
        stores = generate_node_stores(wcfg)
        system = RoadsSystem.build(
            RoadsConfig(
                num_nodes=16,
                records_per_node=80,
                max_children=3,
                summary=SummaryConfig(histogram_buckets=10),
                delta_updates=True,
                seed=6,
            ),
            stores,
        )
        leaf = max(system.hierarchy, key=lambda s: s.depth)
        RecordDynamics(
            system.sim,
            [stores[leaf.server_id]],
            np.random.default_rng(8),
            DynamicsConfig(record_interval=6.0),
        )
        full, total = 0, 0
        for _ in range(10):
            system.sim.run(until=system.sim.now + 6.0)
            report = system.refresh()
            full += report.aggregation.full_reports
            total += report.aggregation.messages
        assert 0 < full < total * 0.5  # most reports were keep-alives
