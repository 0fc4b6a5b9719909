"""Unit tests for repro.query.query."""

import pickle

import numpy as np
import pytest

from repro.query import EqualsPredicate, Query, RangePredicate
from repro.records import RecordStore, Schema, categorical, numeric
from repro.sim import Simulator
from repro.workload.dynamics import DynamicsConfig, RecordDynamics


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one predicate"):
            Query(())

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Query.of(RangePredicate("a", 0, 0.5), RangePredicate("a", 0.5, 1))

    def test_of(self):
        q = Query.of(RangePredicate("a", 0, 1), EqualsPredicate("c", "x"))
        assert q.dimensions == 2
        assert q.attributes == ["a", "c"]

    def test_unique_ids(self):
        a = Query.of(RangePredicate("a", 0, 1))
        b = Query.of(RangePredicate("a", 0, 1))
        assert a.query_id != b.query_id

    def test_requester(self):
        q = Query.of(RangePredicate("a", 0, 1), requester="org-1")
        assert q.requester == "org-1"
        q2 = q.with_requester("org-2")
        assert q2.requester == "org-2"
        assert q2.query_id == q.query_id


class TestStructure:
    def test_partition_by_kind(self):
        q = Query.of(RangePredicate("a", 0, 1), EqualsPredicate("c", "x"))
        assert [p.attribute for p in q.range_predicates()] == ["a"]

    def test_str_is_conjunction(self):
        q = Query.of(RangePredicate("a", 0, 1), EqualsPredicate("c", "x"))
        assert " AND " in str(q)

    def test_size_grows_with_dimensions(self):
        q2 = Query.of(*(RangePredicate(f"a{i}", 0, 1) for i in range(2)))
        q8 = Query.of(*(RangePredicate(f"a{i}", 0, 1) for i in range(8)))
        assert q8.size_bytes > q2.size_bytes
        # linear growth: header + 24/dim
        assert q8.size_bytes - q2.size_bytes == 6 * 24


class TestEvaluation:
    def test_mask_conjunction(self, unit_store):
        q = Query.of(
            RangePredicate("a", 0.0, 0.5), RangePredicate("b", 0.5, 1.0)
        )
        mask = q.mask(unit_store)
        a = unit_store.numeric_column("a")
        b = unit_store.numeric_column("b")
        assert np.array_equal(mask, (a <= 0.5) & (b >= 0.5))

    def test_match_count_and_select(self, unit_store):
        q = Query.of(RangePredicate("a", 0.0, 0.3))
        assert q.match_count(unit_store) == len(q.select(unit_store))

    def test_empty_store(self, unit_schema):
        from repro.records import RecordStore

        st = RecordStore(unit_schema)
        q = Query.of(RangePredicate("a", 0, 1))
        assert q.match_count(st) == 0
        assert q.mask(st).shape == (0,)

    def test_matches_record(self, unit_store):
        rec = unit_store.record_at(0)
        q = Query.of(RangePredicate("a", rec["a"], rec["a"]))
        assert q.matches_record(rec)
        q2 = Query.of(RangePredicate("a", rec["a"] + 0.001, 1.0))
        assert not q2.matches_record(rec) or rec["a"] >= rec["a"] + 0.001

    def test_mask_agrees_with_per_record(self, mixed_store):
        q = Query.of(
            RangePredicate("rate", 100, 700),
            EqualsPredicate("type", "camera"),
        )
        mask = q.mask(mixed_store)
        for i in range(len(mixed_store)):
            assert mask[i] == q.matches_record(mixed_store.record_at(i))


def per_predicate_mask(query, store):
    """The reference: one ``mask_range`` / ``mask_equals`` per predicate."""
    out = np.ones(len(store), dtype=bool)
    for p in query.predicates:
        out &= p.mask(store)
    return out


class TestOneBlockComparison:
    """``Query.mask`` compares every range column in one 2-D operation,
    with column positions and bounds compiled once per schema."""

    QUERIES = {
        "ranges": Query.of(
            RangePredicate("load", 0.2, 0.9), RangePredicate("rate", 100, 700)
        ),
        "equalities": Query.of(
            EqualsPredicate("encoding", "MPEG2"), EqualsPredicate("type", "gps")
        ),
        "mixed": Query.of(
            EqualsPredicate("type", "camera"),
            RangePredicate("rate", 0.0, 800.0),
            EqualsPredicate("encoding", "H264"),
            RangePredicate("load", 0.1, 1.0),
        ),
        "first_predicate_excludes_all": Query.of(
            RangePredicate("rate", 2000.0, 3000.0), RangePredicate("load", 0, 1)
        ),
        "unknown_value": Query.of(
            RangePredicate("load", 0, 1), EqualsPredicate("type", "radar")
        ),
    }

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_equals_per_predicate_reference(self, name, mixed_store):
        query = self.QUERIES[name]
        one_record = mixed_store.select(np.arange(len(mixed_store)) == 3)
        empty = RecordStore(mixed_store.schema)
        for store in (mixed_store, one_record, empty, mixed_store):
            mask = query.mask(store)
            assert mask.dtype == bool and mask.shape == (len(store),)
            assert np.array_equal(mask, per_predicate_mask(query, store))
            assert query.match_count(store) == int(mask.sum())
            selected = query.select(store)
            assert len(selected) == int(mask.sum())
            assert np.array_equal(
                selected.numeric_matrix, store.numeric_matrix[mask]
            )
        if name == "first_predicate_excludes_all":
            assert not query.mask(mixed_store).any()

    def test_interleaved_schema_matches_record_by_record(self):
        schema = Schema([
            categorical("kind"), numeric("x", -5.0, 5.0), categorical("zone"),
            numeric("y"), numeric("z", 0.0, 100.0),
        ])
        rng = np.random.default_rng(3)
        n = 40
        store = RecordStore.from_arrays(
            schema,
            np.column_stack([
                rng.uniform(-5, 5, n), rng.random(n), rng.uniform(0, 100, n)
            ]),
            [rng.choice(["a", "b"], n).tolist(), rng.choice(["n", "s"], n).tolist()],
        )
        query = Query.of(
            RangePredicate("z", 10.0, 90.0), EqualsPredicate("zone", "n"),
            RangePredicate("x", -4.0, 2.5),
        )
        mask = query.mask(store)
        assert 0 < mask.sum() < n
        assert np.array_equal(mask, per_predicate_mask(query, store))
        for i in range(n):
            assert mask[i] == query.matches_record(store.record_at(i))

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_one_query_against_two_column_orders(self, order):
        rng = np.random.default_rng(9)
        a, b = rng.random(50), rng.uniform(10.0, 20.0, 50)
        ab = RecordStore.from_arrays(
            Schema([numeric("a"), numeric("b", 10.0, 20.0)]),
            np.column_stack([a, b]), [],
        )
        ba = RecordStore.from_arrays(
            Schema([numeric("b", 10.0, 20.0), categorical("c"), numeric("a")]),
            np.column_stack([b, a]), [["x"] * 50],
        )
        query = Query.of(RangePredicate("a", 0.2, 0.7), RangePredicate("b", 12.0, 18.0))
        expected = (a >= 0.2) & (a <= 0.7) & (b >= 12.0) & (b <= 18.0)
        stores = (ab, ba)
        for _ in range(2):  # compiled, then cached, in either order
            for i in order:
                assert np.array_equal(query.mask(stores[i]), expected)
                assert query.match_count(stores[i]) == int(expected.sum())

    def test_record_churn_between_two_masks_is_seen(self, unit_store):
        query = Query.of(RangePredicate("a", 0.0, 0.5), RangePredicate("c", 0.25, 1.0))
        before = query.mask(unit_store)
        assert np.array_equal(before, per_predicate_mask(query, unit_store))
        dynamics = RecordDynamics(
            Simulator(), [unit_store], np.random.default_rng(1),
            DynamicsConfig(change_fraction=1.0, step_sigma=0.3),
        )
        assert dynamics.step() == len(unit_store)
        after = query.mask(unit_store)
        assert np.array_equal(after, per_predicate_mask(query, unit_store))
        assert not np.array_equal(before, after)
        unit_store.update_numeric(0, "a", 0.25)
        unit_store.update_numeric(0, "c", 0.75)
        assert query.mask(unit_store)[0]
        unit_store.update_numeric(0, "a", 0.75)
        assert not query.mask(unit_store)[0]

    def test_unknown_or_categorical_range_attribute_raises(self, mixed_store):
        with pytest.raises(KeyError, match="no attribute 'nope'"):
            Query.of(RangePredicate("nope", 0, 1)).mask(mixed_store)
        with pytest.raises(ValueError, match="not numeric"):
            Query.of(RangePredicate("type", 0, 1)).mask(mixed_store)


class TestCachesStayOffTheValue:
    """The cached size and plans are not part of the query's value."""

    def test_size_is_computed_once_and_identity_is_unchanged(self, mixed_store):
        preds = (RangePredicate("rate", 100, 700), EqualsPredicate("type", "camera"))
        used = Query(preds, query_id=7, requester="org-1")
        fresh = Query(preds, query_id=7, requester="org-1")
        assert used.size_bytes == 16 + 24 + 8 + len("camera")
        used.mask(mixed_store)
        assert used.size_bytes == fresh.size_bytes
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert "_plans" not in repr(used) and "size_bytes" not in repr(used)

    def test_with_requester_starts_fresh(self, mixed_store):
        query = Query.of(RangePredicate("rate", 100, 700))
        query.mask(mixed_store), query.size_bytes
        other = query.with_requester("org-2")
        assert other._plans == {} and other._plans is not query._plans
        assert other.size_bytes == query.size_bytes
        assert np.array_equal(other.mask(mixed_store), query.mask(mixed_store))

    def test_pickle_round_trip_before_and_after_use(self, mixed_store):
        query = Query.of(
            RangePredicate("rate", 100, 700), EqualsPredicate("type", "camera"),
            requester="org-1",
        )
        expected = per_predicate_mask(query, mixed_store)
        for _ in range(2):
            clone = pickle.loads(pickle.dumps(query))
            assert clone == query and clone.size_bytes == query.size_bytes
            assert np.array_equal(clone.mask(mixed_store), expected)
            assert np.array_equal(query.mask(mixed_store), expected)
