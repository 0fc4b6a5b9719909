"""Unit tests for repro.records.store."""

import numpy as np
import pytest

from repro.records import RecordStore, ResourceRecord, Schema, categorical, numeric


@pytest.fixture
def schema():
    return Schema([numeric("a"), numeric("b"), categorical("c")])


def make_store(schema, n=10, seed=0):
    rng = np.random.default_rng(seed)
    cats = ["x" if i % 2 == 0 else "y" for i in range(n)]
    return RecordStore.from_arrays(schema, rng.random((n, 2)), [cats])


class TestConstruction:
    def test_empty(self, schema):
        st = RecordStore(schema)
        assert len(st) == 0
        assert st.size_bytes == 0

    def test_from_arrays(self, schema):
        st = make_store(schema, 10)
        assert len(st) == 10
        assert st.vocabulary("c") == ("x", "y")

    def test_from_arrays_bad_shape(self, schema):
        with pytest.raises(ValueError, match="shape"):
            RecordStore.from_arrays(schema, np.zeros((5, 3)), [["x"] * 5])

    def test_from_arrays_wrong_cat_count(self, schema):
        with pytest.raises(ValueError, match="categorical columns"):
            RecordStore.from_arrays(schema, np.zeros((5, 2)), [])

    def test_from_arrays_wrong_cat_length(self, schema):
        with pytest.raises(ValueError, match="length"):
            RecordStore.from_arrays(schema, np.zeros((5, 2)), [["x"] * 4])

    def test_from_records(self, schema):
        recs = [
            ResourceRecord(schema, {"a": 0.1, "b": 0.2, "c": "x"}),
            ResourceRecord(schema, {"a": 0.3, "b": 0.4, "c": "y"}),
        ]
        st = RecordStore.from_records(schema, recs)
        assert len(st) == 2
        assert st.record_at(0) == recs[0]


class TestMutation:
    def test_append(self, schema):
        st = RecordStore(schema)
        st.append(ResourceRecord(schema, {"a": 0.5, "b": 0.5, "c": "z"}))
        assert len(st) == 1
        assert st.categorical_column("c") == ["z"]

    def test_append_wrong_schema(self, schema):
        other = Schema([numeric("a")])
        st = RecordStore(schema)
        with pytest.raises(ValueError, match="schema"):
            st.append(ResourceRecord(other, {"a": 0.5}))

    def test_update_numeric(self, schema):
        st = make_store(schema, 5)
        st.update_numeric(2, "a", 0.999)
        assert st.numeric_column("a")[2] == pytest.approx(0.999)

    def test_update_numeric_validates(self, schema):
        st = make_store(schema, 5)
        with pytest.raises(ValueError):
            st.update_numeric(0, "a", 2.5)  # outside unit bounds

    def test_clear(self, schema):
        st = make_store(schema, 5)
        st.clear()
        assert len(st) == 0


class TestAccess:
    def test_columns(self, schema):
        st = make_store(schema, 6)
        assert st.numeric_column("a").shape == (6,)
        assert len(st.categorical_column("c")) == 6
        assert st.categorical_codes("c").dtype == np.int32

    def test_numeric_column_is_a_read_only_view(self, schema):
        st = make_store(schema, 6)
        col = st.numeric_column("a")
        with pytest.raises(ValueError, match="read-only"):
            col[0] = 0.5
        # Only the view is locked: the store still mutates, in place
        # through its mutators, and the view follows.
        st.update_numeric(0, "a", 0.25)
        st.write_rows(np.array([1]), [[0.75, st.numeric_matrix[1, 1]]])
        assert col[0] == 0.25 and col[1] == 0.75

    def test_numeric_matrix_is_sealed(self, schema):
        st = make_store(schema, 6)
        matrix = st.numeric_matrix
        with pytest.raises(ValueError, match="read-only"):
            matrix[1, 0] = 0.75
        with pytest.raises(ValueError, match="read-only"):
            st.numeric_matrix[...] = 0.0
        st.write_rows(np.array([4, 2]), [[0.1, 0.2], [0.3, 0.4]])
        assert matrix[4].tolist() == [0.1, 0.2]  # the view follows
        assert matrix[2].tolist() == [0.3, 0.4]
        with pytest.raises(ValueError):
            st.write_rows(np.array([0, 1]), np.zeros((3, 2)))

    def test_every_mutator_moves_the_write_stamp(self, schema):
        st = make_store(schema, 6)
        seen = [st.write_stamp]

        def moved():
            seen.append(st.write_stamp)
            return seen[-1] != seen[-2]

        st.numeric_matrix, st.numeric_column("a"), st.mask_range("a", 0, 1)
        len(st), st.record_at(0), st.select(st.mask_range("a", 0, 0.5))
        assert not moved()  # reads leave it alone
        st.update_numeric(0, "a", 0.25)
        assert moved()
        st.write_rows(np.array([1]), st.numeric_matrix[[2]])
        assert moved()
        st.append(st.record_at(0))
        assert moved()
        st.extend([st.record_at(1), st.record_at(2)])
        assert moved()
        st.extend([])
        assert not moved()  # nothing written
        st.clear()
        assert moved()
        assert len(set(seen)) == 6  # never reused

    def test_numeric_matrix(self, schema):
        st = make_store(schema, 6)
        assert st.numeric_matrix.shape == (6, 2)

    def test_record_roundtrip(self, schema):
        st = make_store(schema, 4)
        rec = st.record_at(1)
        assert rec["c"] in ("x", "y")
        assert 0 <= rec["a"] <= 1

    def test_iter_records(self, schema):
        st = make_store(schema, 4)
        assert len(list(st.iter_records())) == 4


class TestMatching:
    def test_mask_range(self, schema):
        st = make_store(schema, 50)
        mask = st.mask_range("a", 0.25, 0.75)
        col = st.numeric_column("a")
        assert np.array_equal(mask, (col >= 0.25) & (col <= 0.75))

    def test_mask_equals(self, schema):
        st = make_store(schema, 10)
        mask = st.mask_equals("c", "x")
        assert mask.sum() == 5

    def test_mask_equals_unknown_value(self, schema):
        st = make_store(schema, 10)
        assert st.mask_equals("c", "nope").sum() == 0

    def test_select(self, schema):
        st = make_store(schema, 10)
        sub = st.select(st.mask_equals("c", "y"))
        assert len(sub) == 5
        assert set(sub.categorical_column("c")) == {"y"}


class TestMerge:
    def test_merged_with(self, schema):
        a = make_store(schema, 4, seed=1)
        b = make_store(schema, 6, seed=2)
        merged = a.merged_with(b)
        assert len(merged) == 10
        # Row order preserved: first a's rows, then b's.
        assert np.allclose(merged.numeric_matrix[:4], a.numeric_matrix)

    def test_merged_with_new_vocab(self, schema):
        a = RecordStore.from_arrays(schema, np.zeros((2, 2)), [["p", "p"]])
        b = RecordStore.from_arrays(schema, np.zeros((2, 2)), [["q", "p"]])
        merged = a.merged_with(b)
        assert merged.categorical_column("c") == ["p", "p", "q", "p"]

    def test_merged_with_wrong_schema(self, schema):
        other = RecordStore(Schema([numeric("a")]))
        with pytest.raises(ValueError, match="different schemas"):
            make_store(schema).merged_with(other)
