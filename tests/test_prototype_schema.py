"""Tests for the 120-attribute mixed prototype schema (Section V)."""

import numpy as np
import pytest

from repro.query import EqualsPredicate, Query, RangePredicate
from repro.records import RecordStore, prototype_record_schema
from repro.summaries import ResourceSummary, SummaryConfig


@pytest.fixture(scope="module")
def schema():
    return prototype_record_schema()


@pytest.fixture(scope="module")
def store(schema):
    rng = np.random.default_rng(1)
    n = 3000
    numeric_cols = []
    for spec in schema.numeric_attributes:
        lo, hi = spec.bounds
        numeric_cols.append(rng.uniform(lo, hi, n))
    categorical_cols = []
    for spec in schema.categorical_attributes:
        if spec.categories is not None:
            categorical_cols.append(rng.choice(spec.categories, n).tolist())
        else:
            categorical_cols.append(
                [f"free-{int(v)}" for v in rng.integers(0, 50, n)]
            )
    return RecordStore.from_arrays(
        schema, np.column_stack(numeric_cols), categorical_cols
    )


class TestSchemaShape:
    def test_120_attributes(self, schema):
        assert len(schema) == 120

    def test_attribute_kinds_present(self, schema):
        names = schema.names
        assert "int0" in names and "dbl0" in names and "ts0" in names
        assert "cat0" in names and "str0" in names
        assert len(schema.numeric_attributes) == 108
        assert len(schema.categorical_attributes) == 12

    def test_custom_width(self):
        s = prototype_record_schema(numeric_per_kind=2)
        assert len(s) == 3 * 2 + 12

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            prototype_record_schema(0)


class TestMixedTypeQueries:
    def test_timestamp_range_query(self, store):
        q = Query.of(RangePredicate("ts0", 1.12e9, 1.13e9))
        count = q.match_count(store)
        # ~1/7 of the two-year window
        assert 0 < count < len(store)

    def test_multi_kind_conjunction(self, store, schema):
        q = Query.of(
            RangePredicate("int0", 0, 5e5),
            RangePredicate("dbl0", 0.25, 0.75),
            RangePredicate("ts0", 1.1e9, 1.15e9),
            EqualsPredicate("cat0", schema["cat0"].categories[0]),
        )
        mask_count = q.match_count(store)
        # consistent with per-record evaluation
        per_record = sum(
            1 for i in range(0, len(store), 37)
            if q.matches_record(store.record_at(i))
        )
        expected_sampled = int(q.mask(store)[::37].sum())
        assert per_record == expected_sampled
        assert 0 <= mask_count <= len(store)

    def test_summaries_cover_all_120_attributes(self, store):
        cfg = SummaryConfig(histogram_buckets=100)
        s = ResourceSummary.from_store(store, cfg)
        assert len(s.attributes) == 120
        q = Query.of(
            RangePredicate("ts3", 1.1e9, 1.17e9),
            EqualsPredicate("str0", store.categorical_column("str0")[0]),
        )
        if q.match_count(store) > 0:
            assert s.may_match(q)
