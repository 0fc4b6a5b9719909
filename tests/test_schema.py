"""Unit tests for repro.records.schema."""

import pytest

from repro.records import (
    Schema,
    categorical,
    numeric,
)
from repro.records.schema import compute_resource_schema, stream_processing_schema


class TestSchemaConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one attribute"):
            Schema([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Schema([numeric("x"), numeric("x")])

    def test_len_iter_contains(self):
        s = Schema([numeric("a"), categorical("b")])
        assert len(s) == 2
        assert [a.name for a in s] == ["a", "b"]
        assert "a" in s and "b" in s and "c" not in s

    def test_getitem(self):
        s = Schema([numeric("a")])
        assert s["a"].name == "a"
        with pytest.raises(KeyError, match="no attribute"):
            s["zz"]

    def test_equality_and_hash(self):
        s1 = Schema([numeric("a"), numeric("b")])
        s2 = Schema([numeric("a"), numeric("b")])
        s3 = Schema([numeric("b"), numeric("a")])
        assert s1 == s2
        assert hash(s1) == hash(s2)
        assert s1 != s3


class TestPartitions:
    def test_partition_split(self, mixed_schema):
        numeric_names = [a.name for a in mixed_schema.numeric_attributes]
        cat_names = [a.name for a in mixed_schema.categorical_attributes]
        assert numeric_names == ["rate", "load"]
        assert cat_names == ["type", "encoding"]

    def test_positions(self, mixed_schema):
        assert mixed_schema.numeric_position("rate") == 0
        assert mixed_schema.numeric_position("load") == 1
        assert mixed_schema.categorical_position("type") == 0
        assert mixed_schema.categorical_position("encoding") == 1

    def test_position_wrong_kind(self, mixed_schema):
        with pytest.raises(ValueError, match="not numeric"):
            mixed_schema.numeric_position("type")
        with pytest.raises(ValueError, match="not categorical"):
            mixed_schema.categorical_position("rate")

    def test_record_size(self):
        s = Schema([numeric("a", size_bytes=8), categorical("b", size_bytes=4)])
        assert s.record_size_bytes == 12


class TestFactories:
    def test_stream_processing_schema(self):
        s = stream_processing_schema()
        assert "type" in s and "rate_kbps" in s
        assert s["type"].is_categorical

    def test_compute_resource_schema(self):
        s = compute_resource_schema()
        assert "cpus" in s and "arch" in s
        assert s["memory_gb"].is_numeric
