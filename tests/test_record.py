"""Unit tests for repro.records.record."""

import pytest

from repro.records import ResourceRecord, Schema, categorical, numeric


@pytest.fixture
def schema():
    return Schema(
        [numeric("rate", 0, 1000), categorical("type", ("camera", "gps"))]
    )


class TestConstruction:
    def test_basic(self, schema):
        rec = ResourceRecord(schema, {"rate": 100, "type": "camera"})
        assert rec["rate"] == 100.0
        assert rec["type"] == "camera"
        assert len(rec) == 2

    def test_numeric_normalized_to_float(self, schema):
        rec = ResourceRecord(schema, {"rate": 100, "type": "camera"})
        assert isinstance(rec["rate"], float)

    def test_missing_attribute(self, schema):
        with pytest.raises(ValueError, match="missing attributes"):
            ResourceRecord(schema, {"rate": 100})

    def test_extra_attribute(self, schema):
        with pytest.raises(ValueError, match="not in schema"):
            ResourceRecord(
                schema, {"rate": 100, "type": "camera", "oops": 1}
            )

    def test_invalid_value(self, schema):
        with pytest.raises(ValueError, match="outside bounds"):
            ResourceRecord(schema, {"rate": -1, "type": "camera"})
        with pytest.raises(ValueError, match="not in declared categories"):
            ResourceRecord(schema, {"rate": 5, "type": "submarine"})


class TestMappingProtocol:
    def test_iteration(self, schema):
        rec = ResourceRecord(schema, {"rate": 1, "type": "gps"})
        assert set(rec) == {"rate", "type"}
        assert dict(rec) == {"rate": 1.0, "type": "gps"}

    def test_equality(self, schema):
        a = ResourceRecord(schema, {"rate": 1, "type": "gps"})
        b = ResourceRecord(schema, {"rate": 1.0, "type": "gps"})
        c = ResourceRecord(schema, {"rate": 2, "type": "gps"})
        assert a == b
        assert a != c
        assert hash(a) == hash(b)

    def test_repr(self, schema):
        rec = ResourceRecord(schema, {"rate": 1, "type": "gps"})
        assert "rate=1.0" in repr(rec)


class TestOwnership:
    def test_owner_default_none(self, schema):
        assert ResourceRecord(schema, {"rate": 1, "type": "gps"}).owner is None

    def test_size_bytes(self, schema):
        rec = ResourceRecord(schema, {"rate": 1, "type": "gps"})
        assert rec.size_bytes == schema.record_size_bytes
