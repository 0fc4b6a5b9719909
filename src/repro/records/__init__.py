"""Resource record model: attributes, schemas, records, columnar stores."""

from .attribute import AttributeSpec, AttributeType, categorical, integer, numeric
from .record import ResourceRecord
from .schema import (
    Schema,
    compute_resource_schema,
    prototype_record_schema,
    stream_processing_schema,
)
from .store import RecordStore

__all__ = [
    "AttributeSpec",
    "AttributeType",
    "categorical",
    "integer",
    "numeric",
    "ResourceRecord",
    "Schema",
    "RecordStore",
    "stream_processing_schema",
    "compute_resource_schema",
    "prototype_record_schema",
]
