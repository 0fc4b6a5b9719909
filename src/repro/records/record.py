"""Single resource records.

:class:`ResourceRecord` is the user-facing, dict-like representation of one
resource. Bulk storage and matching use :class:`~repro.records.store.RecordStore`,
which keeps columns in NumPy arrays; records are converted at the edges.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Union

from .schema import Schema

Value = Union[float, int, str]


class ResourceRecord(Mapping):
    """One resource described by attribute/value pairs under a schema.

    Behaves as an immutable mapping from attribute name to value. Values
    are validated against the schema at construction time.
    """

    __slots__ = ("_schema", "_values", "_owner")

    def __init__(
        self,
        schema: Schema,
        values: Mapping[str, Value],
        owner: Optional[str] = None,
    ):
        missing = [a.name for a in schema if a.name not in values]
        if missing:
            raise ValueError(f"record missing attributes: {missing}")
        extra = [k for k in values if k not in schema]
        if extra:
            raise ValueError(f"record has attributes not in schema: {extra}")
        normalized: Dict[str, Value] = {}
        for spec in schema:
            v = values[spec.name]
            spec.validate_value(v)
            if spec.is_numeric:
                v = float(v)
            normalized[spec.name] = v
        self._schema = schema
        self._values = normalized
        self._owner = owner

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def owner(self) -> Optional[str]:
        """Identifier of the resource owner that published this record."""
        return self._owner

    def __getitem__(self, name: str) -> Value:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ResourceRecord)
            and self._schema == other._schema
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self._schema, tuple(sorted(self._values.items()))))

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"ResourceRecord({pairs})"

    @property
    def size_bytes(self) -> int:
        """Wire size of this record."""
        return self._schema.record_size_bytes
