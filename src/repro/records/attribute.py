"""Attribute model for resource records.

A resource in ROADS is described by attribute/value pairs, e.g.::

    {type=camera, encoding=MPEG2, rate=100Kbps, resolution=640x480}

Attributes are typed: numeric attributes (float or int) support range
predicates and are summarized with histograms, while categorical attributes
(including free strings, which the paper treats as enumerable values)
support equality predicates and are summarized with value sets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple


class AttributeType(enum.Enum):
    """The wire/search type of an attribute."""

    FLOAT = "float"
    INT = "int"
    CATEGORICAL = "categorical"
    STRING = "string"

    @property
    def is_numeric(self) -> bool:
        return self in (AttributeType.FLOAT, AttributeType.INT)

    @property
    def is_categorical(self) -> bool:
        return self in (AttributeType.CATEGORICAL, AttributeType.STRING)


@dataclass(frozen=True)
class AttributeSpec:
    """Declaration of one searchable attribute.

    Parameters
    ----------
    name:
        Attribute name, unique within a schema.
    type:
        The :class:`AttributeType`.
    bounds:
        For numeric attributes, the closed value domain ``(lo, hi)``.
        The paper's analysis normalizes numeric attributes to the unit
        range; generated workloads follow that convention but the library
        accepts arbitrary finite bounds.
    categories:
        For categorical attributes, the (optional) known universe of
        values. When provided, values are validated against it.
    size_bytes:
        Wire size of one value of this attribute. The paper's analysis
        assigns each attribute value a size of 1 unit; the simulator
        accounts overhead in bytes, so this defaults to 8 (a double /
        pointer-sized token).
    """

    name: str
    type: AttributeType = AttributeType.FLOAT
    bounds: Tuple[float, float] = (0.0, 1.0)
    categories: Optional[Tuple[str, ...]] = None
    size_bytes: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        lo, hi = self.bounds
        if not (lo < hi):
            raise ValueError(
                f"attribute {self.name!r}: bounds must satisfy lo < hi, got {self.bounds}"
            )
        if self.size_bytes <= 0:
            raise ValueError(f"attribute {self.name!r}: size_bytes must be positive")
        if self.categories is not None and self.type.is_numeric:
            raise ValueError(
                f"attribute {self.name!r}: numeric attributes cannot declare categories"
            )

    @property
    def is_numeric(self) -> bool:
        return self.type.is_numeric

    @property
    def is_categorical(self) -> bool:
        return self.type.is_categorical

    def validate_value(self, value) -> None:
        """Raise ``ValueError`` if *value* is not admissible for this attribute."""
        if self.is_numeric:
            try:
                v = float(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"attribute {self.name!r}: expected numeric value, got {value!r}"
                ) from None
            lo, hi = self.bounds
            if not (lo <= v <= hi):
                raise ValueError(
                    f"attribute {self.name!r}: value {v} outside bounds [{lo}, {hi}]"
                )
        else:
            if not isinstance(value, str):
                raise ValueError(
                    f"attribute {self.name!r}: expected string value, got {value!r}"
                )
            if self.categories is not None and value not in self.categories:
                raise ValueError(
                    f"attribute {self.name!r}: value {value!r} not in declared categories"
                )


def numeric(name: str, lo: float = 0.0, hi: float = 1.0, *, size_bytes: int = 8) -> AttributeSpec:
    """Convenience constructor for a float attribute with bounds."""
    return AttributeSpec(name=name, type=AttributeType.FLOAT, bounds=(lo, hi), size_bytes=size_bytes)


def integer(name: str, lo: float, hi: float, *, size_bytes: int = 8) -> AttributeSpec:
    """Convenience constructor for an int attribute with bounds."""
    return AttributeSpec(name=name, type=AttributeType.INT, bounds=(lo, hi), size_bytes=size_bytes)


def categorical(name: str, categories: Sequence[str] = (), *, size_bytes: int = 8) -> AttributeSpec:
    """Convenience constructor for a categorical attribute.

    An empty *categories* sequence leaves the universe open.
    """
    cats: Optional[Tuple[str, ...]] = tuple(categories) if categories else None
    return AttributeSpec(
        name=name, type=AttributeType.CATEGORICAL, categories=cats, size_bytes=size_bytes
    )
