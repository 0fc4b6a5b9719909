"""Record schemas.

The paper assumes all federation participants agree on a common schema
(schema mapping is out of scope, Section II). A :class:`Schema` is an
ordered collection of :class:`~repro.records.attribute.AttributeSpec`,
split into numeric and categorical partitions so record blocks can store
each partition in a contiguous NumPy array.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .attribute import AttributeSpec, AttributeType, categorical, numeric


class Schema:
    """An ordered, immutable set of attribute declarations."""

    def __init__(self, attributes: Iterable[AttributeSpec]):
        attrs = tuple(attributes)
        if not attrs:
            raise ValueError("schema must declare at least one attribute")
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate attribute names in schema: {dupes}")
        self._attributes: Tuple[AttributeSpec, ...] = attrs
        self._by_name: Dict[str, AttributeSpec] = {a.name: a for a in attrs}
        self._numeric: Tuple[AttributeSpec, ...] = tuple(a for a in attrs if a.is_numeric)
        self._categorical: Tuple[AttributeSpec, ...] = tuple(
            a for a in attrs if a.is_categorical
        )
        self._numeric_index: Dict[str, int] = {
            a.name: i for i, a in enumerate(self._numeric)
        }
        self._categorical_index: Dict[str, int] = {
            a.name: i for i, a in enumerate(self._categorical)
        }
        bounds = np.array([a.bounds for a in self._numeric], dtype=np.float64)
        #: read-only ``(2, numeric attributes)`` array: lower bounds, upper
        self.numeric_bounds = bounds.reshape(-1, 2).T.copy()
        self.numeric_bounds.flags.writeable = False

    # -- basic container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[AttributeSpec]:
        return iter(self._attributes)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> AttributeSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"schema has no attribute {name!r}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, Schema) and self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        return f"Schema({[a.name for a in self._attributes]})"

    # -- partitions ---------------------------------------------------------------
    @property
    def attributes(self) -> Tuple[AttributeSpec, ...]:
        return self._attributes

    @property
    def names(self) -> List[str]:
        return [a.name for a in self._attributes]

    @property
    def numeric_attributes(self) -> Tuple[AttributeSpec, ...]:
        return self._numeric

    @property
    def categorical_attributes(self) -> Tuple[AttributeSpec, ...]:
        return self._categorical

    def numeric_position(self, name: str) -> int:
        """Column index of *name* within the numeric partition."""
        spec = self[name]
        if not spec.is_numeric:
            raise ValueError(f"attribute {name!r} is not numeric")
        return self._numeric_index[name]

    def categorical_position(self, name: str) -> int:
        """Column index of *name* within the categorical partition."""
        spec = self[name]
        if not spec.is_categorical:
            raise ValueError(f"attribute {name!r} is not categorical")
        return self._categorical_index[name]

    # -- sizing -------------------------------------------------------------------
    @property
    def record_size_bytes(self) -> int:
        """Wire size of one full record under this schema."""
        return sum(a.size_bytes for a in self._attributes)


def stream_processing_schema() -> Schema:
    """A System-S-flavoured example schema (cameras / codecs / rates).

    Mirrors the paper's motivating example of federated stream-processing
    sites sharing sensor data sources.
    """
    return Schema(
        [
            categorical("type", ("camera", "microphone", "gps", "temperature")),
            categorical("encoding", ("MPEG2", "MPEG4", "H264", "PCM", "JSON")),
            numeric("rate_kbps", 0.0, 10_000.0),
            numeric("resolution_x", 0.0, 4096.0),
            numeric("resolution_y", 0.0, 2160.0),
            numeric("uptime", 0.0, 1.0),
            numeric("cost", 0.0, 100.0),
        ]
    )


def prototype_record_schema(numeric_per_kind: int = 36) -> Schema:
    """A 120-attribute mixed schema like the paper's prototype records.

    Section V: the testbed stored records with "120 attributes, including
    integer, double, timestamp, string, categorical types". This builds
    ``3 * numeric_per_kind`` numeric attributes (integers, doubles, and
    timestamps — timestamps are seconds-since-epoch doubles) plus twelve
    categorical/string attributes, totalling 120 at the default width.
    """
    if numeric_per_kind < 1:
        raise ValueError("numeric_per_kind must be >= 1")
    attrs = []
    for i in range(numeric_per_kind):
        attrs.append(AttributeSpec(f"int{i}", AttributeType.INT, (0.0, 1e6)))
    for i in range(numeric_per_kind):
        attrs.append(numeric(f"dbl{i}", 0.0, 1.0))
    for i in range(numeric_per_kind):
        # timestamps within a two-year window
        attrs.append(numeric(f"ts{i}", 1.1e9, 1.17e9))
    for i in range(6):
        attrs.append(
            categorical(f"cat{i}", tuple(f"c{i}v{j}" for j in range(8)))
        )
    for i in range(6):
        attrs.append(AttributeSpec(f"str{i}", AttributeType.STRING))
    return Schema(attrs)


def compute_resource_schema() -> Schema:
    """A grid/compute-marketplace example schema (CPUs, memory, storage)."""
    return Schema(
        [
            categorical("arch", ("x86_64", "ppc64", "arm64")),
            categorical("os", ("linux", "aix", "solaris")),
            numeric("cpus", 1.0, 512.0),
            numeric("clock_ghz", 0.5, 5.0),
            numeric("memory_gb", 0.25, 4096.0),
            numeric("disk_gb", 1.0, 1_000_000.0),
            numeric("load", 0.0, 1.0),
            numeric("net_mbps", 1.0, 100_000.0),
        ]
    )
