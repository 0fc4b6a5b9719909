"""Whole-record-set summaries.

A :class:`ResourceSummary` summarizes every searchable attribute of a
schema. It is what resource owners export to their attachment points,
what servers aggregate bottom-up into branch summaries, and what the
replication overlay copies across the hierarchy.

The numeric histograms are the rows of one C-contiguous int32 ``(numeric
attributes × buckets)`` block over the schema's bounds, so every kernel
works on one array: one bucketing pass builds it, a merge is one add per
operand, and a query ANDs compiled bucket masks with one bitset per row.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional

import numpy as np

from ..query.predicate import RangePredicate
from ..query.query import Query
from ..records.schema import Schema
from ..records.store import RecordStore
from .base import AttributeSummary, SummaryMergeError
from .config import SummaryConfig
from .histogram import (
    HistogramSummary,
    _bucket_block,
    _bucket_span,
    check_counter_room,
    histogram_digest,
    wire_bytes,
)
from .valueset import ValueSetSummary


class ResourceSummary:
    """Summaries of every searchable attribute of a set of resource records.

    ``block`` is read-only (row ``i``: the schema's ``i``-th numeric
    attribute), ``categorical`` maps names to value-set summaries,
    and ``records`` bounds every row's total (a store summary's record
    count), so a merge can refuse to wrap a counter.

    Soft state: stamped ``created_at`` and dropped by servers once the
    config's TTL passed. Content is fixed once built, so the hash, wire
    size and occupancy bitsets are computed when first asked for and
    travel with :meth:`refreshed` copies.
    """

    __slots__ = (
        "schema", "config", "block", "records", "categorical", "created_at",
        "_fp", "_size", "_occupancy",
    )

    def __init__(
        self,
        schema: Schema,
        config: SummaryConfig,
        attributes: Optional[Dict[str, AttributeSummary]] = None,
        created_at: float = 0.0,
    ):
        """Summary of nothing, or of the per-attribute *attributes*.

        Histograms handed in must cover their attribute's schema bounds
        with ``config.histogram_buckets`` buckets: they become rows of the
        block, which every reader may then index by schema position.
        """
        numeric = schema.numeric_attributes
        buckets = config.histogram_buckets
        if attributes is None:
            block = np.zeros((len(numeric), buckets), dtype=np.int32)
            categorical = schema.categorical_attributes
            attributes = {s.name: ValueSetSummary(s.name) for s in categorical}
        else:
            rows = []
            for spec in numeric:
                h = attributes[spec.name]
                if not (
                    isinstance(h, HistogramSummary) and h.counts.shape == (buckets,)
                    and (h.lo, h.hi) == spec.bounds
                ):
                    raise ValueError(
                        f"attribute {spec.name!r} needs a histogram of {buckets} "
                        f"buckets over {spec.bounds}, got {h!r}"
                    )
                rows.append(h.counts)
            block = np.array(rows, dtype=np.int32).reshape(len(numeric), buckets)
        records = int(block.sum(axis=1).max()) if len(numeric) else 0
        categorical = {s.name: attributes[s.name] for s in schema.categorical_attributes}
        self._init(schema, config, block, records, categorical, created_at)

    def _init(self, schema, config, block, records, categorical, created_at):
        """Adopt *block* (owned by this summary from now on, and known
        valid) and the rest; the constructor every path ends in."""
        check_counter_room(records)
        block.flags.writeable = False
        self.schema = schema
        self.config = config
        self.block = block
        self.records = records
        self.categorical = categorical
        self.created_at = created_at
        self._fp = self._size = self._occupancy = None
        return self

    # -- construction ------------------------------------------------------------
    @classmethod
    def from_store(
        cls, store: RecordStore, config: SummaryConfig, created_at: float = 0.0
    ) -> "ResourceSummary":
        """Summarize every searchable attribute of *store*."""
        schema = store.schema
        block = _bucket_block(
            store.numeric_matrix, *schema.numeric_bounds, config.histogram_buckets
        )
        categorical = {
            spec.name: ValueSetSummary.from_values(
                spec.name, store.categorical_column(spec.name)
            )
            for spec in schema.categorical_attributes
        }
        return cls.__new__(cls)._init(schema, config, block, len(store), categorical, created_at)

    # -- per-attribute view ------------------------------------------------------
    def attribute(self, name: str) -> AttributeSummary:
        """The summary of attribute *name*; a numeric attribute's is a
        read-only view of its row of the block."""
        if name in self.categorical:
            return self.categorical[name]
        if name not in self.schema:
            raise KeyError(f"summary has no attribute {name!r}")
        row = self.block[self.schema.numeric_position(name)]
        bounds = tuple(map(float, self.schema[name].bounds))
        return HistogramSummary._trusted(name, bounds, row)

    @property
    def attributes(self) -> Dict[str, AttributeSummary]:
        """Every attribute's summary by name, in schema order."""
        return {spec.name: self.attribute(spec.name) for spec in self.schema}

    # -- protocol ----------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.block.any() and all(
            s.is_empty for s in self.categorical.values()
        )

    def may_match(self, query: Query) -> bool:
        """Whether records behind this summary possibly match *query*.

        True only when **every** queried dimension may match — the
        conjunctive evaluation that lets ROADS use all dimensions to
        confine the search scope. A range on a numeric attribute is one
        AND of the row's occupancy bitset with the query's compiled
        bucket mask; any other predicate asks its attribute's summary.
        """
        occupancy = self._occupancy
        if occupancy is None:
            packed = np.packbits(self.block > 0, axis=1, bitorder="little")
            occupancy = self._occupancy = [
                int.from_bytes(row.tobytes(), "little") for row in packed
            ]
        schema, buckets = self.schema, self.config.histogram_buckets
        plan = query._match
        if plan[0] is not schema or plan[1] != buckets:
            plan = _match_plan(query, schema, buckets)
        for row, mask, pred in plan[2]:
            if row is None:
                if not self.attribute(pred.attribute).may_match(pred):
                    return False
            elif not occupancy[row] & mask:
                return False
        return True

    @classmethod
    def merge_many(cls, summaries) -> "ResourceSummary":
        """Merge *summaries* (non-empty sequence) in one pass: one block
        add per operand, one union per categorical attribute. This is the
        kernel behind branch-summary aggregation and batched installs."""
        summaries = list(summaries)
        if not summaries:
            raise ValueError("merge_many needs at least one summary")
        first = summaries[0]
        if len(summaries) == 1:
            return first
        rest = summaries[1:]
        for s in rest:
            if not (
                (s.schema is first.schema or s.schema == first.schema)
                and (s.config is first.config or s.config == first.config)
            ):
                raise SummaryMergeError(
                    "cannot merge summaries with different schemas or configs"
                )
        block = first.block.copy()  # a wrapped add is refused by _init
        for s in rest:
            block += s.block
        categorical = {
            name: summ.merge_many([s.categorical[name] for s in rest])
            for name, summ in first.categorical.items()
        }
        return cls.__new__(cls)._init(
            first.schema, first.config, block, sum(s.records for s in summaries),
            categorical, min(s.created_at for s in summaries),
        )

    def copy(self) -> "ResourceSummary":
        """A same-content summary that has computed nothing yet."""
        categorical = {name: s.copy() for name, s in self.categorical.items()}
        return ResourceSummary.__new__(ResourceSummary)._init(
            self.schema, self.config, self.block.copy(), self.records,
            categorical, self.created_at,
        )

    def encoded_size(self) -> int:
        """Wire size of the full summary (the paper's ``m*r`` scale)."""
        if self._size is None:
            self._size = wire_bytes(self.block) + sum(
                s.encoded_size() for s in self.categorical.values()
            )
        return self._size

    def fingerprint(self) -> bytes:
        """Content hash over every attribute's hash in the schema's
        declared order."""
        if self._fp is None:
            wide = self.block.astype(np.int64)
            digests = {
                spec.name: histogram_digest(spec.name, *spec.bounds, row)
                for spec, row in zip(self.schema.numeric_attributes, wide)
            }
            digests.update((n, s.fingerprint()) for n, s in self.categorical.items())
            joined = b"".join([digests[spec.name] for spec in self.schema])
            self._fp = hashlib.blake2b(joined, digest_size=16).digest()
        return self._fp

    # -- soft state ----------------------------------------------------------------
    def is_expired(self, now: float) -> bool:
        return now - self.created_at > self.config.ttl

    def refreshed(self, now: float) -> "ResourceSummary":
        """A same-content summary stamped *now*, sharing the read-only
        block and the categorical summaries and carrying whatever hash,
        size and occupancy this one has computed."""
        fresh = ResourceSummary.__new__(ResourceSummary)._init(
            self.schema, self.config, self.block, self.records,
            self.categorical, now,
        )
        fresh._fp, fresh._size, fresh._occupancy = self._fp, self._size, self._occupancy
        return fresh

    def __repr__(self) -> str:
        return (
            f"ResourceSummary({len(self.schema)} attributes, "
            f"{self.encoded_size()} bytes, t={self.created_at:g})"
        )


def _match_plan(query: Query, schema: Schema, buckets: int):
    """``(schema, buckets, steps)``: per predicate of *query*, in order,
    ``(row, mask, predicate)`` — block row and bucket bitset of a numeric
    range, ``row`` None for a predicate its attribute's summary answers.
    Kept on the query for the last schema and bucket count (a
    federation's summaries share both), like :meth:`Query._plan`."""
    steps = []
    for p in query.predicates:
        if isinstance(p, RangePredicate) and p.attribute in schema and (
            schema[p.attribute].is_numeric
        ):
            lo, hi = schema[p.attribute].bounds
            mask = _bucket_span(p.lo, p.hi, float(lo), float(hi), buckets)[2]
            steps.append((schema.numeric_position(p.attribute), mask, p))
        else:
            steps.append((None, 0, p))
    plan = (schema, buckets, tuple(steps))
    object.__setattr__(query, "_match", plan)
    return plan
