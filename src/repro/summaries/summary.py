"""Whole-record-set summaries.

A :class:`ResourceSummary` bundles one attribute summary per searchable
attribute of a schema. It is what resource owners export to their
attachment points, what servers aggregate bottom-up into branch summaries,
and what the replication overlay copies across the hierarchy.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional

import numpy as np

from ..query.predicate import EqualsPredicate, RangePredicate
from ..query.query import Query
from ..records.schema import Schema
from ..records.store import RecordStore
from .base import AttributeSummary, SummaryMergeError
from .bloom import BloomFilterSummary
from .config import SummaryConfig
from .histogram import HistogramSummary
from .multires import MultiResolutionHistogram
from .valueset import ValueSetSummary


class ResourceSummary:
    """Per-attribute summaries of a set of resource records.

    Soft state: carries the simulation timestamp at which it was created
    and the configured TTL; servers discard summaries whose TTL expired.
    Content is fixed once built, so the content hash and wire size are
    computed when first asked for and travel with :meth:`refreshed` copies.
    """

    __slots__ = ("schema", "config", "attributes", "created_at", "_fp", "_size")

    def __init__(
        self,
        schema: Schema,
        config: SummaryConfig,
        attributes: Optional[Dict[str, AttributeSummary]] = None,
        created_at: float = 0.0,
    ):
        self.schema = schema
        self.config = config
        self.created_at = created_at
        if attributes is None:
            attributes = {
                spec.name: _empty_summary(spec.name, spec.bounds, spec.is_numeric, config)
                for spec in schema
            }
        self.attributes = attributes
        self._fp = self._size = None

    # -- construction ------------------------------------------------------------
    @classmethod
    def from_store(
        cls,
        store: RecordStore,
        config: SummaryConfig,
        created_at: float = 0.0,
    ) -> "ResourceSummary":
        """Summarize every searchable attribute of *store*."""
        schema = store.schema
        attrs: Dict[str, AttributeSummary] = {}
        numeric = schema.numeric_attributes
        if config.multiresolution_levels > 1:
            for spec in numeric:
                attrs[spec.name] = MultiResolutionHistogram.from_values(
                    spec.name,
                    store.numeric_column(spec.name),
                    config.histogram_buckets,
                    spec.bounds,
                    config.multiresolution_levels,
                    encoding=config.histogram_encoding,
                )
        else:
            names = [spec.name for spec in numeric]
            histograms = HistogramSummary.from_matrix(
                names,
                store.numeric_matrix,
                config.histogram_buckets,
                [spec.bounds for spec in numeric],
                encoding=config.histogram_encoding,
            )
            attrs.update(zip(names, histograms))
        for spec in schema.categorical_attributes:
            values = store.categorical_column(spec.name)
            if config.categorical_summary == "bloom":
                attrs[spec.name] = BloomFilterSummary.from_values(
                    spec.name, values, config.bloom_bits, config.bloom_hashes
                )
            else:
                attrs[spec.name] = ValueSetSummary.from_values(spec.name, values)
        return cls(schema, config, attrs, created_at=created_at)

    @classmethod
    def empty(
        cls, schema: Schema, config: SummaryConfig, created_at: float = 0.0
    ) -> "ResourceSummary":
        return cls(schema, config, created_at=created_at)

    # -- protocol ----------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return all(s.is_empty for s in self.attributes.values())

    def may_match(self, query: Query) -> bool:
        """Whether records behind this summary possibly match *query*.

        True only when **every** queried dimension may match — the
        conjunctive evaluation that lets ROADS use all dimensions to
        confine the search scope.
        """
        for pred in query.predicates:
            summ = self.attributes.get(pred.attribute)
            if summ is None:
                raise KeyError(
                    f"summary has no attribute {pred.attribute!r}"
                )
            if not summ.may_match(pred):
                return False
        return True

    def merge(self, other: "ResourceSummary") -> "ResourceSummary":
        """Bucket-wise / union merge, as in bottom-up aggregation."""
        if other.schema != self.schema:
            raise SummaryMergeError("cannot merge summaries with different schemas")
        merged = {
            name: summ.merge(other.attributes[name])
            for name, summ in self.attributes.items()
        }
        return ResourceSummary(
            self.schema,
            self.config,
            merged,
            created_at=min(self.created_at, other.created_at),
        )

    @classmethod
    def merge_many(cls, summaries) -> "ResourceSummary":
        """Merge *summaries* (non-empty sequence) in one stacked pass.

        Bit-identical to left-folding :meth:`merge` — every attribute
        merge is an associative bucket sum / set union — but each
        attribute allocates one result instead of one intermediate per
        operand. This is the vectorized kernel behind branch-summary
        aggregation and batched summary installs.
        """
        summaries = list(summaries)
        if not summaries:
            raise ValueError("merge_many needs at least one summary")
        first = summaries[0]
        if len(summaries) == 1:
            return first
        rest = summaries[1:]
        for s in rest:
            if s.schema != first.schema:
                raise SummaryMergeError(
                    "cannot merge summaries with different schemas"
                )
        merged = {
            name: summ.merge_many([s.attributes[name] for s in rest])
            for name, summ in first.attributes.items()
        }
        return cls(
            first.schema,
            first.config,
            merged,
            created_at=min(s.created_at for s in summaries),
        )

    def copy(self) -> "ResourceSummary":
        return ResourceSummary(
            self.schema,
            self.config,
            {name: s.copy() for name, s in self.attributes.items()},
            created_at=self.created_at,
        )

    def encoded_size(self) -> int:
        """Wire size of the full summary (the paper's ``m*r`` scale)."""
        if self._size is None:
            self._size = sum(s.encoded_size() for s in self.attributes.values())
        return self._size

    def fingerprint(self) -> bytes:
        """Content hash over all attribute summaries (order-independent
        in the schema sense: iterates the schema's declared order)."""
        if self._fp is None:
            h = hashlib.blake2b(digest_size=16)
            for spec in self.schema:
                h.update(self.attributes[spec.name].fingerprint())
            self._fp = h.digest()
        return self._fp

    # -- soft state ----------------------------------------------------------------
    def is_expired(self, now: float) -> bool:
        return now - self.created_at > self.config.ttl

    def refreshed(self, now: float) -> "ResourceSummary":
        """A same-content summary stamped *now*.

        Shares the attribute summaries instead of deep-copying their
        arrays: attribute summaries are immutable once exported (their
        mutators exist only for construction), so a refresh only needs a
        fresh top-level object with its own ``created_at``.
        """
        fresh = ResourceSummary(
            self.schema, self.config, dict(self.attributes), created_at=now
        )
        fresh._fp, fresh._size = self._fp, self._size
        return fresh

    # -- estimation ----------------------------------------------------------------
    def estimated_matches(self, query: Query) -> int:
        """Upper-bound match count, the min over numeric dimensions.

        Used by clients to rank which redirected branch to visit first.
        """
        best = np.inf
        for pred in query.predicates:
            summ = self.attributes.get(pred.attribute)
            if isinstance(pred, RangePredicate) and isinstance(summ, HistogramSummary):
                best = min(best, summ.count_in_range(pred.lo, pred.hi))
            elif isinstance(pred, RangePredicate) and isinstance(
                summ, MultiResolutionHistogram
            ):
                best = min(best, summ.level(0).count_in_range(pred.lo, pred.hi))
            elif isinstance(pred, EqualsPredicate) and summ is not None:
                if not summ.may_match(pred):
                    return 0
        if not np.isfinite(best):
            # Only categorical dimensions queried: fall back to total count.
            for summ in self.attributes.values():
                if isinstance(summ, HistogramSummary):
                    return summ.total
                if isinstance(summ, MultiResolutionHistogram):
                    return summ.level(0).total
            return 0
        return int(best)

    def __repr__(self) -> str:
        return (
            f"ResourceSummary({len(self.attributes)} attributes, "
            f"{self.encoded_size()} bytes, t={self.created_at:g})"
        )


def _empty_summary(name, bounds, is_numeric, config: SummaryConfig) -> AttributeSummary:
    if is_numeric:
        if config.multiresolution_levels > 1:
            return MultiResolutionHistogram(
                name,
                config.histogram_buckets,
                bounds,
                config.multiresolution_levels,
                encoding=config.histogram_encoding,
            )
        return HistogramSummary(
            name, config.histogram_buckets, bounds, encoding=config.histogram_encoding
        )
    if config.categorical_summary == "bloom":
        return BloomFilterSummary(name, config.bloom_bits, config.bloom_hashes)
    return ValueSetSummary(name)
