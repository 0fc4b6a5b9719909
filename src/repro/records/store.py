"""Vectorized record storage.

A :class:`RecordStore` holds a set of records under one schema, with the
numeric partition in a single ``float64`` matrix and each categorical
partition as an integer code column plus a vocabulary. All matching is
vectorized; the evaluation-scale stores (hundreds of thousands of records,
Section V prototype) are searched without Python-level loops, per the
scientific-Python optimization guidance. ``mask_range`` / ``mask_equals``
answer one predicate; a whole conjunctive query compares all its range
columns of ``numeric_matrix`` at once (:meth:`repro.query.query.Query.mask`).

The store is *sealed*: ``numeric_matrix`` / ``numeric_column`` are read-only
views, and every write goes through a mutator (``extend`` / ``append``,
``update_numeric``, ``write_rows``, ``clear``) that bumps ``write_stamp`` —
how the holder of a summary learns whether it still describes the records.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .record import ResourceRecord, Value
from .schema import Schema


class RecordStore:
    """A columnar, appendable collection of resource records."""

    def __init__(self, schema: Schema, owner: Optional[str] = None):
        self._schema = schema
        self._owner = owner
        n_num = len(schema.numeric_attributes)
        n_cat = len(schema.categorical_attributes)
        self._stamp = 0
        self._rebind(
            np.empty((0, n_num), dtype=np.float64),
            np.empty((0, n_cat), dtype=np.int32),
        )
        # Per categorical column: value -> code and code -> value tables.
        self._vocab: List[Dict[str, int]] = [dict() for _ in range(n_cat)]
        self._rvocab: List[List[str]] = [[] for _ in range(n_cat)]

    def _rebind(self, numeric: np.ndarray, cat_codes: np.ndarray) -> None:
        """Install new backing arrays (a write) and the sealed view of them."""
        self._numeric = numeric
        self._cat_codes = cat_codes
        self._sealed = numeric.view()
        self._sealed.flags.writeable = False
        self._stamp += 1

    # -- construction ----------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        schema: Schema,
        numeric: np.ndarray,
        categorical: Optional[Sequence[Sequence[str]]] = None,
        owner: Optional[str] = None,
    ) -> "RecordStore":
        """Bulk-build a store from column data.

        Parameters
        ----------
        numeric:
            Array of shape ``(n_records, n_numeric_attributes)`` with columns
            ordered as ``schema.numeric_attributes``.
        categorical:
            One string sequence per categorical attribute (ordered as
            ``schema.categorical_attributes``), each of length ``n_records``.
        """
        store = cls(schema, owner=owner)
        numeric = np.asarray(numeric, dtype=np.float64)
        if numeric.ndim != 2 or numeric.shape[1] != len(schema.numeric_attributes):
            raise ValueError(
                f"numeric must have shape (n, {len(schema.numeric_attributes)}), "
                f"got {numeric.shape}"
            )
        n = numeric.shape[0]
        n_cat = len(schema.categorical_attributes)
        cats = list(categorical) if categorical is not None else []
        if len(cats) != n_cat:
            raise ValueError(f"expected {n_cat} categorical columns, got {len(cats)}")
        codes = np.empty((n, n_cat), dtype=np.int32)
        for j, col in enumerate(cats):
            if len(col) != n:
                raise ValueError(
                    f"categorical column {j} has length {len(col)}, expected {n}"
                )
            codes[:, j] = store._encode_column(j, col)
        store._rebind(numeric.copy(), codes)
        return store

    @classmethod
    def concat(cls, stores: Sequence["RecordStore"]) -> "RecordStore":
        """New store with every record of *stores*, in order.

        The first store's vocabularies are kept as they are; each later
        store adds the values it has not seen, in order of first
        occurrence among its rows. The owner is the first store's.
        """
        if not stores:
            raise ValueError("no stores to concatenate")
        first = stores[0]
        if any(s._schema != first._schema for s in stores):
            raise ValueError("cannot merge stores with different schemas")
        out = cls(first._schema, owner=first._owner)
        out._vocab = [dict(v) for v in first._vocab]
        out._rvocab = [list(v) for v in first._rvocab]
        codes = [first._cat_codes]
        for s in stores[1:]:
            recoded = np.empty_like(s._cat_codes)
            for j, rvocab in enumerate(s._rvocab):
                col = s._cat_codes[:, j]
                used, first_row = np.unique(col, return_index=True)
                used = used[np.argsort(first_row)]
                remap = np.zeros(len(rvocab), dtype=np.int32)
                remap[used] = out._encode_column(j, [rvocab[c] for c in used])
                recoded[:, j] = remap[col]
            codes.append(recoded)
        out._rebind(
            np.concatenate([s._numeric for s in stores], axis=0),
            np.concatenate(codes, axis=0),
        )
        return out

    def _encode_column(self, j: int, values: Sequence[str]) -> np.ndarray:
        vocab = self._vocab[j]
        rvocab = self._rvocab[j]
        out = np.empty(len(values), dtype=np.int32)
        for i, v in enumerate(values):
            code = vocab.get(v)
            if code is None:
                code = len(rvocab)
                vocab[v] = code
                rvocab.append(v)
            out[i] = code
        return out

    # -- mutation ----------------------------------------------------------------
    def append(self, record: ResourceRecord) -> None:
        self.extend([record])

    def extend(self, records: Iterable[ResourceRecord]) -> None:
        recs = list(records)
        if not recs:
            return
        num_rows = np.empty(
            (len(recs), len(self._schema.numeric_attributes)), dtype=np.float64
        )
        cat_rows = np.empty(
            (len(recs), len(self._schema.categorical_attributes)), dtype=np.int32
        )
        num_specs = self._schema.numeric_attributes
        cat_specs = self._schema.categorical_attributes
        for i, rec in enumerate(recs):
            if rec.schema != self._schema:
                raise ValueError("record schema does not match store schema")
            for j, spec in enumerate(num_specs):
                num_rows[i, j] = rec[spec.name]
            for j, spec in enumerate(cat_specs):
                cat_rows[i, j] = self._encode_column(j, [rec[spec.name]])[0]
        self._rebind(
            np.concatenate([self._numeric, num_rows], axis=0),
            np.concatenate([self._cat_codes, cat_rows], axis=0),
        )

    def update_numeric(self, row: int, name: str, value: float) -> None:
        """In-place update of one numeric value (dynamic resources)."""
        spec = self._schema[name]
        spec.validate_value(value)
        self._numeric[row, self._schema.numeric_position(name)] = float(value)
        self._stamp += 1

    def write_rows(self, rows: np.ndarray, block: np.ndarray) -> None:
        """In-place bulk update: record ``rows[i]`` takes the numeric
        values ``block[i]`` (ordered as ``schema.numeric_attributes``).
        Like :meth:`from_arrays`, the bulk path does not range-check."""
        self._numeric[rows] = block
        self._stamp += 1

    def clear(self) -> None:
        self._rebind(self._numeric[:0], self._cat_codes[:0])

    # -- inspection ----------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def owner(self) -> Optional[str]:
        return self._owner

    @property
    def write_stamp(self) -> int:
        """Counter every mutator bumps: equal stamps, equal content."""
        return self._stamp

    def __len__(self) -> int:
        return self._numeric.shape[0]

    @property
    def size_bytes(self) -> int:
        """Wire size of all stored records."""
        return len(self) * self._schema.record_size_bytes

    @property
    def numeric_matrix(self) -> np.ndarray:
        """The numeric partition, shape ``(n_records, n_numeric)``.

        Columns are ordered as ``schema.numeric_attributes``. A
        read-only view that follows in-place writes; mutate through
        :meth:`update_numeric` / :meth:`write_rows`.
        """
        return self._sealed

    def numeric_column(self, name: str) -> np.ndarray:
        """Read-only view of one numeric attribute's values (it follows
        in-place writes made through the mutators)."""
        return self._sealed[:, self._schema.numeric_position(name)]

    def categorical_column(self, name: str) -> List[str]:
        """Decoded values of one categorical attribute."""
        j = self._schema.categorical_position(name)
        rvocab = self._rvocab[j]
        return [rvocab[c] for c in self._cat_codes[:, j]]

    def vocabulary(self, name: str) -> Tuple[str, ...]:
        """Distinct values seen for one categorical attribute."""
        return tuple(self._rvocab[self._schema.categorical_position(name)])

    def record_at(self, row: int) -> ResourceRecord:
        values: Dict[str, Value] = {
            spec.name: float(v)
            for spec, v in zip(self._schema.numeric_attributes, self._numeric[row])
        }
        for j, spec in enumerate(self._schema.categorical_attributes):
            values[spec.name] = self._rvocab[j][self._cat_codes[row, j]]
        return ResourceRecord(self._schema, values, owner=self._owner)

    # -- vectorized matching ---------------------------------------------------
    def mask_range(self, name: str, lo: float, hi: float) -> np.ndarray:
        """Boolean mask of rows whose *name* value lies in ``[lo, hi]``."""
        col = self._numeric[:, self._schema.numeric_position(name)]
        return (col >= lo) & (col <= hi)

    def mask_equals(self, name: str, value: str) -> np.ndarray:
        """Boolean mask of rows whose categorical *name* equals *value*."""
        j = self._schema.categorical_position(name)
        code = self._vocab[j].get(value)
        if code is None:
            return np.zeros(len(self), dtype=bool)
        return self._cat_codes[:, j] == code

    def select(self, mask: np.ndarray) -> "RecordStore":
        """New store containing only rows where *mask* is true."""
        out = RecordStore(self._schema, owner=self._owner)
        out._rebind(self._numeric[mask], self._cat_codes[mask])
        out._vocab = [dict(v) for v in self._vocab]
        out._rvocab = [list(v) for v in self._rvocab]
        return out
