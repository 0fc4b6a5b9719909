"""Unit tests for repro.query.selectivity."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import (
    EqualsPredicate,
    Query,
    RangePredicate,
    calibrate_to_selectivity,
    selectivity,
)
from repro.query.selectivity import _prober, _scaled
from repro.records import RecordStore, Schema, categorical, numeric

unit_floats = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@pytest.fixture
def big_store():
    schema = Schema([numeric("a"), numeric("b")])
    rng = np.random.default_rng(42)
    return RecordStore.from_arrays(schema, rng.random((5000, 2)), [])


class TestSelectivity:
    def test_uniform_matches_area(self, big_store):
        q = Query.of(RangePredicate("a", 0.0, 0.5))
        assert selectivity(q, big_store) == pytest.approx(0.5, abs=0.03)

    def test_conjunction_multiplies(self, big_store):
        q = Query.of(
            RangePredicate("a", 0.0, 0.5), RangePredicate("b", 0.0, 0.5)
        )
        assert selectivity(q, big_store) == pytest.approx(0.25, abs=0.03)

    def test_empty_store(self):
        schema = Schema([numeric("a")])
        st = RecordStore(schema)
        assert selectivity(Query.of(RangePredicate("a", 0, 1)), st) == 0.0


class TestCalibration:
    @pytest.mark.parametrize("target", [0.01, 0.05, 0.2])
    def test_hits_target(self, big_store, target):
        q = Query.of(
            RangePredicate("a", 0.3, 0.6), RangePredicate("b", 0.2, 0.8)
        )
        cal = calibrate_to_selectivity(q, big_store, target, tolerance=0.3)
        assert cal is not None
        s = selectivity(cal, big_store)
        assert abs(s - target) <= 0.3 * target

    def test_preserves_centers(self, big_store):
        q = Query.of(RangePredicate("a", 0.3, 0.5))
        cal = calibrate_to_selectivity(q, big_store, 0.05, tolerance=0.3)
        p = cal.range_predicates()[0]
        assert (p.lo + p.hi) / 2 == pytest.approx(0.4, abs=0.02)

    def test_invalid_target(self, big_store):
        q = Query.of(RangePredicate("a", 0, 1))
        with pytest.raises(ValueError):
            calibrate_to_selectivity(q, big_store, 0.0)
        with pytest.raises(ValueError):
            calibrate_to_selectivity(q, big_store, 1.5)

    def test_unreachable_target_returns_none(self):
        # A store whose values are all far from the query's center: even
        # the full-width scaled query cannot reach high selectivity if
        # the conjunction never matches.
        schema = Schema([numeric("a"), numeric("b")])
        n = 1000
        vals = np.column_stack(
            [np.full(n, 0.1), np.full(n, 0.9)]
        )
        st = RecordStore.from_arrays(schema, vals, [])
        # narrow ranges around the opposite corners; scaling is clipped
        # to the unit interval so max selectivity is 1.0 eventually —
        # instead target something tiny that bisection cannot isolate
        # (every record identical: selectivity jumps 0 -> 1).
        q = Query.of(
            RangePredicate("a", 0.5, 0.6), RangePredicate("b", 0.2, 0.3)
        )
        out = calibrate_to_selectivity(q, st, 0.001, tolerance=0.5)
        assert out is None


class TestOneScanPerScale:
    """Calibration probes each width scale it tries once — a threshold
    count, plus one Query.mask over the records within the tie window —
    and its decisions, and so the calibrated queries, are the ones the
    loop that re-scanned every scale made."""

    @pytest.fixture
    def scans(self, monkeypatch):
        scanned = []
        mask = Query.mask

        def recording(query, store):
            scanned.append(tuple((p.lo, p.hi) for p in query.range_predicates()))
            return mask(query, store)

        monkeypatch.setattr(Query, "mask", recording)
        return scanned

    def test_no_scale_is_scanned_twice(self, big_store, scans):
        q = Query.of(
            RangePredicate("a", 0.45, 0.46), RangePredicate("b", 0.45, 0.46)
        )
        assert calibrate_to_selectivity(q, big_store, 0.05) is not None
        assert len(scans) == len(set(scans)) > 1

    def test_smoke_groups_are_pinned(self, scans):
        from repro.bench import scale_settings, scale_sweeps
        from repro.experiments import build_workload
        from repro.workload import generate_selectivity_groups, merge_stores

        settings, sweeps = scale_settings("smoke", 1), scale_sweeps("smoke")
        wcfg, stores = build_workload(settings, 1)
        groups = generate_selectivity_groups(
            wcfg,
            merge_stores(stores),
            targets=sweeps["selectivity"],
            queries_per_group=sweeps["queries_per_group"],
            dimensions=settings.query_dimensions,
        )
        digest = hashlib.sha256()
        for group in groups:
            digest.update(repr(group.target).encode())
            for query in group.queries:
                digest.update(repr(
                    [(p.attribute, p.lo, p.hi) for p in query.predicates]
                ).encode())
        # The groups of the loop that scanned 274 times, bit for bit.
        assert digest.hexdigest()[:16] == "6d5366d29160327c"
        assert len(scans) == 144

    def test_no_full_store_scan(self, big_store, monkeypatch):
        # Each probe counts thresholds and hands only the records within
        # the tie window to Query.mask, never the whole store.
        sizes = []
        mask = Query.mask

        def recording(query, store):
            sizes.append(len(store))
            return mask(query, store)

        monkeypatch.setattr(Query, "mask", recording)
        q = Query.of(
            RangePredicate("a", 0.45, 0.46), RangePredicate("b", 0.45, 0.46)
        )
        assert calibrate_to_selectivity(q, big_store, 0.05) is not None
        assert sizes and max(sizes) < len(big_store) // 100


class TestThresholdCount:
    """A probe's threshold count equals a scan of the scaled query,
    records on the scaled range's ends and outside the bounds included."""

    schema = Schema([numeric("a"), numeric("b"), categorical("c")])

    @given(
        data=st.data(),
        ranges=st.lists(
            st.tuples(unit_floats, unit_floats), min_size=1, max_size=2
        ),
        scale=st.sampled_from([2.0 ** -40, 1e-6, 0.3, 1.0, 1.7, 64.0, 1e6]),
        equals=st.sampled_from([None, "x", "y", "nope"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_count_equals_scaled_scan(self, data, ranges, scale, equals):
        attrs = ["a", "b"][: len(ranges)]
        preds = [
            RangePredicate(name, min(lo, hi), max(lo, hi))
            for name, (lo, hi) in zip(attrs, ranges)
        ]
        if equals is not None:
            preds.append(EqualsPredicate("c", equals))
        query = Query(tuple(preds))
        # Values: random, outside the bounds, and exactly on (and one
        # ulp either side of) each scaled end, as _scaled computes it.
        special = [-0.5, 1.5, 0.0, 1.0]
        for p in preds[: len(ranges)]:
            c, h = (p.lo + p.hi) / 2.0, (p.hi - p.lo) / 2.0 * scale
            for end in (c - h, c + h):
                special += [end, np.nextafter(end, -1), np.nextafter(end, 2)]
        pool = special + data.draw(st.lists(unit_floats, max_size=20))
        n = data.draw(st.integers(min_value=0, max_value=40))
        rows = [
            [data.draw(st.sampled_from(pool)) for _ in range(2)]
            for _ in range(n)
        ]
        cats = [data.draw(st.sampled_from(["x", "y"])) for _ in range(n)]
        store = RecordStore.from_arrays(
            self.schema, np.array(rows, dtype=float).reshape(n, 2), [cats]
        )
        bounds = {s.name: s.bounds for s in self.schema.numeric_attributes}
        scaled, fraction = _prober(query, store, bounds)(scale)
        assert scaled.predicates == _scaled(query, scale, bounds).predicates
        assert fraction == selectivity(scaled, store)
