"""Property-based tests (hypothesis) on core data structures and invariants.

The library's correctness rests on a handful of algebraic properties:
summaries merge like a commutative monoid, never produce false negatives,
Chord routing always terminates within its hop bound, and the balanced
join always yields a well-formed tree.
"""

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hierarchy import Server, build_hierarchy
from repro.hierarchy.node import AttachedOwner
from repro.overlay import coverage_ids, replication_sources
from repro.query import EqualsPredicate, Query, RangePredicate
from repro.records import (
    RecordStore,
    ResourceRecord,
    Schema,
    categorical,
    numeric,
)
from repro.roads import GuestOwner, RoadsConfig, RoadsSystem
from repro.sim import Simulator
from repro.summaries import (
    HistogramSummary,
    ResourceSummary,
    SummaryConfig,
    ValueSetSummary,
)
from repro.summaries.codec import decode_histogram, encode_histogram
from repro.sword import ChordRouter, LocalityHash
from repro.workload import RecordDynamics, WorkloadConfig, generate_node_stores


unit_floats = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
value_lists = st.lists(unit_floats, min_size=0, max_size=60)
bucket_counts = st.sampled_from([1, 2, 7, 16, 64, 100, 1000])


class TestHistogramProperties:
    @given(values=value_lists, buckets=bucket_counts, lo=unit_floats, hi=unit_floats)
    @settings(max_examples=150, deadline=None)
    def test_no_false_negatives(self, values, buckets, lo, hi):
        assume(lo <= hi)
        h = HistogramSummary.from_values("a", values, buckets)
        arr = np.asarray(values)
        actually_matches = bool(
            arr.size and ((arr >= lo) & (arr <= hi)).any()
        )
        if actually_matches:
            assert h.may_match(RangePredicate("a", lo, hi))

    @given(a=value_lists, b=value_lists, buckets=bucket_counts)
    @settings(max_examples=80, deadline=None)
    def test_merge_commutative(self, a, b, buckets):
        ha = HistogramSummary.from_values("x", a, buckets)
        hb = HistogramSummary.from_values("x", b, buckets)
        assert ha.merge(hb) == hb.merge(ha)

    @given(a=value_lists, b=value_lists, c=value_lists, buckets=bucket_counts)
    @settings(max_examples=60, deadline=None)
    def test_merge_associative(self, a, b, c, buckets):
        ha = HistogramSummary.from_values("x", a, buckets)
        hb = HistogramSummary.from_values("x", b, buckets)
        hc = HistogramSummary.from_values("x", c, buckets)
        assert ha.merge(hb).merge(hc) == ha.merge(hb.merge(hc))

    @given(values=value_lists, buckets=bucket_counts)
    @settings(max_examples=80, deadline=None)
    def test_empty_is_identity(self, values, buckets):
        h = HistogramSummary.from_values("x", values, buckets)
        empty = HistogramSummary("x", buckets)
        assert h.merge(empty) == h

    @given(values=value_lists, buckets=st.sampled_from([8, 16, 64]),
           lo=unit_floats, hi=unit_floats)
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_union(self, values, buckets, lo, hi):
        """Summarizing the union == merging the summaries."""
        assume(lo <= hi)
        mid = len(values) // 2
        ha = HistogramSummary.from_values("x", values[:mid], buckets)
        hb = HistogramSummary.from_values("x", values[mid:], buckets)
        hu = HistogramSummary.from_values("x", values, buckets)
        assert ha.merge(hb) == hu


def reference_counts(values, lo, hi, buckets):
    """Per-value bucketing in plain Python floats: the kernel's oracle."""
    counts = [0] * buckets
    for v in values:
        v = min(max(v, lo), hi)
        b = math.floor((v - lo) / (hi - lo) * buckets)
        counts[min(max(b, 0), buckets - 1)] += 1
    return counts


def reference_size(counts):
    return 16 + 4 * len(counts)


@st.composite
def mixed_stores(draw):
    """A store whose schema interleaves numeric and categorical
    attributes, with per-attribute bounds and values that stray below
    ``lo``, above ``hi`` and sit exactly on both edges."""
    n_numeric = draw(st.integers(min_value=1, max_value=4))
    n_records = draw(st.integers(min_value=0, max_value=25))
    specs, columns = [], []
    for j in range(n_numeric):
        lo = draw(st.floats(min_value=-1e3, max_value=1e3))
        hi = lo + draw(st.floats(min_value=1e-3, max_value=1e3))
        specs.append(numeric(f"n{j}", lo, hi))
        span = hi - lo
        value = st.one_of(
            st.floats(min_value=lo - span, max_value=hi + span),
            st.sampled_from([lo, hi, lo - span, hi + span]),
        )
        columns.append(
            draw(st.lists(value, min_size=n_records, max_size=n_records))
        )
    cats = draw(
        st.lists(st.sampled_from(["x", "y", "z"]),
                 min_size=n_records, max_size=n_records)
    )
    # categorical first, between and after the numeric attributes
    specs.insert(draw(st.integers(0, n_numeric)), categorical("c"))
    store = RecordStore.from_arrays(
        Schema(specs),
        np.array(columns, dtype=np.float64).reshape(n_numeric, n_records).T,
        [cats],
    )
    return store, columns, cats


class TestBucketingKernel:
    """The (records x attributes) kernel against per-value bucketing."""

    @given(built=mixed_stores(), buckets=bucket_counts)
    @settings(max_examples=150, deadline=None)
    def test_from_store_matches_reference(self, built, buckets):
        store, columns, cats = built
        config = SummaryConfig(histogram_buckets=buckets)
        summary = ResourceSummary.from_store(store, config)
        expected = {"c": ValueSetSummary.from_values("c", cats)}
        for spec, values in zip(store.schema.numeric_attributes, columns):
            lo, hi = spec.bounds
            counts = reference_counts(values, lo, hi, buckets)
            oracle = HistogramSummary(spec.name, buckets, spec.bounds, counts=counts)
            expected[spec.name] = oracle
            for got in (
                summary.attributes[spec.name],
                # ... and the kernel's one-column case
                HistogramSummary.from_values(spec.name, values, buckets, spec.bounds),
            ):
                assert got.counts.tolist() == counts
                assert got == oracle
                assert got.fingerprint() == oracle.fingerprint()
                assert got.encoded_size() == reference_size(counts)
        assert summary.attributes["c"].values == frozenset(cats)
        whole = ResourceSummary(store.schema, config, expected)
        assert summary.fingerprint() == whole.fingerprint()
        assert summary.encoded_size() == whole.encoded_size()


def reference_span(h, lo, hi):
    """Bucket span of ``[lo, hi]`` by the NumPy formula ``may_match``
    used before the occupancy bitset (kept verbatim: it is the oracle the
    bit tests must reproduce bit for bit)."""
    lo = max(lo, h.lo)
    hi = min(hi, h.hi)
    if lo > hi:
        return slice(0, 0)
    m = h.buckets
    span = h.hi - h.lo
    first = int(np.clip(np.floor((lo - h.lo) / span * m), 0, m - 1))
    last = int(np.clip(np.floor((hi - h.lo) / span * m), 0, m - 1))
    return slice(first, last + 1)


DOMAINS = [(0.0, 1.0), (-5.0, 3.0), (-1e6, 1e6), (1.1e9, 1.17e9), (0.25, 0.3)]
EDGE_BUCKETS = [1, 7, 63, 64, 65, 1000]


@st.composite
def sparse_histograms(draw, buckets=st.sampled_from(EDGE_BUCKETS)):
    """A histogram over a non-trivial domain with a few occupied buckets."""
    m = draw(buckets)
    dom = draw(st.sampled_from(DOMAINS))
    occupied = draw(st.sets(st.integers(0, m - 1), max_size=8))
    counts = np.zeros(m, dtype=np.int64)
    for i in occupied:
        counts[i] = draw(st.integers(1, 5))
    return HistogramSummary("a", m, dom, counts=counts)


@st.composite
def endpoints(draw, h):
    """One range endpoint: on a bucket edge, one ulp either side of it,
    inside, outside the domain or infinite; as float or ``np.float64``."""
    span = h.hi - h.lo
    edge = h.lo + draw(st.integers(0, h.buckets)) * span / h.buckets
    x = draw(st.one_of(
        st.just(edge),
        st.just(float(np.nextafter(edge, np.inf))),
        st.just(float(np.nextafter(edge, -np.inf))),
        st.floats(min_value=h.lo - span, max_value=h.hi + span),
        st.sampled_from([h.lo, h.hi, -math.inf, math.inf]),
    ))
    return np.float64(x) if draw(st.booleans()) else x


class TestOccupancyPruning:
    """``may_match`` by bit test against the NumPy slice it replaced."""

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_bit_test_equals_numpy_reference(self, data):
        h = data.draw(sparse_histograms())
        lo, hi = sorted([data.draw(endpoints(h)), data.draw(endpoints(h))])
        buckets = reference_span(h, lo, hi)
        for _ in range(2):  # cold bitset, then cached bitset and memoised span
            assert h.may_match(RangePredicate("a", lo, hi)) is bool(
                h.counts[buckets].any()
            )

    @given(data=st.data(), buckets=st.sampled_from(EDGE_BUCKETS),
           dom=st.sampled_from(DOMAINS))
    @settings(max_examples=200, deadline=None)
    def test_no_false_negatives_on_any_domain(self, data, buckets, dom):
        inside = st.floats(min_value=dom[0], max_value=dom[1])
        values = data.draw(st.lists(inside, max_size=30))
        h = HistogramSummary.from_values("a", values, buckets, dom)
        lo, hi = sorted([data.draw(endpoints(h)), data.draw(endpoints(h))])
        if any(lo <= v <= hi for v in values):
            assert h.may_match(RangePredicate("a", lo, hi))

    @given(h=sparse_histograms(), other=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bitset_follows_the_counts(self, h, other):
        everything = RangePredicate("a", -math.inf, math.inf)
        span = h.hi - h.lo
        bucket = other.draw(st.integers(0, h.buckets - 1))
        value = h.lo + (bucket + 0.5) * span / h.buckets
        probe = RangePredicate("a", value, value)
        before = h.may_match(probe)
        assert before is bool(h.counts[reference_span(h, value, value)].any())
        # derived instances start without a bitset and answer from their
        # own counts, whatever the source had cached
        empty = HistogramSummary("a", h.buckets, (h.lo, h.hi))
        assert not empty.may_match(everything)
        added = HistogramSummary.from_values("a", [value], h.buckets, (h.lo, h.hi))
        decoded, _ = decode_histogram(encode_histogram(h))
        for derived, expected in (
            (h.copy(), before),
            (decoded, before),
            (h.merge(empty), before),
            (empty.merge(h), before),
            (empty.merge(added), True),
            (h.merge_many([empty, added]), True),
            (empty.merge_many([h]), before),
        ):
            assert derived._occupancy is None
            assert derived.may_match(probe) is expected
            assert derived.may_match(everything) is not derived.is_empty
        # ... and in-place growth drops a bitset that was already built
        assert h.may_match(everything) is not h.is_empty
        h.add_values([value])
        assert h.may_match(probe)
        assert h.may_match(everything)

    def test_bitset_is_built_lazily_and_shared_by_refreshed(self, unit_store):
        config = SummaryConfig(histogram_buckets=64)
        summary = ResourceSummary.from_store(unit_store, config)
        merged = ResourceSummary.merge_many([summary, summary.copy()])
        summary.fingerprint(), summary.encoded_size(), merged.fingerprint()
        for s in (summary, merged):  # the write path never builds one
            assert s._occupancy is None
        query = Query.of(RangePredicate("a", 0.0, 1.0), RangePredicate("c", 0.2, 0.4))
        assert summary.may_match(query)
        # one bitset per row of the block, bit i set iff bucket i is occupied
        assert summary._occupancy == [
            sum(1 << int(i) for i in np.flatnonzero(row)) for row in summary.block
        ]
        later = summary.refreshed(now=50.0)
        assert later.block is summary.block
        assert later._occupancy is summary._occupancy
        assert later.may_match(query)


BLOCK_SCHEMA = Schema([
    numeric("x"), categorical("c"), numeric("y", -5.0, 3.0), numeric("z", 1.1e9, 1.17e9),
])
CATEGORIES = ["red", "green", "blue", "teal"]
block_configs = st.builds(
    SummaryConfig,
    histogram_buckets=st.sampled_from([1, 7, 64, 65]),
)


@st.composite
def block_stores(draw):
    """A store on ``BLOCK_SCHEMA`` whose values stray outside each domain."""
    n = draw(st.integers(0, 20))
    columns = []
    for spec in BLOCK_SCHEMA.numeric_attributes:
        lo, hi = spec.bounds
        span = hi - lo
        value = st.one_of(
            st.floats(lo - span / 2, hi + span / 2), st.sampled_from([lo, hi])
        )
        columns.append(draw(st.lists(value, min_size=n, max_size=n)))
    cats = draw(st.lists(st.sampled_from(CATEGORIES), min_size=n, max_size=n))
    numeric_block = np.array(columns, dtype=np.float64).reshape(3, n).T
    return RecordStore.from_arrays(BLOCK_SCHEMA, numeric_block, [cats])


@st.composite
def block_predicates(draw):
    """A range or an equality on any ``BLOCK_SCHEMA`` attribute or on one
    it lacks: ranges inside, across and outside the domain or of one
    point (``lo == hi``), equalities on present and absent values."""
    name = draw(st.sampled_from(["x", "y", "z", "c", "missing"]))
    if draw(st.booleans()):
        return EqualsPredicate(name, draw(st.sampled_from(CATEGORIES + ["absent"])))
    spec = BLOCK_SCHEMA[name] if name in BLOCK_SCHEMA else None
    lo, hi = spec.bounds if spec is not None and spec.is_numeric else (0.0, 1.0)
    span = hi - lo
    end = st.one_of(
        st.floats(lo - span, hi + span), st.sampled_from([lo, hi, lo - span, hi + span])
    )
    a = draw(end)
    b = a if draw(st.booleans()) else draw(end)
    return RangePredicate(name, min(a, b), max(a, b))


def per_attribute_summaries(store, config):
    """Each attribute summarized on its own, without the counter block."""
    out = {}
    for spec in store.schema:
        if spec.is_numeric:
            out[spec.name] = HistogramSummary.from_values(
                spec.name, store.numeric_column(spec.name),
                config.histogram_buckets, spec.bounds,
            )
        else:
            out[spec.name] = ValueSetSummary.from_values(
                spec.name, store.categorical_column(spec.name)
            )
    return out


def per_predicate_may_match(attributes, query):
    """The conjunction asked predicate by predicate, in query order."""
    for p in query.predicates:
        if p.attribute not in attributes:
            raise KeyError(p.attribute)
        if not attributes[p.attribute].may_match(p):
            return False
    return True


def outcome(evaluate, query):
    try:
        return evaluate(query)
    except (KeyError, TypeError) as err:
        return type(err)


class TestBlockKernels:
    """The block kernels against the per-attribute summaries they replace."""

    @given(stores=st.lists(block_stores(), min_size=1, max_size=5), config=block_configs)
    @settings(max_examples=150, deadline=None)
    def test_block_merge_is_the_fold_of_attribute_merges(self, stores, config):
        merged = ResourceSummary.merge_many(
            ResourceSummary.from_store(s, config) for s in stores
        )
        parts = [per_attribute_summaries(s, config) for s in stores]
        folded = {
            name: functools.reduce(lambda a, b: a.merge(b), [p[name] for p in parts])
            for name in BLOCK_SCHEMA.names
        }
        for name, expected in folded.items():
            got = merged.attribute(name)
            assert got == expected
            assert got.fingerprint() == expected.fingerprint()
        whole = ResourceSummary(BLOCK_SCHEMA, config, folded)
        assert merged.block.tolist() == whole.block.tolist()
        assert merged.fingerprint() == whole.fingerprint()
        assert merged.encoded_size() == whole.encoded_size()
        assert merged.records == sum(len(s) for s in stores)

    @given(store=block_stores(), config=block_configs,
           predicates=st.lists(block_predicates(), min_size=1, max_size=5,
                               unique_by=lambda p: p.attribute))
    @settings(max_examples=400, deadline=None)
    def test_compiled_may_match_is_per_predicate_evaluation(self, store, config, predicates):
        summary = ResourceSummary.from_store(store, config)
        attributes = per_attribute_summaries(store, config)
        query = Query.of(*predicates)
        expected = outcome(lambda q: per_predicate_may_match(attributes, q), query)
        for _ in range(2):  # the plan compiled, then the plan kept on the query
            assert outcome(summary.may_match, query) == expected


names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
    min_size=1,
    max_size=12,
)
name_lists = st.lists(names, min_size=0, max_size=40)


class TestValueSetProperties:
    @given(a=name_lists, b=name_lists)
    @settings(max_examples=80, deadline=None)
    def test_valueset_merge_is_union(self, a, b):
        sa = ValueSetSummary.from_values("e", a)
        sb = ValueSetSummary.from_values("e", b)
        assert sa.merge(sb).values == frozenset(a) | frozenset(b)

    @given(values=name_lists, probe=names)
    @settings(max_examples=80, deadline=None)
    def test_valueset_exact(self, values, probe):
        s = ValueSetSummary.from_values("e", values)
        assert s.may_match(EqualsPredicate("e", probe)) == (probe in values)


class TestChordProperties:
    @given(n=st.integers(min_value=1, max_value=300),
           a=st.integers(min_value=0, max_value=299),
           b=st.integers(min_value=0, max_value=299))
    @settings(max_examples=150, deadline=None)
    def test_path_terminates_at_destination(self, n, a, b):
        assume(a < n and b < n)
        r = ChordRouter(n)
        path = r.path(a, b)
        assert len(path) == r.hops(a, b)
        assert (path[-1] if path else a) == b
        assert len(path) <= max(1, int(np.ceil(np.log2(n))) + 1)

    @given(n=st.integers(min_value=2, max_value=200),
           r=st.integers(min_value=1, max_value=16),
           v=unit_floats)
    @settings(max_examples=120, deadline=None)
    def test_responsible_server_in_declared_ring(self, n, r, v):
        assume(n >= r)
        h = LocalityHash(n, r)
        for ring in range(r):
            dest = int(h.responsible(ring, v))
            assert dest % r == ring

    @given(n=st.integers(min_value=4, max_value=120),
           r=st.integers(min_value=1, max_value=8),
           lo=unit_floats, hi=unit_floats)
    @settings(max_examples=120, deadline=None)
    def test_segment_covers_range(self, n, r, lo, hi):
        assume(n >= r and lo <= hi)
        h = LocalityHash(n, r)
        seg = set(int(s) for s in h.segment(0, lo, hi))
        for v in np.linspace(lo, hi, 7):
            assert int(h.responsible(0, float(v))) in seg


class TestHierarchyProperties:
    @given(n=st.integers(min_value=1, max_value=80),
           k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_join_builds_valid_tree(self, n, k):
        h = build_hierarchy(Server(i, max_children=k) for i in range(n))
        h.check_invariants()
        assert len(h) == n

    @given(n=st.integers(min_value=1, max_value=60),
           k=st.integers(min_value=2, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_depth_logarithmic(self, n, k):
        h = build_hierarchy(Server(i, max_children=k) for i in range(n))
        # levels L satisfies sum_{i<L} k^(i-1) capacity >= n
        levels = h.levels
        capacity = sum(k**i for i in range(levels))
        assert capacity >= n

    @given(n=st.integers(min_value=1, max_value=60),
           k=st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_overlay_coverage_total(self, n, k):
        """Replication sources + own subtree cover the whole hierarchy
        from every server — the overlay's defining invariant."""
        h = build_hierarchy(Server(i, max_children=k) for i in range(n))
        all_ids = {s.server_id for s in h}
        for server in h:
            assert coverage_ids(server) == all_ids

    @given(n=st.integers(min_value=2, max_value=60),
           k=st.integers(min_value=2, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_disjoint_cover_partition(self, n, k):
        """Own subtree + sibling branches + ancestor-sibling branches +
        ancestors partition the servers (no double-visits in routing)."""
        h = build_hierarchy(Server(i, max_children=k) for i in range(n))
        for server in h:
            pieces = [
                {x.server_id for x in server.iter_subtree()}
            ]
            for src in replication_sources(server):
                if src.server_id in server.root_path:
                    pieces.append({src.server_id})  # ancestor: local only
                else:
                    pieces.append(
                        {x.server_id for x in src.iter_subtree()}
                    )
            total = sum(len(p) for p in pieces)
            union = set().union(*pieces)
            assert total == len(union), "cover pieces overlap"
            assert union == {s.server_id for s in h}


# -- the write stamp: a reused summary is the one a scan would build --------------
STAMP_SERVERS = 5
STAMP_RECORDS = 6
#: 0..4 are the servers' own stores, 5 is the guest's
stamp_store = st.integers(min_value=0, max_value=STAMP_SERVERS)
stamp_ops = st.lists(
    st.one_of(
        st.tuples(st.just("extend"), stamp_store, unit_floats),
        st.tuples(st.just("update"), stamp_store, st.integers(0, 50), unit_floats),
        st.tuples(st.just("write_rows"), stamp_store, st.integers(0, 50), unit_floats),
        st.tuples(st.just("clear"), stamp_store),
        st.tuples(st.just("step")),
        st.tuples(st.just("epoch")),
        st.tuples(st.just("measure")),
        st.tuples(st.just("free_run"), st.floats(min_value=0.1, max_value=2.5)),
    ),
    min_size=1, max_size=14,
)


#: one owner's store under writes, re-summarizing and re-homing
owner_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), unit_floats),
        st.tuples(st.just("extend"), st.lists(unit_floats, max_size=3)),
        st.tuples(st.just("update"), st.integers(0, 50), st.integers(0, 15), unit_floats),
        st.tuples(st.just("write_rows"), st.integers(0, 50), unit_floats),
        st.tuples(st.just("clear")),
        st.tuples(st.just("summarize"), st.sampled_from([3, 16, 200])),
        st.tuples(st.just("rehome")),
    ),
    min_size=1, max_size=12,
)
#: endpoints stray outside the attributes' [0, 1] bounds on both sides
stray_floats = st.one_of(
    st.floats(min_value=-0.5, max_value=1.5), st.sampled_from([0.0, 1.0])
)
range_queries = st.lists(
    st.dictionaries(
        st.sampled_from(["u0", "u1", "r2", "p3"]),
        st.tuples(stray_floats, stray_floats),
        min_size=1, max_size=3,
    ).map(lambda d: Query.of(*(
        RangePredicate(name, min(pair), max(pair)) for name, pair in d.items()
    ))),
    min_size=1, max_size=4,
)


class TestWriteStampSoundness:
    """No interleaving of writes and update-plane activity lets a server
    advertise a summary other than the one a fresh scan would build —
    the cache across ticks cannot produce a false negative."""

    @given(ops=stamp_ops, delta=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_summary_equals_a_scan_from_scratch(self, ops, delta):
        stores = generate_node_stores(WorkloadConfig(
            num_nodes=STAMP_SERVERS + 1, records_per_node=STAMP_RECORDS, seed=2
        ))
        config = SummaryConfig(histogram_buckets=16)
        system = RoadsSystem.build(
            RoadsConfig(
                num_nodes=STAMP_SERVERS, records_per_node=STAMP_RECORDS,
                max_children=2, summary=config, summary_interval=1.0,
                delta_updates=delta, seed=2,
            ),
            stores[:STAMP_SERVERS],
            guests=[GuestOwner(stores[-1], attach_to=3, owner_id="g")],
        )
        plane, sim = system.update_plane, system.sim
        dynamics = RecordDynamics(Simulator(), stores, np.random.default_rng(3))
        dynamics.stop()
        summarize = AttachedOwner.summarize
        checked = []

        def same(got, scratch):
            assert got.attributes == scratch.attributes
            assert got.fingerprint() == scratch.fingerprint()
            assert got.encoded_size() == scratch.encoded_size()

        def checked_summarize(owner, cfg, now):
            got = summarize(owner, cfg, now)
            same(got, ResourceSummary.from_store(owner.origin, cfg))
            assert got.created_at == now == sim.now
            checked.append(owner.owner_id)
            return got

        def scratch_branch(server):
            return ResourceSummary.merge_many(
                [ResourceSummary.from_store(o.origin, config)
                 for o in server.owners]
                + [scratch_branch(c) for c in server.children]
            )

        def record(store, value):
            return ResourceRecord(
                store.schema, {a.name: value for a in store.schema}
            )

        with mock.patch.object(AttachedOwner, "summarize", checked_summarize):
            for op, *args in ops:
                if op == "extend":
                    stores[args[0]].extend([record(stores[args[0]], args[1])])
                elif op == "update" and len(stores[args[0]]):
                    store = stores[args[0]]
                    store.update_numeric(args[1] % len(store), "u1", args[2])
                elif op == "write_rows" and len(stores[args[0]]):
                    store = stores[args[0]]
                    rows = np.array([args[1] % len(store)])
                    store.write_rows(
                        rows, np.full((1, len(store.schema)), args[2])
                    )
                elif op == "clear":
                    stores[args[0]].clear()
                elif op == "step":
                    dynamics.step()
                elif op == "measure":
                    plane.measure_epoch()
                elif op == "free_run":
                    plane.start()
                    sim.run(until=sim.now + args[0])
                    plane.stop()
                    plane.drain()
                elif op == "epoch":
                    started = sim.now
                    measured = plane.measure_epoch()
                    del checked[:]
                    assert plane.run_epoch() == measured
                    assert sorted(checked) == sorted(
                        o.owner_id for s in system.hierarchy for o in s.owners
                    )
                    # loss-free and drained: every holder is current
                    for server in system.hierarchy:
                        if server.parent is None:
                            continue
                        held = server.parent.child_summaries[server.server_id]
                        same(held, scratch_branch(server))
                        assert started <= held.created_at <= sim.now

    @given(ops=owner_ops, queries=range_queries)
    @settings(max_examples=150, deadline=None)
    def test_owner_answers_what_a_scan_answers(self, ops, queries):
        """A server asks its own summary before it scans its records;
        whatever was written, summarized or swapped since, the answer is
        the scan's — a stale "no" would be a false negative."""
        stores = generate_node_stores(WorkloadConfig(
            num_nodes=2, records_per_node=STAMP_RECORDS, seed=2
        ))
        owner = AttachedOwner("o", stores[0], controls_server=True)
        names = [a.name for a in stores[0].schema]

        def record(value):
            return ResourceRecord(
                owner.origin.schema, {name: value for name in names}
            )

        def agree():
            for query in queries:
                assert owner.holds_match(query) == bool(
                    query.mask(owner.origin).any()
                )

        agree()  # nothing summarized yet
        for op, *args in ops:
            store = owner.origin
            if op == "append":
                store.append(record(args[0]))
            elif op == "extend":
                store.extend([record(v) for v in args[0]])
            elif op == "update" and len(store):
                store.update_numeric(
                    args[0] % len(store), names[args[1]], args[2]
                )
            elif op == "write_rows" and len(store):
                store.write_rows(
                    np.array([args[0] % len(store)]),
                    np.full((1, len(names)), args[1]),
                )
            elif op == "clear":
                store.clear()
            elif op == "summarize":
                owner.summarize(SummaryConfig(histogram_buckets=args[0]), 0.0)
            elif op == "rehome":
                owner.origin = stores[1] if store is stores[0] else stores[0]
            agree()
