"""Unit tests for repro.roads.policy (voluntary sharing)."""

import numpy as np
import pytest

from repro.query import Query, RangePredicate
from repro.records import RecordStore, Schema, numeric
from repro.roads import OpenPolicy, PolicyTable, TieredPolicy

#: a discoverable owner that returns no record to anyone
CLOSED = TieredPolicy(public_limit=0)


@pytest.fixture
def schema():
    return Schema([numeric("rate", 0, 1000), numeric("cost", 0, 100)])


@pytest.fixture
def store(schema):
    rng = np.random.default_rng(0)
    vals = np.column_stack([rng.uniform(0, 1000, 50), rng.uniform(0, 100, 50)])
    return RecordStore.from_arrays(schema, vals, [])


def q(requester=None):
    return Query.of(RangePredicate("rate", 0, 1000), requester=requester)


class TestOpenPolicy:
    def test_returns_all_matches(self, store):
        out = OpenPolicy().answer(q("anyone"), store)
        assert len(out) == 50

    def test_respects_query(self, store):
        narrow = Query.of(RangePredicate("rate", 0, 100), requester="x")
        out = OpenPolicy().answer(narrow, store)
        assert len(out) == narrow.match_count(store)


class TestDenyAllPolicy:
    """Deny-all is the tiered policy with no partners and no public view."""

    def test_returns_nothing(self, store):
        assert len(CLOSED.answer(q("anyone"), store)) == 0


class TestAllowListPolicy:
    """An allow list is the tiered policy's partners with no public view."""

    def test_partner_sees_all(self, store):
        p = TieredPolicy(partners=frozenset({"partner"}), public_limit=0)
        assert len(p.answer(q("partner"), store)) == 50

    def test_stranger_sees_nothing(self, store):
        p = TieredPolicy(partners=frozenset({"partner"}), public_limit=0)
        assert len(p.answer(q("stranger"), store)) == 0

    def test_anonymous_sees_nothing(self, store):
        p = TieredPolicy(partners=frozenset({"partner"}), public_limit=0)
        assert len(p.answer(q(None), store)) == 0


class TestTieredPolicy:
    def test_partner_full_view(self, store):
        p = TieredPolicy(
            partners=frozenset({"acme"}),
            public_predicate=lambda s: s.mask_range("cost", 0, 10),
        )
        assert len(p.answer(q("acme"), store)) == 50

    def test_public_restricted_view(self, store):
        p = TieredPolicy(
            partners=frozenset({"acme"}),
            public_predicate=lambda s: s.mask_range("cost", 0, 10),
        )
        out = p.answer(q("stranger"), store)
        assert len(out) == int(store.mask_range("cost", 0, 10).sum())
        assert all(v <= 10 for v in out.numeric_column("cost"))

    def test_public_limit(self, store):
        p = TieredPolicy(partners=frozenset(), public_limit=5)
        assert len(p.answer(q("x"), store)) == 5

    @pytest.mark.parametrize("limit", [-1, -3])
    def test_negative_public_limit_is_refused(self, limit):
        # A limit of -1 used to return all matches but the last one.
        with pytest.raises(ValueError, match="public_limit must be >= 0"):
            TieredPolicy(public_limit=limit)

    def test_views_differ_between_requesters(self, store):
        """The paper's motivating property: different views per party."""
        p = TieredPolicy(
            partners=frozenset({"acme"}),
            public_predicate=lambda s: s.mask_range("cost", 0, 10),
        )
        partner_view = p.answer(q("acme"), store)
        public_view = p.answer(q("rando"), store)
        assert len(partner_view) > len(public_view)


class TestRateLimitPolicy:
    """A per-query cap is the tiered policy's public limit."""

    def test_caps_results(self, store):
        assert len(TieredPolicy(public_limit=7).answer(q("x"), store)) == 7

    def test_under_cap_untouched(self, store):
        narrow = Query.of(RangePredicate("rate", 0, 30))
        p = TieredPolicy(public_limit=1000)
        assert len(p.answer(narrow, store)) == narrow.match_count(store)


class TestPolicyIsSubsetOfMatches:
    def test_policy_cannot_fabricate(self, store):
        """Every policy answer must be a subset of the true match set."""

        class Evil(OpenPolicy):
            def filter_matches(self, requester, store, mask):
                return np.ones_like(mask)  # returns non-matching rows

        narrow = Query.of(RangePredicate("rate", 0, 10), requester="x")
        if narrow.match_count(store) < len(store):
            with pytest.raises(ValueError, match="outside the match set"):
                Evil().answer(narrow, store)


class TestPolicyTable:
    def test_default_open(self, store):
        table = PolicyTable()
        assert len(table.answer("unknown-owner", q("x"), store)) == 50

    def test_per_owner_override(self, store):
        table = PolicyTable()
        table.set("secretive", CLOSED)
        assert len(table.answer("secretive", q("x"), store)) == 0
        assert len(table.answer("other", q("x"), store)) == 50

    def test_custom_default(self, store):
        table = PolicyTable(default=CLOSED)
        assert len(table.answer("anyone", q("x"), store)) == 0
