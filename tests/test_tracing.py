"""Tests for query execution tracing."""

import pytest

from repro.query import Query, RangePredicate
from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.summaries import SummaryConfig
from repro.workload import WorkloadConfig, generate_node_stores


@pytest.fixture(scope="module")
def system():
    wcfg = WorkloadConfig(num_nodes=16, records_per_node=40, seed=81)
    stores = generate_node_stores(wcfg)
    return RoadsSystem.build(
        RoadsConfig(num_nodes=16, records_per_node=40, max_children=3,
                    summary=SummaryConfig(histogram_buckets=60), seed=81),
        stores,
    )


def wide_query():
    return Query.of(RangePredicate("u0", 0.0, 1.0))


class TestTracing:
    def test_disabled_by_default(self, system):
        o = system.search(SearchRequest(wide_query(), client_node=0)).outcome
        assert o.trace_events == []

    def test_events_recorded(self, system):
        o = system.search(SearchRequest(wide_query(), client_node=0, trace=True)).outcome
        events = [e for _, e, _, _ in o.trace_events]
        assert "send" in events
        assert "arrive" in events
        assert "owner" in events
        # one send per contacted server (plus possible timeouts)
        assert events.count("send") >= o.servers_contacted

    def test_times_monotone(self, system):
        o = system.search(SearchRequest(wide_query(), client_node=0, trace=True)).outcome
        times = [t for t, *_ in o.trace_events]
        assert times == sorted(times)

    def test_owner_events_carry_match_counts(self, system):
        o = system.search(SearchRequest(wide_query(), client_node=0, trace=True)).outcome
        owner_events = [e for e in o.trace_events if e[1] == "owner"]
        assert owner_events
        assert all("matches=" in e[3] for e in owner_events)

    def test_format_trace_readable(self, system):
        o = system.search(SearchRequest(wide_query(), client_node=0, trace=True)).outcome
        text = o.format_trace()
        assert "ms" in text
        assert "arrive" in text
        assert len(text.splitlines()) == len(o.trace_events)

    def test_satisfied_event_with_first_k(self, system):
        o = system.search(SearchRequest(wide_query(), client_node=0, trace=True, first_k=1)).outcome
        events = [e for _, e, _, _ in o.trace_events]
        # Early termination leaves a visible mark when redirects are skipped.
        assert o.total_matches >= 1
        if o.servers_contacted < 16:
            assert "satisfied" in events or "redirect" in events
