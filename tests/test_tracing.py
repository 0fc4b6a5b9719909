"""Tests for query execution tracing.

A search is recorded once: its ``query.*`` steps and spans on the
telemetry bus, assembled into one causal tree per ``trace_id``.
"""

import pytest

from repro.query import Query, RangePredicate
from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.summaries import SummaryConfig
from repro.telemetry import Telemetry, assemble_traces
from repro.workload import WorkloadConfig, generate_node_stores


def build_system(telemetry=None):
    wcfg = WorkloadConfig(num_nodes=16, records_per_node=40, seed=81)
    stores = generate_node_stores(wcfg)
    return RoadsSystem.build(
        RoadsConfig(num_nodes=16, records_per_node=40, max_children=3,
                    summary=SummaryConfig(histogram_buckets=60), seed=81),
        stores,
        telemetry=telemetry,
    )


@pytest.fixture(scope="module")
def system():
    return build_system(Telemetry())


def wide_query():
    return Query.of(RangePredicate("u0", 0.0, 1.0))


def traced(system, **kwargs):
    """One search's outcome, its ``query.*`` steps (the point events, in
    emission order) and its causal tree."""
    tel = system.telemetry
    tel.clear()
    o = system.search(
        SearchRequest(wide_query(), client_node=0, **kwargs)
    ).outcome
    steps = [
        e for e in tel.events()
        if e.kind == "event" and e.name.startswith("query.")
    ]
    return o, steps, assemble_traces(tel.events())[o.trace_id]


class TestTracing:
    def test_disabled_by_default(self):
        o = build_system().search(
            SearchRequest(wide_query(), client_node=0)
        ).outcome
        assert (o.trace_id, o.root_span_id) == (0, 0)

    def test_events_recorded(self, system):
        o, steps, tree = traced(system)
        names = [e.name for e in steps]
        assert "query.send" in names
        assert "query.arrive" in names
        assert "query.owner" in names
        # one send per contacted server (plus possible timeouts)
        assert names.count("query.send") >= o.servers_contacted
        assert len(tree.find("query.contact")) == o.servers_contacted
        assert len(tree.find("query.arrive")) == o.servers_contacted

    def test_times_monotone(self, system):
        _, steps, _ = traced(system)
        times = [e.ts for e in steps]
        assert times == sorted(times)

    def test_owner_events_carry_match_counts(self, system):
        o, steps, tree = traced(system)
        owner_events = [e for e in steps if e.name == "query.owner"]
        assert owner_events
        assert all("matches=" in e.tags["detail"] for e in owner_events)
        assert len(tree.find("query.owner")) == len(o.owner_hits)

    def test_format_trace_readable(self, system):
        _, _, tree = traced(system)
        text = tree.format()
        assert "ms" in text
        assert "query.arrive" in text
        assert len(text.splitlines()) == len(tree)

    def test_satisfied_event_with_first_k(self, system):
        o, steps, _ = traced(system, first_k=1)
        names = [e.name for e in steps]
        # Early termination leaves a visible mark when redirects are skipped.
        assert o.total_matches >= 1
        if o.servers_contacted < 16:
            assert "query.satisfied" in names or "query.redirect" in names
