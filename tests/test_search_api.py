"""The canonical search API.

Covers the SearchRequest/SearchResult objects, the scope/start_server
consistency fix, and the widening-search regression (one client for
every scope; escalation stops at min_matches).
"""

import dataclasses

import pytest

from repro.roads import (
    RetryPolicy,
    RoadsConfig,
    RoadsSystem,
    SearchRequest,
    SearchResult,
)
from repro.summaries import SummaryConfig
from repro.telemetry import Telemetry, assemble_traces
from repro.workload import WorkloadConfig, generate_node_stores, generate_queries

SEED = 5
NODES = 32


def build_system(telemetry=None, **overrides):
    wcfg = WorkloadConfig(num_nodes=NODES, records_per_node=80, seed=SEED)
    cfg = RoadsConfig(
        num_nodes=NODES,
        records_per_node=80,
        max_children=4,
        summary=SummaryConfig(histogram_buckets=200),
        seed=SEED,
        **overrides,
    )
    return RoadsSystem.build(
        cfg, generate_node_stores(wcfg), telemetry=telemetry
    )


@pytest.fixture(scope="module")
def queries():
    wcfg = WorkloadConfig(num_nodes=NODES, records_per_node=80, seed=SEED)
    return generate_queries(wcfg, num_queries=8, dimensions=3)


class TestSearchRequest:
    def test_inconsistent_scope_and_start_rejected(self, queries):
        with pytest.raises(ValueError, match="inconsistent"):
            SearchRequest(queries[0], scope=3, start_server=4)

    def test_matching_scope_and_start_allowed(self, queries):
        req = SearchRequest(queries[0], scope=3, start_server=3)
        assert req.entry_mode == "descent"

    def test_bad_first_k_rejected(self, queries):
        with pytest.raises(ValueError, match="first_k"):
            SearchRequest(queries[0], first_k=0)

    def test_entry_modes(self, queries):
        assert SearchRequest(queries[0]).entry_mode == "start"
        assert SearchRequest(queries[0], scope=2).entry_mode == "descent"
        assert (
            SearchRequest(queries[0], use_overlay=False).entry_mode
            == "descent"
        )

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1)

    @pytest.mark.parametrize(
        "field", ["timeout", "backoff_base"]
    )
    def test_retry_policy_rejects_nan(self, field):
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: float("nan")})

    @pytest.mark.parametrize(
        "field", ["timeout", "backoff_base"]
    )
    def test_retry_policy_rejects_infinity(self, field):
        # timeout=inf or backoff_base=inf used to pass; under loss the
        # latency became inf - inf and the search died on a NaN.
        with pytest.raises(ValueError, match=field):
            RetryPolicy(**{field: float("inf")})

    @pytest.mark.parametrize("retries", [1.5, float("inf"), True, "2", -1])
    def test_retries_is_a_non_negative_int(self, retries):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=retries)

    def test_backoff_schedule(self):
        p = RetryPolicy(backoff_base=0.2)
        assert p.delay_before_attempt(1) == 0.0
        assert p.delay_before_attempt(2) == pytest.approx(0.2)
        assert p.delay_before_attempt(3) == pytest.approx(0.4)
        assert p.delay_before_attempt(4) == pytest.approx(0.8)
        # base 0 = the historical immediate retry
        assert RetryPolicy().delay_before_attempt(2) == 0.0

    def test_contacts_wait_the_policys_schedule(self, queries):
        # The schedule above is the one that runs: on lossy links, the
        # gap between a contact deciding to retry (``query.retry``) and
        # its next send is the policy's delay for that attempt.
        from repro.telemetry import Telemetry

        policy = RetryPolicy(timeout=0.5, retries=3, backoff_base=0.1)
        tel = Telemetry()
        wcfg = WorkloadConfig(num_nodes=NODES, records_per_node=80, seed=SEED)
        system = RoadsSystem.build(
            RoadsConfig(
                num_nodes=NODES, records_per_node=80, max_children=4,
                summary=SummaryConfig(histogram_buckets=200), seed=SEED,
                loss_rate=0.3,
            ),
            generate_node_stores(wcfg), telemetry=tel,
        )
        gaps = {}  # attempt number -> observed gaps
        for i, q in enumerate(queries):
            tel.clear()
            system.search(SearchRequest(q, client_node=i, retry=policy))
            waiting = {}  # contact -> time its retry was decided
            for e in tel.events():
                contact = e.tags.get("subject")
                if e.name == "query.retry":
                    waiting[contact] = e.ts
                elif e.name == "query.send" and contact in waiting:
                    attempt = int(e.tags["detail"].rsplit("try=", 1)[1])
                    gaps.setdefault(attempt, []).append(
                        e.ts - waiting.pop(contact)
                    )
        assert set(gaps) == {2, 3, 4}, "loss never drove a third retry"
        assert policy.delay_before_attempt(4) == pytest.approx(0.4)
        for attempt, observed in gaps.items():
            assert observed == [
                pytest.approx(policy.delay_before_attempt(attempt))
            ] * len(observed)


class TestRefusedEntry:
    """A request whose client or entry is not in the federation is
    refused before its first message: the network's counters and the
    metrics registry read as if it had never been made."""

    @pytest.mark.parametrize("field, kwargs", [
        ("client_node", {"client_node": NODES}),
        ("client_node", {"client_node": -1}),
        ("start_server", {"client_node": 0, "start_server": NODES + 7}),
        ("scope", {"client_node": 0, "scope": NODES + 7}),
    ], ids=["client-past-end", "client-negative", "start-server", "scope"])
    def test_refused_before_anything_is_sent(self, field, kwargs, queries):
        system = build_system()
        system.search(SearchRequest(queries[0], client_node=1))
        counters = system.network.counters()
        rows = system.metrics.rows()
        pending = system.sim.pending
        for _ in range(2):
            with pytest.raises(ValueError, match=field):
                system.search(SearchRequest(queries[1], **kwargs))
        assert system.network.counters() == counters
        assert system.metrics.rows() == rows
        assert system.sim.pending == pending

    def test_departed_client_server_is_still_its_entry(self, queries):
        system = build_system()
        system.enable_maintenance().leave(system.hierarchy.get(8))
        result = system.search(SearchRequest(queries[0], client_node=8))
        assert result.outcome.start_server == 8
        assert result.outcome.completed and not result.ok
        with pytest.raises(ValueError, match="start_server"):
            system.search(
                SearchRequest(queries[0], client_node=1, start_server=8)
            )


class TestSearchResult:
    def test_delegates_to_outcome(self, queries):
        system = build_system()
        result = system.search(SearchRequest(queries[0], client_node=3))
        assert isinstance(result, SearchResult)
        assert result.total_matches == result.outcome.total_matches
        assert result.latency == result.outcome.latency
        assert result.servers_contacted == result.outcome.servers_contacted
        assert result.client_node == 3
        assert result.finished_at >= result.submitted_at
        assert result.sojourn == result.finished_at - result.submitted_at
        assert result.ok and not result.shed

    def test_unknown_attribute_raises(self, queries):
        system = build_system()
        result = system.search(SearchRequest(queries[0], client_node=3))
        with pytest.raises(AttributeError):
            result.no_such_attribute


class TestShimEquivalence:
    """Same seed -> identical QueryOutcome from independently built systems."""

    def test_no_overlay_equivalent(self, queries):
        request = SearchRequest(queries[0], client_node=2, use_overlay=False)
        first, second = build_system(), build_system()
        a = first.search(request).outcome
        b = second.search(request).outcome
        assert (a.total_matches, a.latency, a.servers_contacted) == (
            b.total_matches, b.latency, b.servers_contacted
        )
        assert (a.query_bytes, a.query_messages) == (
            b.query_bytes, b.query_messages
        )
        assert a.start_server == first.hierarchy.root.server_id


class TestWidening:
    def test_all_scopes_share_one_client(self, queries):
        """Regression: every scope of one widening search is issued by
        the same client node."""
        system = build_system()
        leaf = max(system.hierarchy, key=lambda s: s.depth)
        results = system.widening(
            SearchRequest(queries[0], client_node=leaf.server_id),
            min_matches=10**9,  # never satisfied: visit every scope
        )
        assert len(results) >= 2
        assert {r.outcome.client_node for r in results} == {leaf.server_id}
        # Scopes escalate: own server first, then each ancestor.
        assert results[0].request.scope == leaf.server_id
        assert results[-1].request.scope == system.hierarchy.root.server_id

    def test_escalation_stops_at_min_matches(self, queries):
        system = build_system()
        leaf = max(system.hierarchy, key=lambda s: s.depth)
        # Find a query with federation-wide matches, then ask for a
        # count the first sufficient scope can satisfy.
        full = system.search(
            SearchRequest(queries[0], client_node=leaf.server_id)
        )
        assume_matches = full.total_matches
        if assume_matches < 1:
            pytest.skip("workload produced no matches for this query")
        results = system.widening(
            SearchRequest(queries[0], client_node=leaf.server_id),
            min_matches=1,
        )
        # Stopped at the first scope with >= 1 match: every earlier
        # scope was insufficient.
        assert results[-1].total_matches >= 1
        for r in results[:-1]:
            assert r.total_matches < 1
        # And it did not needlessly widen to the root if an inner scope
        # sufficed.
        counts = [r.total_matches for r in results]
        assert counts == sorted(counts)

    def test_widening_requires_client(self, queries):
        system = build_system()
        with pytest.raises(ValueError, match="client_node"):
            system.widening(SearchRequest(queries[0]))


class TestDeprecationSurface:
    def test_shim_kwargs_map_one_to_one(self, queries):
        """Every request field reaches the execution it describes."""
        tel = Telemetry()
        system = build_system(telemetry=tel)
        o = system.search(
            SearchRequest(
                queries[0],
                client_node=1,
                scope=1,
                collect_records=True,
                first_k=3,
            )
        ).outcome
        assert o.client_node == 1
        assert o.start_server == 1
        # The system's telemetry recorded this execution's causal tree,
        # entered at the scope server in descent mode.
        tree = assemble_traces(tel.events())[o.trace_id]
        assert tree.root.name == "search"
        assert tree.root.event.tags["start_server"] == 1
        first = tree.find("query.contact")[0]
        assert first.event.tags["server"] == 1
        assert first.event.tags["mode"] == "descent"

    def test_search_request_is_frozen(self, queries):
        req = SearchRequest(queries[0], client_node=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            req.client_node = 2
