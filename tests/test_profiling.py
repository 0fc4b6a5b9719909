"""The call-path recorder: tree invariants, determinism, the census
stamp an artifact carries."""

import json

import pytest

from repro.bench import (
    RunPlan,
    census_fingerprint,
    compare_artifacts,
    run_scenario,
)
from repro.bench.artifact import BenchArtifact
from repro.bench.scenarios import _canonical_block
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import (
    build_roads,
    build_workload,
    drive_queries,
    trial_queries,
)
from repro.net.transport import ServiceConfig
from repro.telemetry import CallPathProfiler, Telemetry


def _nested_profiler() -> CallPathProfiler:
    """A small hand-built tree: dispatch -> {deliver -> install, send}."""
    prof = CallPathProfiler()
    for path in (
        ("sim.dispatch", ("net.deliver", ("update.install",)), ("net.send",)),
        ("sim.dispatch", ("net.send",)),
    ):
        _enter_tree(prof, path)
    return prof


def _enter_tree(prof: CallPathProfiler, node) -> None:
    """``enter`` *node*'s name, then each child subtree, then ``exit``."""
    name, *children = node
    prof.enter(name)
    for child in children:
        _enter_tree(prof, child)
    prof.exit()


def _nodes(node):
    """Every node under *node* of a document tree, depth first."""
    for child in node["children"]:
        yield child
        yield from _nodes(child)


def _check_invariants(node, parent_cum=None):
    """self <= cum, children-cum sum <= cum, recursively."""
    cum = node["cum_seconds"]
    assert 0.0 <= node["self_seconds"] <= cum + 1e-12
    child_sum = sum(c["cum_seconds"] for c in node.get("children", []))
    assert child_sum <= cum + 1e-9
    if parent_cum is not None:
        assert cum <= parent_cum + 1e-9
    for child in node.get("children", []):
        _check_invariants(child, cum)


class TestCallPathTree:
    def test_tree_structure_and_invariants(self):
        doc = _nested_profiler().document()
        assert set(doc) == {"total_seconds", "tree"}
        roots = doc["tree"]["children"]
        assert [r["name"] for r in roots] == ["sim.dispatch"]
        dispatch = roots[0]
        assert dispatch["calls"] == 2
        assert sorted(c["name"] for c in dispatch["children"]) == [
            "net.deliver", "net.send",
        ]
        deliver = next(
            c for c in dispatch["children"] if c["name"] == "net.deliver"
        )
        assert [c["name"] for c in deliver["children"]] == ["update.install"]
        for root in roots:
            _check_invariants(root)

    def test_self_time_partitions_total(self):
        doc = _nested_profiler().document()
        self_sum = sum(node["self_seconds"] for node in _nodes(doc["tree"]))
        assert self_sum == pytest.approx(doc["total_seconds"], rel=1e-9)

    def test_recursive_frame_nests_without_double_count(self):
        prof = CallPathProfiler()
        prof.enter("a")
        prof.enter("a")  # self-nested: a distinct a/a child path
        prof.exit()
        prof.exit()
        doc = prof.document()
        (root,) = doc["tree"]["children"]
        assert root["name"] == "a"
        assert root["calls"] == 1
        (child,) = root["children"]
        assert child["name"] == "a" and child["calls"] == 1
        # The nested frame's time is inside its parent's, never added to
        # it: the total is the top-most frame's.
        assert child["cum_seconds"] <= root["cum_seconds"]
        assert doc["total_seconds"] == root["cum_seconds"]

    def test_unbalanced_exit_raises(self):
        prof = CallPathProfiler()
        with pytest.raises(RuntimeError):
            prof.exit()


class TestExports:
    """The census stamp every artifact exports (``repro.bench``)."""

    def test_census_fingerprint_is_order_independent(self):
        census = {"query": {3: 2, 1: 4}, "summary-full": {1: 5}}
        reordered = {
            kind: dict(reversed(list(per.items())))
            for kind, per in reversed(list(census.items()))
        }
        assert census_fingerprint(reordered) == census_fingerprint(census)
        assert census_fingerprint(reordered) != census_fingerprint(
            {"query": {"3": 99}}
        )


#: census fingerprints of :func:`_serviced_run`, per seed, as the
#: parent commit's *profiler* took them (``prof.census`` in
#: ``Network._invoke``, since deleted): the network's own census hashes
#: to the same bytes
PARENT_PROFILER_CENSUS = {5: "37dea9eb1bd3869f", 11: "941441a807e1dd3c"}


def _serviced_run(seed, telemetry):
    """The seeded smoke workload over every delivery path: the build's
    epoch through the batch handlers, then searches and one more epoch
    through per-server service queues."""
    settings = ExperimentSettings.smoke().with_(seed=seed)
    wcfg, stores = build_workload(settings, seed)
    system = build_roads(settings, stores, seed, telemetry)
    system.enable_service(ServiceConfig(service_time=0.002, queue_limit=64))
    drive_queries(system, *trial_queries(settings, wcfg, seed)).refresh()
    return system


class TestDeterminismTripwire:
    """Attaching the profiler must not perturb the simulation."""

    @pytest.mark.parametrize("seed", [5, 11])
    def test_profiled_arm_matches_unprofiled(self, seed):
        settings = ExperimentSettings.smoke().with_(seed=seed)

        wcfg, stores = build_workload(settings, seed)
        trial = trial_queries(settings, wcfg, seed)
        plain = drive_queries(build_roads(settings, stores, seed), *trial)

        tel = Telemetry()
        tel.attach_profiler(CallPathProfiler())
        profiled = drive_queries(
            build_roads(settings, stores, seed, tel), *trial
        )

        reg_a = plain.metrics
        reg_b = profiled.metrics
        assert (
            reg_a.merged_histogram("query.latency").summary()
            == reg_b.merged_histogram("query.latency").summary()
        )
        assert plain.sim.now == profiled.sim.now
        assert plain.sim.processed == profiled.sim.processed
        # The census is the network's: the same, watched or not.
        assert plain.network.census == profiled.network.census
        assert (
            sum(plain.network.delivered_by_kind.values())
            == plain.network.delivered
        )

    @pytest.mark.parametrize("seed", sorted(PARENT_PROFILER_CENSUS))
    def test_network_census_is_the_parents_profiler_census(self, seed):
        plain = _serviced_run(seed, None)
        tel = Telemetry()
        tel.attach_profiler(CallPathProfiler())
        profiled = _serviced_run(seed, tel)
        assert plain.network.census == profiled.network.census
        # batch-handler and service-queue deliveries are both in it
        root = plain.hierarchy.root.server_id
        assert plain.network.census["summary-full"][root]
        assert plain.network.service_stats(root)["served"] > 0
        assert (
            census_fingerprint(plain.network.census)
            == PARENT_PROFILER_CENSUS[seed]
        )


class TestArmedRun:
    def test_armed_profiler_records_dispatch_and_delivery_frames(self):
        # The engine and network hooks stay: a profiler attached before
        # the build sees the dispatch loop and the deliveries under it.
        tel = Telemetry()
        tel.attach_profiler(CallPathProfiler())
        _serviced_run(3, tel)
        doc = tel.profiler.document()
        names = {node["name"] for node in _nodes(doc["tree"])}
        assert "sim.dispatch" in names
        assert any(name.startswith("net.deliver") for name in names)
        assert doc["total_seconds"] > 0


class TestCompareGate:
    @pytest.fixture(scope="class")
    def artifact(self):
        return run_scenario(RunPlan("overlay", scale="smoke", seed=3))

    def _clone(self, artifact: BenchArtifact) -> BenchArtifact:
        return BenchArtifact.from_dict(
            json.loads(json.dumps(artifact.to_dict()))
        )

    def test_census_mismatch_is_hard_failure(self, artifact):
        current = self._clone(artifact)
        current.profile["census_fingerprint"] = "deadbeefdeadbeef"
        result = compare_artifacts(current, artifact)
        assert not result.ok
        assert any("census fingerprint" in f for f in result.failures)

    def test_census_missing_on_either_side_fails_closed(self, artifact):
        blank = self._clone(artifact)
        del blank.profile["census_fingerprint"]
        for current, baseline in ((blank, artifact), (artifact, blank)):
            result = compare_artifacts(current, baseline)
            assert not result.ok
            assert any("fingerprint missing" in f for f in result.failures)

    def test_profile_block_in_artifact(self, artifact):
        plan = RunPlan("overlay", scale="smoke", seed=3)
        _, census = _canonical_block(plan.settings(), plan.seed)
        assert set(artifact.profile) == {"census_fingerprint", "census_kinds"}
        assert artifact.profile["census_fingerprint"] == (
            census_fingerprint(census)
        )
        assert artifact.profile["census_kinds"] == {
            kind: sum(per.values()) for kind, per in census.items()
        }
