"""Hierarchical profiling plane: tree invariants, exports, determinism."""

import gc
import json

import pytest

from repro.bench import (
    RunPlan,
    compare_artifacts,
    profile_scenario,
    run_scenario,
)
from repro.bench.artifact import BenchArtifact
from repro.cli import main
from repro.experiments.config import ExperimentSettings
from repro.experiments.runner import (
    build_roads,
    build_workload,
    drive_queries,
    trial_queries,
)
from repro.net.transport import ServiceConfig
from repro.telemetry import Telemetry
from repro.telemetry.profiling import (
    PROFILE_SCHEMA,
    CallPathProfiler,
    census_document,
    census_fingerprint,
    collapsed_stacks,
    diff_documents,
    flatten_document,
    format_top,
    format_tree,
    hotspot_shares,
    parse_collapsed,
    parse_speedscope,
    speedscope_document,
    top_frames,
)


def _nested_profiler() -> CallPathProfiler:
    """A small hand-built tree: dispatch -> {deliver -> install, send}."""
    prof = CallPathProfiler()
    with prof.section("sim.dispatch"):
        with prof.section("net.deliver"):
            with prof.section("update.install"):
                pass
        with prof.section("net.send"):
            pass
    with prof.section("sim.dispatch"):
        with prof.section("net.send"):
            pass
    return prof


def _with_census(document, census):
    """*document* stamped with a network census, as ``profile_scenario``
    stamps its own (the profiler keeps none)."""
    return dict(
        document,
        census=census_document(census),
        census_fingerprint=census_fingerprint(census),
    )


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
        assert doc["schema"] == PROFILE_SCHEMA
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
        self_sum = sum(
            node["self_seconds"]
            for node in flatten_document(doc).values()
            # flatten merges same-name frames; walk the tree instead
        )
        # flatten_document already sums self over all paths per name, so
        # the per-name self times partition the total exactly.
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
        assert child["name"] == "a"
        # The flat view counts only the top-most occurrence, so the
        # recursive nesting never exceeds the profiled total.
        flat = prof.flat()["a"]
        assert flat["calls"] == 2
        assert flat["seconds"] == pytest.approx(root["cum_seconds"])
        assert flat["seconds"] <= doc["total_seconds"] + 1e-9

    def test_dual_clock_records_sim_seconds(self):
        clock = {"now": 0.0}
        prof = CallPathProfiler()
        prof.bind_clock(lambda: clock["now"])
        prof.enter("sim.dispatch")
        clock["now"] = 2.5
        prof.exit()
        (root,) = prof.document()["tree"]["children"]
        assert root["sim_seconds"] == pytest.approx(2.5)

    def test_unbalanced_exit_raises(self):
        prof = CallPathProfiler()
        with pytest.raises(RuntimeError):
            prof.exit()

    def test_add_attaches_leaf_under_current_path(self):
        prof = CallPathProfiler()
        with prof.section("sim.dispatch"):
            prof.add("io.flush", 0.125, calls=3)
        (root,) = prof.document()["tree"]["children"]
        (leaf,) = root["children"]
        assert leaf["name"] == "io.flush"
        assert leaf["calls"] == 3
        assert leaf["cum_seconds"] == pytest.approx(0.125)
        assert leaf["self_seconds"] == pytest.approx(0.125)


class TestFlatShim:
    def test_nested_same_name_not_double_counted(self):
        prof = CallPathProfiler()
        with prof.section("sim.dispatch"):
            with prof.section("sim.dispatch"):
                pass
        flat = prof.flat()["sim.dispatch"]
        assert flat["calls"] == 2
        # ``seconds`` is the top-most cumulative, not the sum over both
        # nesting levels, so it never exceeds the profiled total.
        assert flat["seconds"] <= prof.total_seconds + 1e-9

    def test_snapshot_shape_and_reset(self):
        prof = CallPathProfiler()
        with prof.section("net.send"):
            pass
        prof.count("sim.events", 7)
        assert set(prof.flat()["net.send"]) == {
            "calls", "seconds", "self_seconds"
        }
        assert prof.counter("sim.events") == 7
        prof.reset()
        assert prof.flat() == {}
        assert prof.counter("sim.events") == 0

    def test_telemetry_attach_binds_clock(self):
        tel = Telemetry()
        tel.bind_clock(lambda: 42.0)
        prof = CallPathProfiler()
        tel.attach_profiler(prof)
        assert prof._clock() == 42.0


class TestExports:
    @pytest.fixture(scope="class")
    def document(self):
        return _with_census(
            _nested_profiler().document(),
            {"query": {3: 2}, "summary-full": {1: 5}},
        )

    def test_collapsed_round_trip(self, document):
        stacks = parse_collapsed(collapsed_stacks(document))
        assert stacks  # at least one non-zero-self path
        for path in stacks:
            assert path[0] == "sim.dispatch"

    def test_speedscope_round_trip(self, document):
        doc = speedscope_document(document)
        assert doc["$schema"].startswith("https://www.speedscope.app")
        (profile,) = doc["profiles"]
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        assert parse_speedscope(doc) == parse_collapsed(
            collapsed_stacks(document)
        )

    def test_census_fingerprint_is_order_independent(self, document):
        census = document["census"]
        reordered = {
            kind: dict(reversed(list(per.items())))
            for kind, per in reversed(list(census.items()))
        }
        assert census_fingerprint(reordered) == document["census_fingerprint"]
        assert census_fingerprint(reordered) != census_fingerprint(
            {"query": {"3": 99}}
        )

    def test_top_frames_and_formatting(self, document):
        frames = top_frames(document, k=3)
        assert len(frames) <= 3
        text = format_top(document)
        assert "sim.dispatch" in text
        assert "self s" in text
        tree_text = format_tree(document, min_share=0.0)
        assert "sim.dispatch" in tree_text.splitlines()[0]

    def test_hotspot_shares_sum_to_one(self, document):
        shares = hotspot_shares(document)
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-6)


class TestDiff:
    def test_identical_documents(self):
        doc = _with_census(_nested_profiler().document(), {"query": {1: 1}})
        text = diff_documents(doc, doc, label_a="old", label_b="new")
        assert "identical" in text

    def test_census_change_flagged(self):
        doc = _nested_profiler().document()
        text = diff_documents(
            _with_census(doc, {"query": {1: 1}}),
            _with_census(doc, {"summary-full": {2: 1}}),
        )
        assert "DIFFERENT" in text


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


class TestProfileScenarioAndCli:
    @pytest.fixture(scope="class")
    def document(self):
        # A full collection of the whole suite's heap costs about as much
        # as this 0.3 s run and is charged to whichever frame is open
        # when it triggers; collect now so the frame times below are the
        # frames' own.
        gc.collect()
        return profile_scenario("smoke", 3)

    def test_document_shape(self, document):
        assert document["schema"] == PROFILE_SCHEMA
        assert document["total_seconds"] > 0
        flat = flatten_document(document)
        assert "sim.dispatch" in flat
        assert "net.deliver" in flat
        assert document["census"]  # at least one message kind delivered

    def test_dispatch_loop_dominates_tree(self, document):
        roots = {r["name"]: r for r in document["tree"]["children"]}
        assert "sim.dispatch" in roots
        top_root = max(
            document["tree"]["children"], key=lambda r: r["cum_seconds"]
        )
        assert top_root["name"] == "sim.dispatch"

    def test_cli_profile_run_and_exports(self, tmp_path, capsys):
        json_path = tmp_path / "prof.json"
        collapsed_path = tmp_path / "prof.collapsed"
        speedscope_path = tmp_path / "prof.speedscope.json"
        rc = main([
            "profile", "--scale", "smoke", "--seed", "3",
            "--tree",
            "--json", str(json_path),
            "--collapsed", str(collapsed_path),
            "--speedscope", str(speedscope_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sim.dispatch" in out
        assert "hotspots:" in out
        doc = json.loads(json_path.read_text())
        assert doc["schema"] == PROFILE_SCHEMA
        assert parse_collapsed(collapsed_path.read_text())
        scope = json.loads(speedscope_path.read_text())
        assert parse_speedscope(scope) == parse_collapsed(
            collapsed_path.read_text()
        )

    def test_cli_profile_diff(self, tmp_path, capsys):
        doc = _with_census(_nested_profiler().document(), {"query": {1: 1}})
        path = tmp_path / "a.json"
        path.write_text(json.dumps(doc))
        rc = main(["profile", "--diff", str(path), str(path)])
        assert rc == 0
        assert "identical" in capsys.readouterr().out

    def test_cli_profile_diff_rejects_non_profile(self, tmp_path, capsys):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        rc = main(["profile", "--diff", str(path), str(path)])
        assert rc == 2
        assert PROFILE_SCHEMA in capsys.readouterr().out

    @pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"])
    def test_cli_profile_diff_unreadable_file_exits_2(
        self, content, tmp_path, capsys
    ):
        good = tmp_path / "a.json"
        good.write_text(json.dumps(_nested_profiler().document()))
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        rc = main(["profile", "--diff", str(good), str(bad)])
        assert rc == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"{bad}: ")

    def test_cli_profile_takes_no_scenario(self, capsys):
        # The canonical run is the same for every scenario, so there is
        # nothing for a positional to select.
        with pytest.raises(SystemExit) as exc:
            main(["profile", "fig3", "--scale", "smoke"])
        assert exc.value.code == 2


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
        document = profile_scenario("smoke", 3)
        assert set(artifact.profile) == {"census_fingerprint", "census_kinds"}
        assert (
            artifact.profile["census_fingerprint"]
            == document["census_fingerprint"]
        )
        # The plain run and the armed one stamp the same network census.
        assert artifact.profile["census_kinds"] == {
            kind: sum(per.values()) for kind, per in document["census"].items()
        }
