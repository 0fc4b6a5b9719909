"""Exporter round-trips and the `repro telemetry` CLI subcommand."""

import json

import pytest

from repro.cli import main
from repro.telemetry import (
    Telemetry,
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)


def sample_telemetry():
    tel = Telemetry()
    tel.bind_clock(lambda: 0.1)
    tel.event("query.send", server=5, bytes=160)
    tel.emit_span("query.execute", 0.0, 0.4, server=3, client=1)
    tel.emit_span("net.transit", 0.1, 0.25, src=1, server=5,
                  category="query")
    return tel


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tel = sample_telemetry()
        path = tmp_path / "events.jsonl"
        n = write_jsonl(tel.events(), path)
        assert n == 3
        back = read_jsonl(path)
        assert back == tel.events()

    def test_lines_are_json_objects(self, tmp_path):
        path = tmp_path / "events.jsonl"
        write_jsonl(sample_telemetry().events(), path)
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            assert {"ts", "name", "kind", "tags"} <= set(obj)

    def test_older_export_with_parent_id_loads(self, tmp_path):
        # Exports written while events carried a span-stack parent still
        # load; parentage is the TraceContext tags, which they also carry.
        path = tmp_path / "old.jsonl"
        path.write_text(
            '{"ts": 0.5, "name": "query.execute", "kind": "span", '
            '"dur": 0.25, "span_id": 9, "parent_id": 4, '
            '"tags": {"trace_id": 1, "parent_span_id": 4}}\n'
        )
        (event,) = read_jsonl(path)
        assert (event.ts, event.name, event.kind, event.dur) == (
            0.5, "query.execute", "span", 0.25
        )
        assert event.span_id == 9
        assert event.tags == {"trace_id": 1, "parent_span_id": 4}
        assert "parent_id" not in event.to_dict()


class TestChromeTrace:
    def test_schema_keys(self):
        doc = chrome_trace(sample_telemetry().events())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "i", "M"} <= phases
        for e in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(e)
            if e["ph"] == "X":
                assert "dur" in e and e["dur"] >= 0
            if e["ph"] != "M":
                assert e["ts"] >= 0

    def test_microsecond_timestamps(self):
        doc = chrome_trace(sample_telemetry().events())
        transit = next(
            e for e in doc["traceEvents"] if e["name"] == "net.transit"
        )
        assert transit["ts"] == pytest.approx(0.1e6)
        assert transit["dur"] == pytest.approx(0.15e6)
        assert transit["pid"] == 5  # grouped by the server tag

    def test_write_is_loadable(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(sample_telemetry().events(), path)
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == n

    def test_overlapping_root_spans_get_distinct_lanes(self):
        tel = Telemetry()
        # Two untraced spans on the same server overlap in time; they
        # must land on different tid lanes or one hides the other in
        # the trace viewer.
        tel.emit_span("query.execute", 0.0, 1.0, server=2)
        tel.emit_span("update.aggregate", 0.2, 0.6, server=2)
        doc = chrome_trace(tel.events())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 2
        assert spans[0]["tid"] != spans[1]["tid"]

    def test_sequential_spans_share_lane_zero(self):
        tel = Telemetry()
        tel.emit_span("query.execute", 0.0, 0.5, server=2)
        tel.emit_span("query.execute", 1.0, 1.5, server=2)
        doc = chrome_trace(tel.events())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["tid"] for e in spans] == [0, 0]

    def test_lanes_are_per_pid(self):
        tel = Telemetry()
        # Concurrent spans on *different* servers do not need extra
        # lanes: each pid has its own allocator.
        tel.emit_span("query.execute", 0.0, 1.0, server=1)
        tel.emit_span("query.execute", 0.0, 1.0, server=2)
        doc = chrome_trace(tel.events())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["tid"] == 0 for e in spans)


class TestCausalFlows:
    """Flow events (``"s"``/``"f"`` pairs) link sender and receiver lanes."""

    @staticmethod
    def traced_pair(parent_pid=1, child_pid=5):
        tel = Telemetry()
        clock = {"t": 0.0}
        tel.bind_clock(lambda: clock["t"])
        root = tel.new_trace()
        tel.emit_span("query.contact", 0.0, 0.4, server=parent_pid,
                      **root.tags())
        hop = tel.fork(root)
        tel.emit_span("net.transit", 0.1, 0.3, server=child_pid,
                      **hop.tags())
        return tel, root, hop

    def test_cross_pid_edge_emits_flow_pair(self):
        tel, _, hop = self.traced_pair()
        doc = chrome_trace(tel.events())
        flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]
        assert len(flows) == 2
        start = next(e for e in flows if e["ph"] == "s")
        finish = next(e for e in flows if e["ph"] == "f")
        # One flow id — the child's span id — shared by both halves.
        assert start["id"] == finish["id"] == hop.span_id
        assert start["name"] == finish["name"] == "causal"
        assert finish["bp"] == "e"
        # Start rides the sender's lane; finish rides the receiver's.
        assert start["pid"] == 1 and finish["pid"] == 5
        assert finish["ts"] == pytest.approx(0.1e6)
        # The start anchor never floats after the child's begin.
        assert start["ts"] <= finish["ts"]

    def test_same_pid_edge_emits_no_flow(self):
        tel, _, _ = self.traced_pair(parent_pid=3, child_pid=3)
        doc = chrome_trace(tel.events())
        assert not [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]

    def test_flow_anchors_carry_final_lanes(self):
        # The parent pid also hosts an overlapping untraced span, which
        # forces lane fan-out; the flow start must reference the lane
        # the traced span actually ended up on.
        tel, root, hop = self.traced_pair()
        tel.emit_span("update.aggregate", 0.0, 0.5, server=1)
        doc = chrome_trace(tel.events())
        contact = next(
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "query.contact"
        )
        start = next(e for e in doc["traceEvents"] if e["ph"] == "s")
        assert start["tid"] == contact["tid"]

    def test_span_outranks_instant_for_flow_anchoring(self):
        # ``net.send`` (instant) and ``net.transit`` (span) share one
        # span id; the flow must anchor to the span's entry.
        tel = Telemetry()
        clock = {"t": 0.1}
        tel.bind_clock(lambda: clock["t"])
        root = tel.new_trace()
        tel.emit_span("query.contact", 0.0, 0.4, server=1, **root.tags())
        hop = tel.fork(root)
        tel.event("net.send", server=1, **hop.tags())
        tel.emit_span("net.transit", 0.1, 0.3, server=5, **hop.tags())
        doc = chrome_trace(tel.events())
        finish = next(e for e in doc["traceEvents"] if e["ph"] == "f")
        assert finish["pid"] == 5  # the span's pid, not the instant's

    def test_concurrent_searches_produce_linked_overlapping_spans(self):
        # N concurrent searches on a real federation: their query spans
        # overlap in time, land on distinct lanes where they share a
        # server, and every cross-server hop is linked by a flow pair.
        from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
        from repro.workload import (
            WorkloadConfig,
            generate_node_stores,
            generate_queries,
        )

        tel = Telemetry(capacity=100_000)
        wcfg = WorkloadConfig(num_nodes=16, records_per_node=40, seed=5)
        system = RoadsSystem.build(
            RoadsConfig(num_nodes=16, records_per_node=40, seed=5),
            generate_node_stores(wcfg),
            telemetry=tel,
        )
        queries = generate_queries(wcfg, num_queries=6)
        system.search_many(
            [
                SearchRequest(q, client_node=i)
                for i, q in enumerate(queries)
            ],
            arrivals=[0.0] * len(queries),
        )
        doc = chrome_trace(tel.events())
        flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "f")]
        assert flows
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        finishes = {e["id"] for e in flows if e["ph"] == "f"}
        assert starts == finishes  # every flow has both halves
        # Overlapping transits into one server fan out across lanes.
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert any(e["tid"] > 0 for e in spans)


class TestCli:
    def test_telemetry_command_prints_load_table(self, tmp_path, capsys):
        chrome = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        rc = main([
            "telemetry", "--nodes", "16", "--records", "30",
            "--queries", "8", "--seed", "3", "--top", "5",
            "--export-chrome", str(chrome),
            "--export-jsonl", str(jsonl),
            "--json", str(metrics),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "root-load share (with overlay)" in out
        assert "root-load share (without overlay" in out
        assert "query latency" in out
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert read_jsonl(jsonl)
        snapshot = json.loads(metrics.read_text())
        assert snapshot["bytes_by_category"]["query"] > 0
        assert any(h["name"] == "query.latency" for h in snapshot["histograms"])

    def test_bare_json_is_the_snapshot_alone(self, capsys):
        # The document on stdout, the load tables on stderr.
        rc = main([
            "telemetry", "--nodes", "16", "--records", "30",
            "--queries", "8", "--seed", "3", "--json",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert set(json.loads(captured.out)) == {
            "bytes_by_category", "messages_by_category", "rows", "histograms",
        }
        assert "root-load share (with overlay)" in captured.err
