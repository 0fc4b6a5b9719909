"""Damaged files handed to the verbs that read them.

``repro trace`` (``read_jsonl``), ``repro postmortem``
(``PostmortemBundle.load``) and ``repro bench compare``
(``load_artifact``) each read a file a user points them at. Starting
from a valid artifact of each kind, Hypothesis truncates it, retypes a
field, drops a required key, appends junk or nests a field's value as
many lists deep as the recursion limit (1 000 in a plain interpreter:
a 2 KB file) — and, in a postmortem bundle, puts a non-finite number
anywhere; every verb must then print exactly one ``PATH: reason`` line
and exit 2 — never a traceback, never a rendering of the damaged file.
"""

import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.query import Query, RangePredicate
from repro.roads import RoadsConfig, RoadsSystem, SearchRequest
from repro.telemetry import FlightRecorder, Telemetry

BASELINE = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines" / "BENCH_fig3.json"

#: values of another JSON type than the field's, per field kind
WRONG = {
    "finite": [None, True, "1.5", [1], {"k": 1}, math.nan, math.inf],
    "number": [None, True, "1.5", [1], {"k": 1}],
    "int": [None, True, "3", [1], {"k": 1}, 1.5],
    "str": [None, True, 3, [1], {"k": 1}],
    "list": [None, True, 3, "x", {"k": 1}],
    "objects": [None, True, 3, "x", {"k": 1}, [1]],
    "dict": [None, True, 3, "x", [1]],
    "dict-or-null": [True, 3, "x", [1]],
    "schema": [None, True, 99, "x", [1]],
}
#: lines no event file may end with
JUNK_LINES = ["{", "[1]", "null", '"x"', '{"ts": 1.0}', '{"ts": NaN, "name": "x"}']
#: text no JSON document may be followed by
JUNK_TAILS = ["x", "{}", "[1]", ","]
#: what a nested value is written as, then swapped for the nested lists
NEST = "nested-lists"


def _event_fields(prefix, event):
    """(path, kind) of every typed field of one event dict."""
    for key, kind in (("ts", "finite"), ("name", "str"), ("kind", "str"),
                      ("dur", "finite"), ("span_id", "int"), ("tags", "dict")):
        yield prefix + (key,), kind
    for key in ("trace_id", "span_id", "parent_span_id"):
        if key in event["tags"]:
            yield prefix + ("tags", key), "int"


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _drop(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    del doc[path[-1]]


def _numbers(doc, path=()):
    """The path of every number in *doc*."""
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _numbers(value, path + (key,))


class Kind:
    """One artifact kind: its valid document, its typed fields, its
    required keys, how it is written, and the numbers that may not be
    made non-finite."""

    def __init__(self, doc, typed, required, jsonl=False, finite=()):
        self.doc, self.typed, self.required, self.jsonl = doc, typed, required, jsonl
        self.finite = list(finite)

    def text(self, doc):
        if self.jsonl:
            return "".join(json.dumps(e) + "\n" for e in doc)
        return json.dumps(doc, indent=2) + "\n"


@pytest.fixture(scope="module")
def kinds():
    tel = Telemetry()
    from repro.workload import WorkloadConfig, generate_node_stores

    stores = generate_node_stores(
        WorkloadConfig(num_nodes=8, records_per_node=10, seed=5)
    )
    system = RoadsSystem.build(
        RoadsConfig(num_nodes=8, records_per_node=10, seed=5), stores,
        telemetry=tel,
    )
    recorder = FlightRecorder(tel)
    for lo in (0.1, 0.5):
        system.search(SearchRequest(
            Query.of(RangePredicate("u0", lo, lo + 0.2)), client_node=0,
        ))
    events = [e.to_dict() for e in tel.events() if "trace_id" in e.tags][:16]
    bundle = recorder.trigger().to_dict()
    bundle["rings"] = [{**r, "events": r["events"][:4]} for r in bundle["rings"][:2]]
    assert events and bundle["rings"][0]["events"]

    event_typed = [f for i, e in enumerate(events) for f in _event_fields((i,), e)]
    event_required = [(i, k) for i in range(len(events)) for k in ("ts", "name")]

    bundle_typed = [
        (("schema",), "schema"), (("reason",), "str"),
        (("triggered_at",), "number"), (("window",), "objects"),
        (("window", 0), "number"), (("window", 1), "number"),
        (("check",), "dict-or-null"), (("report",), "dict-or-null"),
        (("quality",), "dict-or-null"), (("series",), "objects"),
        (("rings",), "objects"),
    ]
    bundle_required = [(k,) for k in bundle]
    for i, entry in enumerate(bundle["rings"]):
        bundle_typed.append((("rings", i, "events"), "objects"))
        bundle_required.append(("rings", i, "events"))
        for j, event in enumerate(entry["events"]):
            prefix = ("rings", i, "events", j)
            bundle_typed.append((prefix, "dict"))
            bundle_typed.extend(_event_fields(prefix, event))
            bundle_required.extend([prefix + ("ts",), prefix + ("name",)])

    artifact = json.loads(BASELINE.read_text())
    artifact_typed = [
        (("schema",), "schema"), (("seed",), "int"),
        (("created_unix",), "number"), (("rows",), "list"),
    ] + [((k,), "str") for k in ("scenario", "scale", "git_rev", "config_fingerprint")] + [
        ((k,), "dict") for k in ("settings", "metrics", "simulated", "shape", "profile")
    ] + [(("metrics", k), "number") for k in sorted(artifact["metrics"])[:8]]
    artifact_required = [(k,) for k in artifact] + [("shape", "failures")]

    return {
        "trace": Kind(events, event_typed, event_required, jsonl=True),
        "postmortem": Kind(
            bundle, bundle_typed, bundle_required, finite=_numbers(bundle)
        ),
        "bench compare": Kind(artifact, artifact_typed, artifact_required),
    }


def _damaged(data, kind):
    """The damaged file's text, drawn by Hypothesis."""
    doc = json.loads(json.dumps(kind.doc))
    hows = ["truncate", "retype", "drop", "append", "nest"] + ["nonfinite"] * bool(kind.finite)
    how = data.draw(st.sampled_from(hows))
    if how == "nest":
        _set(doc, data.draw(st.sampled_from(kind.typed))[0], NEST)
    elif how == "nonfinite":
        path = data.draw(st.sampled_from(kind.finite))
        _set(doc, path, data.draw(st.sampled_from([math.nan, math.inf, -math.inf])))
    elif how == "retype":
        path, field = data.draw(st.sampled_from(kind.typed))
        _set(doc, path, data.draw(st.sampled_from(WRONG[field])))
    elif how == "drop":
        _drop(doc, data.draw(st.sampled_from(kind.required)))
    depth = sys.getrecursionlimit()
    text = kind.text(doc).replace(f'"{NEST}"', "[" * depth + "]" * depth)
    if how == "truncate":
        if kind.jsonl:
            # Cut inside one line's object: a proper prefix of an object
            # is never JSON, and nothing after it survives.
            lines = text.splitlines(keepends=True)
            n = data.draw(st.integers(0, len(lines) - 1))
            cut = data.draw(st.integers(1, len(lines[n]) - 2))
            text = "".join(lines[:n]) + lines[n][:cut]
        else:
            text = text[: data.draw(st.integers(0, len(text.rstrip()) - 1))]
    elif how == "append":
        text += data.draw(st.sampled_from(JUNK_LINES if kind.jsonl else JUNK_TAILS))
    return text


@pytest.mark.parametrize("verb", ["trace", "postmortem", "bench compare"])
@settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_damaged_file_is_one_line_and_exit_2(verb, kinds, tmp_path, data, capsys):
    path = tmp_path / "damaged.json"
    path.write_text(_damaged(data, kinds[verb]), encoding="utf-8")
    argv = {
        "trace": ["trace", str(path)],
        "postmortem": ["postmortem", str(path)],
        "bench compare": ["bench", "compare", str(path), "--baseline", str(BASELINE)],
    }[verb]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    (line,) = captured.out.splitlines()
    assert line.startswith(f"{path}: "), line
    if verb == "trace":
        assert line[len(f"{path}: "):].startswith("line "), line
