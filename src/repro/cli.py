"""Command-line interface.

``python -m repro <command>`` exposes the library without writing any
code:

* ``selftest`` — build a small federation, verify query exactness and
  the comparative orderings against SWORD and the central repository;
* ``figure <target>`` — regenerate one of the paper's tables/figures
  (``table1``, ``fig3`` … ``fig11``; the scenario registry's driver at
  ``--scale``) and optionally save the rows;
* ``telemetry`` — run an instrumented scenario and print per-server
  load tables (root-load share with and without the replication
  overlay), optionally exporting JSONL events, a Chrome trace and a
  Prometheus metrics snapshot;
* ``bench`` — the benchmark observatory: ``run`` a scenario into a
  ``BENCH_<scenario>.json`` artifact of simulated facts, ``compare``
  one against a committed baseline (non-zero exit on drift or
  paper-shape violation), ``list`` the registered scenarios;
* ``profile`` — run the canonical run under the hierarchical call-path
  profiler: top-K self-time table, optional tree view, collapsed-stack
  / speedscope flame-graph exports, and ``--diff`` between two saved
  profile documents;
* ``demo`` — a narrated quickstart run.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments import ExperimentSettings, print_table
from .experiments.export import save_rows_csv


def _telemetry_scenario(
    num_nodes: int,
    records_per_node: int,
    num_queries: int,
    seed: int,
    *,
    use_overlay: bool,
):
    """Build a federation and run a query batch over it.

    Returns ``(system, telemetry, root_id)`` with all query traffic
    recorded in the per-server metrics registry and — with the overlay
    — the event bus; the root-entry run is only ever read through its
    registry, so nothing observes it (``telemetry`` is None).
    """
    from .experiments.runner import (
        build_roads, build_workload, drive_queries, trial_queries,
    )
    from .telemetry import Telemetry

    settings = ExperimentSettings.smoke().with_(
        num_nodes=num_nodes,
        records_per_node=records_per_node,
        num_queries=max(1, num_queries),
        seed=seed,
    )
    wcfg, stores = build_workload(settings, seed)
    queries, clients = trial_queries(settings, wcfg, seed)
    tel = Telemetry(capacity=200_000) if use_overlay else None
    system = drive_queries(
        build_roads(settings, stores, seed, tel),
        queries[:num_queries], clients[:num_queries], use_overlay=use_overlay,
    )
    return system, tel, system.hierarchy.root.server_id


def _print_load_tables(
    num_nodes: int,
    records_per_node: int,
    num_queries: int,
    seed: int,
    top: int,
) -> tuple:
    """Per-server query load with and without the overlay; returns the
    (system, telemetry) pair of the with-overlay run for exporting."""
    from .sim import QUERY
    from .telemetry import per_server_load_rows, root_load_share

    kept = None
    for use_overlay in (True, False):
        system, tel, root_id = _telemetry_scenario(
            num_nodes, records_per_node, num_queries, seed,
            use_overlay=use_overlay,
        )
        rows = per_server_load_rows(
            system.metrics, category=QUERY, phase="forward",
            top=top, root_id=root_id,
        )
        for r in rows:
            r["share"] = f"{r['share']:.1%}"
        label = "with overlay" if use_overlay else "without overlay (root entry)"
        print()
        print_table(
            rows,
            title=(
                f"hottest {len(rows)} servers by query-forward load "
                f"({label}; root={root_id})"
            ),
        )
        share = root_load_share(
            system.metrics, root_id, category=QUERY, phase="forward"
        )
        print(f"root-load share ({label}): {share:.1%}")
        if use_overlay:
            kept = (system, tel)
    return kept


def _cmd_telemetry(args) -> int:
    from .telemetry.export import (
        write_chrome_trace, write_jsonl, write_prometheus,
    )

    system, tel = _print_load_tables(
        args.nodes, args.records, args.queries, args.seed, args.top
    )
    latency = system.metrics.merged_histogram("query.latency")
    s = latency.summary()
    print(
        f"query latency (s): p50={s['p50']:.3f} p95={s['p95']:.3f} "
        f"p99={s['p99']:.3f} over {s['count']} queries"
    )
    print(
        f"events recorded: {tel.bus.emitted} "
        f"(retained {len(tel.bus)}, dropped {tel.bus.dropped})"
    )
    if args.export_jsonl:
        n = write_jsonl(tel.events(), args.export_jsonl)
        print(f"{n} events written to {args.export_jsonl}")
    if args.export_chrome:
        n = write_chrome_trace(tel.events(), args.export_chrome)
        print(f"{n} trace events written to {args.export_chrome} "
              "(load in Perfetto / chrome://tracing)")
    if args.export_prom:
        write_prometheus(system.metrics, args.export_prom)
        print(f"metrics snapshot written to {args.export_prom}")
    return 0


def _cmd_trace(args) -> int:
    """Reconstruct causal trees from an exported event artifact."""
    from .telemetry import assemble_traces, critical_path, diff_critical_paths
    from .telemetry.export import read_jsonl, write_chrome_trace

    events = read_jsonl(args.artifact)
    trees = assemble_traces(events)
    if not trees:
        print(
            f"no causally-tagged events in {args.artifact} "
            "(produce one with `repro telemetry --export-jsonl`)"
        )
        return 1
    if args.diff:
        tid_a, tid_b = args.diff
        missing = [t for t in (tid_a, tid_b) if t not in trees]
        if missing:
            print(f"trace(s) {missing} not found "
                  f"(have: {', '.join(str(t) for t in sorted(trees))})")
            return 1
        path_a = critical_path(trees[tid_a])
        path_b = critical_path(trees[tid_b])
        for tid, path in ((tid_a, path_a), (tid_b, path_b)):
            if not path.segments:
                print(f"trace {tid} has no query.arrive leaf: "
                      "no critical path to diff")
                return 1
        print(diff_critical_paths(
            path_a, path_b,
            label_a=f"trace {tid_a}", label_b=f"trace {tid_b}",
        ))
        return 0
    if args.list:
        print(f"{len(trees)} traces in {args.artifact}:")
        for tid in sorted(trees):
            tree = trees[tid]
            root = tree.root
            name = root.name if root is not None else "?"
            print(
                f"  trace {tid:>6}: {len(tree)} nodes, "
                f"root {name} @ {root.start:.3f}s"
                if root is not None
                else f"  trace {tid:>6}: {len(tree)} nodes"
            )
        return 0
    if args.trace_id is not None:
        tree = trees.get(args.trace_id)
        if tree is None:
            print(f"trace {args.trace_id} not found "
                  f"(have: {', '.join(str(t) for t in sorted(trees))})")
            return 1
    else:
        # Default: the largest tree — the most interesting search.
        tree = max(trees.values(), key=lambda t: (len(t), -t.trace_id))
    path = critical_path(tree)
    if args.json:
        doc = {
            "trace_id": tree.trace_id,
            "nodes": len(tree),
            "roots": len(tree.roots),
            "critical_path": {
                "total_seconds": path.total,
                "dominant": path.dominant if path.segments else None,
                "by_category": path.by_category() if path.segments else {},
                "segments": [
                    {
                        "name": seg.name,
                        "category": seg.category,
                        "seconds": seg.seconds,
                    }
                    for seg in path.segments
                ],
            },
        }
        _emit_json(doc, args.json, "trace document")
        if args.json == "-":
            return 0
    print(f"trace {tree.trace_id}: {len(tree)} nodes, "
          f"{len(tree.roots)} root(s)")
    print(tree.format(max_nodes=args.max_nodes))
    if path.segments:
        print()
        print(path.format())
    else:
        print("(no query.arrive leaf under the root: no critical path)")
    if args.chrome:
        n = write_chrome_trace(events, args.chrome)
        print(f"\n{n} trace events written to {args.chrome} "
              "(load in Perfetto; causal flows drawn as arrows)")
    return 0


def _run_loaded_federation(
    args, *, quality=False, interval=None, slo=None, dump_dir=None
):
    """The one run behind ``health``, ``watch`` and ``quality``.

    Builds the federation — lossy links, queue-limited servers, a
    free-running delta update plane — arms what the verb reads, and
    offers an open-loop load drawn from the verb's own RNG stream.
    *quality* attaches the shadow oracle (read-only, so watching it is
    free of perturbation; its ``quality.*`` gauges ride the sampler);
    *interval* starts the series sampler at that cadence with a health
    probe judging its ticks; under an *slo* the probe also judges every
    tick as it is taken and a flight recorder bound to it freezes each
    breach (dumped under *dump_dir*). Returns ``(system, load report,
    probe, recorder)``, the last two None when not armed.
    """
    from .net.transport import ServiceConfig
    from .roads import RoadsConfig, RoadsSystem
    from .roads.load import LoadConfig, LoadGenerator
    from .roads.search import RetryPolicy
    from .sim.rng import SeedSequenceFactory
    from .telemetry import (
        FlightRecorder,
        HealthProbe,
        SeriesConfig,
        SeriesSampler,
        Telemetry,
    )
    from .workload import WorkloadConfig, generate_node_stores
    from .workload.queries import generate_queries

    wcfg = WorkloadConfig(
        num_nodes=args.nodes, records_per_node=args.records, seed=args.seed
    )
    stores = generate_node_stores(wcfg)
    config = RoadsConfig(
        num_nodes=args.nodes,
        records_per_node=args.records,
        summary_interval=args.interval,
        delta_updates=True,
        loss_rate=args.loss,
        seed=args.seed,
    )
    system = RoadsSystem.build(config, stores, telemetry=Telemetry())
    system.enable_service(
        ServiceConfig(
            service_time=args.service_time, queue_limit=args.queue_limit
        )
    )
    system.update_plane.start()
    load = LoadGenerator(
        system,
        generate_queries(wcfg, num_queries=max(args.queries, 1)),
        LoadConfig(
            rate=args.rate,
            horizon=args.duration,
            retry=RetryPolicy(timeout=2.0, retries=2, backoff_base=0.2),
        ),
        SeedSequenceFactory(args.seed).fresh_generator(
            f"{args.command}-load"
        ),
    )
    if quality:
        system.attach_quality()
    probe = recorder = None
    if interval is not None:
        probe = HealthProbe(
            SeriesSampler(system, SeriesConfig(interval=interval)).start(),
            slo=slo,
        )
        if slo is not None:
            recorder = FlightRecorder(
                system.telemetry, dump_dir=dump_dir
            ).bind(probe)
    report_load = load.run()
    if probe is not None:
        probe.sampler.stop()
    if recorder is not None:
        recorder.close()
    return system, report_load, probe, recorder


def _load_line(args, report_load) -> str:
    return (
        f"load: {report_load.offered} queries offered at {args.rate}/s, "
        f"{report_load.ok} ok, {report_load.shed_queries} shed"
    )


def _cmd_health(args) -> int:
    """Run a small federation under load and print its health report."""
    from .telemetry import HealthSLO

    _, report_load, probe, _ = _run_loaded_federation(
        args, interval=args.probe_interval
    )
    # Judge loss and coverage against the injected rate (plus headroom):
    # the probe reports what *happened*; the SLO says what is acceptable,
    # and deliberately lossy links legitimately lower both.
    defaults = HealthSLO()
    slo = HealthSLO(
        max_loss_fraction=max(defaults.max_loss_fraction, 3 * args.loss),
        min_coverage=min(defaults.min_coverage, 1.0 - 3 * args.loss),
    )
    report = probe.report(slo)
    print(_load_line(args, report_load))
    print(report.format())
    if args.export:
        _emit_json(report.to_dict(), args.export, "health report")
    return 0 if report.healthy else 1


def _cmd_watch(args) -> int:
    """Run a federation under load with the full observability stack
    armed — oracle, sampler, SLO judge, flight recorder — and render
    the sampled series."""
    from .telemetry import HealthSLO
    from .telemetry.export import series_jsonl, write_series_jsonl

    _, report_load, probe, recorder = _run_loaded_federation(
        args, quality=True, interval=args.sample_interval,
        slo=HealthSLO(), dump_dir=args.postmortem_dir,
    )
    sampler = probe.sampler
    say = _narrator(args.json)
    say(
        f"{_load_line(args, report_load)}; "
        f"{sampler.samples} samples over "
        f"{len(sampler.all_series())} series"
    )
    if args.format == "sparkline":
        say(sampler.format(metrics=args.metrics or None))
    elif args.format == "csv":
        say("metric,server,t,value")
        for row in sampler.rows(rollups=False):
            server = "" if row["server"] is None else row["server"]
            say(f"{row['metric']},{server},{row['t']},{row['value']}")
    elif args.format == "jsonl":
        say(series_jsonl(sampler.rows()))
    if args.export:
        n = write_series_jsonl(sampler.rows(), args.export)
        say(f"{n} series rows written to {args.export}")
    if args.json:
        _emit_json(list(sampler.rows()), args.json, "series rows JSON")
    if probe.breaches:
        say(f"SLO breaches: "
              + ", ".join(c.name for c in probe.breaches))
    say(f"postmortems captured: {len(recorder.bundles)}")
    for path in recorder.dumped:
        say(f"  postmortem bundle written to {path}")
    return 0


def _cmd_quality(args) -> int:
    """Run a federation under load with the shadow-oracle quality plane
    armed; print the answer-quality summary and per-node breakdown."""
    from .experiments.report import format_table

    say = _narrator(args.json)
    system, report_load, _, _ = _run_loaded_federation(args, quality=True)
    plane = system.quality
    snap = plane.snapshot()
    say(_load_line(args, report_load))
    say(
        f"oracle: {snap['audits']} searches audited — "
        f"precision {snap['precision']:.4f}, recall {snap['recall']:.4f}, "
        f"fp-rate {snap['fp_rate']:.4f}, "
        f"mean divergence age {snap['divergence_age_mean']:.3g}s"
    )
    say(
        f"confusion: tp={snap['tp']} fp={snap['fp']} "
        f"fn={snap['fn']} tn={snap['tn']}; owner contacts "
        f"{snap['owner_hits']} justified / "
        f"{snap['owner_false_positives']} false-positive"
    )
    node_rows = [
        {"server": sid, **counts}
        for sid, counts in sorted(plane.per_node.items())
        if counts["fp"] or counts["fn"]
    ][: args.top]
    if node_rows:
        say("servers with misjudged visits/prunes (worst first):")
        node_rows.sort(key=lambda r: -(r["fp"] + r["fn"]))
        say(format_table(node_rows))
    attributions = [
        a.to_dict() for rep in plane.reports for a in rep.attributions
    ]
    if attributions:
        say(f"divergence attributions ({len(attributions)} total, "
            f"showing up to {args.top}):")
        say(format_table(attributions[: args.top]))
    if args.json:
        _emit_json(
            {
                "snapshot": snap,
                "per_node": {
                    str(sid): counts
                    for sid, counts in sorted(plane.per_node.items())
                },
                "reports": [r.to_dict() for r in plane.reports],
            },
            args.json,
            "quality report JSON",
        )
    if args.min_precision is not None:
        return 0 if snap["precision"] >= args.min_precision else 1
    return 0


def _cmd_postmortem(args) -> int:
    """Render postmortem bundles dumped by the flight recorder."""
    from pathlib import Path

    from .telemetry import PostmortemBundle

    target = Path(args.path)
    if target.is_dir():
        paths = sorted(target.glob("postmortem_*.json"))
    else:
        paths = [target]
    if not paths or not paths[0].exists():
        print(f"no postmortem bundles under {target} "
              "(produce them with `repro watch --postmortem-dir`)")
        return 1
    docs = []
    for i, path in enumerate(paths):
        try:
            bundle = PostmortemBundle.load(path)
        except ValueError as exc:
            # Not JSON, or not a current-schema bundle.
            print(f"{path}: {exc}")
            return 2
        if args.json:
            docs.append({"path": str(path), **bundle.to_dict()})
            continue
        if i:
            print()
        print(f"== {path} ==")
        print(bundle.format(max_nodes=args.max_nodes))
    if docs:
        _emit_json(
            docs[0] if len(docs) == 1 else docs, args.json, "postmortem JSON"
        )
    return 0


def _cmd_selftest(args) -> int:
    from .experiments import run_trial

    settings = ExperimentSettings(
        num_nodes=48,
        records_per_node=120,
        num_queries=30,
        runs=1,
        seed=args.seed,
    )
    print("building paired ROADS / SWORD / central systems (48 nodes)...")
    trial = run_trial(settings, args.seed, include_central=True)
    checks = [
        (
            "ROADS update bytes below SWORD",
            trial.roads.update_bytes_window < trial.sword.update_bytes_window,
        ),
        (
            "SWORD query bytes below ROADS",
            trial.sword.mean_query_bytes > 0
            and trial.sword.mean_query_bytes < trial.roads.mean_query_bytes,
        ),
        (
            "ROADS latency below SWORD",
            trial.roads.mean_latency_s < trial.sword.mean_latency_s,
        ),
        (
            "central latency below ROADS",
            trial.central.mean_latency_s < trial.roads.mean_latency_s,
        ),
    ]
    ok = True
    for label, passed in checks:
        print(f"  [{'ok' if passed else 'FAIL'}] {label}")
        ok &= passed
    print("selftest", "passed" if ok else "FAILED")
    if args.telemetry:
        print("\ntelemetry: per-server load attribution (same scale)")
        _print_load_tables(
            settings.num_nodes, settings.records_per_node,
            settings.num_queries, args.seed, top=8,
        )
    return 0 if ok else 1


def _cmd_figure(args) -> int:
    from .bench import RunPlan

    rows = RunPlan(args.target, scale=args.scale, seed=args.seed).rows()
    print_table(rows, title=f"{args.target} ({args.scale} scale)")
    if args.output:
        save_rows_csv(rows, args.output)
        print(f"rows written to {args.output}")
    return 0


def _cmd_suite(args) -> int:
    from .experiments.suite import run_suite

    run_suite(
        args.out, targets=args.targets, scale=args.scale, seed=args.seed
    )
    print(f"suite results written under {args.out}/")
    return 0


def _narrator(json_target):
    """Progress printer: routed to stderr when stdout carries the JSON."""
    if json_target == "-":
        import functools
        import sys

        return functools.partial(print, file=sys.stderr)
    return print


def _write_text(target, text: str, label: str) -> None:
    """The CLI's one file write: parent directories made, the path said.

    An unwritable *target* raises :class:`OSError`; :func:`main` turns
    it into a one-line ``PATH: reason`` and exit status 2.
    """
    from pathlib import Path

    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"{label} written to {target}")


def _emit_json(doc, target: str, label: str) -> None:
    """Write *doc* to *target* (``-`` = stdout) as pretty JSON."""
    import json

    text = json.dumps(doc, indent=2, default=str)
    if target == "-":
        print(text)
    else:
        _write_text(target, text + "\n", label)


def _cmd_bench_run(args) -> int:
    from pathlib import Path

    from .bench import RunPlan, artifact_filename, run_plans, write_artifact

    # --parallel N: worker processes (bare/0 = one per core). With one
    # scenario the workers drive its internal fan-out (the stress shard
    # sweep); with several, the plans themselves are pooled one per
    # worker and each runs its internals serially — never both, so the
    # machine is not oversubscribed.
    workers = 1 if args.parallel is None else args.parallel
    plans = [
        RunPlan(name, scale=args.scale, seed=args.seed, workers=workers)
        for name in args.scenario
    ]
    pool_workers = 1
    if len(plans) > 1 and workers != 1:
        pool_workers = workers
        plans = [plan.with_(workers=1) for plan in plans]
    artifacts = run_plans(plans, workers=pool_workers)

    say = _narrator(args.json)
    for artifact in artifacts:
        path = write_artifact(
            artifact, Path(args.out) / artifact_filename(artifact.scenario)
        )
        if args.json != "-":
            print_table(
                artifact.rows,
                title=f"{artifact.scenario} ({args.scale} scale)",
            )
        latency = artifact.simulated["latency"]
        say(
            f"\nsimulated: latency p50={latency['p50']:.3f}s "
            f"p95={latency['p95']:.3f}s p99={latency['p99']:.3f}s; "
            f"update bytes/epoch={artifact.simulated['update_bytes_epoch']}; "
            f"root share {artifact.simulated['root_share_overlay']:.1%} with / "
            f"{artifact.simulated['root_share_no_overlay']:.1%} without overlay"
        )
        for failure in artifact.shape["failures"]:
            say(f"shape violation: {failure}")
        say(f"artifact written to {path}")
    if args.json:
        docs = [a.to_dict() for a in artifacts]
        _emit_json(
            docs[0] if len(docs) == 1 else docs, args.json, "artifact JSON"
        )
    return 0


def _cmd_profile(args) -> int:
    import json
    from pathlib import Path

    from .telemetry.profiling import (
        PROFILE_SCHEMA,
        collapsed_stacks,
        diff_documents,
        format_top,
        format_tree,
        hotspot_shares,
        speedscope_document,
    )

    if args.diff:
        path_a, path_b = args.diff
        docs = []
        for path in (path_a, path_b):
            try:
                doc = json.loads(Path(path).read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                print(f"{path}: {exc}")
                return 2
            if not isinstance(doc, dict) or doc.get("schema") != PROFILE_SCHEMA:
                print(
                    f"{path}: not a {PROFILE_SCHEMA} document "
                    "(produce one with `repro profile --json`)"
                )
                return 2
            docs.append(doc)
        print(
            diff_documents(
                docs[0], docs[1],
                label_a=path_a, label_b=path_b, k=args.top,
            )
        )
        return 0

    from .bench import profile_scenario

    document = profile_scenario(args.scale, args.seed)
    if args.json == "-":
        # Bare --json streams the document alone: no report, no exports.
        print(json.dumps(document, indent=2))
        return 0
    print(
        f"== canonical run ({args.scale} scale, seed {args.seed}): "
        f"{document['total_seconds']:.3f}s profiled =="
    )
    print(format_top(document, k=args.top))
    if args.tree:
        print()
        print(format_tree(document))
    shares = hotspot_shares(document)
    hot = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
    print(
        "\nhotspots: "
        + ", ".join(f"{name} {share:.1%}" for name, share in hot)
        + f"; census fingerprint {document['census_fingerprint']}"
    )
    def under_out(path: str) -> Path:
        # Relative export paths land under the shared --out directory.
        p = Path(path)
        return p if p.is_absolute() else Path(args.out) / p

    if args.json:
        _emit_json(document, str(under_out(args.json)), "profile document")
    if args.collapsed:
        _write_text(
            under_out(args.collapsed), collapsed_stacks(document),
            "collapsed stacks",
        )
    if args.speedscope:
        _write_text(
            under_out(args.speedscope),
            json.dumps(speedscope_document(
                document, name=f"repro profile {args.scale}"
            )) + "\n",
            "speedscope profile",
        )
    return 0


def _cmd_bench_compare(args) -> int:
    from .bench import compare_artifacts, format_comparison, load_artifact

    loaded = []
    for path in (args.current, args.baseline):
        try:
            loaded.append(load_artifact(path))
        except (OSError, ValueError) as exc:
            # Unreadable, not JSON, or not a current-schema artifact.
            print(f"{path}: {exc}")
            return 2
    result = compare_artifacts(*loaded, tolerance=args.tolerance)
    print(format_comparison(result, verbose=args.verbose))
    return 0 if result.ok else 1


def _cmd_bench_list(args) -> int:
    from .bench import SCALES, SCENARIOS

    print(f"scales: {', '.join(SCALES)} (or REPRO_BENCH_SCALE)")
    for name in sorted(SCENARIOS):
        print(f"  {name:<8} {SCENARIOS[name].title}")
    return 0


def _cmd_demo(args) -> int:
    import runpy
    from pathlib import Path

    if args.telemetry:
        return _demo_telemetry(args)
    script = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    if script.exists():
        runpy.run_path(str(script), run_name="__main__")
        return 0
    print("examples/quickstart.py not found; run from a source checkout")
    return 1


def _demo_telemetry(args) -> int:
    """Narrated telemetry walkthrough: one traced query, then load tables."""
    from .workload import WorkloadConfig, generate_node_stores
    from .workload.queries import generate_queries

    print("== telemetry demo: one traced query on a 16-node federation ==")
    system, tel, root_id = _telemetry_scenario(
        16, 40, 0, 7, use_overlay=True
    )
    wcfg = WorkloadConfig(num_nodes=16, records_per_node=40, seed=7)
    query = generate_queries(wcfg, num_queries=1)[0]
    from .roads import SearchRequest

    outcome = system.search(
        SearchRequest(query, client_node=0, trace=True)
    ).outcome
    print(f"query contacted {outcome.servers_contacted} servers, "
          f"{outcome.total_matches} matches, "
          f"latency {outcome.latency * 1000:.1f} ms; trace:")
    print(outcome.format_trace())
    spans = [e for e in tel.events() if e.kind == "span"]
    print(f"\n{tel.bus.emitted} structured events on the bus "
          f"({len(spans)} spans); per-server load tables:")
    _print_load_tables(16, 40, 30, 7, top=8)
    return 0


def _common_options() -> argparse.ArgumentParser:
    """Parent parser for the flags every artifact-producing verb shares.

    ``bench run``, ``figure``, ``profile``, ``trace``, ``watch``,
    ``quality`` and ``postmortem`` inherit ``--scale/--seed/--out/--json``
    from this one parser, so a new verb cannot re-declare them with
    drifting defaults. Verbs
    consume the subset that applies to them (``trace`` and
    ``postmortem`` read existing artifacts, so ``--scale/--seed`` are
    accepted for uniformity but have nothing to select).
    """
    from .bench import SCALES

    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("shared options")
    group.add_argument(
        "--scale", choices=SCALES, default="quick",
        help="benchmark scale preset (scenario-driven verbs)",
    )
    group.add_argument("--seed", type=int, default=1, help="base RNG seed")
    group.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for produced artifacts (default: current dir)",
    )
    group.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="write the verb's primary JSON document to PATH "
             "(bare flag: print to stdout)",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="ROADS reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_options()

    # The lossy federation ``health``, ``watch`` and ``quality`` run.
    load = argparse.ArgumentParser(add_help=False)
    group = load.add_argument_group("federation and offered load")
    group.add_argument("--nodes", type=int, default=32)
    group.add_argument("--records", type=int, default=40)
    group.add_argument("--queries", type=int, default=30,
                       help="size of the query pool offered as load")
    group.add_argument("--rate", type=float, default=20.0,
                       help="offered load, queries per virtual second")
    group.add_argument("--duration", type=float, default=5.0,
                       help="arrival-window length in virtual seconds")
    group.add_argument("--loss", type=float, default=0.0,
                       help="injected message loss rate")
    group.add_argument("--interval", type=float, default=5.0,
                       help="summary update interval (t_s) in virtual "
                            "seconds")
    group.add_argument("--service-time", type=float, default=0.002)
    group.add_argument("--queue-limit", type=int, default=64)

    p = sub.add_parser("selftest", help="verify comparative orderings")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--telemetry", action="store_true",
        help="also print per-server load attribution tables",
    )
    p.set_defaults(fn=_cmd_selftest)

    p = sub.add_parser(
        "telemetry",
        help="run an instrumented scenario; print per-server load tables",
    )
    p.add_argument("--nodes", type=int, default=64)
    p.add_argument("--records", type=int, default=100)
    p.add_argument("--queries", type=int, default=40)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--top", type=int, default=10,
                   help="rows in the hottest-servers table")
    p.add_argument("--export-jsonl", metavar="PATH",
                   help="dump bus events as JSON-Lines")
    p.add_argument("--export-chrome", metavar="PATH",
                   help="write a Chrome trace_event JSON (Perfetto-loadable)")
    p.add_argument("--export-prom", metavar="PATH",
                   help="write a Prometheus-style metrics snapshot")
    p.set_defaults(fn=_cmd_telemetry)

    p = sub.add_parser(
        "trace",
        parents=[common],
        help="reconstruct causal trees from an exported JSONL artifact",
    )
    p.add_argument("artifact", help="events JSONL written by "
                                    "`repro telemetry --export-jsonl`")
    p.add_argument("--trace-id", type=int, default=None,
                   help="trace to print (default: the largest)")
    p.add_argument("--list", action="store_true",
                   help="list the traces in the artifact and exit")
    p.add_argument("--max-nodes", type=int, default=200,
                   help="cap on rendered tree nodes")
    p.add_argument("--chrome", metavar="PATH",
                   help="also write a Chrome trace_event JSON with "
                        "causal flow arrows")
    p.add_argument("--diff", nargs=2, type=int, metavar=("ID_A", "ID_B"),
                   help="compare two traces' critical paths side-by-side "
                        "with per-segment attribution deltas")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "health",
        parents=[load],
        help="run a small federation under load and print its health "
             "report (non-zero exit when an SLO check fails)",
    )
    p.add_argument("--probe-interval", type=float, default=0.5,
                   help="health-probe cadence in virtual seconds")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--export", metavar="PATH",
                   help="write the health report as JSON")
    p.set_defaults(fn=_cmd_health)

    p = sub.add_parser(
        "watch",
        parents=[common, load],
        help="run a federation under load with the time-series sampler, "
             "SLO probe and flight recorder armed; render the series",
    )
    p.add_argument("--sample-interval", type=float, default=0.25,
                   help="sampling and SLO-judging cadence in virtual "
                        "seconds")
    p.add_argument("--format", choices=("sparkline", "csv", "jsonl"),
                   default="sparkline",
                   help="how to render the sampled series")
    p.add_argument("--metrics", nargs="*", default=None,
                   help="federation-wide gauges to render (default: all)")
    p.add_argument("--export", metavar="PATH",
                   help="also write the series rows as JSONL")
    p.add_argument("--postmortem-dir", metavar="DIR", default=None,
                   help="dump SLO-breach postmortem bundles under DIR")
    p.set_defaults(fn=_cmd_watch)

    p = sub.add_parser(
        "quality",
        parents=[common, load],
        help="run a federation under load with the shadow-oracle quality "
             "plane armed; print precision/recall and per-summary "
             "divergence attributions",
    )
    p.add_argument("--top", type=int, default=10,
                   help="rows in the per-node / attribution tables")
    p.add_argument("--min-precision", type=float, default=None,
                   help="judge oracle precision against this SLO floor "
                        "(non-zero exit below it)")
    p.set_defaults(fn=_cmd_quality)

    p = sub.add_parser(
        "postmortem",
        parents=[common],
        help="render postmortem bundles dumped by the flight recorder",
    )
    p.add_argument("path",
                   help="a postmortem_*.json bundle, or a directory of them")
    p.add_argument("--max-nodes", type=int, default=60,
                   help="cap on rendered causal-tree nodes per trace")
    p.set_defaults(fn=_cmd_postmortem)

    from .bench import SCALES
    from .experiments import available_targets

    p = sub.add_parser(
        "figure", parents=[common], help="regenerate a table/figure"
    )
    p.add_argument("target", choices=available_targets())
    p.add_argument("--output", help="also write rows to this CSV path")
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser(
        "suite", help="run the full evaluation and archive results"
    )
    p.add_argument("--out", default="results")
    p.add_argument("--scale", choices=SCALES, default="quick")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument(
        "--targets", nargs="*", default=None,
        help="subset of targets (default: Table I and every figure)",
    )
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser(
        "bench",
        help="benchmark observatory: BENCH_*.json artifacts of simulated "
             "facts and the regression gate",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser(
        "run",
        parents=[common],
        help="run one or more scenarios and write BENCH_<scenario>.json",
    )
    from .bench import available_scenarios as _bench_scenarios

    b.add_argument("scenario", nargs="+", choices=_bench_scenarios())
    b.add_argument("--parallel", type=int, nargs="?", const=0, default=None,
                   metavar="N",
                   help="fan out over N worker processes (bare flag: one "
                        "per core); several scenarios pool one per worker, "
                        "a single scenario parallelises its internal sweep "
                        "(the stress shards)")
    b.set_defaults(fn=_cmd_bench_run)

    b = bench_sub.add_parser(
        "compare",
        help="diff an artifact against a baseline; non-zero exit on "
             "regression or shape violation",
    )
    b.add_argument("current", help="freshly produced BENCH_*.json")
    b.add_argument("--baseline", required=True,
                   help="committed baseline BENCH_*.json")
    b.add_argument("--tolerance", type=float, default=0.05,
                   help="band for simulated metrics (default 5%%); "
                        "rows.quality_* fail only in the worse direction")
    b.add_argument("--verbose", action="store_true",
                   help="print every metric delta, not only failures")
    b.set_defaults(fn=_cmd_bench_compare)

    b = bench_sub.add_parser("list", help="list registered scenarios")
    b.set_defaults(fn=_cmd_bench_list)

    p = sub.add_parser(
        "profile",
        parents=[common],
        help="hierarchical hot-path profile of the canonical run, with "
             "flame-graph exports",
    )
    p.add_argument("--top", type=int, default=15,
                   help="rows in the self-time table (default 15)")
    p.add_argument("--tree", action="store_true",
                   help="also print the call-path tree")
    p.add_argument("--collapsed", metavar="PATH",
                   help="write Brendan Gregg collapsed stacks "
                        "(flamegraph.pl input)")
    p.add_argument("--speedscope", metavar="PATH",
                   help="write a speedscope.app JSON profile")
    p.add_argument("--diff", nargs=2, metavar=("A", "B"),
                   help="diff two --json profile documents instead of "
                        "running anything")
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("demo", help="run the narrated quickstart")
    p.add_argument(
        "--telemetry", action="store_true",
        help="run the telemetry walkthrough instead (traced query + load tables)",
    )
    p.set_defaults(fn=_cmd_demo)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:
        # An export target that cannot be written (or an input that
        # cannot be read): one line naming the path, not a traceback.
        print(f"{exc.filename}: {exc.strerror}" if exc.filename else exc)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
