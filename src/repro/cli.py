"""Command-line interface.

``python -m repro <command>``:

* ``experiment <id>`` — regenerate a paper artifact (``table1``,
  ``fig1`` … ``fig8``, ``overhead``, ``ablations``, ``kla``,
  ``power-target``, or ``all``) at a chosen scale;
* ``sssp <graph-file>`` — run any of the SSSP algorithms on a graph
  file (DIMACS ``.gr``, MatrixMarket ``.mtx`` or TSV edge list),
  optionally replaying the run on a simulated device;
* ``generate <dataset>`` — write a synthetic Cal/Wiki stand-in to a
  graph file;
* ``info <graph-file>`` — print a graph's Table-1-style statistics;
* ``trace record|show|diff`` — observability: record a run with a
  streamed JSONL event log and metrics summary, inspect a saved
  trace **or a ``.events.jsonl`` event log** (queries, batch
  dispatches, spans), or diff two saved runs (iterations,
  parallelism distribution, controller settling);
* ``serve`` — run a long-lived query engine: JSONL requests from
  stdin (or a file) in, JSONL responses out, with a result cache and
  a worker pool (see the README's *Query service* section);
  ``--metrics FILE --metrics-interval N`` keeps a live metrics
  snapshot on disk for ``repro top``; ``--listen HOST:PORT`` serves
  the same protocol over TCP instead — with catalog sharding
  (``--shards``), admission control (``--max-inflight``, a per-shard
  bound on in-flight queries) and HTTP ``GET /metrics`` /
  ``GET /healthz`` on the same port (see ``docs/serving.md``);
* ``loadgen HOST:PORT`` — closed-loop Zipf load generator against a
  ``serve --listen`` endpoint; prints a JSON summary (qps, latency
  percentiles, shed counts) and ``--metrics FILE`` saves it as
  ``bench.net.*`` gauges;
* ``query`` — issue one-shot queries against the graph catalog and
  print the JSONL responses;
* ``metrics <file>`` — summarise a metrics JSON file (``serve
  --metrics`` output or ``benchmarks/results/metrics.json``);
  ``--prometheus`` prints Prometheus text exposition instead;
* ``top <file>`` — live terminal view of a serving session (QPS,
  cache hit rate, latency percentiles, pool depth and lost workers)
  off the file ``serve --metrics-interval`` maintains;
* ``version`` — report the package version.

``--quiet`` suppresses informational chatter (result lines still
print); ``--verbose`` adds detail, e.g. a metrics snapshot after an
``sssp`` run.  Both are accepted before or after the subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def _experiment_registry() -> Dict[str, Callable]:
    from repro.experiments import (
        ablations,
        dynamics,
        fig1,
        fig2,
        fig3,
        fig5,
        fig6,
        fig7,
        fig8,
        kla_comparison,
        overhead,
        robustness,
        power_target,
        table1,
    )

    return {
        "table1": table1.main,
        "fig1": fig1.main,
        "fig2": fig2.main,
        "fig3": fig3.main,
        "fig5": fig5.main,
        "fig6": fig6.main,
        "fig7": fig7.main,
        "fig8": fig8.main,
        "overhead": overhead.main,
        "ablations": ablations.main,
        "dynamics": dynamics.main,
        "kla": kla_comparison.main,
        "robustness": robustness.main,
        "power-target": power_target.main,
    }


def _verbosity_parent() -> argparse.ArgumentParser:
    """-q/-v accepted after the subcommand without clobbering the
    top-level values (SUPPRESS: absent flags leave the namespace alone)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "-q", "--quiet", action="store_true", default=argparse.SUPPRESS,
        help="suppress informational output",
    )
    parent.add_argument(
        "-v", "--verbose", action="store_true", default=argparse.SUPPRESS,
        help="extra output (e.g. a metrics snapshot after the run)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'An Energy-Efficient Single-Source Shortest "
            "Path Algorithm' (IPDPS 2018)"
        ),
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", default=False,
        help="suppress informational output",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", default=False,
        help="extra output (e.g. a metrics snapshot after the run)",
    )
    common = _verbosity_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser(
        "experiment", parents=[common], help="regenerate a paper artifact"
    )
    exp.add_argument(
        "artifact",
        choices=sorted(_experiment_registry()) + ["all"],
        help="which table/figure to regenerate",
    )
    exp.add_argument("--scale", type=float, default=None, help="dataset scale")

    run = sub.add_parser("sssp", parents=[common], help="run SSSP on a graph file")
    run.add_argument("graph", help="graph file (.gr/.mtx/.tsv, optionally .gz)")
    run.add_argument("--source", type=int, default=None, help="source vertex (default: hub)")
    run.add_argument(
        "--algorithm",
        choices=["dijkstra", "bellman-ford", "delta-stepping", "nearfar", "adaptive", "kla"],
        default="adaptive",
    )
    run.add_argument("--delta", type=float, default=None, help="delta (fixed-delta algorithms)")
    run.add_argument("--setpoint", type=float, default=None, help="P (adaptive)")
    run.add_argument("--k", type=int, default=4, help="asynchrony depth (kla)")
    run.add_argument("--device", choices=["tk1", "tx1"], default=None,
                     help="also replay the run on this simulated device")
    run.add_argument("--save-trace", default=None, help="write the trace JSON here")

    gen = sub.add_parser(
        "generate", parents=[common], help="write a synthetic dataset to a file"
    )
    gen.add_argument("dataset", choices=["cal", "wiki"])
    gen.add_argument("output", help="output path (.gr/.mtx/.tsv)")
    gen.add_argument("--scale", type=float, default=0.02)
    gen.add_argument("--seed", type=int, default=7)

    info = sub.add_parser("info", parents=[common], help="print graph statistics")
    info.add_argument("graph", help="graph file")

    trace = sub.add_parser(
        "trace", parents=[common], help="record/inspect/diff observed runs"
    )
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    rec = tsub.add_parser(
        "record",
        parents=[common],
        help="run with live observability: JSONL events + metrics + trace",
    )
    rec.add_argument("graph", help="graph file (.gr/.mtx/.tsv, optionally .gz)")
    rec.add_argument(
        "--algorithm", choices=["adaptive", "nearfar"], default="adaptive"
    )
    rec.add_argument("--source", type=int, default=None)
    rec.add_argument("--setpoint", type=float, default=None, help="P (adaptive)")
    rec.add_argument("--delta", type=float, default=None, help="delta (nearfar)")
    rec.add_argument(
        "-o", "--out", default="run",
        help="output base path: writes <out>.trace.json, <out>.events.jsonl, "
        "<out>.metrics.json (default: run)",
    )

    show = tsub.add_parser(
        "show", parents=[common],
        help="summarise a saved trace or a .events.jsonl event log",
    )
    show.add_argument(
        "trace_file",
        help="trace JSON written by record/--save-trace, or a JSONL "
        "event log (trace record / serve --events output)",
    )

    diff = tsub.add_parser(
        "diff", parents=[common], help="compare two saved traces"
    )
    diff.add_argument("trace_a", help="first trace JSON")
    diff.add_argument("trace_b", help="second trace JSON")

    def add_service_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--graph-file",
            action="append",
            default=[],
            metavar="NAME=PATH",
            help="register a graph file under NAME (repeatable)",
        )
        p.add_argument(
            "--scale", type=float, default=0.02,
            help="scale of the built-in cal/wiki catalog graphs",
        )
        p.add_argument(
            "--workers", type=int, default=None, help="executor worker count"
        )
        p.add_argument(
            "--cache-size", type=int, default=128,
            help="LRU result-cache capacity (0 disables caching)",
        )
        p.add_argument(
            "--timeout", type=float, default=None,
            help="per-task timeout in seconds: a task past it fails "
            "its queries at once, after one run",
        )
        p.add_argument(
            "--max-batch", type=int, default=16,
            help="coalesce up to N concurrent same-corridor queries "
            "into one batched kernel call (1 disables)",
        )
        p.add_argument(
            "--fault-rate", type=float, default=0.0,
            help="inject a hang into this fraction of pool tasks (chaos)",
        )
        p.add_argument(
            "--fault-hang", type=float, default=0.25,
            help="seconds an injected hang sleeps",
        )

    serve = sub.add_parser(
        "serve",
        parents=[common],
        help="serve JSONL SSSP queries from stdin or a file",
    )
    add_service_options(serve)
    serve.add_argument(
        "--input", default=None,
        help="read requests from this file instead of stdin",
    )
    serve.add_argument(
        "--events", default=None,
        help="stream query_start/query_end events to this JSONL file",
    )
    serve.add_argument(
        "--metrics", default=None,
        help="write a metrics snapshot to this JSON file on exit",
    )
    serve.add_argument(
        "--metrics-interval", type=float, default=0.0,
        help="also rewrite the --metrics file every N seconds while "
        "serving (0 disables; feeds 'repro top')",
    )
    serve.add_argument(
        "--sample-rate", type=float, default=1.0,
        help="fraction of query lines whose trace ships spans/events "
        "(deterministic head sampling; metrics always count)",
    )
    serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="serve the JSONL protocol over TCP instead of stdin; the "
        "same port answers HTTP GET /metrics and /healthz",
    )
    serve.add_argument(
        "--shards", type=int, default=1,
        help="partition the catalog across N independent engines "
        "(routes by graph name; works on stdin and --listen)",
    )
    serve.add_argument(
        "--shard-mode", choices=["thread", "process"], default="thread",
        help="where each shard engine lives: a dispatcher thread in "
        "this process ('thread') or a separate supervised worker "
        "process with OS-level crash isolation ('process')",
    )
    serve.add_argument(
        "--heartbeat-ms", type=float, default=1000.0,
        help="worker heartbeat interval (process mode); an idle worker "
        "silent for ~4 intervals is declared dead and respawned",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=256,
        help="admission bound on in-flight queries per shard; excess "
        "is shed with in-band 'overloaded' errors (--listen mode)",
    )
    serve.add_argument(
        "--restart-budget", type=int, default=5,
        help="restarts one shard may consume before the supervisor "
        "declares it permanently failed (0: retire a dead shard, never "
        "restart it); a down shard's graphs answer retryable "
        "'unavailable' errors",
    )
    serve.add_argument(
        "--drain-ms", type=float, default=500.0,
        help="shutdown drain deadline: in-flight requests get this "
        "long to finish before the listener force-closes (SIGTERM "
        "takes the same path)",
    )

    loadgen = sub.add_parser(
        "loadgen",
        parents=[common],
        help="closed-loop load generator against a serve --listen port",
    )
    loadgen.add_argument(
        "target", metavar="HOST:PORT",
        help="address of a running 'repro serve --listen' endpoint",
    )
    loadgen.add_argument(
        "--connections", type=int, default=8,
        help="concurrent closed-loop connections",
    )
    loadgen.add_argument(
        "--duration", type=float, default=5.0,
        help="seconds to keep the load on",
    )
    loadgen.add_argument(
        "--zipf", type=float, default=1.2,
        help="Zipf skew of source ids (values <= 1 mean uniform)",
    )
    loadgen.add_argument(
        "--batch", type=int, default=1,
        help="sources per request (batched 'sources' arrays when > 1)",
    )
    loadgen.add_argument(
        "--graph", default=None,
        help="pin all queries to one catalog graph id",
    )
    loadgen.add_argument(
        "--algorithm", default=None,
        help="algorithm wire name (server default when omitted)",
    )
    loadgen.add_argument(
        "--seed", type=int, default=7, help="source-draw RNG seed"
    )
    loadgen.add_argument(
        "--metrics", default=None,
        help="write bench.net.* gauges plus the summary to this JSON file",
    )

    query = sub.add_parser(
        "query",
        parents=[common],
        help="issue one-shot queries against the graph catalog",
    )
    add_service_options(query)
    query.add_argument("graph", help="catalog graph id (cal, wiki, or --graph-file name)")
    query.add_argument(
        "--source", type=int, action="append", default=None,
        help="source vertex (repeatable; default: the max-degree hub)",
    )
    query.add_argument(
        "--sources", default=None,
        help="comma-separated source list, e.g. 3,17,42 — issued as "
        "one engine batch (coalesced into batched kernel calls)",
    )
    query.add_argument(
        "--algorithm",
        choices=["dijkstra", "bellman-ford", "delta-stepping", "nearfar", "adaptive", "kla"],
        default="adaptive",
    )
    query.add_argument("--delta", type=float, default=None, help="delta (fixed-delta algorithms)")
    query.add_argument("--setpoint", type=float, default=None, help="P (adaptive)")
    query.add_argument("--k", type=int, default=None, help="asynchrony depth (kla)")
    query.add_argument(
        "--repeat", type=int, default=1,
        help="issue each query N times (repeats hit the result cache)",
    )

    metrics = sub.add_parser(
        "metrics",
        parents=[common],
        help="summarise a metrics JSON file (or emit Prometheus text)",
    )
    metrics.add_argument(
        "file",
        help="metrics JSON: serve --metrics output, trace record's "
        "<out>.metrics.json, or benchmarks/results/metrics.json",
    )
    metrics.add_argument(
        "--prometheus", action="store_true",
        help="print Prometheus text exposition instead of a summary",
    )

    top = sub.add_parser(
        "top",
        parents=[common],
        help="live serving dashboard off a serve --metrics-interval file",
    )
    top.add_argument(
        "file", help="the JSON file 'serve --metrics-interval' maintains"
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default 2)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )

    chaos_net = sub.add_parser(
        "chaos-net",
        parents=[common],
        help="network-tier chaos drill: crash a shard under live "
        "traffic, audit hangs/answers/recovery",
    )
    chaos_net.add_argument(
        "--shards", type=int, default=2,
        help="catalog partitions the drill deployment runs",
    )
    chaos_net.add_argument(
        "--scale", type=float, default=0.005,
        help="synthetic catalog scale (fraction of full node counts)",
    )
    chaos_net.add_argument(
        "--connections", type=int, default=8,
        help="concurrent closed-loop loadgen connections",
    )
    chaos_net.add_argument(
        "--duration", type=float, default=3.0,
        help="seconds of live traffic the drill sustains",
    )
    chaos_net.add_argument(
        "--fault-kind",
        choices=[
            "shard_crash", "slow_shard", "conn_drop",
            "worker_kill", "worker_oom", "frame_corrupt",
        ],
        default="shard_crash",
        help="which network-tier fault to inject (worker_* and "
        "frame_corrupt need --shard-mode process)",
    )
    chaos_net.add_argument(
        "--shard-mode", choices=["thread", "process"], default="thread",
        help="run the drill deployment with in-process shard threads "
        "or out-of-process shard workers",
    )
    chaos_net.add_argument(
        "--heartbeat-ms", type=float, default=250.0,
        help="worker heartbeat interval for the drill (process mode)",
    )
    chaos_net.add_argument(
        "--crash-at", type=int, default=2,
        help="dispatch cycle (or connection index, for conn_drop) the "
        "fault fires at",
    )
    chaos_net.add_argument(
        "--crash-shard", type=int, default=0,
        help="which shard the dispatcher fault targets",
    )
    chaos_net.add_argument(
        "--restart-budget", type=int, default=5,
        help="supervisor restart budget for the drill deployment",
    )
    chaos_net.add_argument(
        "--workers", type=int, default=2,
        help="worker threads per shard engine",
    )
    chaos_net.add_argument(
        "--zipf", type=float, default=1.2,
        help="Zipf skew of loadgen source ids",
    )
    chaos_net.add_argument(
        "--seed", type=int, default=7, help="loadgen RNG seed"
    )
    chaos_net.add_argument(
        "--no-verify", action="store_true",
        help="skip the per-answer Dijkstra cross-check",
    )
    chaos_net.add_argument(
        "--metrics", default=None,
        help="write the drill report plus bench.net.* gauges to this "
        "JSON file",
    )

    worker = sub.add_parser(
        "shard-worker",
        parents=[common],
        help="internal: one out-of-process shard engine (spawned by "
        "'serve --shard-mode process'; not for interactive use)",
    )
    worker.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="parent frame-protocol endpoint to dial back",
    )
    worker.add_argument(
        "--shard", type=int, required=True, help="shard index this worker serves"
    )
    worker.add_argument(
        "--token", required=True,
        help="spawn token echoed in the HELLO frame (pairs child to parent)",
    )
    worker.add_argument(
        "--heartbeat-ms", type=float, default=1000.0,
        help="idle heartbeat interval",
    )

    sub.add_parser("version", parents=[common], help="print the package version")

    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.config import default_config

    config = default_config(args.scale)
    registry = _experiment_registry()
    names = sorted(registry) if args.artifact == "all" else [args.artifact]
    for name in names:
        registry[name](config)
        print()
    return 0


def _print_metrics_snapshot(snapshot: Dict[str, dict]) -> None:
    print("metrics:")
    for name, data in snapshot.items():
        if data["type"] in ("counter", "gauge"):
            print(f"  {name} = {data['value']:g}")
        else:
            line = (
                f"  {name}: count={data['count']} sum={data['sum']:.6g} "
                f"mean={data['mean']:.6g}"
            )
            if data.get("p50") is not None:
                line += (
                    f" p50={data['p50']:.6g} p95={data['p95']:.6g} "
                    f"p99={data['p99']:.6g}"
                )
            print(line)


def _load_graph_file(path: str):
    """:func:`~repro.graph.io.load_graph`, exiting cleanly on a bad file."""
    from repro.graph.io import load_graph

    try:
        return load_graph(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"cannot load graph {path}: {exc}") from None


def _cmd_sssp(args: argparse.Namespace) -> int:
    from repro.sssp import (
        bellman_ford,
        delta_stepping,
        dijkstra,
        kla_sssp,
        nearfar_sssp,
    )
    from repro.core import AdaptiveParams, adaptive_sssp
    from repro import obs

    graph = _load_graph_file(args.graph)
    source = (
        args.source
        if args.source is not None
        else int(np.argmax(np.diff(graph.indptr)))
    )
    if not args.quiet:
        print(f"{graph!r}, source={source}, algorithm={args.algorithm}")

    registry = obs.MetricsRegistry() if args.verbose else None
    trace = None
    with obs.use(registry=registry):
        if args.algorithm == "dijkstra":
            result = dijkstra(graph, source)
        elif args.algorithm == "bellman-ford":
            result = bellman_ford(graph, source)
        elif args.algorithm == "delta-stepping":
            result = delta_stepping(graph, source, args.delta)
        elif args.algorithm == "nearfar":
            result, trace = nearfar_sssp(graph, source, delta=args.delta)
        elif args.algorithm == "kla":
            result, trace = kla_sssp(graph, source, args.k)
        else:
            setpoint = args.setpoint if args.setpoint is not None else 10_000.0
            result, trace, _ = adaptive_sssp(
                graph, source, AdaptiveParams(setpoint=setpoint)
            )

    finite = result.finite_distances()
    print(
        f"reached {result.num_reached}/{graph.num_nodes} vertices; "
        f"iterations={result.iterations}, relaxations={result.relaxations:,}"
    )
    if finite.size and not args.quiet:
        print(
            f"distance stats: max={finite.max():.4g}, mean={finite.mean():.4g}"
        )

    if trace is not None and args.save_trace:
        from repro.instrument.serialize import save_trace

        path = save_trace(trace, args.save_trace)
        if not args.quiet:
            print(f"trace written to {path}")

    if args.device:
        if trace is None or len(trace) == 0:
            print("(no trace to simulate for this algorithm)")
        else:
            from repro.gpusim import get_device, simulate_run

            with obs.use(registry=registry):
                run = simulate_run(trace, get_device(args.device))
            s = run.summary()
            print(
                f"simulated on {s['device']} ({s['dvfs']}): "
                f"{s['time_ms']} ms, {s['avg_power_w']} W, {s['energy_j']} J"
            )

    if registry is not None:
        _print_metrics_snapshot(registry.snapshot())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.graph.datasets import cal_like, wiki_like
    from repro.graph.io import write_dimacs, write_edge_list, write_matrix_market

    factory = cal_like if args.dataset == "cal" else wiki_like
    graph = factory(args.scale, seed=args.seed)
    out = args.output
    if out.endswith((".gr", ".gr.gz")):
        write_dimacs(graph, out)
    elif out.endswith((".mtx", ".mtx.gz")):
        write_matrix_market(graph, out)
    else:
        write_edge_list(graph, out)
    if not args.quiet:
        print(f"wrote {graph!r} to {out}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.graph.properties import graph_stats

    graph = _load_graph_file(args.graph)
    stats = graph_stats(graph)
    print(format_table([stats.as_row()]))
    return 0


# ----------------------------------------------------------------------
# service commands
# ----------------------------------------------------------------------
def _service_catalog(args: argparse.Namespace):
    """The catalog for serve/query: built-ins plus --graph-file entries."""
    from repro.service import default_catalog

    catalog = default_catalog(args.scale)
    for spec in args.graph_file:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise SystemExit(f"--graph-file expects NAME=PATH, got {spec!r}")
        catalog.register(name, _load_graph_file(path))
    return catalog


def _checked_option(flags: str, build):
    """``build()``, turning its ``ValueError`` into a one-line exit."""
    try:
        return build()
    except ValueError as exc:
        raise SystemExit(f"bad {flags}: {exc}") from None


def _fault_plan(args: argparse.Namespace):
    """The pool fault plan ``--fault-rate``/``--fault-hang`` ask for, or None.

    A bad value exits with one line naming its options, no traceback.
    """
    from repro.resilience import FaultPlan

    if args.fault_rate <= 0:
        return None
    return _checked_option(
        "--fault-rate/--fault-hang",
        lambda: FaultPlan(rate=args.fault_rate, hang_seconds=args.fault_hang),
    )


def _write_serve_metrics(path: Path, engine, registry, spans) -> None:
    """Rewrite the serve metrics file atomically (schema 2).

    Written whole into a temp file then renamed, so a concurrent
    ``repro top`` never reads a half-written snapshot.
    """
    payload = {
        "schema": 2,
        "ts": time.time(),
        "stats": engine.stats(),
        "health": engine.health(),
        "metrics": registry.snapshot(),
        "spans": [st.as_dict() for st in spans.profile()],
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    tmp.replace(path)


@contextlib.contextmanager
def _serve_metrics_file(args: argparse.Namespace, engine, registry, spans):
    """Keep the ``--metrics`` file while a ``serve`` transport runs.

    With ``--metrics-interval N`` a writer thread rewrites the file
    every N seconds; leaving the block stops and joins it, then writes
    the final snapshot.  Without ``--metrics`` it does nothing.
    """
    import threading

    if not args.metrics:
        yield
        return
    path = Path(args.metrics)
    stop = threading.Event()
    writer = None
    if args.metrics_interval > 0:

        def _writer_loop() -> None:
            while not stop.wait(args.metrics_interval):
                _write_serve_metrics(path, engine, registry, spans)

        writer = threading.Thread(
            target=_writer_loop, name="serve-metrics-writer", daemon=True
        )
        writer.start()
    try:
        yield
    finally:
        stop.set()
        if writer is not None:
            writer.join(timeout=5.0)
        _write_serve_metrics(path, engine, registry, spans)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs.telemetry import TraceSampler
    from repro.service import QueryEngine, serve_stream

    registry = obs.MetricsRegistry()
    spans = obs.SpanRecorder()
    sink = obs.JsonlSink(args.events) if args.events else None
    sampler = _checked_option(
        "--sample-rate", lambda: TraceSampler(args.sample_rate)
    )
    catalog = _service_catalog(args)
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    if args.restart_budget < 0:
        raise SystemExit("--restart-budget must be >= 0")
    engine_kwargs = dict(
        max_workers=args.workers,
        timeout=args.timeout,
        cache_size=args.cache_size,
        max_batch=args.max_batch,
        fault_plan=_fault_plan(args),
    )
    if args.listen:
        try:
            with obs.use(registry=registry, events=sink, spans=spans):
                return _serve_listen(
                    args, catalog, engine_kwargs, registry, spans, sampler
                )
        finally:
            if sink is not None:
                sink.close()
    try:
        with obs.use(registry=registry, events=sink, spans=spans):
            if args.shards > 1 or args.shard_mode == "process":
                engine = _shard_manager(args, catalog, engine_kwargs)
            else:
                engine = QueryEngine(catalog, **engine_kwargs)
            with engine:
                if not args.quiet:
                    banner = engine.stats()
                    shard_note = (
                        f", {args.shards} shards" if args.shards > 1 else ""
                    )
                    print(
                        f"serving graphs {banner['graphs']} "
                        f"({banner['pool']['mode']} pool, "
                        f"{banner['pool']['max_workers']} workers"
                        f"{shard_note}, "
                        f"cache {args.cache_size}); one JSON request per line",
                        file=sys.stderr,
                    )
                with _serve_metrics_file(args, engine, registry, spans):
                    if args.input:
                        with open(args.input) as fh:
                            count = serve_stream(
                                engine, fh, sys.stdout, sampler=sampler
                            )
                    else:
                        count = serve_stream(
                            engine, sys.stdin, sys.stdout, sampler=sampler
                        )
                stats = engine.stats()
    finally:
        if sink is not None:
            sink.close()
    if not args.quiet:
        cache = stats["cache"]
        print(
            f"served {count} responses ({stats['queries']} queries, "
            f"cache {cache['hits']} hits / {cache['misses']} misses / "
            f"{cache['evictions']} evictions)",
            file=sys.stderr,
        )
        if args.metrics:
            print(f"metrics written to {args.metrics}", file=sys.stderr)
    if args.verbose:
        _print_metrics_snapshot(registry.snapshot())
    return 0


def _shard_manager(
    args: argparse.Namespace, catalog, engine_kwargs: dict, admission=None
):
    """A ShardManager under a ShardSupervisor with ``--restart-budget``.

    The supervisor attaches to the manager, so ``close()`` stops it.
    """
    from repro.net import ShardManager, ShardSupervisor
    from repro.resilience import RestartPolicy

    manager = ShardManager(
        catalog,
        shards=args.shards,
        shard_mode=args.shard_mode,
        heartbeat_ms=args.heartbeat_ms,
        admission=admission,
        **engine_kwargs,
    )
    ShardSupervisor(
        manager, restart_policy=RestartPolicy(budget=args.restart_budget)
    ).start()
    return manager


def _serve_listen(
    args: argparse.Namespace,
    catalog,
    engine_kwargs: dict,
    registry,
    spans,
    sampler,
) -> int:
    """The ``serve --listen`` path: shards + admission + TCP front-end."""
    import asyncio

    from repro.net import AdmissionController, NetServer, parse_listen

    host, port = parse_listen(args.listen)
    if args.max_inflight < 0:
        raise SystemExit("--max-inflight must be >= 0")
    if args.drain_ms < 0:
        raise SystemExit("--drain-ms must be >= 0")
    admission = AdmissionController(max_inflight=args.max_inflight)
    engine = _shard_manager(args, catalog, engine_kwargs, admission=admission)
    server = NetServer(engine, host=host, port=port, sampler=sampler)

    async def _run() -> None:
        import signal

        await server.start()
        bound_host, bound_port = server.address
        if not args.quiet:
            print(
                f"listening on {bound_host}:{bound_port} "
                f"({len(engine.shards)} {args.shard_mode} shards, "
                f"graphs {engine.graph_ids}, "
                f"max in-flight {admission.max_inflight}/shard, "
                f"restart budget {args.restart_budget}); "
                "JSONL protocol + HTTP GET /metrics, /healthz",
                file=sys.stderr,
            )
        # explicit handlers: a backgrounded serve in a shell script (CI)
        # inherits SIGINT ignored, and SIGTERM would skip cleanup — both
        # must stop the loop gracefully so final metrics still land
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loops: Ctrl-C still raises KeyboardInterrupt
        serve_task = asyncio.ensure_future(server.serve_forever())
        stop_task = asyncio.ensure_future(stop.wait())
        done, pending = await asyncio.wait(
            {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        # drain before dropping connections: in-flight requests get
        # --drain-ms to flush their responses (SIGTERM lands here too)
        await server.stop(drain_seconds=args.drain_ms / 1000.0)

    try:
        with _serve_metrics_file(args, engine, registry, spans):
            asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    finally:
        stats = engine.stats()
        engine.close()
    if not args.quiet:
        print(
            f"served {server.responses_total} responses over "
            f"{server.connections_total} connections "
            f"({stats['queries']} queries, {admission.shed} shed)",
            file=sys.stderr,
        )
        if args.metrics:
            print(f"metrics written to {args.metrics}", file=sys.stderr)
    if args.verbose:
        _print_metrics_snapshot(registry.snapshot())
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro import obs
    from repro.net import run_loadgen

    if args.connections < 1:
        raise SystemExit("--connections must be >= 1")
    if args.duration <= 0:
        raise SystemExit("--duration must be > 0")
    if args.batch < 1:
        raise SystemExit("--batch must be >= 1")
    try:
        summary = asyncio.run(
            run_loadgen(
                args.target,
                connections=args.connections,
                duration_seconds=args.duration,
                zipf_a=args.zipf,
                batch=args.batch,
                graph=args.graph,
                algorithm=args.algorithm,
                seed=args.seed,
            )
        )
    except (ConnectionRefusedError, OSError) as exc:
        raise SystemExit(f"cannot reach {args.target}: {exc}")
    except RuntimeError as exc:
        raise SystemExit(str(exc))
    if args.metrics:
        registry = obs.MetricsRegistry()
        latency = summary["latency"]
        registry.gauge("bench.net.qps").set(summary["qps"])
        registry.gauge("bench.net.sent").set(summary["sent"])
        registry.gauge("bench.net.ok").set(summary["ok"])
        registry.gauge("bench.net.shed").set(summary["shed"])
        registry.gauge("bench.net.errors").set(summary["errors"])
        registry.gauge("bench.net.unavailable").set(summary["unavailable"])
        registry.gauge("bench.net.dropped").set(summary["dropped"])
        registry.gauge("bench.net.hung").set(summary["hung"])
        registry.gauge("bench.net.p50_ms").set(latency["p50_ms"])
        registry.gauge("bench.net.p99_ms").set(latency["p99_ms"])
        payload = {
            "schema": 2,
            "ts": time.time(),
            "loadgen": summary,
            "metrics": registry.snapshot(),
        }
        Path(args.metrics).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.service import QueryEngine, SSSPQuery

    if args.repeat < 1:
        raise SystemExit("--repeat must be >= 1")
    params = {}
    if args.delta is not None:
        params["delta"] = args.delta
    if args.setpoint is not None:
        params["setpoint"] = args.setpoint
    if args.k is not None:
        params["k"] = args.k

    registry = obs.MetricsRegistry() if args.verbose else None
    catalog = _service_catalog(args)
    if args.graph not in catalog:
        raise SystemExit(
            f"unknown graph {args.graph!r} (have {catalog.names()}); "
            "register files with --graph-file NAME=PATH"
        )
    with obs.use(registry=registry):
        engine = QueryEngine(
            catalog,
            max_workers=args.workers,
            timeout=args.timeout,
            cache_size=args.cache_size,
            max_batch=args.max_batch,
            fault_plan=_fault_plan(args),
        )
        with engine:
            graph = engine.pool.graph(args.graph)
            sources = list(args.source or [])
            if args.sources:
                try:
                    sources.extend(
                        int(s) for s in args.sources.split(",") if s.strip()
                    )
                except ValueError:
                    raise SystemExit(
                        f"--sources expects a comma list of integers, "
                        f"got {args.sources!r}"
                    )
            if not sources:
                sources = [int(np.argmax(np.diff(graph.indptr)))]
            ok = True
            for _ in range(args.repeat):
                queries = [
                    SSSPQuery(
                        graph_id=args.graph,
                        source=int(source),
                        algorithm=args.algorithm,
                        params=params,
                    )
                    for source in sources
                ]
                for response in engine.run_many(queries):
                    ok = ok and response.ok
                    print(json.dumps(response.as_dict()))
    if registry is not None:
        _print_metrics_snapshot(registry.snapshot())
    return 0 if ok else 1


def _load_metric_snapshot(path: str) -> Dict[str, dict]:
    """The metric snapshot inside any of the repo's metrics JSON files.

    Accepts the three shapes in the wild: ``serve --metrics`` /
    ``trace record`` files (snapshot under ``"metrics"``),
    ``benchmarks/results/metrics.json`` (ditto), and a bare snapshot
    dict (e.g. saved straight from ``registry.snapshot()``).
    """
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SystemExit(f"metrics file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"invalid metrics JSON in {path}: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"{path} does not contain a JSON object")
    snapshot = data.get("metrics", data)
    if not isinstance(snapshot, dict):
        raise SystemExit(f"{path} has no metric snapshot")
    return snapshot


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs.exposition import format_prometheus

    snapshot = _load_metric_snapshot(args.file)
    if args.prometheus:
        sys.stdout.write(format_prometheus(snapshot))
        return 0
    if not snapshot:
        print("(no metrics recorded)")
        return 0
    _print_metrics_snapshot(snapshot)
    return 0


def _latency_rows(snapshot: Dict[str, dict]) -> list:
    """One row per labelled ``service.query.latency`` histogram.

    Sharded serve sessions label the histograms with ``shard=<i>``;
    when any series carries that label the table grows a leading
    ``shard`` column so per-shard latency stays distinguishable.
    """
    from repro.obs.registry import parse_name

    found = []
    for key in sorted(snapshot):
        base, labels = parse_name(key)
        if base != "service.query.latency":
            continue
        data = snapshot[key]
        if not data.get("count"):
            continue
        found.append((labels, data))
    has_shard = any("shard" in labels for labels, _ in found)
    rows = []
    for labels, data in found:
        row = {}
        if has_shard:
            row["shard"] = labels.get("shard", "-")
        row.update(
            {
                "graph": labels.get("graph", "-"),
                "algorithm": labels.get("algorithm", "-"),
                "count": data["count"],
                "p50 ms": round(1e3 * data.get("p50", 0.0), 2),
                "p95 ms": round(1e3 * data.get("p95", 0.0), 2),
                "p99 ms": round(1e3 * data.get("p99", 0.0), 2),
            }
        )
        rows.append(row)
    if has_shard:
        rows.sort(key=lambda r: (r["shard"], r["graph"], r["algorithm"]))
    return rows


def _render_top_frame(data: dict, prev: dict | None) -> str:
    """One ``repro top`` frame from a serve metrics file (schema 2)."""
    from repro.experiments.report import format_table

    lines = []
    stats = data.get("stats", {})
    health = data.get("health", {})
    cache = stats.get("cache", {})
    pool = health.get("pool", stats.get("pool", {}))
    queries = stats.get("queries", 0)
    qps = None
    if prev is not None:
        dt = float(data.get("ts", 0)) - float(prev.get("ts", 0))
        if dt > 0:
            qps = (queries - prev.get("stats", {}).get("queries", 0)) / dt
    hits = cache.get("hits", 0)
    lookups = hits + cache.get("misses", 0)
    hit_rate = f"{100.0 * hits / lookups:.1f}%" if lookups else "n/a"
    lines.append(
        f"queries {queries}"
        + (f"  |  {qps:.1f} qps" if qps is not None else "")
        + f"  |  cache hit rate {hit_rate}"
        + f"  |  pool {pool.get('mode', '?')}"
        f" x{pool.get('max_workers', '?')}"
        f", depth {pool.get('pending', 0)}"
        f", workers lost {pool.get('lost_workers', 0)}"
    )
    admission = stats.get("admission") or health.get("admission")
    if admission:
        inflight = ", ".join(
            f"s{shard}:{n}"
            for shard, n in sorted(admission.get("inflight", {}).items())
        )
        unavailable = admission.get("unavailable", 0)
        lines.append(
            f"admission: {admission.get('admitted', 0)} admitted, "
            f"{admission.get('shed', 0)} shed"
            + (f", {unavailable} unavailable" if unavailable else "")
            + f" (bound {admission.get('max_inflight', '?')}/shard)"
            + (f"  |  inflight {inflight}" if inflight else "")
        )
    shard_rows = health.get("shards")
    if shard_rows:
        supervisor = health.get("supervisor") or {}
        sup_shards = supervisor.get("shards", {})
        cells = []
        for row in shard_rows:
            index = row.get("index", "?")
            state = row.get("state", "up")
            watch = sup_shards.get(str(index), {})
            restarts = watch.get("restarts", 0)
            cell = f"s{index}:{state}"
            if restarts:
                cell += f" ({restarts} restart{'s' if restarts != 1 else ''})"
            worker = (row.get("dispatcher") or {}).get("worker")
            if worker:
                beat = worker.get("heartbeat_age_ms")
                cell += (
                    f" pid={worker.get('pid', '?')}"
                    + (f" hb={beat:.0f}ms" if beat is not None else "")
                )
            cells.append(cell)
        mode = health.get("shard_mode")
        line = (
            "shards"
            + (f" ({mode})" if mode else "")
            + ": "
            + ", ".join(cells)
        )
        if supervisor:
            line += (
                f"  |  budget {supervisor.get('restart_budget', '?')}"
                f", degraded {supervisor.get('degraded', 0)}"
            )
        lines.append(line)
    rows = _latency_rows(data.get("metrics", {}))
    if rows:
        lines.append("")
        lines.append(format_table(rows))
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    if args.interval <= 0:
        raise SystemExit("--interval must be > 0")
    path = Path(args.file)
    prev: dict | None = None
    try:
        while True:
            try:
                data = json.loads(path.read_text())
            except FileNotFoundError:
                frame = f"waiting for {path} (is serve --metrics-interval on?)"
                data = None
            except json.JSONDecodeError:
                frame = f"{path}: partial write, retrying"
                data = None
            if data is not None:
                frame = _render_top_frame(data, prev)
                prev = data
            if args.once:
                print(frame)
                return 0
            # ANSI clear-screen + home keeps the frame in place
            sys.stdout.write("\033[2J\033[H" + frame + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_chaos_net(args: argparse.Namespace) -> int:
    """Network-tier chaos drill: shard death under live traffic.

    Exit code 0 means the drill's three claims held: zero hung
    clients (every request terminated in-band or by reconnect), zero
    wrong answers (Dijkstra cross-check, unless ``--no-verify``), and
    — for lethal fault kinds — the crashed shard restarted within the
    supervisor's budget.
    """
    from repro import obs
    from repro.net import run_chaos_drill
    from repro.resilience import RestartPolicy

    if args.connections < 1:
        raise SystemExit("--connections must be >= 1")
    if args.duration <= 0:
        raise SystemExit("--duration must be > 0")
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    if not 0 <= args.crash_shard < args.shards:
        raise SystemExit("--crash-shard must be in [0, --shards)")
    if args.restart_budget < 0:
        raise SystemExit("--restart-budget must be >= 0")
    from repro.resilience import WORKER_FAULT_KINDS

    if args.fault_kind in WORKER_FAULT_KINDS and args.shard_mode != "process":
        raise SystemExit(
            f"--fault-kind {args.fault_kind} needs --shard-mode process"
        )
    registry = obs.MetricsRegistry()
    if not args.quiet:
        print(
            f"chaos-net: {args.shards} {args.shard_mode} shards, fault "
            f"{args.fault_kind} at cycle {args.crash_at} on shard "
            f"{args.crash_shard}, {args.connections} connections for "
            f"{args.duration}s"
        )
    with obs.use(registry=registry):
        report = run_chaos_drill(
            shards=args.shards,
            scale=args.scale,
            connections=args.connections,
            duration_seconds=args.duration,
            crash_at=args.crash_at,
            crash_shard=args.crash_shard,
            fault_kind=args.fault_kind,
            restart_policy=RestartPolicy(budget=args.restart_budget),
            workers=args.workers,
            zipf_a=args.zipf,
            seed=args.seed,
            verify=not args.no_verify,
            shard_mode=args.shard_mode,
            heartbeat_ms=args.heartbeat_ms,
        )
    summary = report["summary"]
    verification = report["verification"]
    print(
        f"traffic: {summary['sent']} sent = {summary['ok']} ok + "
        f"{summary['shed']} shed + {summary['unavailable']} unavailable + "
        f"{summary['errors']} errors + {summary['dropped']} dropped + "
        f"{summary['hung']} hung"
    )
    recovery = report["recovery_ms"]
    print(
        f"supervision: {report['restarts']} restart(s), "
        f"recovered={report['recovered']}"
        + (f", downtime {recovery:.1f}ms" if recovery is not None else "")
    )
    if not args.no_verify:
        print(
            f"verification: {verification['checked']} answers "
            f"({verification['unique_sources']} unique sources), "
            f"{verification['mismatches']} Dijkstra mismatches"
        )
    if args.metrics:
        registry.gauge("bench.net.recovery_ms").set(
            recovery if recovery is not None else 0.0
        )
        if args.shard_mode == "process":
            registry.gauge("bench.net.process_recovery_ms").set(
                recovery if recovery is not None else 0.0
            )
        registry.gauge("bench.net.hung").set(summary["hung"])
        registry.gauge("bench.net.errors").set(summary["errors"])
        registry.gauge("bench.net.chaos_mismatches").set(
            int(verification.get("mismatches", 0))
        )
        payload = {
            "schema": 2,
            "ts": time.time(),
            "chaos": report,
            "metrics": registry.snapshot(),
        }
        Path(args.metrics).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        if not args.quiet:
            print(f"metrics written to {args.metrics}")
    if args.verbose:
        _print_metrics_snapshot(registry.snapshot())
    print("chaos-net: PASS" if report["ok"] else "chaos-net: FAIL")
    return 0 if report["ok"] else 1


def _cmd_version(args: argparse.Namespace) -> int:
    from repro import __version__

    print(f"repro {__version__}")
    if args.verbose:
        print(f"python {sys.version.split()[0]}, numpy {np.__version__}")
    return 0


# ----------------------------------------------------------------------
# trace subcommand
# ----------------------------------------------------------------------
def _analysis_setpoint(trace) -> float:
    """The settling-analysis target: the run's set-point if recorded,
    else the median parallelism (a baseline run has no set-point)."""
    setpoint = trace.meta.get("setpoint")
    if setpoint:
        return float(setpoint)
    par = trace.parallelism
    median = float(np.median(par)) if par.size else 0.0
    return median if median > 0 else 1.0


def _trace_summary_rows(label: str, trace) -> dict:
    from repro.instrument.convergence import analyze_controller
    from repro.instrument.stats import summarize

    s = summarize(trace.parallelism)
    dyn = analyze_controller(trace, _analysis_setpoint(trace))
    return {
        "run": label,
        "algorithm": trace.algorithm,
        "graph": trace.graph_name,
        "iterations": trace.num_iterations,
        "edges expanded": trace.total_edges_expanded,
        "par mean": round(s.mean, 1),
        "par median": round(s.median, 1),
        "par cv": round(s.cv, 3),
        "par entry": dyn.parallelism_entry,
        "d settle": dyn.d_settling,
        "alpha settle": dyn.alpha_settling,
        "overshoot": round(dyn.parallelism_overshoot, 2),
        "steady err": round(dyn.steady_tracking_error, 3),
    }


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core import AdaptiveParams, adaptive_sssp
    from repro.experiments.report import format_table
    from repro.instrument.serialize import save_trace
    from repro.sssp import nearfar_sssp

    base = Path(args.out)
    trace_path = Path(f"{base}.trace.json")
    events_path = Path(f"{base}.events.jsonl")
    metrics_path = Path(f"{base}.metrics.json")

    graph = _load_graph_file(args.graph)
    source = (
        args.source
        if args.source is not None
        else int(np.argmax(np.diff(graph.indptr)))
    )
    if not args.quiet:
        print(f"{graph!r}, source={source}, algorithm={args.algorithm}")

    registry = obs.MetricsRegistry()
    spans = obs.SpanRecorder()
    with obs.JsonlSink(events_path) as sink:
        with obs.use(registry=registry, events=sink, spans=spans):
            with spans.span("run"):
                if args.algorithm == "adaptive":
                    setpoint = (
                        args.setpoint if args.setpoint is not None else 10_000.0
                    )
                    result, trace, _ = adaptive_sssp(
                        graph, source, AdaptiveParams(setpoint=setpoint)
                    )
                else:
                    result, trace = nearfar_sssp(
                        graph, source, delta=args.delta
                    )
        events_written = sink.count

    save_trace(trace, trace_path)
    metrics_path.write_text(
        json.dumps(
            {
                "schema": 1,
                "algorithm": trace.algorithm,
                "graph": trace.graph_name,
                "source": source,
                "wall_seconds": spans.total("run"),
                "metrics": registry.snapshot(),
                "spans": [st.as_dict() for st in spans.profile()],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    print(
        f"reached {result.num_reached}/{graph.num_nodes} vertices; "
        f"iterations={result.iterations}, relaxations={result.relaxations:,}"
    )
    print(format_table([_trace_summary_rows(base.name, trace)]))
    if not args.quiet:
        print(f"trace written to {trace_path}")
        print(f"{events_written} events streamed to {events_path}")
        print(f"metrics summary written to {metrics_path}")
    if args.verbose:
        _print_metrics_snapshot(registry.snapshot())
    return 0


def _render_event(event: dict) -> str | None:
    """One human-readable line for a known event type, None otherwise.

    Covers the serving vocabulary (``query_*``, ``batch_dispatch``)
    and the kernel batch events (``batch_run_start`` / ``batch_run_end``)
    that used to fall through to raw dicts, plus v2 ``span`` events.
    """
    etype = event.get("type")
    trace_tag = f" trace={event['trace'][:8]}" if event.get("trace") else ""
    worker_tag = " [worker]" if event.get("worker") else ""
    if etype == "query_start":
        return (
            f"query_start   qid={event.get('qid')} "
            f"{event.get('graph')}/{event.get('algorithm')} "
            f"source={event.get('source')} "
            f"depth={event.get('queue_depth')}{trace_tag}"
        )
    if etype == "query_end":
        status = "ok" if event.get("ok") else f"ERR {event.get('error')}"
        cache = f" cache={event['cache']}" if event.get("cache") else ""
        return (
            f"query_end     qid={event.get('qid')} {status}{cache} "
            f"wall={event.get('wall_seconds')}s{trace_tag}"
        )
    if etype == "batch_dispatch":
        return (
            f"batch_dispatch {event.get('graph')}/{event.get('algorithm')} "
            f"size={event.get('batch_size')} "
            f"sources={event.get('sources')} qids={event.get('qids')}"
            f"{trace_tag}"
        )
    if etype == "batch_run_start":
        return (
            f"batch_run_start {event.get('algorithm')} "
            f"on {event.get('graph')} size={event.get('batch_size')} "
            f"sources={event.get('sources')}{worker_tag}{trace_tag}"
        )
    if etype == "batch_run_end":
        return (
            f"batch_run_end  size={event.get('batch_size')} "
            f"sweeps={event.get('sweeps')} "
            f"relaxations={event.get('relaxations'):,} "
            f"reached={event.get('reached')}{worker_tag}{trace_tag}"
        )
    if etype == "span":
        parent = f" parent={event['parent'][:8]}" if event.get("parent") else ""
        return (
            f"span          {event.get('name')} "
            f"{event.get('seconds')}s{parent}{worker_tag}{trace_tag}"
        )
    if etype == "run_start":
        return (
            f"run_start     {event.get('algorithm')} "
            f"on {event.get('graph')} source={event.get('source')}"
            f"{worker_tag}{trace_tag}"
        )
    if etype == "run_end":
        return (
            f"run_end       iterations={event.get('iterations')} "
            f"relaxations={event.get('relaxations'):,} "
            f"reached={event.get('reached')}{worker_tag}{trace_tag}"
        )
    return None


def _show_event_log(path: Path, quiet: bool) -> int:
    """Summarise a ``.events.jsonl`` log: counts, then rendered lines.

    ``iteration`` events (one per SSSP iteration — often thousands)
    are counted but not listed; everything else prints one line each,
    unknown types as raw JSON so nothing is silently dropped.
    """
    counts: Dict[str, int] = {}
    lines = []
    with path.open() as fh:
        for raw in fh:
            raw = raw.strip()
            if not raw:
                continue
            try:
                event = json.loads(raw)
            except json.JSONDecodeError:
                counts["<malformed>"] = counts.get("<malformed>", 0) + 1
                continue
            etype = str(event.get("type"))
            counts[etype] = counts.get(etype, 0) + 1
            if etype == "iteration":
                continue
            rendered = _render_event(event)
            lines.append(rendered if rendered is not None else raw)
    if not quiet:
        total = sum(counts.values())
        by_type = ", ".join(f"{t}={n}" for t, n in sorted(counts.items()))
        print(f"{total} events in {path} ({by_type})")
    for line in lines:
        print(line)
    return 0


def _cmd_trace_show(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.instrument.serialize import load_trace

    path = Path(args.trace_file)
    if path.suffix == ".jsonl":
        return _show_event_log(path, args.quiet)
    trace = load_trace(args.trace_file)
    print(format_table([_trace_summary_rows(path.name, trace)]))
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.experiments.report import format_table
    from repro.instrument.serialize import load_trace

    a = load_trace(args.trace_a)
    b = load_trace(args.trace_b)
    rows_a = _trace_summary_rows("a", a)
    rows_b = _trace_summary_rows("b", b)
    if not args.quiet:
        print(f"a: {args.trace_a}  ({a.algorithm} on {a.graph_name})")
        print(f"b: {args.trace_b}  ({b.algorithm} on {b.graph_name})")
    diff_rows = []
    for key in rows_a:
        if key in ("run", "algorithm", "graph"):
            continue
        va, vb = rows_a[key], rows_b[key]
        try:
            delta = round(vb - va, 4)
        except TypeError:
            delta = "-"
        diff_rows.append({"metric": key, "a": va, "b": vb, "b - a": delta})
    print(format_table(diff_rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    handlers = {
        "record": _cmd_trace_record,
        "show": _cmd_trace_show,
        "diff": _cmd_trace_diff,
    }
    return handlers[args.trace_command](args)


def _cmd_shard_worker(args: argparse.Namespace) -> int:
    """One out-of-process shard engine (spawned by the front-end).

    Deliberately runs under the default (null) observability context:
    worker-side telemetry stays process-local, which keeps process-mode
    responses byte-identical to thread mode's.  The parent exports
    ``net.worker.*`` transport metrics instead.
    """
    from repro.net.worker import run_worker

    return run_worker(
        args.connect,
        shard_index=args.shard,
        token=args.token,
        heartbeat_ms=args.heartbeat_ms,
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "sssp": _cmd_sssp,
        "generate": _cmd_generate,
        "info": _cmd_info,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "query": _cmd_query,
        "metrics": _cmd_metrics,
        "top": _cmd_top,
        "chaos-net": _cmd_chaos_net,
        "shard-worker": _cmd_shard_worker,
        "version": _cmd_version,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
