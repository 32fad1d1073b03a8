"""Command-line interface: ``python -m repro <subcommand> ...``.

Subcommands:

* ``check FILES...`` — check nanoTS source files (the classic mode); exits
  non-zero if any file fails to verify.  ``--format json`` emits structured
  diagnostics with stable error codes; ``--jobs N`` checks in parallel.
* ``bench figure6|figure7|incremental|modules|store|serve|cache|obs|speed``
  — regenerate the paper's evaluation tables and run the edit-recheck,
  module-graph, store, serve, cache-fleet, tracing and speed scenarios.
* ``serve`` — a newline-delimited JSON check/update/diagnostics/shutdown
  loop over stdin/stdout backed by an incremental workspace.
* ``watch FILES...`` — re-check files on mtime change, printing per-edit
  timing deltas.
* ``cache stats|gc|clear|serve|shutdown`` — inspect, maintain and serve
  the persistent artifact store (``--store PATH``, the ``REPRO_STORE``
  environment variable, or the XDG default ``~/.cache/repro/store``).
  ``cache serve --tcp`` runs the fleet cache server; the admin actions
  also accept ``--store remote://host:port`` to manage one remotely.
* ``trace summarize|merge|validate FILES...`` — post-process the Chrome
  trace-event files written by ``check --trace`` / ``REPRO_TRACE``.
* ``explain CODE`` — describe a diagnostic code (e.g. ``RSC-SUB-003``).

The checking subcommands (``check``, ``serve``, ``watch``) take
``--store PATH`` to persist interface summaries, kappa solutions and SMT
verdict memos across processes; with the flag unset the ``REPRO_STORE``
environment variable is consulted, and with neither set no store is used.

For backwards compatibility a bare file list (``python -m repro a.rsc``)
is treated as ``check a.rsc``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import CheckConfig, Session
from repro.errors import ERROR_CATALOG, explain_code

SUBCOMMANDS = ("check", "bench", "cache", "explain", "serve", "trace",
               "watch")

#: Process exit codes of the CLI (stable, part of the public interface).
EXIT_OK = 0
EXIT_UNSAFE = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Refined TypeScript (RSC): refinement type checking "
                    "for nanoTS")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="check nanoTS source files (*.rsc) or a project "
                      "directory (module graph)")
    check.add_argument("files", nargs="+",
                       help="nanoTS source files, or one project directory")
    check.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")
    check.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="check files (or independent modules) with N "
                            "parallel workers; unset defers to the "
                            "config's jobs setting")
    check.add_argument("--show-kappas", action="store_true",
                       help="print the refinements inferred by liquid fixpoint")
    check.add_argument("--quiet", action="store_true",
                       help="only print the per-file verdict")
    check.add_argument("--warnings-as-errors", action="store_true",
                       help="treat warnings as errors in the verdict")
    check.add_argument("--max-iterations", type=int, default=40, metavar="N",
                       help="liquid fixpoint iteration budget (default: 40)")
    check.add_argument("--qualifiers", choices=("default", "harvested"),
                       default="default",
                       help="qualifier pool: built-ins plus harvested "
                            "(default) or program-harvested only")
    check.add_argument("--trace", metavar="FILE", default=None,
                       help="collect hierarchical spans from every "
                            "subsystem and write a Chrome trace-event JSON "
                            "file (load it in Perfetto, or run `repro "
                            "trace summarize FILE`)")
    check.add_argument("--slow-queries", type=int, default=None, metavar="N",
                       help="with --trace: keep the N slowest SMT "
                            "implications in the trace's slow-query log "
                            "(default: 10)")
    _store_flags(check)

    bench = sub.add_parser(
        "bench", help="regenerate the paper's evaluation tables")
    bench.add_argument("table",
                       choices=("figure6", "figure7", "incremental",
                                "modules", "store", "serve", "cache",
                                "obs", "speed"),
                       help="which table to regenerate (incremental replays "
                            "a scripted edit sequence per benchmark; modules "
                            "replays project edits over the module-split "
                            "ports; store measures "
                            "cold vs store-warm fresh-process re-checks; "
                            "serve load-tests the multi-tenant socket "
                            "server with concurrent editing clients; cache "
                            "spawns a cache server plus a fleet of fresh "
                            "worker processes sharing it, then re-runs "
                            "under fault injection; obs measures the "
                            "overhead of the tracing layer, disabled vs "
                            "enabled; speed re-checks every port under the "
                            "reference engine configuration and the fast "
                            "one, asserting byte-identical verdicts)")
    bench.add_argument("--only", metavar="NAME", action="append",
                       help="restrict to the named benchmark(s)")
    bench.add_argument("--programs-dir", metavar="DIR", default=None,
                       help="directory holding the benchmark .rsc ports "
                            "(or, for modules, the per-project module "
                            "directories)")
    bench.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")
    bench.add_argument("--out", metavar="FILE", default=None,
                       help="where to write the machine-readable report "
                            "(default: BENCH_<table>.json in the current "
                            "directory, i.e. the repo root in CI)")
    bench.add_argument("--clients", type=int, default=4, metavar="N",
                       help="serve: number of concurrent editing clients "
                            "(default: 4)")
    bench.add_argument("--edit-rate", type=float, default=2.0, metavar="R",
                       help="serve: edits per second each client replays "
                            "(default: 2.0)")
    bench.add_argument("--workers", type=int, default=3, metavar="N",
                       help="cache: fleet worker processes sharing the "
                            "cache server (default: 3)")

    serve = sub.add_parser(
        "serve", help="check service: stdio NDJSON loop (repro-serve/2 "
                      "compatible) or, with --tcp, the multi-tenant "
                      "asyncio socket server (repro-serve/3)")
    serve.add_argument("--tcp", action="store_true",
                       help="serve the repro-serve/3 protocol over TCP "
                            "instead of the stdio v2 loop")
    serve.add_argument("--host", default="127.0.0.1", metavar="HOST",
                       help="TCP bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0, metavar="PORT",
                       help="TCP port (default: 0 = ephemeral; the bound "
                            "port is printed as a JSON line on startup)")
    serve.add_argument("--tenants", type=int, default=None, metavar="N",
                       help="max tenant workspaces kept alive before LRU "
                            "eviction (default: 8)")
    serve.add_argument("--queue-limit", type=int, default=None, metavar="N",
                       help="per-tenant pending-request bound; above it "
                            "requests get a backpressure error "
                            "(default: 16)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="checker thread pool size (default: 4)")
    _workspace_flags(serve)

    watchp = sub.add_parser(
        "watch", help="re-check files whenever their mtime changes")
    watchp.add_argument("files", nargs="+", help="nanoTS source files")
    watchp.add_argument("--poll", type=float, default=0.5, metavar="SECONDS",
                        help="polling interval (default: 0.5s)")
    watchp.add_argument("--max-scans", type=int, default=None, metavar="N",
                        help="stop after N filesystem scans (default: run "
                             "until interrupted)")
    _workspace_flags(watchp)

    cache = sub.add_parser(
        "cache", help="inspect, maintain and serve the persistent "
                      "artifact store")
    cache.add_argument("action",
                       choices=("stats", "gc", "clear", "serve", "shutdown"),
                       help="stats: entry counts and bytes per artifact "
                            "kind; gc: evict oldest entries down to "
                            "--max-bytes; clear: delete every entry; "
                            "serve: run the TCP cache server over a local "
                            "store; shutdown: stop a running cache server "
                            "(--store remote://host:port)")
    cache.add_argument("--store", metavar="PATH", default=None,
                       help="store location: a path, remote://host:port or "
                            "tiered://PATH?remote=host:port (default: "
                            "$REPRO_STORE, then the XDG cache path "
                            "~/.cache/repro/store)")
    cache.add_argument("--max-bytes", type=int, default=None, metavar="N",
                       help="gc: target size in bytes (default: 256 MiB)")
    cache.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")
    cache.add_argument("--tcp", action="store_true",
                       help="serve: required flag confirming the TCP "
                            "listener (mirrors `repro serve --tcp`)")
    cache.add_argument("--host", default="127.0.0.1", metavar="HOST",
                       help="serve: TCP bind address (default: 127.0.0.1)")
    cache.add_argument("--port", type=int, default=0, metavar="PORT",
                       help="serve: TCP port (default: 0 = ephemeral; the "
                            "bound port is printed as a JSON line on "
                            "startup)")
    cache.add_argument("--fault-drop", type=int, default=0, metavar="N",
                       help="serve: drop every Nth data response (fault "
                            "injection for degradation testing; 0 = off)")
    cache.add_argument("--fault-delay", type=int, default=0, metavar="N",
                       help="serve: delay every Nth data response (0 = off)")
    cache.add_argument("--fault-delay-seconds", type=float, default=0.05,
                       metavar="S",
                       help="serve: how long a --fault-delay response "
                            "sleeps (default: 0.05)")
    cache.add_argument("--fault-corrupt", type=int, default=0, metavar="N",
                       help="serve: corrupt every Nth get-hit payload "
                            "(0 = off)")

    trace = sub.add_parser(
        "trace", help="summarize, merge and validate exported Chrome "
                      "trace-event files (from `repro check --trace` or "
                      "the REPRO_TRACE environment variable)")
    trace.add_argument("action", choices=("summarize", "merge", "validate"),
                       help="summarize: per-subsystem / per-stage / "
                            "per-module / per-tenant breakdown tables; "
                            "merge: combine several per-process traces "
                            "(a fleet's REPRO_TRACE dumps) into one; "
                            "validate: check the trace-event schema")
    trace.add_argument("files", nargs="+",
                       help="trace JSON files (merge accepts several)")
    trace.add_argument("--out", metavar="FILE", default="trace-merged.json",
                       help="merge: where to write the merged trace "
                            "(default: trace-merged.json)")
    trace.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")

    explain = sub.add_parser(
        "explain", help="describe a diagnostic code (e.g. RSC-SUB-003)")
    explain.add_argument("code", nargs="?", default=None,
                         help="the diagnostic code; omit to list all codes")
    return parser


def _store_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", metavar="PATH", default=None,
                        help="persist interfaces, kappa solutions and SMT "
                             "verdicts under PATH and replay them on "
                             "re-checks (default: $REPRO_STORE; unset "
                             "disables the store)")
    parser.add_argument("--store-mode", choices=("readwrite", "readonly"),
                        default="readwrite",
                        help="readonly replays stored artifacts without "
                             "writing new ones (default: readwrite)")


def _store_path(args: argparse.Namespace) -> Optional[str]:
    """``--store`` beats ``REPRO_STORE``; neither means no store."""
    import os
    if getattr(args, "store", None):
        return args.store
    return os.environ.get("REPRO_STORE") or None


def _workspace_flags(parser: argparse.ArgumentParser) -> None:
    """Config flags shared by the workspace-backed subcommands."""
    parser.add_argument("--max-iterations", type=int, default=40, metavar="N",
                        help="liquid fixpoint iteration budget (default: 40)")
    parser.add_argument("--no-incremental", action="store_true",
                        help="disable artifact caching and warm-started "
                             "fixpoint (every update is a cold check)")
    parser.add_argument("--warnings-as-errors", action="store_true",
                        help="treat warnings as errors in the verdict")
    _store_flags(parser)


def _workspace_config(args: argparse.Namespace) -> CheckConfig:
    return CheckConfig(
        max_fixpoint_iterations=args.max_iterations,
        warnings_as_errors=args.warnings_as_errors,
        incremental=not args.no_incremental,
        store_path=_store_path(args),
        store_mode=getattr(args, "store_mode", "readwrite"),
    )


def cmd_check(args: argparse.Namespace) -> int:
    import pathlib
    try:
        config_kwargs = dict(
            max_fixpoint_iterations=args.max_iterations,
            warnings_as_errors=args.warnings_as_errors,
            qualifier_set=args.qualifiers,
            output_format=args.format,
            store_path=_store_path(args),
            store_mode=args.store_mode,
        )
        # An unset --jobs defers to CheckConfig.jobs instead of silently
        # overriding the config with argparse's former default of 1.
        if args.jobs is not None:
            config_kwargs["jobs"] = max(1, args.jobs)
        obs_kwargs = {}
        if args.trace:
            obs_kwargs["trace_path"] = args.trace
        if args.slow_queries is not None:
            obs_kwargs["slow_query_limit"] = args.slow_queries
        if obs_kwargs:
            from repro.core.config import ObsOptions
            config_kwargs["obs"] = ObsOptions(**obs_kwargs)
        config = CheckConfig(**config_kwargs)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config.obs.trace_path:
        from repro.obs.trace import tracer
        tracer().enable(slow_limit=config.obs.slow_query_limit)
    directories = [f for f in args.files if pathlib.Path(f).is_dir()]
    if directories:
        if len(args.files) != 1:
            print("repro: a project directory must be the only check "
                  "argument", file=sys.stderr)
            return EXIT_USAGE
        code = _check_project_dir(directories[0], config, args)
        _export_trace(config)
        return code
    session = Session(config)
    batch = session.check_files(args.files)

    if args.format == "json":
        payload = batch.to_dict()
        store_section = _store_section(session)
        if store_section is not None:
            payload["store"] = store_section
        payload["metrics"] = _metrics_section(
            batch.results, session.solver.stats, session.store)
        print(json.dumps(payload, indent=2))
    else:
        for result in batch.results:
            print(f"{result.filename}: {result.summary()}")
            if not args.quiet:
                for diag in result.diagnostics:
                    print(f"  {diag}")
            if args.show_kappas:
                for kappa, quals in sorted(result.kappa_solution.items()):
                    rendered = " && ".join(str(q) for q in quals) or "true"
                    print(f"  {kappa} := {rendered}")
        if len(batch.results) > 1:
            print(batch.summary())

    _export_trace(config)
    if any(d.kind.value == "internal"
           for r in batch.results for d in r.diagnostics):
        return EXIT_USAGE
    return EXIT_OK if batch.ok else EXIT_UNSAFE


def _export_trace(config: CheckConfig) -> None:
    """Write the spans collected under ``--trace`` and note it on stderr
    (stderr so ``--format json`` output stays parseable)."""
    path = config.obs.trace_path
    if not path:
        return
    from repro.obs.trace import tracer
    document = tracer().export(path)
    print(f"repro: trace with {len(document['traceEvents'])} event(s) "
          f"written to {path}", file=sys.stderr)


def _metrics_section(results, solver_stats, store) -> dict:
    """The ``"metrics"`` block of the JSON report: the unified registry
    snapshot built from the run's stats carriers."""
    from repro.core.result import STAGES, StageTimings
    from repro.obs.metrics import registry_from_stats
    timings = StageTimings()
    for result in results:
        if result.timings is not None:
            for stage in STAGES:
                timings.record(stage, getattr(result.timings, stage))
    backend = None
    if store is not None and hasattr(store.backend, "counters"):
        backend = store.backend.counters()
    registry = registry_from_stats(
        timings=timings, solver=solver_stats,
        store=store.counters() if store is not None else None,
        backend=backend)
    return registry.to_dict()


def _store_section(session) -> Optional[dict]:
    """The ``"store"`` block of the JSON report: this process's cache
    traffic plus, for networked backends, their degradation counters —
    how a fleet worker proves (or a bench asserts) it ran warm or ran
    degraded."""
    store = session.store
    if store is None:
        return None
    section = dict(store.counters())
    if hasattr(store.backend, "counters"):
        section["backend"] = store.backend.counters()
    return section


def _check_project_dir(root: str, config: CheckConfig,
                       args: argparse.Namespace) -> int:
    """``repro check <dir>``: check the directory as a module graph."""
    session = Session(config)
    project = session.check_project(root)
    if args.format == "json":
        payload = project.to_dict()
        store_section = _store_section(session)
        if store_section is not None:
            payload["store"] = store_section
        payload["metrics"] = _metrics_section(
            project.results, project.stats, session.store)
        print(json.dumps(payload, indent=2))
        return EXIT_OK if project.ok else EXIT_UNSAFE
    for result in project.results:
        rank = project.ranks.get(result.filename)
        where = ("cycle" if result.filename in project.cyclic
                 else f"rank {rank}")
        print(f"{result.filename} [{where}]: {result.summary()}")
        if not args.quiet:
            for diag in result.diagnostics:
                print(f"  {diag}")
        if args.show_kappas:
            for kappa, quals in sorted(result.kappa_solution.items()):
                rendered = " && ".join(str(q) for q in quals) or "true"
                print(f"  {kappa} := {rendered}")
    print(project.summary())
    return EXIT_OK if project.ok else EXIT_UNSAFE


def cmd_serve(args: argparse.Namespace) -> int:
    try:
        config = _workspace_config(args)
        service_changes = {
            key: value for key, value in (
                ("max_tenants", args.tenants),
                ("queue_limit", args.queue_limit),
                ("workers", args.workers),
            ) if value is not None}
        if service_changes:
            from dataclasses import replace
            config = config.with_options(
                service=replace(config.service, **service_changes))
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.tcp:
        from repro.service.server import run_server
        return run_server(config, host=args.host, port=args.port)
    from repro.serve import serve
    return serve(config=config)


def cmd_watch(args: argparse.Namespace) -> int:
    from repro.watch import watch
    try:
        config = _workspace_config(args)
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return watch(args.files, config=config, poll_seconds=args.poll,
                 max_scans=args.max_scans)


def cmd_bench(args: argparse.Namespace) -> int:
    """Run one bench suite, print its table and dump ``BENCH_<suite>.json``.

    A partial (--only) run would clobber a full report with one the
    regression gate reads as missing rows, so it is only written for full
    runs unless the user redirected the output explicitly.  Exit 1 if any
    ``safe``/``identical``/``jobs_identical`` row reads 0."""
    from repro import bench
    import pathlib
    programs_dir = pathlib.Path(args.programs_dir) if args.programs_dir else None
    if args.table == "serve" and (args.clients < 1 or args.edit_rate <= 0):
        print("repro: --clients must be >= 1 and --edit-rate > 0",
              file=sys.stderr)
        return EXIT_USAGE
    if args.table == "cache" and args.workers < 2:
        print("repro: --workers must be >= 2 (one cold worker plus "
              "warm fleet)", file=sys.stderr)
        return EXIT_USAGE
    suite = bench.SUITES.get(args.table)  # None for the figure7 table
    full = suite.benchmarks if suite else bench.BENCHMARKS
    known = bench.MODULE_BENCHMARKS if args.table == "modules" \
        else bench.BENCHMARKS
    names = args.only or list(full)
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"repro: unknown benchmark(s): {', '.join(unknown)}",
              file=sys.stderr)
        return EXIT_USAGE
    runs = {
        "figure6": lambda: bench.figure6_rows(
            names, programs_dir=programs_dir),
        "incremental": lambda: bench.incremental_rows(
            names, programs_dir=programs_dir),
        "modules": lambda: bench.modules_rows(
            names, modules_dir=programs_dir),
        "store": lambda: bench.store_rows(names, programs_dir=programs_dir),
        "serve": lambda: bench.serve_rows(
            args.clients, args.edit_rate, names, programs_dir=programs_dir),
        "cache": lambda: bench.cache_rows(
            args.workers, names, programs_dir=programs_dir),
        "obs": lambda: bench.obs_rows(names, programs_dir=programs_dir),
        "speed": lambda: bench.speed_rows(names, programs_dir=programs_dir),
    }
    try:
        if args.table == "figure7":
            if args.format == "json":
                payload = [{"name": n, "loc": bench.count_loc(
                                bench.source_of(n, programs_dir)),
                            "imp_diff": bench.CODE_CHANGES[n][0],
                            "all_diff": bench.CODE_CHANGES[n][1]}
                           for n in names]
                print(json.dumps(payload, indent=2))
            else:
                print(bench.format_figure7(names, programs_dir=programs_dir))
            return EXIT_OK
        rows = runs[args.table]()
    except FileNotFoundError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = bench.bench_report(args.table, rows)
    out = args.out or f"BENCH_{args.table}.json"
    dump = set(names) == set(full) or args.out is not None
    if dump:
        pathlib.Path(out).write_text(bench.dump_report(report))
    if args.format == "json":
        print(bench.dump_report(report), end="")
    else:
        print(bench.format_figure6(rows) if args.table == "figure6"
              else bench.format_rows(args.table, rows))
        print(f"\n{args.table} report written to {out}" if dump else
              f"\npartial run: {args.table} report not written "
              "(pass --out FILE to dump it)")
    return EXIT_UNSAFE if bench.verdict_failed(rows) else EXIT_OK


def cmd_cache(args: argparse.Namespace) -> int:
    import os
    from repro.store import (ArtifactStore, StoreUnavailableError,
                             default_store_path, resolve_store_backend)
    path = (args.store or os.environ.get("REPRO_STORE")
            or default_store_path())
    if args.action == "serve":
        if not args.tcp:
            print("repro: cache serve requires --tcp", file=sys.stderr)
            return EXIT_USAGE
        if "://" in path:
            print(f"repro: cache serve needs a local store path, not "
                  f"{path!r} (the server owns the store it fronts)",
                  file=sys.stderr)
            return EXIT_USAGE
        from repro.store.server import FaultPlan, run_store_server
        faults = None
        if args.fault_drop or args.fault_delay or args.fault_corrupt:
            faults = FaultPlan(drop_every=args.fault_drop,
                               delay_every=args.fault_delay,
                               corrupt_every=args.fault_corrupt,
                               delay_seconds=args.fault_delay_seconds)
        return run_store_server(path, host=args.host, port=args.port,
                                faults=faults)
    try:
        store = ArtifactStore(resolve_store_backend(path))
        if args.action == "shutdown":
            backend = store.backend
            if not hasattr(backend, "shutdown"):
                print(f"repro: cache shutdown needs a remote store "
                      f"(--store remote://host:port), got {path!r}",
                      file=sys.stderr)
                return EXIT_USAGE
            ack = backend.shutdown()
            if args.format == "json":
                print(json.dumps({"store": str(path), **ack}, indent=2))
            else:
                print(f"store: {path}")
                print(f"  server stopped after "
                      f"{ack.get('requests_served', 0)} requests")
            return EXIT_OK
        return _cache_admin(args, store, path)
    except StoreUnavailableError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _cache_admin(args: argparse.Namespace, store, path: str) -> int:
    from repro.store import DEFAULT_MAX_BYTES
    if args.action == "stats":
        from repro.obs.metrics import registry_from_stats
        stats = store.stats()
        payload = {"store": str(path), **stats.to_dict()}
        backend = (store.backend.counters()
                   if hasattr(store.backend, "counters") else None)
        registry = registry_from_stats(store=store.counters(),
                                       backend=backend)
        for kind, entry in sorted(stats.kinds.items()):
            registry.counter(f"store.entries.{kind}").value = entry.entries
            registry.counter(f"store.bytes.{kind}").value = entry.bytes
        payload["metrics"] = registry.to_dict()
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(f"store: {path}")
            for kind, entry in sorted(stats.kinds.items()):
                print(f"  {kind:10s} {entry.entries:6d} entries  "
                      f"{entry.bytes:10d} bytes")
            print(f"  {'total':10s} {stats.total_entries:6d} entries  "
                  f"{stats.total_bytes:10d} bytes")
            if stats.remote:
                rendered = "  ".join(f"{k}={v}"
                                     for k, v in stats.remote.items())
                print(f"  remote: {rendered}")
        return EXIT_OK
    if args.action == "gc":
        limit = args.max_bytes if args.max_bytes is not None \
            else DEFAULT_MAX_BYTES
        if limit < 0:
            print("repro: --max-bytes must be >= 0", file=sys.stderr)
            return EXIT_USAGE
        result = store.gc(limit)
        payload = {"store": str(path), **result.to_dict()}
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(f"store: {path}")
            print(f"  evicted {result.evicted_entries} entries "
                  f"({result.evicted_bytes} bytes), kept "
                  f"{result.kept_entries} entries "
                  f"({result.kept_bytes} bytes)")
        return EXIT_OK
    removed = store.clear()
    if args.format == "json":
        print(json.dumps({"store": str(path), "removed": removed}, indent=2))
    else:
        print(f"store: {path}")
        print(f"  removed {removed} entries")
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import summary as obs
    try:
        documents = [obs.load_trace(path) for path in args.files]
    except OSError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"repro: malformed trace: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.action == "validate":
        problems: List[str] = []
        for path, document in zip(args.files, documents):
            problems += [f"{path}: {p}" for p in
                         obs.validate_trace(document)]
            problems += [f"{path}: {p}" for p in
                         obs.check_nesting(document)]
        if args.format == "json":
            print(json.dumps({"ok": not problems, "problems": problems},
                             indent=2))
        elif problems:
            for problem in problems:
                print(problem)
        else:
            plural = "s" if len(documents) != 1 else ""
            print(f"{len(documents)} trace{plural} valid")
        return EXIT_OK if not problems else EXIT_UNSAFE
    if args.action == "merge":
        import pathlib
        merged = obs.merge_traces(documents)
        pathlib.Path(args.out).write_text(
            json.dumps(merged, indent=2) + "\n")
        note = {"out": args.out,
                "events": len(merged["traceEvents"]),
                "traces_merged": len(documents)}
        if args.format == "json":
            print(json.dumps(note, indent=2))
        else:
            print(f"merged {note['traces_merged']} trace(s), "
                  f"{note['events']} event(s), into {args.out}")
        return EXIT_OK
    document = documents[0] if len(documents) == 1 \
        else obs.merge_traces(documents)
    summary = obs.summarize(document)
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(obs.format_summary(summary))
    return EXIT_OK


def cmd_explain(args: argparse.Namespace) -> int:
    if args.code is None:
        width = max(len(code) for code in ERROR_CATALOG)
        for code, (summary, _detail) in sorted(ERROR_CATALOG.items()):
            print(f"{code:{width}s}  {summary}")
        return EXIT_OK
    entry = explain_code(args.code)
    if entry is None:
        print(f"repro: unknown diagnostic code {args.code!r} "
              f"(try `repro explain` for the full list)", file=sys.stderr)
        return EXIT_USAGE
    summary, detail = entry
    print(f"{args.code.upper()}: {summary}")
    print()
    print(detail)
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # legacy invocation: `python -m repro [flags] file.rsc ...` (the old CLI
    # also accepted flags before the file list)
    if argv and argv[0] not in SUBCOMMANDS and \
            argv[0] not in ("-h", "--help"):
        argv.insert(0, "check")
    args = build_parser().parse_args(argv)
    if args.command == "check":
        return cmd_check(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "watch":
        return cmd_watch(args)
    if args.command == "cache":
        return cmd_cache(args)
    if args.command == "trace":
        return cmd_trace(args)
    return cmd_explain(args)


if __name__ == "__main__":
    raise SystemExit(main())
