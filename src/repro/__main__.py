"""Command-line interface: ``python -m repro <subcommand> ...``.

Subcommands:

* ``check FILES...`` — check nanoTS source files (the classic mode); exits
  non-zero if any file fails to verify.  ``--format json`` emits structured
  diagnostics with stable error codes; ``--jobs N`` checks a file list in
  parallel.  ``check DIR`` checks a project directory as a module graph.
* ``bench [FAMILY ...]`` — regenerate the paper's evaluation tables and
  the other bench families (edit replay, engine comparisons, serve load,
  tracing overhead) into one ``bench-report.json``.
* ``serve`` — the ``repro-serve/3`` check service: newline-delimited JSON
  requests over stdin/stdout, or with ``--tcp`` over a socket.
* ``watch FILES...`` — re-check files on mtime change, printing per-edit
  timing deltas.
* ``cache stats|gc|clear`` — inspect and maintain the persistent artifact
  store (``--store PATH``, the ``REPRO_STORE`` environment variable, or
  the XDG default ``~/.cache/repro/store``).
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
                       help="check a file list with N parallel worker "
                            "processes; unset defers to the config's jobs "
                            "setting (a project directory is checked "
                            "sequentially and rejects --jobs)")
    check.add_argument("--show-kappas", action="store_true",
                       help="print the refinements inferred by liquid fixpoint")
    check.add_argument("--quiet", action="store_true",
                       help="only print the per-file verdict")
    check.add_argument("--warnings-as-errors", action="store_true",
                       help="treat warnings as errors in the verdict")
    _max_iterations_flag(check)
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
        "bench", help="regenerate the paper's evaluation tables and the "
                      "bench report CI gates against benchmarks/baseline.json")
    bench.add_argument("families", nargs="*", metavar="FAMILY",
                       help="families to run, in order (default: all of "
                            "figure6 figure7 incremental modules smt store "
                            "serve obs)")
    bench.add_argument("--only", metavar="NAME", action="append",
                       help="restrict every family to the named benchmark "
                            "port(s)")
    bench.add_argument("--out", metavar="FILE", default="bench-report.json",
                       help="where to write the report (default: "
                            "bench-report.json)")

    serve = sub.add_parser(
        "serve", help="multi-tenant check service (repro-serve/3): NDJSON "
                      "over stdin/stdout, or with --tcp the asyncio socket "
                      "server")
    serve.add_argument("--tcp", action="store_true",
                       help="serve over TCP instead of stdin/stdout")
    serve.add_argument("--host", default=None, metavar="HOST",
                       help="TCP bind address (default: 127.0.0.1; "
                            "needs --tcp)")
    serve.add_argument("--port", type=int, default=None, metavar="PORT",
                       help="TCP port (default: 0 = ephemeral; the bound "
                            "port is printed as a JSON line on startup; "
                            "needs --tcp)")
    serve.add_argument("--tenants", type=int, default=None, metavar="N",
                       help="max tenant workspaces kept alive before LRU "
                            "eviction (default: 8)")
    serve.add_argument("--queue-limit", type=int, default=None, metavar="N",
                       help="per-tenant pending-request bound; above it "
                            "requests get a backpressure error "
                            "(default: 16; needs --tcp)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="checker thread pool size (default: 4; "
                            "needs --tcp)")
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
        "cache", help="inspect and maintain the persistent artifact store")
    cache.add_argument("action", choices=("stats", "gc", "clear"),
                       help="stats: entry counts and bytes per artifact "
                            "kind; gc: evict oldest entries down to "
                            "--max-bytes; clear: delete every entry")
    cache.add_argument("--store", metavar="PATH", default=None,
                       help="store directory (default: $REPRO_STORE, then "
                            "the XDG cache path ~/.cache/repro/store)")
    cache.add_argument("--max-bytes", type=int, default=None, metavar="N",
                       help="gc: target size in bytes (default: 256 MiB)")
    cache.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format (default: text)")

    trace = sub.add_parser(
        "trace", help="summarize, merge and validate exported Chrome "
                      "trace-event files (from `repro check --trace` or "
                      "the REPRO_TRACE environment variable)")
    trace.add_argument("action", choices=("summarize", "merge", "validate"),
                       help="summarize: per-subsystem / per-stage / "
                            "per-module / per-tenant breakdown tables; "
                            "merge: combine several per-process traces "
                            "(per-pid REPRO_TRACE dumps) into one; "
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


def _max_iterations_flag(parser: argparse.ArgumentParser) -> None:
    default = CheckConfig.max_fixpoint_iterations
    parser.add_argument("--max-iterations", type=int, default=default,
                        metavar="N",
                        help="liquid fixpoint iteration budget "
                             f"(default: {default})")


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
    _max_iterations_flag(parser)
    parser.add_argument("--warnings-as-errors", action="store_true",
                        help="treat warnings as errors in the verdict")
    _store_flags(parser)


def _workspace_config(args: argparse.Namespace) -> CheckConfig:
    return CheckConfig(
        max_fixpoint_iterations=args.max_iterations,
        warnings_as_errors=args.warnings_as_errors,
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
            store_path=_store_path(args),
            store_mode=args.store_mode,
        )
        # An unset --jobs defers to CheckConfig.jobs instead of silently
        # overriding the config with argparse's former default of 1; a
        # non-positive one is CheckConfig's usage error.
        if args.jobs is not None:
            config_kwargs["jobs"] = args.jobs
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
    directories = [f for f in args.files if pathlib.Path(f).is_dir()]
    if directories and len(args.files) != 1:
        print("repro: a project directory must be the only check "
              "argument", file=sys.stderr)
        return EXIT_USAGE
    if directories and args.jobs is not None:
        print("repro: --jobs applies to a file list; a project "
              "directory is checked sequentially", file=sys.stderr)
        return EXIT_USAGE
    if config.obs.trace_path:
        from repro.obs.trace import tracer
        tracer().enable(slow_limit=config.obs.slow_query_limit)
    if directories:
        code = _check_project_dir(directories[0], config, args)
        _export_trace(config)
        return code
    session = Session(config)
    batch = session.check_files(args.files)

    if args.format == "json":
        payload = batch.to_dict()
        if session.store is not None:
            payload["store"] = session.store.counters()
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


def _check_project_dir(root: str, config: CheckConfig,
                       args: argparse.Namespace) -> int:
    """``repro check <dir>``: check the directory as a module graph.

    The JSON ``"store"`` block is the project workspace's store traffic
    (how a re-check proves it ran warm)."""
    from repro.project import ProjectWorkspace
    workspace = ProjectWorkspace(root=root, config=config)
    project = workspace.check()
    store = workspace.workspace.store
    if args.format == "json":
        payload = project.to_dict()
        if store is not None:
            payload["store"] = store.counters()
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
    if not args.tcp:
        for flag in ("host", "port", "queue_limit", "workers"):
            if getattr(args, flag) is not None:
                print(f"repro: --{flag.replace('_', '-')} needs --tcp",
                      file=sys.stderr)
                return EXIT_USAGE
    try:
        config = _workspace_config(args)
        service_changes = {
            key: value for key, value in (
                ("max_tenants", args.tenants),
                ("queue_limit", args.queue_limit),
                ("workers", args.workers),
            ) if value is not None}
        if service_changes:
            from repro.node import replace
            config = config.with_options(
                service=replace(config.service, **service_changes))
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.tcp:
        from repro.service.server import run_server
        return run_server(config, host=args.host or "127.0.0.1",
                          port=args.port or 0)
    from repro.service.server import serve
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
    import pathlib
    from repro import bench
    families = args.families or list(bench.FAMILIES)
    unknown = ([f for f in families if f not in bench.FAMILIES]
               + [n for n in args.only or [] if n not in bench.BENCHMARKS])
    if unknown:
        print(f"repro: unknown bench family or benchmark(s): "
              f"{', '.join(unknown)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = bench.run(families, args.only)
    except FileNotFoundError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    pathlib.Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(bench.render(report))
    print(f"\nreport written to {args.out}")
    failures = bench.gate(report)
    for failure in failures:
        print(f"repro: {failure}", file=sys.stderr)
    return EXIT_UNSAFE if failures else EXIT_OK


def cmd_cache(args: argparse.Namespace) -> int:
    import os
    from repro.store import (ArtifactStore, LocalStoreBackend,
                             default_store_path)
    path = (args.store or os.environ.get("REPRO_STORE")
            or default_store_path())
    try:
        store = ArtifactStore(LocalStoreBackend(path))
    except ValueError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _cache_admin(args, store, path)


def _cache_admin(args: argparse.Namespace, store, path: str) -> int:
    from repro.store import DEFAULT_MAX_BYTES
    if args.action == "stats":
        stats = store.stats()
        payload = {"store": str(path), **stats.to_dict()}
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(f"store: {path}")
            for kind, entry in sorted(stats.kinds.items()):
                print(f"  {kind:10s} {entry.entries:6d} entries  "
                      f"{entry.bytes:10d} bytes")
            print(f"  {'total':10s} {stats.total_entries:6d} entries  "
                  f"{stats.total_bytes:10d} bytes")
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
