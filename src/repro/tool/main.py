"""``wape``: the single consolidated entry point.

One executable, seven subcommands::

    wape scan [flags] TARGET...     analyze (and optionally fix) PHP code
    wape explain [flags] TARGET...  full decision trace per candidate
    wape watch [flags] ROOT         continuous scanning: findings deltas
    wape serve [flags]              long-running scan daemon (local HTTP)
    wape bench [flags] TARGET       cold vs warm vs incremental timings
    wape history [flags]            scan-ledger trends + regression gate
    wape top [flags]                live status view of a running daemon

The historical flag-style invocation (``wape --quiet app/``) and the
separate ``wape-explain`` executable were removed after their
deprecation cycle: unknown first arguments now fail fast with a message
pointing at the matching subcommand.
"""

from __future__ import annotations

import argparse
import sys

_USAGE = """\
usage: wape <command> [options]

commands:
  scan      analyze PHP files/trees for vulnerabilities (and --fix them)
  explain   print the full decision trace behind each candidate
  watch     poll a tree for edits and print findings deltas (new/fixed)
  serve     run the warm scan daemon (answers scans over local HTTP)
  bench     measure cold vs warm vs incremental scan times on a target
  history   render run-ledger trends and gate on regressions (--check)
  top       poll a running daemon's /v1/status in the terminal

run `wape <command> --help` for command options.
"""

COMMANDS = ("scan", "explain", "watch", "serve", "bench", "history",
            "top")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0 if argv else 2
    if argv[0] == "--version":
        from repro.tool.wap import Wape
        print(f"wape ({Wape.version})")
        return 0
    command, rest = argv[0], argv[1:]
    if command not in COMMANDS:
        # the historical flag-style invocation (`wape [flags] targets`)
        # was removed after its deprecation cycle: fail fast and name
        # the replacement instead of guessing at intent
        print(f"error: unknown command {command!r}; flag-style "
              f"`wape [flags]` was removed — use `wape scan [flags]` "
              f"(run `wape --help` for all commands)", file=sys.stderr)
        return 2
    if command == "scan":
        from repro.tool.cli import main as scan_main
        return scan_main(rest)
    if command == "explain":
        from repro.tool.explain import main as explain_main
        return explain_main(rest)
    if command == "watch":
        from repro.tool.watch import main as watch_main
        return watch_main(rest)
    if command == "serve":
        return serve_main(rest)
    if command == "history":
        from repro.tool.history import main as history_main
        return history_main(rest)
    if command == "top":
        from repro.tool.top import main as top_main
        return top_main(rest)
    from repro.tool.bench import main as bench_main
    return bench_main(rest)


# ---------------------------------------------------------------------------
# wape serve
# ---------------------------------------------------------------------------

def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wape serve",
        description="long-running scan daemon: the tool is built (and the "
                    "false-positive predictor trained) once, parsed state "
                    "stays warm, and repeat scans of an edited project "
                    "re-analyze only the dirty include-closure",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8711,
                        help="listen port; 0 picks an ephemeral port "
                             "(default: 8711)")
    parser.add_argument("--original", action="store_true",
                        help="serve the original WAP v2.1 instead of WAPe")
    parser.add_argument("--weapon-dir", action="append", default=[],
                        metavar="DIR",
                        help="load a weapon bundle directory "
                             "(may be repeated)")
    parser.add_argument("--sanitizer", action="append", default=[],
                        metavar="CLASS:FUNC",
                        help="treat FUNC as a sanitization function for "
                             "CLASS")
    parser.add_argument("--symptom", action="append", default=[],
                        metavar="FUNC:STATIC",
                        help="dynamic symptom: FUNC behaves like STATIC")
    parser.add_argument("--kb", metavar="DIR",
                        help="load the vulnerability-class knowledge base "
                             "from DIR")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for COLD scans (warm "
                             "re-scans always run in-process; default: 1)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="share an on-disk result cache with batch "
                             "`wape scan` runs")
    parser.add_argument("--no-includes", action="store_true",
                        help="disable static include/require resolution")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="warm scanner workers; 1 scans on a thread "
                             "in the daemon, >1 forks N worker processes "
                             "with sticky per-root routing and crash "
                             "supervision (default: 1)")
    parser.add_argument("--memory-budget-mb", type=float, default=None,
                        metavar="MB",
                        help="per-worker warm-state budget; least-"
                             "recently-scanned roots are evicted past "
                             "it (default: unlimited)")
    parser.add_argument("--max-queue", type=int, default=8, metavar="N",
                        help="queued+running scans per worker before "
                             "requests routed to it get 503 (default: 8)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        metavar="SECONDS",
                        help="default per-request scan timeout "
                             "(default: 300)")
    parser.add_argument("--quiet", action="store_true",
                        help="no per-request log lines")
    parser.add_argument("--log", metavar="FILE", default=None,
                        help="append structured JSONL events (request "
                             "ids, scan outcomes, pipeline events) to "
                             "FILE")
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error"),
                        help="minimum level recorded by --log "
                             "(default: info)")
    return parser


def serve_main(argv: list[str]) -> int:
    from repro.exceptions import ReproError
    from repro.tool.cli import build_tool, resolve_weapons

    registry, weapon_flags, rest = resolve_weapons(argv)
    args = build_serve_parser().parse_args(rest)
    try:
        tool = build_tool(args, weapon_flags, registry)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from repro.analysis.options import ScanOptions
    from repro.service import ScanService

    options = ScanOptions(jobs=args.jobs, cache_dir=args.cache_dir,
                          includes=not args.no_includes)
    log = None if args.quiet else \
        (lambda message: print(message, file=sys.stderr, flush=True))
    logger = None
    if args.log:
        from repro.obs import JsonlLogger
        logger = JsonlLogger(path=args.log, level=args.log_level)
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    try:
        service = ScanService(
            tool, options, host=args.host, port=args.port,
            workers=args.workers, max_queue=args.max_queue,
            request_timeout=args.timeout,
            memory_budget_mb=args.memory_budget_mb,
            log=log, logger=logger)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    # the one line tooling is allowed to parse: the actual address
    print(f"wape serve: listening on {service.address}", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        service.shutdown()
        service.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
