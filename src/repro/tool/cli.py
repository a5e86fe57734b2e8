"""``wape scan``: the analysis (and correction) command.

Mirrors the paper's usage: weapons are activated with single-dash flags
named after the weapon (``-nosqli``, ``-hei``, ``-wpsqli``, or any weapon
bundle loaded with ``--weapon-dir``).

Examples::

    wape scan app/                       # analyze a tree, 12 classes
    wape scan -wpsqli -hei plugin/       # arm two weapons as well
    wape scan --original app/            # emulate WAP v2.1
    wape scan --fix vulnerable.php       # write corrected source
    wape scan --sanitizer sqli:escape app/  # custom sanitizer (§V-A)

:func:`main` here is the ``scan`` subcommand implementation; the ``wape``
executable itself dispatches through :mod:`repro.tool.main`.  The
historical flag-style invocation (``wape [flags]``) was removed after
its deprecation cycle and now fails fast naming the subcommand.
"""

from __future__ import annotations

import argparse
import sys

from repro.exceptions import ReproError
from repro.mining.extraction import DynamicSymptoms
from repro.tool.wap import Wap21, Wape
from repro.weapons import WeaponRegistry, load_weapon


def parse_jobs(value: str):
    """``--jobs`` argument: the literal ``auto`` or a worker count."""
    if value.strip().lower() == "auto":
        return "auto"
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or an integer, got {value!r}")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wape scan",
        description="WAPe - modular, extensible detection (and correction)"
                    " of input validation vulnerabilities in PHP code",
    )
    parser.add_argument("targets", nargs="*",
                        help="PHP files or directories to analyze")
    parser.add_argument("--original", action="store_true",
                        help="emulate the original WAP v2.1 "
                             "(8 classes, 16 attributes)")
    parser.add_argument("--fix", action="store_true",
                        help="correct the real vulnerabilities "
                             "(writes <file>.fixed.php)")
    parser.add_argument("--in-place", action="store_true",
                        help="with --fix: overwrite the original files")
    parser.add_argument("--weapon-dir", action="append", default=[],
                        metavar="DIR",
                        help="load a weapon bundle directory "
                             "(may be repeated)")
    parser.add_argument("--sanitizer", action="append", default=[],
                        metavar="CLASS:FUNC",
                        help="treat FUNC as a sanitization function for "
                             "CLASS (e.g. sqli:escape)")
    parser.add_argument("--symptom", action="append", default=[],
                        metavar="FUNC:STATIC",
                        help="dynamic symptom: user FUNC behaves like "
                             "static symptom STATIC (e.g. val_int:is_int)")
    parser.add_argument("--export-kb", metavar="DIR",
                        help="export the tool's ep/ss/san knowledge base "
                             "as editable text files and exit")
    parser.add_argument("--kb", metavar="DIR",
                        help="load the vulnerability-class knowledge base "
                             "from DIR instead of the builtin catalogs")
    parser.add_argument("--project", action="store_true",
                        help="whole-project analysis: also link each "
                             "file to the files declaring the functions "
                             "it calls, so calls into files nothing "
                             "includes resolve (parses every file)")
    parser.add_argument("--jobs", "-j", type=parse_jobs, default="auto",
                        metavar="N",
                        help="analysis worker processes for directory "
                             "targets: 'auto' (the default) caps at the "
                             "machine's CPU count — oversubscribing a "
                             "small box slows scans; an explicit N is "
                             "honored as-is (1 = in-process)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="on-disk result cache location (default: "
                             "~/.cache/wape); unchanged files are served "
                             "from cache")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache entirely")
    parser.add_argument("--no-ast-cache", action="store_true",
                        help="disable the on-disk AST cache tier (parsed "
                             "syntax trees kept next to the result cache)")
    parser.add_argument("--no-summary-cache", action="store_true",
                        help="disable the on-disk function-summary tier "
                             "(per-file taint summaries composed across "
                             "include closures)")
    parser.add_argument("--no-includes", action="store_true",
                        help="disable static include/require resolution "
                             "(each file is analyzed in isolation)")
    parser.add_argument("--no-prefilter", action="store_true",
                        help="disable the knowledge-compiled relevance "
                             "prefilter (analyze every file, even ones "
                             "whose include closure mentions no sink or "
                             "source from any catalog)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON instead of text")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="diff the findings against a committed "
                             "report (any schema version) and print the "
                             "delta; with --json the report gains a "
                             "'delta' block")
    parser.add_argument("--fail-on-new", action="store_true",
                        help="with --baseline: exit non-zero only when "
                             "the scan has NEW real findings (fingerprints "
                             "absent from the baseline) — the CI gate")
    parser.add_argument("--sarif-out", metavar="FILE", default=None,
                        help="also write the report as SARIF 2.1.0 to "
                             "FILE (code-review tooling ingestion)")
    parser.add_argument("--justify", action="store_true",
                        help="explain each predicted false positive "
                             "(symptoms, categories, classifier votes)")
    parser.add_argument("--show-paths", action="store_true",
                        help="print the full data-flow path of each "
                             "candidate")
    parser.add_argument("--quiet", action="store_true",
                        help="print only the summary lines")
    parser.add_argument("--stats", action="store_true",
                        help="print a scan-statistics footer: phase-time "
                             "breakdown, slowest files, cache and worker "
                             "health")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write the full span trace (nested phase "
                             "timings, worker chunks) as JSON to FILE")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write pipeline metrics in Prometheus text "
                             "exposition format to FILE")
    parser.add_argument("--log", metavar="FILE", default=None,
                        help="append structured JSONL log events (run id, "
                             "worker segments, crash/retry records) to "
                             "FILE")
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error"),
                        help="minimum level recorded by --log "
                             "(default: info)")
    parser.add_argument("--ledger", metavar="FILE", default=None,
                        help="append one run record per directory scan to "
                             "FILE (default: ledger.jsonl under the cache "
                             "dir); inspect with `wape history`")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not append this scan to the run ledger")
    parser.add_argument("--profile", action="store_true",
                        help="profile the scan: sampled folded stacks "
                             "(flamegraph-compatible), a hot-function "
                             "table and the IR per-opcode histogram "
                             "(implies telemetry)")
    parser.add_argument("--profile-out", metavar="FILE",
                        default="wape-profile.folded",
                        help="folded-stack output path for --profile "
                             "(default: wape-profile.folded)")
    return parser


def split_weapon_flags(argv: list[str],
                       registry: WeaponRegistry) -> tuple[list[str],
                                                          list[str]]:
    """Separate weapon activation flags (``-nosqli``) from normal args."""
    weapon_flags: list[str] = []
    rest: list[str] = []
    for arg in argv:
        if arg.startswith("-") and not arg.startswith("--") \
                and arg in registry:
            weapon_flags.append(arg)
        else:
            rest.append(arg)
    return weapon_flags, rest


def _parse_extra_sanitizers(pairs: list[str]) -> dict[str, set[str]]:
    out: dict[str, set[str]] = {}
    for pair in pairs:
        class_id, _, func = pair.partition(":")
        if not class_id or not func:
            raise SystemExit(f"--sanitizer expects CLASS:FUNC, got {pair!r}")
        out.setdefault(class_id, set()).add(func)
    return out


def _parse_dynamic(pairs: list[str]) -> DynamicSymptoms:
    mapping: dict[str, str] = {}
    for pair in pairs:
        func, _, static = pair.partition(":")
        if not func or not static:
            raise SystemExit(f"--symptom expects FUNC:STATIC, got {pair!r}")
        mapping[func] = static
    return DynamicSymptoms(mapping=mapping)


def resolve_weapons(argv: list[str]
                    ) -> tuple[WeaponRegistry, list[str], list[str]]:
    """The shared weapon preamble of every tool-building command.

    Loads ``--weapon-dir`` bundles (they must resolve before flag
    splitting so their activation flags are recognized), then separates
    weapon flags from ordinary arguments.  Returns ``(registry,
    weapon_flags, rest)``.
    """
    registry = WeaponRegistry.with_builtins()
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--weapon-dir", action="append", default=[])
    pre_args, _ = pre.parse_known_args(argv)
    for directory in pre_args.weapon_dir:
        registry.register(load_weapon(directory))
    weapon_flags, rest = split_weapon_flags(argv, registry)
    return registry, weapon_flags, rest


def build_tool(args: argparse.Namespace, weapon_flags: list[str],
               registry: WeaponRegistry) -> Wap21 | Wape:
    """Construct the tool facade from parsed common options.

    Understands the options every command shares (``--sanitizer``,
    ``--symptom``) plus, when present on *args*, ``--original`` and
    ``--kb``.  Raises :class:`ReproError` exactly like the facades do;
    callers turn that into exit code 2.
    """
    if getattr(args, "original", False):
        if weapon_flags:
            raise SystemExit(
                "weapons require the new version (drop --original)")
        return Wap21()
    kb_registry = None
    if getattr(args, "kb", None):
        from repro.analysis import load_registry
        kb_registry = load_registry(args.kb)
    return Wape(
        weapon_flags=weapon_flags,
        weapon_registry=registry,
        extra_sanitizers=_parse_extra_sanitizers(args.sanitizer),
        dynamic_symptoms=_parse_dynamic(args.symptom),
        class_registry=kb_registry,
    )


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)

    registry, weapon_flags, rest = resolve_weapons(argv)
    args = build_arg_parser().parse_args(rest)

    if args.export_kb:
        from repro.analysis import save_registry
        from repro.vulnerabilities import wape_registry
        save_registry(wape_registry(include_weapons=False),
                      args.export_kb)
        print(f"knowledge base exported to {args.export_kb}")
        return 0
    if not args.targets:
        print("error: no targets given", file=sys.stderr)
        return 2
    if args.fail_on_new and not args.baseline:
        print("error: --fail-on-new requires --baseline", file=sys.stderr)
        return 2
    if args.project and (args.original or args.no_includes):
        print("error: --project requires the new version with include "
              "resolution (drop --original/--no-includes)",
              file=sys.stderr)
        return 2
    if (args.baseline or args.sarif_out) and len(args.targets) != 1:
        print("error: --baseline/--sarif-out apply to exactly one "
              "target", file=sys.stderr)
        return 2
    baseline_data = None
    if args.baseline:
        from repro.exceptions import ReportSchemaError
        from repro.tool.report import load_report_dict
        try:
            with open(args.baseline, encoding="utf-8") as f:
                baseline_data = load_report_dict(f.read())
        except OSError as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        except ReportSchemaError as exc:
            print(f"error: bad baseline report {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2

    try:
        tool = build_tool(args, weapon_flags, registry)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from repro.telemetry import NULL_TELEMETRY, Telemetry
    # --profile needs telemetry: the opcode histogram travels as counters
    # and the sampler prefixes samples with the live tracer phase
    telemetry = Telemetry() if (args.stats or args.trace_out
                                or args.metrics_out
                                or args.profile) else NULL_TELEMETRY

    import os
    import time
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir:
        cache_dir = args.cache_dir
    else:
        cache_dir = os.path.join(
            os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"),
            "wape")

    from repro.obs import (
        NULL_LOG,
        JsonlLogger,
        RunLedger,
        SamplingProfiler,
        build_record,
        default_ledger_path,
        new_run_id,
        opcode_table,
        render_top_functions,
    )
    run_id = new_run_id()
    log = JsonlLogger(path=args.log, level=args.log_level,
                      run_id=run_id) if args.log else NULL_LOG
    ledger = None
    if not args.no_ledger:
        if args.ledger:
            ledger = RunLedger(args.ledger)
        elif cache_dir:
            ledger = RunLedger(default_ledger_path(cache_dir))
    profiler = None
    if args.profile:
        profiler = SamplingProfiler(tracer=telemetry.tracer)
        profiler.start()

    exit_code = 0
    new_real_findings = 0
    for target in args.targets:
        if os.path.isdir(target):
            from repro.analysis.options import ScanOptions
            opts = ScanOptions(
                jobs=args.jobs, cache_dir=cache_dir,
                telemetry=telemetry,
                includes=not args.no_includes,
                project=args.project,
                ast_cache=not args.no_ast_cache,
                summary_cache=not args.no_summary_cache,
                prefilter=not args.no_prefilter,
                profile=args.profile, log=log, run_id=run_id)
            started = time.perf_counter()
            report = tool.analyze_tree(target, opts)
            if ledger is not None:
                from repro.analysis.pipeline import config_fingerprint
                # project-mode runs never share a history baseline with
                # batch runs: the call edges change what gets analyzed
                record = build_record(
                    report, run_id=run_id,
                    fingerprint=config_fingerprint(
                        tool._config_groups(), tool.version,
                        project=args.project),
                    jobs=opts.resolved_jobs(),
                    seconds=time.perf_counter() - started,
                    target=os.path.abspath(target),
                    mode="project" if args.project else "batch")
                ledger.append(record)
                log.info("ledger_appended", path=ledger.path,
                         digest=record["findings"]["digest"][:12])
        else:
            report = tool.analyze_file(target, telemetry=telemetry)
        delta = None
        data = None
        if args.baseline or args.sarif_out or args.json:
            data = report.to_dict()
        if baseline_data is not None:
            from repro.api.delta import diff_reports
            delta = diff_reports(data, baseline_data)
            new_real_findings += len(delta.new_real)
            if args.json:
                data["delta"] = delta.to_dict()
        if args.sarif_out:
            from repro.tool.sarif import write_sarif
            write_sarif(args.sarif_out, data)
        if args.json:
            import json
            print(json.dumps(data, indent=2))
        elif args.quiet:
            print(report.summary_line())
        else:
            print(report.render_text(show_paths=args.show_paths))
        if delta is not None and not args.json:
            print(delta.render_text())
        if args.stats and not args.json:
            footer = report.render_stats()
            if footer:
                print(footer)
        if args.justify and not args.json:
            from repro.mining import justify
            for outcome in report.predicted_false_positives:
                print()
                print(justify(outcome.candidate,
                              outcome.prediction).render())
        if report.real_vulnerabilities:
            exit_code = 1
        if args.fix:
            for file_report in report.files:
                if not file_report.is_vulnerable:
                    continue
                real = [o.candidate for o in file_report.real]
                output = (file_report.filename if args.in_place else
                          file_report.filename + ".fixed.php")
                result = tool.corrector.correct_file(
                    file_report.filename, real, output)
                if result.changed:
                    print(f"fixed {len(result.applied)} "
                          f"vulnerabilities -> {output}")
    if args.fail_on_new:
        # CI-gate semantics: pre-existing (baselined) findings do not
        # fail the build — only new-fingerprint real findings do
        exit_code = 1 if new_real_findings else 0
    if profiler is not None:
        profiler.stop()
        profiler.write_folded(args.profile_out)
        if not args.json:
            print()
            print(f"profile: {profiler.total_samples} samples "
                  f"-> {args.profile_out}")
            print(render_top_functions(profiler.samples))
            counters = {name: counter.value for name, counter
                        in telemetry.metrics.counters.items()}
            print()
            print("IR opcode histogram (control-flow opcodes are "
                  "cumulative; see docs/ir.md):")
            print(opcode_table(counters))
    if args.trace_out:
        from repro.telemetry import write_trace
        write_trace(args.trace_out, telemetry.tracer,
                    tool=tool.version, target=" ".join(args.targets))
    if args.metrics_out:
        from repro.telemetry import write_metrics
        write_metrics(args.metrics_out, telemetry.metrics)
    log.close()
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    print("note: `python -m repro.tool.cli` is deprecated; "
          "use `wape scan` (or `python -m repro scan`)", file=sys.stderr)
    sys.exit(main())
