"""``wape watch``: continuous scanning at the edit loop.

The warm incremental path (:class:`repro.api.Scanner`) re-scans a dirty
include-closure in tens of milliseconds — this command finally points a
consumer at it.  A stdlib-only polling watcher stats the tree on an
interval, debounces bursts of writes (editors save twice, ``git
checkout`` touches hundreds of files), feeds the settled tree to one
warm scanner, and reports the *findings delta* — what an edit broke or
fixed — instead of re-printing the whole report every cycle.

The polling design is deliberate: inotify/kqueue need platform code or
third-party packages, while one ``os.stat`` per file per interval costs
microseconds per file.  The trigger is the scanner's own snapshot
function, :meth:`repro.api.Scanner.stat_signature`; a cycle's scan then
walks and stats the tree once more for itself.  The signature is only a
*trigger*: the scanner re-reads and re-hashes every file whose signature
changed, so a spurious mtime change costs one no-op warm scan, never a
wrong delta.

Every cycle appends a ``mode: "watch"`` record to the run ledger (so
``wape history`` can trend the edit loop separately from batch scans)
and, with ``--log``, emits ``watch_started``/``watch_cycle`` JSONL
events correlated by run id.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from dataclasses import dataclass

from repro.api import FindingsDelta, Scanner, ScanResult, diff_reports


@dataclass(frozen=True)
class WatchCycle:
    """One completed watch cycle: the filesystem changed, we rescanned.

    Attributes:
        cycle: 1-based cycle counter.
        delta: findings delta against the previous cycle's report (empty
            when the edit changed no finding — a comment, whitespace).
        result: the underlying :class:`~repro.api.ScanResult`, for the
            incremental facts (files re-analyzed, seconds).
    """

    cycle: int
    delta: FindingsDelta
    result: ScanResult


class Watcher:
    """Polls one root and turns settled edits into findings deltas.

    Drivable two ways: :meth:`run` is the CLI loop; :meth:`start` +
    :meth:`poll` are the steppable surface tests and embedders use (no
    sleeps hidden from the caller beyond debounce settling).

    Args:
        scanner: a warm :class:`~repro.api.Scanner` (its options decide
            jobs/caching for the cold first scan; the log of their
            telemetry receives the watch's structured events too).
        root: directory to watch.
        interval: seconds between stat passes in :meth:`run`.
        debounce: after a change is first seen, the tree must hold still
            this long before the rescan fires (edit bursts coalesce
            into one cycle).
        ledger: a :class:`repro.obs.RunLedger` receiving one ``watch``
            record per cycle, under the knowledge fingerprint the
            cycle's scan ran with; ``None`` disables ledger writes.
    """

    def __init__(self, scanner: Scanner, root: str, *,
                 interval: float = 0.5, debounce: float = 0.2,
                 ledger=None) -> None:
        import os

        self.scanner = scanner
        self.root = os.path.abspath(root)
        self.interval = interval
        self.debounce = debounce
        self.logger = scanner.options.resolve_telemetry().log
        self.ledger = ledger
        self.cycles = 0
        self._baseline: dict | None = None
        self._signature: dict | None = None

    # ------------------------------------------------------------------
    def start(self) -> ScanResult:
        """The initial (usually cold) scan establishing the baseline."""
        result = self.scanner.scan(self.root)
        self._baseline = result.to_dict()
        self._signature = self.scanner.stat_signature(self.root)
        summary = self._baseline["summary"]
        self.logger.info(
            "watch_started", root=self.root, files=summary["files"],
            candidates=summary["candidates"],
            real=summary["real_vulnerabilities"],
            incremental=result.incremental,
            seconds=round(result.seconds, 6))
        return result

    def poll(self, sleep=time.sleep) -> WatchCycle | None:
        """One watch step: detect, debounce, rescan, diff.

        Returns ``None`` when the tree is unchanged; otherwise waits for
        the tree to settle (two identical stat passes *debounce* apart),
        rescans against warm state, and returns the cycle.  *sleep* is
        injectable so tests drive debouncing without wall-clock waits.
        """
        if self._baseline is None:
            raise RuntimeError("Watcher.poll() before Watcher.start()")
        signature = self.scanner.stat_signature(self.root)
        if signature == self._signature:
            return None
        while True:  # debounce: wait out the write burst
            sleep(self.debounce)
            settled = self.scanner.stat_signature(self.root)
            if settled == signature:
                break
            signature = settled
        self._signature = signature

        result = self.scanner.scan(self.root)
        # one dict per cycle: the delta, the ledger, the next baseline
        data = result.to_dict()
        delta = diff_reports(data, self._baseline)
        self._baseline = data
        self.cycles += 1
        cycle = WatchCycle(self.cycles, delta, result)
        self.logger.info(
            "watch_cycle", cycle=cycle.cycle, root=self.root,
            new=len(delta.new), fixed=len(delta.fixed),
            unchanged=len(delta.unchanged),
            analyzed=result.analyzed_files, reused=result.reused_files,
            incremental=result.incremental,
            seconds=round(result.seconds, 6))
        self._record(cycle, data)
        return cycle

    def run(self, stop: threading.Event | None = None,
            max_cycles: int | None = None, on_cycle=None) -> int:
        """The watch loop: poll every ``interval`` until stopped.

        Stops when *stop* is set or after *max_cycles* completed cycles
        (``None`` runs forever); *on_cycle* is called with each
        :class:`WatchCycle`.  Returns the number of cycles run.
        """
        stop = stop if stop is not None else threading.Event()
        while not stop.is_set():
            cycle = self.poll()
            if cycle is not None:
                if on_cycle is not None:
                    on_cycle(cycle)
                if max_cycles is not None and self.cycles >= max_cycles:
                    break
            stop.wait(self.interval)
        return self.cycles

    # ------------------------------------------------------------------
    def _record(self, cycle: WatchCycle, data: dict) -> None:
        if self.ledger is None:
            return
        from repro.obs import build_record, new_run_id

        record = build_record(
            cycle.result.report, data, run_id=new_run_id(),
            fingerprint=cycle.result.fingerprint,
            jobs=1,  # warm re-scans always run in-process
            seconds=cycle.result.seconds, target=self.root,
            mode="watch")
        record["watch"] = {
            "cycle": cycle.cycle,
            "new": len(cycle.delta.new),
            "fixed": len(cycle.delta.fixed),
            "unchanged": len(cycle.delta.unchanged),
            "analyzed_files": cycle.result.analyzed_files,
            "reused_files": cycle.result.reused_files,
        }
        self.ledger.append(record)
        self.logger.debug("ledger_appended", path=self.ledger.path,
                          cycle=cycle.cycle)


# ---------------------------------------------------------------------------
# the CLI command
# ---------------------------------------------------------------------------

def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wape watch",
        description="continuously scan ROOT: poll for edits, re-analyze "
                    "only the dirty include-closure against warm state, "
                    "and print findings deltas (new/fixed) per edit",
    )
    parser.add_argument("root", help="PHP project directory to watch")
    parser.add_argument("--interval", type=float, default=0.5,
                        metavar="SECONDS",
                        help="seconds between filesystem polls "
                             "(default: 0.5)")
    parser.add_argument("--debounce", type=float, default=0.2,
                        metavar="SECONDS",
                        help="quiet time required after a change before "
                             "rescanning (default: 0.2)")
    parser.add_argument("--max-cycles", type=int, default=None,
                        metavar="N",
                        help="exit after N change cycles (default: run "
                             "until interrupted)")
    parser.add_argument("--original", action="store_true",
                        help="watch with the original WAP v2.1")
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
                        help="load the vulnerability-class knowledge "
                             "base from DIR")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for the cold first scan "
                             "(warm cycles always run in-process; "
                             "default: 1)")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="share the on-disk result cache with batch "
                             "scans (default: ~/.cache/wape)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk caches entirely")
    parser.add_argument("--no-includes", action="store_true",
                        help="disable static include/require resolution")
    parser.add_argument("--json", action="store_true",
                        help="emit one JSON line per event "
                             "(watch_started, watch_cycle with the full "
                             "delta) instead of text")
    parser.add_argument("--log", metavar="FILE", default=None,
                        help="append structured JSONL events (run id, "
                             "cycle records) to FILE")
    parser.add_argument("--log-level", default="info",
                        choices=("debug", "info", "warning", "error"),
                        help="minimum level recorded by --log "
                             "(default: info)")
    parser.add_argument("--ledger", metavar="FILE", default=None,
                        help="append one record per watch cycle to FILE "
                             "(default: ledger.jsonl under the cache "
                             "dir)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not record watch cycles in the ledger")
    return parser


def main(argv: list[str] | None = None) -> int:
    import os

    from repro.exceptions import ReproError
    from repro.tool.cli import build_tool, resolve_weapons

    argv = list(sys.argv[1:] if argv is None else argv)
    registry, weapon_flags, rest = resolve_weapons(argv)
    args = build_arg_parser().parse_args(rest)
    if not os.path.isdir(args.root):
        print(f"error: not a directory: {args.root}", file=sys.stderr)
        return 2
    try:
        tool = build_tool(args, weapon_flags, registry)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from repro.analysis.options import ScanOptions
    from repro.cache import cache_dir_of
    from repro.obs import NULL_LOG, JsonlLogger, RunLedger, \
        default_ledger_path, new_run_id
    from repro.telemetry import Telemetry

    cache_dir = cache_dir_of(args)
    telemetry = Telemetry(
        False, log=JsonlLogger(path=args.log, level=args.log_level)
        if args.log else NULL_LOG,
        run_id=new_run_id().replace("run-", "watch-", 1))
    run_id = telemetry.run_id
    ledger = None
    if not args.no_ledger:
        if args.ledger:
            ledger = RunLedger(args.ledger)
        elif cache_dir:
            ledger = RunLedger(default_ledger_path(cache_dir))

    scanner = Scanner(tool, ScanOptions(
        jobs=args.jobs, cache_dir=cache_dir,
        includes=not args.no_includes, telemetry=telemetry))
    watcher = Watcher(scanner, args.root, interval=args.interval,
                      debounce=args.debounce, ledger=ledger)

    first = watcher.start()
    summary = first.report
    if args.json:
        print(json.dumps({
            "event": "watch_started", "root": watcher.root,
            "run_id": run_id, "files": summary.total_files,
            "candidates": len(summary.outcomes),
            "real": len(summary.real_vulnerabilities),
            "seconds": round(first.seconds, 6)}, sort_keys=True),
            flush=True)
    else:
        print(f"wape watch: {summary.total_files} files, "
              f"{len(summary.outcomes)} findings "
              f"({len(summary.real_vulnerabilities)} real) under "
              f"{watcher.root}", flush=True)
        print(f"wape watch: polling every {args.interval:g}s "
              f"(debounce {args.debounce:g}s); Ctrl-C to stop",
              flush=True)

    def on_cycle(cycle: WatchCycle) -> None:
        if args.json:
            print(json.dumps({
                "event": "watch_cycle", "cycle": cycle.cycle,
                "run_id": run_id,
                "analyzed_files": cycle.result.analyzed_files,
                "reused_files": cycle.result.reused_files,
                "seconds": round(cycle.result.seconds, 6),
                "delta": cycle.delta.to_dict()}, sort_keys=True),
                flush=True)
            return
        print(f"[cycle {cycle.cycle}] {cycle.delta.summary_line()} "
              f"({cycle.result.analyzed_files} files re-analyzed in "
              f"{cycle.result.seconds:.3f}s)", flush=True)
        if cycle.delta.changed:
            print(cycle.delta.render_text(), flush=True)

    try:
        watcher.run(max_cycles=args.max_cycles, on_cycle=on_cycle)
    except KeyboardInterrupt:
        if not args.json:
            print(f"wape watch: stopped after {watcher.cycles} "
                  f"cycle(s)", flush=True)
    finally:
        telemetry.log.close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
