"""``make bench-check``: the observability regression gate.

Exercises the whole scan observatory end to end on the in-repo demo app
and fails (exit 1) when any piece of it breaks:

1. three CLI scans (cold + two warm) append run records to
   ``.bench/ledger.jsonl``; the cold scan also runs under ``--profile``
   and writes ``.bench/profile.folded``;
2. every run of the same tree under the same config must produce a
   byte-identical findings digest (determinism gate), and each ledger
   record must carry a non-zero prefilter skip rate;
2b. the relevance prefilter must be findings-preserving: an in-process
   ``--no-prefilter`` scan of the same tree must produce the identical
   findings digest (conservatism gate) — run outside the ledger so the
   off-run never pollutes the comparable regression baseline;
3. ``wape history --check`` over the real ledger must pass with a
   generous tolerance (the runs are tiny, so only the machinery — not
   micro-timing — is gated);
4. a synthetic record with a 100x inflated scan time is appended to a
   *copy* of the ledger, and ``wape history --check`` must flag it
   (regression-detector gate);
5. the folded-stack profile must exist and be non-empty;
6. one ``--jobs 2 --no-cache`` scan with ``--log``, ``--trace-out`` and
   ``--metrics-out`` (merged-artifacts gate): the trace must validate
   and its ``chunk`` spans carry worker pids, every log record must
   carry the scan's run id (its ledger record's), and the ``files`` of
   the workers' ``chunk_scanned`` records must add up to a non-zero
   ``wape_files_scanned``.

The ``.bench/`` directory is left behind on purpose: CI uploads it
(ledger + folded stacks) as the run's observability artifact.

Run standalone (CI does, via ``make bench-check``)::

    PYTHONPATH=src python benchmarks/bench_check.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, ".bench")
LEDGER = os.path.join(BENCH_DIR, "ledger.jsonl")
LEDGER_REGRESSED = os.path.join(BENCH_DIR, "ledger_regressed.jsonl")
FOLDED = os.path.join(BENCH_DIR, "profile.folded")
JOBS2_LOG = os.path.join(BENCH_DIR, "jobs2.jsonl")
JOBS2_LEDGER = os.path.join(BENCH_DIR, "jobs2-ledger.jsonl")
JOBS2_TRACE = os.path.join(BENCH_DIR, "jobs2-trace.json")
JOBS2_METRICS = os.path.join(BENCH_DIR, "jobs2.prom")
TARGET = os.path.join(REPO_ROOT, "examples", "demo_app")

#: runs are ~tens of milliseconds; gate only on the machinery, not noise.
CHECK_TOLERANCE = "3.0"


def _fail(message: str) -> None:
    print(f"bench-check: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def _scan(extra: list[str], cache_dir: str) -> None:
    from repro.tool.cli import main as scan_main

    argv = ["--quiet", "--stats", "--cache-dir", cache_dir,
            "--ledger", LEDGER, *extra, TARGET]
    code = scan_main(argv)
    # the demo app is deliberately vulnerable: exit 1 means "findings",
    # which is the expected outcome; >= 2 means the scan itself failed.
    if code not in (0, 1):
        _fail(f"scan exited {code} (argv: {argv})")


def check_merged_artifacts() -> None:
    """One ``--jobs 2`` scan: the parent's trace, log and metrics must
    each hold what the pool workers shipped home."""
    from repro.obs import RunLedger
    from repro.telemetry import load_trace, validate_trace
    from repro.tool.cli import main as scan_main

    print("bench-check: --jobs 2 scan with log, trace and metrics ...")
    argv = ["--quiet", "--jobs", "2", "--no-cache", "--ledger", JOBS2_LEDGER,
            "--log", JOBS2_LOG, "--trace-out", JOBS2_TRACE,
            "--metrics-out", JOBS2_METRICS, TARGET]
    if scan_main(argv) not in (0, 1):
        _fail(f"scan failed (argv: {argv})")

    trace = load_trace(JOBS2_TRACE)
    try:
        validate_trace(trace)
    except ValueError as exc:
        _fail(f"invalid --jobs 2 trace: {exc}")
    chunks = [span for span in trace["spans"] if span["name"] == "chunk"]
    if not chunks or not all(isinstance(span["worker"], int)
                             for span in chunks):
        _fail(f"chunk spans without worker pids: {chunks}")

    run_id = RunLedger(JOBS2_LEDGER).load()[-1]["run_id"]
    with open(JOBS2_LOG, encoding="utf-8") as f:
        records = [json.loads(line) for line in f]
    strays = [r for r in records if r.get("run_id") != run_id]
    if not records or strays:
        _fail(f"log records without run id {run_id}: {strays[:3]}")
    logged = sum(r["files"] for r in records
                 if r["event"] == "chunk_scanned"
                 and isinstance(r.get("worker"), int)
                 and r["worker"] != os.getpid())

    with open(JOBS2_METRICS, encoding="utf-8") as f:
        scanned = [float(line.split()[1]) for line in f
                   if line.startswith("wape_files_scanned ")]
    if not scanned or logged != scanned[0] or logged <= 0:
        _fail(f"workers logged {logged} chunk files, metrics say "
              f"wape_files_scanned {scanned}")
    print(f"bench-check: merged artifacts ok ({len(chunks)} chunks, "
          f"{logged} files, run id {run_id})")


def main() -> int:
    shutil.rmtree(BENCH_DIR, ignore_errors=True)
    os.makedirs(BENCH_DIR)
    cache_dir = os.path.join(BENCH_DIR, "cache")

    print("bench-check: cold scan (profiled) ...")
    _scan(["--profile", "--profile-out", FOLDED], cache_dir)
    print("bench-check: warm scans ...")
    _scan([], cache_dir)
    _scan([], cache_dir)

    from repro.obs import RunLedger
    from repro.tool.history import main as history_main

    records = RunLedger(LEDGER).load()
    if len(records) != 3:
        _fail(f"expected 3 ledger records, found {len(records)}")

    digests = {r["findings"]["digest"] for r in records}
    if len(digests) != 1:
        _fail(f"findings digests differ across identical runs: {digests}")
    print(f"bench-check: determinism ok "
          f"(digest {records[0]['findings']['digest'][:12]} x3)")

    for record in records:
        entry = record.get("prefilter")
        if not isinstance(entry, dict):
            _fail(f"ledger record {record['run_id']} missing prefilter "
                  f"counts")
        if not entry.get("skip_rate"):
            _fail(f"prefilter skipped nothing on the demo app "
                  f"(counts: {entry})")

    # conservatism gate: identical findings with the prefilter off.
    # Run in-process, ledger-free: the off-run shares the on-run's
    # target/fingerprint/jobs and would otherwise count as comparable
    # history for the skip-rate regression gate.
    from repro.analysis.options import ScanOptions
    from repro.obs.ledger import findings_digest
    from repro.tool.report import report_fingerprints
    from repro.tool.wap import Wape

    tool = Wape()
    on = tool.analyze_tree(TARGET, ScanOptions(jobs=1))
    off = tool.analyze_tree(TARGET, ScanOptions(jobs=1, prefilter=False))
    digest_on = findings_digest(on.outcomes,
                                report_fingerprints(on.to_dict()))
    digest_off = findings_digest(off.outcomes,
                                 report_fingerprints(off.to_dict()))
    if digest_on != digest_off:
        _fail(f"prefilter changed the findings digest: "
              f"{digest_on[:12]} (on) != {digest_off[:12]} (off)")
    if digest_on != records[0]["findings"]["digest"]:
        _fail("in-process digest differs from the CLI ledger digest")
    print(f"bench-check: prefilter conservatism ok (digest matches "
          f"with {on.prefilter.skipped} skipped / "
          f"{on.prefilter.dep_only} dep-only)")

    if history_main(["--ledger", LEDGER, "--check",
                     "--tolerance", CHECK_TOLERANCE]) != 0:
        _fail("history --check flagged a regression on the real ledger")

    # the detector itself must still bite: inflate the last record 100x
    # on a copy of the ledger and require --check to exit non-zero.
    inflated = dict(records[-1])
    inflated["run_id"] = inflated["run_id"] + "-inflated"
    inflated["seconds"] = inflated["seconds"] * 100 + 10.0
    inflated["phases"] = {name: secs * 100 + 10.0
                          for name, secs in
                          (inflated.get("phases") or {}).items()}
    with open(LEDGER_REGRESSED, "w", encoding="utf-8") as f:
        for record in records + [inflated]:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    if history_main(["--ledger", LEDGER_REGRESSED, "--check",
                     "--tolerance", CHECK_TOLERANCE]) == 0:
        _fail("history --check missed the synthetic 100x regression")
    print("bench-check: synthetic regression flagged ok")

    if not os.path.exists(FOLDED) or os.path.getsize(FOLDED) == 0:
        _fail(f"missing or empty folded profile: {FOLDED}")
    with open(FOLDED, encoding="utf-8") as f:
        folded_lines = sum(1 for _ in f)
    print(f"bench-check: profile ok ({folded_lines} folded stacks)")

    check_merged_artifacts()

    print(f"bench-check: PASS (artifacts in {BENCH_DIR})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
