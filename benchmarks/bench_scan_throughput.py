"""Scan-pipeline throughput: parallel jobs and cold/warm cache.

Measures the whole-tree scan path (``Wape.analyze_tree``: fused engine +
scheduler + predictor) over the synthesized corpus at ``--jobs 1/2/4``,
cold-cache and warm-cache, and records files/sec and LoC/sec in
``BENCH_scan_throughput.json`` at the repository root so the performance
trajectory is tracked PR over PR.

Run under pytest (full corpus)::

    PYTHONPATH=src python -m pytest benchmarks/bench_scan_throughput.py -s

or standalone, optionally in smoke mode (tiny tree, no JSON written —
``make bench-smoke``)::

    PYTHONPATH=src python benchmarks/bench_scan_throughput.py --smoke

Speedup expectations are hardware-conditional: ``--jobs 4`` can only beat
``--jobs 1`` when there are cores to run on, so the 2x assertion is
applied when >= 4 CPUs are available.  The warm-cache assertion (>= 5x
faster than cold) holds on any hardware: a warm scan only hashes file
contents and unpickles results.  The full run asserts it on single
``--jobs 1`` shots; smoke mode, whose scans take milliseconds, on the
medians of five cold and five warm ones.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(REPO_ROOT, "BENCH_scan_throughput.json")

JOB_LEVELS = (1, 2, 4)


def _build_corpus(root: str, smoke: bool) -> dict:
    from repro.corpus import (
        VULNERABLE_WEBAPPS,
        build_webapp_corpus,
        build_wordpress_corpus,
        materialize_package,
    )

    if smoke:
        packages = [materialize_package(p, root)
                    for p in VULNERABLE_WEBAPPS[:3]]
    else:
        packages = build_webapp_corpus(root) + build_wordpress_corpus(root)

    from repro.analysis.pipeline import ScanScheduler
    files = ScanScheduler.discover(root)
    loc = 0
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as f:
            loc += f.read().count("\n") + 1
    return {"packages": len(packages), "files": len(files), "loc": loc}


def _timed_scan(tool, root: str, jobs: int, cache_dir: str | None):
    from repro.analysis.options import ScanOptions

    start = time.perf_counter()
    report = tool.analyze_tree(
        root, ScanOptions(jobs=jobs, cache_dir=cache_dir))
    return time.perf_counter() - start, report


def _median_jobs1_seconds(tool, root: str, cache_dirs: list[str]) -> float:
    """Median wall time of one ``--jobs 1`` scan into each cache dir."""
    return statistics.median(_timed_scan(tool, root, 1, cache_dir)[0]
                             for cache_dir in cache_dirs)


def _bench_incremental(tool, root: str, repeats: int = 3) -> dict:
    """The service-mode scenario: warm re-scan after a one-file edit.

    Uses the ``repro.api.Scanner`` warm path (what ``wape serve`` keeps
    resident) rather than the on-disk result cache: only the edited
    file's include closure is re-analyzed, everything else is reused
    in memory.
    """
    from repro.analysis.options import ScanOptions
    from repro.analysis.pipeline import ScanScheduler
    from repro.api import Scanner

    scanner = Scanner(tool, ScanOptions(jobs=1))
    start = time.perf_counter()
    cold = scanner.scan(root)
    cold_seconds = time.perf_counter() - start

    noop_seconds = min(
        _timed(lambda: scanner.scan(root)) for _ in range(repeats))

    edit_path = ScanScheduler.discover(root)[0]
    edit_seconds = []
    dirty = 0
    keyset = None
    for i in range(repeats):
        with open(edit_path, "a", encoding="utf-8") as f:
            f.write(f"\n<?php // bench edit {i} ?>\n")
        start = time.perf_counter()
        result = scanner.scan(root)
        edit_seconds.append(time.perf_counter() - start)
        assert result.incremental and result.analyzed_files > 0
        dirty = len(result.dirty)
        keyset = sorted(o.candidate.key() for o in result.report.outcomes)
    one_edit = min(edit_seconds)

    return {
        "jobs": 1,
        "cold_seconds": round(cold_seconds, 4),
        "warm_noop_seconds": round(noop_seconds, 4),
        "one_file_edit_seconds": round(one_edit, 4),
        "dirty_files": dirty,
        "reused_files": cold.analyzed_files - dirty,
        "speedup_vs_cold": round(cold_seconds / one_edit, 2),
        "_keyset": keyset,
    }


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _build_include_project(root: str, libs: int = 8,
                           pages: int = 48) -> None:
    """A synthetic include-heavy project for the summary-warm scenario.

    The webapp corpus resolves no includes (its ``require`` calls are
    dynamic), so the compositional summary tier never engages there.
    This project is the opposite: every page composes three shared
    libraries, which is exactly the shape the tier accelerates.
    """
    os.makedirs(root, exist_ok=True)
    for i in range(libs):
        with open(os.path.join(root, f"lib{i}.php"), "w",
                  encoding="utf-8") as f:
            f.write(
                "<?php\n"
                f"$g{i} = $_GET['g{i}'];\n"
                f"function fwd{i}($x) {{\n"
                "    $y = trim($x);\n"
                "    for ($j = 0; $j < 3; $j++) { $y = $y . $j; }\n"
                "    return $y;\n"
                "}\n"
                f"function clean{i}($x) {{ return htmlentities($x); }}\n"
                f"function sink{i}($x) {{ echo fwd{i}($x); }}\n")
    for p in range(pages):
        a, b, c = p % libs, (p + 1) % libs, (p + 2) % libs
        with open(os.path.join(root, f"page{p}.php"), "w",
                  encoding="utf-8") as f:
            f.write(
                "<?php\n"
                f"include 'lib{a}.php';\n"
                f"require 'lib{b}.php';\n"
                f"include_once 'lib{c}.php';\n"
                f"$q = $_GET['q{p}'];\n"
                f"echo fwd{a}($q);\n"
                f"echo clean{b}($q);\n"
                f"sink{c}($_POST['p{p}']);\n"
                f"echo $g{a};\n")


def _bench_summary_warm(tool, workdir: str) -> dict:
    """Summary-warm cold scan: results and records gone, the AST and
    summary namespaces kept.

    Simulates the second machine / post-``git clean`` scan: the per-file
    result cache misses on every file, but the AST + summary tiers
    replay each dependency's (env, summaries) state instead of
    re-executing its body.  ``summary_cache_miss == 0`` on the warm run
    is the "no dependency body re-executed" witness.
    """
    from repro.analysis.options import ScanOptions
    from repro.telemetry import Telemetry

    root = os.path.join(workdir, "include-project")
    _build_include_project(root)
    cache_dir = os.path.join(workdir, "cache-summary")

    def scan():
        telemetry = Telemetry()
        start = time.perf_counter()
        report = tool.analyze_tree(
            root, ScanOptions(jobs=1, cache_dir=cache_dir,
                              telemetry=telemetry))
        seconds = time.perf_counter() - start
        counters = telemetry.metrics.counters

        def count(name):
            counter = counters.get(name)
            return int(counter.value) if counter is not None else 0

        return seconds, report, count

    cold_seconds, cold_report, cold_count = scan()
    cold_misses = cold_count("summary_cache_miss")

    # drop the result and record files (one per fingerprint), keep the
    # AST and summary namespaces
    from repro.cache import CACHE_FORMAT
    store_dir = os.path.join(cache_dir, f"cache-v{CACHE_FORMAT}")
    for name in os.listdir(store_dir):
        if name.startswith(("result-", "record-")):
            os.remove(os.path.join(store_dir, name))

    warm_seconds, warm_report, warm_count = scan()
    warm_keys = sorted(o.candidate.key() for o in warm_report.outcomes)
    cold_keys = sorted(o.candidate.key() for o in cold_report.outcomes)
    assert warm_keys == cold_keys, \
        "summary replay changed the candidate set"
    hits = warm_count("summary_cache_hit")
    misses = warm_count("summary_cache_miss")
    assert hits > 0, "summary-warm run never consulted the cache"
    assert misses == 0, \
        f"summary-warm run re-executed {misses} dependency bodies"

    return {
        "jobs": 1,
        "files": len(warm_report.files),
        "candidates": len(warm_keys),
        "cold_seconds": round(cold_seconds, 4),
        "summary_warm_seconds": round(warm_seconds, 4),
        "cold_summary_misses": cold_misses,
        "warm_summary_hits": hits,
        "warm_summary_misses": misses,
        "speedup_vs_cold": round(cold_seconds / warm_seconds, 2),
    }


def _bench_prefilter_cold(tool, root: str) -> tuple[dict, list]:
    """prefilter-cold scenario: first-contact jobs=1 scan, on vs off.

    No result cache in either run: this measures exactly the lex/parse/
    taint work the knowledge-compiled relevance prefilter removes from a
    cold scan, with the tier counts recorded as honesty fields (a run
    that skipped nothing proves nothing).  Both wall clock and the
    traced ``scan`` phase are recorded: the prefilter only removes scan-
    phase work — include resolution is paid either way — so the phase
    ratio is the signal and the wall ratio is the honesty field (on a
    loaded 1-CPU box the include-graph phase dominates and wall clock
    jitters past the saving).  The returned keysets feed the benchmark-
    wide candidate-set equality assertion: the prefilter must be
    findings-preserving here too.
    """
    from repro.analysis.options import ScanOptions

    def _run(prefilter: bool):
        start = time.perf_counter()
        report = tool.analyze_tree(
            root, ScanOptions(jobs=1, prefilter=prefilter, telemetry=True))
        wall = time.perf_counter() - start
        phases = dict(report.stats.wall_phases)
        return report, wall, phases.get("scan", 0.0)

    off_report, off_seconds, off_scan = _run(False)
    on_report, on_seconds, on_scan = _run(True)
    stats = on_report.prefilter
    assert stats is not None
    keysets = [sorted(o.candidate.key() for o in off_report.outcomes),
               sorted(o.candidate.key() for o in on_report.outcomes)]
    return {
        "jobs": 1,
        "cold_off_seconds": round(off_seconds, 4),
        "cold_on_seconds": round(on_seconds, 4),
        "scan_phase_off_seconds": round(off_scan, 4),
        "scan_phase_on_seconds": round(on_scan, 4),
        "skipped": stats.skipped,
        "dep_only": stats.dep_only,
        "sink_bearing": stats.sink_bearing,
        "skip_rate": round(stats.skip_rate, 4),
        "speedup_off_vs_on": round(off_seconds / on_seconds, 2),
        "scan_phase_speedup": round(off_scan / on_scan, 2)
        if on_scan else 0.0,
    }, keysets


def _bench_fleet(tool, workdir: str, smoke: bool) -> dict:
    """Fleet scenario: N scan workers serving concurrent scans.

    Spins up :class:`repro.service.ScanService` at each worker level (1:
    the in-process worker thread; more: forked worker processes), scans
    a set of distinct project roots concurrently (cold, so every scan is
    real work), and records the workers-vs-throughput curve.  Smoke mode
    is the CI guard: 2 workers, 1 scan each, clean shutdown.

    The curve is only a *speedup* curve when the cores exist —
    ``workers_capped_by_cpu`` says whether the top level oversubscribed
    the machine.
    """
    import shutil
    import threading

    from repro.analysis.options import ScanOptions
    from repro.service import ScanService, ServiceClient

    source = os.path.join(workdir, "fleet-src")
    _build_include_project(source, libs=4, pages=8 if smoke else 24)
    levels = (2,) if smoke else (1, 2, 4)
    n_roots = 2 if smoke else 8
    roots = []
    for i in range(n_roots):
        dst = os.path.join(workdir, f"fleet-root-{i}")
        shutil.copytree(source, dst)
        roots.append(dst)

    results = []
    for workers in levels:
        svc = ScanService(tool, ScanOptions(jobs=1), workers=workers)
        svc.start_background()
        try:
            client = ServiceClient(port=svc.port)
            client.wait_ready()
            errors: list[Exception] = []

            def scan(root, port=svc.port):
                try:
                    report = ServiceClient(port=port).scan(root,
                                                           forget=True)
                    assert report["summary"]["files"] > 0
                except Exception as exc:  # surfaced after the join
                    errors.append(exc)

            threads = [threading.Thread(target=scan, args=(root,))
                       for root in roots]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - start
            assert not errors, errors[0]
            status = client.status()
            assert all(w["alive"] for w in status["workers"])
            assert status["requests"]["served"] == n_roots
            client.shutdown()
        finally:
            svc.close()
        if workers > 1:
            assert all(not w.process.is_alive() for w in svc.workers), \
                "fleet shutdown left worker processes running"
        results.append({
            "workers": workers,
            "scans": n_roots,
            "seconds": round(seconds, 4),
            "scans_per_sec": round(n_roots / seconds, 2),
        })

    fleet = {
        "levels": results,
        "cpu_count": os.cpu_count(),
        "workers_capped_by_cpu": (os.cpu_count() or 1) < levels[-1],
    }
    if levels[0] == 1:
        fleet["speedup_max_workers_vs_1"] = round(
            results[0]["seconds"] / results[-1]["seconds"], 2)
    return fleet


def run_benchmark(smoke: bool = False) -> dict:
    from repro.tool import Wape

    with tempfile.TemporaryDirectory(prefix="bench-scan-") as workdir:
        corpus_root = os.path.join(workdir, "corpus")
        os.makedirs(corpus_root)
        corpus = _build_corpus(corpus_root, smoke)
        tool = Wape(weapon_flags=["-nosqli", "-hei", "-wpsqli"])

        runs = []
        keysets = []
        warm_cache = None
        for jobs in JOB_LEVELS:
            cache_dir = os.path.join(workdir, f"cache-j{jobs}")
            seconds, report = _timed_scan(tool, corpus_root, jobs,
                                          cache_dir)
            runs.append({"jobs": jobs, "cache": "cold",
                         "seconds": round(seconds, 4),
                         "files_per_sec": round(corpus["files"] / seconds,
                                                1),
                         "loc_per_sec": round(corpus["loc"] / seconds, 1)})
            keysets.append(sorted(o.candidate.key()
                                  for o in report.outcomes))
            warm_cache = cache_dir
        for jobs in (1, JOB_LEVELS[-1]):
            seconds, report = _timed_scan(tool, corpus_root, jobs,
                                          warm_cache)
            runs.append({"jobs": jobs, "cache": "warm",
                         "seconds": round(seconds, 4),
                         "files_per_sec": round(corpus["files"] / seconds,
                                                1),
                         "loc_per_sec": round(corpus["loc"] / seconds, 1)})
            keysets.append(sorted(o.candidate.key()
                                  for o in report.outcomes))
        cold = {r["jobs"]: r["seconds"] for r in runs
                if r["cache"] == "cold"}
        warm = {r["jobs"]: r["seconds"] for r in runs
                if r["cache"] == "warm"}
        warm_vs_cold = cold[1] / warm[1]
        if smoke:
            # single shots of the tiny tree's ~10 ms warm scan swing the
            # ratio from 2x to 9x on a shared host (one warm scan in five
            # can take 3x the others), so smoke mode compares medians of
            # five: cold scans into fresh cache dirs, warm ones into the
            # warmed dir
            warm_vs_cold = _median_jobs1_seconds(
                tool, corpus_root,
                [os.path.join(workdir, f"cache-cold-{i}") for i in range(5)]
            ) / _median_jobs1_seconds(tool, corpus_root, [warm_cache] * 5)

        # service-mode scenario: daemon-style warm re-scan of a
        # one-file edit (comment-only, so the candidate set is stable)
        incremental = _bench_incremental(tool, corpus_root)
        keysets.append(incremental.pop("_keyset"))

        # prefilter-cold scenario: cache-free jobs=1 scan with the
        # relevance prefilter on vs off (ISSUE 10's headline number)
        prefilter_cold, prefilter_keysets = _bench_prefilter_cold(
            tool, corpus_root)
        keysets.extend(prefilter_keysets)

        # summary-warm scenario: include-heavy project, result cache
        # wiped, dependency state replayed from the summary pack tier
        summary_warm = _bench_summary_warm(tool, workdir)

        # fleet scenario: worker processes vs concurrent-scan throughput
        # (smoke: 2 workers, 1 scan each, clean shutdown)
        fleet = _bench_fleet(tool, workdir, smoke)

        # one instrumented run: where does the wall clock go?  Records
        # the telemetry phase-time breakdown into the trajectory file.
        from repro.analysis.options import ScanOptions
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        start = time.perf_counter()
        report = tool.analyze_tree(
            corpus_root,
            ScanOptions(jobs=JOB_LEVELS[-1], telemetry=telemetry))
        traced_seconds = time.perf_counter() - start
        keysets.append(sorted(o.candidate.key()
                              for o in report.outcomes))
        stats = report.stats
        phase_breakdown = {
            "jobs": JOB_LEVELS[-1],
            "seconds": round(traced_seconds, 4),
            "workers": stats.workers,
            "wall_phases": [
                {"phase": name, "seconds": round(seconds, 4)}
                for name, seconds in stats.wall_phases],
            "file_phases": stats.file_phases,
        }

    assert all(k == keysets[0] for k in keysets), \
        "jobs/cache settings changed the candidate set"

    result = {
        "benchmark": "scan_throughput",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        # honesty flag: with fewer CPUs than the largest jobs level the
        # parallel numbers measure oversubscription, not speedup
        "jobs_capped_by_cpu": (os.cpu_count() or 1) < JOB_LEVELS[-1],
        "corpus": corpus,
        "candidates": len(keysets[0]),
        "runs": runs,
        "incremental": incremental,
        "prefilter_cold": prefilter_cold,
        "summary_warm": summary_warm,
        "fleet": fleet,
        "phase_breakdown": phase_breakdown,
        "speedup_jobs4_vs_jobs1_cold": round(cold[1] / cold[4], 2),
        "speedup_warm_vs_cold_jobs1": round(warm_vs_cold, 2),
    }
    return result


def print_summary(result: dict) -> None:
    corpus = result["corpus"]
    print(f"\n### scan throughput — {corpus['packages']} packages, "
          f"{corpus['files']} files, {corpus['loc']} LoC, "
          f"{result['cpu_count']} CPU(s)")
    for run in result["runs"]:
        print(f"  jobs={run['jobs']} {run['cache']:<4}: "
              f"{run['seconds']:>7.3f}s  "
              f"{run['files_per_sec']:>8.1f} files/s  "
              f"{run['loc_per_sec']:>9.1f} LoC/s")
    print(f"  speedup jobs=4 vs jobs=1 (cold): "
          f"{result['speedup_jobs4_vs_jobs1_cold']}x")
    print(f"  speedup warm vs cold (jobs=1):   "
          f"{result['speedup_warm_vs_cold_jobs1']}x"
          + (" (medians of 5)" if result["smoke"] else ""))
    inc = result["incremental"]
    print(f"  incremental (service warm path): cold "
          f"{inc['cold_seconds']}s, no-op {inc['warm_noop_seconds']}s, "
          f"1-file edit {inc['one_file_edit_seconds']}s "
          f"({inc['dirty_files']} dirty) -> "
          f"{inc['speedup_vs_cold']}x vs cold")
    pf = result["prefilter_cold"]
    print(f"  prefilter-cold (jobs=1, no cache): off "
          f"{pf['cold_off_seconds']}s, on {pf['cold_on_seconds']}s "
          f"({pf['skipped']} skipped, {pf['dep_only']} dep-only, "
          f"{pf['sink_bearing']} sink-bearing, "
          f"{pf['skip_rate'] * 100:.0f}% skip rate) -> "
          f"{pf['speedup_off_vs_on']}x wall, "
          f"{pf['scan_phase_speedup']}x scan phase "
          f"({pf['scan_phase_off_seconds']}s -> "
          f"{pf['scan_phase_on_seconds']}s)")
    sw = result["summary_warm"]
    print(f"  summary-warm (include project, {sw['files']} files): cold "
          f"{sw['cold_seconds']}s ({sw['cold_summary_misses']} dep "
          f"computations), summary-warm {sw['summary_warm_seconds']}s "
          f"({sw['warm_summary_hits']} replayed, "
          f"{sw['warm_summary_misses']} re-executed) -> "
          f"{sw['speedup_vs_cold']}x vs cold")
    fleet = result["fleet"]
    capped = " (capped by cpu)" if fleet["workers_capped_by_cpu"] else ""
    for level in fleet["levels"]:
        print(f"  fleet workers={level['workers']}: {level['scans']} "
              f"concurrent scans in {level['seconds']}s -> "
              f"{level['scans_per_sec']} scans/s{capped}")
    if "speedup_max_workers_vs_1" in fleet:
        print(f"  fleet speedup max-workers vs 1: "
              f"{fleet['speedup_max_workers_vs_1']}x{capped}")
    breakdown = result["phase_breakdown"]
    print(f"  phase breakdown (traced, jobs={breakdown['jobs']}, "
          f"{breakdown['seconds']}s):")
    for row in breakdown["wall_phases"]:
        print(f"    {row['phase']:<10} {row['seconds']:>8.4f}s")


def check_expectations(result: dict) -> None:
    assert result["speedup_warm_vs_cold_jobs1"] >= 5.0, \
        "warm-cache re-scan should be >= 5x faster than cold"
    if not result["smoke"]:
        assert result["incremental"]["speedup_vs_cold"] >= 10.0, \
            "warm incremental re-scan should be >= 10x faster than cold"
    prefilter = result["prefilter_cold"]
    assert prefilter["skip_rate"] > 0, \
        "prefilter skipped nothing on the corpus: the scenario is moot"
    if not result["smoke"]:
        # gate the phase the prefilter actually removes work from; the
        # wall ratio is recorded but not gated (include resolution
        # dominates it and jitters on a loaded 1-CPU runner)
        assert prefilter["scan_phase_speedup"] >= 1.1, \
            "prefilter should measurably shrink the cold scan phase"
    if result["jobs_capped_by_cpu"]:
        print("  (speedup assertion skipped: "
              f"{result['cpu_count']} CPU(s) < jobs={JOB_LEVELS[-1]})")
    elif (os.cpu_count() or 1) >= 4:
        assert result["speedup_jobs4_vs_jobs1_cold"] >= 2.0, \
            "--jobs 4 should be >= 2x faster than --jobs 1 on >= 4 cores"
    fleet = result["fleet"]
    if "speedup_max_workers_vs_1" in fleet \
            and not fleet["workers_capped_by_cpu"]:
        assert fleet["speedup_max_workers_vs_1"] >= 1.5, \
            "fleet should scale concurrent scans when the cores exist"


def test_scan_throughput():
    """Full-corpus run: records BENCH_scan_throughput.json at repo root."""
    result = run_benchmark(smoke=False)
    print_summary(result)
    with open(RESULT_PATH, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"  recorded -> {RESULT_PATH}")
    check_expectations(result)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = run_benchmark(smoke=smoke)
    print_summary(outcome)
    if smoke:
        # smoke mode guards the pipeline, it does not record trajectory
        check_expectations(outcome)
    else:
        with open(RESULT_PATH, "w", encoding="utf-8") as f:
            json.dump(outcome, f, indent=2)
            f.write("\n")
        print(f"recorded -> {RESULT_PATH}")
        check_expectations(outcome)
