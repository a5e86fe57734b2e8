"""The scan observatory (`repro.obs`): logger, ledger, profiler.

Unit-level coverage of the observability plane:

* the JSONL logger: sink vs segment mode, level filtering, bound
  fields, a worker's records through its recorder's batch, the no-op
  default;
* the run ledger: record layout (cpu/jobs facts, per-tier caches,
  findings digest), append/load resilience, digest determinism;
* the rolling-baseline regression detector and `wape history --check`;
* the sampling profiler's folded stacks and hot-function table;
* the IR opcode histogram: identical findings with profiling on/off,
  counters only when on;
* labeled Prometheus export (`base|k=v` -> `base{k="v"}`).

Cross-process behaviour (worker log segments, crash events) lives in
``test_obs_pipeline.py``.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.analysis.options import ScanOptions
from repro.obs import (
    NULL_LOG,
    JsonlLogger,
    RunLedger,
    SamplingProfiler,
    build_record,
    default_ledger_path,
    detect_regressions,
    findings_digest,
    new_run_id,
    opcode_table,
    render_history,
    render_top_functions,
)
from repro.telemetry import Metrics, Telemetry, metrics_to_text
from repro.tool.wap import Wape


@pytest.fixture(scope="module")
def tool():
    return Wape()


def _write_app(root, n_files: int = 3) -> None:
    for i in range(n_files):
        (root / f"page{i}.php").write_text(
            "<?php\n"
            "$q = $_GET['q'];\n"
            "mysql_query(\"SELECT * FROM t WHERE a = '$q'\");\n")


# ---------------------------------------------------------------------------
# JSONL logger
# ---------------------------------------------------------------------------

class TestJsonlLogger:
    def test_sink_mode_writes_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "scan.jsonl"
        log = Telemetry(False, log=JsonlLogger(path=str(path)),
                        run_id="run-test-1").log
        log.info("scan_start", files=3)
        log.warning("parse_warning", file="a.php")
        log.close()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["scan_start",
                                                "parse_warning"]
        assert all(r["run_id"] == "run-test-1" for r in records)
        assert records[0]["files"] == 3
        assert records[0]["level"] == "info"
        assert all("ts" in r for r in records)

    def test_level_filtering(self):
        stream = io.StringIO()
        log = JsonlLogger(stream=stream, level="warning")
        log.debug("nope")
        log.info("nope")
        log.warning("yes")
        log.error("also")
        events = [json.loads(line)["event"]
                  for line in stream.getvalue().splitlines()]
        assert events == ["yes", "also"]

    def test_bind_children_share_the_sink(self):
        stream = io.StringIO()
        log = Telemetry(False, log=JsonlLogger(stream=stream),
                        run_id="run-x").log
        child = log.bind(request_id="req-1")
        child.info("scan_queued")
        log.info("plain")
        records = [json.loads(line)
                   for line in stream.getvalue().splitlines()]
        assert records[0]["request_id"] == "req-1"
        assert records[0]["run_id"] == "run-x"
        assert "request_id" not in records[1]

    def test_segment_mode_drain_stamps_worker_pid(self):
        # a pool worker's log: segment mode, drained with its recorder
        worker = Telemetry.for_worker((False, "info", "run-seg"))
        worker.log.info("chunk_scanned", files=4)
        worker.log.warning("parse_warning", file="b.php")
        _spans, _counters, drained = worker.drain(4242)
        assert worker.log.records == []
        assert [r["worker"] for r in drained] == [4242, 4242]
        assert all(r["run_id"] == "run-seg" for r in drained)
        # a second drain is empty, not a replay
        assert worker.drain(4242) == ([], {}, [])

    def test_merge_bypasses_level_filtering(self):
        stream = io.StringIO()
        parent = Telemetry(False, log=JsonlLogger(stream=stream,
                                                  level="error"))
        worker = Telemetry.for_worker((False, "debug", parent.run_id))
        worker.log.debug("worker_detail", x=1)
        parent.absorb(worker.drain(7))
        record = json.loads(stream.getvalue())
        assert record["event"] == "worker_detail"
        assert record["worker"] == 7
        assert record["run_id"] == parent.run_id

    def test_null_log_is_inert(self):
        assert NULL_LOG.enabled is False
        NULL_LOG.info("ignored", x=1)
        assert Telemetry(False).drain(1) == ([], {}, [])
        assert NULL_LOG.bind(run_id="r") is NULL_LOG

    def test_telemetry_binds_one_run_id(self):
        stream = io.StringIO()
        pinned = Telemetry(False, log=JsonlLogger(stream=stream),
                           run_id="run-pinned")
        pinned.log.info("a")
        fresh = Telemetry(False, log=JsonlLogger(stream=stream))
        fresh.log.info("b")
        own = Telemetry(False, log=JsonlLogger(
            stream=stream, fields={"run_id": "run-own"}))
        own.log.info("c")
        ids = [json.loads(line)["run_id"]
               for line in stream.getvalue().splitlines()]
        assert ids == ["run-pinned", fresh.run_id, "run-own"]
        assert fresh.run_id.startswith("run-")
        assert own.run_id == "run-own"
        assert Telemetry(False).log is NULL_LOG

    def test_run_ids_are_unique_and_prefixed(self):
        ids = {new_run_id() for _ in range(16)}
        assert len(ids) == 16
        assert all(i.startswith("run-") for i in ids)


# ---------------------------------------------------------------------------
# run ledger
# ---------------------------------------------------------------------------

def _record(run_id="run-1", seconds=1.0, scan=0.8, hit_rate=0.9,
            target="/app", fingerprint="fp", jobs=2) -> dict:
    return {
        "version": 1, "run_id": run_id, "ts": 1754550000.0,
        "target": target, "tool": "WAPe", "fingerprint": fingerprint,
        "cpu_count": 4, "jobs": jobs, "jobs_capped_by_cpu": False,
        "files": 10, "lines": 100, "seconds": seconds,
        "candidates": 5, "real": 4, "predicted_fp": 1,
        "parse_errors": 0, "parse_warnings": 0,
        "phases": {"scan": scan, "predict": 0.1},
        "caches": {"result": {"hits": 9, "misses": 1, "puts": 1,
                              "hit_rate": hit_rate}},
        "findings": {"count": 5, "digest": "d" * 64},
    }


class TestLedger:
    def test_build_record_from_a_real_scan(self, tool, tmp_path):
        app = tmp_path / "app"
        app.mkdir()
        _write_app(app)
        cache_dir = str(tmp_path / "cache")
        opts = ScanOptions(jobs=1, cache_dir=cache_dir,
                           telemetry=Telemetry())
        report = tool.analyze_tree(str(app), opts)
        record = build_record(report, report.to_dict(), run_id="run-t",
                              fingerprint="fp", jobs=1, seconds=0.5)
        assert record["version"] == 1
        assert record["cpu_count"] == (os.cpu_count() or 1)
        assert record["jobs_capped_by_cpu"] == \
            (1 >= (os.cpu_count() or 1))
        assert record["files"] == 3 and record["candidates"] == 3
        assert record["phases"]["scan"] > 0
        assert record["caches"]["result"]["misses"] == 3
        # the AST tier is content-addressed: identical files dedup
        assert record["caches"]["ast"]["puts"] >= 1
        assert len(record["findings"]["digest"]) == 64
        ledger = RunLedger(default_ledger_path(cache_dir))
        ledger.append(record)
        assert ledger.load() == [json.loads(json.dumps(record))]

    def test_digest_is_deterministic_across_runs(self, tool, tmp_path):
        app = tmp_path / "app"
        app.mkdir()
        _write_app(app)
        first = tool.analyze_tree(str(app), ScanOptions(jobs=1))
        second = tool.analyze_tree(str(app), ScanOptions(jobs=1))
        assert findings_digest(first.outcomes) \
            == findings_digest(second.outcomes)

    def test_loader_skips_torn_and_foreign_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps(_record()) + "\n"
                        "{torn line\n"
                        "[1, 2]\n"
                        + json.dumps(_record(run_id="run-2")) + "\n")
        records = RunLedger(str(path)).load()
        assert [r["run_id"] for r in records] == ["run-1", "run-2"]

    def test_render_history_lists_runs_and_digests(self):
        records = [_record(run_id=f"run-{i}") for i in range(3)]
        table = render_history(records)
        assert "run-0" in table and "run-2" in table
        assert "d" * 12 in table
        assert render_history([]) == "ledger is empty"


class TestWatchModeRecords:
    def test_build_record_defaults_to_batch_mode(self, tool, tmp_path):
        app = tmp_path / "app"
        app.mkdir()
        _write_app(app)
        report = tool.analyze_tree(str(app), ScanOptions(jobs=1))
        data = report.to_dict()
        record = build_record(report, data, run_id="run-m",
                              fingerprint="fp", jobs=1, seconds=0.1)
        assert record["mode"] == "batch"
        watch = build_record(report, data, run_id="run-w",
                             fingerprint="fp", jobs=1, seconds=0.1,
                             mode="watch")
        assert watch["mode"] == "watch"
        # same findings, same digest: mode does not change identity
        assert watch["findings"]["digest"] \
            == record["findings"]["digest"]

    def test_digest_covers_fingerprints(self, tool, tmp_path):
        """Two scans with identical verdict shapes but different flows
        must not share a digest once fingerprints are folded in."""
        first = tmp_path / "a"
        first.mkdir()
        (first / "x.php").write_text(
            "<?php\necho $_GET['q'];\n")
        second = tmp_path / "b"
        second.mkdir()
        (second / "x.php").write_text(
            "<?php\necho $_COOKIE['q'];\n")
        one = tool.analyze_tree(str(first), ScanOptions(jobs=1))
        two = tool.analyze_tree(str(second), ScanOptions(jobs=1))
        rec_one = build_record(one, one.to_dict(), run_id="r1",
                               fingerprint="fp", jobs=1, seconds=0.1)
        rec_two = build_record(two, two.to_dict(), run_id="r2",
                               fingerprint="fp", jobs=1, seconds=0.1)
        assert rec_one["findings"]["digest"] \
            != rec_two["findings"]["digest"]

    def test_watch_records_do_not_pollute_batch_baselines(self):
        """Warm ~ms watch cycles must never become the rolling baseline
        a cold batch scan is judged against (or vice versa)."""
        records = [dict(_record(run_id=f"run-{i}", seconds=0.005,
                                scan=0.004), mode="watch")
                   for i in range(4)]
        records.append(_record(run_id="run-batch", seconds=10.0,
                               scan=9.5))
        assert detect_regressions(records) == []


class TestRegressionDetector:
    def test_inflated_time_is_flagged(self):
        records = [_record(run_id=f"run-{i}") for i in range(4)]
        records.append(_record(run_id="run-bad", seconds=10.0, scan=9.5))
        flagged = detect_regressions(records)
        metrics = {r.metric for r in flagged}
        assert "seconds" in metrics and "phase:scan" in metrics
        assert all(r.run_id == "run-bad" for r in flagged)
        assert any("10.000s vs baseline" in r.describe()
                   for r in flagged)

    def test_small_absolute_jitter_is_not_flagged(self):
        # 3x relative but only 20ms absolute: below the noise floor
        records = [_record(run_id=f"run-{i}", seconds=0.010, scan=0.008)
                   for i in range(4)]
        records.append(_record(run_id="run-j", seconds=0.030, scan=0.024))
        assert detect_regressions(records) == []

    def test_hit_rate_drop_is_flagged(self):
        records = [_record(run_id=f"run-{i}", hit_rate=0.9)
                   for i in range(4)]
        records.append(_record(run_id="run-cold", hit_rate=0.1))
        flagged = detect_regressions(records)
        assert [r.metric for r in flagged] == ["cache:result:hit_rate"]
        assert flagged[0].kind == "rate"

    def test_different_config_records_do_not_count(self):
        # only one comparable prior record: no verdict
        records = [_record(run_id="run-0", jobs=1),
                   _record(run_id="run-1", jobs=8),
                   _record(run_id="run-2", seconds=50.0, scan=45.0)]
        records[0]["jobs"] = 2
        assert detect_regressions(records) == []

    def test_needs_history(self):
        assert detect_regressions([_record(), _record()]) == []


class TestHistoryCli:
    def test_check_passes_then_flags(self, tmp_path, capsys):
        from repro.tool.history import main as history_main
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(str(path))
        for i in range(4):
            ledger.append(_record(run_id=f"run-{i}"))
        assert history_main(["--ledger", str(path), "--check"]) == 0
        ledger.append(_record(run_id="run-bad", seconds=10.0, scan=9.5))
        assert history_main(["--ledger", str(path), "--check"]) == 1
        out = capsys.readouterr().out
        assert "run-bad" in out and "seconds" in out

    def test_json_output(self, tmp_path, capsys):
        from repro.tool.history import main as history_main
        path = tmp_path / "ledger.jsonl"
        RunLedger(str(path)).append(_record())
        assert history_main(["--ledger", str(path), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["run_id"] == "run-1"


# ---------------------------------------------------------------------------
# profiling
# ---------------------------------------------------------------------------

def _spin(deadline: float) -> int:
    import time
    total = 0
    end = time.perf_counter() + deadline
    while time.perf_counter() < end:
        total += sum(range(100))
    return total


class TestSamplingProfiler:
    def test_samples_the_calling_thread(self, tmp_path):
        profiler = SamplingProfiler(interval=0.001)
        with profiler:
            _spin(0.15)
        assert profiler.total_samples > 10
        assert any("_spin" in stack for stack in profiler.samples)
        out = tmp_path / "profile.folded"
        profiler.write_folded(str(out))
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0

    def test_top_function_table(self):
        samples = {"mod.main;mod.hot": 80, "mod.main;mod.cold": 20}
        table = render_top_functions(samples, top=5)
        assert "mod.hot" in table and "mod.main" in table
        assert "(100 samples)" in table
        assert render_top_functions({}) == "no samples collected"


class TestOpcodeHistogram:
    def test_profiled_scan_finds_the_same_and_publishes_counters(
            self, tool, tmp_path):
        app = tmp_path / "app"
        app.mkdir()
        _write_app(app)
        plain_t, prof_t = Telemetry(), Telemetry()
        plain = tool.analyze_tree(
            str(app), ScanOptions(jobs=1, telemetry=plain_t))
        profiled = tool.analyze_tree(
            str(app), ScanOptions(jobs=1, telemetry=prof_t,
                                  profile=True))
        assert findings_digest(plain.outcomes) \
            == findings_digest(profiled.outcomes)
        prof_counters = {n: c.value
                         for n, c in prof_t.metrics.counters.items()}
        ops = [n for n in prof_counters if n.startswith("ir_op_count.")]
        assert ops, "profiled scan published no opcode counters"
        assert all(not n.startswith("ir_op_")
                   for n in plain_t.metrics.counters)
        table = opcode_table(prof_counters)
        assert "opcode" in table
        assert any(n[len("ir_op_count."):] in table for n in ops)

    def test_opcode_table_fallback(self):
        assert "without --profile" in opcode_table({"files_scanned": 3})


# ---------------------------------------------------------------------------
# labeled Prometheus export
# ---------------------------------------------------------------------------

class TestLabeledMetrics:
    def test_labeled_counters_share_one_type_line(self):
        metrics = Metrics()
        metrics.counter(
            "http_requests_total|endpoint=/v1/scan,method=POST,status=200"
        ).inc()
        metrics.counter(
            "http_requests_total|endpoint=/v1/health,method=GET,status=200"
        ).inc(2)
        text = metrics_to_text(metrics)
        assert text.count("# TYPE wape_http_requests_total counter") == 1
        assert ('wape_http_requests_total{endpoint="/v1/scan",'
                'method="POST",status="200"} 1') in text
        assert ('wape_http_requests_total{endpoint="/v1/health",'
                'method="GET",status="200"} 2') in text

    def test_labeled_histogram_quantiles_merge_labels(self):
        metrics = Metrics()
        hist = metrics.histogram("http_request_seconds|endpoint=/v1/scan")
        hist.observe(0.5)
        hist.observe(1.5)
        text = metrics_to_text(metrics)
        assert ('wape_http_request_seconds_count'
                '{endpoint="/v1/scan"} 2') in text
        assert ('wape_http_request_seconds{endpoint="/v1/scan",'
                'quantile="0.95"}') in text

    def test_unlabeled_names_are_untouched(self):
        metrics = Metrics()
        metrics.counter("files_scanned").inc(7)
        text = metrics_to_text(metrics)
        assert "# TYPE wape_files_scanned counter" in text
        assert "wape_files_scanned 7" in text
