"""Telemetry subsystem: tracing, metrics, stats, exporters, CLI flags.

Covers the observability contract of the scan pipeline:

* span nesting in-process and merging across worker processes;
* the metrics registry and its cross-process counter folding;
* JSON trace schema round-trip and Prometheus text export;
* the ``--stats`` footer (phase table summing to wall time);
* cache/report surfacing independent of telemetry;
* worker retry/crash logging with the failing file + exception class;
* the disabled path performing no telemetry work at all.
"""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.analysis import pipeline
from repro.cache import RESULT, CacheStore
from repro.telemetry import (
    NULL_METRICS,
    NULL_TELEMETRY,
    NULL_TRACER,
    Metrics,
    Telemetry,
    Tracer,
    load_trace,
    metrics_to_text,
    trace_to_dict,
    validate_trace,
    write_trace,
)
from repro.telemetry.tracing import NULL_SPAN
from repro.tool.wap import Wape
from repro.analysis.options import ScanOptions


@pytest.fixture(scope="module")
def tool():
    return Wape()


# ---------------------------------------------------------------------------
# tracer units
# ---------------------------------------------------------------------------

class TestTracer:
    def test_spans_nest_on_the_open_stack(self):
        tracer = Tracer()
        with tracer.span("root", phase="run") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert root.parent_id is None
        assert all(s.duration >= 0 for s in tracer.spans)

    def test_attrs_and_phase_default(self):
        tracer = Tracer()
        with tracer.span("lex", file="a.php") as span:
            span.set(tokens=7)
        assert span.phase == "lex"
        assert span.attrs == {"file": "a.php", "tokens": 7}

    def test_children_and_descendants(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        children = {s.name for s in tracer.children_of(root.span_id)}
        descendants = {s.name for s in tracer.descendants_of(root.span_id)}
        assert children == {"a", "b"}
        assert descendants == {"a", "a1", "b"}

    def test_drain_and_merge_remap_ids_and_stamp_worker(self):
        # spans reach the parent in the worker recorder's one batch
        worker = Telemetry.for_worker((True, None, "run-w"))
        with worker.tracer.span("chunk"):
            with worker.tracer.span("file"):
                pass
        batch = pickle.loads(pickle.dumps(worker.drain(4321)))
        assert worker.tracer.spans == []
        assert all(span.worker == 4321 for span in batch[0])
        assert worker.drain(4321) == ([], {}, [])  # not a replay

        parent = Telemetry()
        with parent.tracer.span("scan") as scan:
            parent.absorb(batch, parent.tracer.current_id)
        spans = parent.tracer.spans
        names = {s.name: s for s in spans}
        assert names["chunk"].parent_id == scan.span_id
        assert names["file"].parent_id == names["chunk"].span_id
        assert names["file"].worker == 4321
        assert len({s.span_id for s in spans}) == len(spans)

    def test_merge_two_workers_with_colliding_ids(self):
        batches = []
        for pid in (111, 222):
            w = Telemetry.for_worker((True, None, "run-w"))
            with w.tracer.span("chunk"):
                pass
            batches.append(w.drain(pid))
        parent = Telemetry()
        with parent.tracer.span("scan"):
            for batch in batches:
                parent.absorb(batch, parent.tracer.current_id)
        ids = [s.span_id for s in parent.tracer.spans]
        assert len(ids) == len(set(ids)) == 3


# ---------------------------------------------------------------------------
# metrics units
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_instruments_create_on_demand_and_accumulate(self):
        metrics = Metrics()
        metrics.counter("files").inc()
        metrics.counter("files").inc(2)
        metrics.gauge("rate").set(1.5)
        for value in (0.1, 0.2, 0.3):
            metrics.histogram("lat").observe(value)
        snap = metrics.snapshot()
        assert snap["counters"]["files"] == 3
        assert snap["gauges"]["rate"] == 1.5
        assert snap["histograms"]["lat"]["count"] == 3
        assert snap["histograms"]["lat"]["max"] == 0.3

    def test_drain_and_merge_counters(self):
        worker = Telemetry.for_worker((True, None, "run-w"))
        worker.metrics.counter("files").inc(5)
        worker.metrics.counter("zero")  # zero-valued: not shipped
        batch = worker.drain(99)
        assert batch[1] == {"files": 5}
        assert worker.metrics.counters == {}

        parent = Telemetry()
        parent.metrics.counter("files").inc(1)
        parent.absorb(batch)
        # an untraced worker ships no counters
        parent.absorb(Telemetry.for_worker((False, None, "r")).drain(98))
        assert parent.metrics.counter("files").value == 6

    def test_prometheus_text_format(self):
        metrics = Metrics()
        metrics.counter("files_scanned").inc(7)
        metrics.gauge("loc_per_second").set(1234.5)
        metrics.histogram("lat").observe(0.25)
        text = metrics_to_text(metrics)
        assert "# TYPE wape_files_scanned counter" in text
        assert "wape_files_scanned 7" in text
        assert "wape_loc_per_second 1234.5" in text
        assert 'wape_lat{quantile="0.5"} 0.25' in text
        assert "wape_lat_count 1" in text


# ---------------------------------------------------------------------------
# pipeline integration: spans through a real scan
# ---------------------------------------------------------------------------

def _write_app(tmp_path, n_files=3):
    for i in range(n_files):
        (tmp_path / f"f{i:03}.php").write_text(
            f"<?php $x{i} = $_GET['q{i}']; mysql_query($x{i});")


class TestScanTracing:
    def test_single_process_scan_produces_nested_file_spans(
            self, tool, tmp_path):
        _write_app(tmp_path)
        telemetry = Telemetry()
        report = tool.analyze_tree(str(tmp_path), ScanOptions(jobs=1, telemetry=telemetry))
        tracer = telemetry.tracer
        root = next(s for s in tracer.spans if s.parent_id is None)
        assert root.name == "analyze_tree"
        top = {s.name for s in tracer.children_of(root.span_id)}
        assert {"discover", "scan", "predict"} <= top
        by_name = {}
        for span in tracer.descendants_of(root.span_id):
            by_name.setdefault(span.name, []).append(span)
        assert len(by_name["file"]) == 3
        for stage in ("lex", "parse", "taint"):
            assert len(by_name[stage]) == 3
        # per-file stage spans nest under their file span
        file_ids = {s.span_id for s in by_name["file"]}
        assert all(s.parent_id in file_ids for s in by_name["lex"])
        assert report.stats is not None
        assert report.stats.candidates == 3

    @pytest.mark.slow
    def test_parallel_scan_merges_worker_spans(self, tool, tmp_path):
        # enough tiny files that both workers get chunks with certainty
        _write_app(tmp_path, n_files=48)
        telemetry = Telemetry()
        report = tool.analyze_tree(str(tmp_path), ScanOptions(jobs=2, telemetry=telemetry))
        tracer = telemetry.tracer
        root = next(s for s in tracer.spans if s.parent_id is None)
        scoped = tracer.descendants_of(root.span_id)
        chunks = [s for s in scoped if s.name == "chunk"]
        files = [s for s in scoped if s.name == "file"]
        workers = {s.worker for s in scoped if s.worker is not None}
        assert len(files) == 48
        assert chunks and all(c.worker is not None for c in chunks)
        assert len(workers) >= 2
        assert report.stats.workers == len(workers)
        # worker file spans are re-parented under their chunk spans
        chunk_ids = {c.span_id for c in chunks}
        assert all(f.parent_id in chunk_ids for f in files)

    def test_stats_phase_table_sums_to_wall_time(self, tool, tmp_path):
        _write_app(tmp_path)
        telemetry = Telemetry()
        report = tool.analyze_tree(str(tmp_path), ScanOptions(jobs=1, telemetry=telemetry))
        stats = report.stats
        total = sum(seconds for _name, seconds in stats.wall_phases)
        assert stats.total_seconds > 0
        assert abs(total - stats.total_seconds) \
            <= 0.10 * stats.total_seconds
        assert stats.wall_phases[-1][0] == "other"
        footer = report.render_stats()
        assert "phase breakdown (wall)" in footer
        assert "discover" in footer and "predict" in footer

    def test_trace_json_round_trip(self, tool, tmp_path):
        _write_app(tmp_path)
        telemetry = Telemetry()
        tool.analyze_tree(str(tmp_path), ScanOptions(jobs=1, telemetry=telemetry))
        out = tmp_path / "trace.json"
        write_trace(str(out), telemetry.tracer, tool=tool.version,
                    target=str(tmp_path))
        data = load_trace(str(out))  # validates the schema
        assert data["tool"] == tool.version
        assert len(data["spans"]) == len(telemetry.tracer.spans)

    def test_validate_trace_rejects_malformed(self):
        good = trace_to_dict(Tracer())
        with pytest.raises(ValueError):
            validate_trace({**good, "trace_format": 99})
        with pytest.raises(ValueError):
            validate_trace({**good, "spans": [{"id": 1}]})
        dangling = {**good, "spans": [
            {"id": 1, "parent": 7, "name": "x", "phase": "x",
             "start": 0.0, "duration": 0.1}]}
        with pytest.raises(ValueError):
            validate_trace(dangling)

    def test_metrics_counters_from_scan(self, tool, tmp_path):
        _write_app(tmp_path)
        # sink + source markers keep bad.php past the prefilter so its
        # parse error still shows in the counters
        (tmp_path / "bad.php").write_text("<?php echo $_GET if ( { {{")
        telemetry = Telemetry()
        tool.analyze_tree(str(tmp_path), ScanOptions(jobs=1, telemetry=telemetry))
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["files_scanned"] == 4
        assert counters["parse_errors"] == 1
        assert counters["candidates.sqli"] == 3


# ---------------------------------------------------------------------------
# satellites: cache surfacing, parse errors, worker fault logging
# ---------------------------------------------------------------------------

class TestScanHealth:
    def test_cache_counts_surface_without_telemetry(self, tool, tmp_path):
        _write_app(tmp_path)
        cache_dir = tmp_path / "cache"
        cold = tool.analyze_tree(str(tmp_path), ScanOptions(jobs=1, cache_dir=str(cache_dir)))
        warm = tool.analyze_tree(str(tmp_path), ScanOptions(jobs=1, cache_dir=str(cache_dir)))
        assert cold.cache is not None and cold.stats is None
        cold_results, warm_results = cold.cache["result"], \
            warm.cache["result"]
        assert (cold_results.hits, cold_results.misses) == (0, 3)
        assert cold_results.puts == 3
        assert (warm_results.hits, warm_results.misses) == (3, 0)
        assert warm_results.hit_rate == 1.0
        assert warm.to_dict()["cache"]["hits"] == 3
        assert "3 hits" in warm.render_stats()

    def test_corrupt_cache_entry_is_evicted_and_counted(self, tmp_path):
        def result_cache():
            return pipeline.ResultCache(CacheStore(str(tmp_path), "f" * 64))

        path = result_cache().store.path(RESULT)
        digest = pipeline.ResultCache.content_hash(b"<?php")
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as f:
            pickler = pickle.Pickler(f)
            pickler.dump({digest: b"not a pickle"})
            pickler.dump(({"": (1, 1)}, {digest: ("", 1)}))
        cache = result_cache()
        counts = cache.store.counts[RESULT]
        assert cache.get(digest, "a.php") is None
        assert (counts.misses, counts.evictions) == (1, 1)
        # the evicted entry stays evicted: next probe is a plain miss
        assert cache.get(digest, "a.php") is None
        assert (counts.misses, counts.evictions) == (2, 1)
        cache.flush()  # ... on disk too
        fresh = result_cache()
        counts = fresh.store.counts[RESULT]
        assert fresh.get(digest, "a.php") is None
        assert (counts.misses, counts.evictions) == (1, 0)

    def test_parse_error_diagnosable_from_json(self, tool, tmp_path):
        (tmp_path / "bad.php").write_text("<?php echo $_GET if ( { {{")
        (tmp_path / "ok.php").write_text("<?php echo 1;")
        telemetry = Telemetry()
        report = tool.analyze_tree(str(tmp_path), ScanOptions(jobs=1, telemetry=telemetry))
        doc = report.to_dict()
        assert doc["summary"]["parse_errors"] == 1
        errored = [f for f in doc["files"] if f["parse_error"]]
        assert len(errored) == 1
        assert "bad.php" in errored[0]["path"]
        first = doc["stats"]["first_parse_error"]
        assert "bad.php" in first["file"] and first["error"]

    @pytest.mark.slow
    def test_worker_crash_logged_with_file_and_cause(
            self, tool, tmp_path, monkeypatch):
        (tmp_path / "a.php").write_text("<?php mysql_query($_GET['q']);")
        (tmp_path / "kill.php").write_text("<?php /* DIE-NOW */ echo $_GET['k'];")
        (tmp_path / "z.php").write_text("<?php echo $_GET['x'];")
        monkeypatch.setenv(pipeline._CRASH_ENV, "DIE-NOW")
        telemetry = Telemetry()
        report = tool.analyze_tree(str(tmp_path), ScanOptions(jobs=2, telemetry=telemetry))
        stats = report.stats
        assert any("kill.php" in path for path, _ in stats.worker_retries)
        assert any("kill.php" in path and cause == "BrokenProcessPool"
                   for path, cause in stats.worker_crashes)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["worker_crashes"] >= 1
        assert counters["worker_retries"] >= 1
        retry_spans = [s for s in telemetry.tracer.spans
                       if s.name == "isolated_retry"
                       and "kill.php" in s.attrs.get("file", "")]
        assert retry_spans and retry_spans[0].attrs.get("crashed")
        footer = stats.render()
        assert "worker faults" in footer and "kill.php" in footer


# ---------------------------------------------------------------------------
# disabled path: no telemetry work at all
# ---------------------------------------------------------------------------

class TestDisabledOverhead:
    def test_null_singletons_are_shared_and_inert(self):
        assert NULL_TELEMETRY.enabled is False
        assert NULL_TELEMETRY.tracer is NULL_TRACER
        assert NULL_TELEMETRY.metrics is NULL_METRICS
        assert NULL_TRACER.span("x") is NULL_SPAN
        assert NULL_TRACER.span("x").__enter__() is NULL_SPAN
        inst = NULL_METRICS.counter("a")
        assert inst is NULL_METRICS.histogram("b")
        inst.inc()
        inst.observe(1.0)
        assert NULL_METRICS.snapshot()["counters"] == {}
        assert NULL_TRACER.spans == []

    def test_disabled_scan_records_nothing(self, tool, tmp_path):
        _write_app(tmp_path)
        report = tool.analyze_tree(str(tmp_path), ScanOptions(jobs=1))
        assert report.stats is None
        assert NULL_TRACER.spans == []
        assert NULL_METRICS.snapshot()["counters"] == {}

    def test_disabled_scan_makes_no_tracer_calls(self, tool, tmp_path,
                                                 monkeypatch):
        # the per-file hot path must not even call span() when disabled:
        # detect_file/detect_source guard on telemetry.enabled
        _write_app(tmp_path)
        calls = []
        original = NULL_TRACER.span

        def counting_span(name, phase="", **attrs):
            calls.append(name)
            return original(name, phase, **attrs)

        monkeypatch.setattr(NULL_TRACER, "span", counting_span,
                            raising=False)
        tool.analyze_tree(str(tmp_path), ScanOptions(jobs=1))
        monkeypatch.undo()
        # constant per-scan spans may pass through the null tracer, but
        # nothing proportional to the file count may
        per_file = [c for c in calls
                    if c in ("file", "lex", "parse", "taint", "split",
                             "predict_file", "cache_get", "cache_put")]
        assert per_file == []


# ---------------------------------------------------------------------------
# CLI flags
# ---------------------------------------------------------------------------

@pytest.mark.slow
class TestCliTelemetry:
    def test_stats_trace_and_metrics_flags(self, tmp_path):
        import subprocess
        import sys
        app = tmp_path / "app"
        app.mkdir()
        (app / "a.php").write_text(
            "<?php echo $_GET['x']; mysql_query($_GET['q']);")
        trace_out = tmp_path / "t.json"
        metrics_out = tmp_path / "m.prom"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "scan", "--jobs", "1", "--no-cache",
             "--stats", "--trace-out", str(trace_out),
             "--metrics-out", str(metrics_out), str(app)],
            capture_output=True, text=True)
        assert proc.returncode == 1  # vulnerabilities found
        assert "== scan statistics" in proc.stdout
        assert "phase breakdown (wall)" in proc.stdout
        data = load_trace(str(trace_out))
        assert any(s["name"] == "analyze_tree" for s in data["spans"])
        text = metrics_out.read_text()
        assert "wape_files_scanned 1" in text

    def test_json_report_embeds_stats(self, tmp_path):
        import subprocess
        import sys
        app = tmp_path / "app"
        app.mkdir()
        (app / "a.php").write_text("<?php echo $_GET['x'];")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "scan", "--jobs", "1", "--no-cache",
             "--stats", "--json", str(app)],
            capture_output=True, text=True)
        doc = json.loads(proc.stdout)
        assert doc["stats"]["files"] == 1
        assert doc["stats"]["wall_phases"][-1]["phase"] == "other"
