"""Cross-process observability: worker log segments and crash events.

The structured log is part of the run's ``Telemetry``, next to the
tracer and the metrics: workers buffer records in segment mode, and each
chunk ships its spans, counters and records home in one batch, stamped
with the worker pid, that the parent absorbs at chunk join. These tests
prove the merged file tells one coherent story — every record carries
the scan's run id, worker events carry the producing pid, a worker crash
(the ``REPRO_PIPELINE_CRASH_MARKER`` seam) surfaces as ``worker_crash``/
``worker_retry`` events in the same log, and all three streams arrive
through one absorb per chunk.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import pipeline
from repro.analysis.options import ScanOptions
from repro.obs import JsonlLogger
from repro.telemetry import Telemetry
from repro.tool.wap import Wape

RUN_ID = "run-obs-test-0001"


@pytest.fixture(scope="module")
def tool():
    return Wape()


def _write_app(root, n_files: int) -> None:
    for i in range(n_files):
        (root / f"page{i}.php").write_text(
            "<?php\n"
            f"$q{i} = $_GET['q{i}'];\n"
            f"mysql_query(\"SELECT {i} FROM t WHERE a = '$q{i}'\");\n")


def _scan_logged(tool, root, tmp_path, jobs: int,
                 traced: bool = False) -> list[dict]:
    path = tmp_path / "scan.jsonl"
    telemetry = Telemetry(traced, log=JsonlLogger(path=str(path)),
                          run_id=RUN_ID)
    try:
        tool.analyze_tree(str(root), ScanOptions(jobs=jobs,
                                                 telemetry=telemetry))
    finally:
        telemetry.log.close()
    return [json.loads(line)
            for line in path.read_text().splitlines()]


@pytest.mark.slow
class TestWorkerLogMerging:
    def test_parallel_scan_merges_worker_segments(self, tool, tmp_path):
        # enough tiny files that both workers get chunks with certainty
        app = tmp_path / "app"
        app.mkdir()
        _write_app(app, n_files=48)
        records = _scan_logged(tool, app, tmp_path, jobs=2)

        events = [r["event"] for r in records]
        assert events[0] == "scan_start" and events[-1] == "scan_done"
        assert all(r["run_id"] == RUN_ID for r in records)

        chunks = [r for r in records if r["event"] == "chunk_scanned"]
        assert chunks and all(isinstance(r.get("worker"), int)
                              for r in chunks)
        assert len({r["worker"] for r in chunks}) >= 2
        assert sum(r["files"] for r in chunks) == 48

    def test_worker_crash_lands_in_the_merged_log(self, tool, tmp_path,
                                                  monkeypatch):
        app = tmp_path / "app"
        app.mkdir()
        _write_app(app, n_files=4)
        (app / "kill.php").write_text("<?php /* DIE-NOW */ echo $_GET['k'];")
        monkeypatch.setenv(pipeline._CRASH_ENV, "DIE-NOW")
        records = _scan_logged(tool, app, tmp_path, jobs=2)

        crashes = [r for r in records if r["event"] == "worker_crash"]
        retries = [r for r in records if r["event"] == "worker_retry"]
        assert crashes and "kill.php" in crashes[0]["file"]
        assert crashes[0]["level"] == "error"
        assert crashes[0]["run_id"] == RUN_ID
        assert retries and "kill.php" in retries[0]["file"]
        # the scan itself still completes and says so
        assert records[-1]["event"] == "scan_done"
        assert records[-1]["crashes"] >= 1

    def test_one_absorb_per_chunk_carries_all_three_streams(
            self, tool, tmp_path, monkeypatch):
        app = tmp_path / "app"
        app.mkdir()
        _write_app(app, n_files=48)
        batches = []
        absorb = Telemetry.absorb

        def recording_absorb(self, batch, parent_id=None):
            batches.append(batch)
            absorb(self, batch, parent_id)

        monkeypatch.setattr(Telemetry, "absorb", recording_absorb)
        records = _scan_logged(tool, app, tmp_path, jobs=2, traced=True)

        chunks = [r for r in records if r["event"] == "chunk_scanned"]
        assert len(batches) == len(chunks) >= 2
        for spans, counters, logged in batches:
            pids = {span.worker for span in spans}
            assert len(pids) == 1 and None not in pids
            pid = pids.pop()
            assert [s.name for s in spans].count("chunk") == 1
            files = sum(1 for s in spans if s.name == "file")
            assert counters["files_scanned"] == files
            assert [r["event"] for r in logged] == ["chunk_scanned"]
            assert logged[0]["worker"] == pid
            assert logged[0]["files"] == files
            assert logged[0]["run_id"] == RUN_ID
        assert sum(b[1]["files_scanned"] for b in batches) == 48
