"""Multi-worker daemon tests: sticky routing, supervision, streaming,
backpressure and eviction, plus the one response shape at any N."""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import pytest

from repro.analysis.options import ScanOptions
from repro.exceptions import ServiceError
from repro.service import ScanService, ServiceClient
from repro.service.fleet import CRASH_MARKER_ENV, HashRing
from repro.tool.wap import Wape

DEMO_APP = os.path.join(os.path.dirname(__file__), os.pardir,
                        "examples", "demo_app")


@pytest.fixture(scope="module")
def tool():
    return Wape()


@pytest.fixture(scope="module")
def crash_marker(tmp_path_factory):
    """Path workers watch for the crash injector (no file = no crash).

    Exported *before* the service forks its workers so every child (and
    every respawned child) inherits the variable.
    """
    marker = str(tmp_path_factory.mktemp("crash") / "crash-now")
    os.environ[CRASH_MARKER_ENV] = marker
    yield marker
    os.environ.pop(CRASH_MARKER_ENV, None)


@pytest.fixture(scope="module")
def fleet(tool, crash_marker):
    svc = ScanService(tool, ScanOptions(jobs=1), workers=2, max_queue=4)
    svc.start_background()
    yield svc
    svc.server.shutdown()
    svc.close()


@pytest.fixture(scope="module")
def client(fleet):
    c = ServiceClient(port=fleet.port)
    c.wait_ready()
    return c


@pytest.fixture()
def app(tmp_path):
    root = tmp_path / "demo_app"
    shutil.copytree(DEMO_APP, root)
    return str(root)


def two_apps(ring, tmp_path, same_worker):
    """Two demo-app copies the ring routes to one worker or to two."""
    first = tmp_path / "app-a"
    shutil.copytree(DEMO_APP, first)
    target = ring.route(str(first))
    for i in range(64):
        second = tmp_path / f"app-b{i}"
        if (ring.route(str(second)) == target) == same_worker:
            shutil.copytree(DEMO_APP, second)
            return str(first), str(second)
    raise AssertionError("ring never routed 65 paths as asked")


class TestHashRing:
    def test_routing_is_deterministic_and_balanced(self):
        ring = HashRing(4)
        routes = [ring.route(f"/srv/project-{i}") for i in range(400)]
        assert routes == [ring.route(f"/srv/project-{i}")
                          for i in range(400)]
        counts = [routes.count(w) for w in range(4)]
        assert all(count > 40 for count in counts)  # no starved shard

    def test_single_worker_ring(self):
        ring = HashRing(1)
        assert {ring.route(f"/p{i}") for i in range(10)} == {0}


class TestFleetProtocol:
    def test_health_and_status_shape(self, client, fleet):
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        status = client.status()
        assert len(status["workers"]) == 2
        for worker in status["workers"]:
            assert worker["alive"] is True
            assert isinstance(worker["pid"], int)
            assert worker["queue_depth"] == 0

    def test_sticky_routing_keeps_warm_state(self, client, fleet, app):
        cold = client.scan(app)
        warm = client.scan(app)
        assert cold["service"]["incremental"] is False
        assert warm["service"]["incremental"] is True
        assert cold["service"]["worker"] == warm["service"]["worker"] \
            == fleet.ring.route(app)
        assert warm["summary"]["real_vulnerabilities"] > 0

    def test_validation_shared_with_single_daemon(self, client, app):
        status, raw = client._request(
            "POST", "/v1/scan", {"root": app, "timeout": True})
        assert status == 400
        assert "timeout must be a positive number" in \
            json.loads(raw)["error"]
        status, raw = client._request("GET", "/v1/health?probe=1")
        assert status == 200

    def test_per_worker_metrics_labels(self, client, app):
        client.scan(app)
        text = client.metrics_text()
        assert 'wape_worker_scans_total{worker="' in text
        assert "wape_scan_requests" in text


class TestSupervision:
    def test_sigkilled_worker_is_respawned_and_request_retried(
            self, client, fleet, app):
        client.scan(app)  # warm it so the loss is observable
        index = fleet.ring.route(app)
        worker = fleet.workers[index]
        restarts_before = worker.restarts
        os.kill(worker.process.pid, signal.SIGKILL)
        report = client.scan(app)
        assert report["service"]["retried"] is True
        assert report["service"]["incremental"] is False  # fresh child
        assert report["summary"]["real_vulnerabilities"] > 0
        assert worker.restarts == restarts_before + 1
        assert worker.process.is_alive()
        status = client.status()
        assert status["workers"][index]["restarts"] == \
            restarts_before + 1

    def test_crash_marker_mid_request_is_retried_once(
            self, client, fleet, crash_marker, app):
        with open(crash_marker, "w", encoding="utf-8") as f:
            f.write("die\n")
        report = client.scan(app)
        assert report["service"]["retried"] is True
        assert report["summary"]["real_vulnerabilities"] > 0
        assert not os.path.exists(crash_marker)  # consumed exactly once
        assert client.scan(app)["service"]["retried"] is False


class TestFleetStreaming:
    def test_stream_orders_files_deterministically(self, client, app):
        events = list(client.scan_stream(app))
        assert events[0]["event"] == "scan_started"
        assert "worker" in events[0]
        assert events[-1]["event"] == "scan_done"
        paths = [e["path"] for e in events[1:-1]]
        assert paths and len(paths) == len(set(paths))
        # deterministic discovery order: a re-stream replays it exactly
        replay = [e["path"] for e in client.scan_stream(app)
                  if e["event"] == "file"]
        assert replay == paths
        report = events[-1]["report"]
        assert "files" not in report
        assert report["service"]["files_streamed"] == len(paths)


    def test_failover_streams_each_file_once(self, tool, app, tmp_path,
                                             monkeypatch):
        """Regression: a worker killed after relaying its first ``file``
        event was retried cold, and the retry streamed that file again
        (15 events for 14 files, ``files_streamed`` off by one)."""
        import repro.tool.report as report_module

        marker = tmp_path / "die-on-second-file"
        marker.write_text("die\n")
        real = report_module.file_report_dict
        calls = []

        def dying(*args, **kwargs):
            calls.append(1)
            if len(calls) >= 2 and marker.exists():
                marker.unlink()
                os._exit(3)
            return real(*args, **kwargs)

        # patched before the fork: the worker processes inherit it
        monkeypatch.setattr(report_module, "file_report_dict", dying)
        svc = ScanService(tool, ScanOptions(jobs=1), workers=2)
        svc.start_background()
        try:
            c = ServiceClient(port=svc.port)
            c.wait_ready()
            events = list(c.scan_stream(app))
        finally:
            svc.server.shutdown()
            svc.close()
        assert not marker.exists()  # the worker did die mid-stream
        paths = [e["path"] for e in events if e["event"] == "file"]
        report = events[-1]["report"]
        assert len(paths) == len(set(paths)) == report["summary"]["files"]
        assert report["service"]["files_streamed"] == \
            report["summary"]["files"]
        assert report["service"]["retried"] is True


def check_full_queue_rejects_with_503(tool, app, workers):
    svc = ScanService(tool, ScanOptions(jobs=1), workers=workers,
                      max_queue=0)
    svc.start_background()
    try:
        c = ServiceClient(port=svc.port)
        c.wait_ready()
        with pytest.raises(ServiceError, match="queue full"):
            c.scan(app)
        # one admission rule: a rejection is not a request
        totals = c.status()["requests"]
        assert (totals["total"], totals["rejections"]) == (0, 1)
    finally:
        svc.server.shutdown()
        svc.close()


def check_lru_eviction_under_tiny_budget(tool, tmp_path, workers):
    svc = ScanService(tool, ScanOptions(jobs=1), workers=workers,
                      memory_budget_mb=0.01)
    svc.start_background()
    try:
        c = ServiceClient(port=svc.port)
        c.wait_ready()
        roots = two_apps(svc.ring, tmp_path, same_worker=True)
        c.scan(roots[0])
        c.scan(roots[1])  # budget blown: roots[0] must be evicted
        status = c.status()
        warm = [r["root"] for r in status["roots"]]
        assert roots[0] not in warm
        worker = svc.ring.route(roots[0])
        assert status["workers"][worker]["evictions"] >= 1
        # evicted root re-scans cold, not incorrectly
        assert c.scan(roots[0])["service"]["incremental"] is False
    finally:
        svc.server.shutdown()
        svc.close()


class TestBackpressureAndEviction:
    def test_full_worker_queue_rejects_with_503(self, tool, app):
        check_full_queue_rejects_with_503(tool, app, workers=1)

    def test_full_worker_queue_rejects_with_503_two_workers(self, tool,
                                                            app):
        check_full_queue_rejects_with_503(tool, app, workers=2)

    def test_lru_eviction_under_tiny_budget(self, tool, tmp_path):
        check_lru_eviction_under_tiny_budget(tool, tmp_path, workers=1)

    def test_lru_eviction_two_roots_on_one_of_two_workers(self, tool,
                                                          tmp_path):
        check_lru_eviction_under_tiny_budget(tool, tmp_path, workers=2)


HEALTH_KEYS = {"status", "version", "schema_version", "uptime_seconds",
               "warm_roots", "requests", "pending", "workers"}
STATUS_KEYS = {"status", "version", "schema_version", "run_id",
               "uptime_seconds", "queue_depth", "max_queue", "in_flight",
               "requests", "prefilter", "workers", "roots"}
WORKER_ROW_KEYS = {"worker", "pid", "alive", "queue_depth", "scans",
                   "restarts", "evictions", "current_request",
                   "warm_roots", "approx_bytes"}
ROOT_ROW_KEYS = {"root", "warm", "files", "results", "candidates",
                 "approx_bytes", "worker"}
PREFILTER_KEYS = {"skipped", "dep_only", "sink_bearing", "skip_rate"}
SERVICE_KEYS = {"request_id", "incremental", "analyzed_files",
                "reused_files", "dirty", "seconds", "queue_seconds",
                "worker", "retried"}


class TestOneShape:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_health_status_and_service_keys(self, tool, app, workers):
        svc = ScanService(tool, ScanOptions(jobs=1), workers=workers)
        svc.start_background()
        try:
            c = ServiceClient(port=svc.port)
            c.wait_ready()
            report = c.scan(app)
            streamed = list(c.scan_stream(app))[-1]["report"]
            health, status = c.health(), c.status()
        finally:
            svc.server.shutdown()
            svc.close()
        assert set(health) == HEALTH_KEYS
        assert health["workers"] == workers
        assert set(status) == STATUS_KEYS
        assert len(status["workers"]) == workers
        for row in status["workers"]:
            assert set(row) == WORKER_ROW_KEYS
            assert row["alive"] is True and row["restarts"] == 0
        if workers == 1:
            assert status["workers"][0]["pid"] == os.getpid()
        assert [set(row) for row in status["roots"]] == [ROOT_ROW_KEYS]
        assert set(status["prefilter"]) == PREFILTER_KEYS
        assert status["prefilter"]["sink_bearing"] > 0
        assert set(report["service"]) == SERVICE_KEYS
        assert set(streamed["service"]) == SERVICE_KEYS | {"files_streamed"}

    def test_scan_bodies_are_sorted_json_of_a_cold_report(self, tool,
                                                          tmp_path):
        """The bodies the front door joins from the head and the encoded
        entries a worker process sends."""
        from test_service import check_body_bytes
        check_body_bytes(tool, tmp_path, workers=2)


#: a pure-Python job that reports its own wall time once told to start.
_BURNER = ("import sys, time\n"
           "print('ready', flush=True)\n"
           "sys.stdin.readline()\n"
           "start = time.perf_counter()\n"
           "total = 0\n"
           "for i in range(1_000_000):\n"
           "    total += i\n"
           "print(time.perf_counter() - start)\n")


def burner_ratio() -> float:
    """How much slower two pure-Python processes run side by side than
    one alone, right now: ~1 when the host has two idle CPUs, ~2 when
    the two share one."""
    def run(n: int) -> float:
        procs = [subprocess.Popen([sys.executable, "-I", "-S", "-c",
                                   _BURNER], stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(n)]
        for proc in procs:  # all started up before any starts burning
            proc.stdout.readline()
        for proc in procs:
            proc.stdin.write("go\n")
            proc.stdin.flush()
        return max(float(proc.communicate(timeout=60)[0])
                   for proc in procs)

    return run(2) / run(1)


def scan_together(client, roots) -> tuple[dict, float]:
    """Scan *roots* at once, one client thread each (forgetting their
    warm state): ({root: report}, wall seconds of the lot)."""
    results = {}

    def scan(root):
        results[root] = ServiceClient(port=client.port).scan(
            root, forget=True)

    threads = [threading.Thread(target=scan, args=(root,))
               for root in roots]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return results, time.perf_counter() - start


class TestParallelism:
    def test_distinct_roots_scan_concurrently(self, client, fleet,
                                              tmp_path):
        """Service side: two roots go to two workers, and neither
        request waits for the other (one queued behind the other's scan
        would wait a whole scan)."""
        first, second = two_apps(fleet.ring, tmp_path, same_worker=False)
        alone = client.scan(first, forget=True)
        results, _pair = scan_together(client, (first, second))
        assert results[first]["summary"]["real_vulnerabilities"] > 0
        assert results[second]["summary"]["real_vulnerabilities"] > 0
        assert results[first]["service"]["worker"] != \
            results[second]["service"]["worker"]
        for root in (first, second):
            assert results[root]["service"]["queue_seconds"] < \
                0.5 * alone["service"]["seconds"], results[root]["service"]

    def test_pair_takes_less_than_two_scans(self, client, fleet,
                                            tmp_path):
        """Wall clock: true process parallelism, where the host has two
        CPUs to give; measured around the scans, not assumed from
        ``os.cpu_count()``, because a shared host may not give them.
        One scan takes some 8-17 ms, so one slow scan must not decide: the
        median of nine single scans is compared with the median of nine
        pairs, taken in turn.

        A shared host may hold back its second CPU for seconds at a time
        and then give it again. So a round whose burners, before or after
        the scans, ran 1.5x or more as long as one is dropped whatever its
        scans measured, and the bar is held on the first of up to ten
        rounds that had two CPUs all through."""
        first, second = two_apps(fleet.ring, tmp_path, same_worker=False)
        dropped = []
        for _ in range(10):
            before = burner_ratio()
            if before >= 1.5:
                dropped.append(f"{before:.2f}x before")
                continue
            singles, pairs = [], []
            for _ in range(9):
                single_start = time.perf_counter()
                client.scan(first, forget=True)
                singles.append(time.perf_counter() - single_start)
                pairs.append(scan_together(client, (first, second))[1])
            after = burner_ratio()
            if after < 1.5:
                break
            dropped.append(f"{before:.2f}x before, {after:.2f}x after")
        else:
            pytest.skip("in each of ten rounds two burner processes ran "
                        "1.5x or more the time of one around the scans: "
                        + "; ".join(dropped))
        single, pair = statistics.median(singles), statistics.median(pairs)
        assert pair < 1.9 * single, (pairs, singles, before, after)


class TestServeWorkersCommand:
    @pytest.mark.slow
    def test_wape_serve_workers_subprocess_end_to_end(self, app):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__),
                                         os.pardir, "src")
        env.pop(CRASH_MARKER_ENV, None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2", "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            line = proc.stdout.readline()
            assert "listening on http://127.0.0.1:" in line
            port = int(line.rsplit(":", 1)[1])
            client = ServiceClient(port=port)
            client.wait_ready(deadline=60.0)
            assert client.health()["workers"] == 2
            report = client.scan(app)
            assert report["summary"]["real_vulnerabilities"] > 0
            assert "worker" in report["service"]
            client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
