"""End-to-end scan daemon tests: HTTP protocol, warm re-scans, oracle."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.analysis.options import ScanOptions
from repro.exceptions import ServiceError
from repro.service import ScanService, ServiceClient
from repro.tool.report import SCHEMA_VERSION

DEMO_APP = os.path.join(os.path.dirname(__file__), os.pardir,
                        "examples", "demo_app")


@pytest.fixture(scope="module")
def service():
    """One daemon (ephemeral port) shared by the module's tests."""
    svc = ScanService(options=ScanOptions(jobs=1))
    svc.start_background()
    yield svc
    svc.server.shutdown()
    svc.close()


@pytest.fixture(scope="module")
def client(service):
    c = ServiceClient(port=service.port)
    c.wait_ready()
    return c


@pytest.fixture()
def app(tmp_path):
    root = tmp_path / "demo_app"
    shutil.copytree(DEMO_APP, root)
    return str(root)


def finding_set(report_dict):
    """Hashable identity of every finding in a report dict."""
    out = set()
    for entry in report_dict["files"]:
        rel = os.path.relpath(entry["path"], report_dict["target"])
        for finding in entry["findings"]:
            out.add((rel, finding["class"], finding["sink_line"],
                     finding["entry_line"], finding["verdict"]))
    return out


class TestProtocol:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["schema_version"] == SCHEMA_VERSION
        assert health["version"] == "WAPe"

    def test_scan_roundtrip(self, client, app):
        report = client.scan(app)
        assert report["schema_version"] == SCHEMA_VERSION
        assert report["service"]["incremental"] is False
        assert report["service"]["request_id"].startswith("req-")
        assert report["summary"]["real_vulnerabilities"] > 0

    def test_missing_root_field(self, client, service):
        with pytest.raises(ServiceError, match="root"):
            client.scan("")

    def test_nonexistent_root(self, client):
        with pytest.raises(ServiceError, match="not a directory"):
            client.scan("/no/such/dir/anywhere")

    def test_unknown_endpoint(self, client):
        status, raw = client._request("GET", "/v1/nope")
        assert status == 404
        assert "no such endpoint" in json.loads(raw)["error"]

    def test_invalid_json_body(self, client):
        import http.client
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=10)
        try:
            conn.request("POST", "/v1/scan", body=b"{nope",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 400
            assert "invalid JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_request_ids_are_unique_and_echoed(self, client):
        import http.client
        seen = set()
        for _ in range(3):
            conn = http.client.HTTPConnection(client.host, client.port,
                                              timeout=10)
            try:
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                response.read()
                seen.add(response.getheader("X-Request-Id"))
            finally:
                conn.close()
        assert len(seen) == 3
        assert all(rid and rid.startswith("req-") for rid in seen)

    def test_metrics_endpoint(self, client, app):
        client.scan(app)
        text = client.metrics_text()
        assert "# TYPE wape_scans_served_cold counter" in text
        assert "wape_scan_seconds_count" in text
        assert "wape_files_scanned" in text  # pipeline metrics flow in


class TestWarmRescans:
    def test_edit_reanalyzes_only_the_closure(self, client, app):
        first = client.scan(app)
        assert first["service"]["incremental"] is False
        dep = os.path.join(app, "includes", "input.php")
        with open(dep, "a", encoding="utf-8") as f:
            f.write("\n<?php // touched ?>\n")
        second = client.scan(app)
        info = second["service"]
        assert info["incremental"] is True
        # feed.php requires includes/input.php: exactly those two rescan
        assert set(info["dirty"]) == {"feed.php",
                                      os.path.join("includes",
                                                   "input.php")}
        assert info["analyzed_files"] == 2
        assert info["reused_files"] == \
            first["summary"]["files"] - 2

    def test_findings_diff_after_edit_is_exactly_the_new_flaw(
            self, client, app):
        base = finding_set(client.scan(app))
        with open(os.path.join(app, "profile.php"), "a",
                  encoding="utf-8") as f:
            f.write("\n<?php echo $_GET['svc_probe']; ?>\n")
        edited = finding_set(client.scan(app))
        assert base - edited == set()
        added = edited - base
        assert {(key[0], key[1]) for key in added} == \
            {("profile.php", "xss")}

    def test_forget_flag_forces_cold_scan(self, client, app):
        client.scan(app)
        report = client.scan(app, forget=True)
        assert report["service"]["incremental"] is False

    def test_timeout_turns_into_504_then_warm_retry(self, client,
                                                    service, app):
        with pytest.raises(ServiceError, match="exceeded"):
            client.scan(app, timeout=1e-6)
        # the timed-out scan kept running and warmed the state
        report = client.scan(app)
        assert report["service"]["incremental"] is True

    def test_queue_full_is_503_not_a_hang(self, service, app):
        svc = ScanService(tool=service.tool, max_queue=0,
                          options=ScanOptions(jobs=1))
        svc.start_background()
        try:
            c = ServiceClient(port=svc.port)
            c.wait_ready()
            with pytest.raises(ServiceError, match="queue full"):
                c.scan(app)
        finally:
            svc.server.shutdown()
            svc.close()


class TestLongLivedDaemon:
    def test_spans_do_not_outlive_their_request(self, service, app):
        """Regression: the daemon's tracer kept every span of every
        request, and each request's stats walked all of them."""
        svc = ScanService(tool=service.tool, options=ScanOptions(jobs=1))
        svc.start_background()
        try:
            c = ServiceClient(port=svc.port)
            c.wait_ready()
            target = os.path.join(app, "profile.php")
            for i in range(21):  # one cold scan, 20 one-file rescans
                if i:
                    with open(target, "a", encoding="utf-8") as f:
                        f.write(f"\n<?php // edit {i} ?>\n")
                report = c.scan(app)
                assert report["service"]["incremental"] is (i > 0)
                assert report["stats"]["wall_phases"]
                assert svc.telemetry.tracer.spans == []
        finally:
            svc.server.shutdown()
            svc.close()

    def test_warm_scans_never_measure_warm_state(self, service, app,
                                                 monkeypatch):
        """``root_info`` pickles a root's whole warm state: without a
        budget or a status call no scan may pay for it."""
        from repro.api import Scanner

        calls = []
        root_info = Scanner.root_info
        monkeypatch.setattr(
            Scanner, "root_info",
            lambda self, root: calls.append(root) or root_info(self, root))
        svc = ScanService(tool=service.tool, options=ScanOptions(jobs=1))
        svc.start_background()
        try:
            c = ServiceClient(port=svc.port)
            c.wait_ready()
            for _ in range(6):  # one cold scan, 5 warm ones
                c.scan(app)
            assert c.health()["warm_roots"] == [app]
        finally:
            svc.server.shutdown()
            svc.close()
        assert calls == []


class TestOracle:
    @pytest.mark.slow
    def test_daemon_and_cli_findings_are_byte_identical(self, client,
                                                        app, capsys):
        """Acceptance oracle: `wape scan --json` == daemon scan."""
        from repro.tool.cli import main as cli_main

        daemon_report = client.scan(app)
        cli_main(["--json", "--jobs", "1", "--no-cache", app])
        cli_report = json.loads(capsys.readouterr().out)

        def canonical(report):
            files = []
            for entry in sorted(report["files"],
                                key=lambda e: e["path"]):
                entry = dict(entry)
                entry.pop("seconds")
                entry["path"] = os.path.relpath(entry["path"],
                                                report["target"])
                files.append(entry)
            return json.dumps(files, sort_keys=True)

        assert canonical(daemon_report) == canonical(cli_report)


class TestServeCommand:
    @pytest.mark.slow
    def test_wape_serve_subprocess_end_to_end(self, app):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__),
                                         os.pardir, "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            line = proc.stdout.readline()
            assert "listening on http://127.0.0.1:" in line
            port = int(line.rsplit(":", 1)[1])
            client = ServiceClient(port=port)
            client.wait_ready(deadline=30.0)
            report = client.scan(app)
            assert report["summary"]["real_vulnerabilities"] > 0
            assert client.scan(app)["service"]["incremental"] is True
            client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestShutdown:
    def test_shutdown_endpoint_stops_the_daemon(self, service):
        svc = ScanService(tool=service.tool,
                          options=ScanOptions(jobs=1))
        thread = svc.start_background()
        try:
            c = ServiceClient(port=svc.port)
            c.wait_ready()
            assert c.shutdown() == {"status": "shutting down"}
            thread.join(timeout=10)
            assert not thread.is_alive()
            # the socket is closed, not left accepting connections that
            # nobody serves: a probe is refused instead of timing out
            probe = ServiceClient(port=svc.port, timeout=3.0)
            with pytest.raises(ServiceError, match="refused"):
                probe.health()
        finally:
            svc.close()


class TestValidationRegressions:
    def test_bool_timeout_is_rejected_with_400(self, client, app):
        """Regression: ``{"timeout": true}`` passed the numeric check
        (bool subclasses int) and silently became a 1-second timeout."""
        status, raw = client._request(
            "POST", "/v1/scan", {"root": app, "timeout": True})
        assert status == 400
        assert "timeout must be a positive number" in \
            json.loads(raw)["error"]

    def test_non_bool_forget_is_rejected(self, client, app):
        status, raw = client._request(
            "POST", "/v1/scan", {"root": app, "forget": "yes"})
        assert status == 400
        assert "forget must be a boolean" in json.loads(raw)["error"]

    def test_query_string_does_not_404_or_mislabel(self, client):
        """Regression: exact-path dispatch made ``/v1/health?probe=1``
        a 404 and collapsed its metric label into ``other``."""
        def health_count():
            label = ('wape_http_requests_total{endpoint="/v1/health",'
                     'method="GET",status="200"}')
            for line in client.metrics_text().splitlines():
                if line.startswith(label):
                    return float(line.rsplit(" ", 1)[1])
            return 0.0

        before = health_count()
        status, raw = client._request("GET", "/v1/health?probe=1&x=y")
        assert status == 200
        assert json.loads(raw)["status"] == "ok"
        assert health_count() == before + 1

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_malformed_content_length_is_400(self, client, length):
        """Regression: a negative Content-Length reached ``rfile.read``,
        which then read to EOF and parked the handler thread with no
        response; a non-numeric one raised ValueError and became a 500.
        """
        import socket
        request = (f"POST /v1/scan HTTP/1.1\r\nHost: {client.host}\r\n"
                   f"Content-Length: {length}\r\n\r\n").encode("ascii")
        with socket.create_connection((client.host, client.port),
                                      timeout=10) as sock:
            sock.sendall(request)
            response = b""
            while chunk := sock.recv(65536):  # the server closes
                response += chunk
        assert response.startswith(b"HTTP/1.1 400 ")
        body = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert "invalid Content-Length" in body["error"]
        assert client.health()["status"] == "ok"

    def test_non_dict_error_body_raises_service_error(self, client):
        """Regression: a JSON list/string error body crashed the client
        with AttributeError on ``.get`` instead of ServiceError."""
        for body in (b'["boom"]', b'"oops"', b'42'):
            broken = ServiceClient(port=client.port)
            broken._request = lambda *a, _b=body, **k: (500, _b)
            with pytest.raises(ServiceError, match="HTTP 500"):
                broken.health()


class TestStatusVisibility:
    def test_timed_out_scan_stays_in_status_until_done(self, service,
                                                       app):
        """Regression: the 504 path popped the request from
        ``_in_flight`` although the scan keeps running on the worker —
        ``/v1/status`` hid real work."""
        import time as _time
        # enough files that the cold scan comfortably outlives the 504
        for i in range(80):
            shutil.copytree(DEMO_APP, os.path.join(app, f"copy{i}"))
        c = ServiceClient(port=service.port)
        with pytest.raises(ServiceError, match="exceeded"):
            c.scan(app, timeout=1e-6)
        rows = [row for row in c.status()["in_flight"]
                if row["root"] == app]
        assert rows and rows[0]["timed_out"] is True
        deadline = _time.monotonic() + 120
        while _time.monotonic() < deadline:
            if not any(row["root"] == app
                       for row in c.status()["in_flight"]):
                break
            _time.sleep(0.2)
        else:
            pytest.fail("timed-out scan never left /v1/status")


class TestStreaming:
    def test_stream_events_match_blocking_scan(self, client, app):
        blocking = client.scan(app, forget=True)
        client.scan(app)  # ensure warm parity doesn't matter: re-stream
        events = list(client.scan_stream(app))
        assert events[0]["event"] == "scan_started"
        assert events[0]["request_id"].startswith("req-")
        assert events[-1]["event"] == "scan_done"
        files = [e for e in events[1:-1]]
        assert all(e["event"] == "file" for e in files)
        paths = [e["path"] for e in files]
        assert len(paths) == len(set(paths))
        # deterministic discovery order: a re-stream replays it exactly
        replay = [e["path"] for e in client.scan_stream(app)
                  if e["event"] == "file"]
        assert replay == paths
        report = events[-1]["report"]
        assert "files" not in report  # already streamed
        assert report["service"]["files_streamed"] == len(files)
        # findings streamed == findings of a blocking scan
        def stream_findings(file_events):
            out = set()
            for entry in file_events:
                rel = os.path.relpath(entry["path"], app)
                for finding in entry["findings"]:
                    out.add((rel, finding["class"], finding["sink_line"],
                             finding["entry_line"], finding["verdict"]))
            return out
        assert stream_findings(files) == finding_set(blocking)

    def test_stream_validation_errors_are_plain_json(self, client):
        import http.client
        conn = http.client.HTTPConnection(client.host, client.port,
                                          timeout=10)
        try:
            conn.request("POST", "/v1/scan?stream=1",
                         body=json.dumps({"root": "/no/such/dir"})
                         .encode(),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 404
            assert "not a directory" in \
                json.loads(response.read())["error"]
        finally:
            conn.close()


class TestDeltaAndSarif:
    def test_scan_with_baseline_returns_a_delta(self, client, app):
        baseline = client.scan(app)
        delta = client.scan(app, baseline=baseline)
        from repro.api import FindingsDelta
        assert isinstance(delta, FindingsDelta)
        assert not delta.changed
        assert delta.unchanged
        assert delta.report["service"]["request_id"].startswith("req-")

    def test_baseline_flags_an_injected_sink(self, client, app):
        baseline = client.scan(app)
        with open(os.path.join(app, "contact.php"), "a",
                  encoding="utf-8") as f:
            f.write("\n<?php echo $_GET['svc_injected']; ?>\n")
        delta = client.scan(app, baseline=baseline)
        assert len(delta.new) == 1
        assert delta.new[0]["file"] == "contact.php"
        assert not delta.fixed

    def test_baseline_accepts_a_report_file_path(self, client, app,
                                                 tmp_path):
        baseline = client.scan(app)
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline))
        delta = client.scan(app, baseline=str(path))
        assert not delta.changed

    def test_malformed_baseline_is_a_400(self, client, app):
        with pytest.raises(ServiceError, match="baseline"):
            client.scan(app, baseline={"schema_version": 2})
        with pytest.raises(ServiceError, match="baseline"):
            client.scan(app, baseline={"root": "not-a-report"})

    def test_sarif_format(self, client, app):
        sarif = client.scan_sarif(app)
        assert sarif["version"] == "2.1.0"
        results = sarif["runs"][0]["results"]
        assert results
        report = client.scan(app)
        assert len(results) == sum(len(e["findings"])
                                   for e in report["files"])

    def test_unknown_format_is_a_400(self, client, app):
        with pytest.raises(ServiceError, match="format"):
            client._json("POST", "/v1/scan?format=yaml", {"root": app})

    def test_stream_rejects_baseline_and_sarif(self, client, app):
        import http.client
        for query, body in (("stream=1&format=sarif", {"root": app}),
                            ("stream=1", {"root": app,
                                          "baseline": {"x": 1}})):
            conn = http.client.HTTPConnection(client.host, client.port,
                                              timeout=10)
            try:
                conn.request("POST", f"/v1/scan?{query}",
                             body=json.dumps(body).encode(),
                             headers={"Content-Type":
                                      "application/json"})
                assert conn.getresponse().status == 400
            finally:
                conn.close()
