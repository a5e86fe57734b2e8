"""Daemon observability: ``/v1/status``, labeled metrics, ``wape top``.

Runs one logger-equipped daemon on an ephemeral port and checks the live
surfaces added by the scan observatory:

* ``GET /v1/status`` — uptime, queue depth, request totals, warm
  per-root state with approximate resident bytes;
* ``GET /metrics`` — per-endpoint request counters and latency
  histograms labeled by endpoint/method/status, plus the queue gauge;
* the service log — every request leaves correlated events
  (``scan_queued`` ... ``scan_served``) under the daemon's ``srv-`` run
  id and the request's ``X-Request-Id``;
* ``wape top`` — ``render_status`` and the ``--once`` liveness probe.
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from repro.analysis.options import ScanOptions
from repro.obs import JsonlLogger
from repro.service import ScanService, ServiceClient
from repro.tool.top import main as top_main
from repro.tool.top import render_status

DEMO_APP = os.path.join(os.path.dirname(__file__), os.pardir,
                        "examples", "demo_app")


@pytest.fixture(scope="module")
def log_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("obs") / "service.jsonl")


@pytest.fixture(scope="module")
def service(log_path):
    svc = ScanService(options=ScanOptions(jobs=1),
                      logger=JsonlLogger(path=log_path))
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


class TestStatusEndpoint:
    def test_status_shape(self, client, service):
        status = client.status()
        assert status["status"] == "ok"
        assert status["run_id"].startswith("srv-")
        assert status["uptime_seconds"] >= 0
        assert status["queue_depth"] == 0
        assert status["max_queue"] == service.max_queue
        assert status["in_flight"] == []
        totals = status["requests"]
        assert set(totals) >= {"served", "errors", "timeouts",
                               "rejections"}

    def test_warm_root_appears_with_size_estimate(self, client, app):
        client.scan(app)
        status = client.status()
        roots = {r["root"]: r for r in status["roots"]}
        assert app in roots
        entry = roots[app]
        assert entry["warm"] is True
        assert entry["files"] > 0 and entry["candidates"] > 0
        assert entry["approx_bytes"] is None \
            or entry["approx_bytes"] > 0
        assert status["requests"]["served"] >= 1


class TestLabeledMetrics:
    def test_request_metrics_carry_endpoint_labels(self, client, app):
        client.scan(app)
        client.health()
        text = client.metrics_text()
        assert ('wape_http_requests_total{endpoint="/v1/health",'
                'method="GET",status="200"}') in text
        assert ('wape_http_requests_total{endpoint="/v1/scan",'
                'method="POST",status="200"}') in text
        assert ('wape_http_request_seconds{endpoint="/v1/scan",'
                'method="POST",status="200",quantile="0.95"}') in text
        assert text.count(
            "# TYPE wape_http_requests_total counter") == 1
        assert "wape_queue_depth 0" in text

    def test_unknown_endpoints_fold_into_other(self, client):
        client._request("GET", "/v1/nope")
        text = client.metrics_text()
        assert ('wape_http_requests_total{endpoint="other",'
                'method="GET",status="404"}') in text


class TestServiceLog:
    def test_request_events_are_correlated(self, client, app, log_path,
                                           service):
        report = client.scan(app)
        request_id = report["service"]["request_id"]
        with open(log_path, encoding="utf-8") as f:
            records = [json.loads(line) for line in f]
        mine = [r for r in records if r.get("request_id") == request_id]
        events = [r["event"] for r in mine]
        assert "scan_queued" in events and "scan_served" in events
        assert all(r["run_id"] == service.run_id for r in mine)
        # pipeline events from the scan share the daemon's run id too
        assert any(r["event"] == "scan_start" for r in records)

    def test_a_given_recorder_keeps_its_log(self, service):
        from repro.telemetry import Telemetry
        # its log is the service's: a second logger would go unused
        with pytest.raises(ValueError, match="log"):
            ScanService(service.tool,
                        ScanOptions(jobs=1, telemetry=Telemetry()),
                        logger=JsonlLogger())


class TestWapeTop:
    def test_render_status_panel(self, client, app):
        client.scan(app)
        panel = render_status(client.status())
        assert "wape daemon" in panel and "uptime" in panel
        assert "warm roots (" in panel
        assert app in panel

    def test_once_snapshot_and_unreachable_probe(self, service, capsys):
        assert top_main(["--port", str(service.port), "--once"]) == 0
        assert "wape daemon" in capsys.readouterr().out
        # a port nothing listens on: exit 1, message on stderr
        assert top_main(["--port", "1", "--once"]) == 1
        assert "unreachable" in capsys.readouterr().err
