"""The scan daemon: warm :class:`~repro.api.Scanner` workers behind local HTTP.

Protocol (all JSON unless noted):

==========================  =============================================
``GET /v1/health``          liveness + uptime, warm roots, request count,
                            worker count
``GET /v1/status``          live operations view: queue depth, in-flight
                            requests (including timed-out scans still
                            running on the worker), request outcome
                            totals, cumulative prefilter tier counts, one
                            row per worker, per-root warm state with
                            approximate resident bytes (what ``wape top``
                            renders)
``GET /metrics``            Prometheus text exposition of the service's
                            metrics registry (scan counters, queue and
                            latency histograms — including per-endpoint
                            labeled request counts/latencies — per-worker
                            counters, and, with the in-process worker,
                            everything the analysis pipeline records)
``POST /v1/scan``           body ``{"root": path, "timeout": seconds?,
                            "forget": bool?, "baseline": report?}`` → a
                            schema-versioned report whose ``service``
                            block says what the scan did (incremental?,
                            files re-analyzed, queue time, request id,
                            worker, retried?); with ``baseline`` the
                            response also carries a ``delta`` block
                            (new/fixed/unchanged findings by
                            fingerprint); with ``?format=sarif`` the
                            response is a SARIF 2.1.0 log
                            (``application/sarif+json``) instead of a
                            report
``POST /v1/scan?stream=1``  same body → ``application/x-ndjson``: one
                            ``scan_started`` event, one ``file`` event
                            per file as its verdicts are finalized (in
                            report order, each path once), and a terminal
                            ``scan_done`` event carrying the report's
                            head: every key but the ``files`` array
                            (already streamed) — or a terminal ``error``
                            event
``POST /v1/shutdown``       graceful stop: finish in-flight work, stop
                            accepting connections
==========================  =============================================

Endpoint dispatch ignores the query string (``GET /v1/health?probe=1``
is the health endpoint, and is labeled as such in the metrics).

Concurrency model: HTTP connections are handled on their own threads
(:class:`~http.server.ThreadingHTTPServer`), but each worker runs ONE
scan at a time — :class:`~repro.api.Scanner` serializes its scans (only
its warm-state *reads* are thread-safe), and serializing scans is what
makes the warm-state bookkeeping trivially correct.  ``workers=1`` is a
scan thread in this process; ``workers>1`` are forked processes (see
:mod:`repro.service.fleet`), each owning the roots the hash ring routes
to it.  Requests queue per worker in FIFO order; a bounded queue
(``max_queue``) turns overload into an immediate ``503`` instead of
unbounded memory growth, and a per-request timeout turns a stuck scan
into a ``504`` *without* killing the scan — it keeps running on the
worker and warms the state for the retry.  A timed-out request stays
visible in ``/v1/status`` (flagged ``timed_out``) until its scan
actually finishes.

Every response carries an ``X-Request-Id`` header (also in the JSON
body for scans, and on the request's ``--log`` events).

A JSON scan body is ``json.dumps(report, sort_keys=True)`` byte for
byte, but is never encoded whole: :func:`~repro.tool.report.encode_report`
joins the report's head with the encoded ``files`` entries the worker
sends, each kept on its file report, so a warm request encodes only the
entries of the files it re-predicted.  A SARIF or ``baseline`` request
decodes the entries once.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.api import ScanOptions
from repro.exceptions import ServiceError
from repro.obs.log import NULL_LOG, new_run_id
from repro.service.fleet import FleetWorker, HashRing, LocalWorker, _Job
from repro.telemetry import PrefilterStats, Telemetry, metrics_to_text
from repro.tool.report import SCHEMA_VERSION, encode_report

#: request bodies above this are rejected outright (a scan request is a
#: couple hundred bytes; anything larger is a mistake or abuse).
MAX_BODY_BYTES = 1 << 20

#: default per-request timeout when neither the server nor the request
#: says otherwise.
DEFAULT_TIMEOUT = 300.0

#: HTTP status of each failed scan's terminal event kind
_STATUS = {"timeout": 504, "error": 500}


class _HttpError(ServiceError):
    """A request failure with a definite HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def validate_scan_payload(payload, default_timeout: float
                          ) -> tuple[str, float, bool]:
    """Validate a ``/v1/scan`` request body → ``(root, timeout, forget)``.

    Shared by the blocking and streaming scan endpoints so both reject
    the same garbage the same way.  Note the explicit ``bool``
    exclusion: ``isinstance(True, int)`` holds in Python, so without it
    ``{"timeout": true}`` silently became a 1-second timeout.
    """
    if not isinstance(payload, dict):
        raise _HttpError(400, "request body must be a JSON object")
    root = payload.get("root")
    if not isinstance(root, str) or not root:
        raise _HttpError(400, "missing required field: root")
    root = os.path.abspath(root)
    if not os.path.isdir(root):
        raise _HttpError(404, f"not a directory: {root}")
    timeout = payload.get("timeout", default_timeout)
    if isinstance(timeout, bool) \
            or not isinstance(timeout, (int, float)) or timeout <= 0:
        raise _HttpError(400, "timeout must be a positive number")
    forget = payload.get("forget", False)
    if not isinstance(forget, bool):
        raise _HttpError(400, "forget must be a boolean")
    return root, float(timeout), forget


class ScanService:
    """The daemon's one front door: HTTP, admission, routing, accounting.

    Every endpoint is defined once, here.  Each ``/v1/scan`` is routed
    over a :class:`~repro.service.fleet.HashRing` to one worker:
    ``workers=1`` runs one in-process
    :class:`~repro.service.fleet.LocalWorker` (a scan thread sharing the
    service's telemetry, its log included); ``workers>1`` forks that many
    :class:`~repro.service.fleet.FleetWorker` processes.  Both answer on
    the same job events, so scans, streams, ``/v1/health`` and
    ``/v1/status`` have the same shape at any worker count.

    Args:
        tool: tool facade to scan with; a fresh ``Wape()`` (predictor
            training included — the cost the daemon exists to amortize)
            when omitted.  Process workers inherit it through ``fork``.
        options: :class:`ScanOptions` for every scan.  The service needs
            live telemetry for ``/metrics``; when *options* does not
            already carry a :class:`Telemetry` instance (whose log and
            run id then are the service's), one is created with
            *logger* and a ``srv-`` run id.  At ``workers=1`` it is
            threaded into the scans.
        host/port: bind address; ``port=0`` picks an ephemeral port
            (``self.port`` has the real one — how the tests run).
        workers: scan workers (≥ 1): one in-process thread at 1, forked
            processes above.
        max_queue: scans queued or running per worker before new ones
            routed to it get ``503``.
        request_timeout: default seconds a request waits for its scan.
        memory_budget_mb: per-worker warm-state budget; ``None`` keeps
            every root warm forever.
        log: ``callable(str)`` for one-line request logs; ``None`` keeps
            the daemon silent.
        logger: a :class:`repro.obs.JsonlLogger` for structured events
            (``wape serve --log``), the log of the service's telemetry:
            records carry its run id and each scan's ``request_id``, and
            at ``workers=1`` pipeline events (pool workers' included)
            land in the same file.
    """

    def __init__(self, tool=None, options: ScanOptions | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 workers: int = 1, max_queue: int = 8,
                 request_timeout: float = DEFAULT_TIMEOUT,
                 memory_budget_mb: float | None = None,
                 log=None, logger=None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.options = options if options is not None else ScanOptions()
        if isinstance(self.options.telemetry, Telemetry):
            if logger is not None:
                raise ValueError("options carry a Telemetry: pass the "
                                 "logger as its log")
            self.telemetry = self.options.telemetry
        else:
            self.telemetry = Telemetry(
                log=logger if logger is not None else NULL_LOG,
                run_id=new_run_id().replace("run-", "srv-", 1))
        if tool is None:
            from repro.tool.wap import Wape
            tool = Wape()
        self.tool = tool
        self.run_id = self.telemetry.run_id
        self.logger = self.telemetry.log
        self.max_queue = max_queue
        self.request_timeout = request_timeout
        self._log = log
        self._lock = threading.Lock()
        self._started = time.time()
        self._seq = itertools.count(1)
        self._shutting_down = False
        self._requests = 0
        #: request_id -> {root, worker, started, timed_out} for requests
        #: between queueing and scan completion; the live rows of
        #: ``/v1/status``.  A row outlives its HTTP response when the
        #: response was a 504: the scan keeps running on the worker
        #: (that is the documented warm-retry contract), so the row
        #: stays — flagged ``timed_out`` — until the job finishes.
        self._in_flight: dict[str, dict] = {}
        metrics = self.telemetry.metrics
        budget = int(memory_budget_mb * (1 << 20)) \
            if memory_budget_mb else None
        self.ring = HashRing(workers)
        # workers first: process workers fork before the socket exists
        if workers == 1:
            local = dataclasses.replace(self.options,
                                        telemetry=self.telemetry)
            self.workers = [LocalWorker(tool, local, max_queue, budget,
                                        metrics)]
        else:
            self.workers = [
                FleetWorker(index, tool, self.options, max_queue, budget,
                            metrics, self.log)
                for index in range(workers)]
        self.server = _ScanHTTPServer((host, port), _Handler, self)
        self.host, self.port = self.server.server_address[:2]
        metrics.gauge("queue_depth").set(0)
        metrics.gauge("workers").set(workers)

    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    def new_request_id(self) -> str:
        return f"req-{next(self._seq):06d}-{os.urandom(4).hex()}"

    def log(self, message: str) -> None:
        if self._log is not None:
            self._log(message)

    def metrics_text(self) -> str:
        return metrics_to_text(self.telemetry.metrics, prefix="wape")

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Serve until :meth:`shutdown` (or ``POST /v1/shutdown``)."""
        self.log(f"listening on {self.address}")
        try:
            self.server.serve_forever(poll_interval=0.1)
        finally:
            self.close()

    def start_background(self) -> threading.Thread:
        """Run :meth:`serve_forever` on a daemon thread; returns it."""
        thread = threading.Thread(target=self.serve_forever,
                                  name="wape-serve", daemon=True)
        thread.start()
        return thread

    def shutdown(self) -> None:
        """Stop accepting requests and let in-flight work finish."""
        with self._lock:
            if self._shutting_down:
                return
            self._shutting_down = True
        # shutdown() blocks until serve_forever returns, so it must run
        # off the handler thread when triggered by POST /v1/shutdown
        threading.Thread(target=self.server.shutdown,
                         name="wape-shutdown", daemon=True).start()

    def close(self) -> None:
        """Release the socket and stop the workers (idempotent)."""
        self._shutting_down = True
        self.server.server_close()
        for worker in self.workers:
            worker.stop()

    # ------------------------------------------------------------------
    # endpoint implementations (called from handler threads)
    def health(self) -> dict:
        with self._lock:
            requests = self._requests
        warm: list[str] = []
        for worker in self.workers:
            warm.extend(worker.warm_roots())
        return {
            "status": "ok",
            "version": self.tool.version,
            "schema_version": SCHEMA_VERSION,
            "uptime_seconds": round(time.time() - self._started, 3),
            "warm_roots": sorted(warm),
            "requests": requests,
            "pending": sum(w.pending for w in self.workers),
            "workers": len(self.workers),
        }

    def status(self) -> dict:
        """The live operations view behind ``GET /v1/status``.

        Everything ``health()`` says plus queue depth, each in-flight
        request with its elapsed time (timed-out-but-still-running scans
        included, flagged ``timed_out``), request outcome totals,
        cumulative prefilter tier counts, one row per worker, and the
        warm per-root state (file/result/finding counts and an
        approximate resident size) — what ``wape top`` renders.
        """
        now = time.time()
        with self._lock:
            requests = self._requests
            in_flight = [
                {"request_id": request_id,
                 "root": info["root"],
                 "worker": info["worker"],
                 "elapsed_seconds": round(now - info["started"], 3),
                 "timed_out": info["timed_out"]}
                for request_id, info in self._in_flight.items()]
        metrics = self.telemetry.metrics
        workers = []
        roots = []
        prefilter = PrefilterStats()
        for worker in self.workers:
            worker_roots = worker.roots_info()
            prefilter += worker.prefilter_totals()
            with worker._lock:
                workers.append({
                    "worker": worker.index,
                    "pid": worker.pid,
                    "alive": worker.alive,
                    "queue_depth": worker.pending,
                    "scans": worker.scans,
                    "restarts": worker.restarts,
                    "evictions": worker.evictions,
                    "current_request": worker.current,
                    "warm_roots": len(worker_roots),
                    "approx_bytes": sum(r.get("approx_bytes") or 0
                                        for r in worker_roots),
                })
            roots.extend(dict(r, worker=worker.index)
                         for r in worker_roots)
        return {
            "status": "ok",
            "version": self.tool.version,
            "schema_version": SCHEMA_VERSION,
            "run_id": self.run_id,
            "uptime_seconds": round(now - self._started, 3),
            "queue_depth": sum(w["queue_depth"] for w in workers),
            "max_queue": self.max_queue,
            "in_flight": in_flight,
            "requests": {
                "total": requests,
                "served": metrics.counter("scan_requests").value,
                "errors": metrics.counter("scan_errors").value,
                "timeouts": metrics.counter("scan_timeouts").value,
                "rejections": metrics.counter("queue_rejections").value,
            },
            "prefilter": prefilter.to_dict(),
            "workers": workers,
            "roots": roots,
        }

    # ------------------------------------------------------------------
    def _request_logger(self, request_id: str):
        return self.logger.bind(request_id=request_id)

    def _admit(self, request_id: str, root: str, forget: bool,
               stream: bool, logger) -> _Job:
        """Route + admit: returns the queued job or raises 503.

        A rejected request counts in ``rejections``, not in the request
        total.
        """
        worker = self.workers[self.ring.route(root)]
        metrics = self.telemetry.metrics

        def finished(job: _Job) -> None:
            worker.job_finished()
            with self._lock:
                self._in_flight.pop(job.request_id, None)
            metrics.gauge("queue_depth").set(
                sum(w.pending for w in self.workers))

        job = _Job(request_id, root, worker.index, forget=forget,
                   stream=stream, finish_cb=finished)
        # under the lock, so the job cannot finish (and drop its row)
        # before the row exists
        with self._lock:
            if self._shutting_down:
                raise _HttpError(503, "service is shutting down")
            admitted = worker.submit(job)
            if admitted:
                self._requests += 1
                self._in_flight[request_id] = {
                    "root": root, "worker": worker.index,
                    "started": time.time(), "timed_out": False}
        if not admitted:
            metrics.counter("queue_rejections").inc()
            logger.warning("queue_rejected", root=root,
                           worker=worker.index)
            raise _HttpError(
                503, f"worker {worker.index} queue full "
                     f"({self.max_queue} pending)")
        metrics.gauge("queue_depth").set(
            sum(w.pending for w in self.workers))
        logger.info("scan_queued", root=root, worker=worker.index,
                    forget=forget, stream=stream)
        return job

    def _events(self, job: _Job, timeout: float, logger):
        """The job's events as ``(kind, value)``: ``file`` entries, then
        one terminal ``done`` (the served report's ``(head, files)``),
        ``error`` or ``timeout`` (value: the client-facing message)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                kind, value = job.events.get(
                    timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self._mark_timed_out(job, timeout, logger)
                yield "timeout", (f"scan of {job.root} exceeded "
                                  f"{timeout:g}s (still running; retry "
                                  f"to reuse its warm state)")
                return
            if kind == "file":
                yield kind, value
            elif kind == "done":
                yield kind, self._record_served(job, value, logger)
                return
            else:
                self.telemetry.metrics.counter("scan_errors").inc()
                logger.error("scan_error", root=job.root, error=value)
                yield kind, f"scan failed: {value}"
                return

    def _mark_timed_out(self, job: _Job, timeout: float, logger) -> None:
        # the scan keeps running on the worker and warms the state, so
        # the retry after a timeout is typically fast
        self.telemetry.metrics.counter("scan_timeouts").inc()
        logger.warning("scan_timeout", root=job.root, timeout=timeout)
        with self._lock:
            row = self._in_flight.get(job.request_id)
            if row is not None:  # still running on the worker
                row["timed_out"] = True

    def _record_served(self, job: _Job, msg: dict, logger
                       ) -> tuple[dict, bytes]:
        """Metrics + service block + logs for one completed scan; returns
        the report's head and encoded ``files`` entries."""
        metrics = self.telemetry.metrics
        metrics.counter("scan_requests").inc()
        metrics.counter(
            "scans_served_incremental" if msg["incremental"]
            else "scans_served_cold").inc()
        seconds = msg["seconds"]
        queue_seconds = job.started - job.queued
        metrics.histogram("scan_seconds").observe(seconds)
        metrics.histogram("queue_seconds").observe(queue_seconds)
        head = msg["head"]
        service = head["service"]
        service.update(request_id=job.request_id,
                       queue_seconds=round(queue_seconds, 6),
                       worker=job.worker, retried=job.retried)
        logger.info("scan_served", root=job.root, worker=job.worker,
                    incremental=msg["incremental"], retried=job.retried,
                    analyzed=service["analyzed_files"],
                    reused=service["reused_files"],
                    seconds=round(seconds, 6),
                    queue_seconds=round(queue_seconds, 6))
        self.log(f"{job.request_id} scanned {job.root} on worker "
                 f"{job.worker}: {service['analyzed_files']} analyzed, "
                 f"{service['reused_files']} reused in {seconds:.3f}s"
                 + (" (retried after worker death)" if job.retried
                    else ""))
        return head, msg["files"]

    # ------------------------------------------------------------------
    def scan(self, payload: dict, request_id: str) -> tuple[dict, bytes]:
        """Route one scan to its worker and wait; returns the report's
        head and encoded ``files`` entries (see :func:`encode_report`)."""
        root, timeout, forget = validate_scan_payload(
            payload, self.request_timeout)
        logger = self._request_logger(request_id)
        job = self._admit(request_id, root, forget, stream=False,
                          logger=logger)
        # without streaming the first event is the terminal one
        kind, value = next(self._events(job, timeout, logger))
        if kind != "done":
            raise _HttpError(_STATUS[kind], value)
        return value

    def scan_stream(self, payload: dict, request_id: str):
        """Route one scan for streaming; returns an event generator.

        Validation and admission happen eagerly — a bad payload or a
        full queue raises :class:`_HttpError` *before* any response
        bytes are written, so those still surface as plain JSON errors.
        The returned generator then yields NDJSON-able event dicts:
        ``scan_started``, one ``file`` per finalized file (the same
        shape as a report's ``files[]`` entries, each path exactly once
        — a failover retry re-streams from the start), and a terminal
        ``scan_done`` (the report's head: all but ``files``) or ``error``.
        """
        root, timeout, forget = validate_scan_payload(
            payload, self.request_timeout)
        logger = self._request_logger(request_id)
        job = self._admit(request_id, root, forget, stream=True,
                          logger=logger)

        def generate():
            yield {"event": "scan_started", "request_id": request_id,
                   "root": root, "worker": job.worker,
                   "schema_version": SCHEMA_VERSION}
            streamed: set[str] = set()
            for kind, value in self._events(job, timeout, logger):
                if kind == "file":
                    if value["path"] not in streamed:
                        streamed.add(value["path"])
                        yield {"event": "file", **value}
                elif kind == "done":
                    head, _files = value  # the files are streamed
                    head["service"]["files_streamed"] = len(streamed)
                    yield {"event": "scan_done", "report": head}
                else:
                    yield {"event": "error", "status": _STATUS[kind],
                           "request_id": request_id, "error": value}

        return generate()


class _ScanHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, addr, handler, service) -> None:
        self.service = service
        super().__init__(addr, handler)


#: label cardinality guard: unknown paths all collapse into one bucket.
_KNOWN_ENDPOINTS = ("/v1/health", "/v1/status", "/v1/scan",
                    "/v1/shutdown", "/metrics")


class _Handler(BaseHTTPRequestHandler):
    server_version = "wape-serve"
    protocol_version = "HTTP/1.1"

    @property
    def service(self):
        return self.server.service

    def log_message(self, fmt, *args):  # route through the service log
        self.service.log("http " + (fmt % args))

    # ------------------------------------------------------------------
    def _split_path(self) -> tuple[str, dict[str, str]]:
        """Endpoint path and query parameters of this request.

        The query string must NOT take part in endpoint dispatch or in
        the metrics endpoint label: ``GET /v1/health?probe=1`` is the
        health endpoint, not a 404, and not an ``other`` metrics bucket.
        """
        path, _, query = self.path.partition("?")
        params: dict[str, str] = {}
        for pair in query.split("&"):
            if not pair:
                continue
            key, _, value = pair.partition("=")
            params[key] = value
        return path, params

    def _count_request(self, status: int) -> None:
        path, _params = self._split_path()
        endpoint = path if path in _KNOWN_ENDPOINTS else "other"
        labels = (f"endpoint={endpoint},method={self.command},"
                  f"status={status}")
        metrics = self.service.telemetry.metrics
        metrics.counter(f"http_requests_total|{labels}").inc()
        started_at = getattr(self, "_started_at", None)
        if started_at is not None:
            metrics.histogram(f"http_request_seconds|{labels}").observe(
                time.perf_counter() - started_at)

    def _respond(self, status: int, body: bytes, content_type: str,
                 request_id: str) -> None:
        # per-endpoint request metrics: every response goes through here
        # (or _respond_stream), so count + latency live in one place.
        # Counted before anything goes out: a client holding its
        # response finds its own request in /metrics.
        self._count_request(status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Request-Id", request_id)
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, status: int, payload: dict,
                      request_id: str) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._respond(status, body, "application/json", request_id)

    def _respond_report(self, head: dict, files: bytes, baseline,
                        fmt: str, request_id: str) -> None:
        """One scan's report: its JSON joined from *head* and the encoded
        *files* (a ``delta`` against *baseline* added to the head), or
        its SARIF log.  Only those two decode the entries."""
        if baseline is not None or fmt == "sarif":
            data = dict(head, files=json.loads(b"[%s]" % files))
            if fmt == "sarif":
                from repro.tool.sarif import encode_sarif
                self._respond(200, encode_sarif(data).encode("utf-8"),
                              "application/sarif+json", request_id)
                return
            from repro.api.delta import diff_reports
            head["delta"] = diff_reports(data, baseline).to_dict()
        self._respond(200, encode_report(head, files), "application/json",
                      request_id)

    def _respond_error(self, status: int, message: str,
                       request_id: str) -> None:
        self._respond_json(status, {"error": message,
                                    "request_id": request_id}, request_id)

    def _respond_stream(self, events, request_id: str) -> None:
        """Write an NDJSON event stream as a chunked 200 response.

        Headers go out before the first event, so failures after that
        point can only be reported in-band (a terminal ``error`` event).
        A client that disconnects mid-stream just stops the writes; the
        scan itself keeps running on the worker.
        """
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("X-Request-Id", request_id)
        self.end_headers()
        try:
            for event in events:
                line = json.dumps(event, sort_keys=True) \
                    .encode("utf-8") + b"\n"
                self.wfile.write(f"{len(line):X}\r\n".encode("ascii")
                                 + line + b"\r\n")
                self.wfile.flush()
            self.wfile.write(b"0\r\n\r\n")
        except OSError:
            self.close_connection = True  # client went away mid-stream
        finally:
            events.close()
        self._count_request(200)

    def _read_json(self) -> dict:
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            # a negative length would make rfile.read() block until EOF
            # and park this handler thread; the unread body also leaves
            # the connection unusable, so it is closed after the 400
            self.close_connection = True
            raise _HttpError(400, f"invalid Content-Length: {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}")

    @staticmethod
    def _extract_baseline(payload):
        """Pop and validate an optional ``baseline`` report from the body.

        Validated eagerly — a malformed baseline must 400 *before* the
        scan runs, not 500 after burning a worker slot on it.
        """
        if not isinstance(payload, dict) or "baseline" not in payload:
            return None
        baseline = payload.pop("baseline")
        if not isinstance(baseline, dict):
            raise _HttpError(400, "baseline must be a report object")
        from repro.exceptions import ReportSchemaError
        from repro.tool.report import upgrade_report_dict
        try:
            return upgrade_report_dict(baseline)
        except ReportSchemaError as exc:
            raise _HttpError(400, f"invalid baseline report: {exc}")

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        self._started_at = time.perf_counter()
        request_id = self.service.new_request_id()
        path, _params = self._split_path()
        try:
            if path == "/v1/health":
                self._respond_json(200, self.service.health(), request_id)
            elif path == "/v1/status":
                self._respond_json(200, self.service.status(), request_id)
            elif path == "/metrics":
                body = self.service.metrics_text().encode("utf-8")
                self._respond(200, body,
                              "text/plain; version=0.0.4", request_id)
            else:
                self._respond_error(404, f"no such endpoint: {path}",
                                    request_id)
        except Exception as exc:
            self._respond_error(500, f"{type(exc).__name__}: {exc}",
                                request_id)

    def do_POST(self) -> None:
        self._started_at = time.perf_counter()
        request_id = self.service.new_request_id()
        path, params = self._split_path()
        try:
            if path == "/v1/scan":
                payload = self._read_json()
                baseline = self._extract_baseline(payload)
                fmt = params.get("format") or "json"
                if fmt not in ("json", "sarif"):
                    raise _HttpError(400, f"unknown format: {fmt}")
                if baseline is not None and fmt == "sarif":
                    raise _HttpError(
                        400, "baseline and format=sarif are mutually "
                             "exclusive (SARIF has no delta block)")
                if params.get("stream") not in (None, "", "0", "false"):
                    if baseline is not None or fmt != "json":
                        raise _HttpError(
                            400, "stream=1 supports neither baseline "
                                 "nor format=sarif")
                    events = self.service.scan_stream(payload, request_id)
                    self._respond_stream(events, request_id)
                else:
                    head, files = self.service.scan(payload, request_id)
                    self._respond_report(head, files, baseline, fmt,
                                         request_id)
            elif path == "/v1/shutdown":
                self._respond_json(200, {"status": "shutting down"},
                                   request_id)
                self.service.shutdown()
            else:
                self._respond_error(404, f"no such endpoint: {path}",
                                    request_id)
        except _HttpError as exc:
            self._respond_error(exc.status, str(exc), request_id)
        except Exception as exc:
            self._respond_error(500, f"{type(exc).__name__}: {exc}",
                                request_id)
