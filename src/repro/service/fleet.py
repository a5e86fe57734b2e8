"""The daemon's scan workers: one in-process thread or N forked processes.

:class:`~repro.service.server.ScanService` routes every ``/v1/scan``
over a :class:`HashRing` to one worker.  Both worker kinds take the same
:class:`_Job` and answer on ``job.events`` with ``("file", entry)``
events and one terminal ``("done", msg)`` or ``("error", message)``, so
the front door has one code path for every worker count:

* :class:`LocalWorker` (``wape serve``, ``workers=1``) — a thread
  running the warm :class:`~repro.api.Scanner` in the serving process
  with the service's telemetry, its log included, so ``/metrics``
  carries the pipeline counters and no report crosses a pipe;
* :class:`FleetWorker` (``wape serve --workers N``, ``N > 1``) — a
  forked process hosting its own warm scanner, driven over a pipe by a
  dispatcher thread in the front door.

For every worker kind:

* **Sticky routing.** The ring (virtual nodes over the project root
  path) maps each root to one worker, so repeat scans of a root always
  land on the scanner holding its warm state.  The ring is keyed by
  worker *index*, not pid — a respawned worker takes over its
  predecessor's slot (cold, but with identical routing), so one crash
  never reshuffles other roots.
* **Admission control.** Each worker has a bounded queue
  (``max_queue``); a request routed to a full worker is rejected with
  ``503`` — backpressure per shard, so one hot root cannot absorb the
  whole daemon's capacity.
* **Memory budgeting.** With ``--memory-budget-mb`` each worker evicts
  least-recently-scanned roots (by ``Scanner.root_info``'s
  ``approx_bytes``) after every scan until its resident warm state fits
  the budget; the root just scanned is never evicted.

Process workers add:

* **Supervision.** A dead pipe (crash, SIGKILL, OOM-kill) is detected
  on the next send/recv; the dispatcher respawns the worker (fork: the
  trained tool is inherited, no re-training) and retries the in-flight
  request once on the fresh — cold — worker before giving up.

Process workers are forked, so they inherit the already-trained tool
from the front door for free; on platforms without ``fork`` each one
trains its own tool at spawn (slower startup, same behavior).  Their
pipeline metrics stay in the child; the front door's ``/metrics``
exports its own counters, including per-worker labeled series
(``wape_worker_scans_total{worker="0"}``, ``..._restarts_total``,
``..._evictions_total``).

Crash-injection hook for the tests: when ``WAPE_FLEET_CRASH_MARKER``
names an existing file, the process worker receiving the next scan
request unlinks it and dies with ``os._exit(3)`` — a deterministic
crash-exactly-once mid-request.
"""

from __future__ import annotations

import bisect
import hashlib
import multiprocessing
import os
import queue
import threading
import time

from repro.api import Scanner, ScanOptions
from repro.telemetry import PrefilterStats

#: env var naming a marker file; a worker that sees it on a scan request
#: unlinks the file and exits hard — the deterministic crash injector.
CRASH_MARKER_ENV = "WAPE_FLEET_CRASH_MARKER"

_FORK = "fork" in multiprocessing.get_all_start_methods()
_MP = multiprocessing.get_context("fork" if _FORK else None)

_STOP = object()


class HashRing:
    """Consistent hashing of root paths onto worker indices.

    Virtual nodes (``replicas`` per worker) smooth the distribution; the
    ring is built once and never rebalanced — worker slots are stable
    identities that survive respawns, which is exactly what sticky warm
    state wants.
    """

    def __init__(self, workers: int, replicas: int = 64) -> None:
        points = []
        for index in range(workers):
            for replica in range(replicas):
                points.append((self._hash(f"worker-{index}:{replica}"),
                               index))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._indices = [i for _, i in points]

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.md5(key.encode("utf-8")).digest()[:8], "big")

    def route(self, root: str) -> int:
        """The worker index owning *root*."""
        pos = bisect.bisect(self._hashes, self._hash(root)) \
            % len(self._indices)
        return self._indices[pos]


class _WarmScanner:
    """A warm :class:`Scanner` under a memory budget: the scan body both
    worker kinds run."""

    def __init__(self, tool, options: ScanOptions,
                 budget_bytes: int | None) -> None:
        self.scanner = Scanner(tool, options)
        self.budget_bytes = budget_bytes
        self._lru: list[str] = []  # least-recently-scanned first

    def run(self, root: str, forget: bool, on_file=None) -> dict:
        """Scan *root* → the ``done`` message fields: the report's
        ``head`` and its encoded ``files`` entries, which only the
        re-predicted files encode afresh; *on_file*, when given,
        receives each file's report entry as it is finalized."""
        scanner = self.scanner
        if forget:
            scanner.forget(root)
        if on_file is not None:
            from repro.tool.report import file_report_dict
            groups = dict(scanner.tool.groups)
            scanner.on_file = lambda fr: on_file(
                file_report_dict(fr, groups, root))
        try:
            result = scanner.scan(root)
        finally:
            scanner.on_file = None
        return {"head": result.head(),
                "files": result.report.encoded_files(),
                "incremental": result.incremental,
                "seconds": result.seconds,
                "evicted": self._evict(root)}

    def roots_info(self) -> list[dict]:
        scanner = self.scanner
        return [scanner.root_info(root) for root in scanner.roots()]

    def _evict(self, just_scanned: str) -> list[str]:
        """Forget least-recently-scanned roots until the warm state fits
        the budget.  Without a budget nothing is measured:
        ``root_info`` pickles a root's whole state."""
        if not self.budget_bytes:
            return []
        lru = self._lru
        if just_scanned in lru:
            lru.remove(just_scanned)
        lru.append(just_scanned)
        infos = {info["root"]: info for info in self.roots_info()}
        total = sum(info.get("approx_bytes") or 0
                    for info in infos.values())
        evicted: list[str] = []
        while total > self.budget_bytes and len(lru) > 1:
            victim = lru.pop(0)
            total -= infos.get(victim, {}).get("approx_bytes") or 0
            self.scanner.forget(victim)
            evicted.append(victim)
        return evicted


# ----------------------------------------------------------------------
# process worker: the child side
def _worker_main(conn, tool, options: ScanOptions,
                 budget_bytes: int | None) -> None:
    """Child process loop: one warm scanner, a pipe, and nothing else.

    Message protocol (dicts over a :func:`multiprocessing.Pipe`):

    parent → worker: ``{"op": "scan", "req", "root", "forget",
    "stream"}`` or ``{"op": "stop"}``.

    worker → parent: per streamed file ``{"op": "file", "req", "data"}``;
    terminal ``{"op": "done", "req", "head": report-head, "files":
    encoded-entries, "incremental", "seconds", "evicted", "roots":
    [root_info...], "prefilter": prefilter_totals}`` or ``{"op":
    "error", "req", "error"}``; ``{"op": "bye"}`` on stop.  The head is
    the report dict without ``files``; the entries are one ``bytes``
    object (:meth:`~repro.tool.report.AnalysisReport.encoded_files`),
    so the pipe carries the report's JSON, not a pickled dict of it.
    """
    warm = _WarmScanner(tool, options, budget_bytes)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # front door went away: nothing left to serve
        op = msg.get("op")
        if op == "stop":
            try:
                conn.send({"op": "bye"})
            except (OSError, BrokenPipeError):
                pass
            return
        if op != "scan":
            continue
        marker = os.environ.get(CRASH_MARKER_ENV)
        if marker and os.path.exists(marker):
            try:
                os.unlink(marker)
            finally:
                os._exit(3)  # the deterministic mid-request crash
        req = msg["req"]
        on_file = (lambda entry: conn.send(
            {"op": "file", "req": req, "data": entry})) \
            if msg.get("stream") else None
        try:
            done = warm.run(msg["root"], msg.get("forget"), on_file)
            # the front door cannot ask later: send the warm state along
            done.update(op="done", req=req, roots=warm.roots_info(),
                        prefilter=warm.scanner.prefilter_totals)
            conn.send(done)
        except Exception as exc:
            try:
                conn.send({"op": "error", "req": req,
                           "error": f"{type(exc).__name__}: {exc}"})
            except (OSError, BrokenPipeError):
                return


# ----------------------------------------------------------------------
class _Job:
    """One scan request in flight between front door and a worker."""

    __slots__ = ("request_id", "root", "worker", "forget", "stream",
                 "queued", "started", "retried", "events", "finish_cb")

    def __init__(self, request_id: str, root: str, worker: int,
                 forget: bool, stream: bool, finish_cb) -> None:
        self.request_id = request_id
        self.root = root
        self.worker = worker
        self.forget = forget
        self.stream = stream
        self.queued = time.perf_counter()
        self.started: float | None = None
        self.retried = False
        #: ("file", dict) events then one terminal ("done", msg) or
        #: ("error", str); the request handler thread consumes these.
        self.events: queue.Queue = queue.Queue()
        self.finish_cb = finish_cb

    def finish(self, kind: str, value) -> None:
        try:
            self.finish_cb(self)
        finally:
            self.events.put((kind, value))


class _Worker:
    """What both worker kinds share: the bounded queue admission reads,
    a dispatcher thread feeding queued jobs to :meth:`_run_job` one at a
    time, and the per-worker counters of ``/v1/status``.

    Subclasses provide ``pid``, ``alive``, :meth:`_run_job`,
    :meth:`roots_info`, :meth:`warm_roots` and :meth:`prefilter_totals`.
    """

    #: seconds :meth:`stop` waits for the dispatcher (``None``: forever)
    stop_timeout: float | None = 10.0

    def __init__(self, index: int, max_queue: int, metrics) -> None:
        self.index = index
        self.max_queue = max_queue
        self._metrics = metrics
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self.pending = 0  # queued + running jobs (admission bound)
        self.scans = 0
        self.restarts = 0
        self.evictions = 0
        self.current: str | None = None  # request id running right now
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name=f"wape-worker-{index}",
            daemon=True)

    def submit(self, job: _Job) -> bool:
        """Queue *job*; ``False`` when this worker's queue is full."""
        with self._lock:
            if self.pending >= self.max_queue:
                return False
            self.pending += 1
        self._queue.put(job)
        return True

    def job_finished(self) -> None:
        with self._lock:
            self.pending -= 1
            self.current = None

    def stop(self) -> None:
        """Finish the queued jobs, then stop the dispatcher."""
        self._queue.put(_STOP)
        self._dispatcher.join(timeout=self.stop_timeout)

    def _dispatch_loop(self) -> None:
        while (job := self._queue.get()) is not _STOP:
            with self._lock:
                self.current = job.request_id
            job.started = time.perf_counter()
            self._run_job(job)
        self._stopped()

    def _stopped(self) -> None:
        """Hook run on the dispatcher thread as it exits."""

    def _served(self, job: _Job, msg: dict) -> None:
        evicted = len(msg["evicted"])
        with self._lock:
            self.scans += 1
            self.evictions += evicted
        self._metrics.counter(
            f"worker_scans_total|worker={self.index}").inc()
        if evicted:
            self._metrics.counter(
                f"worker_evictions_total|worker={self.index}").inc(evicted)
        job.finish("done", msg)


class LocalWorker(_Worker):
    """The ``workers=1`` kind: a thread running the warm scanner in the
    serving process.

    *options* carry the service's telemetry; the spans a scan records
    are dropped once its report (``stats`` block included) is built, so
    a long-lived daemon's tracer stays empty between requests.
    """

    #: a thread cannot be killed: wait for the running scan to finish
    stop_timeout = None

    def __init__(self, tool, options: ScanOptions, max_queue: int,
                 budget_bytes: int | None, metrics) -> None:
        super().__init__(0, max_queue, metrics)
        self.warm = _WarmScanner(tool, options, budget_bytes)
        self._tracer = options.resolve_telemetry().tracer
        self.pid = os.getpid()
        self.alive = True
        self._dispatcher.start()

    def _run_job(self, job: _Job) -> None:
        on_file = (lambda entry: job.events.put(("file", entry))) \
            if job.stream else None
        try:
            msg = self.warm.run(job.root, job.forget, on_file)
        except Exception as exc:  # scanner bug: contain, report, survive
            job.finish("error", f"{type(exc).__name__}: {exc}")
            return
        finally:
            self._tracer.spans.clear()
        self._served(job, msg)

    def roots_info(self) -> list[dict]:
        return self.warm.roots_info()

    def warm_roots(self) -> list[str]:
        return self.warm.scanner.roots()

    def prefilter_totals(self) -> PrefilterStats:
        return self.warm.scanner.prefilter_totals


class FleetWorker(_Worker):
    """Front-door handle for one worker process: queue, pipe, stats.

    The dispatcher thread owns the pipe: it feeds queued jobs to the
    child one at a time, relays its events to the job, and — when the
    pipe dies mid-job — respawns the child and retries the job once.
    """

    def __init__(self, index: int, tool, options: ScanOptions,
                 max_queue: int, budget_bytes: int | None,
                 metrics, log) -> None:
        super().__init__(index, max_queue, metrics)
        self._log = log
        self._tool = tool
        self._options = options
        self._budget = budget_bytes
        self._roots: list[dict] = []  # last report from the child
        self._prefilter = PrefilterStats()
        self.process = None
        self._conn = None
        self._spawn()
        self._dispatcher.start()

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def roots_info(self) -> list[dict]:
        with self._lock:
            return list(self._roots)

    def warm_roots(self) -> list[str]:
        return [info["root"] for info in self.roots_info()]

    def prefilter_totals(self) -> PrefilterStats:
        with self._lock:
            return self._prefilter

    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        parent_conn, child_conn = _MP.Pipe()
        # under fork the trained tool is inherited by memory; without
        # fork the child builds (and trains) its own
        tool = self._tool if _FORK else None
        self.process = _MP.Process(
            target=_worker_main,
            args=(child_conn, tool, self._options, self._budget),
            name=f"wape-worker-{self.index}", daemon=True)
        self.process.start()
        child_conn.close()
        self._conn = parent_conn

    def _respawn(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=5)
        self._spawn()
        with self._lock:
            self.restarts += 1
            # fresh child: its warm state and counts are gone
            self._roots = []
            self._prefilter = PrefilterStats()
        self._metrics.counter(
            f"worker_restarts_total|worker={self.index}").inc()
        self._log(f"worker {self.index} respawned "
                  f"(pid {self.process.pid})")

    def stop(self) -> None:
        super().stop()
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        try:
            self._conn.close()
        except OSError:
            pass

    def _stopped(self) -> None:
        try:
            self._conn.send({"op": "stop"})
            if self._conn.poll(2):
                self._conn.recv()  # the "bye"
        except (EOFError, OSError):
            pass

    # ------------------------------------------------------------------
    def _run_job(self, job: _Job) -> None:
        for attempt in (1, 2):
            try:
                self._conn.send({"op": "scan", "req": job.request_id,
                                 "root": job.root, "forget": job.forget,
                                 "stream": job.stream})
                while True:
                    msg = self._conn.recv()
                    op = msg.get("op")
                    if op == "file":
                        job.events.put(("file", msg["data"]))
                    elif op == "done":
                        with self._lock:
                            self._roots = msg["roots"]
                            self._prefilter = msg["prefilter"]
                        self._served(job, msg)
                        return
                    elif op == "error":
                        job.finish("error", msg.get("error", "scan failed"))
                        return
            except (EOFError, OSError, BrokenPipeError):
                # the child died (crash, SIGKILL, OOM): bring up a fresh
                # one and retry the request once, cold
                self._log(f"worker {self.index} died serving "
                          f"{job.request_id}; respawning")
                self._respawn()
                if attempt == 1:
                    job.retried = True
                    continue
                job.finish("error",
                           f"worker {self.index} died twice serving "
                           f"this request")
                return
