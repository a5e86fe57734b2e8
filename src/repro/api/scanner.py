"""Warm, incremental project scanning for embedders and the daemon.

A cold ``wape scan`` pays three big fixed costs on every invocation:
interpreter + import time, predictor training (the classifiers of §III-B
are fit when the tool is constructed, in about the time the import
takes), and a full tree analysis.  :class:`Scanner` amortizes all three:
it holds one configured tool and, per scanned root, the *warm state* of
the last scan — the stat snapshot plus the scan's
:class:`~repro.analysis.pipeline.ScanState` (content hashes, include
graph, closure keys, per-file results and file reports, record memo,
result-cache handle).
Every scan, cold or warm, runs the batch pipeline: :meth:`Scanner.scan`
builds a :class:`~repro.analysis.pipeline.ScanScheduler` carrying that
state and calls the tool's ``run_scheduler``.  A repeat scan then

1. re-stats the tree (:meth:`Scanner.stat_signature`) and passes the
   content hash of every file whose ``(mtime, size)`` is unchanged; the
   scan reads and hashes each other file once,
2. plans from per-content records
   (:class:`~repro.analysis.prefilter.FileRecord`): unchanged contents
   keep their record in memory, so only edited files are read again —
   and lexed only when they name an include.  The include graph, with
   its memoized closures, is kept while no file was added or removed
   and no edit changed a file's include targets (under the
   whole-project policy, while no file was edited); the prefilter tiers
   are re-derived,
3. re-analyzes exactly the files whose
   :func:`~repro.analysis.pipeline.closure_key` changed — the edited
   files plus everything whose include closure reaches them — and reuses
   every other result verbatim,
4. predicts only the re-analyzed files' candidates: a reused result
   keeps its :class:`~repro.tool.report.FileReport` (and the finding
   fingerprints its report entry was stamped with), so the report is
   rebuilt from file reports shared with the previous scan.

Per file, a warm request still walks the tree, stats the file, derives
its prefilter tier and closure key, and counts it in the scan
statistics and the report head's summary; a caller asking for the
report dict (:meth:`ScanResult.to_dict`) also builds its entry.  The
daemon does not: a kept report also keeps its encoded entry
(:func:`~repro.tool.report.encoded_entry`), and the response body is
joined from those bytes.

There is one scan path, so a warm scan can never reuse a result the
batch pipeline would have recomputed, and a warm report equals a cold
one of the same tree.

Scans themselves are not thread-safe — the daemon serializes them
through a single worker thread per :class:`Scanner` — but the *warm
state* is guarded by a lock so read-only observers (:meth:`roots`,
:meth:`root_info`, the daemon's ``/v1/health`` and ``/v1/status``
handlers) may run concurrently with a scan: state is only ever published
as a whole fresh :class:`_RootState` under the lock, and observers copy
references under the same lock before touching them.  A concurrent edit
*during* a scan is safe in the conservative direction: the snapshot is
taken before analysis, so the file is read and hashed again on the next
scan.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from repro.analysis.includes import build_include_graph
from repro.analysis.options import ScanOptions
from repro.analysis.pipeline import (
    MISSING,
    ScanScheduler,
    ScanState,
    closure_key,
)
from repro.cache import RESULT
from repro.telemetry import PrefilterStats, build_scan_stats
from repro.tool.report import AnalysisReport

#: a scan runs in :class:`ScanScheduler`, which calls ``closure_key``,
#: ``build_include_graph`` and ``build_scan_stats`` through its own
#: modules; those names, and this alias, stay bound here only because
#: ``wapebench/layers.py`` patches them here.
update_include_graph = build_include_graph


@dataclass(frozen=True)
class ScanResult:
    """One :meth:`Scanner.scan` answer: the report plus what was done.

    Attributes:
        report: the full :class:`~repro.tool.report.AnalysisReport`, the
            same object a batch ``wape scan`` of the tree would produce.
        incremental: whether warm state was reused (``False`` for the
            first scan of a root or after the tool's knowledge changed).
        analyzed_files: files actually (re-)analyzed this scan.
        reused_files: files served from warm state untouched.
        dirty: project-relative paths of the re-analyzed files — the
            edited files plus their include-closure dependents.
        seconds: wall time of the whole scan call.
        fingerprint: the knowledge fingerprint the scan ran under
            (:func:`~repro.analysis.pipeline.config_fingerprint`).
    """

    report: AnalysisReport
    incremental: bool
    analyzed_files: int
    reused_files: int
    dirty: tuple[str, ...]
    seconds: float
    fingerprint: str

    def service_info(self) -> dict:
        """The ``service`` block of the report schema (request fields
        — ``request_id``, ``queue_seconds`` — are filled by the daemon).
        """
        return {
            "request_id": None,
            "incremental": self.incremental,
            "analyzed_files": self.analyzed_files,
            "reused_files": self.reused_files,
            "dirty": list(self.dirty),
            "seconds": round(self.seconds, 6),
            "queue_seconds": 0.0,
        }

    def head(self) -> dict:
        """The report's :meth:`~repro.tool.report.AnalysisReport.head`
        with the ``service`` block set: every key of :meth:`to_dict` but
        ``files``."""
        head = self.report.head()
        head["service"] = self.service_info()
        return head

    def to_dict(self) -> dict:
        """Schema-versioned report dict with the ``service`` block set."""
        data = self.report.to_dict()
        data["service"] = self.service_info()
        return data

    def diff(self, baseline: dict) -> "FindingsDelta":
        """This scan's findings delta against a *baseline* report dict.

        The baseline may be any schema version the tool can read (it is
        upgraded — and fingerprinted — on the way in).  See
        :func:`repro.api.delta.diff_reports`.
        """
        from repro.api.delta import diff_reports
        return diff_reports(self.to_dict(), baseline)


@dataclass
class _RootState:
    """Everything remembered about one scanned root between scans: the
    stat signature the scan planned from, and the scan's state."""

    snapshot: dict[str, tuple[int, int] | None]
    scan: ScanState


class Scanner:
    """A warm scanning session over one configured tool.

    Args:
        tool: the tool facade to scan with (:class:`~repro.tool.wap.Wape`
            or :class:`~repro.tool.wap.Wap21`); built fresh — predictor
            training included — when omitted.
        options: the :class:`ScanOptions` applied to every scan.  ``jobs``
            affects only cold scans (warm re-scans run in-process — the
            dirty set is almost always far too small to win from worker
            startup); a ``cache_dir`` is shared with ``wape scan``, so a
            daemon and CLI runs feed each other's caches.
    """

    def __init__(self, tool=None, options: ScanOptions | None = None
                 ) -> None:
        if tool is None:
            from repro.tool.wap import Wape
            tool = Wape()
        self.tool = tool
        self.options = options if options is not None else ScanOptions()
        self._states: dict[str, _RootState] = {}
        #: guards ``_states`` against HTTP handler threads reading warm
        #: state while the scan thread publishes a fresh one — without it
        #: ``roots()``/``root_info()`` raced scan completion ("dictionary
        #: changed size during iteration", torn multi-field reads).
        self._lock = threading.Lock()
        #: cumulative prefilter tier counts across every scan served by
        #: this scanner (the ``/v1/status`` "prefilter" block); guarded
        #: by ``_lock``
        self.prefilter_totals = PrefilterStats()
        #: optional ``callable(FileReport)`` fired per file as its
        #: verdicts are finalized, in report order — the streaming hook
        #: behind ``POST /v1/scan?stream=1``.  Called on the scanning
        #: thread; exceptions propagate and fail the scan.
        self.on_file = None

    # ------------------------------------------------------------------
    def roots(self) -> list[str]:
        """The roots currently holding warm state."""
        with self._lock:
            return sorted(self._states)

    def forget(self, root: str | None = None) -> None:
        """Drop warm state for *root* (or for every root)."""
        with self._lock:
            if root is None:
                self._states.clear()
            else:
                self._states.pop(os.path.abspath(root), None)

    def root_info(self, root: str) -> dict:
        """Facts about one warm root (the ``/v1/status`` per-root row).

        ``approx_bytes`` estimates the state's resident size via its
        pickled length (snapshot, content hashes, results with their file
        reports and the fingerprints and encoded entries those keep,
        include graph, closure keys) — cheap, stable, and what
        ``wape serve --memory-budget-mb`` evicts by; ``None`` when the
        state holds something unpicklable.

        Safe to call from any thread while a scan runs: the state's
        structures are copied by reference under the lock (a scan
        publishes fresh dicts; into objects it shares with a published
        state it only stores single attributes — a kept result's include
        counts, a kept report's fingerprint and entry memos), so the
        counts and pickles below always describe one consistent scan.
        """
        root = os.path.abspath(root)
        with self._lock:
            state = self._states.get(root)
            if state is None:
                return {"root": root, "warm": False}
            snapshot, results = state.snapshot, state.scan.results
            hashes, reports = state.scan.hashes, state.scan.reports
            graph, keys = state.scan.graph, state.scan.keys
        approx = None
        try:
            import pickle
            # one pickle per pair: the snapshot and the hashes share their
            # keys, a report shares its candidates with its result
            approx = len(pickle.dumps((snapshot, hashes))) \
                + len(pickle.dumps((results, reports))) \
                + len(pickle.dumps(graph)) \
                + len(pickle.dumps(keys))
        except Exception:
            pass
        return {
            "root": root,
            "warm": True,
            "files": len(snapshot),
            "results": len(results),
            "candidates": sum(len(r.candidates)
                              for r in results.values()),
            "approx_bytes": approx,
        }

    def prefilter_info(self) -> dict:
        """Cumulative prefilter tier counts across this scanner's scans."""
        return self.prefilter_totals.to_dict()

    # ------------------------------------------------------------------
    def scan(self, root: str) -> ScanResult:
        """Scan *root*, incrementally when warm state allows it."""
        start = time.perf_counter()
        root = os.path.abspath(root)
        with self._lock:
            state = self._states.get(root)
        # the scheduler ignores a state left under other knowledge:
        # arming a weapon makes every warm result stale
        scheduler = ScanScheduler(
            self.tool._config_groups(), tool_version=self.tool.version,
            options=self.options,
            previous=state.scan if state is not None else None)
        snapshot = self.stat_signature(root)
        paths = list(snapshot)
        known = None
        if state is not None:
            # a content hash holds while its file's signature does; an
            # unreadable file is read again
            old, hashes = state.snapshot, state.scan.hashes
            known = {path: digest
                     for path, signature in snapshot.items()
                     if signature is old.get(path) and signature is not None
                     and (digest := hashes[path]) != MISSING}
        report = self.tool.run_scheduler(
            scheduler, root, paths=paths, hashes=known,
            on_file=self.on_file)
        if report.prefilter is not None:
            with self._lock:
                self.prefilter_totals += report.prefilter
        metrics = scheduler.telemetry.metrics
        rerun = scheduler.rerun
        incremental = scheduler.previous is not None
        if incremental:
            metrics.counter("scans_incremental").inc()
            metrics.counter("files_reanalyzed").inc(len(rerun))
            metrics.counter("files_reused").inc(len(paths) - len(rerun))
            analyzed, reused = scheduler.analyzed, len(paths) - len(rerun)
            dirty = tuple(os.path.relpath(p, root) for p in rerun)
        else:
            # a cold scan counts its result-cache hits as reused
            metrics.counter("scans_cold").inc()
            reused = report.cache[RESULT].hits \
                if report.cache is not None else 0
            analyzed, dirty = scheduler.analyzed - reused, ()
        # publish the new warm state as one fresh object under the lock:
        # observers never see a half-updated snapshot/results pair
        with self._lock:
            self._states[root] = _RootState(snapshot, scheduler.state)
        return ScanResult(report, incremental, analyzed, reused, dirty,
                          seconds=time.perf_counter() - start,
                          fingerprint=scheduler.fingerprint)

    def stat_signature(self, root: str) -> dict[str, tuple[int, int] | None]:
        """``(mtime_ns, size)`` of every PHP file under *root*, in walk
        order (``None`` for a file that cannot be stat-ed): the snapshot
        a scan plans from, and the trigger ``wape watch`` polls.

        A path the root's warm state knows is keyed by that state's
        string (its result's ``filename``), and a signature that did not
        change is the state's tuple, so a warm state holds each path
        string once and a scan finds an unchanged file by identity.
        """
        root = os.path.abspath(root)
        with self._lock:
            state = self._states.get(root)
        old = state.snapshot if state is not None else {}
        results = state.scan.results if state is not None else {}
        signature: dict[str, tuple[int, int] | None] = {}
        for path in ScanScheduler.discover(root):
            result = results.get(path)
            if result is not None:
                path = result.filename
            try:
                st = os.stat(path)
            except OSError:
                signature[path] = None
                continue
            prev = old.get(path)
            if prev is not None and prev[0] == st.st_mtime_ns \
                    and prev[1] == st.st_size:
                signature[path] = prev
            else:
                signature[path] = (st.st_mtime_ns, st.st_size)
        return signature
