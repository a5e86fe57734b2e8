"""Scan telemetry: the one recorder of a run, and what it records.

Dependency-free instrumentation for the whole scan stack.  One
:class:`Telemetry` value records a run: a tracer, a metrics registry,
the structured JSONL log and the run id that ties them (and the ledger
record) together.  It is threaded through the pipeline
(``FusedDetector`` → ``TaintEngine`` → ``ScanScheduler`` → the tool
facades); each pool worker builds its own from the parent's
:meth:`~Telemetry.worker_spec`, and every chunk ships home one
:meth:`~Telemetry.drain` batch that the parent folds in with one
:meth:`~Telemetry.absorb`.  The disabled default
(:data:`NULL_TELEMETRY`) is a shared no-op whose hot paths are guarded
by a single boolean check, so scans without telemetry pay nothing.

>>> from repro.telemetry import Telemetry
>>> telemetry = Telemetry()
>>> with telemetry.tracer.span("scan", phase="scan"):
...     telemetry.metrics.counter("files_scanned").inc()
"""

from repro.obs.log import NULL_LOG, JsonlLogger, new_run_id
from repro.telemetry.export import (  # noqa: F401
    TRACE_FORMAT,
    load_trace,
    metrics_to_text,
    trace_to_dict,
    validate_trace,
    write_metrics,
    write_trace,
)
from repro.telemetry.metrics import (  # noqa: F401
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    Metrics,
    NullMetrics,
)
from repro.telemetry.tracing import (  # noqa: F401
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
)


class Telemetry:
    """The recorder of one run: tracer, metrics, log and run id.

    Args:
        enabled: record spans and metrics; ``False`` keeps the shared
            no-op tracer and registry (the log does not depend on it).
        log: a :class:`~repro.obs.log.JsonlLogger` for the run's
            structured events; :data:`~repro.obs.log.NULL_LOG` (the
            default) logs nothing.
        run_id: correlates the run's log records and ledger entry; the
            log's own, else a fresh one, when omitted.  It is bound onto
            a log that carries none.
    """

    __slots__ = ("enabled", "tracer", "metrics", "log", "run_id")

    def __init__(self, enabled: bool = True, log=NULL_LOG,
                 run_id: str | None = None) -> None:
        self.enabled = enabled
        self.tracer = Tracer() if enabled else NULL_TRACER
        self.metrics = Metrics() if enabled else NULL_METRICS
        self.run_id = run_id or log.bound.get("run_id") or new_run_id()
        if log.enabled and "run_id" not in log.bound:
            log = log.bind(run_id=self.run_id)
        self.log = log

    # ------------------------------------------------------------------
    # pool workers: one spec out, one batch per chunk back
    # ------------------------------------------------------------------
    def worker_spec(self, traced: bool = True) -> tuple:
        """What a pool worker builds its recorder from
        (:meth:`for_worker`): whether it traces, its log level (``None``
        without a log) and the run id.  An untraced worker still logs.
        """
        return (traced and self.enabled,
                self.log.level if self.log.enabled else None, self.run_id)

    @classmethod
    def for_worker(cls, spec: tuple) -> "Telemetry":
        """A pool worker's recorder; its log buffers records (no sink)
        until :meth:`drain`."""
        enabled, level, run_id = spec
        return cls(enabled, JsonlLogger(level=level) if level else NULL_LOG,
                   run_id)

    def drain(self, worker: int) -> tuple[list, dict, list]:
        """Hand over and clear what this (worker) recorder holds, as one
        batch for :meth:`absorb`: the closed spans and the log records,
        both stamped with the *worker* pid, and the non-zero counters
        (gauges and histograms stay parent-side: per-phase latencies
        travel as spans).  A worker runs one chunk at a time, so nothing
        records while it drains."""
        spans, counters = [], {}
        if self.enabled:
            spans, self.tracer.spans = self.tracer.spans, []
            for span in spans:
                span.worker = worker
            counters = {name: counter.value for name, counter
                        in self.metrics.counters.items() if counter.value}
            self.metrics.counters = {}
        records = list(self.log.records)
        self.log.records.clear()
        for record in records:
            record.setdefault("worker", worker)
        return spans, counters, records

    def absorb(self, batch: tuple, parent_id: int | None = None) -> None:
        """Fold a worker's :meth:`drain` batch into this recorder.

        Span ids are remapped into this tracer's id space (every worker
        numbers its spans from 1), and the worker's root spans are
        parented on *parent_id*.  Counters add up.  Log records go to
        the log as they are: the worker already filtered them by level.
        """
        spans, counters, records = batch
        if spans:
            tracer = self.tracer
            ids = {span.span_id: tracer._next_id + i
                   for i, span in enumerate(spans)}
            tracer._next_id += len(spans)
            for span in spans:
                span.parent_id = ids.get(span.parent_id, parent_id)
                span.span_id = ids[span.span_id]
            tracer.spans.extend(spans)
        for name, value in counters.items():
            self.metrics.counter(name).inc(value)
        for record in records:
            self.log.emit_record(record)


#: the shared disabled default — costs one attribute read to check.
NULL_TELEMETRY = Telemetry(enabled=False)

# provenance reaches into repro.analysis, which imports this package back
# for NULL_TELEMETRY — so Telemetry must exist before these two imports.
from repro.telemetry.provenance import (  # noqa: E402,F401
    Provenance,
    ProvenanceEvent,
    build_provenance,
)
from repro.telemetry.stats import (  # noqa: E402,F401
    CacheStats,
    PrefilterStats,
    ScanStats,
    build_scan_stats,
)

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Metrics",
    "NullMetrics",
    "NULL_METRICS",
    "Counter",
    "Gauge",
    "Histogram",
    "Provenance",
    "ProvenanceEvent",
    "build_provenance",
    "CacheStats",
    "PrefilterStats",
    "ScanStats",
    "build_scan_stats",
    "TRACE_FORMAT",
    "trace_to_dict",
    "validate_trace",
    "load_trace",
    "write_trace",
    "metrics_to_text",
    "write_metrics",
]
