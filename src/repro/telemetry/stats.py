"""The ``--stats`` summary: phase-time breakdown and scan health.

:func:`build_scan_stats` distills a finished trace + metrics registry into
a :class:`ScanStats` value that the report renders as a footer:

* **wall phases** — the top-level sequential phases of the run
  (``discover`` → ``scan`` → ``predict`` ...) plus an explicit ``other``
  bucket for unattributed time, so the table always sums to the measured
  wall clock (the acceptance bound: within 10%).
* **per-file phases** — aggregate latency distributions (p50/p95/max) of
  the per-file stage spans (``lex``/``parse``/``taint``/``split``/
  ``predict``/cache accesses), summed across workers; under ``--jobs N``
  their total legitimately exceeds wall time — it is CPU time.
* **scan health** — slowest files, cache hit/miss/eviction counts, worker
  retries and crashes (file + exception class), parse errors with the
  first message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache import AST, RESULT, SUMMARY, CacheStats
from repro.telemetry.metrics import Metrics

#: per-file stage span names aggregated into the CPU-time table.
FILE_PHASE_NAMES = ("lex", "parse", "lower", "taint", "split",
                    "predict_file", "cache_get", "cache_put")

#: how many slowest files the footer lists.
TOP_SLOWEST = 5


@dataclass(frozen=True)
class PrefilterStats:
    """Relevance-prefilter tier counts for one scan (telemetry-independent).

    Produced by :mod:`repro.analysis.prefilter`: how many files the
    byte-level knowledge matcher classified into each tier.  ``skipped``
    files never touched the lex/parse/taint pipeline.
    """

    skipped: int = 0
    dep_only: int = 0
    sink_bearing: int = 0

    @property
    def total(self) -> int:
        return self.skipped + self.dep_only + self.sink_bearing

    @property
    def skip_rate(self) -> float:
        """Fraction of classified files that bypassed the pipeline
        entirely (dep-only files are parsed lazily, so they don't
        count as skipped)."""
        total = self.total
        return self.skipped / total if total else 0.0

    def __add__(self, other: "PrefilterStats") -> "PrefilterStats":
        return PrefilterStats(self.skipped + other.skipped,
                              self.dep_only + other.dep_only,
                              self.sink_bearing + other.sink_bearing)

    def to_dict(self) -> dict:
        return {"skipped": self.skipped, "dep_only": self.dep_only,
                "sink_bearing": self.sink_bearing,
                "skip_rate": round(self.skip_rate, 4)}


@dataclass
class ScanStats:
    """Everything the ``--stats`` footer shows, in structured form."""

    total_seconds: float = 0.0
    files: int = 0
    lines: int = 0
    workers: int = 0
    #: ordered (phase, seconds) rows summing to ``total_seconds``.
    wall_phases: list[tuple[str, float]] = field(default_factory=list)
    #: per-file stage name -> histogram summary dict.
    file_phases: dict[str, dict] = field(default_factory=dict)
    slowest_files: list[tuple[str, float]] = field(default_factory=list)
    #: per-namespace cache counts (``report.cache``; None without a cache
    #: directory).  ``reparse_avoided`` counts requests served from the
    #: in-memory AST memo without touching the disk tier.
    caches: dict[str, CacheStats] | None = None
    reparse_avoided: int = 0
    worker_retries: list[tuple[str, str]] = field(default_factory=list)
    worker_crashes: list[tuple[str, str]] = field(default_factory=list)
    parse_errors: int = 0
    first_parse_error: tuple[str, str] | None = None
    #: files where statement-level recovery skipped damaged statements
    #: (still analyzed) and how many statements were dropped in total.
    parse_warnings: int = 0
    recovered_statements: int = 0
    #: include statements statically resolved / not resolvable.
    resolved_includes: int = 0
    unresolved_includes: int = 0
    candidates: int = 0
    predicted_fp: int = 0
    #: relevance-prefilter tier counts (None when the prefilter was off).
    prefilter: PrefilterStats | None = None

    # ------------------------------------------------------------------
    @property
    def loc_per_second(self) -> float:
        return self.lines / self.total_seconds if self.total_seconds \
            else 0.0

    @property
    def fp_rate(self) -> float:
        return self.predicted_fp / self.candidates if self.candidates \
            else 0.0

    def tier(self, namespace: str) -> CacheStats:
        return self.caches[namespace] if self.caches else CacheStats()

    def to_dict(self) -> dict:
        ast, summary = self.tier(AST), self.tier(SUMMARY)
        return {
            "total_seconds": round(self.total_seconds, 6),
            "files": self.files,
            "lines": self.lines,
            "workers": self.workers,
            "loc_per_second": round(self.loc_per_second, 1),
            "wall_phases": [
                {"phase": name, "seconds": round(seconds, 6)}
                for name, seconds in self.wall_phases],
            "file_phases": self.file_phases,
            "slowest_files": [
                {"file": path, "seconds": round(seconds, 6)}
                for path, seconds in self.slowest_files],
            "cache": self.caches[RESULT].to_dict() if self.caches else None,
            "worker_retries": [
                {"file": path, "error": error}
                for path, error in self.worker_retries],
            "worker_crashes": [
                {"file": path, "error": error}
                for path, error in self.worker_crashes],
            "parse_errors": self.parse_errors,
            "first_parse_error": (
                {"file": self.first_parse_error[0],
                 "error": self.first_parse_error[1]}
                if self.first_parse_error else None),
            "parse_warnings": self.parse_warnings,
            "recovered_statements": self.recovered_statements,
            "resolved_includes": self.resolved_includes,
            "unresolved_includes": self.unresolved_includes,
            "ast_cache": {"hits": ast.hits, "misses": ast.misses,
                          "puts": ast.puts,
                          "reparse_avoided": self.reparse_avoided},
            "summary_cache": {"hits": summary.hits,
                              "misses": summary.misses,
                              "puts": summary.puts},
            "candidates": self.candidates,
            "predicted_false_positives": self.predicted_fp,
            "predictor_fp_rate": round(self.fp_rate, 4),
            "prefilter": self.prefilter.to_dict()
            if self.prefilter is not None else None,
        }

    # ------------------------------------------------------------------
    def render(self) -> str:
        """The human ``--stats`` footer."""
        lines = ["== scan statistics",
                 f"   wall time: {self.total_seconds:.3f}s   "
                 f"files: {self.files}   lines: {self.lines}   "
                 f"throughput: {self.loc_per_second:,.0f} LoC/s   "
                 f"workers: {self.workers or 1}"]
        lines.append("   phase breakdown (wall):")
        for name, seconds in self.wall_phases:
            share = seconds / self.total_seconds * 100 \
                if self.total_seconds else 0.0
            lines.append(f"      {name:<10} {seconds:>9.4f}s  "
                         f"{share:>5.1f}%")
        if self.file_phases:
            lines.append("   per-file phases (CPU time across workers):")
            for name, summary in self.file_phases.items():
                lines.append(
                    f"      {name:<12} n={summary['count']:<5} "
                    f"sum={summary['sum']:.4f}s  "
                    f"p50={summary['p50'] * 1000:.2f}ms  "
                    f"p95={summary['p95'] * 1000:.2f}ms  "
                    f"max={summary['max'] * 1000:.2f}ms")
        if self.slowest_files:
            lines.append(f"   top-{len(self.slowest_files)} slowest files:")
            for path, seconds in self.slowest_files:
                lines.append(f"      {seconds:>9.4f}s  {path}")
        lines += cache_lines(self.caches[RESULT] if self.caches else None,
                             self.prefilter)
        ast, summary = self.tier(AST), self.tier(SUMMARY)
        if ast.hits or ast.misses or ast.puts or self.reparse_avoided:
            lines.append(
                f"   ast cache: {ast.hits} hits, {ast.misses} misses, "
                f"{ast.puts} puts, {self.reparse_avoided} reparses avoided")
        if summary.hits or summary.misses or summary.puts:
            lines.append(
                f"   summary cache: {summary.hits} hits, "
                f"{summary.misses} misses, {summary.puts} puts "
                f"(hit rate {summary.hit_rate * 100:.1f}%)")
        if self.worker_retries or self.worker_crashes:
            lines.append(
                f"   worker faults: {len(self.worker_retries)} isolated "
                f"retries, {len(self.worker_crashes)} crashes")
            for path, error in (self.worker_retries
                                + self.worker_crashes)[:TOP_SLOWEST]:
                lines.append(f"      {error}: {path}")
        if self.parse_errors:
            first = ""
            if self.first_parse_error:
                first = (f" (first: {self.first_parse_error[0]}: "
                         f"{self.first_parse_error[1]})")
            lines.append(f"   parse errors: {self.parse_errors}{first}")
        if self.parse_warnings:
            lines.append(
                f"   parse warnings: {self.parse_warnings} file(s), "
                f"{self.recovered_statements} damaged statement(s) "
                f"skipped by recovery")
        if self.resolved_includes or self.unresolved_includes:
            lines.append(
                f"   includes: {self.resolved_includes} resolved, "
                f"{self.unresolved_includes} unresolved")
        lines.append(
            f"   candidates: {self.candidates}   predicted FPs: "
            f"{self.predicted_fp} "
            f"(predictor FP rate {self.fp_rate * 100:.1f}%)")
        return "\n".join(lines)


def cache_lines(cache: CacheStats | None,
                prefilter: PrefilterStats | None) -> list[str]:
    """The result-cache and prefilter footer lines (telemetry-free)."""
    lines = []
    if cache is not None:
        lines.append(f"   cache: {cache.hits} hits, {cache.misses} misses, "
                     f"{cache.evictions} evictions, {cache.puts} puts "
                     f"(hit rate {cache.hit_rate * 100:.1f}%)")
    if prefilter is not None:
        lines.append(f"   prefilter: {prefilter.skipped} skipped, "
                     f"{prefilter.dep_only} dep-only, "
                     f"{prefilter.sink_bearing} sink-bearing "
                     f"(skip rate {prefilter.skip_rate * 100:.1f}%)")
    return lines


def build_scan_stats(report, telemetry, root_span=None,
                     cache=None, retries=(), crashes=()) -> ScanStats:
    """Distill one run's trace + metrics + report into :class:`ScanStats`.

    Args:
        report: the :class:`~repro.tool.report.AnalysisReport` (duck-typed:
            ``files``, ``outcomes``, totals).
        telemetry: the run's :class:`~repro.telemetry.Telemetry`.
        root_span: the run's root span; wall phases are its direct
            children.  When omitted the first parentless span is used.
        cache: the scan's per-namespace :class:`~repro.cache.CacheStats`
            (``report.cache``), if it had a cache directory.
        retries: (file, exception class) isolated-retry log.
        crashes: (file, exception class) crash log.
    """
    tracer = telemetry.tracer
    stats = ScanStats()
    stats.files = len(report.files)
    stats.lines = report.total_lines
    stats.candidates = len(report.outcomes)
    stats.predicted_fp = len(report.predicted_false_positives)

    if root_span is None:
        root_span = next((s for s in tracer.spans
                          if s.parent_id is None), None)
    if root_span is not None:
        stats.total_seconds = root_span.duration
        scoped = tracer.descendants_of(root_span.span_id)
        accounted = 0.0
        for child in tracer.children_of(root_span.span_id):
            stats.wall_phases.append((child.name, child.duration))
            accounted += child.duration
        stats.wall_phases.append(
            ("other", max(0.0, root_span.duration - accounted)))
        phases = Metrics()
        workers = set()
        for span in scoped:
            if span.name in FILE_PHASE_NAMES:
                phases.histogram(span.name).observe(span.duration)
            if span.worker is not None:
                workers.add(span.worker)
        stats.workers = len(workers)
        for name in FILE_PHASE_NAMES:
            if name in phases.histograms:
                stats.file_phases[name] = phases.histograms[name].summary()

    stats.slowest_files = sorted(
        ((f.filename, f.seconds) for f in report.files),
        key=lambda item: -item[1])[:TOP_SLOWEST]
    stats.caches = cache
    stats.worker_retries = list(retries)
    stats.worker_crashes = list(crashes)
    stats.prefilter = getattr(report, "prefilter", None)
    failed = [f for f in report.files if f.parse_error]
    stats.parse_errors = len(failed)
    if failed:
        stats.first_parse_error = (failed[0].filename,
                                   failed[0].parse_error)
    for f in report.files:
        if getattr(f, "parse_warning", None):
            stats.parse_warnings += 1
        stats.recovered_statements += getattr(f, "recovered_statements", 0)
        stats.resolved_includes += getattr(f, "resolved_includes", 0)
        stats.unresolved_includes += getattr(f, "unresolved_includes", 0)

    metrics = telemetry.metrics
    if metrics.enabled:
        avoided = metrics.counters.get("frontend_reparse_avoided")
        stats.reparse_avoided = int(avoided.value) if avoided else 0
        metrics.gauge("loc_per_second").set(stats.loc_per_second)
        metrics.gauge("predictor_fp_rate").set(stats.fp_rate)
        if stats.caches:
            metrics.gauge("cache_hit_rate").set(stats.caches[RESULT].hit_rate)
    return stats
