"""The parallel scan pipeline: engine fusion, worker pool, result cache.

Whole-tree scanning (Tables V-VII of the paper run over thousands of PHP
files) used to pay three avoidable costs: every detector sub-module and
every armed weapon traversed each file's AST with its *own*
:class:`~repro.analysis.engine.TaintEngine`, files were analyzed strictly
one after another, and nothing was remembered between runs.  This module
removes all three:

* **Engine fusion** — :class:`FusedDetector` merges the
  :class:`~repro.analysis.model.DetectorConfig` sets of every sub-module
  and weapon into ONE engine, so each file is traversed once.  Group
  semantics are preserved via the engine's group scoping (a taint born at
  a source function only one group declares cannot reach another group's
  sinks), and the RFI/LFI shape refinement is applied exactly as the
  RCE/file-injection sub-module would.

* **Parallelism** — :class:`ScanScheduler` fans file analysis out over a
  ``concurrent.futures`` process pool with deterministic result ordering.
  A file that kills a worker outright is retried in an isolated
  single-worker pool and, if it kills that too, becomes a ``parse_error``
  :class:`~repro.analysis.detector.FileResult` instead of a dead scan.
  ``jobs=1`` keeps everything in-process (the debugging path).

* **Incremental cache** — :class:`ResultCache` stores per-file detection
  results keyed by (file content hash, knowledge fingerprint, tool
  version) in the cache store (:mod:`repro.cache`).  The fingerprint
  (:func:`config_fingerprint`) covers every
  config field of every group, so arming a weapon, feeding an extra
  sanitizer (``--sanitizer sqli:escape``) or editing the ep/ss/san
  knowledge base all invalidate cleanly.  Predictions are *not* cached:
  the false-positive predictor re-runs over cached candidates, so
  dynamic-symptom changes never serve stale verdicts.

Known over-approximation corners where fusion can differ from running the
groups separately (none occur in the shipped knowledge, and the test
suite pins equality on the synthesized corpora): a PHP variable shadowing
a group-specific extra entry point, and a single function name that is a
sanitizer for one group but a sink or source for another.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.cache import (
    AST,
    CACHE_FORMAT,
    RECORD,
    RESULT,
    SUMMARY,
    CacheStats,
    CacheStore,
)
from repro.exceptions import PhpSyntaxError
# every parse lexes in AstStore.parse_recovering; ``tokenize`` stays
# bound here only because ``wapebench/layers.py`` patches it here
from repro.php import ast, tokenize  # noqa: F401
from repro.php.ast_store import AstCache, AstStore
from repro.php.source import MISSING, content_bytes, content_key, line_count
from repro.analysis.detector import PHP_EXTENSIONS, FileResult
from repro.analysis.engine import TaintEngine
from repro.analysis.includes import (
    IncludeContext,
    IncludeGraph,
    build_include_graph,
)
from repro.analysis.summaries import (
    FILE_MARKER,
    SummaryCache,
    absolute_to,
    map_candidates,
    relative_to,
)
from repro.analysis.model import (
    STEP_CONCAT,
    CandidateVulnerability,
    DetectorConfig,
)
from repro.analysis.options import ScanOptions
from repro.analysis.prefilter import (
    TIER_SINK_BEARING,
    FileRecord,
    RelevancePrefilter,
    matcher_for,
)
from repro.ir.opcodes import OPNAMES, IRModule
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: parse_error text for a file that repeatedly kills analysis workers.
CRASH_ERROR = "analysis worker crashed"

#: test-only seam: when this environment variable is set, a worker that
#: reads a file containing its value dies immediately, simulating a
#: hard crash (segfault-style) for the recovery tests.
_CRASH_ENV = "REPRO_PIPELINE_CRASH_MARKER"


@dataclass(frozen=True)
class ConfigGroup:
    """One detection unit of the unfused pipeline: a sub-module or weapon.

    Attributes:
        name: sub-module or weapon name (fingerprint + diagnostics).
        configs: the group's :class:`DetectorConfig` objects.
        split_rfi_lfi: whether the group applies the RFI/LFI shape
            refinement (the RCE/file-injection sub-module does).
    """

    name: str
    configs: tuple[DetectorConfig, ...]
    split_rfi_lfi: bool = False


def split_rfi_lfi(cand: CandidateVulnerability) -> CandidateVulnerability:
    """RFI/LFI split (§III-A): a concatenated include target is local.

    Both classes fire on tainted ``include``-family sinks; an include
    target concatenated with literal path fragments is a local-file
    inclusion, a fully attacker-controlled target a remote one.
    """
    if cand.vuln_class != "rfi":
        return cand
    if any(step.kind == STEP_CONCAT for step in cand.path):
        return dataclasses.replace(cand, vuln_class="lfi")
    return cand


class FusedDetector:
    """All sub-modules and weapons evaluated in a single AST traversal.

    Produces, per file, the same candidate set (by
    :meth:`~repro.analysis.model.CandidateVulnerability.key`) as running
    each group's own detector and concatenating, but walks the AST once.
    """

    def __init__(self, groups: tuple[ConfigGroup, ...] | list[ConfigGroup],
                 telemetry: Telemetry | None = None,
                 include_graph: IncludeGraph | None = None,
                 ast_store: AstStore | None = None,
                 summary_cache: SummaryCache | None = None,
                 profile: bool = False) -> None:
        self.groups = tuple(groups)
        self.telemetry = telemetry or NULL_TELEMETRY
        # --profile: the engine accumulates {opcode: [count, seconds]}
        # here; flush_opcode_profile() converts it to telemetry counters
        self.opcode_hist: dict | None = {} if profile else None
        configs = [cfg for g in self.groups for cfg in g.configs]
        self.engine = TaintEngine(
            configs, [list(g.configs) for g in self.groups],
            telemetry=self.telemetry, opcode_hist=self.opcode_hist) \
            if configs else None
        self._split = any(g.split_rfi_lfi for g in self.groups)
        self.include_graph = include_graph
        # one parse per unique content: the scan phase and the include
        # context draw from the same store (shared with the resolver when
        # the scheduler passes its own)
        if ast_store is None:
            ast_store = AstStore(
                metrics=self.telemetry.metrics
                if self.telemetry.enabled else None)
        self.ast_store = ast_store
        self._includes = IncludeContext(
            include_graph, ast_store=ast_store, summary_cache=summary_cache) \
            if include_graph else None

    @property
    def class_ids(self) -> list[str]:
        return [cfg.class_id for g in self.groups for cfg in g.configs]

    # ------------------------------------------------------------------
    def detect_program(self, module: IRModule | None,
                       filename: str = "<source>",
                       program: ast.Program | None = None
                       ) -> list[CandidateVulnerability]:
        """Analyze one file's lowered module with the fused engine.

        Args:
            module: the file's lowered IR (``Parsed.module`` of
                :mod:`repro.php.ast_store`); ``None`` when lowering gave
                up on it.
            filename: used in the reports and for include-closure lookup.
            program: the parse tree, needed only without a *module*: the
                engine lowers it (and gives up the same way).
        """
        if self.engine is None:
            return []
        extra = summaries = init = preset = state_key = None
        includes = self._includes
        if includes is not None:
            extra, summaries, init = includes.context_for(filename,
                                                          self.engine)
            preset, state_key = includes.preset_for(filename)
        candidates, env, run_summaries = self.engine.analyze_with_state(
            program, filename,
            extra_functions=extra,
            initial_env=init,
            module=module,
            extra_summaries=summaries,
            preset_summaries=preset)
        if includes is not None and preset is None:
            # feed the fresh state back: includers of this file compose
            # it in-process, later processes via the summary cache
            includes.remember_state(filename, state_key, env, run_summaries)
        if self._split:
            if self.telemetry.enabled:
                with self.telemetry.tracer.span("split", phase="split",
                                                file=filename):
                    candidates = [split_rfi_lfi(c) for c in candidates]
            else:
                candidates = [split_rfi_lfi(c) for c in candidates]
        seen: set[tuple] = set()
        unique: list[CandidateVulnerability] = []
        for cand in candidates:
            if cand.key() not in seen:
                seen.add(cand.key())
                unique.append(cand)
        return unique

    def detect_source(self, source: str | bytes,
                      filename: str = "<source>"
                      ) -> list[CandidateVulnerability]:
        """The candidates of :meth:`detect_source_recovering`.

        A detector with an include graph composes, keys and summarizes
        *filename* as its include context reads the file at that path,
        not as *source*.  Such a detector therefore analyzes files only
        through :meth:`detect_file`, which reads them through the
        context and is its only caller.
        """
        return self.detect_source_recovering(source, filename)[0]

    def detect_source_recovering(
            self, source: str | bytes, filename: str = "<source>",
            key: str | None = None
            ) -> tuple[list[CandidateVulnerability], list[PhpSyntaxError]]:
        """Analyze *source*, recovering from damaged statements.

        *source* is a file's bytes or a string standing for its UTF-8
        encoding (:mod:`repro.php.source`), *key* their content key when
        the caller has it.  Returns the candidates plus the syntax errors
        that were skipped (empty for a clean file).  Still raises
        :class:`PhpSyntaxError` when nothing was salvageable: lexer
        errors, or a file recovery could not extract a single PHP
        statement from.
        """
        data = content_bytes(source)
        key = key or content_key(data)
        parsed = self.ast_store.parse_recovering(
            data, filename, key,
            self.telemetry.tracer if self.telemetry.enabled else None)
        if parsed.warnings and not parsed.has_php:
            raise parsed.warnings[0]  # recovery salvaged no PHP at all
        return self.detect_program(parsed.module, filename,
                                   parsed.program), parsed.warnings

    def detect_bytes(self, data: bytes, filename: str = "<source>",
                     key: str | None = None) -> FileResult:
        """One content's :class:`FileResult`: its line count, and the
        candidates and recovery warnings of its recovering parse; a
        syntax error nothing could be salvaged from, or nesting past the
        recursion limit, is its ``parse_error``.  *key* is the content
        key of *data* when the caller has it."""
        start = time.perf_counter()
        result = FileResult(filename=filename, lines_of_code=line_count(data))
        try:
            result.candidates, warnings = \
                self.detect_source_recovering(data, filename, key)
            if warnings:
                result.parse_warning = str(warnings[0]) if len(warnings) == 1 \
                    else f"{warnings[0]} (+{len(warnings) - 1} more)"
                result.recovered_statements = len(warnings)
        except PhpSyntaxError as exc:
            result.parse_error = str(exc)
        except RecursionError:
            result.parse_error = "recursion limit during analysis"
        result.seconds = time.perf_counter() - start
        return result

    def detect_file(self, path: str) -> FileResult:
        """Analyze one file; errors are captured, wall time recorded."""
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._detect_file(path)
        with telemetry.tracer.span("file", phase="file", file=path):
            result = self._detect_file(path)
        metrics = telemetry.metrics
        metrics.counter("files_scanned").inc()
        metrics.counter("lines_scanned").inc(result.lines_of_code)
        if result.parse_error:
            metrics.counter("parse_errors").inc()
        if result.parse_warning:
            metrics.counter("parse_warnings").inc()
            metrics.counter("statements_recovered").inc(
                result.recovered_statements)
        for cand in result.candidates:
            metrics.counter(f"candidates.{cand.vuln_class}").inc()
        return result

    def _detect_file(self, path: str) -> FileResult:
        start = time.perf_counter()
        # with an include graph, the file is read into the context's view
        reader = self._includes if self._includes is not None \
            else self.ast_store
        try:
            data, key = reader.read(path)
        except OSError as exc:
            return FileResult(filename=path, parse_error=str(exc),
                              seconds=time.perf_counter() - start)
        result = self.detect_bytes(data, path, key)
        result.seconds = time.perf_counter() - start
        return result

    def flush_opcode_profile(self) -> None:
        """Convert the opcode histogram into telemetry counters.

        ``ir_op_count.<OP>`` (dispatches) and ``ir_op_ns.<OP>``
        (cumulative integer nanoseconds) are plain counters, so the
        existing cross-process counter merge aggregates every worker's
        histogram into the parent for free.  No-op without ``--profile``
        or without enabled telemetry.
        """
        hist = self.opcode_hist
        if not hist or not self.telemetry.enabled:
            return
        metrics = self.telemetry.metrics
        for op, (count, seconds) in hist.items():
            name = OPNAMES.get(op, str(op))
            metrics.counter(f"ir_op_count.{name}").inc(count)
            metrics.counter(f"ir_op_ns.{name}").inc(int(seconds * 1e9))
        hist.clear()


# ---------------------------------------------------------------------------
# knowledge fingerprint + on-disk result cache
# ---------------------------------------------------------------------------

def _config_token(cfg: DetectorConfig) -> str:
    """Deterministic serialization of one config for fingerprinting."""
    sinks = ";".join(
        f"{s.name}|{s.kind}|{s.arg_positions}|{s.receiver_hint}"
        for s in cfg.sinks)
    return "|".join((
        cfg.class_id,
        cfg.display_name,
        ",".join(sorted(cfg.entry_points)),
        ",".join(sorted(cfg.source_functions)),
        sinks,
        ",".join(sorted(cfg.sanitizers)),
        ",".join(sorted(cfg.sanitizer_methods)),
        ",".join(sorted(cfg.untaint_casts)),
    ))


def config_fingerprint(groups: tuple[ConfigGroup, ...] | list[ConfigGroup],
                       tool_version: str = "",
                       project: bool = False) -> str:
    """Stable hash of everything that determines detection results.

    Any change to the knowledge (ep/ss/san edits, extra sanitizers, armed
    weapons), to the grouping, to the cache format or to the
    whole-project policy (*project*) yields a new fingerprint, so stale
    cached results can never be served.  The policy must be covered
    because :func:`closure_key` hashes closure *contents*, not edges: a
    dependency's call edges can change its findings while the closure of
    a file that includes it stays the same.
    """
    digest = hashlib.sha256(
        f"scan-cache-v{CACHE_FORMAT}|{tool_version}".encode())
    if project:
        digest.update(b"|project")
    for group in groups:
        digest.update(f"\n[{group.name}|{group.split_rfi_lfi}]".encode())
        for cfg in group.configs:
            digest.update(("\n" + _config_token(cfg)).encode())
    return digest.hexdigest()


def closure_key(path: str, raw_hash: str,
                graph, raw_hashes: dict[str, str]) -> str:
    """Cache key for *path*: its content hash + its include closure.

    A file analyzed with cross-file context depends on the contents of
    every resolved include; mixing the (dep identity, dep content hash)
    pairs of the closure into the key makes an edit to any included file
    invalidate the includer's cached result.  Dependencies are identified
    by their path *relative to the including file*, never absolutely, so
    a project scanned from a moved or renamed checkout still hits the
    entries it populated at the old location.

    Every closure member is a scanned path, so *raw_hashes* holds its
    hash (:data:`MISSING` for a file that cannot be read, which includes
    nothing: its own key is :data:`MISSING` too).  The closure and its
    relative names are the graph's memo
    (:meth:`IncludeGraph.relative_closure`), so a warm scan that keeps
    the graph only hashes.
    """
    if not graph or not graph.closure(path):
        return raw_hash
    digest = hashlib.sha256(raw_hash.encode())
    for dep, rel in graph.relative_closure(path):
        digest.update(f"\n{rel}\x00{raw_hashes[dep]}".encode())
    return digest.hexdigest()


def _strip_file_marker(text: str | None, filename: str) -> str | None:
    """Diagnostic strings quote the scanned file's path verbatim."""
    return text.replace(filename, FILE_MARKER) if text else text


def _expand_file_marker(text: str | None, filename: str) -> str | None:
    return text.replace(FILE_MARKER, filename) if text else text


class ResultCache:
    """Per-file detection results on disk, keyed by closure key: the
    ``result`` namespace of a :class:`~repro.cache.CacheStore` (a file
    per knowledge fingerprint), plus its ``record`` namespace through
    the blob methods.  Results follow file *contents*, so an unchanged
    tree re-scans near-instantly and a renamed file still hits.

    Entries never embed the paths of the checkout that populated them:
    candidate filenames and cross-file hops are stored relative to the
    scanned file, the file itself as the self marker (another file with
    the same content shares the entry), and re-joined at load.  Puts are
    buffered until the scheduler's once-per-scan :meth:`flush`.
    """

    def __init__(self, store: CacheStore) -> None:
        self.store = store

    #: the planning pass's name for :func:`~repro.php.source.content_key`
    content_hash = staticmethod(content_key)

    def get(self, content_hash: str, filename: str) -> FileResult | None:
        """Cached result for *content_hash*, re-attributed to *filename*."""
        payload = self.store.get(RESULT, content_hash,
                                 lambda value: isinstance(value, dict))
        if payload is None:
            return None
        return FileResult(
            filename=filename,
            candidates=map_candidates(payload["candidates"],
                                      absolute_to(filename)),
            lines_of_code=payload["lines_of_code"],
            parse_error=_expand_file_marker(payload["parse_error"],
                                            filename),
            parse_warning=_expand_file_marker(payload.get("parse_warning"),
                                              filename),
            recovered_statements=payload.get("recovered_statements", 0),
        )

    def put(self, content_hash: str, result: FileResult) -> None:
        """Buffer one result for the next :meth:`flush`."""
        self.store.put(RESULT, content_hash, {
            "candidates": map_candidates(result.candidates,
                                         relative_to(result.filename)),
            "lines_of_code": result.lines_of_code,
            "parse_error": _strip_file_marker(result.parse_error,
                                              result.filename),
            "parse_warning": _strip_file_marker(result.parse_warning,
                                                result.filename),
            "recovered_statements": result.recovered_statements,
        })

    def flush(self) -> None:
        """Persist buffered puts (one atomic rewrite per namespace)."""
        self.store.flush(RESULT)
        self.store.flush(RECORD)

    # ------------------------------------------------------------------
    # the prefilter's per-content records, keyed by content hash
    def get_blob(self, key: str):
        return self.store.get(RECORD, key)

    def put_blob(self, key: str, value) -> None:
        self.store.put(RECORD, key, value)


# ---------------------------------------------------------------------------
# worker pool
# ---------------------------------------------------------------------------

_WORKER_DETECTOR: FusedDetector | None = None
_WORKER_TELEMETRY: Telemetry = NULL_TELEMETRY
_WORKER_STORE: CacheStore | None = None


def _init_worker(groups: tuple[ConfigGroup, ...],
                 include_graph: IncludeGraph | None = None,
                 store: CacheStore | None = None,
                 profile: bool = False,
                 recorder: tuple = (False, None, "")) -> None:
    """Per-worker initializer: build the fused detector once.

    The worker's :class:`~repro.telemetry.Telemetry` is built from the
    parent recorder's *recorder* spec (its ``worker_spec``): when the
    parent scan traces or logs, the worker records its spans, counters
    and log records itself, and every chunk result ships them home as
    one batch.  The include graph (resolved
    once in the parent) rides along so each worker can supply cross-file
    context; per-dependency state is memoized inside the worker's
    :class:`IncludeContext`.  Each worker keeps a per-process
    :class:`AstStore` (scan phase + include context share one parse per
    content), backed by the on-disk AST and summary tiers when the scan
    has a cache directory (*store*, a fresh store on it: the worker only
    reads, see :func:`_scan_chunk`).
    """
    global _WORKER_DETECTOR, _WORKER_TELEMETRY, _WORKER_STORE
    _WORKER_TELEMETRY = Telemetry.for_worker(recorder)
    _WORKER_STORE = store
    ast_store = AstStore(
        disk=AstCache(store) if store else None,
        metrics=_WORKER_TELEMETRY.metrics
        if _WORKER_TELEMETRY.enabled else None)
    summary_cache = SummaryCache(store) if store else None
    _WORKER_DETECTOR = FusedDetector(groups, telemetry=_WORKER_TELEMETRY,
                                     include_graph=include_graph,
                                     ast_store=ast_store,
                                     summary_cache=summary_cache,
                                     profile=profile)


def _scan_path(path: str) -> FileResult:
    """Worker task: analyze one file with the worker's fused detector."""
    marker = os.environ.get(_CRASH_ENV)
    if marker:
        try:
            with open(path, "rb") as f:
                if marker.encode() in f.read():
                    os._exit(3)  # simulated hard crash (tests only)
        except OSError:
            pass
    assert _WORKER_DETECTOR is not None
    return _WORKER_DETECTOR.detect_file(path)


def _scan_chunk(paths: list[str]
                ) -> tuple[list[FileResult], tuple, tuple | None]:
    """Worker task: analyze a batch of files in one round-trip.

    Batching amortizes the per-task IPC cost (submit + result pickling)
    over many files; with ~1 ms of analysis per typical PHP file, per-file
    dispatch would otherwise dominate the wall clock.

    Returns the per-file results, the worker recorder's batch for this
    chunk (spans, counters and log records:
    :meth:`~repro.telemetry.Telemetry.drain`), and, with a cache
    directory, the chunk's cache work (counts, puts, evictions and
    reads: :meth:`~repro.cache.CacheStore.drain`) for the parent to
    write.
    """
    telemetry = _WORKER_TELEMETRY
    log = telemetry.log
    if not telemetry.enabled:
        results = [_scan_path(path) for path in paths]
    else:
        with telemetry.tracer.span("chunk", phase="chunk",
                                   files=len(paths)):
            results = [_scan_path(path) for path in paths]
    if log.enabled:
        for result in results:
            if result.parse_error:
                log.warning("parse_error", file=result.filename,
                            error=result.parse_error)
            elif result.parse_warning:
                log.info("parse_warning", file=result.filename,
                         warning=result.parse_warning,
                         recovered=result.recovered_statements)
        log.info("chunk_scanned", files=len(paths),
                 candidates=sum(len(r.candidates) for r in results))
    if _WORKER_DETECTOR is not None:
        # under --profile the opcode histogram becomes counters here, so
        # it rides home in the chunk's batch
        _WORKER_DETECTOR.flush_opcode_profile()
    cache_work = _WORKER_STORE.drain() \
        if _WORKER_STORE is not None else None
    return results, telemetry.drain(os.getpid()), cache_work


@dataclass
class ScanState:
    """What one scan of a tree leaves for the next scan of the same tree.

    A :class:`ScanScheduler` built with it as *previous* keeps the result
    of every path whose closure key is unchanged, keeps the include graph
    while no file was added or removed and no edit changed a file's
    include targets (under the whole-project policy: while no file was
    edited either), plans from the memoized records and probes the same
    result-cache handle.  The tool's ``run_scheduler`` then keeps the
    file report of every kept result.  Every scan leaves one (see
    :meth:`ScanScheduler.scan_files`); only :class:`repro.api.Scanner`
    keeps it.

    A scan publishes fresh hashes, keys, results and reports dicts and
    leaves those of a state it was given as they were, but it shares
    their objects: a kept result is
    the previous scan's :class:`FileResult`, whose include counts the
    scan refreshes from its own graph (which is why ``_kept_report`` in
    :mod:`repro.tool.wap` compares a kept report's counts with its
    result's), and :func:`~repro.tool.report.file_report_dict` writes a
    kept report's fingerprint memo lazily.  The record memo and the
    graph's closure memo grow.

    Attributes:
        fingerprint: the knowledge fingerprint the scan ran under; a
            scheduler under other knowledge ignores the state.
        hashes: path -> content hash the scan used (:data:`MISSING`
            for a file it could not read).
        graph: the scan's include graph.
        keys: path -> closure key.
        results: path -> the scan's :class:`FileResult`.
        records: content hash -> :class:`FileRecord`, shared by every
            scan of the tree under this fingerprint.
        cache: the result-cache handle (None without a cache dir).
        reports: path -> the :class:`~repro.tool.report.FileReport`
            ``run_scheduler`` built from the path's result (shared with
            the next scan's report while the result is kept).
        predictor: the false-positive predictor those reports came from.
        groups: the report groups (class id -> group) they were built
            under.
    """

    fingerprint: str
    hashes: dict[str, str]
    graph: IncludeGraph | None
    keys: dict[str, str]
    results: dict[str, FileResult]
    records: dict[str, FileRecord]
    cache: ResultCache | None
    reports: dict = dataclasses.field(default_factory=dict)
    predictor: object = None
    groups: dict[str, str] | None = None


class ScanScheduler:
    """Plans and runs one scan: records, include graph, tiers, cache,
    then the files left over, in-process or on a process pool.

    Args:
        groups: detection units (sub-modules + weapons), as built by the
            tool facades.
        options: the run's :class:`~repro.analysis.options.ScanOptions`
            (jobs, cache_dir, includes, project, prefilter, telemetry).
        tool_version: mixed into the cache fingerprint so different tool
            versions never share entries.
        previous: the :class:`ScanState` of the last scan of the same
            tree, for a warm re-scan (:class:`repro.api.Scanner`).
    """

    def __init__(self, groups: list[ConfigGroup] | tuple[ConfigGroup, ...],
                 tool_version: str = "",
                 options: ScanOptions | None = None,
                 previous: ScanState | None = None) -> None:
        opts = options if options is not None else ScanOptions()
        self.options = opts
        self.groups = tuple(groups)
        self.jobs = opts.resolved_jobs()
        self.fingerprint = config_fingerprint(self.groups, tool_version,
                                              project=opts.project)
        #: the state this scan reuses; None for a first scan, and when
        #: the knowledge changed since (every old result is stale)
        self.previous = previous \
            if previous is not None \
            and previous.fingerprint == self.fingerprint else None
        #: the cache directory's store (every tier is a view of it); a
        #: warm re-scan goes on with the previous scan's
        if self.previous is not None and self.previous.cache is not None:
            self.store = self.previous.cache.store
        else:
            self.store = CacheStore(opts.cache_dir, self.fingerprint) \
                if opts.cache_dir else None
        self.cache = ResultCache(self.store) if self.store else None
        self.telemetry = opts.resolve_telemetry()
        self.includes = opts.includes
        self.project = opts.project
        self.profile = opts.profile
        #: on-disk summary tier, keyed by content + closure + knowledge
        #: fingerprint, so it needs no per-fingerprint file.
        self.summary_cache = SummaryCache(self.store) if self.store else None
        #: the scan's shared parse memo: the in-process scan phase and
        #: the whole-project call-edge pass parse each unique content
        #: exactly once, from the tokens the record pass lexed when it
        #: lexed them.
        self.ast_store = AstStore(
            disk=AstCache(self.store) if self.store is not None else None,
            metrics=self.telemetry.metrics
            if self.telemetry.enabled else None)
        #: keeper of the per-content records (byte verdicts + include
        #: targets) that the include graph and the tiers derive from;
        #: None when neither includes nor the prefilter need them.  The
        #: compiled matcher is memoized per knowledge fingerprint, so
        #: arming a weapon rebuilds it.  Lexed tokens go to the scan's
        #: store only when this process parses them.
        #: whether tiers skip provably candidate-free files
        self.skip_irrelevant = opts.prefilter and bool(self.groups)
        self.prefilter = RelevancePrefilter(
            matcher_for(self.groups, self.fingerprint), cache=self.cache,
            memo=self.previous.records if self.previous else None,
            ast_store=self.ast_store
            if (self._in_process or self.project) else None,
            parse_all=self.project or not self.skip_irrelevant) \
            if (opts.includes or opts.prefilter) else None
        #: tier counts of the last scan (None when the prefilter is off).
        self.prefilter_stats = None
        #: per-namespace cache behaviour of the last scan, every worker's
        #: included (None without a cache).
        self.cache_stats: dict[str, CacheStats] | None = None
        #: the resolved include graph of the last scan (telemetry + tests).
        self.include_graph: IncludeGraph | None = None
        #: paths of the last scan that did not keep a previous result, in
        #: scan order (every path without a previous scan) ...
        self.rerun: list[str] = []
        #: ... and how many of them the tiers did not skip.
        self.analyzed = 0
        #: what the last scan leaves for the next one (see ScanState).
        self.state: ScanState | None = None
        #: (file, exception class) for files retried in isolation after a
        #: worker died mid-chunk — never silent (satellite of ISSUE 2).
        self.retries: list[tuple[str, str]] = []
        #: (file, exception class) for files whose isolated retry ALSO
        #: crashed; these become ``parse_error`` results.
        self.crashes: list[tuple[str, str]] = []
        #: the in-process detector, dropped with each new include graph
        self._detector: FusedDetector | None = None

    @property
    def _in_process(self) -> bool:
        """Pending files run in this process at ``jobs=1`` and on a warm
        re-scan, whose dirty set is almost always far too small to win
        from worker start-up."""
        return self.jobs == 1 or self.previous is not None

    # ------------------------------------------------------------------
    @staticmethod
    def discover(root: str) -> list[str]:
        """Every PHP file under *root*, in deterministic walk order."""
        paths: list[str] = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            prefix = os.path.join(dirpath, "")  # what joining a name adds
            for name in sorted(filenames):
                if name.lower().endswith(PHP_EXTENSIONS):
                    paths.append(prefix + name)
        return paths

    def _local_detector(self) -> FusedDetector:
        if self._detector is None:
            self._detector = FusedDetector(self.groups,
                                           telemetry=self.telemetry,
                                           include_graph=self._worker_graph(),
                                           ast_store=self.ast_store,
                                           summary_cache=self.summary_cache,
                                           profile=self.profile)
        return self._detector

    def _worker_graph(self) -> IncludeGraph | None:
        """The include graph to hand detectors; None when empty/disabled."""
        return self.include_graph if self.include_graph else None

    # ------------------------------------------------------------------
    def scan_tree(self, root: str) -> list[FileResult]:
        """Analyze every PHP file under *root* (ordered like the walk)."""
        with self.telemetry.tracer.span("discover", phase="discover",
                                        root=root):
            paths = self.discover(root)
        return self.scan_files(paths, root=root)

    def scan_files(self, paths: list[str],
                   hashes: dict[str, str] | None = None,
                   root: str = "") -> list[FileResult]:
        """Analyze *paths*, returning results in the same order.

        Every scan plans the same way.  A file whose content hash the
        caller vouches for is not read while the record memo holds its
        record (or the scan needs none); every other file is read once,
        for its hash and its record (which carries its line count), and
        every reader in this process takes the bytes (or the error) read
        here.  A file that cannot be read hashes as :data:`MISSING` and
        names no include.  Every closure key
        is computed up front, each previous result whose key is unchanged
        is kept, and :attr:`state` is left for the next scan of the tree.

        Args:
            hashes: path -> content hash of the files the caller knows
                (a warm :class:`repro.api.Scanner` passes those whose
                stat signature is unchanged); need not cover *paths*.
            root: the scanned tree, whose scans age its cache entries
                (see :mod:`repro.cache`).
        """
        telemetry = self.telemetry
        log = telemetry.log
        previous = self.previous
        if log.enabled:
            log.info("scan_start", files=len(paths), jobs=self.jobs,
                     includes=self.includes,
                     fingerprint=self.fingerprint[:12])
        cache = self.cache
        if self.store is not None:
            self.store.begin_scan(root)
        raw_hashes = dict(hashes) if hashes else {}
        prefilter = self.prefilter
        memo = prefilter.memo if prefilter is not None else None
        # a file with a vouched hash is not read while the memo holds its
        # record, or when the scan needs no records at all
        records: dict[str, FileRecord] = {} if memo is None else {
            path: record for path, digest in raw_hashes.items()
            if (record := memo.get(digest)) is not None}
        known = raw_hashes if memo is None else records
        # the bytes read here, and their keys, serve this process's
        # readers (pool workers read their files themselves)
        held = self.ast_store.held \
            if self._in_process or self.project else None
        if held is not None:
            self.ast_store.keys = raw_hashes
        for path in paths:
            if path in known:
                continue
            try:
                with open(path, "rb") as f:
                    raw = f.read()
            except OSError as exc:
                raw_hashes[path] = MISSING  # the detector reports it
                if held is not None:  # ... from here: no reader tries again
                    held[path] = exc.with_traceback(None)
                continue
            digest = raw_hashes[path] = ResultCache.content_hash(raw)
            if prefilter is not None:
                # every plan-time fact of a file, from the bytes we
                # already hold (lexed only when it names an include)
                records[path] = prefilter.verdict(raw, digest, path)
            if held is not None:
                held[path] = raw
        if self.store is not None:
            # every current content's record and AST entry stays, read or
            # not (both are keyed by the content key)
            self.store.touch(RECORD, raw_hashes.values())
            self.store.touch(AST, raw_hashes.values())
        if self.includes:
            with telemetry.tracer.span("resolve_includes", phase="link",
                                       files=len(paths)):
                if previous is not None \
                        and self._graph_stands(raw_hashes, records):
                    self.include_graph = previous.graph
                else:
                    # every file resolves again: a new file can steal a
                    # unique-basename resolution from an untouched one,
                    # and under the whole-project policy one file's new
                    # declaration can move other files' call edges.  A
                    # file that could not be read has no record: no include
                    self.include_graph = build_include_graph(
                        paths, {p: records[p].includes if p in records
                                else () for p in paths},
                        ast_store=self.ast_store, project=self.project)
            # cross-file context is memoized per graph: a fresh graph
            # (file contents may have changed) needs a fresh detector
            self._detector = None
        else:
            self.include_graph = None
        if not self._in_process:
            # workers see the call-edge pass's parses
            self.ast_store.flush()
        if self.summary_cache is not None and self.include_graph:
            # an included file's summary stays while it is included,
            # though only a re-run of an includer reads it
            self.store.touch(SUMMARY, self._included_summary_keys(raw_hashes))
        tiers: dict[str, str] | None = None
        if self.skip_irrelevant:
            with telemetry.tracer.span("prefilter", phase="prefilter",
                                       files=len(paths)):
                tiers = self.prefilter.classify(paths, self.include_graph,
                                                records)
            self.prefilter_stats = RelevancePrefilter.stats_of(tiers)
        else:
            self.prefilter_stats = None
        # every key is computed here, once: the next scan compares
        # against them
        keys = {p: closure_key(p, raw_hashes[p], self.include_graph,
                               raw_hashes) for p in paths}
        try:
            with telemetry.tracer.span("scan", phase="scan",
                                       files=len(paths)):
                results = self._scan_files_traced(paths, tiers,
                                                  records, keys)
        finally:
            # the sequential path's opcode histogram lives in the local
            # detector (workers flush theirs before each chunk drain)
            if self._detector is not None:
                self._detector.flush_opcode_profile()
            # tokens of files the scan never parsed, and the bytes read
            self.ast_store.drop_tokens()
            # one atomic rewrite per namespace instead of thousands of
            # tiny per-entry files — see repro.cache
            self.ast_store.flush()
            if self.summary_cache is not None:
                self.summary_cache.flush()
            if cache is not None:
                cache.flush()
                # the result handle outlives the scan (ScanState); what
                # the scan loaded of ASTs and summaries does not
                self.store.release(AST, SUMMARY)
        if self.store is not None:
            self.cache_stats = {namespace: dataclasses.replace(counts)
                                for namespace, counts
                                in self.store.counts.items()}
        if self.include_graph is not None:
            # kept results are the previous state's objects: this
            # rewrites their counts too (see repro.tool.wap._kept_report)
            for result in results:
                result.resolved_includes = \
                    self.include_graph.resolved.get(result.filename, 0)
                result.unresolved_includes = \
                    self.include_graph.unresolved.get(result.filename, 0)
        self.state = ScanState(
            self.fingerprint, raw_hashes, self.include_graph, keys,
            dict(zip(paths, results)), memo if memo is not None else {},
            cache)
        if telemetry.enabled:
            metrics = telemetry.metrics
            for result in results:
                if result.parse_error:
                    metrics.counter("parse_errors_total").inc()
            if self.include_graph is not None:
                metrics.counter("includes_resolved").inc(
                    sum(self.include_graph.resolved.values()))
                metrics.counter("includes_unresolved").inc(
                    sum(self.include_graph.unresolved.values()))
            if self.cache_stats is not None:
                result, asts, summaries = (self.cache_stats[namespace]
                                           for namespace
                                           in (RESULT, AST, SUMMARY))
                metrics.gauge("cache_hits").set(result.hits)
                metrics.gauge("cache_misses").set(result.misses)
                metrics.gauge("cache_evictions").set(result.evictions)
                metrics.gauge("cache_puts").set(result.puts)
                metrics.gauge("ast_cache_hits").set(asts.hits)
                metrics.gauge("ast_cache_misses").set(asts.misses)
                metrics.gauge("ast_cache_puts").set(asts.puts)
                metrics.gauge("summary_cache_hits").set(summaries.hits)
                metrics.gauge("summary_cache_misses").set(summaries.misses)
                metrics.gauge("summary_cache_puts").set(summaries.puts)
                metrics.counter("ast_cache_hit").inc(asts.hits)
                metrics.counter("summary_cache_hit").inc(summaries.hits)
                metrics.counter("summary_cache_miss").inc(summaries.misses)
            if self.prefilter_stats is not None:
                metrics.gauge("prefilter_skipped").set(
                    self.prefilter_stats.skipped)
                metrics.gauge("prefilter_dep_only").set(
                    self.prefilter_stats.dep_only)
                metrics.gauge("prefilter_sink_bearing").set(
                    self.prefilter_stats.sink_bearing)
        if log.enabled:
            log.info("scan_done", files=len(paths),
                     candidates=sum(len(r.candidates) for r in results),
                     parse_errors=sum(1 for r in results
                                      if r.parse_error),
                     retries=len(self.retries),
                     crashes=len(self.crashes),
                     prefilter_skipped=self.prefilter_stats.skipped
                     if self.prefilter_stats is not None else None)
        return results

    def _graph_stands(self, raw_hashes: dict[str, str],
                      records: dict[str, FileRecord]) -> bool:
        """Whether the previous scan's include graph is this scan's.

        It is while no file was added or removed and every edited file
        names the same include targets as before: under the default
        policy the graph is a function of the path set and each file's
        targets alone.  Under the whole-project policy any edit may move
        a call edge, so only an unedited tree keeps it.
        """
        old_hashes = self.previous.hashes
        if raw_hashes.keys() != old_hashes.keys():
            return False
        old_records = self.previous.records
        for path, digest in raw_hashes.items():
            old = old_hashes[path]
            if digest == old:
                continue
            if self.project:
                return False
            record, before = records.get(path), old_records.get(old)
            if record is None or before is None \
                    or record.includes != before.includes:
                return False
        return True

    def _included_summary_keys(self, raw_hashes: dict[str, str]
                               ) -> list[str]:
        """The summary key of every file something includes, as the
        include context derives it."""
        graph = self.include_graph
        return [self.summary_cache.key_for(graph, dep, raw_hashes[dep],
                                           raw_hashes.__getitem__)
                for dep in graph.included]

    def _scan_files_traced(self, paths: list[str],
                           tiers: dict[str, str] | None,
                           records: dict[str, FileRecord],
                           keys: dict[str, str]) -> list[FileResult]:
        """Per file, in order: keep the previous result while the closure
        key is unchanged, then the tier skip, the cache probe, and the
        detector for whatever is left (its results go to the cache).  A
        file that cannot be read (key :data:`MISSING`) is neither kept,
        probed nor put."""
        telemetry = self.telemetry
        tracer = telemetry.tracer
        previous = self.previous
        results: dict[int, FileResult] = {}
        rerun: list[str] = []
        kept: list[str] = []
        skipped = 0
        pending: list[tuple[int, str]] = []
        for i, path in enumerate(paths):
            key = keys[path]
            old = previous.results.get(path) \
                if previous is not None else None
            if old is not None and key == previous.keys[path] \
                    and key != MISSING and old.parse_error != CRASH_ERROR:
                results[i] = old
                kept.append(key)
                continue
            rerun.append(path)
            if tiers is not None \
                    and tiers.get(path, TIER_SINK_BEARING) \
                    != TIER_SINK_BEARING:
                # the prefilter proved this file cannot contain a
                # finding: report it clean without parsing (and without
                # probing or polluting the result cache)
                results[i] = FileResult(filename=path,
                                        lines_of_code=records[path].lines)
                skipped += 1
                continue
            if self.cache is not None and key != MISSING:
                if telemetry.enabled:
                    with tracer.span("cache_get", phase="cache",
                                     file=path) as span:
                        cached = self.cache.get(key, path)
                        span.set(hit=cached is not None)
                else:
                    cached = self.cache.get(key, path)
                if cached is not None:
                    results[i] = cached
                    continue
            pending.append((i, path))
        self.rerun = rerun
        self.analyzed = len(rerun) - skipped
        if self.store is not None:
            # a kept result's entry stays in the store without a read
            self.store.touch(RESULT, kept)
        held, graph = self.ast_store.held, self.include_graph
        if held:
            # this process reads only its pending files and their include
            # closures (pool workers read their own): let go of the rest
            self.ast_store.held = {} if not self._in_process else {
                dep: held[dep] for _i, path in pending
                for dep in (path, *(graph.closure(path) if graph else ()))
                if dep in held}

        if pending:
            if self._in_process:
                fresh = self._scan_sequential(pending)
            else:
                fresh = self._scan_parallel(pending)
            results.update(fresh)
            if self.cache is not None:
                for i, path in pending:
                    # crash results are environment-specific; don't pin them
                    if results[i].parse_error != CRASH_ERROR \
                            and keys[path] != MISSING:
                        if telemetry.enabled:
                            with tracer.span("cache_put", phase="cache",
                                             file=path):
                                self.cache.put(keys[path], results[i])
                        else:
                            self.cache.put(keys[path], results[i])
        return [results[i] for i in range(len(paths))]

    # ------------------------------------------------------------------
    def _scan_sequential(self, pending: list[tuple[int, str]]
                         ) -> dict[int, FileResult]:
        detector = self._local_detector()
        return {i: detector.detect_file(path) for i, path in pending}

    def _scan_parallel(self, pending: list[tuple[int, str]]
                       ) -> dict[int, FileResult]:
        telemetry = self.telemetry
        tracer = telemetry.tracer
        out: dict[int, FileResult] = {}
        suspect: list[tuple[int, str, str]] = []  # (idx, path, cause)
        workers = min(self.jobs, len(pending))
        # several chunks per worker: amortizes IPC without losing load
        # balancing to one slow straggler chunk
        chunk_size = max(1, len(pending) // (workers * 4))
        chunks = self._build_chunks(pending, chunk_size)
        try:
            with ProcessPoolExecutor(max_workers=workers,
                                     initializer=_init_worker,
                                     initargs=self._worker_args(True)
                                     ) as pool:
                futures = {pool.submit(_scan_chunk,
                                       [p for _i, p in chunk]): chunk
                           for chunk in chunks}
                for future, chunk in futures.items():
                    try:
                        chunk_results, batch, cache_work = future.result()
                        for (i, _path), result in zip(chunk,
                                                      chunk_results):
                            out[i] = result
                        telemetry.absorb(batch, tracer.current_id)
                        if cache_work is not None:
                            self.store.absorb(cache_work)
                    except Exception as exc:
                        # a worker died mid-chunk, or raised something we
                        # cannot attribute to one file: retry each file of
                        # the chunk in isolation below
                        cause = type(exc).__name__
                        suspect.extend((i, p, cause) for i, p in chunk)
        except BrokenProcessPool as exc:
            # the pool died while submitting/shutting down
            done = {i for i, _p, _c in suspect} | set(out)
            suspect.extend((i, p, type(exc).__name__)
                           for i, p in pending if i not in done)
        # files in flight when a worker died: retry each in isolation, so
        # one poisonous file cannot take down the scan — each retry is
        # logged to the trace/metrics with the failing file and the
        # exception class that triggered it
        for i, path, cause in suspect:
            out[i] = self._scan_isolated(path, cause)
        return out

    def _worker_args(self, traced: bool) -> tuple:
        """:func:`_init_worker`'s arguments (a retry runs untraced)."""
        return (self.groups, self._worker_graph(),
                CacheStore(self.options.cache_dir, self.fingerprint)
                if self.store is not None else None,
                traced and self.profile,
                self.telemetry.worker_spec(traced))

    def _build_chunks(self, pending: list[tuple[int, str]],
                      chunk_size: int) -> list[list[tuple[int, str]]]:
        """Batch pending files, keeping include-connected files together.

        Files linked by include edges share dependency state (parsed
        programs, summaries, exported envs) that each worker memoizes;
        co-locating a component in one chunk means that state is built
        once instead of once per worker that happens to see a member.
        """
        if not self._worker_graph():
            return [pending[i:i + chunk_size]
                    for i in range(0, len(pending), chunk_size)]
        entries: dict[str, list[tuple[int, str]]] = {}
        for i, path in pending:
            entries.setdefault(path, []).append((i, path))
        chunks: list[list[tuple[int, str]]] = []
        current: list[tuple[int, str]] = []
        for component in self.include_graph.components(
                [p for _i, p in pending]):
            for path in component:
                current.extend(entries.pop(path, ()))
            if len(current) >= chunk_size:
                chunks.append(current)
                current = []
        if current:
            chunks.append(current)
        return chunks

    def _scan_isolated(self, path: str, cause: str = "") -> FileResult:
        """Analyze one suspect file in its own single-worker pool.

        The retry (and, if the isolated worker dies too, the crash) is
        recorded: ``retries``/``crashes`` on the scheduler, the
        ``worker_retries``/``worker_crashes`` counters, and an
        ``isolated_retry`` span carrying the file and exception class.
        """
        telemetry = self.telemetry
        self.retries.append((path, cause or "unknown"))
        telemetry.metrics.counter("worker_retries").inc()
        telemetry.log.warning("worker_retry", file=path,
                              cause=cause or "unknown")
        with telemetry.tracer.span("isolated_retry", phase="retry",
                                   file=path, cause=cause) as span:
            try:
                with ProcessPoolExecutor(max_workers=1,
                                         initializer=_init_worker,
                                         initargs=self._worker_args(False)
                                         ) as pool:
                    result, batch, cache_work \
                        = pool.submit(_scan_chunk, [path]).result()
                    telemetry.absorb(batch)
                    if cache_work is not None:
                        self.store.absorb(cache_work)
                    return result[0]
            except BrokenProcessPool as exc:
                self._record_crash(path, type(exc).__name__, span)
                return FileResult(filename=path, parse_error=CRASH_ERROR)
            except Exception as exc:
                self._record_crash(path, type(exc).__name__, span)
                return FileResult(filename=path,
                                  parse_error=f"worker error: {exc}")

    def _record_crash(self, path: str, exc_class: str, span) -> None:
        self.crashes.append((path, exc_class))
        self.telemetry.metrics.counter("worker_crashes").inc()
        self.telemetry.log.error("worker_crash", file=path,
                                 error=exc_class)
        span.set(crashed=True, error=exc_class)
