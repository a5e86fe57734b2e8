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
  version).  The fingerprint (:func:`config_fingerprint`) covers every
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
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.exceptions import PhpSyntaxError
from repro.php import Parser, ast, parse_with_recovery, tokenize
from repro.php.ast_store import AstCache, AstStore, PackFile
from repro.analysis.detector import PHP_EXTENSIONS, FileResult
from repro.analysis.engine import TaintEngine
from repro.analysis.includes import (
    IncludeContext,
    IncludeGraph,
    build_include_graph,
)
from repro.analysis.summaries import SummaryCache
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
from repro.ir.opcodes import OPNAMES
from repro.obs.log import NULL_LOG, JsonlLogger, new_run_id
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: bump when the cached payload layout or engine semantics change.
#: 3: cache keys and stored paths are project-relative (a moved or
#: renamed checkout keeps hitting and reports correct file paths).
#: 4: a cached candidate keeps its own file when its sink lies in a
#: cross-file callee (format 3 re-attributed it to the scanned file).
CACHE_FORMAT = 4

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
            include_graph, ast_store=ast_store,
            summary_cache=summary_cache,
            metrics=self.telemetry.metrics
            if self.telemetry.enabled else None) \
            if include_graph else None

    @property
    def class_ids(self) -> list[str]:
        return [cfg.class_id for g in self.groups for cfg in g.configs]

    # ------------------------------------------------------------------
    def detect_program(self, program: ast.Program,
                       filename: str = "<source>",
                       module=None,
                       source_key: str | None = None
                       ) -> list[CandidateVulnerability]:
        """Analyze an already-parsed program with the fused engine.

        Args:
            program: the parsed file.
            filename: used in the reports and for include-closure lookup.
            module: the file's lowered IR, when the caller already has it
                (the parse-once path does); lowered on the fly otherwise.
            source_key: the file's content hash, when the caller already
                computed it — saves the summary tier one read + hash.
        """
        if self.engine is None:
            return []
        extra = summaries = init = preset = state_key = None
        includes = self._includes
        if includes is not None:
            extra, summaries, init = includes.context_for(filename,
                                                          self.engine)
            preset, state_key = includes.preset_for(filename, source_key)
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
            includes.remember_state(filename, state_key, env,
                                    run_summaries, source_key=source_key)
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

    def detect_source(self, source: str, filename: str = "<source>"
                      ) -> list[CandidateVulnerability]:
        candidates, _warnings = self.detect_source_recovering(source,
                                                             filename)
        return candidates

    def detect_source_recovering(
            self, source: str, filename: str = "<source>"
            ) -> tuple[list[CandidateVulnerability], list[PhpSyntaxError]]:
        """Analyze *source*, recovering from damaged statements.

        Returns the candidates plus the syntax errors that were skipped
        (empty for a clean file).  Still raises :class:`PhpSyntaxError`
        when nothing was salvageable: lexer errors, or a file recovery
        could not extract a single PHP statement from.
        """
        store = self.ast_store
        key = store.source_key(source)
        entry = store.lookup(key)
        if entry is not None:
            program, warnings = store.materialize(entry, filename)
        elif not self.telemetry.enabled:
            try:
                program, warnings = parse_with_recovery(
                    source, filename, store.take_tokens(key))
            except PhpSyntaxError as exc:
                store.store_error(key, exc)
                raise
            store.store(key, program, warnings)  # lowers to IR inside
        else:
            # traced variant of AstStore.parse_recovering: lex, parse and
            # lower keep their own spans; a store hit skips all three,
            # tokens offered by the record pass skip the lex
            tracer = self.telemetry.tracer
            try:
                tokens = store.take_tokens(key)
                if tokens is None:
                    with tracer.span("lex", phase="lex", file=filename):
                        tokens = tokenize(source, filename)
                with tracer.span("parse", phase="parse",
                                 file=filename):
                    parser = Parser(tokens, filename, recover=True)
                    program = parser.parse_program()
                    warnings = list(parser.warnings)
            except PhpSyntaxError as exc:
                store.store_error(key, exc)
                raise
            with tracer.span("lower", phase="lower", file=filename):
                module = store._lower(program)
            store.store(key, program, warnings, module=module)
        if warnings and not any(not isinstance(node, ast.InlineHTML)
                                for node in program.body):
            raise warnings[0]  # recovery salvaged no PHP at all
        return self.detect_program(program, filename,
                                   module=store.module_for(key),
                                   source_key=key), warnings

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
        result = FileResult(filename=path)
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                source = f.read()
        except OSError as exc:
            result.parse_error = str(exc)
            result.seconds = time.perf_counter() - start
            return result
        result.lines_of_code = source.count("\n") + 1
        try:
            result.candidates, warnings = \
                self.detect_source_recovering(source, path)
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

    Missing hashes of closure members are computed on demand and written
    back into *raw_hashes*.  Used by both the :class:`ScanScheduler` and
    the warm incremental :class:`repro.api.Scanner`, which must agree
    byte-for-byte on what invalidates a file.
    """
    closure = graph.closure(path) if graph else ()
    if not closure:
        return raw_hash
    base = os.path.dirname(path)
    digest = hashlib.sha256(raw_hash.encode())
    for dep in closure:
        dep_hash = raw_hashes.get(dep)
        if dep_hash is None:
            try:
                with open(dep, "rb") as f:
                    dep_hash = ResultCache.content_hash(f.read())
            except OSError:
                dep_hash = "missing"
            raw_hashes[dep] = dep_hash
        rel = os.path.relpath(dep, base)
        digest.update(f"\n{rel}\x00{dep_hash}".encode())
    return digest.hexdigest()


def _relativize_candidates(candidates: list[CandidateVulnerability],
                           filename: str) -> list[CandidateVulnerability]:
    """Strip checkout-specific prefixes before a result is cached.

    Cross-file hops carry the dependency's path in ``PathStep.file``, and
    a flow whose sink lies in a cross-file callee carries the callee's
    file as its ``filename``; stored absolutely, a cache populated in one
    checkout would report the *old* checkout's paths when served to a
    moved or renamed project root.  Stored relative to the scanned file's
    directory (``""`` for the scanned file itself), they can be re-joined
    against whatever path the file has at load time.
    """
    base = os.path.dirname(filename)
    out = []
    for cand in candidates:
        steps = tuple(
            dataclasses.replace(step, file=os.path.relpath(step.file, base))
            if step.file else step
            for step in cand.path)
        home = "" if cand.filename == filename \
            else os.path.relpath(cand.filename, base)
        out.append(dataclasses.replace(cand, filename=home, path=steps))
    return out


#: placeholder substituted for the scanned file's own path inside cached
#: diagnostic strings (syntax/OS error messages quote the path verbatim).
_FILE_MARKER = "\x00file\x00"


def _strip_file_marker(text: str | None, filename: str) -> str | None:
    return text.replace(filename, _FILE_MARKER) if text else text


def _expand_file_marker(text: str | None, filename: str) -> str | None:
    return text.replace(_FILE_MARKER, filename) if text else text


def _absolutize_candidates(candidates: list[CandidateVulnerability],
                           filename: str) -> list[CandidateVulnerability]:
    """Rebase cached candidates onto the file's current path."""
    base = os.path.dirname(filename)
    out = []
    for cand in candidates:
        steps = tuple(
            dataclasses.replace(
                step, file=os.path.normpath(os.path.join(base, step.file)))
            if step.file else step
            for step in cand.path)
        home = os.path.normpath(os.path.join(base, cand.filename)) \
            if cand.filename else filename
        out.append(dataclasses.replace(cand, filename=home, path=steps))
    return out


class ResultCache:
    """Content-addressed per-file detection results on disk.

    Layout: ``<directory>/<fingerprint-prefix>/pack.pkl``, entries keyed
    by content hash.  The fingerprint directory isolates knowledge
    configurations from each other; the content hash makes results
    follow file *contents*, so an unchanged tree re-scans near-instantly
    and a renamed file still hits.

    Entries never embed the paths of the checkout that populated them:
    candidate filenames and cross-file hop attributions are stored
    relative to the scanned file and re-joined at load, so a cache can be
    shared across moved, renamed or duplicated project roots.

    Behaviour is always counted — ``hits``/``misses``/``evictions``/
    ``puts`` — so the report can surface cache effectiveness even when
    telemetry is off.  A corrupt entry is *evicted* (deleted) on the miss
    that discovers it, so it cannot keep costing a failed unpickle on
    every scan.

    Entries live in one :class:`~repro.php.ast_store.PackFile`: puts are
    buffered and persisted by the one :meth:`flush` the scheduler issues
    per scan, replacing thousands of per-entry temp-write + rename round
    trips with a single atomic rewrite.
    """

    def __init__(self, directory: str, fingerprint: str) -> None:
        self.directory = os.path.join(directory, fingerprint[:24])
        os.makedirs(self.directory, exist_ok=True)
        self.pack = PackFile(os.path.join(self.directory, "pack.pkl"))
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0

    @staticmethod
    def content_hash(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def _load(self, key: str):
        """Raw payload for *key* from the pack; ``None`` on miss, with
        corrupt entries evicted."""
        blob = self.pack.get(key)
        if self.pack.corrupt:
            self.pack.corrupt = False
            self.evictions += 1
        if blob is None:
            return None
        try:
            return pickle.loads(blob)
        except Exception:  # corrupt entries raise anything: miss + evict
            self.pack.discard(key)
            self.evictions += 1
            return None

    def get(self, content_hash: str, filename: str) -> FileResult | None:
        """Cached result for *content_hash*, re-attributed to *filename*."""
        payload = self._load(content_hash)
        if not isinstance(payload, dict):
            self.misses += 1
            return None
        self.hits += 1
        return FileResult(
            filename=filename,
            candidates=_absolutize_candidates(payload["candidates"],
                                              filename),
            lines_of_code=payload["lines_of_code"],
            parse_error=_expand_file_marker(payload["parse_error"],
                                            filename),
            parse_warning=_expand_file_marker(payload.get("parse_warning"),
                                              filename),
            recovered_statements=payload.get("recovered_statements", 0),
        )

    def put(self, content_hash: str, result: FileResult) -> None:
        """Buffer one result for the next :meth:`flush`."""
        payload = {
            "candidates": _relativize_candidates(result.candidates,
                                                 result.filename),
            "lines_of_code": result.lines_of_code,
            "parse_error": _strip_file_marker(result.parse_error,
                                              result.filename),
            "parse_warning": _strip_file_marker(result.parse_warning,
                                                result.filename),
            "recovered_statements": result.recovered_statements,
        }
        try:
            blob = pickle.dumps(payload,
                                protocol=pickle.HIGHEST_PROTOCOL)
        except (RecursionError, pickle.PicklingError,
                AttributeError, TypeError):
            return
        self.pack.put(content_hash, blob)
        self.puts += 1

    def flush(self) -> None:
        """Persist buffered puts (one atomic pack rewrite)."""
        self.pack.flush()

    # ------------------------------------------------------------------
    # generic blobs (the prefilter's per-content records) share the store
    # but deliberately do NOT count toward the per-file hit/miss
    # statistics
    def get_blob(self, key: str):
        return self._load(key)

    def put_blob(self, key: str, value) -> None:
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (RecursionError, pickle.PicklingError,
                AttributeError, TypeError):
            return
        self.pack.put(key, blob)


# ---------------------------------------------------------------------------
# worker pool
# ---------------------------------------------------------------------------

_WORKER_DETECTOR: FusedDetector | None = None
_WORKER_TELEMETRY: Telemetry = NULL_TELEMETRY
_WORKER_LOG = NULL_LOG


def _init_worker(groups: tuple[ConfigGroup, ...],
                 telemetry_enabled: bool = False,
                 include_graph: IncludeGraph | None = None,
                 ast_cache_dir: str | None = None,
                 summary_cache_dir: str | None = None,
                 fingerprint: str = "",
                 profile: bool = False,
                 log_enabled: bool = False,
                 log_level: str = "info",
                 run_id: str = "") -> None:
    """Per-worker initializer: build the fused detector once.

    When the parent scan is traced, each worker records spans and counters
    into its own registry; every chunk result ships them back for merging
    (:meth:`~repro.telemetry.Tracer.merge`), stamped with the worker pid.
    The include graph (resolved once in the parent) rides along so each
    worker can supply cross-file context; per-dependency state is
    memoized inside the worker's :class:`IncludeContext`.  Each worker
    keeps a per-process :class:`AstStore` (scan phase + include context
    share one parse per content), backed by the on-disk AST cache when
    the scan has a cache directory.  When the parent logs structured
    events, each worker buffers its own segment-mode
    :class:`~repro.obs.log.JsonlLogger` (same run id, same level) whose
    records ship back with each chunk result, mirroring the span path.
    """
    global _WORKER_DETECTOR, _WORKER_TELEMETRY, _WORKER_LOG
    _WORKER_TELEMETRY = Telemetry(enabled=telemetry_enabled)
    _WORKER_LOG = JsonlLogger(level=log_level, run_id=run_id or None) \
        if log_enabled else NULL_LOG
    ast_store = AstStore(
        disk=AstCache(ast_cache_dir) if ast_cache_dir else None,
        metrics=_WORKER_TELEMETRY.metrics if telemetry_enabled else None)
    summary_cache = SummaryCache(summary_cache_dir, fingerprint) \
        if summary_cache_dir else None
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
            with open(path, encoding="utf-8", errors="replace") as f:
                if marker in f.read():
                    os._exit(3)  # simulated hard crash (tests only)
        except OSError:
            pass
    assert _WORKER_DETECTOR is not None
    return _WORKER_DETECTOR.detect_file(path)


def _scan_chunk(paths: list[str]
                ) -> tuple[list[FileResult], list[dict] | None,
                           dict[str, int] | None, list[dict] | None]:
    """Worker task: analyze a batch of files in one round-trip.

    Batching amortizes the per-task IPC cost (submit + result pickling)
    over many files; with ~1 ms of analysis per typical PHP file, per-file
    dispatch would otherwise dominate the wall clock.

    Returns the per-file results plus, when the scan is traced, the
    worker-side span records and counter snapshot for this chunk, plus,
    when the scan logs, this worker's drained log segment.
    """
    telemetry = _WORKER_TELEMETRY
    log = _WORKER_LOG
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
    _flush_worker_caches()
    log_records = log.drain(worker=os.getpid()) or None
    if not telemetry.enabled:
        return results, None, None, log_records
    return (results, telemetry.tracer.drain(worker=os.getpid()),
            telemetry.metrics.drain_counters(), log_records)


def _flush_worker_caches() -> None:
    """Persist the worker's buffered AST/summary pack writes.

    Under ``--profile`` this is also where the worker's opcode histogram
    becomes counters, so it rides home in the chunk's counter snapshot.
    """
    detector = _WORKER_DETECTOR
    if detector is None:
        return
    detector.flush_opcode_profile()
    detector.ast_store.flush()
    includes = detector._includes
    if includes is not None and includes.summary_cache is not None:
        includes.summary_cache.flush()


class ScanScheduler:
    """Fans whole-tree analysis out over a process pool, with caching.

    Args:
        groups: detection units (sub-modules + weapons), as built by the
            tool facades.
        options: the run's :class:`~repro.analysis.options.ScanOptions`
            (jobs, cache_dir, includes, project, prefilter, telemetry).
        tool_version: mixed into the cache fingerprint so different tool
            versions never share entries.
    """

    def __init__(self, groups: list[ConfigGroup] | tuple[ConfigGroup, ...],
                 tool_version: str = "",
                 options: ScanOptions | None = None) -> None:
        opts = options if options is not None else ScanOptions()
        self.options = opts
        self.groups = tuple(groups)
        self.jobs = opts.resolved_jobs()
        self.fingerprint = config_fingerprint(self.groups, tool_version,
                                              project=opts.project)
        self.cache = ResultCache(opts.cache_dir, self.fingerprint) \
            if opts.cache_dir else None
        self.telemetry = opts.resolve_telemetry()
        self.includes = opts.includes
        self.project = opts.project
        self.profile = opts.profile
        #: correlates this scan's log records, worker segments and
        #: ledger entry; generated here when the caller did not pin one.
        self.run_id = opts.run_id or new_run_id()
        log = opts.log if opts.log is not None else NULL_LOG
        if log.enabled and "run_id" not in log.bound:
            log = log.bind(run_id=self.run_id)
        self.log = log
        #: on-disk AST tier (None without a cache dir or with
        #: ``--no-ast-cache``); workers open their own handle to the
        #: same directory.
        self.ast_cache_dir = opts.cache_dir \
            if (opts.cache_dir and opts.ast_cache) else None
        self.ast_cache = AstCache(self.ast_cache_dir) \
            if self.ast_cache_dir else None
        #: on-disk summary tier (None without a cache dir or with
        #: ``--no-summary-cache``); keyed by content + closure +
        #: knowledge fingerprint, so it needs no fingerprint directory.
        #: It lives inside the AST tier directory, so disabling the AST
        #: tier disables it too.
        self.summary_cache_dir = opts.cache_dir \
            if (opts.cache_dir and opts.ast_cache
                and opts.summary_cache) else None
        self.summary_cache = SummaryCache(self.summary_cache_dir,
                                          self.fingerprint) \
            if self.summary_cache_dir else None
        #: the scan's shared parse memo: the ``jobs=1`` scan phase and
        #: the whole-project call-edge pass parse each unique content
        #: exactly once, from the tokens the record pass lexed when it
        #: lexed them.
        self.ast_store = AstStore(
            disk=self.ast_cache,
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
            ast_store=self.ast_store
            if (self.jobs == 1 or self.project) else None,
            parse_all=self.project or not self.skip_irrelevant) \
            if (opts.includes or opts.prefilter) else None
        #: tier counts of the last scan (None when the prefilter is off).
        self.prefilter_stats = None
        #: the resolved include graph of the last scan (telemetry + tests).
        self.include_graph: IncludeGraph | None = None
        #: (file, exception class) for files retried in isolation after a
        #: worker died mid-chunk — never silent (satellite of ISSUE 2).
        self.retries: list[tuple[str, str]] = []
        #: (file, exception class) for files whose isolated retry ALSO
        #: crashed; these become ``parse_error`` results.
        self.crashes: list[tuple[str, str]] = []
        self._detector: FusedDetector | None = None
        self._detector_graph: IncludeGraph | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def discover(root: str) -> list[str]:
        """Every PHP file under *root*, in deterministic walk order."""
        paths: list[str] = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.lower().endswith(PHP_EXTENSIONS):
                    paths.append(os.path.join(dirpath, name))
        return paths

    def _local_detector(self) -> FusedDetector:
        graph = self._worker_graph()
        if self._detector is None or self._detector_graph is not graph:
            self._detector = FusedDetector(self.groups,
                                           telemetry=self.telemetry,
                                           include_graph=graph,
                                           ast_store=self.ast_store,
                                           summary_cache=self.summary_cache,
                                           profile=self.profile)
            self._detector_graph = graph
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
        return self.scan_files(paths)

    def scan_files(self, paths: list[str]) -> list[FileResult]:
        """Analyze *paths*, returning results in the same order."""
        telemetry = self.telemetry
        log = self.log
        if log.enabled:
            log.info("scan_start", files=len(paths), jobs=self.jobs,
                     includes=self.includes,
                     fingerprint=self.fingerprint[:12])
        raw_hashes: dict[str, str] = {}
        records: dict[str, FileRecord] = {}
        line_counts: dict[str, int] = {}
        sources: dict[str, str] = {}
        if self.cache is not None or self.prefilter is not None:
            for path in paths:
                try:
                    with open(path, "rb") as f:
                        raw = f.read()
                except OSError:
                    continue  # surfaces as a per-file read error below
                raw_hashes[path] = ResultCache.content_hash(raw)
                if self.prefilter is not None:
                    # every plan-time fact of a file, from the bytes we
                    # already hold (lexed only when it names an include)
                    records[path] = self.prefilter.verdict(
                        raw, raw_hashes[path], path)
                if self.skip_irrelevant:
                    # skipped files need their line count for the report
                    # (the replacement-decoding below never changes it)
                    line_counts[path] = raw.count(b"\n") + 1
                if self.project:
                    # the call-edge pass parses every file: hand it the
                    # bytes we already read
                    sources[path] = raw.decode("utf-8", errors="replace")
        if self.includes:
            with telemetry.tracer.span("resolve_includes", phase="link",
                                       files=len(paths)):
                self.include_graph = build_include_graph(
                    paths, {p: r.includes for p, r in records.items()},
                    sources=sources, ast_store=self.ast_store,
                    project=self.project)
            sources = {}
            # cross-file context is memoized per graph: a fresh graph
            # (file contents may have changed) needs a fresh detector
            self._detector = None
            if self.jobs != 1:
                # make the call-edge pass's parses visible to the workers
                self.ast_store.flush()
        else:
            self.include_graph = None
        tiers: dict[str, str] | None = None
        if self.skip_irrelevant:
            with telemetry.tracer.span("prefilter", phase="prefilter",
                                       files=len(paths)):
                tiers = self.prefilter.classify(paths, self.include_graph,
                                                records)
            self.prefilter_stats = RelevancePrefilter.stats_of(tiers)
        else:
            self.prefilter_stats = None
        try:
            with telemetry.tracer.span("scan", phase="scan",
                                       files=len(paths)):
                results = self._scan_files_traced(paths, raw_hashes,
                                                  tiers, line_counts)
        finally:
            # the sequential path's opcode histogram lives in the local
            # detector (workers flush theirs before each chunk drain)
            if self._detector is not None:
                self._detector.flush_opcode_profile()
            # tokens of files the scan never parsed
            self.ast_store.drop_tokens()
            # one atomic pack rewrite per tier instead of thousands of
            # tiny per-entry files — see PackFile
            self.ast_store.flush()
            if self.summary_cache is not None:
                self.summary_cache.flush()
            if self.cache is not None:
                self.cache.flush()
        if self.include_graph is not None:
            for result in results:
                result.resolved_includes = \
                    self.include_graph.resolved.get(result.filename, 0)
                result.unresolved_includes = \
                    self.include_graph.unresolved.get(result.filename, 0)
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
            if self.cache is not None:
                metrics.gauge("cache_hits").set(self.cache.hits)
                metrics.gauge("cache_misses").set(self.cache.misses)
                metrics.gauge("cache_evictions").set(self.cache.evictions)
                metrics.gauge("cache_puts").set(self.cache.puts)
            if self.ast_cache is not None:
                metrics.gauge("ast_cache_hits").set(self.ast_cache.hits)
                metrics.gauge("ast_cache_misses").set(
                    self.ast_cache.misses)
                metrics.gauge("ast_cache_puts").set(self.ast_cache.puts)
            if self.summary_cache is not None:
                metrics.gauge("summary_cache_hits").set(
                    self.summary_cache.hits)
                metrics.gauge("summary_cache_misses").set(
                    self.summary_cache.misses)
                metrics.gauge("summary_cache_puts").set(
                    self.summary_cache.puts)
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

    def _scan_files_traced(self, paths: list[str],
                           raw_hashes: dict[str, str] | None = None,
                           tiers: dict[str, str] | None = None,
                           line_counts: dict[str, int] | None = None
                           ) -> list[FileResult]:
        telemetry = self.telemetry
        tracer = telemetry.tracer
        results: dict[int, FileResult] = {}
        hashes: dict[int, str] = {}
        raw_hashes = dict(raw_hashes or {})
        line_counts = line_counts or {}
        pending: list[tuple[int, str]] = []
        for i, path in enumerate(paths):
            if tiers is not None \
                    and tiers.get(path, TIER_SINK_BEARING) \
                    != TIER_SINK_BEARING:
                # the prefilter proved this file cannot contain a
                # finding: report it clean without parsing (and without
                # probing or polluting the result cache)
                results[i] = FileResult(
                    filename=path,
                    lines_of_code=line_counts.get(path, 0))
                continue
            if self.cache is not None:
                raw = raw_hashes.get(path)
                if raw is None:
                    try:
                        with open(path, "rb") as f:
                            raw = ResultCache.content_hash(f.read())
                    except OSError as exc:
                        results[i] = FileResult(filename=path,
                                                parse_error=str(exc))
                        continue
                    raw_hashes[path] = raw
                digest = closure_key(path, raw, self.include_graph,
                                     raw_hashes)
                hashes[i] = digest
                if telemetry.enabled:
                    with tracer.span("cache_get", phase="cache",
                                     file=path) as span:
                        cached = self.cache.get(digest, path)
                        span.set(hit=cached is not None)
                else:
                    cached = self.cache.get(digest, path)
                if cached is not None:
                    results[i] = cached
                    continue
            pending.append((i, path))

        if pending:
            if self.jobs == 1:
                fresh = self._scan_sequential(pending)
            else:
                fresh = self._scan_parallel(pending)
            results.update(fresh)
            if self.cache is not None:
                for i, _path in pending:
                    # crash results are environment-specific; don't pin them
                    if results[i].parse_error != CRASH_ERROR:
                        if telemetry.enabled:
                            with tracer.span("cache_put", phase="cache",
                                             file=_path):
                                self.cache.put(hashes[i], results[i])
                        else:
                            self.cache.put(hashes[i], results[i])
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
                                     initargs=(self.groups,
                                               telemetry.enabled,
                                               self._worker_graph(),
                                               self.ast_cache_dir,
                                               self.summary_cache_dir,
                                               self.fingerprint,
                                               self.profile,
                                               self.log.enabled,
                                               self.log.level,
                                               self.run_id)
                                     ) as pool:
                futures = {pool.submit(_scan_chunk,
                                       [p for _i, p in chunk]): chunk
                           for chunk in chunks}
                for future, chunk in futures.items():
                    try:
                        chunk_results, spans, counters, log_records = \
                            future.result()
                        for (i, _path), result in zip(chunk,
                                                      chunk_results):
                            out[i] = result
                        tracer.merge(spans or [],
                                     parent_id=tracer.current_id)
                        telemetry.metrics.merge_counters(counters)
                        self.log.merge(log_records)
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
        self.log.warning("worker_retry", file=path,
                         cause=cause or "unknown")
        with telemetry.tracer.span("isolated_retry", phase="retry",
                                   file=path, cause=cause) as span:
            try:
                with ProcessPoolExecutor(max_workers=1,
                                         initializer=_init_worker,
                                         initargs=(self.groups, False,
                                                   self._worker_graph(),
                                                   self.ast_cache_dir,
                                                   self.summary_cache_dir,
                                                   self.fingerprint,
                                                   False,
                                                   self.log.enabled,
                                                   self.log.level,
                                                   self.run_id)
                                         ) as pool:
                    result, _spans, _counters, log_records = pool.submit(
                        _scan_chunk, [path]).result()
                    self.log.merge(log_records)
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
        self.log.error("worker_crash", file=path, error=exc_class)
        span.set(crashed=True, error=exc_class)
