"""Parse-once frontend: shared AST store with an optional on-disk cache.

Every frontend consumer of a scan — the scan phase
(:meth:`repro.analysis.pipeline.FusedDetector.detect_source_recovering`),
:class:`repro.analysis.includes.IncludeContext` for dependency files and
the whole-project policy's call-edge pass — asks one :class:`AstStore`,
which memoizes parse results keyed by a content hash of the source text,
so each unique content is lexed and parsed at most once per process.

Include resolution does not parse: it folds targets from tokens
(:func:`repro.analysis.includes.include_targets`) while the scan builds
its per-file records.  The tokens of files the scan is going to parse
are offered to the store (:meth:`AstStore.offer_tokens`), so such a
content is not lexed a second time.

Parse results are content-addressed, not path-addressed: two identical
files share one entry, and cached syntax errors/warnings are re-attributed
to the *requesting* filename on every hit (error messages never embed the
path; only :class:`~repro.exceptions.PhpSyntaxError` carries it).

:class:`AstCache` adds an optional on-disk tier (the cache store's
``ast`` namespace), so incremental re-scans of a dirty include closure
stop re-lexing unchanged includer files.

Every successful entry also carries the file's lowered
:class:`~repro.ir.opcodes.IRModule`: :meth:`AstStore.store` lowers
eagerly (timed into the ``ir_lower_seconds`` counter), so the taint
engine's hot path never re-lowers a content the process — or, via the
disk tier, an earlier process — has already seen.  Lowered modules are
config-independent (see :mod:`repro.ir.lower`), which is what lets them
be cached purely by content hash, unlike the config-fingerprinted
summary tier (:mod:`repro.analysis.summaries`).

The store deliberately has no dependency on :mod:`repro.telemetry`
(which transitively imports the analysis layer): callers may hand it any
object with the ``Metrics`` counter interface via ``metrics=`` and the
store then also publishes the ``frontend_reparse_avoided`` and
``ir_lower_seconds`` counters; the plain integer counters on the store
itself are always maintained (the disk tier's, by the cache store).

Shared ``Program`` objects must be treated as read-only by consumers.
Every analysis-side consumer already is; the corrector, which mutates
ASTs, parses its own private copy and never goes through the store.
"""

from __future__ import annotations

import hashlib

from repro.cache import AST, CacheStore
from repro.exceptions import PhpSyntaxError
from repro.php.ast_nodes import Program
from repro.php.parser import parse_with_recovery

#: (message, line, col) triples: enough to rebuild a PhpSyntaxError
#: against whatever filename the current request used.
_ErrorSpec = tuple[str, int, int]

#: a memoized parse: (program, recovery warnings, fatal error, lowered
#: IR module).  Exactly one of ``program``/``error`` is set; the module
#: is ``None`` for error entries and for programs lowering gave up on.
_Entry = tuple[Program | None, tuple[_ErrorSpec, ...], _ErrorSpec | None,
               object | None]


def _spec_of(exc: PhpSyntaxError) -> _ErrorSpec:
    return (exc.message, exc.line, exc.col)


class AstCache:
    """Parse results on disk, keyed by content hash: the ``ast``
    namespace of a :class:`~repro.cache.CacheStore`, shared across
    knowledge fingerprints.  An entry of another shape is evicted.  Puts
    are buffered until the once-per-scan :meth:`flush`."""

    def __init__(self, store: CacheStore) -> None:
        self.store = store

    def get(self, key: str) -> _Entry | None:
        return self.store.get(AST, key, lambda value: isinstance(
            value, tuple) and len(value) == 4)

    def put(self, key: str, value: _Entry) -> None:
        """Buffer one parse result for the next :meth:`flush`."""
        self.store.put(AST, key, value)

    def flush(self) -> None:
        """Persist buffered puts (one atomic namespace rewrite)."""
        self.store.flush(AST)


class AstStore:
    """Process-local memo of parse results, keyed by source content hash.

    One store is shared by every frontend consumer of a scan (fused
    detector, include context, whole-project call-edge pass), so each
    unique content is parsed once; tokens lexed earlier for the scan's
    include records are parsed instead of being lexed again.

    Args:
        disk: optional :class:`AstCache` second tier.
        metrics: optional ``Metrics``-shaped counter sink (kept
            duck-typed to avoid importing the telemetry layer).
    """

    def __init__(self, disk: AstCache | None = None,
                 metrics=None) -> None:
        self._memory: dict[str, _Entry] = {}
        self.disk = disk
        self.metrics = metrics
        self.parses = 0           # unique contents actually parsed
        self.reparse_avoided = 0  # requests served from the in-memory memo
        #: content hash -> tokens lexed ahead of the parse (see
        #: :meth:`offer_tokens`); each entry is used at most once
        self._lexed: dict[str, list] = {}

    @staticmethod
    def source_key(source: str) -> str:
        """Content hash of decoded source text (the store's cache key)."""
        return hashlib.sha256(
            source.encode("utf-8", "backslashreplace")).hexdigest()

    # ------------------------------------------------------------------
    # primitives (used by traced callers that lex/parse themselves)
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> _Entry | None:
        """The memoized entry for *key*, or None (counts the outcome)."""
        entry = self._memory.get(key)
        if entry is not None:
            self.reparse_avoided += 1
            if self.metrics is not None:
                self.metrics.counter("frontend_reparse_avoided").inc()
            return entry
        if self.disk is not None:
            entry = self.disk.get(key)
            if entry is not None:
                self._memory[key] = entry
        return entry

    def store(self, key: str, program: Program,
              warnings: list[PhpSyntaxError], module=None) -> None:
        """Memoize a successful parse (and write it to the disk tier).

        The program is lowered to the flat IR here — eagerly, once per
        unique content — unless the caller already lowered it (the
        traced pipeline path wraps the lowering in its own span).
        """
        if module is None:
            module = self._lower(program)
        entry: _Entry = (program, tuple(_spec_of(w) for w in warnings),
                         None, module)
        self._memory[key] = entry
        self.parses += 1
        if self.disk is not None:
            self.disk.put(key, entry)

    def _lower(self, program: Program):
        """Lower *program*, timing it; ``None`` when lowering gives up
        (pathologically deep ASTs) — the engine then lowers lazily and
        surfaces the failure as an analysis error, like the old walker.
        """
        # imported lazily: repro.ir.lower imports repro.php back
        from time import perf_counter

        from repro.ir.lower import lower_program
        start = perf_counter()
        try:
            return lower_program(program)
        except Exception:  # includes RecursionError on degenerate nesting
            return None
        finally:
            if self.metrics is not None:
                self.metrics.counter("ir_lower_seconds").inc(
                    perf_counter() - start)

    def store_error(self, key: str, exc: PhpSyntaxError) -> None:
        """Memoize a fatal parse failure (re-raised on later hits)."""
        entry: _Entry = (None, (), _spec_of(exc), None)
        self._memory[key] = entry
        self.parses += 1
        if self.disk is not None:
            self.disk.put(key, entry)

    def offer_tokens(self, source: str, tokens: list,
                     raw_hash: str | None = None) -> None:
        """Hold *tokens*, the lexed *source*, for that content's parse.

        The scan lexes include-bearing files before deciding which files
        to analyze; a parse of the same content then skips the lexer.
        *raw_hash*, the SHA-256 of the bytes *source* was decoded from,
        is the content key unless decoding replaced invalid UTF-8.
        """
        key = raw_hash if raw_hash is not None \
            and "\ufffd" not in source else self.source_key(source)
        self._lexed[key] = tokens

    def take_tokens(self, key: str) -> list | None:
        """The tokens offered for *key*, handed out once (else ``None``)."""
        return self._lexed.pop(key, None)

    def drop_tokens(self) -> None:
        """Forget every offered token list no parse has taken."""
        self._lexed.clear()

    def flush(self) -> None:
        """Persist the disk tier's buffered writes, if there is one."""
        if self.disk is not None:
            self.disk.flush()

    def module_for(self, key: str):
        """The lowered IR module memoized for *key*, or ``None``.

        Deliberately does not probe the disk tier or touch the hit/miss
        counters: callers ask right after :meth:`lookup`/:meth:`store`
        populated the memory tier.
        """
        entry = self._memory.get(key)
        return entry[3] if entry is not None else None

    @staticmethod
    def materialize(entry: _Entry, filename: str
                    ) -> tuple[Program, list[PhpSyntaxError]]:
        """Turn an entry into (program, warnings) attributed to *filename*.

        Raises the memoized :class:`PhpSyntaxError` for failure entries.
        """
        program, warning_specs, error, _module = entry
        if error is not None:
            message, line, col = error
            raise PhpSyntaxError(message, line, col, filename)
        assert program is not None
        return program, [PhpSyntaxError(message, line, col, filename)
                         for message, line, col in warning_specs]

    # ------------------------------------------------------------------
    # the all-in-one path
    # ------------------------------------------------------------------
    def parse_recovering(self, source: str, filename: str = "<source>",
                         key: str | None = None
                         ) -> tuple[Program, list[PhpSyntaxError]]:
        """Memoized :func:`repro.php.parser.parse_with_recovery`.

        Same contract: returns ``(program, warnings)`` and raises
        :class:`PhpSyntaxError` when nothing was salvageable — including
        on cache hits for sources that previously failed.  *key* is
        ``source_key(source)`` when the caller already has it.
        """
        if key is None:
            key = self.source_key(source)
        entry = self.lookup(key)
        if entry is None:
            try:
                program, warnings = parse_with_recovery(
                    source, filename, self.take_tokens(key))
            except PhpSyntaxError as exc:
                self.store_error(key, exc)
                raise
            self.store(key, program, warnings)
            return program, warnings
        return self.materialize(entry, filename)
