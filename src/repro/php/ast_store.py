"""Parse-once frontend: shared AST store with an optional on-disk cache.

Every frontend consumer of a scan — the scan phase
(:meth:`repro.analysis.pipeline.FusedDetector.detect_source_recovering`),
:class:`repro.analysis.includes.IncludeContext` for dependency files and
the whole-project policy's call-edge pass — asks one :class:`AstStore`,
which memoizes parse results by content key (:mod:`repro.php.source`),
so each unique content is lexed and parsed at most once per process.

Include resolution does not parse: it folds targets from tokens
(:func:`repro.analysis.includes.include_targets`) while the scan builds
its per-file records.  The tokens of files the scan is going to parse
are offered to the store (:meth:`AstStore.offer_tokens`), so such a
content is not lexed a second time; an in-process scan holds the bytes
it read there too, with the keys it computed (:meth:`AstStore.read`),
so no reader in the scanning process opens or hashes a file again.

Parse results are content-addressed, not path-addressed: two identical
files share one entry, and cached syntax errors/warnings are re-attributed
to the *requesting* filename on every hit (error messages never embed the
path; only :class:`~repro.exceptions.PhpSyntaxError` carries it).

:class:`AstCache` adds an optional on-disk tier (the cache store's
``ast`` namespace), so incremental re-scans of a dirty include closure
stop re-lexing unchanged includer files.

Every successful entry also carries the file's lowered
:class:`~repro.ir.opcodes.IRModule`: a parse lowers eagerly (timed into
the ``ir_lower_seconds`` counter), so the taint
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

import contextlib

from repro.cache import AST, CacheStore
from repro.exceptions import PhpSyntaxError
# the lexer and parser are called through this module's names, so a
# tracer that wraps ``repro.php.parser.tokenize`` sees every lex
from repro.php import parser
from repro.php.ast_nodes import Program
from repro.php.source import content_bytes, content_key, source_text

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


def _untraced(_name: str, **_attrs):
    return contextlib.nullcontext()


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
    """Process-local memo of parse results, keyed by content key.

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
        #: path -> the bytes a scan read (or the error its read raised),
        #: for :meth:`read` ...
        self.held: dict[str, bytes | OSError] = {}
        #: ... and path -> their content key: the scan's own map (the
        #: store never copies it), covering every held path
        self.keys: dict[str, str] = {}

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

    def _remember(self, key: str, entry: _Entry) -> None:
        """Memoize a parse (and write it to the disk tier)."""
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

    def offer_tokens(self, key: str, tokens: list) -> None:
        """Hold *tokens*, lexed from content *key*, for its parse.

        The scan lexes include-bearing files before deciding which files
        to analyze; a parse of the same content then skips the lexer.
        """
        self._lexed[key] = tokens

    def drop_tokens(self) -> None:
        """Forget the offered tokens no parse took, and the held bytes."""
        self._lexed.clear()
        self.held.clear()
        self.keys = {}

    def read(self, path: str) -> tuple[bytes, str]:
        """(bytes, content key) of the file at *path*: the held ones with
        the key the planning pass computed, or else read and hashed now
        (raises :class:`OSError` when it cannot be read: a held error is
        raised again without another try).

        A path that is not held is read again on every call, so readers
        that must agree on a file's content share one call: the
        :class:`~repro.analysis.includes.IncludeContext` keeps what it
        reads, and a detector with an include graph reads through it.
        That holds while such a detector analyzes files only through
        ``detect_file``, its only caller.
        """
        data = self.held.get(path)
        if data is not None:
            if isinstance(data, OSError):
                raise data.with_traceback(None)
            return data, self.keys[path]
        with open(path, "rb") as f:
            data = f.read()
        return data, content_key(data)

    def flush(self) -> None:
        """Persist the disk tier's buffered writes, if there is one."""
        if self.disk is not None:
            self.disk.flush()

    def module_for(self, key: str):
        """The lowered IR module memoized for *key*, or ``None``.

        Deliberately does not probe the disk tier or touch the hit/miss
        counters: callers ask right after :meth:`parse_recovering`
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
    def parse_recovering(self, source: str | bytes,
                         filename: str = "<source>",
                         key: str | None = None, tracer=None
                         ) -> tuple[Program, list[PhpSyntaxError]]:
        """Memoized :func:`repro.php.parser.parse_with_recovery` plus
        the lowering of its program (eager, once per unique content).

        Same contract: returns ``(program, warnings)`` and raises
        :class:`PhpSyntaxError` when nothing was salvageable — including
        on cache hits for sources that previously failed.  *source* is a
        file's bytes or a string (:mod:`repro.php.source`): a miss parses
        the text of the bytes, and *key* is their content key when the
        caller already has it.  Under a ``Tracer``-shaped *tracer* a
        miss's lex, parse and lower get a span each; offered tokens skip
        the lex.
        """
        data = content_bytes(source)
        key = key or content_key(data)
        entry = self.lookup(key)
        if entry is not None:
            return self.materialize(entry, filename)
        span = tracer.span if tracer is not None else _untraced
        try:
            tokens = self._lexed.pop(key, None)  # offered ones, once
            if tokens is None:
                with span("lex", phase="lex", file=filename):
                    tokens = parser.tokenize(source_text(data), filename)
            with span("parse", phase="parse", file=filename):
                parsing = parser.Parser(tokens, filename, recover=True)
                program = parsing.parse_program()
        except PhpSyntaxError as exc:
            self._remember(key, (None, (), _spec_of(exc), None))
            raise
        with span("lower", phase="lower", file=filename):
            module = self._lower(program)
        warnings = list(parsing.warnings)
        self._remember(key, (program, tuple(map(_spec_of, warnings)), None,
                             module))
        return program, warnings
