"""Knowledge-compiled relevance prefilter: skip files that cannot match.

Most files in a real corpus can never produce a finding: the taint
engine only *births* taint from entry-point reads and source-function
calls, and only *fires* sinks through literally-named calls (plus the
``echo``/``include``/backtick constructs) — dynamic calls like ``$f()``
lower to ``CALL_FOLD`` and can never reach a sink.  Both sides are
therefore decidable from raw bytes: a file whose include closure never
mentions a sink name **and** a source marker cannot contain a finding,
so running lex → parse → lower → taint on it is pure waste.

This module compiles every loaded knowledge catalog (sub-module classes
and armed weapons alike) into two byte-level alternation matchers and
classifies each file before any parse into three tiers:

* **sink-bearing** — the file's include closure mentions at least one
  sink name *and* at least one source marker: full pipeline.
* **dep-only** — not sink-bearing itself, but a member of some
  sink-bearing file's include closure: skipped as a scan unit; its
  exported environment and function summaries are still produced
  (lazily, exactly as before) while the including file is analyzed.
* **irrelevant** — neither: skipped entirely, reported with zero
  candidates and a line count taken from the raw bytes.

Conservatism contract (see ``docs/prefilter.md``): matching is a
superset of what the engine can act on — sink/source names are matched
case-respecting the engine's own semantics (function names folded,
superglobal names exact), pseudo-sinks map to their surface keywords,
and any *unknown* sink kind disables skipping outright.  False
positives (a file classified sink-bearing that yields nothing) cost
only the old pipeline time; false negatives are impossible by
construction.  The one observable difference: a skipped file is never
parsed, so parse diagnostics are only emitted for analyzed files —
``--no-prefilter`` restores them everywhere.

Every fact the scan plans from before any parse is one record per file
*content*, :class:`FileRecord`: the two byte verdicts plus the file's
symbolic include targets, folded from tokens by
:func:`~repro.analysis.includes.include_targets`.  The include graph
and the tiers both derive from the records, so no file is parsed before
its tier is known.  :class:`RelevancePrefilter` keeps them: a
per-process memo and, when a result cache is attached,
``record-<content-hash>`` blob entries inside the cache's
knowledge-fingerprint pack — so editing a weapon or catalog changes the
fingerprint and atomically invalidates both the compiled matcher
(memoized per fingerprint) and every stored record.  Records are kept
whether or not the tiers are applied (``--no-prefilter``), so one cache
serves both modes.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.analysis.includes import IncludeTarget, lex_targets
from repro.analysis.model import (
    SINK_ECHO,
    SINK_FUNCTION,
    SINK_INCLUDE,
    SINK_METHOD,
    SINK_SHELL,
    SINK_STATIC,
)
from repro.php.ast_store import AstStore
from repro.telemetry.stats import PrefilterStats

__all__ = [
    "TIER_SINK_BEARING",
    "TIER_DEP_ONLY",
    "TIER_IRRELEVANT",
    "FileRecord",
    "KnowledgeMatcher",
    "RelevancePrefilter",
    "PrefilterStats",
    "matcher_for",
]

TIER_SINK_BEARING = "sink_bearing"
TIER_DEP_ONLY = "dep_only"
TIER_IRRELEVANT = "irrelevant"

#: surface keywords each pseudo-sink can appear as in source text.
#: ``<?=`` is the short echo tag (no ``echo`` token in the bytes);
#: the backtick is the shell-execution operator.
_PSEUDO_SINK_WORDS = {
    SINK_ECHO: ("echo", "print", "exit", "die"),
    SINK_INCLUDE: ("include", "include_once", "require", "require_once"),
}
_PSEUDO_SINK_LITERALS = {
    SINK_ECHO: (rb"<\?=",),
    SINK_SHELL: (rb"`",),
}

#: blob-cache key prefix for per-content records (the surrounding pack
#: directory already encodes the knowledge fingerprint).
_RECORD_KEY = "record-"


class FileRecord(NamedTuple):
    """What a scan knows about one file content before parsing it.

    Attributes:
        has_sink: the bytes mention a sink name (see
            :class:`KnowledgeMatcher`).
        has_source: the bytes mention a source marker.
        includes: the symbolic target of every include keyword
            (:func:`~repro.analysis.includes.include_targets`); ``None``
            for a dynamic one.
    """

    has_sink: bool
    has_source: bool
    includes: tuple[IncludeTarget | None, ...]


def _is_record(value) -> bool:
    return (isinstance(value, tuple) and len(value) == 3
            and isinstance(value[0], bool) and isinstance(value[1], bool)
            and isinstance(value[2], tuple))


class KnowledgeMatcher:
    """Two byte-level matchers compiled from the knowledge catalogs.

    ``verdict(raw)`` answers, from raw file bytes, whether any sink
    name and whether any source marker occurs.  Function names match
    ASCII case-insensitively (PHP function names are case-insensitive);
    entry-point names (superglobals) match exactly, like the engine's
    own variable lookup.
    """

    def __init__(self, groups) -> None:
        sink_words: set[str] = set()
        sink_literals: set[bytes] = set()
        entry_points: set[str] = set()
        source_functions: set[str] = set()
        #: set when a catalog declares a sink kind this matcher cannot
        #: pattern-ize: every file is then sink-bearing (never unsound).
        self.always_sink = False
        for group in groups:
            for cfg in getattr(group, "configs", group):
                for sink in cfg.sinks:
                    if sink.kind in (SINK_FUNCTION, SINK_METHOD,
                                     SINK_STATIC):
                        sink_words.add(sink.name.lower())
                    elif sink.kind in _PSEUDO_SINK_WORDS \
                            or sink.kind in _PSEUDO_SINK_LITERALS:
                        sink_words.update(
                            _PSEUDO_SINK_WORDS.get(sink.kind, ()))
                        sink_literals.update(
                            _PSEUDO_SINK_LITERALS.get(sink.kind, ()))
                    else:
                        self.always_sink = True
                entry_points.update(cfg.entry_points)
                source_functions.update(
                    f.lower() for f in cfg.source_functions)
        self._sink_re = self._compile_sinks(sink_words, sink_literals)
        self._source_re = self._compile_sources(entry_points,
                                                source_functions)

    @staticmethod
    def _compile_sinks(words: set[str], literals: set[bytes]):
        parts = [rb"\b(?:" + b"|".join(
            re.escape(w.encode("utf-8")) for w in sorted(words)) + rb")\b"] \
            if words else []
        parts.extend(sorted(literals))
        if not parts:
            return None
        return re.compile(b"|".join(parts), re.IGNORECASE)

    @staticmethod
    def _compile_sources(entry_points: set[str],
                         source_functions: set[str]):
        # superglobal names are case-sensitive ($_get is NOT $_GET);
        # function names fold, matching the engine's .lower() interning.
        parts = [rb"\b" + re.escape(n.encode("utf-8")) + rb"\b"
                 for n in sorted(entry_points)]
        parts.extend(rb"(?i:\b" + re.escape(f.encode("utf-8")) + rb"\b)"
                     for f in sorted(source_functions))
        if not parts:
            return None
        return re.compile(b"|".join(parts))

    def verdict(self, raw: bytes) -> tuple[bool, bool]:
        """``(mentions_sink, mentions_source)`` for one file's bytes."""
        sink = self.always_sink or (
            self._sink_re is not None
            and self._sink_re.search(raw) is not None)
        source = (self._source_re is not None
                  and self._source_re.search(raw) is not None)
        return sink, source


#: compiled matchers, one per knowledge fingerprint: arming a weapon or
#: editing a catalog changes the fingerprint and compiles a fresh one.
_MATCHERS: dict[str, KnowledgeMatcher] = {}


def matcher_for(groups, fingerprint: str) -> KnowledgeMatcher:
    """The (memoized) matcher for this knowledge fingerprint."""
    matcher = _MATCHERS.get(fingerprint)
    if matcher is None:
        matcher = _MATCHERS[fingerprint] = KnowledgeMatcher(groups)
    return matcher


class RelevancePrefilter:
    """Per-content file records plus closure-level tiers.

    Args:
        matcher: the fingerprint-keyed :class:`KnowledgeMatcher`.
        cache: optional :class:`~repro.analysis.pipeline.ResultCache`;
            records are persisted as blob entries in its pack (keyed by
            content hash; the pack directory carries the fingerprint).
        memo: optional externally-owned ``{content_hash: record}``
            dict, letting a warm :class:`~repro.api.Scanner` keep
            records across scan cycles.
        ast_store: optional :class:`~repro.php.ast_store.AstStore`;
            tokens lexed for a record are offered to it, so a later
            parse of the same content skips the lexer: the tokens of
            every lexed file when *parse_all* says the scan parses
            every file, else only of files that are sink-bearing on
            their own (the rest are freed at once).
    """

    def __init__(self, matcher: KnowledgeMatcher, cache=None,
                 memo: dict | None = None,
                 ast_store: AstStore | None = None,
                 parse_all: bool = False) -> None:
        self.matcher = matcher
        self.cache = cache
        self.memo: dict[str, FileRecord] = memo if memo is not None else {}
        self.ast_store = ast_store
        self.parse_all = parse_all

    # ------------------------------------------------------------------
    def verdict(self, raw: bytes, content_hash: str | None = None,
                path: str = "<source>") -> FileRecord:
        """The record of one file's bytes, through the memo and blob
        cache (*path* only names the file in lexer diagnostics)."""
        if content_hash is not None:
            got = self.memo.get(content_hash)
            if got is not None:
                return got
            if self.cache is not None:
                stored = self.cache.get_blob(_RECORD_KEY + content_hash)
                if _is_record(stored):
                    got = self.memo[content_hash] = FileRecord._make(stored)
                    return got
        includes, tokens, text = lex_targets(raw, path)
        record = FileRecord(*self.matcher.verdict(raw), includes)
        if tokens is not None and self.ast_store is not None \
                and (self.parse_all or (record.has_sink
                                        and record.has_source)):
            self.ast_store.offer_tokens(text, tokens, content_hash)
        if content_hash is not None:
            self.memo[content_hash] = record
            if self.cache is not None:
                self.cache.put_blob(_RECORD_KEY + content_hash,
                                    tuple(record))
        return record

    # ------------------------------------------------------------------
    def classify(self, paths, graph,
                 records: dict[str, FileRecord]) -> dict[str, str]:
        """Assign every path a tier from its record + the graph.

        A file is sink-bearing iff its include closure (itself included)
        mentions both a sink and a source; closure members of
        sink-bearing files that are not themselves sink-bearing are
        dep-only; everything else is irrelevant.  Paths without a
        record (unreadable when the scan read them) are sink-bearing so
        their errors surface downstream.
        """

        def verdict_of(path: str) -> tuple[bool, bool]:
            record = records.get(path)
            return (True, True) if record is None else record[:2]

        full: set[str] = set()
        for path in paths:
            sink, source = verdict_of(path)
            if graph is not None and not (sink and source):
                for dep in graph.closure(path):
                    dep_sink, dep_source = verdict_of(dep)
                    sink = sink or dep_sink
                    source = source or dep_source
                    if sink and source:
                        break
            if sink and source:
                full.add(path)
        dep_only: set[str] = set()
        if graph is not None:
            for path in full:
                dep_only.update(graph.closure(path))
            dep_only -= full
        tiers: dict[str, str] = {}
        for path in paths:
            if path in full:
                tiers[path] = TIER_SINK_BEARING
            elif path in dep_only:
                tiers[path] = TIER_DEP_ONLY
            else:
                tiers[path] = TIER_IRRELEVANT
        return tiers

    @staticmethod
    def stats_of(tiers: dict[str, str]) -> PrefilterStats:
        """Tier counts over one scan's classified paths."""
        counts = {TIER_SINK_BEARING: 0, TIER_DEP_ONLY: 0,
                  TIER_IRRELEVANT: 0}
        for tier in tiers.values():
            counts[tier] += 1
        return PrefilterStats(skipped=counts[TIER_IRRELEVANT],
                              dep_only=counts[TIER_DEP_ONLY],
                              sink_bearing=counts[TIER_SINK_BEARING])
