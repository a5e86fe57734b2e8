"""Content-hash-keyed compositional function-summary cache.

The include-aware scan used to *re-execute* dependency bodies: analyzing
``index.php`` meant running the top level of every file in its include
closure (to learn the exported globals) and re-interpreting every
dependency function a call reached.  With the taint engine compiled to
the flat IR, per-function behaviour is fully captured by
:class:`~repro.analysis.model.FunctionSummary`, so a dependency's
contribution to its includers reduces to two values: the taint env its
top level exports and its own function summaries.  This module persists
exactly that pair.

:class:`SummaryCache` stores one entry per dependency file in the cache
store (:mod:`repro.cache`).  Keys cover

* the file's own content hash (:meth:`repro.php.ast_store
  .AstStore.source_key`),
* the (relative path, content hash) pairs of its include closure — an
  edit to anything the file includes invalidates its summaries, exactly
  like :func:`repro.analysis.pipeline.closure_key` for results, and
* the knowledge fingerprint (:func:`repro.analysis.pipeline
  .config_fingerprint`) — summaries embed sanitization verdicts and
  group-scoped sink hits, so they are config-dependent even though the
  IR below them is not.

Entries never embed checkout paths: path-step files and candidate
filenames are stored relative to the summarized file (the file itself as
:data:`FILE_MARKER`) and re-joined at load, mirroring ``ResultCache``, so
a cache survives a moved or renamed project root and serves a file with
the same content under another name.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os

from repro.analysis.model import (
    CandidateVulnerability,
    FunctionSummary,
    PathStep,
    Taint,
)
from repro.cache import SUMMARY, CacheStore

Env = dict[str, frozenset]


# ---------------------------------------------------------------------------
# path mapping (relativize on put, absolutize on get)
# ---------------------------------------------------------------------------

#: stands for an entry's own file in stored paths and diagnostics.  A
#: cache entry is keyed by content, so a file with the same content under
#: another name can hit it and must get its own name back, not the name
#: of the file that stored the entry.
FILE_MARKER = "\x00file\x00"


def relative_to(filename: str):
    """Path mapper for storing: relative to *filename*'s directory, and
    *filename* itself as :data:`FILE_MARKER`."""
    base = os.path.dirname(filename)

    def relativize(path: str) -> str:
        return FILE_MARKER if path == filename \
            else os.path.relpath(path, base)

    return relativize


def absolute_to(filename: str):
    """Path mapper for loading: the inverse of :func:`relative_to`,
    rebased onto *filename*."""
    base = os.path.dirname(filename)

    def absolutize(path: str) -> str:
        return filename if path == FILE_MARKER \
            else os.path.normpath(os.path.join(base, path))

    return absolutize


# map_steps and map_candidates run on every result-cache hit: they call
# the constructors, which cost a third of ``dataclasses.replace``.
def map_steps(steps, mapper):
    return tuple(
        PathStep(step.kind, step.detail, step.line, mapper(step.file))
        if step.file else step
        for step in steps)


def map_candidates(candidates, mapper):
    return [CandidateVulnerability(
                cand.vuln_class, mapper(cand.filename), cand.sink_name,
                cand.sink_line, cand.entry_point, cand.entry_line,
                map_steps(cand.path, mapper), cand.sink_kind,
                cand.tainted_args, cand.context)
            for cand in candidates]


def _map_taints(taints, mapper):
    return frozenset(
        dataclasses.replace(t, path=map_steps(t.path, mapper))
        if any(s.file for s in t.path) else t
        for t in taints)


def _map_env(env: Env, mapper) -> Env:
    return {var: _map_taints(taints, mapper)
            for var, taints in env.items()}


def _map_summary(summary: FunctionSummary, mapper) -> FunctionSummary:
    return dataclasses.replace(
        summary,
        filename=mapper(summary.filename) if summary.filename else "",
        returns_params={
            index: map_steps(steps, mapper)
            for index, steps in summary.returns_params.items()},
        param_sinks=[
            (index, class_id, name, kind, line, map_steps(steps, mapper))
            for index, class_id, name, kind, line, steps
            in summary.param_sinks],
        internal_candidates=map_candidates(summary.internal_candidates,
                                           mapper),
        returned_sources=[
            dataclasses.replace(t, path=map_steps(t.path, mapper))
            for t in summary.returned_sources],
    )


def _map_state(env: Env, summaries: dict, mapper) -> tuple[Env, dict]:
    return (_map_env(env, mapper),
            {name: _map_summary(s, mapper) for name, s in summaries.items()})


class SummaryCache:
    """On-disk (exported env, function summaries) entries per dependency:
    the ``summary`` namespace of a :class:`~repro.cache.CacheStore`,
    shared across knowledge fingerprints because the fingerprint rides
    inside the digest.  Puts are buffered until :meth:`flush` (once per
    scan or worker chunk)."""

    def __init__(self, store: CacheStore) -> None:
        self.store = store

    # ------------------------------------------------------------------
    def state_key(self, source_key: str,
                  closure_pairs: list[tuple[str, str]]) -> str:
        """Digest identifying one file's summary state.

        Args:
            source_key: the file's own content hash.
            closure_pairs: (path relative to the file, content hash) of
                every member of its include closure, in closure order.
        """
        digest = hashlib.sha256(
            f"summary|{self.store.fingerprint}|{source_key}".encode())
        for rel, dep_key in closure_pairs:
            digest.update(f"\n{rel}\x00{dep_key}".encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    def get(self, key: str, filename: str) -> tuple[Env, dict] | None:
        """Cached (env, summaries) for *key*, rebased onto *filename*."""
        state = self.store.get(SUMMARY, key, lambda value: isinstance(
            value, tuple) and len(value) == 2)
        if state is None:
            return None
        return _map_state(*state, absolute_to(filename))

    def put(self, key: str, filename: str,
            env: Env, summaries: dict) -> None:
        """Buffer one file's state for the next :meth:`flush`."""
        self.store.put(SUMMARY, key,
                       _map_state(env, summaries, relative_to(filename)))

    def flush(self) -> None:
        """Persist buffered puts (one atomic namespace rewrite)."""
        self.store.flush(SUMMARY)
