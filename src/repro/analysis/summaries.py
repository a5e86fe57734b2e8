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

:class:`SummaryCache` stores one entry per dependency file in the same
``ast-v<N>/`` directory as the pickled ASTs (the two tiers version
together: an engine-semantics change that invalidates summaries bumps
:data:`repro.php.ast_store.AST_FORMAT`, stranding both).  Keys cover

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
the same content under another name.  Entries live in one
:class:`~repro.php.ast_store.PackFile` (buffered puts, one atomic rewrite
per :meth:`SummaryCache.flush`); corrupt entries are evicted on the miss
that discovers them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle

from repro.analysis.model import FunctionSummary, Taint
from repro.php.ast_store import AST_FORMAT, PackFile

#: bump when the summary payload layout changes without an engine or
#: frontend format change (rare: AST_FORMAT covers most invalidations).
SUMMARY_FORMAT = 1

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


def map_steps(steps, mapper):
    return tuple(
        dataclasses.replace(step, file=mapper(step.file)) if step.file
        else step
        for step in steps)


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
        internal_candidates=[
            dataclasses.replace(cand,
                                filename=mapper(cand.filename),
                                path=map_steps(cand.path, mapper))
            for cand in summary.internal_candidates],
        returned_sources=[
            dataclasses.replace(t, path=map_steps(t.path, mapper))
            for t in summary.returned_sources],
    )


def _map_state(env: Env, summaries: dict, mapper) -> tuple[Env, dict]:
    return (_map_env(env, mapper),
            {name: _map_summary(s, mapper) for name, s in summaries.items()})


class SummaryCache:
    """On-disk (exported env, function summaries) entries per dependency.

    Layout: ``<directory>/ast-v<AST_FORMAT>/sum-pack.pkl`` — one
    :class:`~repro.php.ast_store.PackFile` of every entry.  The summary
    tier shares the AST tier's version directory because both invalidate
    on frontend/engine format changes, while the knowledge fingerprint
    rides inside the digest (summaries are config-dependent, lowered
    modules are not).

    Puts are buffered until :meth:`flush` (the scan scheduler and the
    workers flush once per scan/chunk).  Behaviour is always counted
    (``hits``/``misses``/``evictions``/``puts``); the telemetry-facing
    ``summary_cache_hit``/``summary_cache_miss`` counters are published
    by the caller (:class:`repro.analysis.includes.IncludeContext`).
    """

    def __init__(self, directory: str, fingerprint: str) -> None:
        self.directory = os.path.join(directory, f"ast-v{AST_FORMAT}")
        os.makedirs(self.directory, exist_ok=True)
        self.pack = PackFile(os.path.join(self.directory, "sum-pack.pkl"))
        self.fingerprint = fingerprint
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.puts = 0

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
            f"summary-v{SUMMARY_FORMAT}|{self.fingerprint}|{source_key}"
            .encode())
        for rel, dep_key in closure_pairs:
            digest.update(f"\n{rel}\x00{dep_key}".encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    def get(self, key: str, filename: str) -> tuple[Env, dict] | None:
        """Cached (env, summaries) for *key*, rebased onto *filename*."""
        blob = self.pack.get(key)
        if self.pack.corrupt:
            self.pack.corrupt = False
            self.evictions += 1
        if blob is None:
            self.misses += 1
            return None
        try:
            env, summaries = pickle.loads(blob)
        except Exception:  # corrupt entries raise anything: miss + evict
            self.misses += 1
            self.pack.discard(key)
            self.evictions += 1
            return None
        self.hits += 1
        return _map_state(env, summaries, absolute_to(filename))

    def put(self, key: str, filename: str,
            env: Env, summaries: dict) -> None:
        """Buffer one file's state for the next :meth:`flush`."""
        payload = _map_state(env, summaries, relative_to(filename))
        try:
            blob = pickle.dumps(payload,
                                protocol=pickle.HIGHEST_PROTOCOL)
        # unpicklable members surface as PicklingError, AttributeError
        # or TypeError depending on the object and protocol
        except (RecursionError, pickle.PicklingError,
                AttributeError, TypeError):
            return
        self.pack.put(key, blob)
        self.puts += 1

    def flush(self) -> None:
        """Persist buffered puts (one atomic pack rewrite)."""
        self.pack.flush()
