"""The one on-disk cache store: every cached entry of a cache directory.

Four namespaces, one file each, under one format-version directory::

    <cache-dir>/cache-v<CACHE_FORMAT>/
        result-<fingerprint[:24]>.pkl   per-file results (ResultCache)
        record-<fingerprint[:24]>.pkl   prefilter records (its blobs)
        ast.pkl                         lowered IR (AstCache)
        summary.pkl                     dependency summaries (SummaryCache)

A file holds two pickles, written by one pickler.  The first maps each
key to its entry's bytes; a scan that only reads loads nothing else.
The second is ``(roots, stamps)``, whose keys refer back to the first's:
``stamps`` maps a key to the scan root (the scanned tree) that last
used the entry and that root's count of rewrites of the file then;
``roots`` maps each root to its rewrite count and to the file's rewrite
count, by any root, at its last rewrite.  Only a flush reads it.

Puts are buffered, and only the scanning process writes: a pool worker
ships its puts, evictions, reads and counts home with each chunk.  A
flush merges what another process flushed meanwhile and rewrites the
file atomically.  An unreadable file or entry is a miss plus an eviction.

A rewrite also prunes.  It stamps the entries the scan read, wrote or
touched.  Another entry goes when its root has rewritten the file
:data:`KEEP_SCANS` times since it last used it, or when its root has
not rewritten the file in the file's last :data:`FORGET_ROOT_AFTER`
rewrites.  So editing one tree bounds that tree's entries, scans of
other trees sharing the directory never age them, and the entries of a
tree nobody scans any more go in the end.  A scan that writes nothing
writes no file and ages nothing.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from dataclasses import dataclass, field

#: bump when a cached payload's layout or meaning changes: the result
#: payload, engine semantics, tokens, grammar, AST layout or the IR
#: (:data:`repro.ir.opcodes.IR_FORMAT`).  It names the store's directory
#: and is part of the knowledge fingerprint.
#: 3: cache keys and stored paths are project-relative (a moved or
#: renamed checkout keeps hitting and reports correct file paths).
#: 4: a cached candidate keeps its own file when its sink lies in a
#: cross-file callee (format 3 re-attributed it to the scanned file).
#: 5: a hop in the entry's own file is stored as a self marker, so a
#: hit for another file with the same content names that file (format 4
#: named the file that stored the entry).
#: 6: every tier keys a content by the SHA-256 of its bytes (AST and
#: summary entries of CRLF and invalid-UTF-8 files were keyed by their
#: decoded text), and a record carries the content's line count.
#: 7: an ``ast`` entry holds the lowered module, not the parse tree
#: (kept only where lowering gave up), and whether the tree holds PHP.
CACHE_FORMAT = 7

#: an entry survives while one of the last KEEP_SCANS scans of its root
#: that rewrote its file read, wrote or touched it.
KEEP_SCANS = 8

#: a root that has not rewritten a file in the file's last
#: FORGET_ROOT_AFTER rewrites is forgotten there, with its entries.  Above
#: the 169 applications and plugins of the paper's evaluation, so a cache
#: dir that scans each of them in turn keeps them all.
FORGET_ROOT_AFTER = 256

RESULT, RECORD, AST, SUMMARY = "result", "record", "ast", "summary"


def cache_dir_of(args) -> str | None:
    """The cache directory of a ``--cache-dir``/``--no-cache`` command
    line: ``$XDG_CACHE_HOME/wape`` (``~/.cache/wape``) by default."""
    if args.no_cache:
        return None
    return args.cache_dir or os.path.join(
        os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
        "wape")


@dataclass
class CacheStats:
    """One namespace's cache behaviour over one scan (telemetry-free)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    puts: int = 0

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "puts": self.puts,
                "hit_rate": round(self.hit_rate, 4)}


@dataclass
class _Table:
    """One namespace in this process: its entries as last read or written
    (None until probed), buffered puts and evicted keys, the keys this
    scan read and the collections of keys it touched, and the (root
    count, file count) of this scan's first rewrite."""

    path: str
    entries: dict | None = None
    pending: dict = field(default_factory=dict)
    dropped: set = field(default_factory=set)
    read: list = field(default_factory=list)
    touched: list = field(default_factory=list)
    stamp: tuple[int, int] | None = None


class CacheStore:
    """Every cache entry of one cache directory, in namespaces; results
    and records in files of the knowledge *fingerprint*."""

    def __init__(self, directory: str, fingerprint: str = "") -> None:
        self.directory = os.path.join(directory, f"cache-v{CACHE_FORMAT}")
        self.fingerprint = fingerprint
        self._tables: dict[str, _Table] = {}
        self.begin_scan()

    def begin_scan(self, root: str = "") -> None:
        """Start a scan of the tree at *root*: zero counts, no key used
        yet, no rewrite counted."""
        self.root = os.path.abspath(root) if root else ""
        self.counts = {namespace: CacheStats()
                       for namespace in (RESULT, RECORD, AST, SUMMARY)}
        for table in self._tables.values():
            table.read, table.touched, table.stamp = [], [], None

    def path(self, namespace: str) -> str:
        if namespace in (RESULT, RECORD):
            namespace = f"{namespace}-{self.fingerprint[:24]}"
        return os.path.join(self.directory, namespace + ".pkl")

    def get(self, namespace: str, key: str, valid=None):
        """The value under *key*, or None; an entry that does not
        unpickle, or that *valid* rejects, is evicted."""
        table, counts = self._table(namespace), self.counts[namespace]
        entries = table.entries
        if entries is None:
            entries = table.entries = _read(table.path)
            if entries is None:  # truncated or foreign: start over
                entries = table.entries = {}
                counts.evictions += 1
                with contextlib.suppress(OSError):
                    os.unlink(table.path)
        entry = table.pending.get(key) or entries.get(key)
        if entry is not None:
            try:
                value = pickle.loads(entry)
                if valid is None or valid(value):
                    table.read.append(key)
                    counts.hits += 1
                    return value
            except Exception:  # a corrupt entry raises anything
                pass
            table.pending.pop(key, None)
            entries.pop(key, None)
            table.dropped.add(key)
            counts.evictions += 1
        counts.misses += 1
        return None

    def put(self, namespace: str, key: str, value) -> None:
        """Buffer *value* for the next flush, unless it is unpicklable
        (``pickle.dumps`` raises one of four errors, by object)."""
        try:
            blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (RecursionError, pickle.PicklingError, AttributeError,
                TypeError):
            return
        self._table(namespace).pending[key] = blob
        self.counts[namespace].puts += 1

    def touch(self, namespace: str, keys) -> None:
        """Keep *keys* through this scan's rewrites without reading them."""
        self._table(namespace).touched.append(keys)

    def flush(self, namespace: str) -> None:
        """Rewrite the namespace's file if this scan put or evicted
        anything: merged with the file as it is now, stamped, pruned,
        replaced atomically (a failed write never fails a scan)."""
        table = self._tables.get(namespace)
        if table is None or not (table.pending or table.dropped):
            return
        entries, roots, stamps = _read(table.path, stamped=True) \
            or ({}, {}, {})
        for key in table.dropped:
            entries.pop(key, None)
        entries.update(table.pending)
        try:
            roots, stamps = self._pruned(table, entries, roots, stamps)
        except (TypeError, IndexError, ValueError):  # a foreign file
            entries = dict(table.pending)
            roots, stamps = self._pruned(table, entries, {}, {})
        tmp = f"{table.path}.{os.urandom(6).hex()}.tmp"
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(tmp, "wb") as f:
                pickler = pickle.Pickler(f, protocol=pickle.HIGHEST_PROTOCOL)
                pickler.dump(entries)
                pickler.dump((roots, stamps))
            os.replace(tmp, table.path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            return
        table.entries, table.pending, table.dropped = entries, {}, set()

    def _pruned(self, table: _Table, entries: dict, roots: dict,
                stamps: dict) -> tuple[dict, dict]:
        """Drop from *entries* what this rewrite prunes; the roots and
        stamps after it (the entries the scan used stamped)."""
        if table.stamp is None:  # the scan's first rewrite of the file
            table.stamp = (roots.get(self.root, (0, 0))[0] + 1,
                           max((g for _n, g in roots.values()), default=0)
                           + 1)
        n, g = table.stamp
        roots[self.root] = table.stamp
        roots = {root: counts for root, counts in roots.items()
                 if counts[1] > g - FORGET_ROOT_AFTER}
        used = set(table.read).union(table.pending, *table.touched)
        mine, kept = (self.root, n), {}
        for key in entries:
            if key in used:
                kept[key] = mine
            else:
                root, last = stamps.get(key, (None, 0))
                if root in roots and roots[root][0] - last < KEEP_SCANS:
                    kept[key] = stamps[key]
        for key in entries.keys() - kept.keys():
            del entries[key]
        return roots, kept

    def drain(self) -> tuple[dict[str, CacheStats], dict]:
        """What this process did since its last drain, for the scanning
        process to :meth:`absorb` (a pool worker writes no file): the
        counts, and per namespace the puts, evicted keys and keys read."""
        work = {namespace: (table.pending, table.dropped, table.read)
                for namespace, table in self._tables.items()}
        for table in self._tables.values():
            if table.entries is not None:
                table.entries.update(table.pending)
            table.pending, table.dropped, table.read = {}, set(), []
        counts = self.counts
        self.counts = {name: CacheStats() for name in counts}
        return counts, work

    def absorb(self, drained) -> None:
        """Take over a worker's :meth:`drain`."""
        counts, work = drained
        for namespace, other in counts.items():
            mine = self.counts[namespace]
            for name in ("hits", "misses", "evictions", "puts"):
                setattr(mine, name, getattr(mine, name) + getattr(other, name))
        for namespace, (pending, dropped, read) in work.items():
            table = self._table(namespace)
            table.pending.update(pending)
            table.dropped |= dropped
            table.read += read

    def release(self, *namespaces: str) -> None:
        """Forget what this process loaded of *namespaces*."""
        for namespace in namespaces:
            self._tables.pop(namespace, None)

    def _table(self, namespace: str) -> _Table:
        table = self._tables.get(namespace)
        if table is None:
            table = self._tables[namespace] = _Table(self.path(namespace))
        return table


def _read(path: str, stamped: bool = False):
    """A namespace file's entries, with *stamped* as ``(entries, roots,
    stamps)``: empty when missing, None if unreadable."""
    try:
        with open(path, "rb") as f:
            unpickler = pickle.Unpickler(f)
            entries = unpickler.load()
            if not stamped:
                return entries if type(entries) is dict else None
            roots, stamps = unpickler.load()
    except FileNotFoundError:
        return ({}, {}, {}) if stamped else {}
    except Exception:  # truncated or foreign file
        return None
    if all(type(part) is dict for part in (entries, roots, stamps)):
        return entries, roots, stamps
    return None
