"""The content-hash-keyed compositional summary cache and its store.

Covers, bottom-up:

* :class:`repro.cache.CacheStore` — the buffered, bounded store every
  cache tier (``ResultCache``, ``AstCache``, ``SummaryCache``) is a view
  of;
* AST entry shape negotiation — a stale entry of another layout (the
  pre-IR 3-tuple) is evicted cleanly, never unpickle-crashed into a scan;
* :class:`repro.analysis.summaries.SummaryCache` — roundtrip, path
  relativization, corrupt-entry eviction, key invalidation discipline;
* the end-to-end property the tier exists for: a summary-warm process
  scans an include project **without re-executing dependency bodies**
  and reports byte-identical findings.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.analysis.model import (
    SINK_ECHO,
    STEP_ASSIGN,
    STEP_CALL,
    CandidateVulnerability,
    FunctionSummary,
    PathStep,
    Taint,
)
from repro.analysis.options import ScanOptions
from repro.analysis.summaries import SummaryCache, map_candidates, map_steps
from repro.cache import AST, CACHE_FORMAT, RESULT, SUMMARY, CacheStore
from repro.php.ast_store import AstCache, AstStore
from repro.php.source import content_key

FP = "f" * 64


def summary_cache(directory, fingerprint: str = FP) -> SummaryCache:
    return SummaryCache(CacheStore(str(directory), fingerprint))


def plant(directory, namespace: str, entries: dict) -> str:
    """Write *namespace*'s file under *directory* with raw *entries*
    (key -> entry bytes), the way a store flush lays it out."""
    path = CacheStore(str(directory), FP).path(namespace)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as f:
        pickler = pickle.Pickler(f)
        pickler.dump(entries)
        pickler.dump(({"": (1, 1)}, {key: ("", 1) for key in entries}))
    return path


# ---------------------------------------------------------------------------
# CacheStore
# ---------------------------------------------------------------------------

class TestPackFile:
    """A namespace file: buffered puts, merged flushes, corruption and
    eviction (test ids kept from the per-tier pack files the store
    replaced)."""

    def test_puts_are_buffered_until_flush(self, tmp_path):
        store = CacheStore(str(tmp_path))
        store.put(AST, "k", "v")
        assert store.get(AST, "k") == "v"   # visible in-process...
        assert not os.path.exists(store.path(AST))  # ...not on disk yet
        store.flush(AST)
        assert CacheStore(str(tmp_path)).get(AST, "k") == "v"

    def test_flush_merges_with_a_concurrent_flush(self, tmp_path):
        # two processes over the same namespace: each keeps the other's
        # keys
        a = CacheStore(str(tmp_path))
        b = CacheStore(str(tmp_path))
        a.put(AST, "from-a", 1)
        b.put(AST, "from-b", 2)
        a.flush(AST)
        b.flush(AST)  # re-reads the file a just wrote, then merges
        survivor = CacheStore(str(tmp_path))
        assert survivor.get(AST, "from-a") == 1
        assert survivor.get(AST, "from-b") == 2

    def test_corrupt_pack_is_flagged_and_removed(self, tmp_path):
        path = CacheStore(str(tmp_path)).path(AST)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as f:
            f.write(b"not a pickle")
        store = CacheStore(str(tmp_path))
        assert store.get(AST, "anything") is None
        assert store.counts[AST].evictions == 1
        assert not os.path.exists(path)     # fresh start for the rewrite

    def test_non_dict_pack_counts_as_corrupt(self, tmp_path):
        path = CacheStore(str(tmp_path)).path(AST)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as f:
            pickle.dump(["not", "a", "dict"], f)
        store = CacheStore(str(tmp_path))
        assert store.get(AST, "anything") is None
        assert store.counts[AST].evictions == 1

    def test_discard_drops_pending_and_loaded(self, tmp_path):
        plant(tmp_path, AST, {"old": b"not a pickle"})
        store = CacheStore(str(tmp_path))
        assert store.get(AST, "old") is None    # evicted
        store.put(AST, "new", 2)
        assert store.get(AST, "new", valid=lambda v: v != 2) is None
        assert store.get(AST, "old") is None
        assert store.get(AST, "new") is None
        store.flush(AST)
        # the eviction persists: "old" must not be resurrected by the
        # disk merge — a corrupt/stale entry is paid for exactly once
        survivor = CacheStore(str(tmp_path))
        assert survivor.get(AST, "old") is None
        assert survivor.get(AST, "new") is None
        assert survivor.counts[AST].evictions == 0

    def test_put_after_discard_wins(self, tmp_path):
        plant(tmp_path, AST, {"k": b"not a pickle"})
        store = CacheStore(str(tmp_path))
        assert store.get(AST, "k") is None
        store.put(AST, "k", "fresh")
        store.flush(AST)
        assert CacheStore(str(tmp_path)).get(AST, "k") == "fresh"


# ---------------------------------------------------------------------------
# AST entry shape negotiation
# ---------------------------------------------------------------------------

class TestAstFormatNegotiation:
    """Entries of a stale layout must be evicted, never served."""

    STALE = ("fake-program", (), None)  # 3-tuple: the pre-IR layout

    def test_stale_pack_blob_is_evicted(self, tmp_path):
        key = content_key(b"<?php echo 1;\n")
        plant(tmp_path, AST, {key: pickle.dumps(self.STALE)})
        fresh = AstCache(CacheStore(str(tmp_path)))
        assert fresh.get(key) is None
        assert fresh.store.counts[AST].evictions == 1
        assert fresh.get(key) is None   # stays gone after the discard

    def test_store_reparses_over_a_stale_entry(self, tmp_path):
        source = "<?php $q = $_GET['q']; echo $q;\n"
        key = content_key(source.encode())
        plant(tmp_path, AST, {key: pickle.dumps(self.STALE)})

        store = AstStore(disk=AstCache(CacheStore(str(tmp_path))))
        parsed = store.parse_recovering(source, "a.php")
        assert store.parses == 1
        assert store.disk.store.counts[AST].hits == 0
        assert parsed.module is not None  # re-parsed and re-lowered
        assert parsed.warnings == []
        store.flush()
        warm = AstStore(disk=AstCache(CacheStore(str(tmp_path))))
        warm.parse_recovering(source, "b.php")
        assert warm.parses == 0 and warm.disk.store.counts[AST].hits == 1

    def test_directory_is_format_versioned(self, tmp_path):
        store = CacheStore(str(tmp_path), FP)
        version = os.path.join(str(tmp_path), f"cache-v{CACHE_FORMAT}")
        assert os.path.dirname(store.path(AST)) == version
        assert store.path(SUMMARY) == os.path.join(version, "summary.pkl")
        assert store.path(RESULT) == os.path.join(
            version, f"result-{FP[:24]}.pkl")


# ---------------------------------------------------------------------------
# SummaryCache
# ---------------------------------------------------------------------------

def _state(base: str) -> tuple[dict, dict]:
    """A small (env, summaries) with absolute path-step files."""
    dep = os.path.join(base, "lib", "dep.php")
    env = {"g": frozenset({
        Taint("$_GET['g']", 2,
              (PathStep(STEP_ASSIGN, "g", 2, dep),))})}
    summary = FunctionSummary(
        name="q", param_names=["x"], filename=dep,
        returns_params={0: (PathStep(STEP_CALL, "q", 1, dep),)},
        param_sinks=[(0, "xss", "echo", "function", 3,
                      (PathStep(STEP_CALL, "q", 3, dep),))],
        returned_sources=[Taint("$_POST['p']", 4,
                                (PathStep(STEP_ASSIGN, "p", 4, dep),))])
    return env, {"q": summary}


class TestSummaryCache:
    def test_roundtrip_preserves_state(self, tmp_path):
        base = str(tmp_path / "proj")
        filename = os.path.join(base, "lib", "index.php")
        env, summaries = _state(base)
        cache = summary_cache(tmp_path / "cache")
        cache.put("k", filename, env, summaries)
        cache.flush()

        warm = summary_cache(tmp_path / "cache")
        got = warm.get("k", filename)
        assert got is not None and warm.store.counts[SUMMARY].hits == 1
        got_env, got_summaries = got
        assert got_env == env
        assert got_summaries["q"] == summaries["q"]

    def test_entries_rebase_onto_a_moved_root(self, tmp_path):
        # the survives-a-moved-checkout property ResultCache pioneered
        old = str(tmp_path / "old")
        new = str(tmp_path / "new")
        env, summaries = _state(old)
        cache = summary_cache(tmp_path / "cache")
        cache.put("k", os.path.join(old, "lib", "index.php"),
                  env, summaries)
        cache.flush()

        warm = summary_cache(tmp_path / "cache")
        got_env, got_summaries = warm.get(
            "k", os.path.join(new, "lib", "index.php"))
        moved_env, moved_summaries = _state(new)
        assert got_env == moved_env
        assert got_summaries["q"] == moved_summaries["q"]
        expected = os.path.join(new, "lib", "dep.php")
        assert got_summaries["q"].filename == expected

    def test_identity_mapping_keeps_every_field(self):
        """The path mappers build candidates and steps with their
        constructors: every field here is off its default, so a field
        added later and not passed on fails this test, not silently."""
        import dataclasses
        step = PathStep(STEP_CALL, "show", 3, "lib/show.php")
        candidate = CandidateVulnerability(
            "xss", "/app/index.php", "echo", 4, "$_GET['q']", 2, (step,),
            sink_kind=SINK_ECHO, tainted_args=(0, 1), context="html")
        for value in (step, candidate):
            for f in dataclasses.fields(value):
                assert getattr(value, f.name) != f.default, f.name

        def same(path):
            return path

        assert map_steps((step,), same) == (step,)
        mapped = map_candidates([candidate], same)
        assert mapped == [candidate] and mapped[0] is not candidate

    def test_miss_and_corrupt_eviction(self, tmp_path):
        cache = summary_cache(tmp_path)
        assert cache.get("absent", "/p/x.php") is None
        assert cache.store.counts[SUMMARY].misses == 1
        plant(tmp_path, SUMMARY, {"bad": b"not a pickle"})
        warm = summary_cache(tmp_path)
        counts = warm.store.counts[SUMMARY]
        assert warm.get("bad", "/p/x.php") is None
        assert counts.misses == 1 and counts.evictions == 1
        assert warm.get("bad", "/p/x.php") is None  # discarded

    def test_unpicklable_state_is_skipped_not_fatal(self, tmp_path):
        cache = summary_cache(tmp_path)
        env = {"g": frozenset()}
        # a lambda as the taint source survives the path mapping (its
        # path is empty) but defeats pickle -> the put is dropped whole
        cache.put("k", "/p/x.php", env,
                  {"q": FunctionSummary(
                      name="q",
                      returned_sources=[Taint(lambda: None, 1)])})
        assert cache.store.counts[SUMMARY].puts == 0
        cache.flush()
        assert cache.get("k", "/p/x.php") is None

    def test_shares_the_ast_tier_directory(self, tmp_path):
        store = summary_cache(tmp_path).store
        assert os.path.dirname(store.path(SUMMARY)) == \
            os.path.dirname(store.path(AST))


class TestStateKeyInvalidation:
    """The digest covers content + closure + knowledge fingerprint."""

    def test_content_edit_changes_the_key(self, tmp_path):
        cache = summary_cache(tmp_path)
        closure = [("lib.php", "d" * 64)]
        assert cache.state_key("a" * 64, closure) != \
            cache.state_key("b" * 64, closure)

    def test_dependency_edit_changes_the_key(self, tmp_path):
        cache = summary_cache(tmp_path)
        own = "a" * 64
        assert cache.state_key(own, [("lib.php", "d" * 64)]) != \
            cache.state_key(own, [("lib.php", "e" * 64)])
        # a renamed dependency invalidates too (relative path is keyed)
        assert cache.state_key(own, [("lib.php", "d" * 64)]) != \
            cache.state_key(own, [("other.php", "d" * 64)])

    def test_fingerprint_changes_the_key(self, tmp_path):
        own, closure = "a" * 64, [("lib.php", "d" * 64)]
        one = summary_cache(tmp_path / "1", "1" * 64)
        two = summary_cache(tmp_path / "2", "2" * 64)
        assert one.state_key(own, closure) != two.state_key(own, closure)

    def test_closure_order_is_significant(self, tmp_path):
        # closure order is deterministic (include order); a reordering
        # means a different composition, so it must not collide
        cache = summary_cache(tmp_path)
        a, b = ("a.php", "1" * 64), ("b.php", "2" * 64)
        assert cache.state_key("c" * 64, [a, b]) != \
            cache.state_key("c" * 64, [b, a])

    def test_format_constant_is_in_the_digest(self, tmp_path, monkeypatch):
        # the one format constant reaches the key through the knowledge
        # fingerprint
        from repro.analysis import pipeline

        def key_under(version: int) -> str:
            monkeypatch.setattr(pipeline, "CACHE_FORMAT", version)
            cache = summary_cache(tmp_path,
                                  pipeline.config_fingerprint((), "v"))
            key = cache.state_key("a" * 64, [])
            assert key != cache.store.fingerprint
            return key

        assert key_under(CACHE_FORMAT) != key_under(CACHE_FORMAT + 1)


# ---------------------------------------------------------------------------
# end to end: summary-warm scans do not re-execute dependency bodies
# ---------------------------------------------------------------------------

def _write_project(root) -> None:
    (root / "lib.php").write_text(
        "<?php\n"
        "$prefix = $_GET['prefix'];\n"
        "function q($x) { return $x; }\n"
        "function clean($x) { return htmlentities($x); }\n")
    (root / "index.php").write_text(
        "<?php include 'lib.php';\n"
        "$q = $_GET['q'];\n"
        "echo q($q);\n"
        "echo $prefix;\n"
        "echo clean($_GET['safe']);\n")
    (root / "admin.php").write_text(
        "<?php require 'lib.php'; echo q($_GET['id']);\n")


def _finding_keys(report):
    return sorted(
        (os.path.basename(entry.filename), o.vuln_class,
         o.candidate.sink_line, o.candidate.entry_point,
         tuple((s.kind, s.detail, s.line, s.file)
               for s in o.candidate.path))
        for entry in report.files for o in entry.outcomes)


class TestSummaryWarmScan:
    @pytest.fixture()
    def project(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        _write_project(root)
        return root

    def _scan(self, project, cache_dir, monkeypatch):
        """One jobs=1 scan; returns (report, dependency-body runs).

        Scanned files go through ``analyze()``, which always forwards a
        ``preset_summaries`` keyword; the dependency-state path
        (:meth:`IncludeContext._state`) never does.  Counting only the
        latter isolates "a dependency body was re-executed".
        """
        from repro.analysis.engine import TaintEngine
        from repro.tool import Wape

        runs: list[str] = []
        original = TaintEngine.analyze_with_state

        def counted(self, program, filename="<source>", *args, **kwargs):
            if "preset_summaries" not in kwargs:
                runs.append(filename)
            return original(self, program, filename, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(TaintEngine, "analyze_with_state", counted)
            report = Wape().analyze_tree(
                str(project), ScanOptions(jobs=1, cache_dir=cache_dir))
        return report, runs

    def test_warm_scan_composes_without_reexecuting_deps(
            self, project, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        cold_report, cold_runs = self._scan(project, cache_dir,
                                            monkeypatch)
        # cold: lib.php ran as a dependency (analyze_with_state is the
        # dependency-state path; scanned files go through analyze())
        assert any(r.endswith("lib.php") for r in cold_runs)
        store_dir = os.path.dirname(CacheStore(cache_dir).path(SUMMARY))
        assert os.path.exists(os.path.join(store_dir, "summary.pkl"))

        # wipe the result and record files but keep the AST and summary
        # namespaces: next scan recomputes every file yet replays
        # dependency state from disk
        for name in os.listdir(store_dir):
            if name.startswith(("result-", "record-")):
                os.remove(os.path.join(store_dir, name))
        warm_report, warm_runs = self._scan(project, cache_dir,
                                            monkeypatch)
        assert warm_runs == []
        assert _finding_keys(warm_report) == _finding_keys(cold_report)
        assert any(o.vuln_class == "xss"
                   for entry in warm_report.files
                   for o in entry.outcomes)

    def test_dependency_edit_invalidates_the_summary(
            self, project, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        self._scan(project, cache_dir, monkeypatch)
        (project / "lib.php").write_text(
            "<?php\n"
            "$prefix = 'constant now';\n"
            "function q($x) { return htmlentities($x); }\n"
            "function clean($x) { return htmlentities($x); }\n")
        report, runs = self._scan(project, cache_dir, monkeypatch)
        assert any(r.endswith("lib.php") for r in runs)  # recomputed
        keys = _finding_keys(report)
        # q() now sanitizes and $prefix is clean: the q()/prefix flows
        # are gone everywhere
        assert not any(k for k in keys if k[0] == "admin.php")
