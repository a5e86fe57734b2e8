"""The content-hash-keyed compositional summary cache and its pack tier.

Covers, bottom-up:

* :class:`repro.php.ast_store.PackFile` — the buffered single-file pack
  both cache tiers (and ``ResultCache``) write through;
* AST cache format negotiation — a stale pre-format-2 entry (3-tuple
  payload) is evicted cleanly, never unpickle-crashed into a scan;
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
    STEP_ASSIGN,
    STEP_CALL,
    FunctionSummary,
    PathStep,
    Taint,
)
from repro.analysis.options import ScanOptions
from repro.analysis.summaries import SUMMARY_FORMAT, SummaryCache
from repro.php.ast_store import AST_FORMAT, AstCache, AstStore, PackFile

FP = "f" * 64


# ---------------------------------------------------------------------------
# PackFile
# ---------------------------------------------------------------------------

class TestPackFile:
    def test_puts_are_buffered_until_flush(self, tmp_path):
        path = str(tmp_path / "pack.pkl")
        pack = PackFile(path)
        pack.put("k", b"v")
        assert pack.get("k") == b"v"        # visible in-process...
        assert not os.path.exists(path)     # ...but nothing on disk yet
        pack.flush()
        assert PackFile(path).get("k") == b"v"

    def test_flush_merges_with_a_concurrent_flush(self, tmp_path):
        # two workers over the same pack: each must keep the other's keys
        path = str(tmp_path / "pack.pkl")
        a, b = PackFile(path), PackFile(path)
        a.put("from-a", b"1")
        b.put("from-b", b"2")
        a.flush()
        b.flush()  # re-reads the disk pack a just wrote, then merges
        survivor = PackFile(path)
        assert survivor.get("from-a") == b"1"
        assert survivor.get("from-b") == b"2"

    def test_corrupt_pack_is_flagged_and_removed(self, tmp_path):
        path = str(tmp_path / "pack.pkl")
        with open(path, "wb") as f:
            f.write(b"not a pickle")
        pack = PackFile(path)
        assert pack.get("anything") is None
        assert pack.corrupt
        assert not os.path.exists(path)     # fresh start for the rewrite

    def test_non_dict_pack_counts_as_corrupt(self, tmp_path):
        path = str(tmp_path / "pack.pkl")
        with open(path, "wb") as f:
            pickle.dump(["not", "a", "dict"], f)
        pack = PackFile(path)
        assert pack.get("anything") is None
        assert pack.corrupt

    def test_discard_drops_pending_and_loaded(self, tmp_path):
        path = str(tmp_path / "pack.pkl")
        first = PackFile(path)
        first.put("old", b"1")
        first.flush()
        second = PackFile(path)
        second.put("new", b"2")
        second.discard("old")
        second.discard("new")
        assert second.get("old") is None
        assert second.get("new") is None
        second.flush()
        # the eviction persists: "old" must not be resurrected by the
        # disk merge — a corrupt/stale entry is paid for exactly once
        survivor = PackFile(path)
        assert survivor.get("old") is None
        assert survivor.get("new") is None

    def test_put_after_discard_wins(self, tmp_path):
        path = str(tmp_path / "pack.pkl")
        pack = PackFile(path)
        pack.discard("k")
        pack.put("k", b"fresh")
        pack.flush()
        assert PackFile(path).get("k") == b"fresh"


# ---------------------------------------------------------------------------
# AST cache format negotiation
# ---------------------------------------------------------------------------

class TestAstFormatNegotiation:
    """Stale pre-format-2 entries must be evicted, never served."""

    STALE = ("fake-program", (), None)  # 3-tuple: the format-1 layout

    def test_stale_pack_blob_is_evicted(self, tmp_path):
        cache = AstCache(str(tmp_path))
        key = AstStore.source_key("<?php echo 1;\n")
        cache.pack.put(key, pickle.dumps(self.STALE))
        cache.flush()
        fresh = AstCache(str(tmp_path))
        assert fresh.get(key) is None
        assert fresh.evictions == 1
        assert fresh.get(key) is None   # stays gone after the discard

    def test_store_reparses_over_a_stale_entry(self, tmp_path):
        source = "<?php $q = $_GET['q']; echo $q;\n"
        key = AstStore.source_key(source)
        cache = AstCache(str(tmp_path))
        cache.pack.put(key, pickle.dumps(self.STALE))
        cache.flush()

        store = AstStore(disk=AstCache(str(tmp_path)))
        program, warnings = store.parse_recovering(source, "a.php")
        assert store.parses == 1 and store.disk_hits == 0
        assert program is not None and warnings == []
        assert store.module_for(key) is not None  # re-lowered too
        store.flush()
        warm = AstStore(disk=AstCache(str(tmp_path)))
        warm.parse_recovering(source, "b.php")
        assert warm.parses == 0 and warm.disk_hits == 1

    def test_directory_is_format_versioned(self, tmp_path):
        assert AstCache(str(tmp_path)).directory.endswith(
            f"ast-v{AST_FORMAT}")
        cache = SummaryCache(str(tmp_path), FP)
        assert cache.directory.endswith(f"ast-v{AST_FORMAT}")
        assert cache.pack.path.endswith("sum-pack.pkl")


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
        cache = SummaryCache(str(tmp_path / "cache"), FP)
        cache.put("k", filename, env, summaries)
        cache.flush()

        warm = SummaryCache(str(tmp_path / "cache"), FP)
        got = warm.get("k", filename)
        assert got is not None and warm.hits == 1
        got_env, got_summaries = got
        assert got_env == env
        assert got_summaries["q"] == summaries["q"]

    def test_entries_rebase_onto_a_moved_root(self, tmp_path):
        # the survives-a-moved-checkout property ResultCache pioneered
        old = str(tmp_path / "old")
        new = str(tmp_path / "new")
        env, summaries = _state(old)
        cache = SummaryCache(str(tmp_path / "cache"), FP)
        cache.put("k", os.path.join(old, "lib", "index.php"),
                  env, summaries)
        cache.flush()

        warm = SummaryCache(str(tmp_path / "cache"), FP)
        got_env, got_summaries = warm.get(
            "k", os.path.join(new, "lib", "index.php"))
        moved_env, moved_summaries = _state(new)
        assert got_env == moved_env
        assert got_summaries["q"] == moved_summaries["q"]
        expected = os.path.join(new, "lib", "dep.php")
        assert got_summaries["q"].filename == expected

    def test_miss_and_corrupt_eviction(self, tmp_path):
        cache = SummaryCache(str(tmp_path), FP)
        assert cache.get("absent", "/p/x.php") is None
        assert cache.misses == 1
        cache.pack.put("bad", b"not a pickle")
        cache.flush()
        warm = SummaryCache(str(tmp_path), FP)
        assert warm.get("bad", "/p/x.php") is None
        assert warm.misses == 1 and warm.evictions == 1
        assert warm.get("bad", "/p/x.php") is None  # discarded

    def test_unpicklable_state_is_skipped_not_fatal(self, tmp_path):
        cache = SummaryCache(str(tmp_path), FP)
        env = {"g": frozenset()}
        # a lambda as the taint source survives the path mapping (its
        # path is empty) but defeats pickle -> the put is dropped whole
        cache.put("k", "/p/x.php", env,
                  {"q": FunctionSummary(
                      name="q",
                      returned_sources=[Taint(lambda: None, 1)])})
        assert cache.puts == 0
        cache.flush()
        assert cache.get("k", "/p/x.php") is None

    def test_shares_the_ast_tier_directory(self, tmp_path):
        ast = AstCache(str(tmp_path))
        summaries = SummaryCache(str(tmp_path), FP)
        assert os.path.dirname(summaries.pack.path) == ast.directory


class TestStateKeyInvalidation:
    """The digest covers content + closure + knowledge fingerprint."""

    def test_content_edit_changes_the_key(self, tmp_path):
        cache = SummaryCache(str(tmp_path), FP)
        closure = [("lib.php", "d" * 64)]
        assert cache.state_key("a" * 64, closure) != \
            cache.state_key("b" * 64, closure)

    def test_dependency_edit_changes_the_key(self, tmp_path):
        cache = SummaryCache(str(tmp_path), FP)
        own = "a" * 64
        assert cache.state_key(own, [("lib.php", "d" * 64)]) != \
            cache.state_key(own, [("lib.php", "e" * 64)])
        # a renamed dependency invalidates too (relative path is keyed)
        assert cache.state_key(own, [("lib.php", "d" * 64)]) != \
            cache.state_key(own, [("other.php", "d" * 64)])

    def test_fingerprint_changes_the_key(self, tmp_path):
        own, closure = "a" * 64, [("lib.php", "d" * 64)]
        one = SummaryCache(str(tmp_path / "1"), "1" * 64)
        two = SummaryCache(str(tmp_path / "2"), "2" * 64)
        assert one.state_key(own, closure) != two.state_key(own, closure)

    def test_closure_order_is_significant(self, tmp_path):
        # closure order is deterministic (include order); a reordering
        # means a different composition, so it must not collide
        cache = SummaryCache(str(tmp_path), FP)
        a, b = ("a.php", "1" * 64), ("b.php", "2" * 64)
        assert cache.state_key("c" * 64, [a, b]) != \
            cache.state_key("c" * 64, [b, a])

    def test_format_constant_is_in_the_digest(self, tmp_path):
        cache = SummaryCache(str(tmp_path), FP)
        key = cache.state_key("a" * 64, [])
        assert key != cache.fingerprint
        assert SUMMARY_FORMAT >= 1


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
        pack = os.path.join(cache_dir, f"ast-v{AST_FORMAT}",
                            "sum-pack.pkl")
        assert os.path.exists(pack)

        # wipe the result cache but keep the ast-v<N>/ tier: next scan
        # recomputes every file yet replays dependency state from disk
        for name in os.listdir(cache_dir):
            if not name.startswith("ast-v"):
                import shutil
                shutil.rmtree(os.path.join(cache_dir, name))
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
