"""The embedding API: warm incremental scans, options shims, cache moves."""

import os
import shutil
import warnings

import pytest

from repro.analysis.options import ScanOptions
from repro.analysis.pipeline import ScanScheduler
from repro.api import Scanner
from repro.tool.wap import Wape

DEMO_APP = os.path.join(os.path.dirname(__file__), os.pardir,
                        "examples", "demo_app")


@pytest.fixture(scope="module")
def tool():
    return Wape()


@pytest.fixture()
def app(tmp_path):
    """A throwaway copy of the demo app (tests edit it)."""
    root = tmp_path / "demo_app"
    shutil.copytree(DEMO_APP, root)
    return str(root)


def finding_keys(report):
    """Comparable identity of every finding (file relative to target)."""
    out = set()
    for file_report in report.files:
        rel = os.path.relpath(file_report.filename, report.target)
        for outcome in file_report.outcomes:
            cand = outcome.candidate
            out.add((rel, cand.vuln_class, cand.sink_line,
                     cand.entry_line, cand.entry_point, outcome.is_real))
    return out


class TestScannerWarmPath:
    def test_cold_then_noop_rescan(self, tool, app):
        scanner = Scanner(tool, ScanOptions(jobs=1))
        first = scanner.scan(app)
        assert not first.incremental
        paths = ScanScheduler.discover(app)
        prefilter = first.report.prefilter
        assert prefilter is not None
        not_run = prefilter.skipped + prefilter.dep_only
        assert first.analyzed_files == len(paths) - not_run
        again = scanner.scan(app)
        assert again.incremental
        assert again.analyzed_files == 0
        assert again.reused_files == len(paths)
        assert finding_keys(again.report) == finding_keys(first.report)

    def test_edit_reanalyzes_only_the_include_closure(self, tool, app):
        scanner = Scanner(tool, ScanOptions(jobs=1))
        scanner.scan(app)
        # feed.php requires includes/input.php: editing the dependency
        # must re-analyze exactly the two of them
        dep = os.path.join(app, "includes", "input.php")
        with open(dep, "a", encoding="utf-8") as f:
            f.write("\n<?php // touched ?>\n")
        result = scanner.scan(app)
        assert result.incremental
        assert set(result.dirty) == {os.path.join("includes", "input.php"),
                                     "feed.php"}
        assert result.reused_files == len(
            ScanScheduler.discover(app)) - 2

    def test_warm_report_matches_batch_scan(self, tool, app):
        """Oracle: warm incremental findings == a fresh batch scan's."""
        scanner = Scanner(tool, ScanOptions(jobs=1))
        scanner.scan(app)
        target = os.path.join(app, "contact.php")
        with open(target, "a", encoding="utf-8") as f:
            f.write("\n<?php system($_GET['cmd_oracle']); ?>\n")
        warm = scanner.scan(app)
        batch = tool.analyze_tree(app, ScanOptions(jobs=1))
        assert finding_keys(warm.report) == finding_keys(batch)
        assert any("cmd_oracle" in str(key[4])
                   for key in finding_keys(warm.report))

    def test_findings_diff_tracks_edit_and_revert(self, tool, app):
        scanner = Scanner(tool, ScanOptions(jobs=1))
        base = finding_keys(scanner.scan(app).report)
        target = os.path.join(app, "contact.php")
        with open(target, encoding="utf-8") as f:
            original = f.read()
        with open(target, "a", encoding="utf-8") as f:
            f.write("\n<?php echo $_GET['diff_probe']; ?>\n")
        edited = finding_keys(scanner.scan(app).report)
        added = edited - base
        assert base - edited == set()
        assert {(key[0], key[1]) for key in added} == \
            {("contact.php", "xss")}
        with open(target, "w", encoding="utf-8") as f:
            f.write(original)
        assert finding_keys(scanner.scan(app).report) == base

    def test_added_and_removed_files(self, tool, app):
        scanner = Scanner(tool, ScanOptions(jobs=1))
        base = finding_keys(scanner.scan(app).report)
        extra = os.path.join(app, "extra.php")
        with open(extra, "w", encoding="utf-8") as f:
            f.write("<?php echo $_GET['added_file']; ?>\n")
        grown = scanner.scan(app)
        assert "extra.php" in grown.dirty
        assert any(key[0] == "extra.php"
                   for key in finding_keys(grown.report))
        os.unlink(extra)
        shrunk = scanner.scan(app)
        assert finding_keys(shrunk.report) == base

    def test_forget_forces_cold_scan(self, tool, app):
        scanner = Scanner(tool, ScanOptions(jobs=1))
        scanner.scan(app)
        assert scanner.roots() == [os.path.abspath(app)]
        scanner.forget(app)
        assert scanner.roots() == []
        assert not scanner.scan(app).incremental

    def test_result_dict_carries_service_block(self, tool, app):
        scanner = Scanner(tool, ScanOptions(jobs=1))
        scanner.scan(app)
        data = scanner.scan(app).to_dict()
        assert data["schema_version"] >= 2
        assert data["service"]["incremental"] is True
        assert data["service"]["analyzed_files"] == 0

    def test_warm_scan_uses_shared_result_cache(self, tool, app,
                                                tmp_path):
        cache_dir = str(tmp_path / "cache")
        scanner = Scanner(tool, ScanOptions(jobs=1, cache_dir=cache_dir))
        scanner.scan(app)
        # a second scanner (fresh process in real life) hits the same
        # cache entries the first one put
        other = Scanner(tool, ScanOptions(jobs=1, cache_dir=cache_dir))
        result = other.scan(app)
        assert result.report.cache is not None
        assert result.report.cache["result"].hits == result.reused_files
        assert result.analyzed_files == 0


class TestCacheRelocation:
    """Satellite fix: cached results must survive a moved checkout."""

    def test_moved_root_still_hits_and_reports_new_paths(self, tool,
                                                         tmp_path):
        cache_dir = str(tmp_path / "cache")
        options = ScanOptions(jobs=1, cache_dir=cache_dir)
        root_a = tmp_path / "checkout_a" / "demo_app"
        shutil.copytree(DEMO_APP, root_a)
        first = tool.analyze_tree(str(root_a), options)
        assert first.cache["result"].puts > 0

        root_b = tmp_path / "checkout_b" / "demo_app"
        root_b.parent.mkdir()
        shutil.move(str(root_a), str(root_b))
        second = tool.analyze_tree(str(root_b), options)
        # every per-file entry hits despite the new absolute paths...
        assert second.cache["result"].hits == first.cache["result"].misses
        assert second.cache["result"].misses == 0
        # ...and nothing in the served report mentions the old location
        for file_report in second.files:
            assert str(root_b) in file_report.filename
            for outcome in file_report.outcomes:
                for step in outcome.candidate.path:
                    if step.file:
                        assert str(root_a) not in step.file
        assert finding_keys(first) != set()  # the app is vulnerable
        assert {key[1:] for key in finding_keys(first)} == \
            {key[1:] for key in finding_keys(second)}


class TestOptionsPath:
    """The PR-4 legacy kwarg shims are gone: options objects only."""

    def test_legacy_kwargs_are_a_type_error(self, tool, app):
        with pytest.raises(TypeError):
            tool.analyze_tree(app, jobs=1, cache_dir=None)

    def test_scheduler_legacy_kwargs_are_a_type_error(self):
        with pytest.raises(TypeError):
            ScanScheduler((), jobs=1)

    def test_options_path_is_silent(self, tool, app):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            tool.analyze_tree(app, ScanOptions(jobs=1))

    def test_jobs_auto_resolves_to_cpu_count(self):
        assert ScanOptions(jobs="auto").resolved_jobs() == \
            (os.cpu_count() or 1)
        assert ScanOptions(jobs=3).resolved_jobs() == 3


class TestApiIsolation:
    def test_api_import_does_not_pull_in_the_http_server(self):
        import subprocess
        import sys
        code = ("import sys; import repro.api; "
                "bad = [m for m in sys.modules "
                "if m.startswith('repro.service') "
                "or m == 'http.server']; "
                "sys.exit(1 if bad else 0)")
        proc = subprocess.run([sys.executable, "-c", code])
        assert proc.returncode == 0


class TestWarmStateThreadSafety:
    def test_observers_never_see_torn_state_during_scans(self, tool,
                                                         tmp_path):
        """Regression: ``roots()``/``root_info()`` from observer threads
        raced the scan thread's ``_states`` mutations — transient
        ``RuntimeError: dictionary changed size during iteration`` and
        pickles of half-updated snapshots.  Warm state is now published
        whole under a lock; a hammer of concurrent reads must survive a
        stream of scans untouched."""
        import threading

        roots = []
        for i in range(12):
            root = tmp_path / f"proj{i}"
            root.mkdir()
            (root / "index.php").write_text(
                f"<?php echo $_GET['p{i}']; ?>\n")
            roots.append(str(root))

        scanner = Scanner(tool, ScanOptions(jobs=1))
        failures = []
        done = threading.Event()

        def hammer():
            while not done.is_set():
                try:
                    for root in scanner.roots():
                        info = scanner.root_info(root)
                        assert info["root"] == root
                        if info["warm"]:
                            assert info["files"] >= 0
                except Exception as exc:  # pragma: no cover - regression
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for root in roots:
                scanner.scan(root)
            for root in roots:  # warm republish path too
                scanner.scan(root)
        finally:
            done.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not failures, failures[0]


class TestRootInfo:
    def test_approx_bytes_counts_the_kept_reports(self, tool, app):
        """``approx_bytes``, which the daemon's memory budget evicts by,
        covers the file reports a warm root keeps, fingerprints too."""
        scanner = Scanner(tool, ScanOptions(jobs=1))
        scanner.scan(app)
        with open(os.path.join(app, "profile.php"), "a",
                  encoding="utf-8") as f:
            f.write("\n<?php echo $_GET['sized']; ?>\n")
        warm = scanner.scan(app)
        assert warm.incremental
        warm.to_dict()  # stamps the reports' fingerprint memos
        full = scanner.root_info(app)["approx_bytes"]
        state = scanner._states[os.path.abspath(app)].scan
        fingerprints = [fp for report in state.reports.values()
                        for fp in report.fingerprints]
        assert fingerprints
        state.reports = {}
        bare = scanner.root_info(app)["approx_bytes"]
        assert full - bare >= sum(len(fp) for fp in fingerprints)

    def test_approx_bytes_counts_the_content_hashes(self, tool, app):
        """The content hashes live in the scan state, not the stat
        snapshot, and the memory budget still counts them."""
        scanner = Scanner(tool, ScanOptions(jobs=1))
        scanner.scan(app)
        full = scanner.root_info(app)["approx_bytes"]
        state = scanner._states[os.path.abspath(app)].scan
        digests = {id(digest): digest for digest in state.hashes.values()}
        assert digests
        state.hashes = {}
        bare = scanner.root_info(app)["approx_bytes"]
        assert full - bare >= sum(len(d) for d in digests.values())

    def test_approx_bytes_counts_the_encoded_entries(self, tool, app):
        """The report entries a daemon request encodes stay on the kept
        file reports, so the memory budget counts them too."""
        scanner = Scanner(tool, ScanOptions(jobs=1))
        scanner.scan(app).report.encoded_files()
        full = scanner.root_info(app)["approx_bytes"]
        reports = scanner._states[os.path.abspath(app)].scan.reports
        entries = [r.entry for r in reports.values() if r.entry is not None]
        assert entries
        for report in reports.values():
            report.entry = report.entry_key = None
        bare = scanner.root_info(app)["approx_bytes"]
        assert full - bare >= sum(len(entry) for entry in entries)


class TestStreamingHook:
    def test_on_file_fires_per_file_in_report_order(self, tool, app):
        scanner = Scanner(tool, ScanOptions(jobs=1))
        seen_cold = []
        scanner.on_file = lambda fr: seen_cold.append(fr.filename)
        cold = scanner.scan(app)
        assert seen_cold == [f.filename for f in cold.report.files]

        with open(os.path.join(app, "profile.php"), "a",
                  encoding="utf-8") as f:
            f.write("\n<?php echo $_GET['hook_probe']; ?>\n")
        seen_warm = []
        scanner.on_file = lambda fr: seen_warm.append(fr.filename)
        warm = scanner.scan(app)
        assert warm.incremental is True
        assert seen_warm == [f.filename for f in warm.report.files]
