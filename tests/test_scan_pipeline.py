"""The scan pipeline: engine fusion, parallel scheduler, result cache.

The contract under test (ISSUE 1): fusing every sub-module and weapon
into one engine, fanning files out over worker processes, and serving
unchanged files from the on-disk cache must never change *what* is
detected — only how fast.  Candidate sets are compared by
``CandidateVulnerability.key()`` throughout.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.pipeline import (
    CRASH_ERROR,
    ConfigGroup,
    FusedDetector,
    ResultCache,
    ScanScheduler,
    config_fingerprint,
    split_rfi_lfi,
)
from repro.corpus import VULNERABLE_WEBAPPS, materialize_package
from repro.corpus.wordpress import VULNERABLE_PLUGINS
from repro.php import parse
from repro.tool import Wap21, Wape
from repro.tool.cli import main as cli_main
from repro.analysis.options import ScanOptions


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def armed_wape():
    return Wape(weapon_flags=["-nosqli", "-hei", "-wpsqli"])


@pytest.fixture(scope="module")
def corpus_tree(tmp_path_factory):
    """A small mixed tree: two web apps + one WordPress plugin."""
    root = tmp_path_factory.mktemp("scan_corpus")
    for profile in VULNERABLE_WEBAPPS[:2]:
        materialize_package(profile, str(root))
    materialize_package(VULNERABLE_PLUGINS[0], str(root))
    return str(root)


def legacy_detect(tool, source: str, filename: str):
    """The pre-fusion path: one engine traversal per sub-module/weapon."""
    candidates = []
    program = parse(source, filename)
    for sub in tool.submodules.values():
        if sub.detector is None:
            continue
        candidates.extend(
            sub.refine(sub.detector.detect_program(program, filename)))
    for weapon in tool.weapons:
        candidates.extend(weapon.detector.detect_program(program, filename))
    seen: set[tuple] = set()
    unique = []
    for cand in candidates:
        if cand.key() not in seen:
            seen.add(cand.key())
            unique.append(cand)
    return unique


def keys_of(report):
    return sorted(o.candidate.key() for o in report.outcomes)


# ---------------------------------------------------------------------------
# engine fusion
# ---------------------------------------------------------------------------

class TestFusedDetector:
    def test_identical_to_per_submodule_path_on_corpus(
            self, armed_wape, corpus_tree):
        """Fusion must not change the candidate set, file by file."""
        paths = ScanScheduler.discover(corpus_tree)
        assert len(paths) > 10
        for path in paths:
            with open(path, encoding="utf-8", errors="replace") as f:
                source = f.read()
            fused = {c.key() for c in
                     armed_wape.fused_detector.detect_source(source, path)}
            legacy = {c.key() for c in
                      legacy_detect(armed_wape, source, path)}
            assert fused == legacy, path

    def test_identical_for_wap21(self, corpus_tree):
        tool = Wap21()
        for path in ScanScheduler.discover(corpus_tree):
            with open(path, encoding="utf-8", errors="replace") as f:
                source = f.read()
            fused = {c.key() for c in
                     tool.fused_detector.detect_source(source, path)}
            legacy = {c.key() for c in legacy_detect(tool, source, path)}
            assert fused == legacy, path

    def test_group_scoped_sources_do_not_leak(self):
        """A source function one group declares must not feed another
        group's sinks — exactly the per-submodule isolation."""
        from repro.analysis.model import DetectorConfig, SinkSpec

        a = DetectorConfig(class_id="aa", display_name="A",
                           entry_points=frozenset({"_GET"}),
                           source_functions=frozenset({"read_a"}),
                           sinks=(SinkSpec("sink_a"),))
        b = DetectorConfig(class_id="bb", display_name="B",
                           entry_points=frozenset({"_GET"}),
                           sinks=(SinkSpec("sink_b"),))
        fused = FusedDetector([ConfigGroup("ga", (a,)),
                               ConfigGroup("gb", (b,))])
        source = ("<?php $x = read_a();\n"
                  "sink_a($x);\n"
                  "sink_b($x);\n"
                  "sink_b($_GET['q']);\n")
        found = fused.detect_source(source, "t.php")
        by_class = {c.vuln_class for c in found}
        # read_a() reaches sink_a (group A) and the shared $_GET reaches
        # sink_b, but read_a() -> sink_b must NOT fire: group B never
        # declared that source.
        assert by_class == {"aa", "bb"}
        assert not any(c.vuln_class == "bb" and "read_a" in c.entry_point
                       for c in found)

    def test_rfi_lfi_split_preserved(self):
        """The RCE sub-module's shape refinement survives fusion."""
        tool = Wape()
        source = "<?php include('modules/' . $_GET['page'] . '.php');"
        found = tool.fused_detector.detect_source(source, "inc.php")
        assert any(c.vuln_class == "lfi" for c in found)
        assert not any(c.vuln_class == "rfi" for c in found)

    def test_split_rfi_lfi_noop_on_other_classes(self):
        tool = Wape()
        cands = tool.fused_detector.detect_source(
            "<?php mysql_query($_GET['q']);", "q.php")
        assert [split_rfi_lfi(c) for c in cands] == cands

    def test_empty_groups(self):
        assert FusedDetector([]).detect_source("<?php echo 1;") == []


# ---------------------------------------------------------------------------
# scheduler: parallelism, determinism, fault isolation
# ---------------------------------------------------------------------------

class TestScanScheduler:
    def test_parallel_equals_sequential(self, armed_wape, corpus_tree):
        seq = armed_wape.analyze_tree(corpus_tree, ScanOptions(jobs=1))
        par = armed_wape.analyze_tree(corpus_tree, ScanOptions(jobs=4))
        assert keys_of(seq) == keys_of(par)
        # deterministic ordering: same files in the same walk order
        assert [f.filename for f in seq.files] == \
               [f.filename for f in par.files]

    def test_syntax_error_file_does_not_stop_the_scan(
            self, armed_wape, tmp_path):
        (tmp_path / "good.php").write_text(
            "<?php mysql_query($_GET['q']);")
        # sink + source markers keep the broken file past the relevance
        # prefilter (a marker-free file would be skipped unparsed)
        (tmp_path / "broken.php").write_text("<?php echo $_GET if ( { {{")
        (tmp_path / "other.php").write_text(
            "<?php echo $_GET['x'];")
        for jobs in (1, 2):
            report = armed_wape.analyze_tree(str(tmp_path), ScanOptions(jobs=jobs))
            by_name = {os.path.basename(f.filename): f
                       for f in report.files}
            assert set(by_name) == {"good.php", "broken.php", "other.php"}
            assert by_name["broken.php"].parse_error
            assert by_name["good.php"].outcomes
            assert by_name["other.php"].outcomes

    @pytest.mark.slow
    def test_worker_crash_becomes_parse_error(
            self, armed_wape, tmp_path, monkeypatch):
        """A file that kills its worker is isolated and reported, and the
        rest of the tree still gets analyzed."""
        from repro.analysis import pipeline

        (tmp_path / "a.php").write_text("<?php mysql_query($_GET['q']);")
        (tmp_path / "kill.php").write_text("<?php /* CRASH-ME */ echo $_GET['k'];")
        (tmp_path / "z.php").write_text("<?php echo $_GET['x'];")
        monkeypatch.setenv(pipeline._CRASH_ENV, "CRASH-ME")
        report = armed_wape.analyze_tree(str(tmp_path), ScanOptions(jobs=2))
        by_name = {os.path.basename(f.filename): f for f in report.files}
        assert by_name["kill.php"].parse_error == CRASH_ERROR
        assert by_name["a.php"].outcomes
        assert by_name["z.php"].outcomes

    def test_discover_is_sorted_and_php_only(self, tmp_path):
        (tmp_path / "b").mkdir()
        (tmp_path / "a.php").write_text("<?php")
        (tmp_path / "b" / "c.PHP").write_text("<?php")
        (tmp_path / "notes.txt").write_text("no")
        found = ScanScheduler.discover(str(tmp_path))
        assert [os.path.basename(p) for p in found] == ["a.php", "c.PHP"]


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_warm_rescan_hits_for_every_file(self, armed_wape, corpus_tree,
                                             tmp_path):
        cache = str(tmp_path / "cache")
        cold = armed_wape.analyze_tree(corpus_tree, ScanOptions(jobs=1, cache_dir=cache))

        scheduler = ScanScheduler(armed_wape._config_groups(), tool_version=armed_wape.version, options=ScanOptions(jobs=1, cache_dir=cache))
        results = scheduler.scan_tree(corpus_tree)
        # every file the prefilter let through is a hit; skipped files
        # never enter (or probe) the cache in either run
        assert scheduler.prefilter_stats is not None
        assert scheduler.cache.hits == \
            scheduler.prefilter_stats.sink_bearing
        assert scheduler.cache.misses == 0

        warm = armed_wape.analyze_tree(corpus_tree, ScanOptions(jobs=1, cache_dir=cache))
        assert keys_of(cold) == keys_of(warm)

    def test_content_change_invalidates_only_that_file(
            self, armed_wape, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "one.php").write_text("<?php mysql_query($_GET['a']);")
        (tree / "two.php").write_text("<?php echo 'static';")
        cache = str(tmp_path / "cache")
        armed_wape.analyze_tree(str(tree), ScanOptions(jobs=1, cache_dir=cache))

        (tree / "two.php").write_text("<?php echo $_GET['b'];")
        scheduler = ScanScheduler(armed_wape._config_groups(), tool_version=armed_wape.version, options=ScanOptions(jobs=1, cache_dir=cache))
        results = scheduler.scan_tree(str(tree))
        assert scheduler.cache.hits == 1    # one.php unchanged
        assert scheduler.cache.misses == 1  # two.php re-analyzed
        two = next(r for r in results if r.filename.endswith("two.php"))
        assert two.candidates  # the edit is picked up, not served stale

    def test_renamed_file_hits_and_is_reattributed(self, armed_wape,
                                                   tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "old.php").write_text("<?php mysql_query($_GET['a']);")
        cache = str(tmp_path / "cache")
        armed_wape.analyze_tree(str(tree), ScanOptions(jobs=1, cache_dir=cache))

        (tree / "old.php").rename(tree / "new.php")
        scheduler = ScanScheduler(armed_wape._config_groups(), tool_version=armed_wape.version, options=ScanOptions(jobs=1, cache_dir=cache))
        results = scheduler.scan_tree(str(tree))
        assert scheduler.cache.hits == 1
        assert results[0].filename.endswith("new.php")
        assert all(c.filename.endswith("new.php")
                   for c in results[0].candidates)

    def test_sanitizer_config_invalidates(self, tmp_path):
        """Feeding an extra sanitizer (§V-A) must miss the old cache."""
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "app.php").write_text(
            "<?php mysql_query(escape($_GET['q']));")
        cache = str(tmp_path / "cache")

        plain = Wape()
        plain.analyze_tree(str(tree), ScanOptions(jobs=1, cache_dir=cache))
        hardened = Wape(extra_sanitizers={"sqli": {"escape"}})
        scheduler = ScanScheduler(hardened._config_groups(), tool_version=hardened.version, options=ScanOptions(jobs=1, cache_dir=cache))
        results = scheduler.scan_tree(str(tree))
        assert scheduler.cache.hits == 0
        assert scheduler.cache.misses == 1
        assert results[0].candidates == []  # escape() now sanitizes

    def test_armed_weapon_invalidates(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "app.php").write_text("<?php echo 1;")
        cache = str(tmp_path / "cache")
        Wape().analyze_tree(str(tree), ScanOptions(jobs=1, cache_dir=cache))

        armed = Wape(weapon_flags=["-nosqli"])
        scheduler = ScanScheduler(armed._config_groups(), tool_version=armed.version, options=ScanOptions(jobs=1, cache_dir=cache))
        scheduler.scan_tree(str(tree))
        assert scheduler.cache.hits == 0

    def test_fingerprint_sensitivity(self):
        wape = Wape()
        base = config_fingerprint(wape._config_groups(), "v1")
        assert base == config_fingerprint(wape._config_groups(), "v1")
        assert base != config_fingerprint(wape._config_groups(), "v2")
        assert base != config_fingerprint(
            Wape(weapon_flags=["-hei"])._config_groups(), "v1")
        assert base != config_fingerprint(
            Wape(extra_sanitizers={"sqli": {"esc"}})._config_groups(),
            "v1")

    def test_corrupt_entry_is_a_miss(self, armed_wape, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "a.php").write_text("<?php mysql_query($_GET['q']);")
        cache = str(tmp_path / "cache")
        first = armed_wape.analyze_tree(str(tree), ScanOptions(jobs=1, cache_dir=cache))

        # truncate every cache entry on disk
        for dirpath, _dirs, files in os.walk(cache):
            for name in files:
                with open(os.path.join(dirpath, name), "wb") as f:
                    f.write(b"\x80garbage")
        again = armed_wape.analyze_tree(str(tree), ScanOptions(jobs=1, cache_dir=cache))
        assert keys_of(first) == keys_of(again)

    def test_cache_roundtrip_unit(self, tmp_path):
        from repro.analysis.detector import FileResult

        cache = ResultCache(str(tmp_path), "f" * 64)
        digest = ResultCache.content_hash(b"<?php echo 1;")
        assert cache.get(digest, "x.php") is None
        cache.put(digest, FileResult(filename="x.php", lines_of_code=3))
        hit = cache.get(digest, "y.php")
        assert hit is not None
        assert hit.filename == "y.php"
        assert hit.lines_of_code == 3


# ---------------------------------------------------------------------------
# CLI + timing surface
# ---------------------------------------------------------------------------

class TestPipelineCli:
    @pytest.fixture()
    def tree(self, tmp_path):
        (tmp_path / "a.php").write_text("<?php mysql_query($_GET['q']);")
        (tmp_path / "b.php").write_text("<?php echo 'static';")
        return str(tmp_path)

    def test_jobs_and_cache_flags(self, tree, tmp_path, capsys):
        cache = str(tmp_path / "cli-cache")
        code = cli_main(["--jobs", "2", "--cache-dir", cache,
                         "--json", tree])
        assert code == 1  # vulnerability found
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["real_vulnerabilities"] >= 1
        assert os.path.isdir(cache)

        # warm run through the CLI: same verdicts, served from cache
        code = cli_main(["--jobs", "1", "--cache-dir", cache,
                         "--json", tree])
        warm = json.loads(capsys.readouterr().out)
        assert code == 1
        assert warm["summary"]["real_vulnerabilities"] == \
               data["summary"]["real_vulnerabilities"]

    def test_no_cache_flag(self, tree, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        code = cli_main(["--no-cache", "--jobs", "1", "--quiet", tree])
        assert code == 1
        assert not (tmp_path / "xdg").exists()

    def test_default_cache_respects_xdg(self, tree, capsys, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert cli_main(["--jobs", "1", "--quiet", tree]) == 1
        assert (tmp_path / "xdg" / "wape").is_dir()

    def test_per_file_seconds_are_real(self, armed_wape, tree):
        """No more elapsed/len(files) smearing: timings are per file and
        every analyzed file carries its own measurement."""
        report = armed_wape.analyze_tree(tree, ScanOptions(jobs=1))
        assert all(f.seconds >= 0 for f in report.files)
        assert report.total_seconds > 0
        payload = report.to_dict()
        assert all("seconds" in f for f in payload["files"])

    def test_project_mode_timing_not_smeared(self, armed_wape, tmp_path):
        (tmp_path / "lib.php").write_text(
            "<?php function go($q) { mysql_query($q); }")
        (tmp_path / "index.php").write_text("<?php go($_GET['q']);")
        report = armed_wape.analyze_tree(str(tmp_path),
                                         ScanOptions(project=True))
        assert report.total_seconds > 0
        # the parse-heavy files carry nonzero time; equality across all
        # files (the old elapsed/n bug) would be a coincidence
        timed = [f.seconds for f in report.files]
        assert any(t > 0 for t in timed)
