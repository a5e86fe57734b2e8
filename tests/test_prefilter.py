"""The knowledge-compiled relevance prefilter (ISSUE 10).

Two layers of guarantees under test:

* **Conservatism** — the prefilter may only skip files that provably
  cannot contain a finding.  Every adversarial spelling the engine can
  act on (mixed-case calls, markers inside otherwise-hostile syntax)
  must keep the file; spellings the engine provably cannot act on
  (concatenated sink names, variable functions, markers only inside
  comments/strings) may be skipped or kept, but the *findings* must be
  byte-identical to a ``--no-prefilter`` run either way.
* **Caching** — each content's record (byte verdicts + include
  targets) is memoized per content hash inside the result cache's
  knowledge-fingerprint pack, so arming a weapon (a new fingerprint)
  atomically invalidates the compiled matcher and every stored record,
  reclassifying files that mention the weapon's sinks.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.includes import build_include_graph
from repro.analysis.options import ScanOptions
from repro.analysis.pipeline import (
    ResultCache,
    ScanScheduler,
    config_fingerprint,
)
from repro.analysis.prefilter import (
    TIER_DEP_ONLY,
    TIER_IRRELEVANT,
    TIER_SINK_BEARING,
    FileRecord,
    KnowledgeMatcher,
    RelevancePrefilter,
    matcher_for,
)
from repro.corpus import VULNERABLE_WEBAPPS, materialize_package
from repro.tool.sarif import report_to_sarif
from repro.tool.wap import Wape

DEMO_APP = os.path.join(os.path.dirname(__file__), os.pardir,
                        "examples", "demo_app")


@pytest.fixture(scope="module")
def tool():
    return Wape()


@pytest.fixture(scope="module")
def matcher(tool):
    groups = tool._config_groups()
    return KnowledgeMatcher(groups)


def normalized(report) -> str:
    """The report dict as canonical JSON, timing fields dropped."""
    data = report.to_dict()
    data.pop("seconds", None)
    data.get("summary", {}).pop("seconds", None)
    for entry in data.get("files", []):
        entry.pop("seconds", None)
    return json.dumps(data, sort_keys=True)


def scan_both(tool, root: str):
    """The same tree scanned with the prefilter on and off (no cache:
    cache counters legitimately differ between the two runs)."""
    on = tool.analyze_tree(root, ScanOptions(jobs=1))
    off = tool.analyze_tree(root, ScanOptions(jobs=1, prefilter=False))
    return on, off


def assert_identical(on, off):
    assert normalized(on) == normalized(off)
    # and the identity layer downstream consumers read: SARIF
    assert report_to_sarif(json.loads(normalized(on))) == \
        report_to_sarif(json.loads(normalized(off)))


# ---------------------------------------------------------------------------
# matcher units
# ---------------------------------------------------------------------------

class TestKnowledgeMatcher:
    def test_sink_names_match_case_insensitively(self, matcher):
        assert matcher.verdict(b"<?php MySQL_Query($x);")[0] is True
        assert matcher.verdict(b"<?php mysql_query($x);")[0] is True

    def test_superglobals_match_case_sensitively(self, matcher):
        # PHP variables are case-sensitive: $_get is NOT a source
        assert matcher.verdict(b"<?php $x = $_GET['a'];")[1] is True
        assert matcher.verdict(b"<?php $x = $_get['a'];")[1] is False

    def test_pseudo_sinks_have_surface_spellings(self, matcher):
        for raw in (b"<?php echo $x;", b"<?php print $x;",
                    b"<?= $x ?>", b"<?php `ls $x`;",
                    b"<?php include $x;"):
            assert matcher.verdict(raw)[0] is True, raw

    def test_word_boundaries_prevent_substring_hits(self, matcher):
        # "echoes" is not "echo"; "mysql_query_log" is not "mysql_query"
        assert matcher.verdict(b"<?php $echoes = 1;")[0] is False
        assert matcher.verdict(b"<?php mysql_query_log($x);")[0] is False

    def test_unknown_sink_kind_disables_skipping(self):
        from repro.analysis.model import DetectorConfig, SinkSpec

        cfg = DetectorConfig(class_id="zz", display_name="Z",
                             entry_points=frozenset({"_GET"}),
                             sinks=(SinkSpec("weird", kind="SINK_EVAL"),))

        class Group:
            configs = (cfg,)

        unknown = KnowledgeMatcher([Group()])
        assert unknown.always_sink is True
        assert unknown.verdict(b"<?php nothing();")[0] is True

    def test_matcher_memoized_per_fingerprint(self, tool):
        groups = tool._config_groups()
        fp = config_fingerprint(groups, tool.version)
        assert matcher_for(groups, fp) is matcher_for(groups, fp)
        other = matcher_for(groups, "different-fingerprint")
        assert other is not matcher_for(groups, fp)


# ---------------------------------------------------------------------------
# tier classification
# ---------------------------------------------------------------------------

class TestTiers:
    def test_closure_rule_and_dep_only(self, tool, tmp_path):
        (tmp_path / "lib.php").write_text(
            "<?php function getq() { return $_GET['q']; } ?>")
        (tmp_path / "main.php").write_text(
            "<?php include 'lib.php'; echo getq(); ?>")
        (tmp_path / "plain.php").write_text("<?php $a = 1 + 1; ?>")
        paths = ScanScheduler.discover(str(tmp_path))
        graph = build_include_graph(paths)
        groups = tool._config_groups()
        fp = config_fingerprint(groups, tool.version)
        prefilter = RelevancePrefilter(matcher_for(groups, fp))
        records = {p: prefilter.verdict(open(p, "rb").read())
                   for p in paths}
        tiers = prefilter.classify(paths, graph, records)
        by_name = {os.path.basename(p): t for p, t in tiers.items()}
        # main.php: sink (echo/include) in itself, source via closure
        assert by_name["main.php"] == TIER_SINK_BEARING
        # lib.php: source but no sink of its own — summaries only
        assert by_name["lib.php"] == TIER_DEP_ONLY
        assert by_name["plain.php"] == TIER_IRRELEVANT

    def test_skipped_files_still_reported_with_loc(self, tool, tmp_path):
        (tmp_path / "skip.php").write_text("<?php\n$a = 1;\n$b = 2;\n")
        (tmp_path / "hit.php").write_text("<?php echo $_GET['x'];")
        report = tool.analyze_tree(str(tmp_path), ScanOptions(jobs=1))
        by_name = {os.path.basename(f.filename): f for f in report.files}
        skip = by_name["skip.php"]
        assert skip.outcomes == [] and skip.parse_error is None
        assert skip.lines_of_code == 4  # newline count + 1, unparsed
        assert report.prefilter is not None
        assert report.prefilter.skipped == 1
        assert report.prefilter.sink_bearing == 1

    def test_skipped_files_never_enter_the_result_cache(self, tool,
                                                        tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        (tree / "skip.php").write_text("<?php $a = 1;")
        (tree / "hit.php").write_text("<?php echo $_GET['x'];")
        cache_dir = str(tmp_path / "cache")
        report = tool.analyze_tree(
            str(tree), ScanOptions(jobs=1, cache_dir=cache_dir))
        assert report.cache.puts == 1  # hit.php only
        assert report.cache.misses == 1


# ---------------------------------------------------------------------------
# adversarial differentials: prefilter on vs off, byte-identical
# ---------------------------------------------------------------------------

class TestAdversarialDifferential:
    CASES = {
        # sink name assembled by concatenation: the engine lowers $f()
        # to CALL_FOLD and can never fire it — skipping is sound
        "concat.php": "<?php $f = 'mysql' . '_query'; $f($_GET['a']);",
        # sink name assembled by interpolation
        "interp.php": ("<?php $p = 'query'; $f = \"mysql_{$p}\"; "
                       "$f($_GET['b']);"),
        # variable function from attacker input
        "varfunc.php": "<?php $f = $_GET['f']; $f($_GET['x']);",
        # mixed-case call: PHP function names are case-insensitive,
        # the engine folds them, and so must the matcher
        "mixedcase.php": "<?php MySQL_Query($_GET['q']);",
        # sink names only inside a comment / a string literal: the
        # matcher conservatively keeps these (raw bytes cannot tell),
        # and the engine then finds nothing — identical either way
        "comment.php": "<?php // mysql_query($_GET['x'])\n$a = 1;",
        "string.php": "<?php $s = 'call mysql_query later'; $b = 2;",
        # nothing at all
        "empty.php": "<?php $c = 3;",
    }

    def test_reports_byte_identical_on_vs_off(self, tool, tmp_path):
        for name, source in self.CASES.items():
            (tmp_path / name).write_text(source)
        on, off = scan_both(tool, str(tmp_path))
        assert_identical(on, off)
        # the tree is engineered so at least something gets skipped
        assert on.prefilter.skipped > 0

    def test_uppercase_include_keyword_keeps_its_edge(self, tool,
                                                      tmp_path):
        # PHP keywords are case-insensitive: the include hint must be too
        (tmp_path / "lib.php").write_text(
            "<?php function show($x) { echo $x; }")
        (tmp_path / "page.php").write_text(
            '<?php REQUIRE_ONCE "lib.php"; show($_GET["q"]);')
        on, off = scan_both(tool, str(tmp_path))
        assert_identical(on, off)
        assert sum(f.resolved_includes for f in on.files) == 1
        assert len(on.outcomes) == 1  # the XSS through lib.php

    def test_mixed_case_sink_is_kept_and_found(self, tool, tmp_path):
        (tmp_path / "m.php").write_text(self.CASES["mixedcase.php"])
        on, off = scan_both(tool, str(tmp_path))
        assert_identical(on, off)
        assert len(on.outcomes) >= 1  # the finding survived the filter

    def test_demo_app_differential(self, tool):
        on, off = scan_both(tool, DEMO_APP)
        assert_identical(on, off)
        assert on.prefilter.skipped > 0

    @pytest.mark.slow
    def test_corpus_differential(self, tmp_path):
        """On/off byte-identity over the bundled vulnerable webapps,
        with every weapon armed (the widest matcher we can build)."""
        root = tmp_path / "corpus"
        root.mkdir()
        for profile in VULNERABLE_WEBAPPS[:2]:
            materialize_package(profile, str(root))
        armed = Wape(weapon_flags=["-nosqli", "-hei", "-wpsqli"])
        on, off = scan_both(armed, str(root))
        assert_identical(on, off)


# ---------------------------------------------------------------------------
# verdict caching + knowledge invalidation
# ---------------------------------------------------------------------------

class TestVerdictCache:
    def test_verdicts_persist_as_blobs_in_the_pack(self, tool, tmp_path):
        groups = tool._config_groups()
        fp = config_fingerprint(groups, tool.version)
        cache = ResultCache(str(tmp_path), fp)
        prefilter = RelevancePrefilter(matcher_for(groups, fp),
                                       cache=cache)
        raw = b"<?php include 'lib.php'; echo $_GET['x'];"
        digest = ResultCache.content_hash(raw)
        record = FileRecord(True, True, (("lib.php",),))
        assert prefilter.verdict(raw, digest) == record
        cache.flush()

        # a fresh process (fresh memo) must be served from the blob,
        # never re-running the matcher or the lexer
        reloaded = ResultCache(str(tmp_path), fp)
        served = RelevancePrefilter(object(), cache=reloaded)  # no matcher
        assert served.verdict(raw, digest) == record

    def test_arming_a_weapon_reclassifies(self, tmp_path):
        """The acceptance-criteria test: a file only a weapon's sinks
        make relevant is skipped when unarmed and found when armed,
        through the same cache directory."""
        tree = tmp_path / "tree"
        tree.mkdir()
        # header() is a sink only the -hei weapon declares; without it
        # there is no sink marker at all in the file
        (tree / "redirect.php").write_text(
            "<?php header('Location: ' . $_GET['to']);")
        cache_dir = str(tmp_path / "cache")

        plain = Wape()
        report = plain.analyze_tree(
            str(tree), ScanOptions(jobs=1, cache_dir=cache_dir))
        assert report.prefilter.skipped == 1
        assert report.outcomes == []

        armed = Wape(weapon_flags=["-hei"])
        report = armed.analyze_tree(
            str(tree), ScanOptions(jobs=1, cache_dir=cache_dir))
        assert report.prefilter.skipped == 0
        assert report.prefilter.sink_bearing == 1
        assert any(o.candidate.vuln_class == "hi"  # header injection
                   for o in report.outcomes)

    def test_warm_scanner_drops_records_when_knowledge_changes(
            self, tmp_path):
        """A content first seen unarmed must be reclassified after a
        weapon is armed on the live tool, even when the warm scanner
        meets it again only after the cold re-scan that arming forces."""
        from repro.api import Scanner

        header = "<?php header('Location: ' . $_GET['to']);"
        page = tmp_path / "redirect.php"
        page.write_text(header)
        tool = Wape()
        scanner = Scanner(tool, ScanOptions(jobs=1))
        assert scanner.scan(str(tmp_path)).report.outcomes == []
        page.write_text("<?php $x = 1;")
        scanner.scan(str(tmp_path))
        tool.arm(tool.weapon_registry.by_flag("-hei"))
        scanner.scan(str(tmp_path))  # new fingerprint: a cold scan
        page.write_text(header)
        result = scanner.scan(str(tmp_path))
        assert result.incremental
        assert [o.candidate.vuln_class for o in result.report.outcomes] \
            == ["hi"]

    def test_stale_blob_shapes_are_ignored(self, tool, tmp_path):
        groups = tool._config_groups()
        fp = config_fingerprint(groups, tool.version)
        cache = ResultCache(str(tmp_path), fp)
        raw = b"<?php echo $_GET['x'];"
        digest = ResultCache.content_hash(raw)
        cache.put_blob("record-" + digest, {"not": "a record"})
        prefilter = RelevancePrefilter(matcher_for(groups, fp),
                                       cache=cache)
        assert prefilter.verdict(raw, digest) == (True, True, ())


# ---------------------------------------------------------------------------
# surfacing: --stats footer, ledger, scanner totals
# ---------------------------------------------------------------------------

class TestSurfacing:
    def test_stats_footer_mentions_prefilter(self, tool, tmp_path):
        (tmp_path / "skip.php").write_text("<?php $a = 1;")
        (tmp_path / "hit.php").write_text("<?php echo $_GET['x'];")
        report = tool.analyze_tree(str(tmp_path), ScanOptions(jobs=1))
        footer = report.render_stats()
        assert "prefilter" in footer
        assert "1 skipped" in footer

    def test_ledger_record_and_history_carry_skip_rate(self, tool,
                                                       tmp_path):
        from repro.obs.ledger import build_record, render_history

        (tmp_path / "skip.php").write_text("<?php $a = 1;")
        (tmp_path / "hit.php").write_text("<?php echo $_GET['x'];")
        report = tool.analyze_tree(str(tmp_path), ScanOptions(jobs=1))
        record = build_record(report, "run-x", "fp", 1, 0.5)
        assert record["prefilter"]["skipped"] == 1
        assert record["prefilter"]["skip_rate"] == 0.5
        table = render_history([record])
        assert "skip%" in table and "50%" in table

    def test_skip_rate_collapse_trips_the_gate(self):
        from repro.obs.ledger import detect_regressions

        def rec(skip_rate):
            return {"run_id": "r", "target": "t", "fingerprint": "f",
                    "jobs": 1, "mode": "batch", "seconds": 1.0,
                    "phases": {}, "caches": {},
                    "prefilter": {"skipped": 5, "dep_only": 0,
                                  "sink_bearing": 5,
                                  "skip_rate": skip_rate}}

        records = [rec(0.6), rec(0.6), rec(0.05)]
        flagged = detect_regressions(records)
        assert any(r.metric == "prefilter:skip_rate" for r in flagged)

    def test_scanner_accumulates_totals_for_status(self, tool, tmp_path):
        from repro.api import Scanner

        (tmp_path / "skip.php").write_text("<?php $a = 1;")
        (tmp_path / "hit.php").write_text("<?php echo $_GET['x'];")
        scanner = Scanner(tool, ScanOptions(jobs=1))
        scanner.scan(str(tmp_path))  # cold
        scanner.scan(str(tmp_path))  # warm
        info = scanner.prefilter_info()
        assert info["skipped"] == 2  # one per scan
        assert info["sink_bearing"] == 2
        assert info["skip_rate"] == 0.5

    def test_no_prefilter_cli_flag(self, tool, tmp_path, capsys):
        from repro.tool.cli import main as cli_main

        (tmp_path / "skip.php").write_text("<?php $a = 1;")
        app = str(tmp_path)
        assert cli_main(["--json", "--no-prefilter", app]) == 0
        data = json.loads(capsys.readouterr().out)
        # off: the marker-free file is parsed (and clean) all the same
        assert data["summary"]["files"] == 1

    def test_jobs_auto_parses(self):
        from repro.tool.cli import parse_jobs

        assert parse_jobs("auto") == "auto"
        assert parse_jobs("4") == 4
        with pytest.raises(Exception):
            parse_jobs("many")
