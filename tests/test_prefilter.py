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
  targets) is memoized per content hash in the cache store's record
  namespace, in a file of the knowledge fingerprint, so arming a weapon
  (a new fingerprint)
  atomically invalidates the compiled matcher and every stored record,
  reclassifying files that mention the weapon's sinks.
"""

from __future__ import annotations

import json
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.includes import build_include_graph
from repro.analysis.options import ScanOptions
from repro.analysis.pipeline import (
    ResultCache,
    ScanScheduler,
    config_fingerprint,
)
from repro.analysis.model import (
    SINK_FUNCTION,
    SINK_METHOD,
    SINK_STATIC,
    DetectorConfig,
    SinkSpec,
)
from repro.analysis.prefilter import (
    _PSEUDO_SINK_LITERALS,
    _PSEUDO_SINK_WORDS,
    TIER_DEP_ONLY,
    TIER_IRRELEVANT,
    TIER_SINK_BEARING,
    FileRecord,
    KnowledgeMatcher,
    RelevancePrefilter,
    matcher_for,
)
from repro.cache import CacheStore
from repro.corpus import VULNERABLE_WEBAPPS, materialize_package
from repro.tool.sarif import report_to_sarif
from repro.tool.wap import Wape
from tree_variants import VARIANTS

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
# the word-set verdict against the alternation regexes it replaced
# ---------------------------------------------------------------------------

class RegexOracle:
    """The two alternation regexes the record pass used to search every
    file's bytes with: ``\\b(?:sink|...)\\b`` (case-insensitive) plus
    ``<?=`` and the backtick for sinks, and per-name ``\\bname\\b``
    for sources (superglobals exact, functions case-insensitive).
    :meth:`KnowledgeMatcher.verdict` must give their answers."""

    def __init__(self, groups) -> None:
        words, literals, entry_points, functions = set(), set(), set(), set()
        self.always_sink = False
        for group in groups:
            for cfg in getattr(group, "configs", group):
                for sink in cfg.sinks:
                    if sink.kind in (SINK_FUNCTION, SINK_METHOD,
                                     SINK_STATIC):
                        words.add(sink.name.lower())
                    elif sink.kind in _PSEUDO_SINK_WORDS \
                            or sink.kind in _PSEUDO_SINK_LITERALS:
                        words.update(_PSEUDO_SINK_WORDS.get(sink.kind, ()))
                        literals.update(
                            _PSEUDO_SINK_LITERALS.get(sink.kind, ()))
                    else:
                        self.always_sink = True
                entry_points.update(cfg.entry_points)
                functions.update(f.lower() for f in cfg.source_functions)
        sinks = [rb"\b(?:" + b"|".join(
            re.escape(w.encode()) for w in sorted(words)) + rb")\b"] \
            if words else []
        sinks.extend(re.escape(literal) for literal in sorted(literals))
        self.sink_re = re.compile(b"|".join(sinks), re.IGNORECASE) \
            if sinks else None
        sources = [rb"\b" + re.escape(n.encode()) + rb"\b"
                   for n in sorted(entry_points)]
        sources.extend(rb"(?i:\b" + re.escape(f.encode()) + rb"\b)"
                       for f in sorted(functions))
        self.source_re = re.compile(b"|".join(sources)) if sources else None

    def verdict(self, raw: bytes) -> tuple[bool, bool]:
        sink = self.always_sink or (
            self.sink_re is not None and self.sink_re.search(raw) is not None)
        source = (self.source_re is not None
                  and self.source_re.search(raw) is not None)
        return sink, source


def odd_catalog():
    """A catalog with names that are not plain ASCII words: an arrow,
    a ``$``, non-ASCII letters and a hyphen, next to plain ones."""
    cfg = DetectorConfig(
        class_id="zz", display_name="Z",
        entry_points=frozenset({"_GET", "_G\u00c9T"}),
        source_functions=frozenset({"read-input", "plain_source"}),
        sinks=(SinkSpec("wpdb->query", kind=SINK_METHOD),
               SinkSpec("$cb", kind=SINK_FUNCTION),
               SinkSpec("ex\u00e9c", kind=SINK_FUNCTION),
               SinkSpec("system", kind=SINK_FUNCTION)))

    class Group:
        configs = (cfg,)

    return [Group()]


@pytest.fixture(scope="module")
def matchers():
    """(word-set matcher, regex oracle) of the default catalogs, of
    every weapon armed, and of the odd catalog."""
    catalogs = (Wape()._config_groups(),
                Wape(weapon_flags=["-nosqli", "-hei",
                                   "-wpsqli"])._config_groups(),
                odd_catalog())
    return [(KnowledgeMatcher(groups), RegexOracle(groups))
            for groups in catalogs]


def tree_contents(root: str) -> list[bytes]:
    contents = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            with open(os.path.join(dirpath, name), "rb") as f:
                contents.append(f.read())
    return contents


def assert_oracle_verdicts(matchers, contents: list[bytes]) -> None:
    """Every content, and its CRLF, CR-only and invalid-UTF-8 variants,
    gets the oracle's verdict from every catalog's matcher."""
    assert contents
    for data in contents:
        for raw in (data, *(rewrite(data) for rewrite in VARIANTS.values())):
            for matcher, oracle in matchers:
                assert matcher.verdict(raw) == oracle.verdict(raw), raw


#: words the property test builds its bytes from: catalog names (cased
#: at random below) and the glue that sits next to them
_NAMES = sorted({b"mysql_query", b"echo", b"print", b"include_once",
                 b"require", b"system", b"header", b"query", b"_GET",
                 b"_POST", b"_get", b"$_GET", b"$_get", b"$_REQUEST",
                 b"file_get_contents", b"fgets", b"plain_source",
                 b"read-input", b"wpdb->query", b"$cb", b"ex\xc3\xa9c",
                 b"EX\xc3\x89C", b"_G\xc3\x89T", b"_g\xc3\xa9t"})
_GLUE = [b"", b"_", b"0", b"7", b"a", b"Z", b"$", b" ", b"\n", b"\r", b"(",
         b"->", b"::", b"-", b"\xc3\xa9", b"\xff", b"\x80", b"\xe2\x80\x8b",
         b"<?=", b"<?", b"?>", b"<?php ", b"`", b"'", b'"', b"//"]


def _cased(name: bytes):
    return st.lists(st.booleans(), min_size=len(name),
                    max_size=len(name)).map(lambda upper: b"".join(
                        name[i:i + 1].upper() if up else name[i:i + 1]
                        for i, up in enumerate(upper)))


_FRAGMENTS = st.one_of(st.sampled_from(_NAMES).flatmap(_cased),
                       st.sampled_from(_GLUE), st.binary(max_size=3))


class TestWordSetVerdict:
    """The word-set verdict equals the regex oracle's on every tree the
    scanner is measured on, on their line-ending and invalid-UTF-8
    variants, and on adversarial bytes."""

    def test_demo_app(self, matchers):
        assert_oracle_verdicts(matchers, tree_contents(DEMO_APP))

    def test_grammar_corpus(self, matchers):
        from test_php_grammar_corpus import TestRoundTripIdentity

        assert_oracle_verdicts(matchers, [
            source.encode() for source in TestRoundTripIdentity.CORPUS])

    @pytest.mark.slow
    def test_corpus(self, matchers, tmp_path):
        from repro.corpus import build_webapp_corpus, build_wordpress_corpus

        build_webapp_corpus(str(tmp_path))
        build_wordpress_corpus(str(tmp_path))
        contents = tree_contents(str(tmp_path))
        assert len(contents) == 2590
        assert_oracle_verdicts(matchers, contents)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_include_app(self, matchers, tmp_path, seed):
        from test_include_analysis import load_include_app

        load_include_app()(str(tmp_path), seed)
        assert_oracle_verdicts(matchers, tree_contents(str(tmp_path)))

    @given(st.lists(_FRAGMENTS, max_size=12).map(b"".join))
    @settings(max_examples=400, deadline=None)
    def test_adversarial_bytes(self, matchers, raw):
        for matcher, oracle in matchers:
            assert matcher.verdict(raw) == oracle.verdict(raw)

    @pytest.mark.parametrize("raw, verdict", [
        # names next to non-ASCII bytes, digits and ``_``
        (b"\xc3\xa9system($_GET[1]);", (True, True)),
        (b"system\xff($_GET\x80);", (True, True)),
        (b"system2($_GET1);", (False, False)),
        (b"_system($_GETx);", (False, False)),
        (b"system_($__GET);", (False, False)),
        (b"SyStEm($_get);", (True, False)),
        (b"<?= $_GET ?>", (False, True)),  # no echo sink in this catalog
        (b"`ls` . Plain_Source()", (False, True)),
        # the names that are not plain words keep a regex of their own
        (b"$wpdb->query($x);", (True, False)),
        (b"$wpdb->querying($x);", (False, False)),
        (b"$$cb();", (False, False)),  # ``\b$``: a word byte before ``$``
        (b"x$cb();", (True, False)),
        (b"EX\xc3\xa9C(1);", (True, False)),
        (b"ex\xc3\x89c(1);", (False, False)),  # a non-ASCII byte is exact
        (b"READ-INPUT();", (False, True)),
        (b"$_G\xc3\x89T;", (False, True)),
        (b"$_g\xc3\xa9t;", (False, False)),
    ])
    def test_a_catalog_of_names_that_are_not_plain_words(self, raw,
                                                          verdict):
        groups = odd_catalog()
        assert KnowledgeMatcher(groups).verdict(raw) == verdict
        assert RegexOracle(groups).verdict(raw) == verdict


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
        assert report.cache["result"].puts == 1  # hit.php only
        assert report.cache["result"].misses == 1


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
        # CRLF, CR-only and invalid UTF-8: a skipped page reports the
        # line count an analyzed one gets, and a kept one its finding
        "crlf.php": "<?php\r\n$d = 4;\r\necho 'crlf';\r\n",
        "cr.php": "<?php\r$e = 5;\recho 'cr';\r",
        "cr_sink.php": "<?php // a comment ends here\recho $_GET['r'];",
        "latin1.php": b"<?php\n// caf\xe9\n$f = 6;\necho 'latin1';\n",
        "latin1_sink.php": b"<?php /* caf\xe9 */ echo $_GET['l'];\n",
    }

    def test_reports_byte_identical_on_vs_off(self, tool, tmp_path):
        for name, source in self.CASES.items():
            (tmp_path / name).write_bytes(
                source if isinstance(source, bytes) else source.encode())
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
        cache = ResultCache(CacheStore(str(tmp_path), fp))
        prefilter = RelevancePrefilter(matcher_for(groups, fp),
                                       cache=cache)
        raw = b"<?php include 'lib.php'; echo $_GET['x'];"
        digest = ResultCache.content_hash(raw)
        record = FileRecord(True, True, (("lib.php",),), 1)
        assert prefilter.verdict(raw, digest) == record
        cache.flush()

        # a fresh process (fresh memo) must be served from the blob,
        # never re-running the matcher or the lexer
        reloaded = ResultCache(CacheStore(str(tmp_path), fp))
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
        cache = ResultCache(CacheStore(str(tmp_path), fp))
        raw = b"<?php echo $_GET['x'];"
        digest = ResultCache.content_hash(raw)
        cache.put_blob(digest, {"not": "a record"})
        prefilter = RelevancePrefilter(matcher_for(groups, fp),
                                       cache=cache)
        assert prefilter.verdict(raw, digest) == (True, True, (), 1)


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
        record = build_record(report, report.to_dict(), "run-x", "fp", 1,
                              0.5)
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
