"""Failure injection: the tool must degrade gracefully, never crash.

Real-world corpora contain broken, hostile and weird files; §V analyzed
8,000+ files in one run, so a single bad file must never abort a run.
"""

import os

import pytest

from repro.analysis import ConfigGroup, Detector, FusedDetector
from repro.analysis.options import ScanOptions
from repro.analysis.pipeline import ScanScheduler
from repro.tool import Wape
from repro.vulnerabilities.catalog import sqli_info

SQLI = [ConfigGroup("sqli", (sqli_info().config,))]


@pytest.fixture(scope="module")
def detector():
    return Detector([sqli_info().config])


@pytest.fixture(scope="module")
def fused():
    """The pipeline's per-file entry point (what every scan runs)."""
    return FusedDetector(SQLI)


@pytest.fixture()
def scheduler():
    """The one tree walker; the prefilter is off so token-free broken
    files are parsed and surface their diagnostics."""
    return ScanScheduler(SQLI, options=ScanOptions(jobs=1,
                                                   prefilter=False))


class TestMalformedInputs:
    @pytest.mark.parametrize("source", [
        "<?php $x = ;",                      # syntax error
        "<?php function f( {",               # unterminated decl
        "<?php class {",                     # missing name
        "<?php 'unterminated",               # bad string
        "<?php /* unterminated comment",
        "\x00\x01\x02 binary garbage",
        "<?php \xef\xbb\xbf $x = 1;",        # BOM-ish noise
        "",                                  # empty
        "<?php",                             # open tag only
        "just plain text, no php",
    ])
    def test_detect_file_never_raises(self, tmp_path, fused, source):
        path = tmp_path / "weird.php"
        path.write_bytes(source.encode("utf-8", errors="ignore"))
        result = fused.detect_file(str(path))
        assert result.filename == str(path)
        # either a parse error was captured or candidates were computed
        assert result.parse_error is not None or \
            isinstance(result.candidates, list)

    def test_missing_file_captured(self, fused):
        result = fused.detect_file("/nonexistent/nope.php")
        assert result.parse_error

    def test_directory_as_file_captured(self, fused, tmp_path):
        result = fused.detect_file(str(tmp_path))
        assert result.parse_error

    def test_invalid_utf8_is_replaced(self, tmp_path, fused):
        path = tmp_path / "latin.php"
        path.write_bytes(b"<?php $x = 'caf\xe9'; mysql_query($_GET['q']);")
        result = fused.detect_file(str(path))
        assert result.parse_error is None
        assert len(result.candidates) == 1


class TestTreeResilience:
    def test_bad_files_do_not_poison_the_tree(self, tmp_path, scheduler):
        (tmp_path / "broken.php").write_text("<?php $x = ;")
        (tmp_path / "binary.php").write_bytes(bytes(range(256)))
        (tmp_path / "good.php").write_text(
            "<?php mysql_query($_GET['q']);")
        results = scheduler.scan_tree(str(tmp_path))
        assert len(results) == 3
        good = [r for r in results if r.filename.endswith("good.php")]
        assert len(good[0].candidates) == 1
        broken = [r for r in results if r.parse_error]
        assert len(broken) >= 1

    def test_wape_tree_counts_errors(self, tmp_path):
        # the broken file mentions a sink and a source marker so the
        # relevance prefilter keeps it (skipped files are never parsed,
        # so they report no diagnostics — the documented contract)
        (tmp_path / "broken.php").write_text("<?php echo $_GET[")
        (tmp_path / "ok.php").write_text("<?php echo $_GET['m'];")
        report = Wape().analyze_tree(str(tmp_path))
        assert len(report.parse_errors) == 1
        assert len(report.real_vulnerabilities) == 1

    def test_prefilter_off_restores_diagnostics_everywhere(self,
                                                           tmp_path):
        from repro.analysis.options import ScanOptions
        (tmp_path / "broken.php").write_text("<?php if (")  # no marker
        report = Wape().analyze_tree(str(tmp_path))
        assert len(report.parse_errors) == 0  # skipped unparsed
        report = Wape().analyze_tree(
            str(tmp_path), ScanOptions(prefilter=False))
        assert len(report.parse_errors) == 1

    def test_empty_tree(self, tmp_path, scheduler):
        assert scheduler.scan_tree(str(tmp_path)) == []

    def test_non_php_files_skipped(self, tmp_path, scheduler):
        (tmp_path / "README.md").write_text("# docs")
        (tmp_path / "data.json").write_text("{}")
        (tmp_path / "script.PHP").write_text(
            "<?php mysql_query($_GET['x']);")  # extension case-insensitive
        results = scheduler.scan_tree(str(tmp_path))
        assert len(results) == 1
        assert len(results[0].candidates) == 1


class TestPathologicalSources:
    def test_deep_expression_nesting_contained(self, detector):
        # deep parenthesization: either parses fine or is captured as an
        # error by the recursion guard — never an unhandled crash
        source = "<?php $x = " + "(" * 400 + "1" + ")" * 400 + ";"
        import repro.exceptions
        try:
            detector.detect_source(source)
        except (repro.exceptions.PhpSyntaxError, RecursionError):
            pytest.skip("depth beyond parser limit is acceptable")

    def test_very_long_line(self, detector):
        source = "<?php $x = '" + "a" * 200_000 + "';"
        assert detector.detect_source(source) == []

    def test_many_statements(self, detector):
        source = "<?php " + " ".join(f"$v{i} = {i};"
                                     for i in range(3_000))
        assert detector.detect_source(source) == []

    def test_many_candidates_single_file(self, detector):
        lines = [f"mysql_query($_GET['k{i}']);" for i in range(300)]
        cands = detector.detect_source("<?php " + "\n".join(lines))
        assert len(cands) == 300

    def test_huge_interpolated_string(self, detector):
        parts = " ".join(f"${{'v{i}'}}" for i in range(50))
        source = f'<?php $s = "{parts}"; mysql_query($_GET[\'x\']);'
        assert len(detector.detect_source(source)) == 1

    def test_taint_explosion_bounded(self, detector):
        # 40 sources merged into one variable: the set union must not blow
        # up combinatorially
        reads = " . ".join(f"$_GET['k{i}']" for i in range(40))
        cands = detector.detect_source(
            f"<?php $q = {reads}; mysql_query($q);")
        assert len(cands) == 40


class TestCorrectorResilience:
    def test_correct_source_with_empty_candidates(self):
        from repro.corrector import CodeCorrector
        result = CodeCorrector().correct_source("<?php $x = 1;", [])
        assert not result.changed
        assert result.source == "<?php $x = 1;"

    def test_correct_missing_file_raises_cleanly(self):
        from repro.corrector import CodeCorrector
        with pytest.raises(OSError):
            CodeCorrector().correct_file("/no/such/file.php", [])
