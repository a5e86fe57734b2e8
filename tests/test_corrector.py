"""Tests for fix templates and the code corrector."""

import pytest

from repro.analysis import ConfigGroup, Detector, FusedDetector
from repro.corrector import (
    CodeCorrector,
    TEMPLATE_PHP_SANITIZATION,
    TEMPLATE_USER_SANITIZATION,
    TEMPLATE_USER_VALIDATION,
    build_fix,
    builtin_fixes,
    php_sanitization_fix,
    user_sanitization_fix,
    user_validation_fix,
)
from repro.exceptions import FixTemplateError
from repro.php import ast, parse
from repro.vulnerabilities import build_submodules, wape_registry


class TestTemplates:
    def test_php_sanitization_template(self):
        fix = php_sanitization_fix("san_x", "mysql_real_escape_string")
        assert fix.template == TEMPLATE_PHP_SANITIZATION
        assert "mysql_real_escape_string($value)" in fix.helper_code
        parse("<?php " + fix.helper_code)  # helper is valid PHP

    def test_user_sanitization_template(self):
        fix = user_sanitization_fix("san_y", ("\r", "\n"), " ")
        assert fix.template == TEMPLATE_USER_SANITIZATION
        assert "str_replace" in fix.helper_code
        parse("<?php " + fix.helper_code)

    def test_user_validation_template(self):
        fix = user_validation_fix("val_z", ("*", "("), "blocked")
        assert fix.template == TEMPLATE_USER_VALIDATION
        assert "strpos" in fix.helper_code
        assert "blocked" in fix.helper_code
        parse("<?php " + fix.helper_code)

    def test_build_fix_dispatch(self):
        assert build_fix("a", TEMPLATE_PHP_SANITIZATION,
                         sanitization_function="esc_sql").fix_id == "a"
        assert build_fix("b", TEMPLATE_USER_SANITIZATION,
                         malicious_chars=("\n",)).fix_id == "b"
        assert build_fix("c", TEMPLATE_USER_VALIDATION,
                         malicious_chars=("*",)).fix_id == "c"

    @pytest.mark.parametrize("bad", [
        lambda: php_sanitization_fix("x", ""),
        lambda: user_sanitization_fix("x", ()),
        lambda: user_validation_fix("x", ()),
        lambda: php_sanitization_fix("1bad", "f"),
        lambda: php_sanitization_fix("", "f"),
        lambda: build_fix("x", "no_such_template"),
        lambda: build_fix("x", TEMPLATE_PHP_SANITIZATION),
    ])
    def test_template_errors(self, bad):
        with pytest.raises(FixTemplateError):
            bad()

    def test_all_builtin_helpers_parse(self):
        for fix in builtin_fixes().values():
            parse("<?php " + fix.helper_code)

    def test_every_class_has_a_fix(self):
        fixes = builtin_fixes()
        for info in wape_registry():
            assert info.fix_id in fixes, info.class_id


@pytest.fixture(scope="module")
def wape_detector():
    registry = wape_registry()
    return Detector([i.config for i in registry if i.config.sinks
                     or i.config.source_functions])


def correct(source, detector):
    """Detect then correct; return (result, re-detection candidates)."""
    corrector = CodeCorrector()
    cands = detector.detect_source(source)
    result = corrector.correct_source(source, cands)
    post = detector.detect_source(result.source)
    return result, post


class TestCorrection:
    def test_sqli_fix_applied(self, wape_detector):
        src = "<?php mysql_query(\"SELECT a FROM t WHERE x = '\" " \
              ". $_GET['x'] . \"'\");"
        result, post = correct(src, wape_detector)
        assert result.changed
        assert "san_sqli(" in result.source
        assert "function san_sqli" in result.source
        assert [c for c in post if c.vuln_class == "sqli"] == []

    def test_xss_echo_fix(self, wape_detector):
        result, post = correct("<?php echo $_GET['m'];", wape_detector)
        assert "san_out(" in result.source
        assert [c for c in post if c.vuln_class == "xss"] == []

    def test_osci_fix(self, wape_detector):
        result, post = correct("<?php system($_GET['cmd']);",
                               wape_detector)
        assert "san_osci(" in result.source
        assert [c for c in post if c.vuln_class == "osci"] == []

    def test_include_fix(self, wape_detector):
        result, post = correct("<?php include $_GET['p'];", wape_detector)
        assert "san_mix(" in result.source
        assert [c for c in post if c.vuln_class in ("rfi", "lfi")] == []

    def test_ldapi_fix(self, wape_detector):
        src = "<?php ldap_search($ds, $base, '(u=' . $_GET['u'] . ')');"
        result, post = correct(src, wape_detector)
        assert "val_ldapi(" in result.source
        assert [c for c in post if c.vuln_class == "ldapi"] == []

    def test_hei_fix(self, wape_detector):
        result, post = correct("<?php header('X: ' . $_GET['v']);",
                               wape_detector)
        assert "san_hei(" in result.source
        assert [c for c in post if c.vuln_class == "hi"] == []

    def test_sf_fix(self, wape_detector):
        result, post = correct("<?php session_id($_GET['sid']);",
                               wape_detector)
        assert "san_sf(" in result.source
        assert [c for c in post if c.vuln_class == "sf"] == []

    def test_shell_exec_fix(self, wape_detector):
        result, post = correct("<?php $o = `ls {$_GET['d']}`;",
                               wape_detector)
        assert "san_osci(" in result.source
        assert [c for c in post if c.vuln_class == "osci"] == []

    def test_fixed_code_reparses(self, wape_detector):
        src = "<?php mysql_query('x = ' . $_GET['x']); echo $_POST['y'];"
        result, _ = correct(src, wape_detector)
        parse(result.source)

    def test_helper_inserted_once(self, wape_detector):
        src = ("<?php mysql_query('a = ' . $_GET['a']); "
               "mysql_query('b = ' . $_POST['b']);")
        result, _ = correct(src, wape_detector)
        assert result.source.count("function san_sqli") == 1

    def test_idempotent(self, wape_detector):
        src = "<?php mysql_query('x = ' . $_GET['x']);"
        once, _ = correct(src, wape_detector)
        corrector = CodeCorrector()
        cands = wape_detector.detect_source(once.source)
        twice = corrector.correct_source(once.source, cands)
        # no vulnerability remains, so nothing to correct
        assert not twice.changed

    def test_literal_args_untouched(self, wape_detector):
        src = "<?php mysql_query('p = ' . $_GET['p'], 'extra');"
        result, _ = correct(src, wape_detector)
        # the literal second argument is not wrapped
        assert "san_sqli('extra')" not in result.source

    def test_unknown_class_skipped(self):
        import dataclasses
        detector_src = "<?php mysql_query($_GET['x']);"
        from repro.vulnerabilities.catalog import sqli_info
        det = Detector([sqli_info().config])
        cands = det.detect_source(detector_src)
        weird = [dataclasses.replace(c, vuln_class="brand_new")
                 for c in cands]
        result = CodeCorrector().correct_source(detector_src, weird)
        assert not result.changed
        assert len(result.skipped) == 1

    def test_unlocatable_sink_skipped(self):
        import dataclasses
        from repro.vulnerabilities.catalog import sqli_info
        det = Detector([sqli_info().config])
        src = "<?php mysql_query($_GET['x']);"
        cands = det.detect_source(src)
        moved = [dataclasses.replace(c, sink_line=999) for c in cands]
        result = CodeCorrector().correct_source(src, moved)
        assert result.skipped and not result.changed

    def test_register_weapon_fix(self):
        from repro.corrector import php_sanitization_fix
        corrector = CodeCorrector()
        fix = php_sanitization_fix("san_custom", "my_escape")
        corrector.register_fix("customclass", fix)
        assert corrector.fix_for("customclass").fix_id == "san_custom"

    def test_correct_file_roundtrip(self, tmp_path, wape_detector):
        path = tmp_path / "vuln.php"
        path.write_text("<?php echo $_GET['m'];\n")
        fused = FusedDetector([ConfigGroup("wape",
                                           tuple(wape_detector.configs))])
        cands = fused.detect_file(str(path)).candidates
        result = CodeCorrector().correct_file(str(path), cands)
        assert result.changed
        assert "san_out(" in path.read_text()

    def test_html_preserved_through_correction(self, wape_detector):
        src = "<h1>Hello</h1>\n<?php echo $_GET['m']; ?>\n<footer>x</footer>"
        result, _ = correct(src, wape_detector)
        assert "<h1>Hello</h1>" in result.source
        assert "<footer>x</footer>" in result.source


class TestSubmoduleCorrectionEndToEnd:
    """Detect with sub-modules, predict, correct — the full Fig. 1 loop."""

    def test_full_pipeline(self):
        from repro.mining import new_predictor
        subs = build_submodules(wape_registry())
        src = ("<?php\n"
               "$q = $_GET['q'];\n"
               "mysql_query(\"SELECT a FROM t WHERE q = '\" . $q . \"'\");"
               "\n"
               "if (is_numeric($_GET['n'])) {\n"
               "  mysql_query(\"SELECT b FROM t WHERE n = \" "
               ". $_GET['n']);\n"
               "}\n")
        cands = []
        for sub in subs.values():
            cands.extend(sub.detect_source(src))
        predictor = new_predictor()
        real = [c for c in cands
                if not predictor.predict(c).is_false_positive]
        assert len(cands) == 2 and len(real) == 1
        result = CodeCorrector().correct_source(src, real)
        # exactly one call site fixed (the other occurrence is the helper
        # function's own declaration)
        assert result.source.count("san_sqli(") == 2
        assert result.source.count("mysql_query(san_sqli(") == 1
        # the false-positive flow is left untouched
        assert "('SELECT b FROM t WHERE n = ' . $_GET['n'])" \
            in result.source
