"""Tests for the Wap21/Wape facades, reports and CLI."""

import json
import os

import pytest

from repro.tool import Wap21, Wape
from repro.tool.cli import main as cli_main
from repro.weapons import (
    WeaponClassSpec,
    WeaponSpec,
    generate_weapon,
)

VULN_SRC = """<?php
$id = $_GET['id'];
mysql_query("SELECT * FROM users WHERE id = '" . $id . "'");
if (is_integer($_GET['n'])) {
    mysql_query("SELECT a FROM t WHERE n = " . $_GET['n']);
}
echo $_GET['msg'];
header("Location: " . $_GET['next']);
"""


@pytest.fixture(scope="module")
def wape():
    return Wape()


@pytest.fixture(scope="module")
def wape_armed():
    return Wape(weapon_flags=["-nosqli", "-hei", "-wpsqli"])


@pytest.fixture(scope="module")
def wap21():
    return Wap21()


class TestVersionsDiffer:
    def test_wape_detects_original_classes(self, wape):
        report = wape.analyze_source(VULN_SRC)
        classes = {o.vuln_class for o in report.outcomes}
        assert "sqli" in classes and "xss" in classes

    def test_wape_without_weapon_misses_hi(self, wape):
        report = wape.analyze_source(VULN_SRC)
        assert "hi" not in {o.vuln_class for o in report.outcomes}

    def test_armed_wape_detects_hi(self, wape_armed):
        report = wape_armed.analyze_source(VULN_SRC)
        assert "hi" in {o.vuln_class for o in report.outcomes}

    def test_wap21_never_detects_new_classes(self, wap21):
        src = VULN_SRC + "\n<?php session_id($_GET['sid']);"
        report = wap21.analyze_source(src)
        classes = {o.vuln_class for o in report.outcomes}
        assert classes <= {"sqli", "xss", "rfi", "lfi", "dt_pt", "scd",
                           "osci", "phpci"}

    def test_wape_detects_sf(self, wape):
        report = wape.analyze_source("<?php session_id($_GET['sid']);")
        assert [o.vuln_class for o in report.outcomes] == ["sf"]

    def test_fp_prediction_asymmetry(self, wape, wap21):
        """The is_integer-guarded candidate: WAPe predicts FP, v2.1 not."""
        new_report = wape.analyze_source(VULN_SRC)
        old_report = wap21.analyze_source(VULN_SRC)
        new_fp = [o for o in new_report.predicted_false_positives
                  if o.vuln_class == "sqli"]
        old_fp = [o for o in old_report.predicted_false_positives
                  if o.vuln_class == "sqli"]
        assert len(new_fp) == 1
        assert len(old_fp) == 0

    def test_same_real_vulns_for_shared_classes(self, wape, wap21):
        """Question 2 of §V: WAPe still finds everything v2.1 found."""
        report_new = wape.analyze_source(VULN_SRC)
        report_old = wap21.analyze_source(VULN_SRC)
        def keys(report):
            return {(o.candidate.vuln_class, o.candidate.sink_line)
                    for o in report.outcomes}
        assert keys(report_old) <= keys(report_new)

    def test_class_ids_counts(self, wape, wap21, wape_armed):
        assert len(wap21.class_ids) == 8
        assert len(wape.class_ids) == 12      # 8 + SF, CS, LDAPI, XPathI
        assert len(wape_armed.class_ids) == 16  # + nosqli, hi, ei, wpsqli


class TestExtraSanitizers:
    def test_vfront_escape_scenario(self):
        """§V-A: feeding the custom `escape` helper removes the 6 cases."""
        src = ("<?php $v = escape($_GET['x']); "
               "mysql_query(\"SELECT a FROM t WHERE x = '\" . $v . \"'\");")
        plain = Wape().analyze_source(src)
        assert len(plain.real_vulnerabilities) == 1
        tuned = Wape(extra_sanitizers={"sqli": {"escape"}})
        report = tuned.analyze_source(src)
        assert report.outcomes == []  # not even a candidate


class TestWeaponArming:
    def test_arm_custom_weapon(self):
        weapon = generate_weapon(WeaponSpec(
            name="logi", flag="-logi",
            classes=(WeaponClassSpec("logi", "Log injection",
                                     ("error_log:0",)),),
            fix_template="user_sanitization",
            fix_malicious_chars=("\n",),
        ))
        tool = Wape()
        tool.arm(weapon)
        report = tool.analyze_source("<?php error_log($_GET['x']);")
        assert [o.vuln_class for o in report.outcomes] == ["logi"]

    def test_armed_weapon_fix_registered(self):
        weapon = generate_weapon(WeaponSpec(
            name="logi", flag="-logi",
            classes=(WeaponClassSpec("logi", "Log injection",
                                     ("error_log:0",)),),
            fix_template="user_sanitization",
            fix_malicious_chars=("\n",),
        ))
        tool = Wape()
        tool.arm(weapon)
        result = tool.correct_source("<?php error_log($_GET['x']);")
        assert "san_logi(" in result.source

    def test_unknown_flag_raises(self):
        from repro.exceptions import WeaponConfigError
        with pytest.raises(WeaponConfigError):
            Wape(weapon_flags=["-bogus"])


class TestReports:
    def test_counts_by_group_merges_files(self, wape):
        src = ("<?php include $_GET['a']; "
               "include 'x/' . $_GET['b'] . '.php'; "
               "$h = fopen($_GET['c'], 'r');")
        report = wape.analyze_source(src)
        groups = report.counts_by_group(real_only=False)
        assert groups["Files"] == 3

    def test_wpsqli_grouped_as_sqli(self, wape_armed):
        src = ("<?php $wpdb->query(\"SELECT a FROM p WHERE t = '\" "
               ". $_GET['t'] . \"'\");")
        report = wape_armed.analyze_source(src)
        assert report.counts_by_group(real_only=False)["SQLI"] == 1

    def test_summary_and_render(self, wape):
        report = wape.analyze_source(VULN_SRC, "app.php")
        line = report.summary_line()
        assert "app.php" in line and "vulnerabilities" in line
        text = report.render_text(show_paths=True)
        assert "real vulnerability" in text
        assert "predicted false positive" in text
        assert "source" in text  # a path step

    def test_parse_error_captured(self, wape):
        report = wape.analyze_source("<?php $x = ;")
        assert report.files[0].parse_error
        assert report.outcomes == []

    def test_single_file_scan_reports_what_a_tree_scan_does(
            self, tmp_path, capsys):
        """A damaged file scanned on its own gets the recovery warning
        and the count of skipped statements a scan of its directory
        reports."""
        path = tmp_path / "bad.php"
        path.write_bytes(b'<?php\n$a = ;\necho $_GET["x"];\n')
        entries = []
        for target in (str(path), str(tmp_path)):
            cli_main(["--json", "--no-cache", target])
            [entry] = json.loads(capsys.readouterr().out)["files"]
            del entry["seconds"]
            entries.append(entry)
        single, tree = entries
        assert single["parse_warning"] == \
            f"{path}:2:6: unexpected token ';' (';') in expression"
        assert single["recovered_statements"] == 1
        assert single == tree

    def test_recursion_in_a_single_file_is_a_diagnostic(self, monkeypatch):
        from repro.analysis.engine import TaintEngine

        def too_deep(*_args, **_kwargs):
            raise RecursionError
        tool = Wape()
        monkeypatch.setattr(TaintEngine, "analyze_with_state", too_deep)
        report = tool.analyze_source(VULN_SRC, "deep.php")
        assert report.files[0].parse_error == \
            "recursion limit during analysis"
        assert report.outcomes == []

    def test_analyze_tree(self, wape, tmp_path):
        (tmp_path / "a.php").write_text("<?php echo $_GET['x'];")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.php").write_text(
            "<?php mysql_query($_GET['q']);")
        (tmp_path / "ignored.txt").write_text("not php")
        report = wape.analyze_tree(str(tmp_path))
        assert report.total_files == 2
        assert len(report.real_vulnerabilities) == 2
        assert len(report.vulnerable_files) == 2

    def test_correct_source_pipeline(self, wape):
        result = wape.correct_source(VULN_SRC)
        assert "san_sqli(" in result.source
        assert "san_out(" in result.source
        # the predicted false positive is not fixed
        assert "('SELECT a FROM t WHERE n = ' . $_GET['n'])" \
            in result.source

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_correct_source_line_endings(self, wape, newline):
        """The corrector locates each sink on the line the detector
        reported, whatever the source's line endings."""
        result = wape.correct_source(VULN_SRC.replace("\n", newline))
        assert [fix.sink_line for fix in result.applied] == [3, 7]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_correct_file_line_endings(self, wape, tmp_path, newline):
        path = tmp_path / "index.php"
        path.write_bytes(VULN_SRC.replace("\n", newline).encode())
        result = wape.correct_file(str(path))
        assert [fix.sink_line for fix in result.applied] == [3, 7]
        assert "san_sqli(" in path.read_text()


class TestCli:
    @pytest.fixture()
    def app(self, tmp_path):
        path = tmp_path / "index.php"
        path.write_text(VULN_SRC)
        return str(path)

    def test_basic_run(self, app, capsys):
        code = cli_main([app])
        out = capsys.readouterr().out
        assert code == 1  # vulnerabilities found
        assert "real vulnerability" in out

    def test_quiet(self, app, capsys):
        cli_main(["--quiet", app])
        out = capsys.readouterr().out.strip()
        assert out.count("\n") == 0

    def test_weapon_flag(self, app, capsys):
        cli_main(["-hei", "--quiet", app])
        out = capsys.readouterr().out
        assert "HI: 1" in out

    def test_original_mode(self, app, capsys):
        cli_main(["--original", "--quiet", app])
        out = capsys.readouterr().out
        assert "SQLI: 2" in out  # v2.1 cannot predict the new-symptom FP

    def test_original_plus_weapon_rejected(self, app):
        with pytest.raises(SystemExit):
            cli_main(["--original", "-hei", app])

    def test_fix_writes_file(self, app, capsys):
        code = cli_main(["--fix", app])
        assert code == 1
        fixed = app + ".fixed.php"
        assert os.path.exists(fixed)
        assert "san_sqli(" in open(fixed).read()

    def test_sanitizer_option(self, tmp_path, capsys):
        path = tmp_path / "esc.php"
        path.write_text("<?php $v = escape($_GET['x']); "
                        "mysql_query('q' . $v);")
        cli_main(["--sanitizer", "sqli:escape", "--quiet", str(path)])
        out = capsys.readouterr().out
        assert "0 vulnerabilities" in out

    def test_clean_file_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.php"
        path.write_text("<?php echo 'hello';")
        assert cli_main(["--quiet", str(path)]) == 0

    def test_weapon_dir_option(self, tmp_path, capsys):
        from repro.weapons import save_weapon
        weapon = generate_weapon(WeaponSpec(
            name="logx", flag="-logx",
            classes=(WeaponClassSpec("logx", "Log injection",
                                     ("syslog:1",)),),
            fix_template="user_sanitization",
            fix_malicious_chars=("\n",),
        ))
        wdir = tmp_path / "logx_weapon"
        save_weapon(weapon, str(wdir))
        target = tmp_path / "t.php"
        target.write_text("<?php syslog(LOG_INFO, $_GET['m']);")
        cli_main(["--weapon-dir", str(wdir), "-logx", "--quiet",
                  str(target)])
        out = capsys.readouterr().out
        assert "Log injection: 1" in out
