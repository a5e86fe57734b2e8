"""`wape watch` and the `wape scan --baseline/--fail-on-new` CI gate."""

import json
import os
import shutil

import pytest

from repro.analysis.options import ScanOptions
from repro.api import Scanner
from repro.obs import RunLedger
from repro.tool.cli import main as scan_main
from repro.tool.report import AnalysisReport
from repro.tool.watch import Watcher
from repro.tool.wap import Wape

DEMO_APP = os.path.join(os.path.dirname(__file__), os.pardir,
                        "examples", "demo_app")

INJECTED_SINK = "\n<?php echo $_GET['watch_injected']; ?>\n"


@pytest.fixture(scope="module")
def tool():
    return Wape()


@pytest.fixture()
def app(tmp_path):
    root = tmp_path / "demo_app"
    shutil.copytree(DEMO_APP, root)
    return str(root)


def make_watcher(tool, app, ledger=None):
    scanner = Scanner(tool, ScanOptions(jobs=1))
    return Watcher(scanner, app, interval=0.01, debounce=0.0,
                   ledger=ledger)


def count_report_dicts(monkeypatch) -> list:
    """Record every ``AnalysisReport.to_dict`` call from now on."""
    calls = []
    to_dict = AnalysisReport.to_dict

    def counted(report):
        calls.append(report)
        return to_dict(report)

    monkeypatch.setattr(AnalysisReport, "to_dict", counted)
    return calls


class TestWatcher:
    def test_poll_before_start_is_an_error(self, tool, app):
        with pytest.raises(RuntimeError, match="start"):
            make_watcher(tool, app).poll()

    def test_unchanged_tree_yields_no_cycle(self, tool, app):
        watcher = make_watcher(tool, app)
        watcher.start()
        assert watcher.poll(sleep=lambda _s: None) is None
        assert watcher.cycles == 0

    def test_an_edit_during_the_first_scan_is_reported(self, tool, app):
        """The baseline signature predates the first scan, so a page
        that gains a sink after that scan's snapshot is reported by the
        next poll instead of waiting for another edit."""
        watcher = make_watcher(tool, app)
        target = os.path.join(app, "contact.php")
        scan = watcher.scanner.scan

        def scan_then_edit(root):
            result = scan(root)
            with open(target, "a", encoding="utf-8") as f:
                f.write(INJECTED_SINK)
            return result

        watcher.scanner.scan = scan_then_edit
        first = watcher.start()
        watcher.scanner.scan = scan
        assert not any(o.candidate.filename == target
                       and "watch_injected" in o.candidate.entry_point
                       for o in first.report.outcomes)
        cycle = watcher.poll(sleep=lambda _s: None)
        assert cycle is not None
        assert [f["file"] for f in cycle.delta.new] == ["contact.php"]
        assert not cycle.delta.fixed

    def test_edit_then_revert_reports_new_then_fixed(self, tool, app):
        """The acceptance loop: inject a tainted sink (1 new), revert
        it (1 fixed) — both cycles warm, re-analyzing only the edit."""
        watcher = make_watcher(tool, app)
        first = watcher.start()
        total = len(first.report.outcomes)
        target = os.path.join(app, "contact.php")
        with open(target, encoding="utf-8") as f:
            original = f.read()

        with open(target, "a", encoding="utf-8") as f:
            f.write(INJECTED_SINK)
        cycle = watcher.poll(sleep=lambda _s: None)
        assert cycle is not None and cycle.cycle == 1
        assert len(cycle.delta.new) == 1
        assert not cycle.delta.fixed
        assert len(cycle.delta.unchanged) == total
        assert cycle.delta.new[0]["file"] == "contact.php"
        assert cycle.delta.new[0]["verdict"] == "real"
        assert cycle.result.incremental
        assert cycle.result.analyzed_files == 1
        injected = cycle.delta.new[0]["fingerprint"]

        with open(target, "w", encoding="utf-8") as f:
            f.write(original)
        cycle = watcher.poll(sleep=lambda _s: None)
        assert cycle is not None and cycle.cycle == 2
        assert not cycle.delta.new
        assert [f["fingerprint"] for f in cycle.delta.fixed] == [injected]
        assert len(cycle.delta.unchanged) == total
        assert watcher.poll(sleep=lambda _s: None) is None

    def test_debounce_waits_for_the_tree_to_settle(self, tool, app):
        """A write landing during debounce restarts the quiet period —
        the rescan must see the final content, not the mid-burst one."""
        watcher = make_watcher(tool, app)
        watcher.start()
        target = os.path.join(app, "search.php")
        burst = iter([True, False])

        def keep_writing(_seconds):
            if next(burst, False):
                with open(target, "a", encoding="utf-8") as f:
                    f.write(INJECTED_SINK)

        with open(target, "a", encoding="utf-8") as f:
            f.write("\n<?php // first write of the burst ?>\n")
        cycle = watcher.poll(sleep=keep_writing)
        assert cycle is not None
        assert len(cycle.delta.new) == 1  # the mid-burst write was seen

    def test_cycles_land_in_the_ledger_as_watch_mode(self, tool, app,
                                                     tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        watcher = make_watcher(tool, app, ledger=ledger)
        watcher.start()
        with open(os.path.join(app, "contact.php"), "a",
                  encoding="utf-8") as f:
            f.write(INJECTED_SINK)
        watcher.poll(sleep=lambda _s: None)
        records = ledger.load()
        assert len(records) == 1
        record = records[0]
        assert record["mode"] == "watch"
        assert record["watch"]["cycle"] == 1
        assert record["watch"]["new"] == 1
        assert record["watch"]["analyzed_files"] == 1
        assert record["watch"]["reused_files"] > 0

    def test_ledger_fingerprint_is_the_one_the_cycle_scanned_with(
            self, app, tmp_path):
        """A project-policy watcher records the project-policy
        fingerprint, and a cycle after ``arm`` records the armed one —
        the fingerprint ``wape scan`` records for the same knowledge."""
        from repro.analysis.pipeline import config_fingerprint

        def fingerprint(tool, project):
            return config_fingerprint(tool._config_groups(), tool.version,
                                      project=project)

        tool = Wape()
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        scanner = Scanner(tool, ScanOptions(jobs=1, project=True))
        watcher = Watcher(scanner, app, interval=0.01, debounce=0.0,
                          ledger=ledger)
        watcher.start()
        target = os.path.join(app, "contact.php")
        with open(target, "a", encoding="utf-8") as f:
            f.write(INJECTED_SINK)
        watcher.poll(sleep=lambda _s: None)
        project_fp = fingerprint(tool, project=True)
        assert project_fp != fingerprint(tool, project=False)
        assert ledger.load()[-1]["fingerprint"] == project_fp

        tool.arm(tool.weapon_registry.by_flag("-hei"))
        with open(target, "a", encoding="utf-8") as f:
            f.write("\n<?php // edited after arming ?>\n")
        cycle = watcher.poll(sleep=lambda _s: None)
        armed_fp = fingerprint(tool, project=True)
        assert armed_fp != project_fp
        assert not cycle.result.incremental  # new knowledge: cold
        assert ledger.load()[-1]["fingerprint"] == armed_fp

    def test_a_cycle_builds_one_report_dict(self, tool, app, tmp_path,
                                            monkeypatch):
        """The delta, the ledger record and the next baseline all read
        the one dict a cycle builds."""
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        watcher = make_watcher(tool, app, ledger=ledger)
        calls = count_report_dicts(monkeypatch)
        watcher.start()
        assert len(calls) == 1
        with open(os.path.join(app, "contact.php"), "a",
                  encoding="utf-8") as f:
            f.write(INJECTED_SINK)
        calls.clear()
        cycle = watcher.poll(sleep=lambda _s: None)
        assert len(cycle.delta.new) == 1
        assert len(ledger.load()) == 1
        assert len(calls) == 1


class TestWatchCli:
    def test_not_a_directory(self, tmp_path, capsys):
        from repro.tool.watch import main as watch_main
        assert watch_main([str(tmp_path / "missing")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_watch_subcommand_is_dispatched(self):
        from repro.tool.main import COMMANDS
        assert "watch" in COMMANDS


class TestBaselineGate:
    def write_baseline(self, tool, app, path):
        data = tool.analyze_tree(app, ScanOptions(jobs=1)).to_dict()
        with open(path, "w", encoding="utf-8") as f:
            json.dump(data, f)
        return data

    def test_unchanged_tree_passes_the_gate(self, tool, app, tmp_path,
                                            capsys):
        baseline = str(tmp_path / "baseline.json")
        self.write_baseline(tool, app, baseline)
        code = scan_main(["--quiet", "--no-cache", "--baseline", baseline,
                          "--fail-on-new", app])
        out = capsys.readouterr().out
        assert code == 0
        assert "+0 new" in out

    def test_new_finding_fails_the_gate(self, tool, app, tmp_path,
                                        capsys):
        baseline = str(tmp_path / "baseline.json")
        self.write_baseline(tool, app, baseline)
        with open(os.path.join(app, "contact.php"), "a",
                  encoding="utf-8") as f:
            f.write(INJECTED_SINK)
        code = scan_main(["--quiet", "--no-cache", "--baseline", baseline,
                          "--fail-on-new", app])
        out = capsys.readouterr().out
        assert code == 1
        assert "+1 new" in out

    def test_fixed_findings_do_not_fail_the_gate(self, tool, app,
                                                 tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        self.write_baseline(tool, app, baseline)
        os.unlink(os.path.join(app, "run.php"))
        code = scan_main(["--quiet", "--no-cache", "--baseline", baseline,
                          "--fail-on-new", app])
        out = capsys.readouterr().out
        assert code == 0
        assert "-1 fixed" in out

    def test_json_report_carries_the_delta_block(self, tool, app,
                                                 tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        self.write_baseline(tool, app, baseline)
        code = scan_main(["--json", "--no-cache", "--baseline", baseline,
                          "--fail-on-new", app])
        data = json.loads(capsys.readouterr().out)
        assert code == 0
        assert data["delta"]["counts"]["new"] == 0
        assert data["delta"]["counts"]["unchanged"] \
            == sum(len(e["findings"]) for e in data["files"])

    def test_one_report_dict_per_scan(self, tool, app, tmp_path,
                                      monkeypatch, capsys):
        """The ledger digest, --baseline, --sarif-out and --json all
        read the one dict the scan builds."""
        baseline = str(tmp_path / "baseline.json")
        self.write_baseline(tool, app, baseline)
        sarif = tmp_path / "scan.sarif"
        calls = count_report_dicts(monkeypatch)
        scan_main(["--cache-dir", str(tmp_path / "cache"), "--sarif-out",
                   str(sarif), "--json", "--baseline", baseline, app])
        data = json.loads(capsys.readouterr().out)
        assert data["delta"]["counts"]["new"] == 0
        assert json.loads(sarif.read_text())["runs"][0]["results"]
        assert len(RunLedger(
            str(tmp_path / "cache" / "ledger.jsonl")).load()) == 1
        assert len(calls) == 1

    def test_fail_on_new_requires_a_baseline(self, app, capsys):
        assert scan_main(["--fail-on-new", app]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_baseline_requires_exactly_one_target(self, tool, app,
                                                  tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        self.write_baseline(tool, app, baseline)
        assert scan_main(["--baseline", baseline, app, app]) == 2
        assert "one target" in capsys.readouterr().err

    def test_malformed_baseline_is_a_usage_error(self, app, tmp_path,
                                                 capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert scan_main(["--baseline", str(bad), app]) == 2
        assert "baseline" in capsys.readouterr().err

    def test_missing_baseline_file_is_a_usage_error(self, app, tmp_path,
                                                    capsys):
        missing = str(tmp_path / "absent.json")
        assert scan_main(["--baseline", missing, app]) == 2
        assert "baseline" in capsys.readouterr().err
