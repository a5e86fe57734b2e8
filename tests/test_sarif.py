"""SARIF 2.1.0 export: shape, levels, determinism, code flows."""

import json
import os

import pytest

from repro.analysis.options import ScanOptions
from repro.exceptions import ReportSchemaError
from repro.tool.report import FINGERPRINT_ALGORITHM, report_fingerprints
from repro.tool.sarif import (
    SARIF_VERSION,
    encode_sarif,
    report_to_sarif,
    write_sarif,
)
from repro.tool.wap import Wape

DEMO_APP = os.path.join(os.path.dirname(__file__), os.pardir,
                        "examples", "demo_app")


@pytest.fixture(scope="module")
def report():
    return Wape().analyze_tree(DEMO_APP, ScanOptions(jobs=1)).to_dict()


@pytest.fixture(scope="module")
def sarif(report):
    return report_to_sarif(report)


class TestShape:
    def test_log_envelope(self, sarif):
        assert sarif["version"] == SARIF_VERSION
        assert "sarif-schema-2.1.0" in sarif["$schema"]
        assert len(sarif["runs"]) == 1

    def test_driver_and_rules(self, sarif, report):
        driver = sarif["runs"][0]["tool"]["driver"]
        assert driver["name"] == "wape"
        assert driver["version"] == report["tool"]
        ids = [rule["id"] for rule in driver["rules"]]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]

    def test_one_result_per_finding(self, sarif, report):
        results = sarif["runs"][0]["results"]
        assert len(results) == len(report_fingerprints(report))

    def test_result_required_fields(self, sarif):
        rule_ids = {rule["id"]
                    for rule in sarif["runs"][0]["tool"]["driver"]["rules"]}
        for result in sarif["runs"][0]["results"]:
            assert result["ruleId"] in rule_ids
            assert result["level"] in ("error", "note", "warning")
            assert result["message"]["text"]
            location = result["locations"][0]["physicalLocation"]
            uri = location["artifactLocation"]["uri"]
            assert not uri.startswith("/") and "\\" not in uri
            assert location["region"]["startLine"] >= 1

    def test_fingerprints_match_the_report(self, sarif, report):
        exported = {result["partialFingerprints"][FINGERPRINT_ALGORITHM]
                    for result in sarif["runs"][0]["results"]}
        assert exported == set(report_fingerprints(report))

    def test_results_sorted_by_fingerprint(self, sarif):
        fingerprints = [
            result["partialFingerprints"][FINGERPRINT_ALGORITHM]
            for result in sarif["runs"][0]["results"]]
        assert fingerprints == sorted(fingerprints)

    def test_levels_follow_verdicts(self, sarif):
        levels = {result["level"]
                  for result in sarif["runs"][0]["results"]}
        # the demo app has both real findings and one predicted FP
        assert levels == {"error", "note"}

    def test_code_flows_cover_the_taint_path(self, sarif, report):
        findings = {f["fingerprint"]: f
                    for e in report["files"] for f in e["findings"]}
        flowed = 0
        for result in sarif["runs"][0]["results"]:
            finding = findings[
                result["partialFingerprints"][FINGERPRINT_ALGORITHM]]
            if not finding["path"]:
                continue
            flowed += 1
            locations = result["codeFlows"][0]["threadFlows"][0][
                "locations"]
            assert len(locations) == len(finding["path"])
            for hop, step in zip(locations, finding["path"]):
                assert step["kind"] in hop["location"]["message"]["text"]
        assert flowed > 0


class TestSerialization:
    def test_write_sarif_is_deterministic(self, report, tmp_path):
        first, second = tmp_path / "a.sarif", tmp_path / "b.sarif"
        write_sarif(str(first), report)
        write_sarif(str(second), report)
        assert first.read_bytes() == second.read_bytes()
        text = first.read_text()
        assert json.loads(text)["version"] == SARIF_VERSION
        # compact: one newline, at the end; re-indenting gives back the
        # indented rendering of the same log
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) \
            == json.dumps(report_to_sarif(report), indent=2,
                          sort_keys=True)

    def test_an_identical_write_leaves_the_file_alone(self, report,
                                                      tmp_path):
        path = tmp_path / "report.sarif"
        write_sarif(str(path), report)
        # an old mtime, so that a rewrite within the clock's tick shows
        os.utime(path, ns=(10**9, 10**9))
        before = os.stat(path)
        write_sarif(str(path), report)
        after = os.stat(path)
        assert (after.st_ino, after.st_mtime_ns) == \
            (before.st_ino, before.st_mtime_ns) == (before.st_ino, 10**9)

    def test_a_changed_report_is_written(self, report, tmp_path):
        path = tmp_path / "report.sarif"
        write_sarif(str(path), report)
        expected = path.read_bytes()
        # the same size, other bytes: compared byte for byte
        path.write_bytes(expected[:-2] + b"X\n")
        write_sarif(str(path), report)
        assert path.read_bytes() == expected
        # another report, another size
        changed = dict(report, files=[])
        write_sarif(str(path), changed)
        assert path.read_bytes() == encode_sarif(changed).encode()
        assert path.read_bytes() != expected

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "report.sarif"
        path.write_bytes(b'{"previous": true}\n')
        with pytest.raises(ReportSchemaError):
            write_sarif(str(path), {"schema_version": 99, "tool": "x",
                                    "target": "x", "summary": {},
                                    "files": []})
        assert path.read_bytes() == b'{"previous": true}\n'

    def test_accepts_older_report_versions(self):
        sarif = report_to_sarif({
            "tool": "WAPe", "target": "app/",
            "summary": {"files": 1},
            "files": [{"path": "app/a.php", "lines": 1, "seconds": 0.0,
                       "parse_error": None,
                       "findings": [{"class": "xss", "group": "XSS",
                                     "sink": "echo", "sink_line": 2,
                                     "entry_point": "$_GET['q']",
                                     "entry_line": 2, "verdict": "real",
                                     "votes": {}, "symptoms": [],
                                     "path": []}]}],
        })
        result = sarif["runs"][0]["results"][0]
        assert result["ruleId"] == "xss"
        assert result["partialFingerprints"][FINGERPRINT_ALGORITHM]

    def test_rejects_unreadable_input(self):
        with pytest.raises(ReportSchemaError):
            report_to_sarif({"schema_version": 99, "tool": "x",
                             "target": "x", "summary": {}, "files": []})
