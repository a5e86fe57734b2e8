"""Versioned JSON report schema: emission, the daemon's encoding,
upgrade, rejection."""

import json

import pytest

from repro.analysis.model import (
    STEP_CALL,
    STEP_SINK,
    STEP_SOURCE,
    CandidateVulnerability,
    PathStep,
)
from repro.exceptions import ReportSchemaError
from repro.mining.predictor import Prediction
from repro.tool.report import (
    SCHEMA_VERSION,
    AnalysisReport,
    CandidateOutcome,
    FileReport,
    encode_report,
    encoded_entry,
    file_report_dict,
    load_report_dict,
    upgrade_report_dict,
)


def make_report():
    report = AnalysisReport("WAPe", "app/")
    report.files.append(FileReport("app/clean.php", lines_of_code=3,
                                   seconds=0.001))
    report.files.append(FileReport("app/bad.php", lines_of_code=1,
                                   parse_error="app/bad.php:1:1: boom"))
    return report


def finding_report(path="/srv/app/pâge.php"):
    """A file with one finding: non-ASCII name and entry point, and a hop
    in another file."""
    candidate = CandidateVulnerability(
        "xss", path, "echo", 4, "$_GET['clé']", 2,
        (PathStep(STEP_SOURCE, "$_GET['clé']", 2),
         PathStep(STEP_CALL, "montrer", 3, "/srv/app/lib/vüe.php"),
         PathStep(STEP_SINK, "echo", 4)))
    prediction = Prediction(False, {"svm": 0, "lr": 1, "rf": 0},
                            frozenset({"concat"}))
    return FileReport(path, lines_of_code=5, seconds=0.25,
                      outcomes=[CandidateOutcome(candidate, prediction)])


def make_full_report():
    """Every kind of listed entry, and a clean file the report skips."""
    report = AnalysisReport("WAPe", "/srv/app", groups={"xss": "XSS"})
    report.files += [
        FileReport("/srv/app/clean.php", lines_of_code=3, seconds=0.001),
        finding_report(),
        FileReport("/srv/app/bad.php", lines_of_code=1,
                   parse_error="/srv/app/bad.php:1:1: boom"),
        FileReport("/srv/app/warn.php", lines_of_code=7,
                   parse_warning="/srv/app/warn.php:2:5: recovered",
                   recovered_statements=1)]
    return report


def make_v1_dict():
    """The historical unversioned shape: no marker, sparse summary."""
    return {
        "tool": "WAPe",
        "target": "app/",
        "summary": {"files": 1, "lines": 3, "candidates": 0},
        "files": [{"path": "app/a.php", "lines": 3, "seconds": 0.0,
                   "parse_error": None, "findings": []}],
    }


class TestEmission:
    def test_to_dict_carries_current_version(self):
        data = make_report().to_dict()
        assert data["schema_version"] == SCHEMA_VERSION
        assert data["service"] is None

    def test_round_trip_is_identity(self):
        data = make_report().to_dict()
        assert load_report_dict(json.dumps(data)) == data

    def test_all_summary_counters_always_present(self):
        summary = AnalysisReport("WAPe", "x").to_dict()["summary"]
        for key in ("files", "lines", "seconds", "candidates",
                    "real_vulnerabilities", "predicted_false_positives",
                    "parse_errors", "parse_warnings",
                    "recovered_statements", "resolved_includes",
                    "unresolved_includes", "by_class"):
            assert key in summary


class TestEncoding:
    """The daemon's report JSON is joined from the report's head and each
    listed file's memoized entry, and is ``json.dumps`` byte for byte."""

    @pytest.mark.parametrize("report", [
        AnalysisReport("WAPe", "/srv/empty"), make_report(),
        make_full_report()], ids=["empty", "parse-error", "full"])
    @pytest.mark.parametrize("extra", [
        {}, {"service": {"request_id": "req-1", "dirty": ["pâge.php"]},
             "delta": {"new": [], "counts": {"new": 0}}}],
        ids=["bare", "service-and-delta"])
    def test_joined_body_is_json_dumps_of_to_dict(self, report, extra):
        head = report.head()
        head.update(extra)
        data = report.to_dict()
        data.update(extra)
        body = encode_report(head, report.encoded_files())
        assert body == json.dumps(data, sort_keys=True).encode("utf-8")
        # a second join reuses every entry's bytes
        assert encode_report(head, report.encoded_files()) == body

    def test_to_dict_is_the_head_plus_the_listed_entries(self):
        report = make_full_report()
        data = report.to_dict()
        assert list(data) == list(report.head()) + ["files"]
        assert [e["path"] for e in data["files"]] == \
            [f.filename for f in report.listed_files()] == \
            [f.filename for f in report.files[1:]]
        assert AnalysisReport("WAPe", "x").to_dict()["files"] == []

    def test_entry_memo_is_keyed_by_target_and_groups(self):
        report = finding_report()
        groups = {"xss": "XSS"}
        first = encoded_entry(report, groups, "/srv/app")
        assert encoded_entry(report, dict(groups), "/srv/app") is first

        def fresh(groups, target):
            return json.dumps(file_report_dict(finding_report(), groups,
                                               target), sort_keys=True)

        moved = encoded_entry(report, groups, "/srv")
        assert moved.decode("ascii") == fresh(groups, "/srv")
        fingerprint = json.loads(moved)["findings"][0]["fingerprint"]
        assert fingerprint != \
            json.loads(first)["findings"][0]["fingerprint"]
        assert json.loads(moved)["path"] == "/srv/app/pâge.php"
        regrouped = encoded_entry(report, {"xss": "Scripts"}, "/srv")
        assert regrouped.decode("ascii") == fresh({"xss": "Scripts"}, "/srv")
        assert json.loads(regrouped)["findings"][0]["group"] == "Scripts"
        assert encoded_entry(report, groups, "/srv/app") == first


class TestUpgrade:
    def test_v1_is_lifted_to_current(self):
        out = upgrade_report_dict(make_v1_dict())
        assert out["schema_version"] == SCHEMA_VERSION
        assert out["cache"] is None
        assert out["stats"] is None
        assert out["service"] is None
        assert out["summary"]["real_vulnerabilities"] == 0
        assert out["summary"]["by_class"] == {}
        entry = out["files"][0]
        assert entry["parse_warning"] is None
        assert entry["resolved_includes"] == 0

    def test_v1_existing_values_survive(self):
        out = upgrade_report_dict(make_v1_dict())
        assert out["summary"]["files"] == 1
        assert out["files"][0]["path"] == "app/a.php"

    def test_upgrade_does_not_mutate_input(self):
        original = make_v1_dict()
        snapshot = json.loads(json.dumps(original))
        upgrade_report_dict(original)
        assert original == snapshot

    def test_current_version_passes_through(self):
        data = make_report().to_dict()
        assert upgrade_report_dict(data) == data


class TestRejection:
    def test_newer_version_is_rejected(self):
        data = make_report().to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ReportSchemaError, match="upgrade the reader"):
            upgrade_report_dict(data)

    @pytest.mark.parametrize("version", ["2", 2.0, True, 0, -1, None])
    def test_malformed_version_marker(self, version):
        data = make_v1_dict()
        data["schema_version"] = version
        with pytest.raises(ReportSchemaError, match="schema_version"):
            upgrade_report_dict(data)

    @pytest.mark.parametrize("missing", ["tool", "target", "summary",
                                         "files"])
    def test_missing_required_key(self, missing):
        data = make_v1_dict()
        del data[missing]
        with pytest.raises(ReportSchemaError, match=missing):
            upgrade_report_dict(data)

    def test_non_object_report(self):
        with pytest.raises(ReportSchemaError, match="JSON object"):
            upgrade_report_dict([1, 2, 3])

    def test_invalid_json_text(self):
        with pytest.raises(ReportSchemaError, match="not valid JSON"):
            load_report_dict("{nope")
