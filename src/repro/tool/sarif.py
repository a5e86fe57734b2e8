"""SARIF 2.1.0 export: findings in the lingua franca of code review.

Every modern code-review surface (GitHub code scanning, VS Code SARIF
viewers, Gerrit checks) ingests SARIF, so the tool's reports should not
need a bespoke adapter per consumer.  :func:`report_to_sarif` converts
any report dict the tool can read (the input is upgraded to the current
schema first) into one SARIF run:

* one ``rule`` per vulnerability class that actually fired, so viewers
  group findings the way the paper's tables do;
* one ``result`` per finding — real vulnerabilities at ``error`` level,
  predicted false positives demoted to ``note`` so they render as
  informational rather than blocking;
* the full data-flow path as a ``codeFlow`` (one thread flow, one
  location per taint hop), which is what makes the finding reviewable
  without re-running the tool;
* the v3 stable fingerprint as ``partialFingerprints`` under the
  :data:`~repro.tool.report.FINGERPRINT_ALGORITHM` key, so SARIF
  consumers track finding identity across commits exactly like the
  tool's own baseline diff does.

Determinism: ``results`` are sorted by fingerprint (then sink line for
the impossible tie), ``rules`` by id — two scans that agree on every
finding serialize byte-identically.

All location URIs are target-relative POSIX paths
(:func:`~repro.tool.report.normalize_finding_path`), never absolute:
the SARIF file must mean the same thing on the machine that reads it as
on the machine that wrote it.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat

from repro.tool.report import (
    FINGERPRINT_ALGORITHM,
    normalize_finding_path,
    upgrade_report_dict,
)

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

#: SARIF result level per predictor verdict.
_LEVELS = {"real": "error", "false_positive": "note"}


def _location(uri: str, line) -> dict:
    region = {"startLine": int(line)} if isinstance(line, int) \
        and line > 0 else {"startLine": 1}
    return {
        "physicalLocation": {
            "artifactLocation": {"uri": uri},
            "region": region,
        },
    }


def _code_flow(finding: dict, uri: str, target: str) -> dict:
    locations = []
    for step in finding.get("path") or ():
        hop_file = step.get("file")
        hop_uri = normalize_finding_path(str(hop_file), target) \
            if hop_file else uri
        location = _location(hop_uri, step.get("line"))
        location["message"] = {
            "text": f"{step.get('kind', '?')}: {step.get('detail', '')}"}
        locations.append({"location": location})
    return {"threadFlows": [{"locations": locations}]}


def _result(finding: dict, entry_path: str, target: str) -> dict:
    uri = normalize_finding_path(entry_path, target)
    verdict = finding.get("verdict", "real")
    group = finding.get("group", str(finding.get("class", "")).upper())
    message = (f"{group}: tainted data from "
               f"{finding.get('entry_point', '?')} (line "
               f"{finding.get('entry_line', '?')}) reaches "
               f"{finding.get('sink', '?')}")
    if verdict != "real":
        message += " [predicted false positive]"
    result = {
        "ruleId": str(finding.get("class", "")),
        "level": _LEVELS.get(verdict, "warning"),
        "message": {"text": message},
        "locations": [_location(uri, finding.get("sink_line"))],
        "partialFingerprints": {
            FINGERPRINT_ALGORITHM: finding.get("fingerprint", "")},
    }
    if finding.get("path"):
        result["codeFlows"] = [_code_flow(finding, uri, target)]
    return result


def report_to_sarif(data: dict) -> dict:
    """Convert a report dict (any readable version) to a SARIF log.

    Raises :class:`~repro.exceptions.ReportSchemaError` on input this
    tool cannot read, exactly like :func:`upgrade_report_dict`.
    """
    data = upgrade_report_dict(data)
    target = str(data.get("target", ""))

    classes: dict[str, str] = {}
    results: list[dict] = []
    for entry in data.get("files") or ():
        entry_path = str(entry.get("path", ""))
        for finding in entry.get("findings") or ():
            class_id = str(finding.get("class", ""))
            classes.setdefault(
                class_id,
                str(finding.get("group", class_id.upper())))
            results.append(_result(finding, entry_path, target))
    results.sort(key=lambda r: (
        r["partialFingerprints"][FINGERPRINT_ALGORITHM],
        r["locations"][0]["physicalLocation"]["region"]["startLine"]))

    rules = [
        {
            "id": class_id,
            "name": class_id.upper(),
            "shortDescription": {
                "text": f"{group} input validation vulnerability"},
            "properties": {"group": group},
        }
        for class_id, group in sorted(classes.items())
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "wape",
                        "version": str(data.get("tool", "")),
                        "rules": rules,
                    },
                },
                "originalUriBaseIds": {
                    "SRCROOT": {
                        "description": {
                            "text": f"scan target: "
                                    f"{os.path.basename(target) or target}"
                        },
                    },
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            },
        ],
    }


def encode_sarif(data: dict) -> str:
    """*data*'s SARIF log as the CLI and the daemon send it: compact,
    keys sorted, one trailing newline; unindented, so the C encoder runs."""
    return json.dumps(report_to_sarif(data), separators=(",", ":"),
                      sort_keys=True) + "\n"


def write_sarif(path: str, data: dict) -> None:
    """Write :func:`encode_sarif` of *data* to *path*; input this tool
    cannot read raises before *path* is opened.

    A regular file that already holds those bytes is left alone: its
    size is compared first, then its bytes.  Truncating a file written
    a moment before can wait on the disk's writeback of the old bytes,
    and an unchanged warm re-scan would pay that wait every time.
    """
    encoded = encode_sarif(data).encode("utf-8")
    with contextlib.suppress(OSError):  # no such file: write it
        info = os.stat(path)
        if stat.S_ISREG(info.st_mode) and info.st_size == len(encoded):
            with open(path, "rb") as f:
                if f.read() == encoded:
                    return
    with open(path, "wb") as f:
        f.write(encoded)
