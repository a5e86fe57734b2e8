"""Analysis reports: the structured output of a tool run.

A run produces one :class:`FileReport` per file and an
:class:`AnalysisReport` for the whole target.  Counting conventions follow
the paper's tables:

* a *candidate* is anything the taint analyzer flags;
* a *real vulnerability* is a candidate the predictor did not classify as a
  false positive (these are what Tables V-VII count);
* *FPP* is the number of candidates predicted to be false positives;
* per-class columns use report groups: DT & RFI, LFI collapse into
  "Files", and WordPress SQLI counts as "SQLI" (Tables VI, VII).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.model import CandidateVulnerability
from repro.cache import RESULT, CacheStats
from repro.exceptions import ReportSchemaError
from repro.mining.predictor import Prediction
from repro.telemetry.stats import PrefilterStats, ScanStats, cache_lines

#: current JSON report schema (``docs/report-schema.md``).  Version 1 is
#: the historical ad-hoc dict emitted before the schema was versioned;
#: bump this whenever a field is added, removed or changes meaning, and
#: teach :func:`upgrade_report_dict` how to lift the previous version.
SCHEMA_VERSION = 3

#: fingerprint algorithm tag — the ``partialFingerprints`` key in SARIF
#: exports and the first token of the hashed material.  Bump the suffix
#: whenever the material changes: fingerprints from different algorithm
#: versions must never be compared as equal identities.
FINGERPRINT_ALGORITHM = "wapeFingerprint/v1"

#: keys every versioned report must carry at the top level.
_REQUIRED_KEYS = ("tool", "target", "summary", "files")

#: the daemon's report JSON: ``json.dumps(obj, sort_keys=True)``, whose
#: output is ASCII (``ensure_ascii``), one encoder for entries and heads.
_ENCODE = json.JSONEncoder(sort_keys=True).encode

#: summary counters (with their empty-report defaults) that version 1
#: reports may lack, depending on how old the producing tool was.
_SUMMARY_DEFAULTS = (
    ("files", 0), ("lines", 0), ("seconds", 0.0), ("candidates", 0),
    ("real_vulnerabilities", 0), ("predicted_false_positives", 0),
    ("parse_errors", 0), ("parse_warnings", 0),
    ("recovered_statements", 0), ("resolved_includes", 0),
    ("unresolved_includes", 0), ("by_class", {}),
)


def normalize_finding_path(path: str, target: str) -> str:
    """*path* as a stable, target-relative POSIX path.

    Finding identities and delta/SARIF locations must survive a checkout
    living somewhere else (CI scans ``/home/runner/...``, the committed
    baseline came from ``/Users/dev/...``), so absolute paths are
    relativized against the report's target.  A path that does not live
    under the target (or a non-path target like ``<source>``) falls back
    to its basename — still stable, just less specific.
    """
    try:
        rel = os.path.relpath(path, target)
    except ValueError:  # pragma: no cover - windows drive mismatch
        rel = None
    if rel is None or rel == "." or rel.startswith(".." + os.sep) \
            or rel == "..":
        return os.path.basename(path)
    return rel.replace(os.sep, "/")


def finding_fingerprint_material(finding: dict, path: str,
                                 target: str) -> str:
    """The pre-hash identity string of one finding.

    Deliberately line-free: the identity is the vulnerability class, the
    sink name, the sink file (target-relative), the entry point and the
    *shape* of the data-flow path — each hop's kind and detail, with
    cross-file hops pinned by basename.  Inserting blank lines above a
    sink, reformatting, or moving the checkout all keep the material
    stable; a genuinely new flow (different sink, source or hop
    sequence) changes it.
    """
    parts = [
        FINGERPRINT_ALGORITHM,
        str(finding.get("class", "")),
        str(finding.get("sink", "")),
        normalize_finding_path(path, target),
        str(finding.get("entry_point", "")),
    ]
    for step in finding.get("path") or ():
        hop = f"{step.get('kind', '')}:{step.get('detail', '')}"
        hop_file = step.get("file")
        if hop_file:
            hop += f"@{os.path.basename(str(hop_file))}"
        parts.append(hop)
    return "\x1f".join(parts)


def stamp_fingerprints(entry: dict, target: str) -> None:
    """Fill ``fingerprint`` on every finding of one ``files[]`` entry.

    The fingerprint is the SHA-256 (truncated to 20 hex chars) of the
    finding's :func:`finding_fingerprint_material` plus an *ordinal*: the
    occurrence index among same-material findings of the same file, in
    emission (sink line) order.  Two textually identical flows in one
    file therefore get distinct, deterministic identities, and the whole
    computation needs nothing outside the entry — the daemon's streaming
    path stamps each file event with exactly the bytes the batch report
    would carry.

    Findings that already carry a ``fingerprint`` keep it verbatim (the
    v3→v3 upgrade is the identity), but still count toward ordinals so a
    partially stamped entry stays consistent.
    """
    seen: dict[str, int] = {}
    for finding in entry.get("findings") or ():
        material = finding_fingerprint_material(
            finding, str(entry.get("path", "")), target)
        ordinal = seen.get(material, 0)
        seen[material] = ordinal + 1
        if "fingerprint" not in finding:
            digest = hashlib.sha256(
                f"{material}\x1f#{ordinal}".encode("utf-8")).hexdigest()
            finding["fingerprint"] = digest[:20]


def report_fingerprints(data: dict) -> list[str]:
    """Every finding fingerprint of a report dict, in report order."""
    return [finding.get("fingerprint", "")
            for entry in data.get("files") or ()
            for finding in entry.get("findings") or ()]


def upgrade_report_dict(data: dict) -> dict:
    """Lift a parsed JSON report to the current schema, or reject it.

    Returns a new dict whose ``schema_version`` is :data:`SCHEMA_VERSION`.
    Version 1 (the pre-versioning ad-hoc dict) is upgraded in place by
    filling the fields later versions added; a report from a *newer* tool
    or with a malformed version marker raises :class:`ReportSchemaError`
    instead of being half-read silently.
    """
    if not isinstance(data, dict):
        raise ReportSchemaError(
            f"report must be a JSON object, got {type(data).__name__}")
    version = data.get("schema_version", 1)
    if not isinstance(version, int) or isinstance(version, bool) \
            or version < 1:
        raise ReportSchemaError(
            f"malformed schema_version {version!r} (expected a positive "
            f"integer)")
    if version > SCHEMA_VERSION:
        raise ReportSchemaError(
            f"report schema_version {version} is newer than this tool "
            f"supports ({SCHEMA_VERSION}); upgrade the reader")
    missing = [key for key in _REQUIRED_KEYS if key not in data]
    if missing:
        raise ReportSchemaError(
            f"report is missing required key(s) {missing}")
    out = dict(data)
    if version == 1:
        out.setdefault("cache", None)
        out.setdefault("stats", None)
        summary = dict(out.get("summary") or {})
        for key, default in _SUMMARY_DEFAULTS:
            summary.setdefault(key, default)
        out["summary"] = summary
        files = []
        for entry in out.get("files") or []:
            entry = dict(entry)
            entry.setdefault("parse_warning", None)
            entry.setdefault("recovered_statements", 0)
            entry.setdefault("resolved_includes", 0)
            entry.setdefault("unresolved_includes", 0)
            files.append(entry)
        out["files"] = files
    if version < 3:
        # v3: every finding carries a stable content-based fingerprint.
        # Computable from v1/v2 material alone, so old reports (committed
        # CI baselines in particular) upgrade into diffable identities.
        target = str(out.get("target", ""))
        files = []
        for entry in out.get("files") or []:
            entry = dict(entry)
            entry["findings"] = [dict(finding)
                                 for finding in entry.get("findings") or ()]
            stamp_fingerprints(entry, target)
            files.append(entry)
        out["files"] = files
    out.setdefault("service", None)
    out["schema_version"] = SCHEMA_VERSION
    return out


def load_report_dict(text: str) -> dict:
    """Parse serialized report JSON and upgrade it to the current schema."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise ReportSchemaError(f"report is not valid JSON: {exc}") from exc
    return upgrade_report_dict(data)


def file_report_dict(file_report: "FileReport", groups: dict[str, str],
                     target: str | None = None) -> dict:
    """One report ``files[]`` entry as a JSON-serializable dict.

    Shared by :meth:`AnalysisReport.to_dict` and the scan daemon's
    streaming path (``POST /v1/scan?stream=1``), which emits exactly one
    of these per file as its verdicts are finalized — the two must stay
    byte-compatible so stream consumers can reassemble a report.
    *groups* maps class ids to report groups (``AnalysisReport.groups``);
    *target* is the scanned root the fingerprints are relativized
    against (``None`` skips fingerprinting — pre-v3 shape).

    Every call builds a fresh dict the caller may mutate.  The file
    report remembers the fingerprints it was stamped with, per target,
    so a report a warm scan kept is not fingerprinted again.
    """
    f = file_report
    entry = {
        "path": f.filename,
        "lines": f.lines_of_code,
        "seconds": round(f.seconds, 6),
        "parse_error": f.parse_error,
        "parse_warning": f.parse_warning,
        "recovered_statements": f.recovered_statements,
        "resolved_includes": f.resolved_includes,
        "unresolved_includes": f.unresolved_includes,
        "findings": [
            {
                "class": o.vuln_class,
                "group": groups.get(o.vuln_class, o.vuln_class.upper()),
                "sink": o.candidate.sink_name,
                "sink_line": o.candidate.sink_line,
                "entry_point": o.candidate.entry_point,
                "entry_line": o.candidate.entry_line,
                "verdict": "real" if o.is_real else "false_positive",
                "votes": dict(o.prediction.votes),
                "symptoms": sorted(o.prediction.symptoms),
                "path": [
                    {"kind": s.kind, "detail": s.detail, "line": s.line,
                     **({"file": s.file}
                        if s.file and s.file != o.candidate.filename
                        else {})}
                    for s in o.candidate.path
                ],
            }
            for o in f.outcomes
        ],
    }
    if target is not None:
        findings = entry["findings"]
        if f.fingerprint_target == target \
                and len(f.fingerprints) == len(findings):
            for finding, fingerprint in zip(findings, f.fingerprints):
                finding["fingerprint"] = fingerprint
        else:
            stamp_fingerprints(entry, target)
            f.fingerprints = tuple(finding["fingerprint"]
                                   for finding in findings)
            f.fingerprint_target = target
    return entry


def encoded_entry(file_report: "FileReport", groups: dict[str, str],
                  target: str) -> bytes:
    """:func:`file_report_dict` of *file_report* encoded as the daemon's
    report JSON carries it: sorted keys, ASCII bytes.

    The bytes are remembered on the report with the ``(target, groups)``
    they were encoded for, so a report a warm scan kept is not encoded
    again; asked for another target or groups map, the entry is built
    and encoded afresh.  Like the fingerprint memo, only the scanning
    thread writes it, and *groups* must not change once encoded for.
    """
    key = (target, groups)
    if file_report.entry_key != key:
        file_report.entry = _ENCODE(
            file_report_dict(file_report, groups, target)).encode("ascii")
        file_report.entry_key = key
    return file_report.entry


def encode_report(head: dict, files: bytes) -> bytes:
    """The scan daemon's report JSON, joined from its parts.

    *head* holds every top-level key but ``files``
    (:meth:`AnalysisReport.head`, plus what the daemon adds); *files* is
    the encoded entries (:meth:`AnalysisReport.encoded_files`).  The
    result is byte for byte ``json.dumps(report, sort_keys=True)
    .encode()`` of the whole report dict: ``files`` goes where its key
    sorts among the head's keys.
    """
    before = _ENCODE({k: v for k, v in head.items() if k < "files"})
    after = _ENCODE({k: v for k, v in head.items() if k > "files"})
    return b"".join((
        before[:-1].encode("ascii"), b", " if len(before) > 2 else b"",
        b'"files": [', files, b"]",
        b", " if len(after) > 2 else b"", after[1:].encode("ascii")))


@dataclass(frozen=True, slots=True)
class CandidateOutcome:
    """One candidate plus the predictor's verdict."""

    candidate: CandidateVulnerability
    prediction: Prediction

    @property
    def is_real(self) -> bool:
        return not self.prediction.is_false_positive

    @property
    def vuln_class(self) -> str:
        return self.candidate.vuln_class


@dataclass(slots=True)
class FileReport:
    """Per-file analysis outcome.

    A warm :class:`repro.api.Scanner` shares the reports of unchanged
    files between scans, so a report is read-only once built — but for
    the fingerprint memo :func:`file_report_dict` fills lazily and the
    encoded entry :func:`encoded_entry` keeps.
    """

    filename: str
    lines_of_code: int = 0
    seconds: float = 0.0
    outcomes: list[CandidateOutcome] = field(default_factory=list)
    parse_error: str | None = None
    #: first syntax error statement-level recovery skipped over (the file
    #: was still analyzed) and how many statements were dropped.
    parse_warning: str | None = None
    recovered_statements: int = 0
    #: include statements statically resolved / not resolvable in this file.
    resolved_includes: int = 0
    unresolved_includes: int = 0
    #: the findings' fingerprints and the target they were stamped
    #: against, remembered by :func:`file_report_dict`.
    fingerprints: tuple[str, ...] = field(default=(), repr=False,
                                          compare=False)
    fingerprint_target: str | None = field(default=None, repr=False,
                                           compare=False)
    #: the encoded ``files[]`` entry and the ``(target, groups)`` it was
    #: encoded for, remembered by :func:`encoded_entry`.
    entry: bytes | None = field(default=None, repr=False, compare=False)
    entry_key: tuple | None = field(default=None, repr=False,
                                    compare=False)

    @property
    def real(self) -> list[CandidateOutcome]:
        return [o for o in self.outcomes if o.is_real]

    @property
    def predicted_fp(self) -> list[CandidateOutcome]:
        return [o for o in self.outcomes if not o.is_real]

    @property
    def is_vulnerable(self) -> bool:
        return bool(self.real)


@dataclass
class AnalysisReport:
    """Whole-run analysis outcome (one target: app, plugin, or tree)."""

    tool_version: str
    target: str = "<source>"
    files: list[FileReport] = field(default_factory=list)
    #: class id -> report group used for table columns.
    groups: dict[str, str] = field(default_factory=dict)
    #: per-namespace cache behaviour (``result``, ``record``, ``ast``,
    #: ``summary``); populated whenever a cache was used, independently
    #: of telemetry.  The report JSON carries the ``result`` tier.
    cache: dict[str, CacheStats] | None = None
    #: relevance-prefilter tier counts; populated whenever the
    #: prefilter ran, independently of telemetry.  Deliberately NOT
    #: part of :meth:`to_dict`: the prefilter is findings-preserving,
    #: so the report JSON stays identical with it on or off (the counts
    #: surface through ``--stats``, the run ledger and ``/v1/status``).
    prefilter: PrefilterStats | None = None
    #: full scan statistics; populated only when telemetry is enabled.
    stats: ScanStats | None = None

    # ------------------------------------------------------------------
    @property
    def total_files(self) -> int:
        return len(self.files)

    @property
    def total_lines(self) -> int:
        return sum(f.lines_of_code for f in self.files)

    @property
    def total_seconds(self) -> float:
        return sum(f.seconds for f in self.files)

    @property
    def parse_errors(self) -> list[FileReport]:
        return [f for f in self.files if f.parse_error]

    @property
    def parse_warnings(self) -> list[FileReport]:
        return [f for f in self.files if f.parse_warning]

    # ------------------------------------------------------------------
    @property
    def outcomes(self) -> list[CandidateOutcome]:
        return [o for f in self.files for o in f.outcomes]

    @property
    def candidates(self) -> list[CandidateVulnerability]:
        return [o.candidate for o in self.outcomes]

    @property
    def real_vulnerabilities(self) -> list[CandidateOutcome]:
        return [o for o in self.outcomes if o.is_real]

    @property
    def predicted_false_positives(self) -> list[CandidateOutcome]:
        return [o for o in self.outcomes if not o.is_real]

    @property
    def vulnerable_files(self) -> list[FileReport]:
        return [f for f in self.files if f.is_vulnerable]

    # ------------------------------------------------------------------
    def counts_by_class(self, real_only: bool = True) -> Counter:
        pool = self.real_vulnerabilities if real_only else self.outcomes
        return Counter(o.vuln_class for o in pool)

    def counts_by_group(self, real_only: bool = True) -> Counter:
        pool = self.real_vulnerabilities if real_only else self.outcomes
        return Counter(self.group_of(o.vuln_class) for o in pool)

    def group_of(self, class_id: str) -> str:
        return self.groups.get(class_id, class_id.upper())

    # ------------------------------------------------------------------
    def summary_line(self) -> str:
        counts = self.counts_by_group()
        per_class = ", ".join(f"{g}: {n}" for g, n in
                              sorted(counts.items()))
        return (f"{self.target}: {self.total_files} files, "
                f"{self.total_lines} LoC, "
                f"{len(self.real_vulnerabilities)} vulnerabilities "
                f"({per_class}), "
                f"{len(self.predicted_false_positives)} predicted FPs, "
                f"{self.total_seconds:.2f}s")

    def head(self) -> dict:
        """Every top-level key of :meth:`to_dict` but ``files``, in its
        order.  ``service`` is ``None``: the scan daemon fills it with
        request metadata."""
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": self.tool_version,
            "target": self.target,
            "service": None,
            "summary": {
                "files": self.total_files,
                "lines": self.total_lines,
                "seconds": round(self.total_seconds, 4),
                "candidates": len(self.outcomes),
                "real_vulnerabilities": len(self.real_vulnerabilities),
                "predicted_false_positives":
                    len(self.predicted_false_positives),
                "parse_errors": len(self.parse_errors),
                "parse_warnings": len(self.parse_warnings),
                "recovered_statements":
                    sum(f.recovered_statements for f in self.files),
                "resolved_includes":
                    sum(f.resolved_includes for f in self.files),
                "unresolved_includes":
                    sum(f.unresolved_includes for f in self.files),
                "by_class": dict(self.counts_by_group()),
            },
            "cache": self.cache[RESULT].to_dict() if self.cache else None,
            "stats": self.stats.to_dict() if self.stats else None,
        }

    def listed_files(self) -> list[FileReport]:
        """The files the report lists: those with a finding or a parse
        diagnostic."""
        return [f for f in self.files
                if f.outcomes or f.parse_error or f.parse_warning]

    def to_dict(self) -> dict:
        """JSON-serializable representation of the whole report: the
        :meth:`head` plus one ``files`` entry per listed file.

        The layout is versioned: consumers should route parsed dicts
        through :func:`upgrade_report_dict` (or :func:`load_report_dict`)
        rather than assuming a shape.
        """
        data = self.head()
        data["files"] = [file_report_dict(f, self.groups, self.target)
                         for f in self.listed_files()]
        return data

    def encoded_files(self) -> bytes:
        """The listed files' :func:`encoded_entry` bytes, joined as
        :func:`encode_report` takes them."""
        return b", ".join(encoded_entry(f, self.groups, self.target)
                          for f in self.listed_files())

    def render_text(self, show_paths: bool = False) -> str:
        """Human-readable report (what the CLI prints)."""
        lines = [f"== {self.tool_version} analysis of {self.target}",
                 f"   files: {self.total_files}   "
                 f"lines: {self.total_lines}   "
                 f"time: {self.total_seconds:.2f}s"]
        for file_report in self.listed_files():
            lines.append(f"-- {file_report.filename}")
            if file_report.parse_error:
                lines.append(f"   parse error: {file_report.parse_error}")
            if file_report.parse_warning:
                lines.append(
                    f"   parse warning: {file_report.parse_warning} "
                    f"({file_report.recovered_statements} statement(s) "
                    f"skipped, rest of the file analyzed)")
            for outcome in file_report.outcomes:
                cand = outcome.candidate
                verdict = ("real vulnerability" if outcome.is_real
                           else "predicted false positive")
                lines.append(
                    f"   [{self.group_of(cand.vuln_class):>6}] "
                    f"line {cand.sink_line:>4} {cand.sink_name}"
                    f" <- {cand.entry_point} (line {cand.entry_line})"
                    f" : {verdict}")
                if show_paths:
                    for step in cand.path:
                        where = f"{step.file}:" if step.file and \
                            step.file != cand.filename else ""
                        lines.append(f"        {step.kind:>7} "
                                     f"{step.detail} @ {where}{step.line}")
        counts = self.counts_by_group()
        lines.append("== summary")
        for group, count in sorted(counts.items()):
            lines.append(f"   {group:>8}: {count}")
        lines.append(f"   total real: {len(self.real_vulnerabilities)}   "
                     f"predicted FPs: "
                     f"{len(self.predicted_false_positives)}")
        return "\n".join(lines)

    def render_stats(self) -> str:
        """The ``--stats`` footer (falls back to cache/prefilter lines
        when the run had no telemetry)."""
        if self.stats is not None:
            return self.stats.render()
        lines = cache_lines(self.cache[RESULT] if self.cache else None,
                            self.prefilter)
        if not lines:
            return ""
        return "\n".join(["== scan statistics"] + lines)
