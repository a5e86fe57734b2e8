"""Detectors and the vulnerability detector generator (Fig. 2, box 4).

A :class:`Detector` bundles one or more
:class:`~repro.analysis.model.DetectorConfig` objects with a
:class:`~repro.analysis.engine.TaintEngine` and exposes ``detect`` over
source text or a parsed program.  Files and trees go through the scan
pipeline (:mod:`repro.analysis.pipeline`), which owns the one tree
walker, :meth:`~repro.analysis.pipeline.ScanScheduler.discover`.

:func:`generate_detector` is the *vulnerability detector generator*: given
only the (ep, ss, san) data for a brand-new vulnerability class it returns a
working detector — no code is written, which is the paper's headline
property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.php import ast, parse
from repro.php.source import content_bytes, source_text
from repro.analysis.engine import TaintEngine
from repro.analysis.model import (
    CandidateVulnerability,
    DetectorConfig,
    SinkSpec,
)

#: superglobals every injection class treats as entry points by default.
DEFAULT_ENTRY_POINTS = frozenset({
    "_GET", "_POST", "_COOKIE", "_REQUEST", "_FILES", "_SERVER",
})

PHP_EXTENSIONS = (".php", ".php3", ".php4", ".php5", ".phtml", ".inc")


@dataclass
class FileResult:
    """Detection output for one file."""

    filename: str
    candidates: list[CandidateVulnerability] = field(default_factory=list)
    lines_of_code: int = 0
    parse_error: str | None = None
    seconds: float = 0.0
    #: set when the parser recovered from damaged statements: the first
    #: skipped syntax error (the file was still analyzed).
    parse_warning: str | None = None
    #: number of damaged statements recovery skipped over.
    recovered_statements: int = 0
    #: include statements statically resolved / not resolved in this file.
    resolved_includes: int = 0
    unresolved_includes: int = 0


class Detector:
    """Runs taint analysis for a fixed set of vulnerability classes."""

    def __init__(self, configs: list[DetectorConfig]) -> None:
        self.configs = list(configs)
        self.engine = TaintEngine(self.configs)

    @property
    def class_ids(self) -> list[str]:
        return [c.class_id for c in self.configs]

    # ------------------------------------------------------------------
    def detect_program(self, program: ast.Program,
                       filename: str = "<source>"
                       ) -> list[CandidateVulnerability]:
        """Analyze an already-parsed program."""
        return self.engine.analyze(program, filename)

    def detect_source(self, source: str | bytes, filename: str = "<source>"
                      ) -> list[CandidateVulnerability]:
        """Parse and analyze PHP source (see :mod:`repro.php.source`)."""
        text = source_text(content_bytes(source))
        return self.detect_program(parse(text, filename), filename)


def generate_detector(
        class_id: str,
        sensitive_sinks: list[str | SinkSpec],
        sanitizers: list[str] = (),
        entry_points: list[str] = (),
        source_functions: list[str] = (),
        sanitizer_methods: list[str] = (),
        display_name: str | None = None,
) -> Detector:
    """The vulnerability detector generator (§III-A, sub-module 4).

    Builds a ready-to-run detector for a *new* vulnerability class from the
    user-supplied data alone.

    Args:
        class_id: short identifier, e.g. ``"nosqli"``.
        sensitive_sinks: sink names (strings are treated as plain function
            sinks; prefix with ``->`` for method sinks) or prebuilt
            :class:`SinkSpec` objects.
        sanitizers: sanitization function names.
        entry_points: *extra* superglobal names beyond the defaults.
        source_functions: functions whose return value is tainted
            (non-native entry points, e.g. WordPress helpers).
        sanitizer_methods: method names acting as sanitizers
            (e.g. ``prepare`` for ``$wpdb->prepare``).
        display_name: human-readable name for reports.

    Returns:
        A :class:`Detector` for the new class.
    """
    from repro.analysis.knowledge import parse_sink_line

    sinks: list[SinkSpec] = []
    for sink in sensitive_sinks:
        if isinstance(sink, SinkSpec):
            sinks.append(sink)
        else:
            sinks.append(parse_sink_line(sink))
    config = DetectorConfig(
        class_id=class_id,
        display_name=display_name or class_id.upper(),
        entry_points=DEFAULT_ENTRY_POINTS | frozenset(
            e.lstrip("$") for e in entry_points),
        source_functions=frozenset(f.lower().rstrip("()")
                                   for f in source_functions),
        sinks=tuple(sinks),
        sanitizers=frozenset(s.lower() for s in sanitizers),
        sanitizer_methods=frozenset(s.lower() for s in sanitizer_methods),
    )
    return Detector([config])
