"""Taint analysis: the code-analyzer module of WAP (Fig. 1, box 1).

Public surface:

* :class:`~repro.analysis.model.DetectorConfig` — the (ep, ss, san) triple
  configuring one vulnerability class;
* :class:`~repro.analysis.engine.TaintEngine` — the generic multi-class
  taint engine;
* :class:`~repro.analysis.detector.Detector` — source/program-level driver;
* :func:`~repro.analysis.detector.generate_detector` — the vulnerability
  detector generator (new classes with zero code);
* :mod:`~repro.analysis.pipeline` — the fused single-pass engine, the
  parallel scan scheduler (the one way to scan a tree) and the
  content-hash result cache;
* :mod:`~repro.analysis.knowledge` — external ep/ss/san file I/O.
"""

from repro.analysis.detector import (  # noqa: F401
    DEFAULT_ENTRY_POINTS,
    Detector,
    FileResult,
    generate_detector,
)
from repro.analysis.engine import GUARD_FUNCTIONS, TaintEngine  # noqa: F401
from repro.analysis.includes import (  # noqa: F401
    IncludeContext,
    IncludeGraph,
    IncludeResolver,
    build_function_table,
    build_include_graph,
)
from repro.analysis.options import ScanOptions  # noqa: F401
from repro.analysis.knowledge import (  # noqa: F401
    extend_config,
    load_config,
    load_registry,
    parse_sink_line,
    render_sink_line,
    save_config,
    save_registry,
)
from repro.analysis.pipeline import (  # noqa: F401
    ConfigGroup,
    FusedDetector,
    ResultCache,
    ScanScheduler,
    closure_key,
    config_fingerprint,
)
from repro.analysis.model import (  # noqa: F401
    SINK_ECHO,
    SINK_FUNCTION,
    SINK_INCLUDE,
    SINK_METHOD,
    SINK_SHELL,
    SINK_STATIC,
    CandidateVulnerability,
    DetectorConfig,
    FunctionSummary,
    PathStep,
    SinkSpec,
    Taint,
)

__all__ = [
    "DEFAULT_ENTRY_POINTS",
    "ConfigGroup",
    "FusedDetector",
    "ResultCache",
    "ScanScheduler",
    "config_fingerprint",
    "IncludeContext",
    "IncludeGraph",
    "IncludeResolver",
    "build_function_table",
    "build_include_graph",
    "ScanOptions",
    "closure_key",
    "Detector",
    "FileResult",
    "generate_detector",
    "GUARD_FUNCTIONS",
    "TaintEngine",
    "extend_config",
    "load_config",
    "save_config",
    "load_registry",
    "save_registry",
    "parse_sink_line",
    "render_sink_line",
    "CandidateVulnerability",
    "DetectorConfig",
    "FunctionSummary",
    "PathStep",
    "SinkSpec",
    "Taint",
    "SINK_ECHO",
    "SINK_FUNCTION",
    "SINK_INCLUDE",
    "SINK_METHOD",
    "SINK_SHELL",
    "SINK_STATIC",
]
