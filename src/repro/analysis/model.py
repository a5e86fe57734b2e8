"""Data model of the taint analysis.

The taint analyzer tracks *taints* — records of untrusted data originating at
an entry point — through assignments, string building and function calls.
When a taint reaches a *sensitive sink* for some vulnerability class, a
:class:`CandidateVulnerability` is produced: the paper's "tree describing a
candidate vulnerable data-flow path" (§II), which both the false-positive
predictor and the code corrector consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

# path step kinds, in the order they typically appear
STEP_SOURCE = "source"          # read of an entry point
STEP_ASSIGN = "assign"          # $x = <tainted>
STEP_CONCAT = "concat"          # '...' . <tainted> or interpolation
STEP_CALL = "call"              # <tainted> passed through a function
STEP_GUARD = "guard"            # validation applied in a condition
STEP_PARAM = "param"            # entered a user function as a parameter
STEP_RETURN = "return"          # returned from a user function
STEP_SINK = "sink"              # reached the sensitive sink


@dataclass(frozen=True, slots=True)
class PathStep:
    """One hop of a tainted data-flow path.

    Attributes:
        kind: one of the ``STEP_*`` constants.
        detail: what happened — a variable name for assigns, a function
            name for calls/guards, the sink name for the final step.
        line: source line of the hop.
        file: file the hop happened in; empty means "the candidate's own
            file" (only cross-file analysis stamps foreign hops).
    """

    kind: str
    detail: str
    line: int
    file: str = ""


@dataclass(frozen=True, slots=True)
class Taint:
    """An untrusted value flowing through the program.

    Attributes:
        source: entry point description, e.g. ``$_GET['id']``.
        source_line: line where the entry point was read.
        path: hops the data took since the source (newest last).
        sanitized_for: vulnerability-class ids this value has been
            sanitized against; a sink of class C ignores taints with C here.
    """

    source: str
    source_line: int
    path: tuple[PathStep, ...] = ()
    sanitized_for: frozenset[str] = frozenset()

    def step(self, kind: str, detail: str, line: int) -> "Taint":
        """Return a copy with one more path hop appended."""
        return Taint(self.source, self.source_line,
                     self.path + (PathStep(kind, detail, line),),
                     self.sanitized_for)

    def sanitize(self, class_ids: Iterable[str], func: str,
                 line: int) -> "Taint":
        """Return a copy marked sanitized for *class_ids* (by *func*)."""
        return Taint(self.source, self.source_line,
                     self.path + (PathStep(STEP_CALL, func, line),),
                     self.sanitized_for | frozenset(class_ids))

    @property
    def passed_functions(self) -> tuple[str, ...]:
        """Names of every function the data passed through (symptom input)."""
        return tuple(s.detail for s in self.path
                     if s.kind in (STEP_CALL, STEP_GUARD))


EMPTY: frozenset[Taint] = frozenset()


def union(*sets: frozenset[Taint]) -> frozenset[Taint]:
    """Union of taint sets (the lattice join)."""
    out: set[Taint] = set()
    for s in sets:
        out |= s
    return frozenset(out)


# ---------------------------------------------------------------------------
# sink / detector configuration
# ---------------------------------------------------------------------------

SINK_FUNCTION = "function"      # plain function call:  mysql_query($q)
SINK_METHOD = "method"          # method call:          $wpdb->query($q)
SINK_STATIC = "static"          # static call:          Db::query($q)
SINK_ECHO = "echo"              # echo/print/<?= of tainted data
SINK_INCLUDE = "include"        # include/require of tainted path
SINK_SHELL = "shell"            # backtick shell-exec with tainted data
SINK_EVAL = "eval"              # eval-like construct


@dataclass(frozen=True, slots=True)
class SinkSpec:
    """A sensitive sink for one vulnerability class.

    Attributes:
        name: function/method name (lowercase); empty for echo/include/shell.
        kind: one of the ``SINK_*`` constants.
        arg_positions: 0-based argument indices that are dangerous; ``None``
            means any argument.
        receiver_hint: for method sinks, a substring that must appear in the
            receiver expression (e.g. ``wpdb``); ``None`` matches any
            receiver.
    """

    name: str = ""
    kind: str = SINK_FUNCTION
    arg_positions: tuple[int, ...] | None = None
    receiver_hint: str | None = None


@dataclass(frozen=True)
class DetectorConfig:
    """Everything the generic taint engine needs for ONE vulnerability class.

    This is the paper's (ep, ss, san) triple (§III-A): entry points,
    sensitive sinks and sanitization functions, plus engine details such as
    method-sanitizers (``$wpdb->prepare``) and taint-returning source
    functions (WordPress's ``get_query_var`` style non-native entry points).
    """

    class_id: str
    display_name: str = ""
    entry_points: frozenset[str] = frozenset()        # superglobal names
    source_functions: frozenset[str] = frozenset()    # tainted-return funcs
    sinks: tuple[SinkSpec, ...] = ()
    sanitizers: frozenset[str] = frozenset()          # function names
    sanitizer_methods: frozenset[str] = frozenset()   # method names
    untaint_casts: frozenset[str] = frozenset({"int", "float", "bool"})

    def sink_functions(self) -> dict[str, SinkSpec]:
        return {s.name: s for s in self.sinks if s.kind == SINK_FUNCTION}

    def sink_methods(self) -> dict[str, SinkSpec]:
        return {s.name: s for s in self.sinks if s.kind == SINK_METHOD}


# ---------------------------------------------------------------------------
# analysis results
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class CandidateVulnerability:
    """A flagged data flow from an entry point to a sensitive sink.

    The taint analyzer reports these; the false positive predictor then
    decides whether each is a real vulnerability or a false alarm.

    Attributes:
        vuln_class: class id (``sqli``, ``xss``, ...).
        filename: file the sink is in.
        sink_name: the sink function/construct name (``mysql_query``,
            ``echo``, ``include`` ...).
        sink_line: line of the sink.
        entry_point: description of the source, e.g. ``$_GET['id']``.
        entry_line: line of the source read.
        path: full hop list source → sink.
        sink_kind: the ``SINK_*`` kind that matched.
        tainted_args: indices of the sink arguments that were tainted.
    """

    vuln_class: str
    filename: str
    sink_name: str
    sink_line: int
    entry_point: str
    entry_line: int
    path: tuple[PathStep, ...]
    sink_kind: str = SINK_FUNCTION
    tainted_args: tuple[int, ...] = ()
    context: str = ""

    @property
    def passed_functions(self) -> tuple[str, ...]:
        """Functions the tainted data passed through (symptom input)."""
        return tuple(s.detail for s in self.path
                     if s.kind in (STEP_CALL, STEP_GUARD))

    @property
    def guards(self) -> tuple[str, ...]:
        """Validation guards observed on the path."""
        return tuple(s.detail for s in self.path if s.kind == STEP_GUARD)

    def key(self) -> tuple:
        """Deduplication key: one report per (class, sink, source)."""
        return (self.vuln_class, self.filename, self.sink_line,
                self.sink_name, self.entry_point)

    def provenance(self, prediction=None, sanitizers: Iterable[str] = ()):
        """Explained decision trace of this candidate's path.

        See :func:`repro.telemetry.provenance.build_provenance` (imported
        lazily: provenance depends on this module).
        """
        from repro.telemetry.provenance import build_provenance
        return build_provenance(self, prediction, sanitizers)


@dataclass
class FunctionSummary:
    """Inter-procedural summary of one user-defined function.

    Attributes:
        name: lowercase function name (``class::method`` for methods).
        filename: file the function is declared in (candidate attribution
            for cross-file analysis).
        param_names: declared parameter names in order.
        returns_params: map param index -> path steps if that parameter can
            flow to the return value.
        return_sanitized_for: class ids the returned value is sanitized for
            when it derives from a parameter (a *user sanitizer*).
        param_sinks: flows parameter -> sink inside the body:
            (param index, class id, sink name, sink kind, line, steps).
        internal_candidates: entry-point flows fully inside the body.
        returned_sources: entry-point taints the function returns — the
            function acts as a taint *source* for its callers (e.g. a
            ``get()`` method reading a superglobal).
    """

    name: str
    param_names: list[str] = field(default_factory=list)
    filename: str = ""
    returns_params: dict[int, tuple[PathStep, ...]] = field(
        default_factory=dict)
    return_sanitized_for: frozenset[str] = frozenset()
    param_sinks: list[tuple[int, str, str, str, int, tuple[PathStep, ...]]] = \
        field(default_factory=list)
    internal_candidates: list[CandidateVulnerability] = field(
        default_factory=list)
    returned_sources: list[Taint] = field(default_factory=list)
