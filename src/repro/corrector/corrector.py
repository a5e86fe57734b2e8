"""The code corrector (Fig. 1, box 3).

Receives the real vulnerabilities (candidates the predictor did not dismiss)
and modifies the source: the tainted argument of each sensitive sink is
wrapped in a call to the class's fix function, and the fix function itself
is inserted once at the top of the file — fixes live "in the line of the
sensitive sink, as in the original WAP" (§III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import CorrectionError
from repro.php import ast, parse, unparse
from repro.php.source import content_bytes, source_text
from repro.analysis.model import (
    SINK_ECHO,
    SINK_INCLUDE,
    SINK_SHELL,
    CandidateVulnerability,
)
from repro.corrector.fixes import CLASS_FIXES, builtin_fixes
from repro.corrector.templates import Fix


@dataclass(frozen=True)
class AppliedFix:
    """Record of one fix application."""

    vuln_class: str
    fix_id: str
    sink_name: str
    sink_line: int


@dataclass
class CorrectionResult:
    """Outcome of correcting one file."""

    source: str
    applied: list[AppliedFix] = field(default_factory=list)
    skipped: list[CandidateVulnerability] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        return bool(self.applied)


class CodeCorrector:
    """Applies fixes to PHP source given candidate vulnerabilities."""

    def __init__(self, fixes: dict[str, Fix] | None = None,
                 class_fixes: dict[str, str] | None = None) -> None:
        self.fixes = dict(builtin_fixes() if fixes is None else fixes)
        self.class_fixes = dict(CLASS_FIXES if class_fixes is None
                                else class_fixes)

    # ------------------------------------------------------------------
    def register_fix(self, vuln_class: str, fix: Fix) -> None:
        """Plug in a weapon's fix for a (possibly new) class (§III-D)."""
        self.fixes[fix.fix_id] = fix
        self.class_fixes[vuln_class] = fix.fix_id

    def fix_for(self, vuln_class: str) -> Fix | None:
        fix_id = self.class_fixes.get(vuln_class)
        return self.fixes.get(fix_id) if fix_id else None

    # ------------------------------------------------------------------
    def correct_source(self, source: str,
                       candidates: list[CandidateVulnerability],
                       filename: str = "<source>") -> CorrectionResult:
        """Return corrected source for *candidates* (real vulnerabilities).

        Unknown classes and unlocatable sinks are recorded in ``skipped``
        rather than raising — correction is best-effort per candidate.
        The text parsed is the detector's (:mod:`repro.php.source`).
        """
        program = parse(source_text(content_bytes(source)), filename)
        result = CorrectionResult(source)
        needed_helpers: dict[str, Fix] = {}

        for cand in candidates:
            fix = self.fix_for(cand.vuln_class)
            if fix is None:
                result.skipped.append(cand)
                continue
            if self._apply_one(program, cand, fix):
                result.applied.append(AppliedFix(
                    cand.vuln_class, fix.fix_id, cand.sink_name,
                    cand.sink_line))
                needed_helpers[fix.fix_id] = fix
            else:
                result.skipped.append(cand)

        if result.applied:
            self._insert_helpers(program, needed_helpers)
            result.source = unparse(program)
        return result

    def correct_file(self, path: str,
                     candidates: list[CandidateVulnerability],
                     output_path: str | None = None) -> CorrectionResult:
        """Correct a file on disk (in place unless *output_path* given)."""
        with open(path, "rb") as f:
            source = source_text(f.read())
        result = self.correct_source(source, candidates, path)
        if result.changed:
            with open(output_path or path, "w", encoding="utf-8") as f:
                f.write(result.source)
        return result

    # ------------------------------------------------------------------
    def _apply_one(self, program: ast.Program,
                   cand: CandidateVulnerability, fix: Fix) -> bool:
        target = self._find_sink(program, cand)
        if target is None:
            return False
        return self._wrap_target(target, cand, fix)

    @staticmethod
    def _find_sink(program: ast.Program,
                   cand: CandidateVulnerability) -> ast.Node | None:
        sink = cand.sink_name.lower()
        for node in program.walk():
            if node.line != cand.sink_line:
                continue
            if isinstance(node, (ast.FunctionCall, ast.MethodCall,
                                 ast.StaticCall)):
                name = node.name if isinstance(node.name, str) else ""
                if name.lower().lstrip("\\") == sink:
                    return node
            elif isinstance(node, ast.Echo) and sink == "echo":
                return node
            elif isinstance(node, ast.PrintExpr) and sink == "print":
                return node
            elif isinstance(node, ast.ExitExpr) and sink == "exit":
                return node
            elif isinstance(node, ast.Include) and \
                    cand.sink_kind == SINK_INCLUDE:
                return node
            elif isinstance(node, ast.ShellExec) and \
                    cand.sink_kind == SINK_SHELL:
                return node
        return None

    def _wrap_target(self, target: ast.Node,
                     cand: CandidateVulnerability, fix: Fix) -> bool:
        wrapped = False
        if isinstance(target, (ast.FunctionCall, ast.MethodCall,
                               ast.StaticCall)):
            positions = (cand.tainted_args if cand.tainted_args
                         else range(len(target.args)))
            for pos in positions:
                if pos >= len(target.args):
                    continue
                arg = target.args[pos]
                if _is_trivial(arg.value) or _already_wrapped(arg.value,
                                                              fix.fix_id):
                    continue
                arg.value = _wrap(arg.value, fix.fix_id)
                wrapped = True
        elif isinstance(target, ast.Echo):
            for i, expr in enumerate(target.exprs):
                if _is_trivial(expr) or _already_wrapped(expr, fix.fix_id):
                    continue
                target.exprs[i] = _wrap(expr, fix.fix_id)
                wrapped = True
        elif isinstance(target, (ast.PrintExpr, ast.ExitExpr,
                                 ast.Include)):
            expr = target.expr
            if expr is not None and not _is_trivial(expr) and \
                    not _already_wrapped(expr, fix.fix_id):
                target.expr = _wrap(expr, fix.fix_id)
                wrapped = True
        elif isinstance(target, ast.ShellExec):
            for i, part in enumerate(target.parts):
                if isinstance(part, ast.Literal):
                    continue
                if _already_wrapped(part, fix.fix_id):
                    continue
                target.parts[i] = _wrap(part, fix.fix_id)
                wrapped = True
        return wrapped

    def _insert_helpers(self, program: ast.Program,
                        helpers: dict[str, Fix]) -> None:
        existing = {node.name.lower() for node in program.walk()
                    if isinstance(node, ast.FunctionDecl)}
        decls: list[ast.Node] = []
        for fix_id, fix in sorted(helpers.items()):
            if fix_id.lower() in existing:
                continue
            try:
                helper_ast = parse("<?php " + fix.helper_code)
            except Exception as exc:  # pragma: no cover - helper is ours
                raise CorrectionError(
                    f"fix helper {fix_id} does not parse: {exc}") from exc
            decls.extend(n for n in helper_ast.body
                         if isinstance(n, ast.FunctionDecl))
        program.body[:0] = decls


def _is_trivial(node: ast.Node) -> bool:
    """Pure literals need no sanitization wrapper."""
    return isinstance(node, (ast.Literal, ast.ConstFetch))


def _already_wrapped(node: ast.Node, fix_id: str) -> bool:
    return isinstance(node, ast.FunctionCall) and \
        isinstance(node.name, str) and node.name.lower() == fix_id.lower()


def _wrap(node: ast.Node, fix_id: str) -> ast.FunctionCall:
    return ast.FunctionCall(fix_id, [ast.Argument(node,
                                                  line=node.line,
                                                  col=node.col)],
                            line=node.line, col=node.col)
