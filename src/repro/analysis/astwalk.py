"""The original AST-walking taint engine, kept as a reference oracle.

This module is a verbatim snapshot of ``repro.analysis.engine`` from
before the IR rewrite: a recursive interpreter over the PHP AST with the
exact same abstract domain (taint sets per variable, 2-iteration loop
joins, guard recording, on-demand function summaries).  It is **not used
by the production pipeline** — the differential oracle tests
(``tests/test_ir_oracle.py``) run both engines over the grammar corpus
and the demo application and assert byte-identical findings, which is
what pins the semantics of the compiled IR engine.

One engine instance is configured with any number of
:class:`~repro.analysis.model.DetectorConfig` objects (one per vulnerability
class) and walks a file's AST **once**, tracking taint for all classes
simultaneously.  Per-class behaviour (which sinks fire, which sanitizers
untaint) is resolved through the merged lookup tables built in
``__init__`` — this is what makes the engine reusable by the *vulnerability
detector generator*: a new class is purely new data, never new code.

The abstract domain is a set of :class:`~repro.analysis.model.Taint` values
per variable.  Joins are set unions; loops run two iterations (enough for
loop-carried string accumulation, the pattern that matters for injection
flaws); user functions get on-demand summaries with a recursion guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.php import ast
from repro.analysis.model import (
    EMPTY,
    STEP_ASSIGN,
    STEP_CALL,
    STEP_CONCAT,
    STEP_GUARD,
    STEP_PARAM,
    STEP_RETURN,
    STEP_SINK,
    STEP_SOURCE,
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
    union,
)

Env = dict[str, frozenset]

#: validation functions recognized as *guards* when used in conditions.
#: Guards never untaint — they are recorded on the path as symptoms that the
#: false positive predictor later turns into attributes (Table I).
GUARD_FUNCTIONS = frozenset({
    "is_string", "is_int", "is_integer", "is_long", "is_float", "is_double",
    "is_real", "is_numeric", "is_scalar", "is_null", "is_array", "is_bool",
    "ctype_digit", "ctype_alpha", "ctype_alnum",
    "preg_match", "preg_match_all", "ereg", "eregi",
    "strcmp", "strncmp", "strcasecmp", "strncasecmp", "strnatcmp",
    "in_array", "array_key_exists", "filter_var", "checkdate",
})

#: $_SERVER keys that carry attacker-controlled data.
TAINTED_SERVER_KEYS = frozenset({
    "php_self", "query_string", "request_uri", "path_info",
    "http_user_agent", "http_referer", "http_cookie", "http_host",
    "http_accept", "http_accept_language", "http_x_forwarded_for",
})

_TERMINATORS = (ast.Return, ast.Throw, ast.Break, ast.Continue)


def _stamp_steps(steps: tuple[PathStep, ...],
                 fname: str) -> tuple[PathStep, ...]:
    """Fill in the ``file`` of any hop that does not have one yet."""
    return tuple(s if s.file else PathStep(s.kind, s.detail, s.line, fname)
                 for s in steps)


def _stamp_taint(taint: Taint, fname: str) -> Taint:
    return Taint(taint.source, taint.source_line,
                 _stamp_steps(taint.path, fname), taint.sanitized_for)


def _stamp_candidate(cand: CandidateVulnerability,
                     fname: str) -> CandidateVulnerability:
    path = _stamp_steps(cand.path, fname)
    if path == cand.path:
        return cand
    return replace(cand, path=path)


@dataclass
class _Frame:
    """Per-function analysis frame: captures candidates and return taints."""

    candidates: list[CandidateVulnerability] = field(default_factory=list)
    returns: set[Taint] = field(default_factory=set)


class ReferenceTaintEngine:
    """Multi-class taint analyzer over a single parsed PHP file.

    When *groups* is given (a partition of *configs*, one group per
    detector sub-module / weapon), the engine runs all groups in a single
    AST traversal while keeping group semantics: a taint born at a source
    that only group G declares (its source functions or extra entry
    points) can only reach sinks of G's classes, exactly as if each group
    ran its own engine.  This is the substrate of the fused scan pipeline
    (:mod:`repro.analysis.pipeline`).
    """

    def __init__(self, configs: list[DetectorConfig],
                 groups: list[list[DetectorConfig]] | None = None,
                 telemetry=None) -> None:
        if not configs:
            raise ValueError(
                "ReferenceTaintEngine needs at least one DetectorConfig")
        self.configs = list(configs)
        # instrumentation hook (repro.telemetry): when enabled, analyze()
        # wraps the traversal in a `taint` span and counts summaries; the
        # lazy import keeps the engine importable on its own
        if telemetry is None:
            from repro.telemetry import NULL_TELEMETRY
            telemetry = NULL_TELEMETRY
        self.telemetry = telemetry

        self.entry_points: set[str] = set()
        self.source_functions: set[str] = set()
        self.sanitizers: dict[str, set[str]] = {}
        self.sanitizer_methods: dict[str, set[str]] = {}
        self.sink_functions: dict[str, list[tuple[str, SinkSpec]]] = {}
        self.sink_methods: dict[str, list[tuple[str, SinkSpec]]] = {}
        self.echo_classes: list[str] = []
        self.include_classes: list[str] = []
        self.shell_classes: list[str] = []
        self.untaint_casts: set[str] = set()

        for cfg in self.configs:
            self.entry_points |= cfg.entry_points
            self.source_functions |= {f.lower()
                                      for f in cfg.source_functions}
            self.untaint_casts |= cfg.untaint_casts
            for san in cfg.sanitizers:
                self.sanitizers.setdefault(san.lower(), set()).add(
                    cfg.class_id)
            for san in cfg.sanitizer_methods:
                self.sanitizer_methods.setdefault(san.lower(), set()).add(
                    cfg.class_id)
            for sink in cfg.sinks:
                if sink.kind == SINK_FUNCTION:
                    self.sink_functions.setdefault(
                        sink.name.lower(), []).append((cfg.class_id, sink))
                elif sink.kind in (SINK_METHOD, SINK_STATIC):
                    self.sink_methods.setdefault(
                        sink.name.lower(), []).append((cfg.class_id, sink))
                elif sink.kind == SINK_ECHO:
                    self.echo_classes.append(cfg.class_id)
                elif sink.kind == SINK_INCLUDE:
                    self.include_classes.append(cfg.class_id)
                elif sink.kind == SINK_SHELL:
                    self.shell_classes.append(cfg.class_id)

        # group scoping: taints created at a source only some groups
        # declare are pre-sanitized for every class outside those groups
        self.source_masks: dict[str, frozenset[str]] = {}
        self.entry_masks: dict[str, frozenset[str]] = {}
        if groups:
            all_ids = frozenset(cfg.class_id for cfg in self.configs)
            src_allowed: dict[str, set[str]] = {}
            ep_allowed: dict[str, set[str]] = {}
            for group in groups:
                gids = {cfg.class_id for cfg in group}
                for cfg in group:
                    for func in cfg.source_functions:
                        src_allowed.setdefault(func.lower(),
                                               set()).update(gids)
                    for name in cfg.entry_points:
                        ep_allowed.setdefault(name, set()).update(gids)
            for name, allowed in src_allowed.items():
                mask = all_ids - allowed
                if mask:
                    self.source_masks[name] = frozenset(mask)
            for name, allowed in ep_allowed.items():
                mask = all_ids - allowed
                if mask:
                    self.entry_masks[name] = frozenset(mask)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def analyze(self, program: ast.Program,
                filename: str = "<source>",
                extra_functions: dict | None = None,
                initial_env: Env | None = None,
                ) -> list[CandidateVulnerability]:
        """Analyze one parsed file, returning deduplicated candidates.

        Args:
            program: the parsed file.
            filename: used in the reports.
            extra_functions: declarations from *other* files, mapping
                lowercase name -> (decl node, home filename) — the merged
                function table of the file's include closure.  Flows
                fully inside a foreign function are NOT re-reported here
                (the home file reports them).
            initial_env: taint state of global variables established by
                resolved includes before this file's top level runs.
        """
        out, _ = self.analyze_with_env(program, filename, extra_functions,
                                       initial_env)
        return out

    def analyze_with_env(self, program: ast.Program,
                         filename: str = "<source>",
                         extra_functions: dict | None = None,
                         initial_env: Env | None = None,
                         ) -> tuple[list[CandidateVulnerability], Env]:
        """Like :meth:`analyze`, also returning the final top-level env.

        The returned env is what the file exports to anything that
        includes it: the taint sets of its global variables after the top
        level ran (path steps stamped with this file's name).
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            run = _FileRun(self, program, filename, extra_functions,
                           initial_env)
            return run.run(), run.final_env
        with telemetry.tracer.span("taint", phase="taint", file=filename):
            run = _FileRun(self, program, filename, extra_functions,
                           initial_env)
            out = run.run()
        metrics = telemetry.metrics
        metrics.counter("functions_summarized").inc(len(run.summaries))
        metrics.counter("candidates_emitted").inc(len(out))
        return out, run.final_env


class _FileRun:
    """State for the analysis of a single file."""

    def __init__(self, engine: ReferenceTaintEngine, program: ast.Program,
                 filename: str,
                 extra_functions: dict | None = None,
                 initial_env: Env | None = None) -> None:
        self.engine = engine
        self.program = program
        self.filename = filename
        self.functions: dict[str, ast.FunctionDecl | ast.MethodDecl] = {}
        self.extra_functions = extra_functions or {}
        self.initial_env: Env = dict(initial_env or {})
        self.final_env: Env = {}
        self.summaries: dict[str, FunctionSummary] = {}
        self.in_progress: set[str] = set()
        self.frames: list[_Frame] = [_Frame()]
        self._collect_declarations(program.body)

    # ------------------------------------------------------------------
    def _collect_declarations(self, body: list[ast.Node]) -> None:
        for node in body:
            if isinstance(node, ast.FunctionDecl):
                self.functions.setdefault(node.name.lower(), node)
                self._collect_declarations(node.body)
            elif isinstance(node, ast.ClassDecl):
                for member in node.members:
                    if isinstance(member, ast.MethodDecl) and member.body:
                        key = f"{node.name.lower()}::{member.name.lower()}"
                        self.functions.setdefault(key, member)
                        # loose resolution by bare method name as fallback
                        self.functions.setdefault(member.name.lower(),
                                                  member)
            elif isinstance(node, (ast.Block, ast.If, ast.While, ast.DoWhile,
                                   ast.For, ast.Foreach, ast.Switch,
                                   ast.Try, ast.NamespaceDecl)):
                for child in node.children():
                    if isinstance(child, (ast.FunctionDecl, ast.ClassDecl)):
                        self._collect_declarations([child])

    # ------------------------------------------------------------------
    def run(self) -> list[CandidateVulnerability]:
        # analyze every declared function so flows entirely inside bodies
        # are reported even if the function is never called from this file
        for name in list(self.functions):
            self._summary(name)
        env: Env = dict(self.initial_env)
        self._exec_block(self.program.body, env)
        self.final_env = {
            key: frozenset(_stamp_taint(t, self.filename)
                           if isinstance(t, Taint) else t for t in value)
            for key, value in env.items()}
        out: list[CandidateVulnerability] = []
        seen: set[tuple] = set()
        for summary in self.summaries.values():
            for cand in summary.internal_candidates:
                if cand.key() not in seen:
                    seen.add(cand.key())
                    out.append(cand)
        for cand in self.frames[0].candidates:
            if cand.key() not in seen:
                seen.add(cand.key())
                out.append(cand)
        out.sort(key=lambda c: (c.sink_line, c.vuln_class))
        return [_stamp_candidate(c, self.filename) for c in out]

    # ------------------------------------------------------------------
    # function summaries
    # ------------------------------------------------------------------
    def _summary(self, name: str) -> FunctionSummary | None:
        name = name.lower()
        if name in self.summaries:
            return self.summaries[name]
        decl = self.functions.get(name)
        home = self.filename
        foreign = False
        if decl is None and name in self.extra_functions:
            decl, home = self.extra_functions[name]
            foreign = True
        if decl is None or name in self.in_progress:
            return None
        self.in_progress.add(name)
        try:
            summary = self._compute_summary(name, decl, home)
        finally:
            self.in_progress.discard(name)
        if foreign:
            # the declaring file reports its internal flows, not callers
            summary.internal_candidates = []
        self.summaries[name] = summary
        return summary

    def _compute_summary(
            self, name: str,
            decl: ast.FunctionDecl | ast.MethodDecl,
            home: str | None = None) -> FunctionSummary:
        summary = FunctionSummary(name,
                                  [p.name for p in decl.params],
                                  filename=home or self.filename)
        env: Env = {}
        for i, param in enumerate(decl.params):
            taint = Taint(f"param:{i}", decl.line,
                          (PathStep(STEP_PARAM, f"${param.name}",
                                    decl.line),))
            env[param.name] = frozenset({taint})
        frame = _Frame()
        self.frames.append(frame)
        try:
            self._exec_block(decl.body or [], env)
        finally:
            self.frames.pop()

        for cand in frame.candidates:
            if cand.entry_point.startswith("param:"):
                idx = int(cand.entry_point.split(":", 1)[1])
                summary.param_sinks.append(
                    (idx, cand.vuln_class, cand.sink_name, cand.sink_kind,
                     cand.sink_line, cand.path))
            else:
                summary.internal_candidates.append(cand)

        sanitized_sets = []
        for taint in frame.returns:
            if taint.source.startswith("param:"):
                idx = int(taint.source.split(":", 1)[1])
                if idx not in summary.returns_params:
                    summary.returns_params[idx] = taint.path
                sanitized_sets.append(taint.sanitized_for)
            else:
                # entry-point taints returned from a function make the
                # function itself a source for callers
                summary.returned_sources.append(taint)
        if sanitized_sets:
            common = frozenset.intersection(*sanitized_sets)
            summary.return_sanitized_for = common

        # stamp the hops produced inside this function with its home file
        # so cross-file candidates can show which file each hop is in
        fname = summary.filename
        summary.returns_params = {
            i: _stamp_steps(steps, fname)
            for i, steps in summary.returns_params.items()}
        summary.param_sinks = [
            (i, cls, sink_name, sink_kind, line, _stamp_steps(steps, fname))
            for (i, cls, sink_name, sink_kind, line, steps)
            in summary.param_sinks]
        summary.internal_candidates = [
            _stamp_candidate(c, fname) for c in summary.internal_candidates]
        summary.returned_sources = [
            _stamp_taint(t, fname) for t in summary.returned_sources]
        return summary

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _exec_block(self, body: list[ast.Node], env: Env) -> None:
        for stmt in body:
            self._exec(stmt, env)

    def _exec(self, node: ast.Node, env: Env) -> None:  # noqa: C901
        if isinstance(node, (ast.InlineHTML, ast.FunctionDecl,
                             ast.ClassDecl, ast.UseDecl, ast.ConstStatement,
                             ast.Global, ast.StaticVarDecl,
                             ast.Goto, ast.Label)):
            return
        if isinstance(node, ast.NamespaceDecl):
            if node.body:
                self._exec_block(node.body, env)
            return
        if isinstance(node, ast.ExpressionStatement):
            self._eval(node.expr, env)
            return
        if isinstance(node, ast.Echo):
            for expr in node.exprs:
                taints = self._eval(expr, env)
                self._check_echo(taints, "echo", node.line,
                                 _expr_context(expr))
            return
        if isinstance(node, ast.Block):
            self._exec_block(node.body, env)
            return
        if isinstance(node, ast.If):
            self._exec_if(node, env)
            return
        if isinstance(node, (ast.While, ast.DoWhile)):
            if isinstance(node, ast.While):
                self._eval(node.cond, env)
            # two passes propagate loop-carried taint (e.g. $q .= ...)
            for _ in range(2):
                branch = dict(env)
                self._exec_block(node.body, branch)
                _join_into(env, branch)
            if isinstance(node, ast.DoWhile):
                self._eval(node.cond, env)
            return
        if isinstance(node, ast.For):
            for expr in node.init:
                self._eval(expr, env)
            for expr in node.cond:
                self._eval(expr, env)
            for _ in range(2):
                branch = dict(env)
                self._exec_block(node.body, branch)
                for expr in node.step:
                    self._eval(expr, branch)
                _join_into(env, branch)
            return
        if isinstance(node, ast.Foreach):
            subject = self._eval(node.subject, env)
            branch = dict(env)
            stepped = frozenset(t.step(STEP_ASSIGN, "foreach", node.line)
                                for t in subject)
            if isinstance(node.value_var, ast.Variable):
                branch[node.value_var.name] = stepped
            elif isinstance(node.value_var, ast.ListAssign):
                # foreach ($rows as list($a, $b)) destructuring
                for target in node.value_var.targets:
                    if isinstance(target, ast.Variable):
                        branch[target.name] = stepped
            elif isinstance(node.value_var, ast.ArrayLiteral):
                # foreach ($rows as [$a, $b]) destructuring
                for item in node.value_var.items:
                    if isinstance(item.value, ast.Variable):
                        branch[item.value.name] = stepped
            if isinstance(node.key_var, ast.Variable):
                branch[node.key_var.name] = stepped
            for _ in range(2):
                inner = dict(branch)
                self._exec_block(node.body, inner)
                _join_into(branch, inner)
            _join_into(env, branch)
            return
        if isinstance(node, ast.Switch):
            self._eval(node.subject, env)
            merged: Env = dict(env)
            # fallthrough over-approximation: each case starts from the
            # cumulative state, as if every earlier case fell through
            branch = dict(env)
            for case in node.cases:
                if case.test is not None:
                    self._eval(case.test, env)
                self._exec_block(case.body, branch)
                _join_into(merged, branch)
            env.clear()
            env.update(merged)
            return
        if isinstance(node, ast.Return):
            if node.expr is not None:
                taints = self._eval(node.expr, env)
                self.frames[-1].returns.update(
                    t.step(STEP_RETURN, "return", node.line) for t in taints)
            return
        if isinstance(node, ast.Unset):
            for var in node.vars:
                if isinstance(var, ast.Variable):
                    env.pop(var.name, None)
            return
        if isinstance(node, ast.Throw):
            if node.expr is not None:
                self._eval(node.expr, env)
            return
        if isinstance(node, ast.Try):
            self._exec_block(node.body, env)
            for catch in node.catches:
                branch = dict(env)
                self._exec_block(catch.body, branch)
                _join_into(env, branch)
            if node.finally_body:
                self._exec_block(node.finally_body, env)
            return
        if isinstance(node, (ast.Break, ast.Continue)):
            return
        # any other statement-ish node: evaluate it as an expression
        self._eval(node, env)

    def _exec_if(self, node: ast.If, env: Env) -> None:
        self._eval(node.cond, env)
        guards = _extract_guards(node.cond)

        then_env = dict(env)
        _apply_guards(then_env, guards, node.line)
        self._exec_block(node.then, then_env)

        branches = [then_env]
        for cond, body in node.elifs:
            self._eval(cond, env)
            branch = dict(env)
            _apply_guards(branch, _extract_guards(cond), node.line)
            self._exec_block(body, branch)
            branches.append(branch)
        if node.otherwise is not None:
            branch = dict(env)
            self._exec_block(node.otherwise, branch)
            branches.append(branch)

        then_terminates = _terminates(node.then)
        merged: Env = {}
        if node.otherwise is None and not then_terminates:
            _join_into(merged, env)  # fallthrough path
        elif node.otherwise is None:
            _join_into(merged, env)
        for i, branch in enumerate(branches):
            if i == 0 and then_terminates:
                continue  # the then-branch never reaches the join point
            _join_into(merged, branch)
        # "if (!valid($x)) exit;" idiom: the continuation is guarded
        if then_terminates and guards:
            _apply_guards(merged, guards, node.line)
            exit_kind = _terminator_kind(node.then)
            if exit_kind:
                _apply_guards(merged,
                              [(key, exit_kind) for key, _ in guards],
                              node.line)
        env.clear()
        env.update(merged)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _eval(self, node: ast.Node | None,  # noqa: C901
              env: Env) -> frozenset:
        eng = self.engine
        if node is None or isinstance(node, (ast.Literal, ast.ConstFetch,
                                             ast.ClassConstAccess)):
            return EMPTY
        if isinstance(node, ast.Variable):
            return self._read_variable(node, env)
        if isinstance(node, ast.ArrayAccess):
            return self._read_array(node, env)
        if isinstance(node, ast.PropertyAccess):
            if node.name and isinstance(node.name, ast.Node):
                self._eval(node.name, env)
            key = _property_key(node)
            if key is not None:
                return env.get(key, EMPTY)
            return self._eval(node.obj, env)
        if isinstance(node, ast.StaticPropertyAccess):
            key = f"{node.cls if isinstance(node.cls, str) else '?'}" \
                  f"::${node.name}"
            return env.get(key, EMPTY)
        if isinstance(node, ast.InterpolatedString):
            taints = [self._eval(p, env) for p in node.parts
                      if not isinstance(p, ast.Literal)]
            return frozenset(
                t.step(STEP_CONCAT, "interpolation", node.line)
                for t in union(*taints)) if taints else EMPTY
        if isinstance(node, ast.ShellExec):
            taints = union(*[self._eval(p, env) for p in node.parts
                             if not isinstance(p, ast.Literal)])
            self._report_sinks(eng.shell_classes, taints, "shell_exec",
                               SINK_SHELL, node.line, ())
            return EMPTY
        if isinstance(node, ast.Assign):
            return self._eval_assign(node, env)
        if isinstance(node, ast.ListAssign):
            value = self._eval(node.value, env)
            stepped = frozenset(t.step(STEP_ASSIGN, "list", node.line)
                                for t in value)
            for target in node.targets:
                if isinstance(target, ast.Variable):
                    env[target.name] = stepped
            return value
        if isinstance(node, ast.BinaryOp):
            return self._eval_binop(node, env)
        if isinstance(node, ast.UnaryOp):
            self._eval(node.operand, env)
            return EMPTY
        if isinstance(node, ast.IncDec):
            self._eval(node.operand, env)
            return EMPTY
        if isinstance(node, ast.Cast):
            inner = self._eval(node.expr, env)
            if node.to in eng.untaint_casts:
                return EMPTY
            return inner
        if isinstance(node, ast.Ternary):
            self._eval(node.cond, env)
            then = (self._eval(node.then, env) if node.then is not None
                    else self._eval(node.cond, env))
            other = self._eval(node.otherwise, env)
            return union(then, other)
        if isinstance(node, ast.ErrorSuppress):
            return self._eval(node.expr, env)
        if isinstance(node, (ast.Isset, ast.Empty, ast.InstanceOf)):
            for child in node.children():
                self._eval(child, env)
            return EMPTY
        if isinstance(node, ast.PrintExpr):
            taints = self._eval(node.expr, env)
            self._check_echo(taints, "print", node.line)
            return EMPTY
        if isinstance(node, ast.ExitExpr):
            if node.expr is not None:
                taints = self._eval(node.expr, env)
                self._check_echo(taints, "exit", node.line)
            return EMPTY
        if isinstance(node, ast.Include):
            taints = self._eval(node.expr, env)
            self._report_sinks(eng.include_classes, taints, node.kind,
                               SINK_INCLUDE, node.line, ())
            return EMPTY
        if isinstance(node, ast.ArrayLiteral):
            taints = [self._eval(item.value, env) for item in node.items]
            taints += [self._eval(item.key, env) for item in node.items
                       if item.key is not None]
            return union(*taints) if taints else EMPTY
        if isinstance(node, ast.FunctionCall):
            return self._eval_call(node, env)
        if isinstance(node, ast.MethodCall):
            return self._eval_method(node, env)
        if isinstance(node, ast.StaticCall):
            return self._eval_static(node, env)
        if isinstance(node, ast.New):
            taints = union(*[self._eval(a.value, env) for a in node.args]) \
                if node.args else EMPTY
            cls = node.cls if isinstance(node.cls, str) else "?"
            return frozenset(t.step(STEP_CALL, f"new {cls}", node.line)
                             for t in taints)
        if isinstance(node, ast.Clone):
            return self._eval(node.expr, env)
        if isinstance(node, ast.Closure):
            if node.is_arrow:
                # arrow functions capture the enclosing scope implicitly;
                # their body is one expression, evaluated in a scope copy
                body = node.body[0]
                expr = body.expr if isinstance(body, ast.Return) else body
                return self._eval(expr, dict(env))
            child = {name: env.get(name, EMPTY) for name, _ in node.uses}
            self._exec_block(node.body, child)
            return EMPTY
        if isinstance(node, ast.Match):
            self._eval(node.subject, env)
            results = []
            for arm in node.arms:
                for cond in arm.conditions or []:
                    self._eval(cond, env)
                results.append(self._eval(arm.body, env))
            return union(*results) if results else EMPTY
        if isinstance(node, ast.VariableVariable):
            if node.expr is not None:
                self._eval(node.expr, env)
            return EMPTY
        # fallback: evaluate children, propagate nothing
        for child in node.children():
            self._eval(child, env)
        return EMPTY

    # ------------------------------------------------------------------
    def _read_variable(self, node: ast.Variable,
                       env: Env) -> frozenset:
        name = node.name
        if name in self.engine.entry_points:
            if name == "_SERVER":
                return EMPTY  # only specific keys are tainted
            taint = Taint(f"${name}", node.line,
                          (PathStep(STEP_SOURCE, f"${name}", node.line),),
                          self.engine.entry_masks.get(name, frozenset()))
            for func, gline in _pending_guards(env, f"${name}", name):
                taint = taint.step(STEP_GUARD, func, gline)
            return frozenset({taint})
        return env.get(name, EMPTY)

    def _read_array(self, node: ast.ArrayAccess,
                    env: Env) -> frozenset:
        if node.index is not None:
            self._eval(node.index, env)
        base = node.base
        if isinstance(base, ast.Variable) and \
                base.name in self.engine.entry_points:
            key = None
            if isinstance(node.index, ast.Literal):
                key = str(node.index.value)
            if base.name == "_SERVER":
                if key is not None and \
                        key.lower() not in TAINTED_SERVER_KEYS:
                    return EMPTY
            desc = entry_point_desc(base.name, node.index)
            taint = Taint(desc, node.line,
                          (PathStep(STEP_SOURCE, desc, node.line),),
                          self.engine.entry_masks.get(base.name,
                                                      frozenset()))
            for func, gline in _pending_guards(env, desc, base.name):
                taint = taint.step(STEP_GUARD, func, gline)
            return frozenset({taint})
        return self._eval(base, env)

    def _eval_assign(self, node: ast.Assign, env: Env) -> frozenset:
        value = self._eval(node.value, env)
        target = node.target
        if node.op in (".=",):
            value = frozenset(t.step(STEP_CONCAT, ".=", node.line)
                              for t in value)
        if isinstance(target, ast.Variable):
            name = target.name
            stepped = frozenset(
                t.step(STEP_ASSIGN, f"${name}", node.line) for t in value)
            if node.op == "=":
                env[name] = stepped
            else:  # compound assignment merges with the current taint
                env[name] = union(env.get(name, EMPTY), stepped)
            return env[name]
        if isinstance(target, ast.ArrayAccess):
            base = target.base
            if target.index is not None:
                self._eval(target.index, env)
            if isinstance(base, ast.Variable):
                name = base.name
                stepped = frozenset(
                    t.step(STEP_ASSIGN, f"${name}[]", node.line)
                    for t in value)
                env[name] = union(env.get(name, EMPTY), stepped)
                return env[name]
            self._eval(base, env)
            return value
        key = _property_key(target) if isinstance(
            target, ast.PropertyAccess) else None
        if key is not None:
            stepped = frozenset(
                t.step(STEP_ASSIGN, key, node.line) for t in value)
            if node.op == "=":
                env[key] = stepped
            else:
                env[key] = union(env.get(key, EMPTY), stepped)
            return env[key]
        if isinstance(target, ast.StaticPropertyAccess):
            skey = f"{target.cls if isinstance(target.cls, str) else '?'}" \
                   f"::${target.name}"
            env[skey] = frozenset(
                t.step(STEP_ASSIGN, skey, node.line) for t in value)
            return env[skey]
        return value

    def _eval_binop(self, node: ast.BinaryOp, env: Env) -> frozenset:
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        if node.op == ".":
            return frozenset(t.step(STEP_CONCAT, ".", node.line)
                             for t in union(left, right))
        if node.op in ("??",):
            return union(left, right)
        if node.op in ("+", "-", "*", "/", "%", "**"):
            # arithmetic coerces to numbers; treated as neutralizing
            return EMPTY
        # comparisons / logic yield booleans
        return EMPTY

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def _eval_call(self, node: ast.FunctionCall,  # noqa: C901
                   env: Env) -> frozenset:
        eng = self.engine
        arg_taints = [self._eval(a.value, env) for a in node.args]
        if not isinstance(node.name, str):
            self._eval(node.name, env)
            return frozenset(
                t.step(STEP_CALL, "dynamic_call", node.line)
                for t in union(*arg_taints)) if arg_taints else EMPTY
        name = node.name.lower().lstrip("\\")

        if name in eng.sanitizers:
            classes = eng.sanitizers[name]
            return frozenset(t.sanitize(classes, name, node.line)
                             for t in union(*arg_taints)) \
                if arg_taints else EMPTY

        if name in eng.source_functions:
            taint = Taint(f"{name}()", node.line,
                          (PathStep(STEP_SOURCE, f"{name}()", node.line),),
                          eng.source_masks.get(name, frozenset()))
            return frozenset({taint})

        summary = self._summary(name)
        if summary is not None:
            return self._apply_summary(summary, name, arg_taints, node.line)

        if name in eng.sink_functions:
            self._check_arg_sinks(eng.sink_functions[name], name,
                                  SINK_FUNCTION, arg_taints, node.line,
                                  _context_text(node.args))
            return EMPTY

        # unknown builtin or library function: taint passes through.
        # (this is how custom helpers like vfront's `escape` show up as
        # candidates until configured as sanitizers — §V-A of the paper)
        return frozenset(t.step(STEP_CALL, name, node.line)
                         for t in union(*arg_taints)) \
            if arg_taints else EMPTY

    def _eval_method(self, node: ast.MethodCall, env: Env) -> frozenset:
        eng = self.engine
        obj_taints = self._eval(node.obj, env)
        arg_taints = [self._eval(a.value, env) for a in node.args]
        if not isinstance(node.name, str):
            return union(obj_taints, *arg_taints)
        name = node.name.lower()

        if name in eng.sanitizer_methods:
            classes = eng.sanitizer_methods[name]
            return frozenset(t.sanitize(classes, name, node.line)
                             for t in union(*arg_taints)) \
                if arg_taints else EMPTY

        if name in eng.sink_methods:
            receiver = _receiver_text(node.obj)
            matches = [(cid, spec) for cid, spec in eng.sink_methods[name]
                       if spec.receiver_hint is None
                       or spec.receiver_hint in receiver]
            if matches:
                self._check_arg_sinks(matches, name, SINK_METHOD,
                                      arg_taints, node.line,
                                      _context_text(node.args))
                return EMPTY

        summary = self._summary(name)
        if summary is not None:
            return self._apply_summary(summary, name, arg_taints, node.line)

        return frozenset(
            t.step(STEP_CALL, name, node.line)
            for t in union(obj_taints, *arg_taints))

    def _eval_static(self, node: ast.StaticCall, env: Env) -> frozenset:
        eng = self.engine
        arg_taints = [self._eval(a.value, env) for a in node.args]
        if not isinstance(node.name, str):
            return union(*arg_taints) if arg_taints else EMPTY
        name = node.name.lower()
        cls = node.cls.lower() if isinstance(node.cls, str) else "?"

        if name in eng.sanitizer_methods:
            classes = eng.sanitizer_methods[name]
            return frozenset(t.sanitize(classes, name, node.line)
                             for t in union(*arg_taints)) \
                if arg_taints else EMPTY
        if name in eng.sink_methods:
            matches = [(cid, spec) for cid, spec in eng.sink_methods[name]
                       if spec.receiver_hint is None
                       or spec.receiver_hint in cls]
            if matches:
                self._check_arg_sinks(matches, name, SINK_STATIC,
                                      arg_taints, node.line,
                                      _context_text(node.args))
                return EMPTY
        summary = self._summary(f"{cls}::{name}") or self._summary(name)
        if summary is not None:
            return self._apply_summary(summary, name, arg_taints, node.line)
        return frozenset(t.step(STEP_CALL, name, node.line)
                         for t in union(*arg_taints)) \
            if arg_taints else EMPTY

    def _apply_summary(self, summary: FunctionSummary, name: str,
                       arg_taints: list[frozenset],
                       line: int) -> frozenset:
        # flows: tainted argument -> sink inside the callee
        for idx, class_id, sink_name, sink_kind, sink_line, steps in \
                summary.param_sinks:
            if idx >= len(arg_taints):
                continue
            for taint in arg_taints[idx]:
                if class_id in taint.sanitized_for:
                    continue
                entry = taint.step(STEP_CALL, name, line)
                path = entry.path + steps
                self._emit(class_id, sink_name, sink_kind, sink_line,
                           taint, path, (),
                           filename=summary.filename or None)
        # flows: tainted argument -> return value
        returned: set[Taint] = set()
        for taint in summary.returned_sources:
            returned.add(taint.step(STEP_CALL, name, line))
        for idx, steps in summary.returns_params.items():
            if idx >= len(arg_taints):
                continue
            for taint in arg_taints[idx]:
                out = Taint(taint.source, taint.source_line,
                            taint.path
                            + (PathStep(STEP_CALL, name, line),)
                            + steps,
                            taint.sanitized_for
                            | summary.return_sanitized_for)
                returned.add(out)
        return frozenset(returned)

    # ------------------------------------------------------------------
    # sink reporting
    # ------------------------------------------------------------------
    def _check_arg_sinks(self, matches: list[tuple[str, SinkSpec]],
                         sink_name: str, sink_kind: str,
                         arg_taints: list[frozenset], line: int,
                         context: str = "") -> None:
        for class_id, spec in matches:
            positions = (range(len(arg_taints))
                         if spec.arg_positions is None
                         else spec.arg_positions)
            for pos in positions:
                if pos >= len(arg_taints):
                    continue
                for taint in arg_taints[pos]:
                    if class_id in taint.sanitized_for:
                        continue
                    self._emit(class_id, sink_name, sink_kind, line,
                               taint, taint.path, (pos,), context)

    def _check_echo(self, taints: frozenset, sink_name: str,
                    line: int, context: str = "") -> None:
        for class_id in self.engine.echo_classes:
            for taint in taints:
                if class_id in taint.sanitized_for:
                    continue
                self._emit(class_id, sink_name, SINK_ECHO, line,
                           taint, taint.path, (), context)

    def _report_sinks(self, class_ids: list[str], taints: frozenset,
                      sink_name: str, sink_kind: str, line: int,
                      positions: tuple[int, ...]) -> None:
        for class_id in class_ids:
            for taint in taints:
                if class_id in taint.sanitized_for:
                    continue
                self._emit(class_id, sink_name, sink_kind, line,
                           taint, taint.path, positions)

    def _emit(self, class_id: str, sink_name: str, sink_kind: str,
              line: int, taint: Taint, path: tuple[PathStep, ...],
              positions: tuple[int, ...], context: str = "",
              filename: str | None = None) -> None:
        cand = CandidateVulnerability(
            vuln_class=class_id,
            filename=filename or self.filename,
            sink_name=sink_name,
            sink_line=line,
            entry_point=taint.source,
            entry_line=taint.source_line,
            path=path + (PathStep(STEP_SINK, sink_name, line),),
            sink_kind=sink_kind,
            tainted_args=positions,
            context=context,
        )
        self.frames[-1].candidates.append(cand)



# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _join_into(target: Env, other: Env) -> None:
    """In-place join: target := target ⊔ other."""
    for name, taints in other.items():
        if name in target:
            target[name] = union(target[name], taints)
        else:
            target[name] = taints


def _terminates(body: list[ast.Node]) -> bool:
    """Does this branch unconditionally leave the enclosing flow?"""
    for stmt in body:
        if isinstance(stmt, _TERMINATORS):
            return True
        if isinstance(stmt, ast.ExpressionStatement) and \
                isinstance(stmt.expr, ast.ExitExpr):
            return True
    return False


_GUARD_PREFIX = "\x00guard:"


def _extract_guards(cond: ast.Node | None) -> list[tuple[str, str]]:
    """Collect (key, guard-function) pairs from a condition.

    Keys are plain variable names, or entry-point descriptions such as
    ``$_GET['n']`` when the guard applies directly to a superglobal read.
    Guards are validation calls such as ``is_numeric($x)`` or
    ``preg_match('/^\\d+$/', $x)``; also ``isset``/``empty`` checks.  They
    are recorded as path symptoms, never as sanitization.
    """
    guards: list[tuple[str, str]] = []
    if cond is None:
        return guards
    for node in cond.walk():
        if isinstance(node, ast.FunctionCall) and \
                isinstance(node.name, str):
            # every call on a variable in a condition is recorded: known
            # validation functions become static symptoms, anything else
            # is only visible through the dynamic-symptom map (§III-B2)
            name = node.name.lower()
            for arg in node.args:
                for key in _guard_keys(arg.value):
                    guards.append((key, name))
        elif isinstance(node, ast.Isset):
            for var_node in node.vars:
                for key in _guard_keys(var_node):
                    guards.append((key, "isset"))
        elif isinstance(node, ast.Empty):
            for key in _guard_keys(node.expr):
                guards.append((key, "empty"))
    return guards


def _guard_keys(node: ast.Node | None) -> list[str]:
    """Guardable keys inside an expression: vars + superglobal reads."""
    if node is None:
        return []
    keys: list[str] = []
    for n in node.walk():
        if isinstance(n, ast.Variable):
            keys.append(n.name)
        elif isinstance(n, ast.ArrayAccess) and \
                isinstance(n.base, ast.Variable) and \
                n.base.name.startswith("_"):
            keys.append(entry_point_desc(n.base.name, n.index))
    return keys


def entry_point_desc(base_name: str, index: ast.Node | None) -> str:
    """Canonical description of a superglobal read, e.g. ``$_GET['id']``."""
    if isinstance(index, ast.Literal):
        return f"${base_name}['{index.value}']"
    return f"${base_name}[...]"


def _apply_guards(env: Env, guards: list[tuple[str, str]],
                  line: int) -> None:
    for key, func in guards:
        if key in env:
            env[key] = frozenset(t.step(STEP_GUARD, func, line)
                                 for t in env[key])
        if key.startswith("$"):
            # remember guards against future superglobal re-reads
            gkey = _GUARD_PREFIX + key
            env[gkey] = union(env.get(gkey, frozenset()),
                              frozenset({(func, line)}))


def _pending_guards(env: Env, desc: str,
                    base_name: str) -> list[tuple[str, int]]:
    """Guards previously recorded for an entry-point description."""
    out: list[tuple[str, int]] = []
    for key in (_GUARD_PREFIX + desc, _GUARD_PREFIX + "$" + base_name):
        out.extend(env.get(key, frozenset()))
    return sorted(out)


def _property_key(node: ast.PropertyAccess) -> str | None:
    """Key for property taint storage: ``$obj->prop`` -> ``obj->prop``."""
    if not isinstance(node.name, str):
        return None
    if isinstance(node.obj, ast.Variable):
        return f"{node.obj.name}->{node.name}"
    if isinstance(node.obj, ast.PropertyAccess):
        inner = _property_key(node.obj)
        if inner is not None:
            return f"{inner}->{node.name}"
    return None


def _receiver_text(node: ast.Node | None) -> str:
    """Loose textual description of a method receiver for hint matching."""
    if isinstance(node, ast.Variable):
        return node.name.lower()
    if isinstance(node, ast.PropertyAccess):
        name = node.name if isinstance(node.name, str) else ""
        return f"{_receiver_text(node.obj)}->{name}".lower()
    if isinstance(node, ast.MethodCall):
        name = node.name if isinstance(node.name, str) else ""
        return f"{_receiver_text(node.obj)}.{name}()".lower()
    if isinstance(node, ast.New):
        cls = node.cls if isinstance(node.cls, str) else ""
        return f"new:{cls}".lower()
    if isinstance(node, ast.FunctionCall) and isinstance(node.name, str):
        return f"{node.name}()".lower()
    return ""


def _terminator_kind(body: list[ast.Node]) -> str | None:
    """Name of the terminator ending a guard branch (``exit``/``error``)."""
    for stmt in body:
        if isinstance(stmt, ast.ExpressionStatement) and \
                isinstance(stmt.expr, ast.ExitExpr):
            return "exit"
        if isinstance(stmt, ast.Return):
            return "return"
        if isinstance(stmt, ast.Throw):
            return "error"
    return None


def _expr_context(expr: ast.Node | None) -> str:
    """Approximate the literal text around tainted data in an expression.

    Literal string fragments are kept verbatim; every non-literal part is
    replaced by the placeholder ``\u00a7``.  The false-positive predictor
    mines this for the SQL-query symptoms of Table I (FROM clause,
    aggregate functions, complex queries, numeric entry points).
    """
    if expr is None:
        return ""
    if isinstance(expr, ast.Literal):
        return str(expr.value) if expr.kind == "string" else "\u00a7"
    if isinstance(expr, ast.InterpolatedString):
        return "".join(_expr_context(p) for p in expr.parts)
    if isinstance(expr, ast.BinaryOp) and expr.op == ".":
        return _expr_context(expr.left) + _expr_context(expr.right)
    if isinstance(expr, ast.Assign):
        return _expr_context(expr.value)
    if isinstance(expr, ast.ErrorSuppress):
        return _expr_context(expr.expr)
    return "\u00a7"


def _context_text(args: list[ast.Argument]) -> str:
    return " ".join(_expr_context(a.value) for a in args)
