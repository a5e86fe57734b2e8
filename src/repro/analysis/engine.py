"""The generic taint engine, compiled: a tight loop over the flat IR.

One engine instance is configured with any number of
:class:`~repro.analysis.model.DetectorConfig` objects (one per vulnerability
class) and runs a file's lowered IR module
(:class:`~repro.ir.opcodes.IRModule`) **once**, tracking taint for all
classes simultaneously.  Per-class behaviour (which sinks fire, which
sanitizers untaint) is resolved through the merged lookup tables built in
``__init__`` — this is what makes the engine reusable by the *vulnerability
detector generator*: a new class is purely new data, never new code.

The abstract domain is unchanged from the original AST walker (kept
verbatim in :mod:`repro.analysis.astwalk` as the differential-test
oracle): a set of :class:`~repro.analysis.model.Taint` values per
variable, joins are set unions, loops run two iterations (enough for
loop-carried string accumulation, the pattern that matters for injection
flaws), user functions get on-demand summaries with a recursion guard.
What changed is the *dispatch*: instead of a ~30-way ``isinstance``
ladder per AST node with guards/contexts recomputed on every visit, the
hot path is an integer-opcode ``while`` loop over a linear instruction
array in which all syntax-only work was precomputed by
:func:`repro.ir.lower.lower_program`.

Two summary channels make cross-file analysis compositional:

* ``extra_summaries`` — finished :class:`FunctionSummary` objects from
  already-analyzed dependency files (the include closure), consulted
  before running a foreign function (``extra_functions``: its home
  file's lowered module and function) from that module's code.
* ``preset_summaries`` — this file's own summaries replayed from the
  on-disk cache (:mod:`repro.analysis.summaries`), seeded wholesale so
  the dedup pass sees candidates in the original completion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter

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
from repro.ir.lower import lower_program
from repro.ir.opcodes import (
    APPEND,
    ARROW,
    ASSIGN,
    ASSIGN_KEY,
    ASSIGN_STATIC,
    CALL,
    CALL_FOLD,
    CALL_METHOD,
    CALL_STATIC,
    CAST,
    CLOSURE,
    CONCAT,
    GUARD,
    IF,
    JUMP,
    LIST_ASSIGN,
    LOAD_KEY,
    LOOP,
    RET,
    SINK,
    SOURCE,
    SOURCE_INDEX,
    STEP,
    SWITCH,
    TRY,
    UNION,
    UNSET,
    IfMeta,
    IRFunction,
    IRModule,
    LoopMeta,
    SwitchMeta,
    TryMeta,
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

_NO_MASK = frozenset()


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


class TaintEngine:
    """Multi-class taint analyzer over a single lowered PHP file.

    When *groups* is given (a partition of *configs*, one group per
    detector sub-module / weapon), the engine runs all groups in a single
    IR pass while keeping group semantics: a taint born at a source
    that only group G declares (its source functions or extra entry
    points) can only reach sinks of G's classes, exactly as if each group
    ran its own engine.  This is the substrate of the fused scan pipeline
    (:mod:`repro.analysis.pipeline`).
    """

    def __init__(self, configs: list[DetectorConfig],
                 groups: list[list[DetectorConfig]] | None = None,
                 telemetry=None, opcode_hist: dict | None = None) -> None:
        if not configs:
            raise ValueError("TaintEngine needs at least one DetectorConfig")
        self.configs = list(configs)
        # --profile support: when a mutable mapping is supplied, every
        # _FileRun routes dispatch through the timing twin of run_span,
        # accumulating {opcode: [count, seconds]} into it.  None (the
        # default) leaves the hot loop byte-identical to unprofiled.
        self.opcode_hist = opcode_hist
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
    def analyze(self, program,
                filename: str = "<source>",
                extra_functions: dict | None = None,
                initial_env: Env | None = None,
                module: IRModule | None = None,
                extra_summaries: dict | None = None,
                preset_summaries: dict | None = None,
                ) -> list[CandidateVulnerability]:
        """Analyze one file, returning deduplicated candidates.

        Args:
            program: the parsed file; may be ``None`` when *module* is
                given (the parse-once pipeline lowers eagerly and caches
                the module next to the AST).
            filename: used in the reports.
            extra_functions: functions of *other* files, mapping
                lowercase name -> (home file's lowered module, its
                :class:`~repro.ir.opcodes.IRFunction` there, home
                filename): the merged table of the file's include
                closure (call edges included under the whole-project
                policy), taken from each dependency's
                ``IRModule.functions`` by
                :class:`~repro.analysis.includes.IncludeContext`.  Flows
                fully inside a foreign function are NOT re-reported here
                (the home file reports them).
            initial_env: taint state of global variables established by
                resolved includes before this file's top level runs.
            module: the lowered IR of *program*; lowered on the fly when
                absent.
            extra_summaries: finished summaries of dependency functions
                (include closure), consulted before *extra_functions* so
                dependency bodies are not re-interpreted.
            preset_summaries: this file's own summaries replayed from the
                summary cache, in original completion order.
        """
        out, _, _ = self.analyze_with_state(
            program, filename, extra_functions, initial_env,
            module=module, extra_summaries=extra_summaries,
            preset_summaries=preset_summaries)
        return out

    def analyze_with_env(self, program,
                         filename: str = "<source>",
                         extra_functions: dict | None = None,
                         initial_env: Env | None = None,
                         module: IRModule | None = None,
                         extra_summaries: dict | None = None,
                         preset_summaries: dict | None = None,
                         ) -> tuple[list[CandidateVulnerability], Env]:
        """Like :meth:`analyze`, also returning the final top-level env.

        The returned env is what the file exports to anything that
        includes it: the taint sets of its global variables after the top
        level ran (path steps stamped with this file's name).
        """
        out, env, _ = self.analyze_with_state(
            program, filename, extra_functions, initial_env,
            module=module, extra_summaries=extra_summaries,
            preset_summaries=preset_summaries)
        return out, env

    def analyze_with_state(self, program,
                           filename: str = "<source>",
                           extra_functions: dict | None = None,
                           initial_env: Env | None = None,
                           module: IRModule | None = None,
                           extra_summaries: dict | None = None,
                           preset_summaries: dict | None = None,
                           ) -> tuple[list[CandidateVulnerability],
                                      Env, dict]:
        """Like :meth:`analyze_with_env`, also returning the summaries.

        The third element is the run's full name -> :class:`FunctionSummary`
        map in completion order — the unit the summary cache persists and
        include closures compose.
        """
        if module is None:
            module = lower_program(program)
        telemetry = self.telemetry
        if not telemetry.enabled:
            run = _FileRun(self, module, filename, extra_functions,
                           initial_env, extra_summaries, preset_summaries)
            return run.run(), run.final_env, run.summaries
        with telemetry.tracer.span("taint", phase="taint", file=filename):
            run = _FileRun(self, module, filename, extra_functions,
                           initial_env, extra_summaries, preset_summaries)
            out = run.run()
        metrics = telemetry.metrics
        metrics.counter("functions_summarized").inc(len(run.summaries))
        metrics.counter("candidates_emitted").inc(len(out))
        return out, run.final_env, run.summaries


class _FileRun:
    """Interpreter state for the analysis of a single lowered file."""

    def __init__(self, engine: TaintEngine, module: IRModule,
                 filename: str,
                 extra_functions: dict | None = None,
                 initial_env: Env | None = None,
                 extra_summaries: dict | None = None,
                 preset_summaries: dict | None = None) -> None:
        self.engine = engine
        self.module = module
        self.code = module.code
        self.regs: list[frozenset] = [EMPTY] * module.n_regs
        self.filename = filename
        self.functions: dict[str, IRFunction] = module.functions
        self.extra_functions = extra_functions or {}
        self.extra_summaries = extra_summaries or {}
        self.initial_env: Env = dict(initial_env or {})
        self.final_env: Env = {}
        # seeding the replayed summaries wholesale preserves the original
        # completion order, which the first-wins dedup in run() relies on
        self.summaries: dict[str, FunctionSummary] = \
            dict(preset_summaries) if preset_summaries else {}
        self.in_progress: set[str] = set()
        self.frames: list[_Frame] = [_Frame()]
        if engine.opcode_hist is not None:
            # the instance attribute shadows the class method, so every
            # dispatch (including re-entrant calls from control-flow
            # handlers) goes through the profiled twin; without a hist
            # no attribute exists and lookup hits the class — zero cost
            self.run_span = self._run_span_profiled

    # ------------------------------------------------------------------
    def run(self) -> list[CandidateVulnerability]:
        # analyze every declared function so flows entirely inside bodies
        # are reported even if the function is never called from this file
        for name in list(self.functions):
            self._summary(name)
        env: Env = dict(self.initial_env)
        self.run_span(self.module.top_span, env)
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
        memo = self.summaries.get(name)
        if memo is not None:
            return memo
        fn = self.functions.get(name)
        if fn is not None:
            module, home = self.module, None
        else:
            # composed summaries from already-analyzed dependency files
            # are consulted before running a foreign function's body
            composed = self.extra_summaries.get(name)
            if composed is not None:
                self.summaries[name] = composed
                return composed
            entry = self.extra_functions.get(name)
            if entry is None:
                return None
            module, fn, home = entry
        if name in self.in_progress:
            return None
        self.in_progress.add(name)
        try:
            summary = self._compute_summary(name, fn, home, module)
        finally:
            self.in_progress.discard(name)
        if home is not None:
            # the declaring file reports its internal flows, not callers
            summary.internal_candidates = []
        self.summaries[name] = summary
        return summary

    def _compute_summary(self, name: str, fn: IRFunction,
                         home: str | None,
                         module: IRModule) -> FunctionSummary:
        summary = FunctionSummary(name, list(fn.param_names),
                                  filename=home or self.filename)
        env: Env = {}
        for i, pname in enumerate(fn.param_names):
            taint = Taint(f"param:{i}", fn.line,
                          (PathStep(STEP_PARAM, f"${pname}", fn.line),))
            env[pname] = frozenset({taint})
        frame = _Frame()
        self.frames.append(frame)
        saved = (self.code, self.regs)
        if module.code is not self.code:
            self.code = module.code
            self.regs = [EMPTY] * module.n_regs
        try:
            self.run_span(fn.span, env)
        finally:
            self.code, self.regs = saved
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
    # the interpreter
    # ------------------------------------------------------------------
    def run_span(self, span, env: Env) -> None:  # noqa: C901
        """Execute one ``[start, end)`` region of the current code array.

        Re-entrant: control-flow handlers and summary computation call
        back into it for sub-spans.  Registers are module-globally unique,
        so nested runs over *other* spans never clobber live values.
        """
        code = self.code
        regs = self.regs
        eng = self.engine
        entry_points = eng.entry_points
        entry_masks = eng.entry_masks
        sanitizers = eng.sanitizers
        source_functions = eng.source_functions
        source_masks = eng.source_masks
        sink_functions = eng.sink_functions
        sanitizer_methods = eng.sanitizer_methods
        sink_methods = eng.sink_methods
        untaint_casts = eng.untaint_casts
        empty = EMPTY
        env_get = env.get

        pc, end = span
        while pc < end:
            i = code[pc]
            pc += 1
            op = i.op
            if op == SOURCE:
                name = i.name
                if name in entry_points:
                    if name == "_SERVER":
                        regs[i.dst] = empty  # only specific keys taint
                    else:
                        desc = i.extra
                        taint = Taint(
                            desc, i.line,
                            (PathStep(STEP_SOURCE, desc, i.line),),
                            entry_masks.get(name, _NO_MASK))
                        for func, gline in _pending_guards(env, desc, name):
                            taint = taint.step(STEP_GUARD, func, gline)
                        regs[i.dst] = frozenset({taint})
                else:
                    regs[i.dst] = env_get(name, empty)
            elif op == CALL:
                arg_regs, context = i.extra
                name = i.name
                if name in sanitizers:
                    classes = sanitizers[name]
                    regs[i.dst] = frozenset(
                        t.sanitize(classes, name, i.line)
                        for t in union(*[regs[r] for r in arg_regs])) \
                        if arg_regs else empty
                elif name in source_functions:
                    regs[i.dst] = frozenset({Taint(
                        f"{name}()", i.line,
                        (PathStep(STEP_SOURCE, f"{name}()", i.line),),
                        source_masks.get(name, _NO_MASK))})
                else:
                    summary = self._summary(name)
                    if summary is not None:
                        regs[i.dst] = self._apply_summary(
                            summary, name, [regs[r] for r in arg_regs],
                            i.line)
                    elif name in sink_functions:
                        self._check_arg_sinks(
                            sink_functions[name], name, SINK_FUNCTION,
                            [regs[r] for r in arg_regs], i.line, context)
                        regs[i.dst] = empty
                    else:
                        # unknown builtin or library function: taint passes
                        # through (how custom helpers like vfront's
                        # `escape` show up as candidates until configured
                        # as sanitizers — §V-A of the paper)
                        regs[i.dst] = frozenset(
                            t.step(STEP_CALL, name, i.line)
                            for t in union(*[regs[r] for r in arg_regs])) \
                            if arg_regs else empty
            elif op == ASSIGN:
                desc, compound = i.extra
                stepped = frozenset(t.step(STEP_ASSIGN, desc, i.line)
                                    for t in regs[i.a])
                if compound:  # compound assignment merges current taint
                    stepped = union(env_get(i.name, empty), stepped)
                env[i.name] = stepped
                regs[i.dst] = stepped
            elif op == CONCAT:
                regs[i.dst] = frozenset(
                    t.step(STEP_CONCAT, i.name, i.line)
                    for t in union(*[regs[r] for r in i.extra]))
            elif op == SINK:
                flavor, context = i.extra
                taints = regs[i.a]
                if taints:
                    if flavor == "echo":
                        self._check_echo(taints, i.name, i.line, context)
                    elif flavor == "include":
                        self._report_sinks(eng.include_classes, taints,
                                           i.name, SINK_INCLUDE, i.line, ())
                    else:
                        self._report_sinks(eng.shell_classes, taints,
                                           i.name, SINK_SHELL, i.line, ())
            elif op == SOURCE_INDEX:
                name = i.name
                if name in entry_points:
                    key_lower, desc = i.extra
                    if name == "_SERVER" and key_lower is not None and \
                            key_lower not in TAINTED_SERVER_KEYS:
                        regs[i.dst] = empty
                    else:
                        taint = Taint(
                            desc, i.line,
                            (PathStep(STEP_SOURCE, desc, i.line),),
                            entry_masks.get(name, _NO_MASK))
                        for func, gline in _pending_guards(env, desc, name):
                            taint = taint.step(STEP_GUARD, func, gline)
                        regs[i.dst] = frozenset({taint})
                else:
                    regs[i.dst] = env_get(name, empty)
            elif op == JUMP:
                pc = i.a
            elif op == UNION:
                srcs = i.extra
                regs[i.dst] = union(*[regs[r] for r in srcs]) \
                    if srcs else empty
            elif op == STEP:
                regs[i.dst] = frozenset(t.step(i.extra, i.name, i.line)
                                        for t in regs[i.a])
            elif op == IF:
                self._do_if(i.extra, env)
            elif op == APPEND:
                stepped = frozenset(t.step(STEP_ASSIGN, i.extra, i.line)
                                    for t in regs[i.a])
                merged = union(env_get(i.name, empty), stepped)
                env[i.name] = merged
                regs[i.dst] = merged
            elif op == CALL_METHOD:
                arg_regs, receiver, context = i.extra
                name = i.name
                args = [regs[r] for r in arg_regs]
                if name in sanitizer_methods:
                    classes = sanitizer_methods[name]
                    regs[i.dst] = frozenset(
                        t.sanitize(classes, name, i.line)
                        for t in union(*args)) if args else empty
                else:
                    matches = None
                    if name in sink_methods:
                        matches = [(cid, spec)
                                   for cid, spec in sink_methods[name]
                                   if spec.receiver_hint is None
                                   or spec.receiver_hint in receiver]
                    if matches:
                        self._check_arg_sinks(matches, name, SINK_METHOD,
                                              args, i.line, context)
                        regs[i.dst] = empty
                    else:
                        summary = self._summary(name)
                        if summary is not None:
                            regs[i.dst] = self._apply_summary(
                                summary, name, args, i.line)
                        else:
                            regs[i.dst] = frozenset(
                                t.step(STEP_CALL, name, i.line)
                                for t in union(regs[i.a], *args))
            elif op == LOAD_KEY:
                regs[i.dst] = env_get(i.name, empty)
            elif op == ASSIGN_KEY:
                stepped = frozenset(t.step(STEP_ASSIGN, i.name, i.line)
                                    for t in regs[i.a])
                if i.extra:  # compound assignment
                    stepped = union(env_get(i.name, empty), stepped)
                env[i.name] = stepped
                regs[i.dst] = stepped
            elif op == CALL_FOLD:
                regs[i.dst] = frozenset(
                    t.step(STEP_CALL, i.name, i.line)
                    for t in union(*[regs[r] for r in i.extra]))
            elif op == CAST:
                regs[i.dst] = empty if i.name in untaint_casts \
                    else regs[i.a]
            elif op == RET:
                self.frames[-1].returns.update(
                    t.step(STEP_RETURN, "return", i.line)
                    for t in regs[i.a])
            elif op == LOOP:
                self._do_loop(i.extra, env)
            elif op == GUARD:
                _apply_guards(env, i.extra, i.line)
            elif op == LIST_ASSIGN:
                stepped = frozenset(t.step(STEP_ASSIGN, "list", i.line)
                                    for t in regs[i.a])
                for name in i.extra:
                    env[name] = stepped
            elif op == SWITCH:
                self._do_switch(i.extra, env)
            elif op == TRY:
                self._do_try(i.extra, env)
            elif op == CALL_STATIC:
                arg_regs, cls, context = i.extra
                name = i.name
                args = [regs[r] for r in arg_regs]
                if name in sanitizer_methods:
                    classes = sanitizer_methods[name]
                    regs[i.dst] = frozenset(
                        t.sanitize(classes, name, i.line)
                        for t in union(*args)) if args else empty
                else:
                    matches = None
                    if name in sink_methods:
                        matches = [(cid, spec)
                                   for cid, spec in sink_methods[name]
                                   if spec.receiver_hint is None
                                   or spec.receiver_hint in cls]
                    if matches:
                        self._check_arg_sinks(matches, name, SINK_STATIC,
                                              args, i.line, context)
                        regs[i.dst] = empty
                    else:
                        summary = self._summary(f"{cls}::{name}") \
                            or self._summary(name)
                        if summary is not None:
                            regs[i.dst] = self._apply_summary(
                                summary, name, args, i.line)
                        else:
                            regs[i.dst] = frozenset(
                                t.step(STEP_CALL, name, i.line)
                                for t in union(*args)) if args else empty
            elif op == ASSIGN_STATIC:
                env[i.name] = frozenset(
                    t.step(STEP_ASSIGN, i.name, i.line) for t in regs[i.a])
                regs[i.dst] = env[i.name]
            elif op == UNSET:
                for name in i.extra:
                    env.pop(name, None)
            elif op == CLOSURE:
                uses, body_span = i.extra
                child = {name: env_get(name, empty) for name in uses}
                self.run_span(body_span, child)
            elif op == ARROW:
                self.run_span(i.extra, dict(env))
                regs[i.dst] = regs[i.a]

    def _run_span_profiled(self, span, env: Env) -> None:
        """Timing twin of :meth:`run_span` for ``--profile``.

        Executes every instruction as a one-op :meth:`run_span` call
        (class-qualified, bypassing the instance-attribute shadow) and
        accumulates ``{opcode: [count, seconds]}`` into the engine's
        ``opcode_hist``.  Control-flow opcodes (IF/LOOP/SWITCH/TRY and
        the call opcodes that compute summaries) report *cumulative*
        time — their handlers recurse through ``self.run_span``, which
        is this method, so nested work is both counted on its own and
        folded into the parent opcode's bucket.
        """
        code = self.code
        hist = self.engine.opcode_hist
        perf = perf_counter
        run_one = _FileRun.run_span
        pc, end = span
        while pc < end:
            i = code[pc]
            op = i.op
            if op == JUMP:
                pc = i.a
                entry = hist.get(op)
                if entry is None:
                    entry = hist[op] = [0, 0.0]
                entry[0] += 1
                continue
            t0 = perf()
            run_one(self, (pc, pc + 1), env)
            dt = perf() - t0
            pc += 1
            entry = hist.get(op)
            if entry is None:
                entry = hist[op] = [0, 0.0]
            entry[0] += 1
            entry[1] += dt

    # ------------------------------------------------------------------
    # structured control flow (spans executed with walker-identical joins)
    # ------------------------------------------------------------------
    def _do_if(self, meta: IfMeta, env: Env) -> None:
        guards = meta.cond_guards

        # guard application is the first instruction of each branch span
        then_env = dict(env)
        self.run_span(meta.then_span, then_env)

        branches = [then_env]
        for cond_span, body_span in meta.elifs:
            self.run_span(cond_span, env)
            branch = dict(env)
            self.run_span(body_span, branch)
            branches.append(branch)
        if meta.else_span is not None:
            branch = dict(env)
            self.run_span(meta.else_span, branch)
            branches.append(branch)

        merged: Env = {}
        if meta.else_span is None:
            _join_into(merged, env)  # fallthrough path
        for idx, branch in enumerate(branches):
            if idx == 0 and meta.then_terminates:
                continue  # the then-branch never reaches the join point
            _join_into(merged, branch)
        # "if (!valid($x)) exit;" idiom: the continuation is guarded
        if meta.then_terminates and guards:
            _apply_guards(merged, guards, meta.line)
            if meta.exit_kind:
                _apply_guards(merged,
                              [(key, meta.exit_kind) for key, _ in guards],
                              meta.line)
        env.clear()
        env.update(merged)

    def _do_loop(self, meta: LoopMeta, env: Env) -> None:
        kind = meta.kind
        if kind == "foreach":
            stepped = frozenset(
                t.step(STEP_ASSIGN, "foreach", meta.line)
                for t in self.regs[meta.subject])
            branch = dict(env)
            for name in meta.value_names:
                branch[name] = stepped
            if meta.key_name is not None:
                branch[meta.key_name] = stepped
            for _ in range(2):
                inner = dict(branch)
                self.run_span(meta.body_span, inner)
                _join_into(branch, inner)
            _join_into(env, branch)
            return
        if kind == "while":
            self.run_span(meta.cond_span, env)
        # two passes propagate loop-carried taint (e.g. $q .= ...)
        for _ in range(2):
            branch = dict(env)
            self.run_span(meta.body_span, branch)
            if meta.step_span is not None:
                self.run_span(meta.step_span, branch)
            _join_into(env, branch)
        if kind == "dowhile":
            self.run_span(meta.cond_span, env)

    def _do_switch(self, meta: SwitchMeta, env: Env) -> None:
        merged: Env = dict(env)
        # fallthrough over-approximation: each case starts from the
        # cumulative state, as if every earlier case fell through
        branch = dict(env)
        for test_span, body_span in meta.cases:
            if test_span is not None:
                self.run_span(test_span, env)
            self.run_span(body_span, branch)
            _join_into(merged, branch)
        env.clear()
        env.update(merged)

    def _do_try(self, meta: TryMeta, env: Env) -> None:
        # the try body already ran inline on the live env
        for catch_span in meta.catch_spans:
            branch = dict(env)
            self.run_span(catch_span, branch)
            _join_into(env, branch)

    # ------------------------------------------------------------------
    # summaries applied at call sites
    # ------------------------------------------------------------------
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
# env helpers (shared semantics with the reference walker)
# ---------------------------------------------------------------------------

def _join_into(target: Env, other: Env) -> None:
    """In-place join: target := target ⊔ other."""
    for name, taints in other.items():
        if name in target:
            target[name] = union(target[name], taints)
        else:
            target[name] = taints


_GUARD_PREFIX = "\x00guard:"


def _apply_guards(env: Env, guards, line: int) -> None:
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
