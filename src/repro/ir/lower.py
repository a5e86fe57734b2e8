"""One-pass AST -> flat IR lowering for the taint engine.

:func:`lower_program` walks a parsed file exactly once and emits the
linear instruction stream described in :mod:`repro.ir.opcodes`.  The
lowering is a statement-for-statement, expression-for-expression mirror
of the original AST walker (kept as the reference implementation in
:mod:`repro.analysis.astwalk`): instruction order IS the walker's
evaluation order, so env mutations, guard applications and sink checks
happen in precisely the same sequence and the engine's findings stay
byte-identical.

Everything that depends only on *syntax* is precomputed here, once per
unique file content instead of once per visit:

* condition guards (:func:`extract_guards`), including the isset/empty
  forms and superglobal-read keys;
* sink context strings (:func:`expr_context` / :func:`context_text`)
  mined by the false-positive predictor;
* receiver descriptions for method-sink hint matching;
* property/static-property storage keys and superglobal descriptors;
* branch-termination facts (``if (!valid($x)) exit;`` handling);
* lowercased call names, with :func:`sys.intern` applied to every name
  that ends up as a dict key at run time.

What is deliberately **not** decided here: whether a name is an entry
point, source, sanitizer or sink.  Those live in the engine's merged
config tables and are resolved per instruction at run time, keeping
lowered modules config-independent and therefore cacheable purely by
content hash (see ``docs/ir.md``).
"""

from __future__ import annotations

from sys import intern

from repro.php import ast
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
    IRInstr,
    IRModule,
    LoopMeta,
    Span,
    SwitchMeta,
    TryMeta,
)

#: step-kind literal for ``.=`` (mirrors ``model.STEP_CONCAT`` without
#: importing the analysis layer from the IR package).
_KIND_CONCAT = "concat"

_TERMINATORS = (ast.Return, ast.Throw, ast.Break, ast.Continue)


def lower_program(program: ast.Program) -> IRModule:
    """Lower one parsed file to its flat IR module."""
    return _Lowerer().lower(program)


class _Lowerer:
    """Single-use lowering state for one program."""

    def __init__(self) -> None:
        self.code: list[IRInstr] = []
        self.n_regs = 1          # register 0 is the constant EMPTY set
        self.decls: dict = {}    # name -> FunctionDecl/MethodDecl

    # ------------------------------------------------------------------
    def lower(self, program: ast.Program) -> IRModule:
        self._collect(program.body)
        start = len(self.code)
        for stmt in program.body:
            self._stmt(stmt)
        top_span = (start, len(self.code))
        functions: dict = {}
        lowered: dict[int, IRFunction] = {}   # id(decl) -> shared body
        for name, decl in self.decls.items():
            fn = lowered.get(id(decl))
            if fn is None:
                body_start = len(self.code)
                for stmt in (decl.body or []):
                    self._stmt(stmt)
                fn = IRFunction(intern(name),
                                tuple(p.name for p in decl.params),
                                (body_start, len(self.code)), decl.line)
                lowered[id(decl)] = fn
            functions[intern(name)] = fn
        return IRModule(self.code, top_span, functions, self.n_regs)

    # ------------------------------------------------------------------
    # declaration collection (mirrors the walker: one control level deep)
    # ------------------------------------------------------------------
    # ``IRModule.functions`` is the one declaration table past the parse:
    # the engine runs it, the include context merges a closure's tables
    # from it and the whole-project call-edge pass links calls by it.
    def _collect(self, body) -> None:
        for node in body:
            if isinstance(node, ast.FunctionDecl):
                self.decls.setdefault(node.name.lower(), node)
                self._collect(node.body)
            elif isinstance(node, ast.ClassDecl):
                for member in node.members:
                    if isinstance(member, ast.MethodDecl) and member.body:
                        key = f"{node.name.lower()}::{member.name.lower()}"
                        self.decls.setdefault(key, member)
                        # loose resolution by bare method name as fallback
                        self.decls.setdefault(member.name.lower(), member)
            elif isinstance(node, (ast.Block, ast.If, ast.While,
                                   ast.DoWhile, ast.For, ast.Foreach,
                                   ast.Switch, ast.Try, ast.NamespaceDecl)):
                for child in node.children():
                    if isinstance(child, (ast.FunctionDecl, ast.ClassDecl)):
                        self._collect([child])

    # ------------------------------------------------------------------
    # emission primitives
    # ------------------------------------------------------------------
    def _reg(self) -> int:
        r = self.n_regs
        self.n_regs += 1
        return r

    def _emit(self, op: int, dst: int = 0, a: int = 0, name: str = "",
              line: int = 0, extra=None) -> None:
        self.code.append(IRInstr(op, dst, a, name, line, extra))

    def _emit_jump(self) -> int:
        """Emit a JUMP over a span region; patch the target later."""
        self.code.append(IRInstr(JUMP))
        return len(self.code) - 1

    def _patch_jump(self, index: int) -> None:
        self.code[index].a = len(self.code)

    def _span(self, body) -> Span:
        start = len(self.code)
        for stmt in body:
            self._stmt(stmt)
        return (start, len(self.code))

    def _guarded_span(self, body, guards: tuple, line: int) -> Span:
        start = len(self.code)
        if guards:
            self._emit(GUARD, line=line, extra=guards)
        for stmt in body:
            self._stmt(stmt)
        return (start, len(self.code))

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def _stmt(self, node) -> None:  # noqa: C901
        if isinstance(node, (ast.InlineHTML, ast.FunctionDecl,
                             ast.ClassDecl, ast.UseDecl, ast.ConstStatement,
                             ast.Global, ast.StaticVarDecl,
                             ast.Goto, ast.Label)):
            return
        if isinstance(node, ast.NamespaceDecl):
            if node.body:
                for stmt in node.body:
                    self._stmt(stmt)
            return
        if isinstance(node, ast.ExpressionStatement):
            self._expr(node.expr)
            return
        if isinstance(node, ast.Echo):
            for expr in node.exprs:
                value = self._expr(expr)
                self._emit(SINK, a=value, name="echo", line=node.line,
                           extra=("echo", expr_context(expr)))
            return
        if isinstance(node, ast.Block):
            for stmt in node.body:
                self._stmt(stmt)
            return
        if isinstance(node, ast.If):
            self._lower_if(node)
            return
        if isinstance(node, (ast.While, ast.DoWhile)):
            jump = self._emit_jump()
            cond_start = len(self.code)
            self._expr(node.cond)
            cond_span = (cond_start, len(self.code))
            body_span = self._span(node.body)
            self._patch_jump(jump)
            kind = "dowhile" if isinstance(node, ast.DoWhile) else "while"
            self._emit(LOOP, line=node.line,
                       extra=LoopMeta(kind, node.line, body_span,
                                      cond_span=cond_span))
            return
        if isinstance(node, ast.For):
            for expr in node.init:
                self._expr(expr)
            for expr in node.cond:
                self._expr(expr)
            jump = self._emit_jump()
            body_span = self._span(node.body)
            step_start = len(self.code)
            for expr in node.step:
                self._expr(expr)
            step_span = (step_start, len(self.code))
            self._patch_jump(jump)
            self._emit(LOOP, line=node.line,
                       extra=LoopMeta("for", node.line, body_span,
                                      step_span=step_span))
            return
        if isinstance(node, ast.Foreach):
            subject = self._expr(node.subject)
            value_names: list[str] = []
            if isinstance(node.value_var, ast.Variable):
                value_names.append(node.value_var.name)
            elif isinstance(node.value_var, ast.ListAssign):
                # foreach ($rows as list($a, $b)) destructuring
                for target in node.value_var.targets:
                    if isinstance(target, ast.Variable):
                        value_names.append(target.name)
            elif isinstance(node.value_var, ast.ArrayLiteral):
                # foreach ($rows as [$a, $b]) destructuring
                for item in node.value_var.items:
                    if isinstance(item.value, ast.Variable):
                        value_names.append(item.value.name)
            key_name = node.key_var.name \
                if isinstance(node.key_var, ast.Variable) else None
            jump = self._emit_jump()
            body_span = self._span(node.body)
            self._patch_jump(jump)
            self._emit(LOOP, line=node.line,
                       extra=LoopMeta("foreach", node.line, body_span,
                                      subject=subject,
                                      value_names=tuple(
                                          intern(n) for n in value_names),
                                      key_name=key_name))
            return
        if isinstance(node, ast.Switch):
            self._expr(node.subject)
            jump = self._emit_jump()
            cases = []
            for case in node.cases:
                test_span = None
                if case.test is not None:
                    test_start = len(self.code)
                    self._expr(case.test)
                    test_span = (test_start, len(self.code))
                cases.append((test_span, self._span(case.body)))
            self._patch_jump(jump)
            self._emit(SWITCH, extra=SwitchMeta(tuple(cases)))
            return
        if isinstance(node, ast.Return):
            if node.expr is not None:
                value = self._expr(node.expr)
                self._emit(RET, a=value, line=node.line)
            return
        if isinstance(node, ast.Unset):
            names = tuple(intern(var.name) for var in node.vars
                          if isinstance(var, ast.Variable))
            if names:
                self._emit(UNSET, extra=names)
            return
        if isinstance(node, ast.Throw):
            if node.expr is not None:
                self._expr(node.expr)
            return
        if isinstance(node, ast.Try):
            for stmt in node.body:       # try body runs on the live env
                self._stmt(stmt)
            jump = self._emit_jump()
            catch_spans = tuple(self._span(catch.body)
                                for catch in node.catches)
            self._patch_jump(jump)
            self._emit(TRY, extra=TryMeta(catch_spans))
            if node.finally_body:
                for stmt in node.finally_body:
                    self._stmt(stmt)
            return
        if isinstance(node, (ast.Break, ast.Continue)):
            return
        # any other statement-ish node: evaluate it as an expression
        self._expr(node)

    def _lower_if(self, node: ast.If) -> None:
        self._expr(node.cond)
        guards = tuple(extract_guards(node.cond))
        jump = self._emit_jump()
        then_span = self._guarded_span(node.then, guards, node.line)
        elifs = []
        for cond, body in node.elifs:
            cond_start = len(self.code)
            self._expr(cond)
            cond_span = (cond_start, len(self.code))
            branch_guards = tuple(extract_guards(cond))
            elifs.append((cond_span,
                          self._guarded_span(body, branch_guards,
                                             node.line)))
        else_span = self._span(node.otherwise) \
            if node.otherwise is not None else None
        self._patch_jump(jump)
        self._emit(IF, line=node.line,
                   extra=IfMeta(node.line, guards, then_span,
                                tuple(elifs), else_span,
                                terminates(node.then),
                                terminator_kind(node.then)))

    # ------------------------------------------------------------------
    # expressions (return the result register; 0 is the EMPTY constant)
    # ------------------------------------------------------------------
    def _expr(self, node) -> int:  # noqa: C901
        if node is None or isinstance(node, (ast.Literal, ast.ConstFetch,
                                             ast.ClassConstAccess)):
            return 0
        if isinstance(node, ast.Variable):
            dst = self._reg()
            self._emit(SOURCE, dst=dst, name=intern(node.name),
                       line=node.line, extra=intern("$" + node.name))
            return dst
        if isinstance(node, ast.ArrayAccess):
            return self._lower_array_read(node)
        if isinstance(node, ast.PropertyAccess):
            if node.name and isinstance(node.name, ast.Node):
                self._expr(node.name)
            key = property_key(node)
            if key is not None:
                dst = self._reg()
                self._emit(LOAD_KEY, dst=dst, name=intern(key))
                return dst
            return self._expr(node.obj)
        if isinstance(node, ast.StaticPropertyAccess):
            key = f"{node.cls if isinstance(node.cls, str) else '?'}" \
                  f"::${node.name}"
            dst = self._reg()
            self._emit(LOAD_KEY, dst=dst, name=intern(key))
            return dst
        if isinstance(node, ast.InterpolatedString):
            regs = tuple(self._expr(p) for p in node.parts
                         if not isinstance(p, ast.Literal))
            if not regs:
                return 0
            dst = self._reg()
            self._emit(CONCAT, dst=dst, name="interpolation",
                       line=node.line, extra=regs)
            return dst
        if isinstance(node, ast.ShellExec):
            regs = tuple(self._expr(p) for p in node.parts
                         if not isinstance(p, ast.Literal))
            tmp = self._reg()
            self._emit(UNION, dst=tmp, extra=regs)
            self._emit(SINK, a=tmp, name="shell_exec", line=node.line,
                       extra=("shell", ""))
            return 0
        if isinstance(node, ast.Assign):
            return self._lower_assign(node)
        if isinstance(node, ast.ListAssign):
            value = self._expr(node.value)
            names = tuple(intern(t.name) for t in node.targets
                          if isinstance(t, ast.Variable))
            if names:
                self._emit(LIST_ASSIGN, a=value, line=node.line,
                           extra=names)
            return value
        if isinstance(node, ast.BinaryOp):
            left = self._expr(node.left)
            right = self._expr(node.right)
            if node.op == ".":
                dst = self._reg()
                self._emit(CONCAT, dst=dst, name=".", line=node.line,
                           extra=(left, right))
                return dst
            if node.op == "??":
                dst = self._reg()
                self._emit(UNION, dst=dst, extra=(left, right))
                return dst
            # arithmetic coerces to numbers, comparisons/logic to bools:
            # both neutralize taint, so no instruction is needed
            return 0
        if isinstance(node, (ast.UnaryOp, ast.IncDec)):
            self._expr(node.operand)
            return 0
        if isinstance(node, ast.Cast):
            value = self._expr(node.expr)
            dst = self._reg()
            self._emit(CAST, dst=dst, a=value, name=intern(node.to))
            return dst
        if isinstance(node, ast.Ternary):
            self._expr(node.cond)
            # short ternary `?:` re-evaluates the condition as the value,
            # exactly like the walker did
            then = self._expr(node.then) if node.then is not None \
                else self._expr(node.cond)
            other = self._expr(node.otherwise)
            dst = self._reg()
            self._emit(UNION, dst=dst, extra=(then, other))
            return dst
        if isinstance(node, ast.ErrorSuppress):
            return self._expr(node.expr)
        if isinstance(node, (ast.Isset, ast.Empty, ast.InstanceOf)):
            for child in node.children():
                self._expr(child)
            return 0
        if isinstance(node, ast.PrintExpr):
            value = self._expr(node.expr)
            self._emit(SINK, a=value, name="print", line=node.line,
                       extra=("echo", ""))
            return 0
        if isinstance(node, ast.ExitExpr):
            if node.expr is not None:
                value = self._expr(node.expr)
                self._emit(SINK, a=value, name="exit", line=node.line,
                           extra=("echo", ""))
            return 0
        if isinstance(node, ast.Include):
            value = self._expr(node.expr)
            self._emit(SINK, a=value, name=intern(node.kind),
                       line=node.line, extra=("include", ""))
            return 0
        if isinstance(node, ast.ArrayLiteral):
            regs = [self._expr(item.value) for item in node.items]
            regs += [self._expr(item.key) for item in node.items
                     if item.key is not None]
            if not regs:
                return 0
            dst = self._reg()
            self._emit(UNION, dst=dst, extra=tuple(regs))
            return dst
        if isinstance(node, ast.FunctionCall):
            arg_regs = tuple(self._expr(a.value) for a in node.args)
            if not isinstance(node.name, str):
                self._expr(node.name)
                if not arg_regs:
                    return 0
                dst = self._reg()
                self._emit(CALL_FOLD, dst=dst, name="dynamic_call",
                           line=node.line, extra=arg_regs)
                return dst
            dst = self._reg()
            self._emit(CALL, dst=dst,
                       name=intern(node.name.lower().lstrip("\\")),
                       line=node.line,
                       extra=(arg_regs, context_text(node.args)))
            return dst
        if isinstance(node, ast.MethodCall):
            obj = self._expr(node.obj)
            arg_regs = tuple(self._expr(a.value) for a in node.args)
            if not isinstance(node.name, str):
                dst = self._reg()
                self._emit(UNION, dst=dst, extra=(obj,) + arg_regs)
                return dst
            dst = self._reg()
            self._emit(CALL_METHOD, dst=dst, a=obj,
                       name=intern(node.name.lower()), line=node.line,
                       extra=(arg_regs, intern(receiver_text(node.obj)),
                              context_text(node.args)))
            return dst
        if isinstance(node, ast.StaticCall):
            arg_regs = tuple(self._expr(a.value) for a in node.args)
            if not isinstance(node.name, str):
                if not arg_regs:
                    return 0
                dst = self._reg()
                self._emit(UNION, dst=dst, extra=arg_regs)
                return dst
            cls = node.cls.lower() if isinstance(node.cls, str) else "?"
            dst = self._reg()
            self._emit(CALL_STATIC, dst=dst,
                       name=intern(node.name.lower()), line=node.line,
                       extra=(arg_regs, intern(cls),
                              context_text(node.args)))
            return dst
        if isinstance(node, ast.New):
            arg_regs = tuple(self._expr(a.value) for a in node.args)
            if not arg_regs:
                return 0
            cls = node.cls if isinstance(node.cls, str) else "?"
            dst = self._reg()
            self._emit(CALL_FOLD, dst=dst, name=intern(f"new {cls}"),
                       line=node.line, extra=arg_regs)
            return dst
        if isinstance(node, ast.Clone):
            return self._expr(node.expr)
        if isinstance(node, ast.Closure):
            if node.is_arrow:
                # arrow functions capture the enclosing scope implicitly;
                # their body is one expression, run in a scope copy
                body = node.body[0]
                expr = body.expr if isinstance(body, ast.Return) else body
                jump = self._emit_jump()
                start = len(self.code)
                result = self._expr(expr)
                span = (start, len(self.code))
                self._patch_jump(jump)
                dst = self._reg()
                self._emit(ARROW, dst=dst, a=result, extra=span)
                return dst
            uses = tuple(intern(name) for name, _ in node.uses)
            jump = self._emit_jump()
            span = self._span(node.body)
            self._patch_jump(jump)
            self._emit(CLOSURE, extra=(uses, span))
            return 0
        if isinstance(node, ast.Match):
            self._expr(node.subject)
            regs = []
            for arm in node.arms:
                for cond in arm.conditions or []:
                    self._expr(cond)
                regs.append(self._expr(arm.body))
            if not regs:
                return 0
            dst = self._reg()
            self._emit(UNION, dst=dst, extra=tuple(regs))
            return dst
        if isinstance(node, ast.VariableVariable):
            if node.expr is not None:
                self._expr(node.expr)
            return 0
        # fallback: evaluate children, propagate nothing
        for child in node.children():
            self._expr(child)
        return 0

    # ------------------------------------------------------------------
    def _lower_array_read(self, node: ast.ArrayAccess) -> int:
        if node.index is not None:
            self._expr(node.index)
        base = node.base
        if isinstance(base, ast.Variable):
            key = None
            if isinstance(node.index, ast.Literal):
                key = str(node.index.value).lower()
            desc = entry_point_desc(base.name, node.index)
            dst = self._reg()
            self._emit(SOURCE_INDEX, dst=dst, name=intern(base.name),
                       line=node.line, extra=(key, intern(desc)))
            return dst
        return self._expr(base)

    def _lower_assign(self, node: ast.Assign) -> int:
        value = self._expr(node.value)
        if node.op in (".=",):
            tmp = self._reg()
            self._emit(STEP, dst=tmp, a=value, name=".=", line=node.line,
                       extra=_KIND_CONCAT)
            value = tmp
        target = node.target
        if isinstance(target, ast.Variable):
            dst = self._reg()
            self._emit(ASSIGN, dst=dst, a=value,
                       name=intern(target.name), line=node.line,
                       extra=(intern(f"${target.name}"), node.op != "="))
            return dst
        if isinstance(target, ast.ArrayAccess):
            if target.index is not None:
                self._expr(target.index)
            base = target.base
            if isinstance(base, ast.Variable):
                dst = self._reg()
                self._emit(APPEND, dst=dst, a=value,
                           name=intern(base.name), line=node.line,
                           extra=intern(f"${base.name}[]"))
                return dst
            self._expr(base)
            return value
        key = property_key(target) \
            if isinstance(target, ast.PropertyAccess) else None
        if key is not None:
            dst = self._reg()
            self._emit(ASSIGN_KEY, dst=dst, a=value, name=intern(key),
                       line=node.line, extra=node.op != "=")
            return dst
        if isinstance(target, ast.StaticPropertyAccess):
            skey = f"{target.cls if isinstance(target.cls, str) else '?'}" \
                   f"::${target.name}"
            dst = self._reg()
            self._emit(ASSIGN_STATIC, dst=dst, a=value,
                       name=intern(skey), line=node.line)
            return dst
        return value


# ---------------------------------------------------------------------------
# syntax-only helpers (shared with the engine's runtime via re-export)
# ---------------------------------------------------------------------------

def extract_guards(cond) -> list[tuple[str, str]]:
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


def _guard_keys(node) -> list[str]:
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


def entry_point_desc(base_name: str, index) -> str:
    """Canonical description of a superglobal read, e.g. ``$_GET['id']``."""
    if isinstance(index, ast.Literal):
        return f"${base_name}['{index.value}']"
    return f"${base_name}[...]"


def property_key(node: ast.PropertyAccess) -> str | None:
    """Key for property taint storage: ``$obj->prop`` -> ``obj->prop``."""
    if not isinstance(node.name, str):
        return None
    if isinstance(node.obj, ast.Variable):
        return f"{node.obj.name}->{node.name}"
    if isinstance(node.obj, ast.PropertyAccess):
        inner = property_key(node.obj)
        if inner is not None:
            return f"{inner}->{node.name}"
    return None


def receiver_text(node) -> str:
    """Loose textual description of a method receiver for hint matching."""
    if isinstance(node, ast.Variable):
        return node.name.lower()
    if isinstance(node, ast.PropertyAccess):
        name = node.name if isinstance(node.name, str) else ""
        return f"{receiver_text(node.obj)}->{name}".lower()
    if isinstance(node, ast.MethodCall):
        name = node.name if isinstance(node.name, str) else ""
        return f"{receiver_text(node.obj)}.{name}()".lower()
    if isinstance(node, ast.New):
        cls = node.cls if isinstance(node.cls, str) else ""
        return f"new:{cls}".lower()
    if isinstance(node, ast.FunctionCall) and isinstance(node.name, str):
        return f"{node.name}()".lower()
    return ""


def terminates(body) -> bool:
    """Does this branch unconditionally leave the enclosing flow?"""
    for stmt in body:
        if isinstance(stmt, _TERMINATORS):
            return True
        if isinstance(stmt, ast.ExpressionStatement) and \
                isinstance(stmt.expr, ast.ExitExpr):
            return True
    return False


def terminator_kind(body) -> str | None:
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


def expr_context(expr) -> str:
    """Approximate the literal text around tainted data in an expression.

    Literal string fragments are kept verbatim; every non-literal part is
    replaced by the placeholder ``§``.  The false-positive predictor
    mines this for the SQL-query symptoms of Table I (FROM clause,
    aggregate functions, complex queries, numeric entry points).
    """
    if expr is None:
        return ""
    if isinstance(expr, ast.Literal):
        return str(expr.value) if expr.kind == "string" else "§"
    if isinstance(expr, ast.InterpolatedString):
        return "".join(expr_context(p) for p in expr.parts)
    if isinstance(expr, ast.BinaryOp) and expr.op == ".":
        return expr_context(expr.left) + expr_context(expr.right)
    if isinstance(expr, ast.Assign):
        return expr_context(expr.value)
    if isinstance(expr, ast.ErrorSuppress):
        return expr_context(expr.expr)
    return "§"


def context_text(args) -> str:
    return " ".join(expr_context(a.value) for a in args)
