"""Static resolution of ``include``/``require`` targets.

The paper's tool analyzes whole applications: taint entering in one file
must be observable at a sink in another when the files are linked by an
``include``.  This module provides the static half of that story:

* :func:`include_targets` folds the target of every
  ``include``/``require``(``_once``) keyword straight from the lexer's
  tokens — no parse.  The grammar it folds is small: string literals,
  ``__DIR__``, ``dirname(__FILE__)``, ``.`` concatenation, parentheses
  and double-quoted strings without variables.  Targets stay
  *symbolic*: ``None`` marks the including file's directory, so a
  target depends on the file's content alone and is cached per content
  hash inside the scan's per-file record
  (:class:`~repro.analysis.prefilter.FileRecord`).  Anything else —
  variables, function results — is a dynamic target.
* :class:`IncludeResolver` resolves symbolic targets against the project
  file set: literal paths, the including file's directory and, as a last
  resort, a unique-basename match anywhere in the project.  Dynamic and
  unmatched targets are counted as *unresolved* and the file simply
  falls back to per-file analysis — never an error.
  The whole-project policy (``wape scan --project``) also adds a *call
  edge* from each file to the home file of every function or method it
  calls by literal name but gets from neither itself nor its includes;
  finding those calls is the one place the resolver parses.
* :class:`IncludeGraph` is the resolved project graph: a picklable mapping
  from each file to its direct dependencies, plus per-file
  resolved/unresolved counters for telemetry.
* :class:`IncludeContext` turns the graph into what the
  :class:`~repro.analysis.engine.TaintEngine` needs per analyzed file: the
  merged function-declaration table of the include closure, the *composed
  function summaries* of every dependency, and the propagated global
  taint state of every included file's top level.  Per-dependency state
  is computed **once** — one ``analyze_with_state`` run per dependency
  yields both its exported env and its summaries — then composed into
  every includer, so analyzing ten files that include ``db.php`` runs
  ``db.php``'s bodies once, not ten times.  With a
  :class:`~repro.analysis.summaries.SummaryCache` attached, that state
  additionally persists on disk keyed by content + closure + knowledge
  fingerprint, so a later process (worker, re-scan, daemon) composes
  cached summaries without re-executing dependency code at all.

``include_once``/``require_once`` cycles are handled the way PHP handles
them: each file contributes its state once; re-entry contributes nothing.

Where the token fold and a parse can disagree (only on damaged PHP): a
keyword inside a statement that parse recovery drops still counts, and
a file whose tokens lex but whose statements the recovering parser
cannot salvage still has its edges.  A file the lexer rejects has no
edges, and includes nested inside ``{$...}`` string interpolation are
not followed.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from repro.exceptions import PhpSyntaxError
from repro.ir.opcodes import CALL, CALL_METHOD, CALL_STATIC, IRModule
from repro.php import ast, tokenize
from repro.php.ast_store import AstStore
from repro.php.parser import _ASSIGN_OPS, _BINARY_PREC, parse_interpolated
from repro.php.tokens import Token, TokenType as T

#: cheap byte-level pre-filter: files without an include/require
#: *keyword* are never lexed for their targets (the common case in big
#: trees).  Case-insensitive, like PHP keywords.  The word boundary
#: matters: plain substring matching drags in every file that merely
#: says "required" in a form label or comment.
_HINT_RE = re.compile(rb"\b(?:include|require)(?:_once)?\b", re.IGNORECASE)

#: one include target: string parts and ``None`` for the including
#: file's directory (``__DIR__``, ``dirname(__FILE__)``).
IncludeTarget = tuple[str | None, ...]

_KW_INCLUDE, _KW_INCLUDE_ONCE = T.KW_INCLUDE, T.KW_INCLUDE_ONCE
_KW_REQUIRE, _KW_REQUIRE_ONCE = T.KW_REQUIRE, T.KW_REQUIRE_ONCE

#: a keyword right after one of these is a name (``$o->require()``,
#: ``Foo::include()``, ``function include()``, ``const INCLUDE``, ...),
#: not an include.
_NAME_AFTER = frozenset({T.ARROW, T.NULLSAFE_ARROW, T.DOUBLE_COLON,
                         T.BACKSLASH, T.KW_FUNCTION, T.KW_CONST,
                         T.KW_CLASS, T.KW_INTERFACE, T.KW_TRAIT, T.KW_AS})
#: ... and so is a keyword right before one of these (``INCLUDE = 1`` in
#: a constant list, a named argument or a label).
_NAME_BEFORE = frozenset({T.ASSIGN, T.COLON})

#: tokens that extend an expression past a complete operand: postfix
#: access, any binary operator but ``.``, ``**``, ``instanceof``,
#: ternary, coalesce, assignment and ``and``/``or``/``xor``.  After a
#: constant operand they make the whole target dynamic.
_CONTINUES = (frozenset(_BINARY_PREC) - {T.DOT}) | frozenset(_ASSIGN_OPS) \
    | frozenset({T.POW, T.KW_INSTANCEOF, T.COALESCE, T.QUESTION,
                 T.KW_AND, T.KW_OR, T.KW_XOR, T.ARROW, T.NULLSAFE_ARROW,
                 T.DOUBLE_COLON, T.LBRACKET, T.INC, T.DEC})


def include_targets(tokens: list[Token]) -> tuple[IncludeTarget | None, ...]:
    """The folded target of every include keyword in *tokens*, in order.

    Mirrors what the parser builds for ``include EXPR``: *EXPR* is
    folded to a symbolic target when it is a ``.``-chain of constant
    operands that the next token ends, and is ``None`` (dynamic) when
    anything else appears in it.
    """
    out: list[IncludeTarget | None] = []
    for i, tok in enumerate(tokens):
        kind = tok.type
        if kind is not _KW_INCLUDE and kind is not _KW_REQUIRE \
                and kind is not _KW_INCLUDE_ONCE \
                and kind is not _KW_REQUIRE_ONCE:
            continue
        if i:
            before = tokens[i - 1].type
            if before in _NAME_AFTER or (
                    before is T.AMP and i > 1
                    and tokens[i - 2].type is T.KW_FUNCTION):
                continue
        if tokens[i + 1].type in _NAME_BEFORE:
            continue
        chain = _chain(tokens, i + 1)
        out.append(tuple(chain[0]) if chain is not None else None)
    return tuple(out)


def _chain(tokens: list[Token], i: int
           ) -> tuple[list[str | None], int, bool] | None:
    """Fold a ``.``-chain of constant operands starting at ``tokens[i]``.

    Returns (merged parts, index of the token that ends the chain,
    whether the chain is one ``dirname()`` call), or ``None`` when the
    expression is not a constant.
    """
    parts: list[str | None] = []
    operands = 0
    while True:
        got = _operand(tokens, i)
        if got is None:
            return None
        value, i, call = got
        operands += 1
        for part in value:
            if part is not None and parts and parts[-1] is not None:
                parts[-1] += part
            else:
                parts.append(part)
        kind = tokens[i].type
        if kind is T.DOT:
            i += 1
            continue
        if kind in _CONTINUES or (kind is T.LPAREN and call):
            return None
        return parts, i, call and operands == 1


def _operand(tokens: list[Token], i: int
             ) -> tuple[list[str | None], int, bool] | None:
    """One constant operand at ``tokens[i]``: (parts, next index, is a
    ``dirname()`` call), or ``None``."""
    tok = tokens[i]
    while tok.type is T.AMP:  # a stray by-ref ``&`` the parser drops
        i += 1
        tok = tokens[i]
    kind = tok.type
    if kind is T.SQ_STRING or kind is T.NOWDOC:
        return [tok.value], i + 1, False
    if kind is T.DQ_STRING or kind is T.HEREDOC:
        text = _interpolated_constant(tok.value)
        return ([text], i + 1, False) if text is not None else None
    if kind is T.LPAREN:
        inner = _chain(tokens, i + 1)
        if inner is None or tokens[inner[1]].type is not T.RPAREN:
            return None
        return inner[0], inner[1] + 1, inner[2]
    if kind is T.IDENT:
        name = tok.value.lower()
        if name == "__dir__" and not _qualified(tokens, i):
            return [None], i + 1, False
        if name == "dirname" and tokens[i + 1].type is T.LPAREN:
            end = _dirname_of_file(tokens, i + 2)
            if end is not None:
                return [None], end, True
    return None


def _qualified(tokens: list[Token], i: int) -> bool:
    """Whether the name at ``tokens[i]`` is a call, a static access or a
    namespaced name rather than a bare constant."""
    kind = tokens[i + 1].type
    return kind is T.LPAREN or kind is T.DOUBLE_COLON or (
        kind is T.BACKSLASH and tokens[i + 2].type is T.IDENT)


def _dirname_of_file(tokens: list[Token], i: int) -> int | None:
    """Index after ``dirname(__FILE__)``'s closing parenthesis when
    ``tokens[i:]`` is its one argument, else ``None``."""
    if tokens[i].type is T.IDENT and tokens[i + 1].type is T.COLON \
            and tokens[i + 2].type is not T.COLON:
        i += 2  # named argument
    if tokens[i].type is T.AMP:
        i += 1
    if tokens[i].type is T.ELLIPSIS:
        i += 1
    i = _file_constant(tokens, i)
    if i is None:
        return None
    if tokens[i].type is T.COMMA:
        i += 1
    return i + 1 if tokens[i].type is T.RPAREN else None


def _file_constant(tokens: list[Token], i: int) -> int | None:
    """Index after a (parenthesized) ``__FILE__`` at ``tokens[i]``."""
    while tokens[i].type is T.AMP:
        i += 1
    tok = tokens[i]
    if tok.type is T.LPAREN:
        end = _file_constant(tokens, i + 1)
        if end is None or tokens[end].type is not T.RPAREN:
            return None
        return end + 1
    if tok.type is T.IDENT and tok.value.lower() == "__file__" \
            and not _qualified(tokens, i):
        return i + 1
    return None


def _interpolated_constant(raw: str) -> str | None:
    """The value of a double-quoted string or heredoc body, or ``None``
    when it interpolates a variable."""
    if "$" not in raw and "\\" not in raw:
        return raw
    node = parse_interpolated(raw, 0, 0)
    parts = node.parts if isinstance(node, ast.InterpolatedString) \
        else [node]
    if all(isinstance(p, ast.Literal) and p.kind == "string"
           for p in parts):
        return "".join(str(p.value) for p in parts)
    return None


def lex_targets(raw: bytes, path: str = "<source>"
                ) -> tuple[tuple[IncludeTarget | None, ...],
                           list[Token] | None, str | None]:
    """(include targets, tokens, decoded text) of one file's bytes.

    Files without an include hint are not lexed (``((), None, None)``);
    a file the lexer rejects has no targets.
    """
    if _HINT_RE.search(raw) is None:
        return (), None, None
    text = raw.decode("utf-8", errors="replace")
    try:
        tokens = tokenize(text, path)
    except PhpSyntaxError:
        return (), None, None
    return include_targets(tokens), tokens, text


@dataclass
class IncludeGraph:
    """The resolved include graph of one project scan.

    Attributes:
        deps: file path -> direct, statically resolved include targets
            (paths exactly as the scan pipeline addresses them), followed
            by the file's call edges under the whole-project policy.
        resolved: file path -> number of include statements resolved
            (call edges are not counted here or in *unresolved*).
        unresolved: file path -> number of include statements whose
            target could not be determined statically.
    """

    deps: dict[str, tuple[str, ...]] = field(default_factory=dict)
    resolved: dict[str, int] = field(default_factory=dict)
    unresolved: dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.deps)

    def closure(self, path: str) -> tuple[str, ...]:
        """Every file reachable from *path* via includes (cycle-safe).

        *path* itself is excluded; order is deterministic breadth-first.
        """
        out: list[str] = []
        seen = {path}
        queue = list(self.deps.get(path, ()))
        while queue:
            dep = queue.pop(0)
            if dep in seen:
                continue
            seen.add(dep)
            out.append(dep)
            queue.extend(self.deps.get(dep, ()))
        return tuple(out)

    def components(self, paths: list[str]) -> list[list[str]]:
        """Partition *paths* into include-connected groups.

        Files linked by an include edge (in either direction) end up in
        the same group, so a scheduler can keep them in one worker chunk
        and reuse the memoized dependency state.  Group order follows the
        first appearance of a member in *paths*.
        """
        index = {p: i for i, p in enumerate(paths)}
        parent = list(range(len(paths)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for path in paths:
            for dep in self.deps.get(path, ()):
                if dep in index:
                    ra, rb = find(index[path]), find(index[dep])
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
        groups: dict[int, list[str]] = {}
        for i, path in enumerate(paths):
            groups.setdefault(find(i), []).append(path)
        return [groups[root] for root in sorted(groups)]


class IncludeResolver:
    """Resolves symbolic include targets against one scan's file set."""

    def __init__(self, paths: list[str]) -> None:
        self.paths = list(paths)
        # membership indexes: absolute normalized path and basename
        self._by_abs: dict[str, str] = {}
        self._by_base: dict[str, list[str]] = {}
        for path in self.paths:
            self._by_abs.setdefault(self._abs(path), path)
            self._by_base.setdefault(os.path.basename(path), []).append(path)

    @staticmethod
    def _abs(path: str) -> str:
        return os.path.normcase(os.path.abspath(path))

    # ------------------------------------------------------------------
    def build(self, includes: dict[str, tuple[IncludeTarget | None, ...]]
              ) -> IncludeGraph:
        """Resolve every file's include targets (*includes*: path ->
        :func:`include_targets` result; missing paths have none)."""
        graph = IncludeGraph()
        for path in self.paths:
            targets = includes.get(path)
            if not targets:
                continue
            deps: list[str] = []
            resolved = unresolved = 0
            for target in targets:
                dep = self.resolve(target, path)
                if dep is None:
                    unresolved += 1
                    continue
                resolved += 1
                if dep != path and dep not in deps:
                    deps.append(dep)
            if deps:
                graph.deps[path] = tuple(deps)
            if resolved:
                graph.resolved[path] = resolved
            if unresolved:
                graph.unresolved[path] = unresolved
        return graph

    def resolve(self, target: IncludeTarget | None,
                src_path: str) -> str | None:
        """Resolve one symbolic include target to a project file path."""
        if target is None:
            return None
        here = None
        parts = []
        for part in target:
            if part is None:
                if here is None:
                    here = os.path.dirname(os.path.abspath(src_path))
                part = here
            parts.append(part)
        text = "".join(parts)
        if not text:
            return None
        if os.path.isabs(text):
            candidate = os.path.normcase(os.path.normpath(text))
        else:
            candidate = self._abs(
                os.path.join(os.path.dirname(src_path), text))
        hit = self._by_abs.get(candidate)
        if hit is not None:
            return hit
        # best effort: a unique basename anywhere in the project
        matches = self._by_base.get(os.path.basename(text), [])
        if len(matches) == 1:
            return matches[0]
        return None


def _link_calls(graph: IncludeGraph, modules: dict[str, IRModule]) -> None:
    """Add the whole-project policy's call edges to *graph*.

    *modules* maps each parsed file, in discovery order, to its lowered
    IR, so declarations and call names are exactly the keys the taint
    engine resolves.  A literal-name call (``f()``, ``->m()``,
    ``Cls::m()`` — which tries ``cls::m`` before ``m``) that neither the
    file nor its include closure declares links to the first file
    declaring the name: first declaration wins, as in
    :func:`build_function_table`.  Closures are taken over include edges
    only, so the result does not depend on the order files are linked.
    """
    homes: dict[str, str] = {}
    for path, module in modules.items():
        for name in module.functions:
            homes.setdefault(name, path)
    linked: dict[str, tuple[str, ...]] = {}
    for path, module in modules.items():
        declared = set(module.functions)
        for dep in graph.closure(path):
            if dep in modules:
                declared.update(modules[dep].functions)
        deps = list(graph.deps.get(path, ()))
        for instr in module.code:
            if instr.op == CALL_STATIC:
                names = (f"{instr.extra[1]}::{instr.name}", instr.name)
            elif instr.op == CALL or instr.op == CALL_METHOD:
                names = (instr.name,)
            else:
                continue
            for name in names:
                if name in declared:
                    break
                home = homes.get(name)
                if home is not None:
                    if home not in deps:
                        deps.append(home)
                    break
        if len(deps) > len(graph.deps.get(path, ())):
            linked[path] = tuple(deps)
    graph.deps.update(linked)


def build_function_table(programs) -> dict[str, tuple[ast.Node, str]]:
    """Declaration table over ``(path, program)`` pairs.

    Maps a lowercase function name — methods under both ``cls::name``
    and their bare name — to ``(declaration node, home file)``.  The
    first declaration wins, mirroring PHP's redeclare error (and the
    IR lowering's own per-file table).
    """
    table: dict[str, tuple[ast.Node, str]] = {}

    def collect(body, path):
        for node in body:
            if isinstance(node, ast.FunctionDecl):
                table.setdefault(node.name.lower(), (node, path))
                collect(node.body, path)
            elif isinstance(node, ast.ClassDecl):
                for member in node.members:
                    if isinstance(member, ast.MethodDecl) and member.body:
                        key = f"{node.name.lower()}::{member.name.lower()}"
                        table.setdefault(key, (member, path))
                        table.setdefault(member.name.lower(),
                                         (member, path))
            elif isinstance(node, (ast.Block, ast.If, ast.While,
                                   ast.DoWhile, ast.For, ast.Foreach,
                                   ast.Switch, ast.Try,
                                   ast.NamespaceDecl)):
                collect([c for c in node.children()
                         if isinstance(c, (ast.FunctionDecl,
                                           ast.ClassDecl))], path)

    for path, program in programs:
        collect(program.body, path)
    return table


def build_include_graph(paths: list[str],
                        includes: dict[str, tuple[IncludeTarget | None, ...]]
                        | None = None,
                        sources: dict[str, str] | None = None,
                        ast_store: AstStore | None = None,
                        project: bool = False) -> IncludeGraph:
    """Resolve the include graph of *paths* (plus call edges under the
    whole-project policy, *project*).

    Args:
        includes: path -> symbolic targets (:func:`include_targets`),
            normally the scan's cached per-file records; paths missing
            from it are read and lexed here.
        sources: path -> source text the whole-project policy parses
            instead of reading the file again.
        ast_store: the scan's parse memo, which the whole-project
            policy parses through.
    """
    includes = includes or {}
    missing = [path for path in paths if path not in includes]
    if missing:
        includes = dict(includes)
        for path in missing:
            try:
                with open(path, "rb") as f:
                    includes[path] = lex_targets(f.read(), path)[0]
            except OSError:
                includes[path] = ()
    graph = IncludeResolver(paths).build(includes)
    if project:
        _link_calls(graph, _modules(paths, sources or {},
                                    ast_store or AstStore()))
    return graph


def _modules(paths: list[str], sources: dict[str, str],
             store: AstStore) -> dict[str, IRModule]:
    """path -> lowered IR of every parseable file, in discovery order."""
    modules: dict[str, IRModule] = {}
    for path in paths:
        source = sources.get(path)
        if source is None:
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    source = f.read()
            except OSError:
                continue
        try:
            store.parse_recovering(source, path)
        except PhpSyntaxError:
            continue  # unparseable file: no call edges
        module = store.module_for(store.source_key(source))
        if module is not None:
            modules[path] = module
    return modules


class IncludeContext:
    """Per-process provider of cross-file analysis state.

    One instance lives in each scan worker (and in the in-process
    detector).  Given a file, it supplies the taint engine with the
    merged function table, the composed dependency summaries and the
    propagated global taint state of the file's include closure,
    memoizing all per-dependency work and (optionally) persisting it
    through a :class:`~repro.analysis.summaries.SummaryCache`.
    """

    def __init__(self, graph: IncludeGraph,
                 ast_store: AstStore | None = None,
                 summary_cache=None,
                 metrics=None) -> None:
        self.graph = graph
        self.ast_store = ast_store if ast_store is not None else AstStore()
        self.summary_cache = summary_cache
        self.metrics = metrics
        self._programs: dict[str, ast.Program | None] = {}
        self._modules: dict[str, object | None] = {}
        self._keys: dict[str, str | None] = {}
        self._tables: dict[str, dict] = {}
        #: path -> (exported env, own function summaries); the unit the
        #: summary cache persists and includers compose.
        self._states: dict[str, tuple[dict, dict]] = {}
        #: path -> content hash its memoized state was computed from
        #: (guards the preset replay against same-path/other-content).
        self._state_sources: dict[str, str | None] = {}
        self._active: set[str] = set()

    # ------------------------------------------------------------------
    def context_for(self, filename: str, engine
                    ) -> tuple[dict | None, dict | None, dict | None]:
        """(extra_functions, extra_summaries, initial_env) for *filename*.

        Returns ``(None, None, None)`` when the file has no resolved
        includes — the per-file fast path stays untouched.  The summaries
        are composed copies with ``internal_candidates`` stripped: the
        declaring file reports its internal flows, not its includers.
        """
        closure = self.graph.closure(filename)
        if not closure:
            return None, None, None
        extra: dict = {}
        for dep in closure:
            for name, entry in self._function_table(dep).items():
                extra.setdefault(name, entry)
        summaries: dict = {}
        env: dict = {}
        for dep in closure:
            dep_env, dep_summaries = self._state(dep, engine)
            for name, summary in dep_summaries.items():
                if name not in summaries:
                    summaries[name] = self._stripped(summary)
            for var, taints in dep_env.items():
                if var in env:
                    env[var] = env[var] | taints
                else:
                    env[var] = taints
        return (extra or None), (summaries or None), (env or None)

    def preset_for(self, filename: str, source_key: str | None = None
                   ) -> tuple[dict | None, str | None]:
        """(preset summaries, state key to store under) for *filename*.

        The scanned file's *own* summaries may already be known — computed
        earlier in this process when the file was analyzed as someone
        else's dependency, or persisted by the summary cache.  Replaying
        them skips re-interpreting every declared function body.  When
        they are not known, the returned key (non-``None`` only with a
        cache attached) is what :meth:`remember_state` stores under after
        the analysis ran.

        *source_key* is the content hash of the source actually being
        analyzed and is **required** for a replay: memoized/cached state
        belongs to a specific content, and ``detect_source`` may hand the
        same filename different text than what is on disk.
        """
        if source_key is None:
            return None, None
        state = self._states.get(filename)
        if state is not None:
            if self._state_sources.get(filename) == source_key:
                return (state[1] or None), None
            return None, None  # same path, different content
        if self.summary_cache is None:
            return None, None
        key = self._state_key(filename, source_key)
        if key is None:
            return None, None
        state = self._cached_state(key, filename)
        if state is not None:
            self._states[filename] = state
            self._state_sources[filename] = source_key
            return (state[1] or None), None
        return None, key

    def remember_state(self, filename: str, key: str | None,
                       env: dict, summaries: dict,
                       source_key: str | None = None) -> None:
        """Memoize (and persist) *filename*'s just-computed state.

        Called by the detector after a fresh analysis so includers of
        this file — and later processes, via the cache — reuse it.
        """
        state = (env, self._own_summaries(filename, summaries))
        if key is not None and self.summary_cache is not None:
            # always safe: the digest covers the analyzed content, so a
            # later lookup can only hit with identical text
            self.summary_cache.put(key, filename, state[0], state[1])
        if source_key is None:
            return  # content unknown: never path-memoize blindly
        disk = self._keys.get(filename)
        if disk is not None and disk != source_key:
            return  # detect_source text differs from the on-disk file
        self._states[filename] = state
        self._state_sources[filename] = source_key

    # ------------------------------------------------------------------
    def _program(self, path: str) -> ast.Program | None:
        # the per-path memo sits in front of the content-keyed store so a
        # repeat dependency costs neither a read nor a hash
        if path not in self._programs:
            program = key = module = None
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    source = f.read()
                key = self.ast_store.source_key(source)
                program, _ = self.ast_store.parse_recovering(source, path)
                module = self.ast_store.module_for(key)
            except (OSError, PhpSyntaxError):
                program = None
            self._programs[path] = program
            self._keys[path] = key
            self._modules[path] = module
        return self._programs[path]

    def _function_table(self, path: str) -> dict:
        table = self._tables.get(path)
        if table is None:
            program = self._program(path)
            table = build_function_table([(path, program)]) \
                if program is not None else {}
            self._tables[path] = table
        return table

    def _state(self, path: str, engine) -> tuple[dict, dict]:
        """(exported env, own summaries) of one dependency, computed once.

        The env is the global taint state *path* leaves behind after its
        top level; the summaries cover the functions *declared in path*
        (foreign names resolve through their own declaring file's state).
        Candidates found while executing the dependency are discarded —
        the dependency reports its own flows when it is scanned itself.
        Cycles contribute nothing on re-entry (PHP ``include_once``
        semantics).
        """
        state = self._states.get(path)
        if state is not None:
            src = self._state_sources.get(path)
            if src is None or src == self._source_key(path):
                return state
            # the memoized state came from detect_source text that is
            # not what is on disk: recompute the dependency from disk
        if path in self._active:
            return {}, {}
        self._active.add(path)
        try:
            program = self._program(path)
            if program is None:
                state = ({}, {})
            else:
                key = self._state_key(path)
                state = self._cached_state(key, path)
                if state is None:
                    extra, composed, init = self.context_for(path, engine)
                    _, env, summaries = engine.analyze_with_state(
                        program, path, extra_functions=extra,
                        initial_env=init,
                        module=self._modules.get(path),
                        extra_summaries=composed)
                    state = (env, self._own_summaries(path, summaries))
                    if key is not None and self.summary_cache is not None:
                        self.summary_cache.put(key, path,
                                               state[0], state[1])
        finally:
            self._active.discard(path)
        self._states[path] = state
        self._state_sources[path] = self._keys.get(path)
        return state

    def _own_summaries(self, path: str, summaries: dict) -> dict:
        """The subset of a run's summaries declared in *path* itself.

        A run also adopts/computes summaries for foreign names; those
        belong to (and are cached under) their declaring file.  Filtering
        preserves completion order, which the preset replay relies on.
        """
        own_names = self._function_table(path)
        return {name: summary for name, summary in summaries.items()
                if name in own_names}

    @staticmethod
    def _stripped(summary):
        if not summary.internal_candidates:
            return summary
        from dataclasses import replace
        return replace(summary, internal_candidates=[])

    # ------------------------------------------------------------------
    # summary-cache plumbing
    # ------------------------------------------------------------------
    def _source_key(self, path: str) -> str | None:
        self._program(path)
        return self._keys.get(path)

    def _state_key(self, path: str,
                   source_key: str | None = None) -> str | None:
        """The summary-cache digest for *path*, or None (cache disabled,
        unreadable file).  Covers content + include closure + knowledge
        fingerprint — the same invalidation discipline as
        :func:`repro.analysis.pipeline.closure_key`.
        """
        if self.summary_cache is None:
            return None
        own = source_key if source_key is not None \
            else self._source_key(path)
        if own is None:
            return None
        base = os.path.dirname(path)
        pairs = [(os.path.relpath(dep, base),
                  self._source_key(dep) or "missing")
                 for dep in self.graph.closure(path)]
        return self.summary_cache.state_key(own, pairs)

    def _cached_state(self, key: str | None,
                      path: str) -> tuple[dict, dict] | None:
        if key is None or self.summary_cache is None:
            return None
        state = self.summary_cache.get(key, path)
        if self.metrics is not None:
            name = "summary_cache_hit" if state is not None \
                else "summary_cache_miss"
            self.metrics.counter(name).inc()
        return state
