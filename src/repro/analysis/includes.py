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
  merged function table of the include closure, taken from each
  dependency's lowered :class:`~repro.ir.opcodes.IRModule` (its
  ``functions``, the one declaration table), the *composed function
  summaries* of every dependency, and the propagated global taint state
  of every included file's top level.  Per-dependency state
  is computed **once** — one ``analyze_with_state`` run per dependency
  yields both its exported env and its summaries — then composed into
  every includer, so analyzing ten files that include ``db.php`` runs
  ``db.php``'s bodies once, not ten times.  With a
  :class:`~repro.analysis.summaries.SummaryCache` attached, that state
  additionally persists on disk keyed by content + closure + knowledge
  fingerprint, so a later process (worker, re-scan, daemon) composes
  cached summaries without re-executing dependency code at all.  It
  also reads each file once per process for the detector, which
  analyzes the very content the context composes and keys.

``include_once``/``require_once`` cycles are handled the way PHP handles
them: each file contributes its state once; re-entry contributes nothing.
So on a cycle a function whose summary is not composed yet is run from
its home module's code by the run that calls it.

Where the token fold and a parse can disagree (only on damaged PHP): a
keyword inside a statement that parse recovery drops still counts, and
a file whose tokens lex but whose statements the recovering parser
cannot salvage still has its edges.  A file the lexer rejects has no
edges, and includes nested inside ``{$...}`` string interpolation are
not followed.
"""

from __future__ import annotations

import contextlib
import os
import re
from dataclasses import dataclass, field

from repro.exceptions import PhpSyntaxError
from repro.ir.opcodes import CALL, CALL_METHOD, CALL_STATIC, IRModule
from repro.php import ast, tokenize
from repro.php.ast_store import AstStore
from repro.php.parser import _ASSIGN_OPS, _BINARY_PREC, parse_interpolated
from repro.php.source import MISSING, source_text
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
                           list[Token] | None]:
    """(include targets, tokens) of one file's bytes, lexed from their
    :func:`~repro.php.source.source_text` like every parse.

    Files without an include hint are not lexed (``((), None)``); a file
    the lexer rejects has no targets.
    """
    if _HINT_RE.search(raw) is None:
        return (), None
    try:
        tokens = tokenize(source_text(raw), path)
    except PhpSyntaxError:
        return (), None
    return include_targets(tokens), tokens


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

    Closures, their members' relative names and the :attr:`included`
    set are memoized per graph (a warm scan that keeps the graph keeps
    them too); whoever changes *deps* after one was taken calls
    :meth:`forget_closures`.  The memo is not part of the pickled state,
    which worker start-up and the daemon's resident-size estimate read.
    """

    deps: dict[str, tuple[str, ...]] = field(default_factory=dict)
    resolved: dict[str, int] = field(default_factory=dict)
    unresolved: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.forget_closures()

    def __getstate__(self) -> dict:
        return {"deps": self.deps, "resolved": self.resolved,
                "unresolved": self.unresolved}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.forget_closures()

    def __bool__(self) -> bool:
        return bool(self.deps)

    def forget_closures(self) -> None:
        """Drop the memo (after an edit to *deps*)."""
        self._closures: dict[str, tuple[str, ...]] = {}
        #: directory -> member -> the member's path relative to it
        self._names: dict[str, dict[str, str]] = {}
        self._included: frozenset[str] | None = None

    @property
    def included(self) -> frozenset[str]:
        """Every file an edge points at: an include target, or under the
        whole-project policy the home file of a called function.  Only
        these files' summaries are ever composed by another file."""
        if self._included is None:
            self._included = frozenset(
                dep for deps in self.deps.values() for dep in deps)
        return self._included

    def closure(self, path: str) -> tuple[str, ...]:
        """Every file reachable from *path* via includes (cycle-safe).

        *path* itself is excluded; order is deterministic breadth-first.
        """
        if path not in self.deps:
            return ()
        closure = self._closures.get(path)
        if closure is not None:
            return closure
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
        closure = self._closures[path] = tuple(out)
        return closure

    def relative_closure(self, path: str):
        """An iterator of ``(member, its path relative to path's
        directory)`` over *path*'s :meth:`closure`, in closure order:
        how cache keys name dependencies, so a moved checkout keeps its
        keys."""
        base = os.path.dirname(path)
        names = self._names.get(base)
        if names is None:
            names = self._names[base] = {}
        for dep in self.closure(path):
            name = names.get(dep)
            if name is None:
                name = names[dep] = os.path.relpath(dep, base)
            yield dep, name

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
    declaring the name: first declaration wins, as in the include
    context's merged table (:meth:`IncludeContext.context_for`).
    Closures are taken over include edges only, so the result does not
    depend on the order files are linked.
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
    # the closures taken above followed include edges only
    graph.forget_closures()


def build_include_graph(paths: list[str],
                        includes: dict[str, tuple[IncludeTarget | None, ...]]
                        | None = None,
                        ast_store: AstStore | None = None,
                        project: bool = False) -> IncludeGraph:
    """Resolve the include graph of *paths* (plus call edges under the
    whole-project policy, *project*).

    Args:
        includes: path -> symbolic targets (:func:`include_targets`),
            normally the scan's cached per-file records, with ``()`` for
            a file the scan could not read; paths missing from it are
            read and lexed here.
        ast_store: the scan's parse memo, which reads the files
            (:meth:`AstStore.read`) and parses them for the whole-project
            policy.
    """
    store = ast_store or AstStore()
    includes = dict(includes or {})
    for path in paths:
        if path not in includes:
            with contextlib.suppress(OSError):
                includes[path] = lex_targets(store.read(path)[0], path)[0]
    graph = IncludeResolver(paths).build(includes)
    if project:
        _link_calls(graph, _modules(paths, store))
    return graph


def _modules(paths: list[str], store: AstStore) -> dict[str, IRModule]:
    """path -> lowered IR of every parseable file, in discovery order."""
    modules: dict[str, IRModule] = {}
    for path in paths:
        try:
            data, key = store.read(path)
            module = store.parse_recovering(data, path, key).module
        except (OSError, PhpSyntaxError):
            continue  # unreadable or unparseable file: no call edges
        if module is not None:
            modules[path] = module
    return modules


class IncludeContext:
    """Per-process provider of cross-file analysis state, and the owner
    of the process's view of the scan's files.

    One instance lives in each scan worker (and in the in-process
    detector).  Given a file, it supplies the taint engine with the
    merged function table, the composed dependency summaries and the
    propagated global taint state of the file's include closure,
    memoizing all per-dependency work and (optionally) persisting it
    through a :class:`~repro.analysis.summaries.SummaryCache`.

    It reads each path once (:meth:`read`), and the detector reads the
    files it analyzes through it, so the file the detector analyzes is
    the file the context composes, keys and summarizes.  That holds
    while the detector analyzes files only through ``detect_file``, its
    only caller: a ``detect_source`` text is composed, keyed and
    summarized as the content of the file at its path.  The view keeps
    what it read while the context lives; in the scanning process those
    are the bytes its scan phase holds anyway.
    """

    def __init__(self, graph: IncludeGraph,
                 ast_store: AstStore | None = None,
                 summary_cache=None) -> None:
        self.graph = graph
        self.ast_store = ast_store if ast_store is not None else AstStore()
        self.summary_cache = summary_cache
        #: path -> (bytes, content key) as read once, or the read's error
        self._sources: dict[str, tuple[bytes, str] | OSError] = {}
        #: path -> (lowered module, parse tree): (None, None) when it
        #: cannot be read or parsed; the tree only when lowering gave up
        self._parses: dict[str, tuple[IRModule | None,
                                      ast.Program | None]] = {}
        #: path -> (exported env, own function summaries); the unit the
        #: summary cache persists and includers compose.
        self._states: dict[str, tuple[dict, dict]] = {}
        self._active: set[str] = set()

    # ------------------------------------------------------------------
    def read(self, path: str) -> tuple[bytes, str]:
        """(bytes, content key) of *path*, read once per process
        (:meth:`AstStore.read`); raises its :class:`OSError` again on
        each call when it could not be read."""
        source = self._sources.get(path)
        if source is None:
            try:
                source = self.ast_store.read(path)
            except OSError as exc:
                source = exc
            self._sources[path] = source
        if isinstance(source, OSError):
            raise source.with_traceback(None)
        return source

    def context_for(self, filename: str, engine
                    ) -> tuple[dict | None, dict | None, dict | None]:
        """(extra_functions, extra_summaries, initial_env) for *filename*.

        Returns ``(None, None, None)`` when the file has no resolved
        includes — the per-file fast path stays untouched.  The function
        table merges the closure's ``IRModule.functions`` as ``(module,
        function, home file)``, the first declaration in closure order
        winning.  The summaries are composed copies with
        ``internal_candidates`` stripped: the declaring file reports its
        internal flows, not its includers.
        """
        closure = self.graph.closure(filename)
        if not closure:
            return None, None, None
        extra: dict = {}
        for dep in closure:
            module = self._parse(dep)[0]
            if module is not None:
                for name, fn in module.functions.items():
                    if name not in extra:
                        extra[name] = (module, fn, dep)
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

    def preset_for(self, filename: str) -> tuple[dict | None, str | None]:
        """(preset summaries, state key to store under) for *filename*.

        The scanned file's *own* summaries may already be known — computed
        earlier in this process when the file was analyzed as someone
        else's dependency, or persisted by the summary cache.  Replaying
        them skips re-interpreting every declared function body.  When
        they are not known, the returned key (non-``None`` only with a
        cache attached, for a file some edge points at) is what
        :meth:`remember_state` stores under after the analysis ran.
        """
        if filename not in self.graph.included:
            # nothing composes this file's summary: neither probe nor
            # (no key) store it
            return None, None
        state = self._states.get(filename)
        if state is not None:
            return (state[1] or None), None
        key = self._state_key(filename)
        if key is None:
            return None, None
        state = self.summary_cache.get(key, filename)
        if state is not None:
            self._states[filename] = state
            return (state[1] or None), None
        return None, key

    def remember_state(self, filename: str, key: str | None,
                       env: dict, summaries: dict) -> None:
        """Memoize (and persist) *filename*'s just-computed state.

        Called by the detector after a fresh analysis so includers of
        this file — and later processes, via the cache — reuse it.  Only
        a file some edge points at is ever composed, so the state of any
        other file is dropped.
        """
        if filename not in self.graph.included:
            return
        state = self._states[filename] = (
            env, self._own_summaries(filename, summaries))
        if key is not None:  # a key comes only with a summary cache
            self.summary_cache.put(key, filename, state[0], state[1])

    # ------------------------------------------------------------------
    def _parse(self, path: str) -> tuple[IRModule | None,
                                         ast.Program | None]:
        # the per-path memo sits in front of the content-keyed store so a
        # repeat dependency costs no store lookup
        parsed = self._parses.get(path)
        if parsed is None:
            try:
                data, key = self.read(path)
                module, program, _warnings, _has_php = \
                    self.ast_store.parse_recovering(data, path, key)
                parsed = module, program
            except (OSError, PhpSyntaxError):
                parsed = None, None
            self._parses[path] = parsed
        return parsed

    def _key(self, path: str) -> str:
        """*path*'s content key in the view (:data:`MISSING` when it
        cannot be read)."""
        try:
            return self.read(path)[1]
        except OSError:
            return MISSING

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
            return state
        if path in self._active:
            return {}, {}
        self._active.add(path)
        try:
            module, program = self._parse(path)
            if module is None and program is None:
                state = ({}, {})
            else:
                key = self._state_key(path)
                state = self.summary_cache.get(key, path) \
                    if key is not None else None
                if state is None:
                    extra, composed, init = self.context_for(path, engine)
                    # without a module the engine lowers the program
                    # itself, and gives up as the store's lowering did
                    _, env, summaries = engine.analyze_with_state(
                        program, path, extra_functions=extra,
                        initial_env=init, module=module,
                        extra_summaries=composed)
                    state = (env, self._own_summaries(path, summaries))
                    if key is not None:
                        self.summary_cache.put(key, path,
                                               state[0], state[1])
        finally:
            self._active.discard(path)
        self._states[path] = state
        return state

    def _own_summaries(self, path: str, summaries: dict) -> dict:
        """The subset of a run's summaries declared in *path* itself.

        A run also adopts/computes summaries for foreign names; those
        belong to (and are cached under) their declaring file.  The names
        are its lowered module's (none when lowering gave up).  Filtering
        preserves completion order, which the preset replay relies on.
        """
        module = self._parse(path)[0]
        own_names = module.functions if module is not None else ()
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
    def _state_key(self, path: str) -> str | None:
        """The summary-cache digest for *path*, or None (cache disabled,
        unreadable file): :meth:`SummaryCache.key_for
        <repro.analysis.summaries.SummaryCache.key_for>` over the
        content keys of the view.
        """
        if self.summary_cache is None:
            return None
        own = self._key(path)
        if own == MISSING:
            return None
        return self.summary_cache.key_for(self.graph, path, own, self._key)
