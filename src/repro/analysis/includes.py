"""Static resolution of ``include``/``require`` targets.

The paper's tool analyzes whole applications: taint entering in one file
must be observable at a sink in another when the files are linked by an
``include``.  This module provides the static half of that story:

* :class:`IncludeResolver` inspects every project file for
  ``include``/``require``(``_once``) statements and resolves their targets
  **statically** — literal paths, ``dirname(__FILE__)`` / ``__DIR__``
  concatenations and, as a last resort, a unique-basename match anywhere
  in the project.  Dynamic targets (variables, function results) are
  counted as *unresolved* and the file simply falls back to per-file
  analysis — never an error.
  The whole-project policy (``wape scan --project``) also adds a *call
  edge* from each file to the home file of every function or method it
  calls by literal name but gets from neither itself nor its includes.
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
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from repro.exceptions import PhpSyntaxError
from repro.ir.opcodes import CALL, CALL_METHOD, CALL_STATIC, IRModule
from repro.php import ast
from repro.php.ast_store import AstStore
from repro.php.visitor import find_all

#: cheap textual pre-filter: files without an include/require *keyword*
#: are never parsed by the resolver (the common case in big trees).  The
#: word boundary matters: plain substring matching drags in every file
#: that merely says "required" in a form label or comment, which on real
#: trees means parsing nearly everything just to find no edges.
_HINT_RE = re.compile(r"\b(?:include|require)(?:_once)?\b")


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
    """Builds an :class:`IncludeGraph` from the files of one scan."""

    def __init__(self, paths: list[str],
                 ast_store: AstStore | None = None,
                 project: bool = False) -> None:
        self.paths = list(paths)
        # shared frontend memo: the ASTs parsed while resolving includes
        # are handed on to the scan phase instead of being thrown away
        self.ast_store = ast_store if ast_store is not None else AstStore()
        #: whole-project policy: parse every file and add call edges
        self.project = project
        # membership indexes: absolute normalized path and basename
        self._by_abs: dict[str, str] = {}
        self._by_base: dict[str, list[str]] = {}
        for path in self.paths:
            self._by_abs.setdefault(self._abs(path), path)
            self._by_base.setdefault(os.path.basename(path), []).append(path)

    @staticmethod
    def _abs(path: str) -> str:
        return os.path.normcase(os.path.normpath(os.path.abspath(path)))

    # ------------------------------------------------------------------
    def build(self, sources: dict[str, str] | None = None) -> IncludeGraph:
        """Resolve every include in every project file (and, under the
        whole-project policy, every call to a function declared
        elsewhere).

        Args:
            sources: optional path -> source text map; files not in it are
                read from disk.  Lets the scheduler reuse the bytes it
                already read for content hashing.
        """
        graph = IncludeGraph()
        modules: dict[str, IRModule] = {}
        for path in self.paths:
            module = self._resolve_into(graph, path,
                                        (sources or {}).get(path))
            if module is not None:
                modules[path] = module
        if self.project:
            _link_calls(graph, modules)
        return graph

    def _resolve_into(self, graph: IncludeGraph, path: str,
                      source: str | None) -> IRModule | None:
        """Resolve one file's includes and record them on *graph*.

        A file's include edges depend only on its own source text and
        the project file *set* (the resolver's membership indexes) —
        which is what makes :func:`update_include_graph` sound: unchanged
        files of an unchanged file set keep their old edges verbatim.
        Under the whole-project policy every file is parsed and its
        lowered IR module is returned for :func:`_link_calls`.
        """
        if source is None:
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    source = f.read()
            except OSError:
                return None
        hinted = _HINT_RE.search(source.lower()) is not None
        if not hinted and not self.project:
            return None
        try:
            program, _ = self.ast_store.parse_recovering(source, path)
        except PhpSyntaxError:
            return None  # unparseable file: no edges, scanned standalone
        if hinted:
            self._record_includes(graph, path, program)
        if not self.project:
            return None
        return self.ast_store.module_for(self.ast_store.source_key(source))

    def _record_includes(self, graph: IncludeGraph, path: str,
                         program: ast.Program) -> None:
        deps: list[str] = []
        resolved = unresolved = 0
        for node in find_all(program, ast.Include):
            target = self.resolve(node.expr, path)
            if target is None:
                unresolved += 1
                continue
            resolved += 1
            if target != path and target not in deps:
                deps.append(target)
        if deps:
            graph.deps[path] = tuple(deps)
        if resolved:
            graph.resolved[path] = resolved
        if unresolved:
            graph.unresolved[path] = unresolved

    # ------------------------------------------------------------------
    def resolve(self, expr: ast.Node | None, src_path: str) -> str | None:
        """Resolve one include target expression to a project file path."""
        text = self._static_text(expr, src_path)
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

    def _static_text(self, expr: ast.Node | None,
                     src_path: str) -> str | None:
        """Fold *expr* to a constant string, or None if it is dynamic."""
        if isinstance(expr, ast.Literal) and expr.kind == "string":
            return str(expr.value)
        if isinstance(expr, ast.ConstFetch) \
                and expr.name.lower() == "__dir__":
            return os.path.dirname(os.path.abspath(src_path))
        if isinstance(expr, ast.FunctionCall) \
                and isinstance(expr.name, str) \
                and expr.name.lower() == "dirname" and len(expr.args) == 1:
            inner = expr.args[0].value \
                if isinstance(expr.args[0], ast.Argument) else expr.args[0]
            if isinstance(inner, ast.ConstFetch) \
                    and inner.name.lower() == "__file__":
                return os.path.dirname(os.path.abspath(src_path))
        if isinstance(expr, ast.BinaryOp) and expr.op == ".":
            left = self._static_text(expr.left, src_path)
            right = self._static_text(expr.right, src_path)
            if left is not None and right is not None:
                return left + right
        if isinstance(expr, ast.InterpolatedString):
            parts = []
            for part in expr.parts:
                folded = self._static_text(part, src_path)
                if folded is None:
                    return None
                parts.append(folded)
            return "".join(parts)
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
                        sources: dict[str, str] | None = None,
                        ast_store: AstStore | None = None,
                        project: bool = False) -> IncludeGraph:
    """Resolve the include graph of *paths* (plus call edges under the
    whole-project policy, *project*)."""
    return IncludeResolver(paths, ast_store=ast_store,
                           project=project).build(sources)


def update_include_graph(graph: IncludeGraph, paths: list[str],
                         dirty: set[str] | list[str],
                         sources: dict[str, str] | None = None,
                         ast_store: AstStore | None = None
                         ) -> IncludeGraph:
    """Re-resolve only *dirty* files of an otherwise-unchanged project.

    Incremental counterpart of :func:`build_include_graph` for warm
    re-scans: a file's include edges depend solely on its own source and
    the project file set, so when the file set is unchanged only edited
    files need re-parsing — clean files carry their edges over verbatim.

    Callers must fall back to a full :func:`build_include_graph` whenever
    files were added or removed (a new file can steal a unique-basename
    resolution from every other file), and on any edit under the
    whole-project policy (one file's new declaration can move other
    files' call edges).  Returns a fresh graph; *graph* itself is never
    mutated.
    """
    resolver = IncludeResolver(paths, ast_store=ast_store)
    dirty_set = set(dirty)
    out = IncludeGraph()
    for path in paths:
        if path in dirty_set:
            resolver._resolve_into(out, path, (sources or {}).get(path))
            continue
        if path in graph.deps:
            out.deps[path] = graph.deps[path]
        if path in graph.resolved:
            out.resolved[path] = graph.resolved[path]
        if path in graph.unresolved:
            out.unresolved[path] = graph.unresolved[path]
    return out


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
