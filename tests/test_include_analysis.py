"""Whole-project analysis through the include graph (ISSUE 3 tentpole).

Taint entering in one file must reach sinks in another when the files are
linked by a statically resolvable ``include``/``require``; unresolvable
(dynamic) targets fall back to per-file analysis without error; the
result cache treats a file's include closure as part of its identity.
"""

from __future__ import annotations

import builtins
import hashlib
import importlib.util
import os
import pickle
import re

import pytest

from repro.analysis.includes import (
    IncludeContext,
    IncludeGraph,
    IncludeResolver,
    _link_calls,
    _modules,
    build_include_graph,
    include_targets,
)
from repro.analysis.pipeline import (
    FusedDetector,
    ResultCache,
    ScanScheduler,
    closure_key,
)
from repro.api import Scanner
from repro.exceptions import PhpSyntaxError
from repro.php import ast, parse, parse_with_recovery, tokenize
from repro.php.ast_store import AstStore
from repro.php.visitor import find_all
from repro.tool import Wape
from repro.analysis.options import ScanOptions
from test_project_analysis import (  # noqa: F401 (``project`` is a fixture)
    FRONT_CONTROLLER,
    SHARED_CLOSURE,
    project,
)
from tree_variants import write_variant

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
DEMO_APP = os.path.join(REPO, "examples", "demo_app")


def write_tree(tmp_path, files: dict[str, str]) -> str:
    for name, text in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return str(tmp_path)


def xss_in(report, filename: str):
    return [o for o in report.outcomes
            if o.vuln_class == "xss"
            and o.candidate.filename.endswith(filename)]


# ---------------------------------------------------------------------------
# resolver
# ---------------------------------------------------------------------------

class TestIncludeResolver:
    def include_expr(self, snippet: str):
        # the folded symbolic target of one include statement
        (target,) = include_targets(tokenize(f"<?php include {snippet};"))
        return target

    def resolver(self, tmp_path, files):
        write_tree(tmp_path, files)
        return IncludeResolver(
            [str(tmp_path / name) for name in files])

    def test_literal_relative_path(self, tmp_path):
        r = self.resolver(tmp_path, {"a.php": "", "lib/b.php": ""})
        got = r.resolve(self.include_expr("'lib/b.php'"),
                        str(tmp_path / "a.php"))
        assert got == str(tmp_path / "lib" / "b.php")

    def test_dir_constant_concat(self, tmp_path):
        r = self.resolver(tmp_path, {"a.php": "", "lib/b.php": ""})
        got = r.resolve(self.include_expr("__DIR__ . '/lib/b.php'"),
                        str(tmp_path / "a.php"))
        assert got == str(tmp_path / "lib" / "b.php")

    def test_dirname_file_concat(self, tmp_path):
        r = self.resolver(tmp_path, {"a.php": "", "lib/b.php": ""})
        got = r.resolve(
            self.include_expr("dirname(__FILE__) . '/lib/b.php'"),
            str(tmp_path / "a.php"))
        assert got == str(tmp_path / "lib" / "b.php")

    def test_unique_basename_fallback(self, tmp_path):
        r = self.resolver(tmp_path, {"pages/a.php": "", "lib/util.php": ""})
        got = r.resolve(self.include_expr("'../nonexistent/util.php'"),
                        str(tmp_path / "pages" / "a.php"))
        assert got == str(tmp_path / "lib" / "util.php")

    def test_ambiguous_basename_unresolved(self, tmp_path):
        r = self.resolver(tmp_path, {
            "a.php": "", "x/util.php": "", "y/util.php": ""})
        got = r.resolve(self.include_expr("'missing/util.php'"),
                        str(tmp_path / "a.php"))
        assert got is None

    def test_dynamic_target_unresolved(self, tmp_path):
        r = self.resolver(tmp_path, {"a.php": "", "b.php": ""})
        assert r.resolve(self.include_expr("$page"),
                         str(tmp_path / "a.php")) is None
        assert r.resolve(self.include_expr("'tpl/' . $_GET['t']"),
                         str(tmp_path / "a.php")) is None

    def test_build_counts_and_edges(self, tmp_path):
        root = write_tree(tmp_path, {
            "main.php": "<?php require 'lib.php'; include $dyn;",
            "lib.php": "<?php function f() { return 1; }",
        })
        graph = build_include_graph(
            [os.path.join(root, "main.php"), os.path.join(root, "lib.php")])
        main = os.path.join(root, "main.php")
        assert graph.deps[main] == (os.path.join(root, "lib.php"),)
        assert graph.resolved[main] == 1
        assert graph.unresolved[main] == 1


class TestFunctionTable:
    """The include context's merged table: every function and method of
    the closure, from each dependency's lowered module; the first
    declaration in closure order wins."""

    def test_function_table_spans_project(self, tmp_path):
        root = write_tree(tmp_path, {
            # closure order: view, lib, internal, then lib's helpers
            "index.php": "<?php require 'view.php';\n"
                         "require 'lib.php';\nrequire 'internal.php';\n",
            "view.php": "<?php class View {\n"
                        "  function render($h) { echo $h; } }\n"
                        "function leaky() { return 1; }\n",
            "lib.php": "<?php require 'helpers.php';\n"
                       "function clean($v) { return $v; }\n"
                       "function run_query($s) { mysql_query($s); }\n"
                       "class Db {\n"
                       "  function render($sql, $n) { return $sql; } }\n",
            "internal.php": "<?php function leaky() { echo 1; }\n"
                            "if (true) { function clean($v) { return 1; } }\n",
            "helpers.php": "<?php function outer($a) {\n"
                           "  function inner($b) { return $b; } }\n",
        })
        graph = build_include_graph(ScanScheduler.discover(root))
        index = os.path.join(root, "index.php")
        context = IncludeContext(graph)
        table, _summaries, _env = context.context_for(
            index, FusedDetector(Wape()._config_groups()).engine)
        assert set(table) == {"view::render", "render", "leaky", "clean",
                              "run_query", "db::render", "outer", "inner"}
        homes = {name: os.path.basename(entry[2])
                 for name, entry in table.items()}
        assert homes == {"view::render": "view.php", "render": "view.php",
                         "leaky": "view.php", "clean": "lib.php",
                         "run_query": "lib.php", "db::render": "lib.php",
                         "outer": "helpers.php", "inner": "helpers.php"}
        store = context.ast_store
        for name, (module, fn, home) in table.items():
            data, key = context.read(home)
            # an entry names a function of its home file's lowered module
            assert module is store.parse_recovering(data, home, key).module
            assert module.functions[name] is fn
        # a method is one function under both of its names
        assert table["render"][1] is table["view::render"][1]
        assert table["db::render"][1].param_names == ("sql", "n")
        assert (table["clean"][1].line, table["inner"][1].line) == (2, 2)


# ---------------------------------------------------------------------------
# the token fold against the AST resolver it replaced (the oracle)
# ---------------------------------------------------------------------------

_AST_HINT = re.compile(r"\b(?:include|require)(?:_once)?\b")


def _static_text(expr, src_path: str) -> str | None:
    """Fold an include target expression to a constant string, or None.

    The fold over ASTs: the reference the token fold must match.
    """
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
        left = _static_text(expr.left, src_path)
        right = _static_text(expr.right, src_path)
        if left is not None and right is not None:
            return left + right
    if isinstance(expr, ast.InterpolatedString):
        parts = []
        for part in expr.parts:
            folded = _static_text(part, src_path)
            if folded is None:
                return None
            parts.append(folded)
        return "".join(parts)
    return None


def ast_includes(paths: list[str]) -> dict:
    """path -> include targets found by parsing: every ``ast.Include``
    node of every file that mentions an include keyword."""
    out: dict = {}
    for path in paths:
        with open(path, encoding="utf-8", errors="replace") as f:
            source = f.read()
        out[path] = ()
        if _AST_HINT.search(source.lower()) is None:
            continue
        try:
            program, _ = parse_with_recovery(source, path)
        except PhpSyntaxError:
            continue
        out[path] = tuple(
            None if text is None else (text,)
            for text in (_static_text(node.expr, path)
                         for node in find_all(program, ast.Include)))
    return out


def graphs(paths: list[str], project: bool = False
           ) -> tuple[IncludeGraph, IncludeGraph]:
    """(token resolver's graph, AST oracle's graph) of *paths*."""
    store = AstStore()  # the call-edge pass parses each file once
    oracle = build_include_graph(paths, ast_includes(paths),
                                 ast_store=store, project=project)
    return build_include_graph(paths, ast_store=store,
                               project=project), oracle


def assert_same_graphs(root: str) -> int:
    """Token graph == AST graph under both policies; the edge count."""
    paths = ScanScheduler.discover(root)
    for project in (False, True):
        got, want = graphs(paths, project)
        assert got.deps == want.deps
        assert got.resolved == want.resolved
        assert got.unresolved == want.unresolved
    return sum(len(deps) for deps in got.deps.values())


def load_include_app():
    spec = importlib.util.spec_from_file_location(
        "includeapp", os.path.join(REPO, "wapebench", "includeapp.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.IncludeApp


#: every adversarial include shape, as one file each; ``lib.php`` and
#: ``sub/a.php`` are the include targets.
ADVERSARIAL = {
    "lib.php": "<?php function show($x) { echo $x; }",
    "sub/a.php": "<?php $a = 1;",
    # keywords used as member, method, class and constant names
    "member.php": ("<?php $o->require('lib.php'); $o?->include('lib.php');"
                   "\nFoo::include(); Foo::require_once('lib.php');"),
    "method.php": ("<?php class Loader { function include($f) {}\n"
                   "  public static function &REQUIRE() {}\n"
                   "  const INCLUDE = 1, REQUIRE_ONCE = 2; }\n"
                   "function include_once() {} \\include('lib.php');"),
    # keywords in comments, strings, heredocs, nowdocs and inline HTML
    "inert.php": ("<p>include 'lib.php';</p>\n<?php // include 'lib.php'\n"
                  "# require 'lib.php'\n/* include_once 'lib.php'; */\n"
                  "$s = 'include \"lib.php\"'; $t = \"require 'lib.php'\";\n"
                  "$h = <<<EOT\ninclude 'lib.php';\nEOT;\n"
                  "$n = <<<'EOT'\nrequire 'lib.php';\nEOT;\n?>\n"
                  "<div>require_once 'lib.php'</div>"),
    # operands that extend past the constant
    "extended.php": ("<?php include 'lib.php' or die();\n"
                     "include('lib.php') . 'x';\n"
                     "require 'lib' . '.php' . $x;\n"
                     "include 'lib.php' ?? 'x';\n"
                     "$r = include 'lib.php' ? 1 : 2;\n"
                     "include ('lib.php')[0];\n"
                     "require_once 'lib.php' + 1;"),
    # dirname() forms
    "dirname.php": ("<?php include dirname(__FILE__, 2) . '/lib.php';\n"
                    "include \\dirname(__FILE__) . '/lib.php';\n"
                    "include dirname((__FILE__)) . '/lib.php';\n"
                    "include DirName(__file__,) . '/lib.php';\n"
                    "include dirname(__FILE__)('x');\n"
                    "include dirname(__DIR__) . '/lib.php';\n"
                    "include __DIR__ . '/sub/a.php';\n"
                    "include (__DIR__) . ('/sub/' . 'a.php');"),
    # double-quoted targets
    "quoted.php": ("<?php include \"lib.php\";\n"
                   "include \"$dir/lib.php\";\n"
                   "include \"{$x}lib.php\";\n"
                   "include \"l\\x69b.php\";\n"
                   "include \"sub\\\\a.php\";\n"
                   "include \"\\$lib.php\";\n"
                   "include <<<P\nlib.php\nP;\n"
                   "include <<<'P'\nsub/a.php\nP;\n"),
    # every token that can end the operand
    "terminators.php": ("<?php if (include 'lib.php') {}\n"
                        "f(include 'lib.php', 2);\n"
                        "$m = [include 'lib.php' => 1];\n"
                        "$t = $c ? include 'lib.php' : 0;\n"
                        "include 'sub/a.php' ?>\n"
                        "<?= include 'lib.php' ?>\n"
                        "<?php $y = (require 'lib.php'); INCLUDE 'lib.php';"),
}


class TestTokenFoldOracle:
    """The token fold gives the AST resolver's exact graph."""

    def test_adversarial_shapes(self, tmp_path):
        assert_same_graphs(write_tree(tmp_path, ADVERSARIAL))

    def test_names_and_inert_text_are_not_includes(self):
        for name in ("member.php", "method.php", "inert.php"):
            tokens = tokenize(ADVERSARIAL[name])
            assert include_targets(tokens) == (), name

    def test_demo_app(self):
        assert_same_graphs(DEMO_APP)

    @pytest.mark.parametrize("variant", ["crlf", "cr", "invalid-utf8"])
    def test_demo_app_line_endings(self, tmp_path, variant):
        """The fold lexes the text every parse reads: a CR-only line
        comment ends at its CR, so the require after it is an edge, and
        invalid bytes decode as they do for the parse."""
        assert_same_graphs(write_variant(DEMO_APP, str(tmp_path), variant))

    def test_grammar_corpus_snippets(self, tmp_path):
        from test_php_grammar_corpus import TestRoundTripIdentity

        files = {f"s{i}.php": src for i, src in
                 enumerate(TestRoundTripIdentity.CORPUS)}
        files.update(ADVERSARIAL)
        assert_same_graphs(write_tree(tmp_path, files))

    @pytest.mark.slow
    def test_corpus(self, tmp_path):
        from repro.corpus import build_webapp_corpus, build_wordpress_corpus

        build_webapp_corpus(str(tmp_path))
        build_wordpress_corpus(str(tmp_path))
        assert_same_graphs(str(tmp_path))

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_include_app(self, tmp_path, seed):
        load_include_app()(str(tmp_path), seed)
        assert assert_same_graphs(str(tmp_path)) > 4000


def walk_closure(graph: IncludeGraph, path: str) -> tuple[str, ...]:
    """The breadth-first walk :meth:`IncludeGraph.closure` memoizes."""
    out: list[str] = []
    seen = {path}
    queue = list(graph.deps.get(path, ()))
    while queue:
        dep = queue.pop(0)
        if dep in seen:
            continue
        seen.add(dep)
        out.append(dep)
        queue.extend(graph.deps.get(dep, ()))
    return tuple(out)


def relative_pairs(graph, path, hashes) -> list[tuple[str, str]]:
    """(member relative to *path*'s directory, member hash) per closure
    member, each name by its own ``os.path.relpath``."""
    base = os.path.dirname(path)
    return [(os.path.relpath(dep, base), hashes[dep])
            for dep in walk_closure(graph, path)]


def assert_closures_match_oracle(graph: IncludeGraph, paths: list[str],
                                 scheduler: ScanScheduler) -> None:
    """Every closure, closure key and summary key the graph's memo
    serves equals the un-memoized derivation, and the memo stays out of
    the pickled graph."""
    hashes = {}
    for path in paths:
        with open(path, "rb") as f:
            hashes[path] = ResultCache.content_hash(f.read())
    size = len(pickle.dumps(graph))
    for path in paths:
        assert graph.closure(path) == walk_closure(graph, path)
        pairs = relative_pairs(graph, path, hashes)
        digest = hashlib.sha256(hashes[path].encode())
        for rel, dep_hash in pairs:
            digest.update(f"\n{rel}\x00{dep_hash}".encode())
        assert closure_key(path, hashes[path], graph, hashes) == \
            (digest.hexdigest() if pairs else hashes[path])
    summaries = scheduler.summary_cache
    deps = {dep for members in graph.deps.values() for dep in members}
    want = {dep: summaries.state_key(hashes[dep],
                                     relative_pairs(graph, dep, hashes))
            for dep in deps}
    scheduler.include_graph = graph
    assert sorted(scheduler._included_summary_keys(hashes)) == \
        sorted(want.values())
    context = IncludeContext(graph, summary_cache=summaries)
    for dep, key in want.items():
        assert context._state_key(dep) == key
    assert len(pickle.dumps(graph)) == size


class TestClosureMemo:
    """The graph's closure memo against the walk and the per-member
    ``os.path.relpath`` it replaced, under both policies."""

    @staticmethod
    def check(root: str, cache_dir: str) -> None:
        paths = ScanScheduler.discover(root)
        for project in (False, True):
            scheduler = ScanScheduler(Wape()._config_groups(),
                                      options=ScanOptions(
                                          jobs=1, project=project,
                                          cache_dir=cache_dir))
            graph = build_include_graph(paths, ast_store=AstStore(),
                                        project=project)
            assert_closures_match_oracle(graph, paths, scheduler)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_include_app(self, tmp_path, seed):
        root = str(tmp_path / "app")
        load_include_app()(root, seed)
        self.check(root, str(tmp_path / "cache"))

    def test_project_fixtures(self, tmp_path, project):
        cache = str(tmp_path / ".cache")
        # first: the other trees are written below the fixture's root
        self.check(project, cache)
        for name, files in (("front", FRONT_CONTROLLER),
                            ("shared", SHARED_CLOSURE)):
            self.check(write_tree(tmp_path / name, files), cache)
        self.check(DEMO_APP, cache)

    def test_call_edges_clear_the_memo(self, tmp_path):
        """Closures taken before ``_link_calls`` adds call edges are
        not served after it."""
        root = write_tree(tmp_path / "front", FRONT_CONTROLLER)
        paths = ScanScheduler.discover(root)
        graph = build_include_graph(paths)
        before = {path: graph.closure(path) for path in paths}
        for path in paths:
            list(graph.relative_closure(path))
        _link_calls(graph, _modules(paths, AstStore()))
        page = os.path.join(root, "page.php")
        assert before[page] == ()
        assert graph.closure(page) == (os.path.join(root, "lib.php"),)
        scheduler = ScanScheduler(Wape()._config_groups(),
                                  options=ScanOptions(
                                      jobs=1, project=True,
                                      cache_dir=str(tmp_path / "cache")))
        assert_closures_match_oracle(graph, paths, scheduler)


class TestTokenFoldEdgeCases:
    """Where a fold over tokens and a parse can disagree (damaged PHP
    only), the token resolver's answer is pinned here."""

    def test_unsalvageable_file_keeps_its_edges(self, tmp_path):
        # lexes fine, but more damaged statements than recovery allows:
        # the parser gives up on the file, its include edge still counts
        damaged = "<?php require 'lib.php';\n" + "$x = ;\n" * 205
        root = write_tree(tmp_path, {"lib.php": "<?php $a = 1;",
                                     "bad.php": damaged})
        with pytest.raises(PhpSyntaxError):
            parse_with_recovery(damaged, "bad.php")
        bad = os.path.join(root, "bad.php")
        graph = build_include_graph(ScanScheduler.discover(root))
        assert graph.deps[bad] == (os.path.join(root, "lib.php"),)
        assert graph.resolved[bad] == 1

    def test_file_the_lexer_rejects_has_no_edges(self, tmp_path):
        root = write_tree(tmp_path, {
            "lib.php": "<?php $a = 1;",
            "bad.php": "<?php require 'lib.php'; $s = 'unterminated",
        })
        graph = build_include_graph(ScanScheduler.discover(root))
        assert not graph.deps and not graph.resolved

    def test_include_in_a_dropped_statement_still_counts(self, tmp_path):
        # recovery drops ``require 'lib.php' )``; the keyword's operand
        # is still a constant, so the edge stays
        source = "<?php require 'lib.php' ) ; echo 1;"
        program, warnings = parse_with_recovery(source, "t.php")
        assert warnings and not list(find_all(program, ast.Include))
        root = write_tree(tmp_path, {"lib.php": "<?php $a = 1;",
                                     "page.php": source})
        page = os.path.join(root, "page.php")
        graph = build_include_graph(ScanScheduler.discover(root))
        assert graph.deps[page] == (os.path.join(root, "lib.php"),)

    def test_includes_inside_interpolation_are_not_followed(self):
        tokens = tokenize("<?php echo \"{$a[include 'lib.php']}\";")
        assert include_targets(tokens) == ()


class TestKeywordCase:
    """PHP keywords are case-insensitive: ``REQUIRE_ONCE`` is an edge
    whatever the prefilter, the cache or the scan path."""

    FILES = {
        "lib.php": "<?php function show($x) { echo $x; }",
        "page.php": '<?php REQUIRE_ONCE "lib.php"; show($_GET["q"]);',
    }

    @staticmethod
    def counts(report) -> tuple[int, int]:
        return (sum(f.resolved_includes for f in report.files),
                len(report.outcomes))

    def test_every_scan_path_sees_the_edge(self, tmp_path):
        root = write_tree(tmp_path / "tree", self.FILES)
        tool = Wape()
        assert self.counts(tool.analyze_tree(root, ScanOptions(
            jobs=1, cache_dir=str(tmp_path / "cache")))) == (1, 1)
        assert self.counts(tool.analyze_tree(root, ScanOptions(
            jobs=1, prefilter=False))) == (1, 1)

    def test_cold_scan_equals_warm_scan_after_an_edit(self, tmp_path):
        root = write_tree(tmp_path, self.FILES)
        scanner = Scanner(Wape(), ScanOptions(jobs=1))
        cold = scanner.scan(root).report
        page = tmp_path / "page.php"
        page.write_text(page.read_text() + " // edited")
        warm = scanner.scan(root)
        assert warm.incremental
        assert self.counts(cold) == self.counts(warm.report) == (1, 1)


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

class TestIncludeGraph:
    def test_closure_is_transitive_and_cycle_safe(self):
        graph = IncludeGraph(deps={
            "a": ("b",), "b": ("c",), "c": ("a",)})
        assert graph.closure("a") == ("b", "c")
        assert graph.closure("c") == ("a", "b")

    def test_components_group_linked_files(self):
        graph = IncludeGraph(deps={"a": ("b",), "c": ("d",)})
        groups = graph.components(["a", "b", "c", "d", "e"])
        assert groups == [["a", "b"], ["c", "d"], ["e"]]


class TestContextView:
    """The include context reads each path once per process: later
    reads return that content, or raise that read's error, without
    opening the file again."""

    @pytest.fixture()
    def opened(self, monkeypatch) -> list:
        seen: list = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            seen.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        return seen

    def test_a_path_is_read_once(self, tmp_path, opened):
        page = tmp_path / "page.php"
        page.write_bytes(b"<?php echo 1;\n")
        context = IncludeContext(IncludeGraph())
        first = context.read(str(page))
        page.write_bytes(b"<?php echo 2;\n")
        assert context.read(str(page)) == first == (
            b"<?php echo 1;\n", ResultCache.content_hash(b"<?php echo 1;\n"))
        assert opened.count(str(page)) == 1

    def test_an_unreadable_path_is_tried_once(self, tmp_path, opened):
        gone = str(tmp_path / "gone.php")
        context = IncludeContext(IncludeGraph())
        errors = set()
        for _ in range(3):
            with pytest.raises(FileNotFoundError) as info:
                context.read(gone)
            errors.add(str(info.value))
        assert opened == [gone]
        assert errors == {f"[Errno 2] No such file or directory: '{gone}'"}


# ---------------------------------------------------------------------------
# cross-file taint
# ---------------------------------------------------------------------------

class TestCrossFileTaint:
    TAINTED = {
        "lib.php": ("<?php function getq() { return $_GET['q']; } ?>"),
        "main.php": ("<?php include 'lib.php';\n"
                     "echo getq(); ?>"),
    }

    def test_included_source_function_flags_xss(self, tmp_path):
        root = write_tree(tmp_path, self.TAINTED)
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        hits = xss_in(report, "main.php")
        assert hits, "cross-file flow not detected"

    def test_provenance_spans_both_files(self, tmp_path):
        root = write_tree(tmp_path, self.TAINTED)
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        cand = xss_in(report, "main.php")[0].candidate
        files = {s.file for s in cand.path if s.file}
        assert any(f.endswith("lib.php") for f in files)
        # the source hop is attributed to the included file
        source = next(s for s in cand.path if s.kind == "source")
        assert source.file.endswith("lib.php")

    def test_included_sanitizer_suppresses(self, tmp_path):
        root = write_tree(tmp_path, {
            "lib.php": ("<?php function getq() "
                        "{ return htmlentities($_GET['q']); } ?>"),
            "main.php": "<?php include 'lib.php'; echo getq(); ?>",
        })
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        assert not xss_in(report, "main.php")

    def test_propagated_global_state(self, tmp_path):
        root = write_tree(tmp_path, {
            "glob.php": "<?php $v = $_POST['x']; ?>",
            "use.php": "<?php require 'glob.php'; echo $v; ?>",
        })
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        assert xss_in(report, "use.php")

    #: two files that include each other and call each other's functions
    #: and a method: analyzing either one first runs the other's
    #: functions, which have no composed summary yet, from their home
    #: module's code
    CYCLE = {
        "a.php": """<?php
include_once 'b.php';
function a_query($q) {
    mysql_query("SELECT * FROM t WHERE " . $q);
}
function a_wrap($v) {
    b_query($v);
    echo b_clean($v);
}
function a_lookup($id) {
    $repo = new Repo();
    return $repo->by_id($id);
}
// the page
$t = b_clean($_GET['t']);
$u = b_pass($_GET['u']);
echo b_pass($_GET['e']);
b_query($_GET['s']);
$r = new Repo();
$r->by_id($_GET['z']);
""",
        "b.php": """<?php
include_once 'a.php';
// helpers
function b_pass($v) {
    return $v;
}
function b_clean($v) {
    return htmlentities($v);
}
function b_query($q) {
    mysql_query("SELECT " . $q);
}
class Repo {
    function by_id($id) {
        a_query("id = " . $id);
        echo $id;
        return $id;
    }
}
echo $t;
echo $u;
a_wrap($_GET['w']);
echo a_lookup($_GET['k']);
a_query($_POST['p']);
""",
    }

    @pytest.mark.parametrize("options", [
        ScanOptions(jobs=1),
        pytest.param(ScanOptions(jobs=2), marks=pytest.mark.slow),
        ScanOptions(jobs=1, project=True),
    ], ids=["jobs1", "jobs2", "project"])
    def test_calls_across_an_include_cycle(self, tmp_path, options):
        root = write_tree(tmp_path, self.CYCLE)
        report = Wape().analyze_tree(root, options)
        found = sorted((os.path.basename(entry.filename), o.vuln_class,
                        o.candidate.sink_line)
                       for entry in report.files for o in entry.outcomes)
        # sink lines are the callee's when the sink is in a callee: a.php
        # has a_query's at 4, b.php b_query's at 11 and by_id's at 16;
        # b.php's "echo $t" (20) is clean: b_clean ran inside a.php's
        # state, whose exported $t b.php composes
        assert found == [
            ("a.php", "sqli", 4), ("a.php", "sqli", 11),
            ("a.php", "xss", 16), ("a.php", "xss", 17),
            ("b.php", "sqli", 4), ("b.php", "sqli", 4),
            ("b.php", "sqli", 11), ("b.php", "xss", 16),
            ("b.php", "xss", 21), ("b.php", "xss", 23)]

    def test_a_dependency_lowering_gave_up_on_fails_its_includers(
            self, tmp_path):
        chain = " + ".join(["$y"] * 3000)  # parses, but too deep to lower
        root = write_tree(tmp_path, {
            "lib.php": "<?php\nfunction q($v) {\n  mysql_query($v);\n}\n"
                       f"$x = {chain};\n$g = $_GET['g'];\n",
            "main.php": "<?php\ninclude 'lib.php';\nq($_GET['id']);\n"
                        "echo $g;\n",
            "other.php": "<?php\necho $_POST['o'];\n",
        })
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        errors = {os.path.basename(entry.filename): entry.parse_error
                  for entry in report.files}
        assert errors == {"lib.php": "recursion limit during analysis",
                          "main.php": "recursion limit during analysis",
                          "other.php": None}
        assert xss_in(report, "other.php")

    def test_include_once_cycle_terminates(self, tmp_path):
        root = write_tree(tmp_path, {
            "a.php": ("<?php include_once 'b.php';\n"
                      "$t = $_GET['t']; ?>"),
            "b.php": ("<?php include_once 'a.php';\n"
                      "echo $t; ?>"),
        })
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        # analysis must terminate; b.php sees a.php's tainted global
        assert xss_in(report, "b.php")

    def test_unresolvable_dynamic_include_falls_back(self, tmp_path):
        root = write_tree(tmp_path, {
            "main.php": ("<?php include $_GET['page'];\n"
                         "echo $_GET['q']; ?>"),
        })
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        # no crash, the per-file flows still reported, counted unresolved
        assert xss_in(report, "main.php")
        entry = report.files[0]
        assert entry.resolved_includes == 0
        assert entry.unresolved_includes == 1

    def test_no_includes_disables_cross_file(self, tmp_path):
        root = write_tree(tmp_path, self.TAINTED)
        on = Wape().analyze_tree(root, ScanOptions(jobs=1))
        off = Wape().analyze_tree(root, ScanOptions(jobs=1, includes=False))
        assert xss_in(on, "main.php")
        assert not xss_in(off, "main.php")

    def test_parallel_matches_sequential(self, tmp_path):
        root = write_tree(tmp_path, {
            **self.TAINTED,
            "glob.php": "<?php $v = $_POST['x']; ?>",
            "use.php": "<?php require 'glob.php'; echo $v; ?>",
            "plain.php": "<?php echo $_GET['z']; ?>",
        })
        seq = Wape().analyze_tree(root, ScanOptions(jobs=1))
        par = Wape().analyze_tree(root, ScanOptions(jobs=3))
        assert sorted(o.candidate.key() for o in seq.outcomes) \
            == sorted(o.candidate.key() for o in par.outcomes)


# ---------------------------------------------------------------------------
# cache interaction
# ---------------------------------------------------------------------------

class TestContextStates:
    def test_states_cover_only_included_files(self, tmp_path):
        """Only a file some edge points at is ever composed, so the
        context keeps no other file's state."""
        root = write_tree(tmp_path, {
            **TestCrossFileTaint.TAINTED,
            "glob.php": "<?php $v = $_POST['x']; ?>",
            "use.php": "<?php require 'glob.php'; echo $v; ?>",
            "plain.php": "<?php echo $_GET['z']; ?>",
        })
        scheduler = ScanScheduler(Wape()._config_groups(),
                                  options=ScanOptions(jobs=1))
        results = scheduler.scan_tree(root)
        assert all(r.candidates for r in results
                   if not r.filename.endswith(("lib.php", "glob.php")))
        graph = scheduler.include_graph
        assert {os.path.basename(p) for p in graph.included} \
            == {"lib.php", "glob.php"}
        assert set(scheduler._detector._includes._states) == graph.included


class TestIncludeCacheInvalidation:
    def test_edit_to_included_file_invalidates_includer(self, tmp_path):
        tree = tmp_path / "tree"
        root = write_tree(tree, {
            "lib.php": "<?php function getq() { return 'safe'; } ?>",
            "main.php": "<?php include 'lib.php'; echo getq(); ?>",
        })
        cache = str(tmp_path / "cache")
        tool = Wape()
        first = tool.analyze_tree(root, ScanOptions(jobs=1, cache_dir=cache))
        assert not xss_in(first, "main.php")

        # the edited dependency now returns attacker input: main.php must
        # be re-analyzed even though its own bytes did not change
        (tree / "lib.php").write_text(
            "<?php function getq() { return $_GET['q']; } ?>")
        scheduler = ScanScheduler(tool._config_groups(), tool_version=tool.version, options=ScanOptions(jobs=1, cache_dir=cache))
        results = scheduler.scan_tree(root)
        main = next(r for r in results if r.filename.endswith("main.php"))
        assert main.candidates, "stale cache served after include edit"
        second = tool.analyze_tree(root, ScanOptions(jobs=1, cache_dir=cache))
        assert xss_in(second, "main.php")

    def test_unrelated_file_still_hits(self, tmp_path):
        tree = tmp_path / "tree"
        root = write_tree(tree, {
            "lib.php": "<?php function getq() { return 'safe'; } ?>",
            "main.php": "<?php include 'lib.php'; echo getq(); ?>",
            # other.php mentions a source so the prefilter analyzes
            # (and caches) it; a marker-free file would be skipped
            # outright and never enter the cache at all
            "other.php": "<?php echo $_GET['other']; ?>",
        })
        cache = str(tmp_path / "cache")
        tool = Wape()
        tool.analyze_tree(root, ScanOptions(jobs=1, cache_dir=cache))

        (tree / "lib.php").write_text(
            "<?php function getq() { return $_GET['q']; } ?>")
        scheduler = ScanScheduler(tool._config_groups(), tool_version=tool.version, options=ScanOptions(jobs=1, cache_dir=cache))
        scheduler.scan_tree(root)
        # other.php has no include edge to lib.php: still served cached
        assert scheduler.cache_stats["result"].hits >= 1
        # main.php misses (its closure changed); lib.php is dep-only
        # under the prefilter — parsed lazily for its summary, not a
        # scan unit of its own
        assert scheduler.cache_stats["result"].misses >= 1


    def test_cached_callee_flow_keeps_its_file(self, tmp_path):
        # the sink lies in lib.php's helper: the finding belongs to
        # lib.php, fresh or served from the result cache
        root = write_tree(tmp_path / "tree", {
            "lib.php": "<?php function show($v) { echo $v; } ?>",
            "main.php": "<?php include 'lib.php'; show($_GET['q']); ?>",
        })
        cache = str(tmp_path / "cache")
        tool = Wape()
        fresh, cached = (tool.analyze_tree(
            root, ScanOptions(jobs=1, cache_dir=cache)) for _ in range(2))
        assert cached.cache["result"].hits \
            and not cached.cache["result"].misses
        assert [o.candidate for o in cached.outcomes] == \
            [o.candidate for o in fresh.outcomes]
        assert [o.candidate.filename for o in fresh.outcomes] == \
            [os.path.join(root, "lib.php")]


# ---------------------------------------------------------------------------
# report surface
# ---------------------------------------------------------------------------

class TestReportSurface:
    def test_json_report_carries_include_counters_and_hop_files(
            self, tmp_path):
        root = write_tree(tmp_path, TestCrossFileTaint.TAINTED)
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        data = report.to_dict()
        assert data["summary"]["resolved_includes"] == 1
        assert data["summary"]["unresolved_includes"] == 0
        main = next(f for f in data["files"]
                    if f["path"].endswith("main.php"))
        hop_files = [s["file"] for finding in main["findings"]
                     for s in finding["path"] if "file" in s]
        assert any(f.endswith("lib.php") for f in hop_files)

    def test_stats_footer_counts(self, tmp_path):
        from repro.telemetry import Telemetry
        from repro.telemetry.stats import build_scan_stats

        root = write_tree(tmp_path, TestCrossFileTaint.TAINTED)
        telemetry = Telemetry(enabled=True)
        report = Wape().analyze_tree(root, ScanOptions(jobs=1, telemetry=telemetry))
        assert report.stats is not None
        assert report.stats.resolved_includes == 1
        assert "includes: 1 resolved" in report.stats.render()

    def test_explain_provenance_marks_foreign_hops(self, tmp_path):
        from repro.telemetry.provenance import build_provenance

        root = write_tree(tmp_path, TestCrossFileTaint.TAINTED)
        report = Wape().analyze_tree(root, ScanOptions(jobs=1))
        outcome = xss_in(report, "main.php")[0]
        prov = build_provenance(outcome.candidate, outcome.prediction)
        foreign = [e for e in prov.events if e.file]
        assert foreign and foreign[0].file.endswith("lib.php")
        assert "lib.php" in prov.render()
