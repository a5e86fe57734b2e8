"""Whole-project analysis through the include graph (ISSUE 3 tentpole).

Taint entering in one file must reach sinks in another when the files are
linked by a statically resolvable ``include``/``require``; unresolvable
(dynamic) targets fall back to per-file analysis without error; the
result cache treats a file's include closure as part of its identity.
"""

from __future__ import annotations

import importlib.util
import os
import re

import pytest

from repro.analysis.includes import (
    IncludeGraph,
    IncludeResolver,
    build_function_table,
    build_include_graph,
    include_targets,
)
from repro.analysis.pipeline import ScanScheduler
from repro.api import Scanner
from repro.exceptions import PhpSyntaxError
from repro.php import ast, parse, parse_with_recovery, tokenize
from repro.php.ast_store import AstStore
from repro.php.visitor import find_all
from repro.tool import Wape
from repro.analysis.options import ScanOptions

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
    def test_function_table_spans_project(self, tmp_path):
        root = write_tree(tmp_path, {
            "lib.php": "<?php function clean($v) { return $v; }\n"
                       "function run_query($s) { mysql_query($s); }",
            "index.php": "<?php class View {\n"
                         "  function render($h) { echo $h; } }",
            "internal.php": "<?php function leaky() { echo 1; }\n"
                            "function clean($v) { return 1; }",
        })
        paths = ScanScheduler.discover(root)
        table = build_function_table(
            (path, parse(open(path).read(), path)) for path in paths)
        assert {"clean", "run_query", "render", "view::render",
                "leaky"} <= set(table)
        # first declaration wins (discovery order: index, internal, lib)
        assert table["clean"][1].endswith("internal.php")
        assert table["render"][1].endswith("index.php")


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


def ast_includes(paths: list[str], store: AstStore) -> dict:
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
            program, _ = store.parse_recovering(source, path)
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
    oracle = build_include_graph(paths, ast_includes(paths, store),
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
        assert scheduler.cache.hits >= 1
        # main.php misses (its closure changed); lib.php is dep-only
        # under the prefilter — parsed lazily for its summary, not a
        # scan unit of its own
        assert scheduler.cache.misses >= 1


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
        assert cached.cache.hits and not cached.cache.misses
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
