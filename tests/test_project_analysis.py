"""Tests for whole-project, cross-file analysis (``--project``).

The whole-project policy runs through the one scan pipeline: the include
graph additionally links each file to the home file of every function or
method it calls by literal name but gets from neither itself nor its
include closure.
"""

import json
import os

import pytest

from repro.analysis.includes import build_include_graph
from repro.analysis.options import ScanOptions
from repro.api import Scanner
from repro.tool import Wape
from repro.tool.cli import main as cli_main


@pytest.fixture(scope="module")
def tool():
    return Wape()


def write_tree(root, files: dict[str, str]) -> str:
    for name, text in files.items():
        target = root / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return str(root)


@pytest.fixture()
def project(tmp_path):
    """A small multi-file application."""
    return write_tree(tmp_path, {
        "lib.php": """<?php
function clean($v) {
    return mysql_real_escape_string($v);
}
function run_query($sql) {
    return mysql_query($sql);
}
function render($html) {
    echo $html;
}
""",
        "index.php": """<?php
require 'lib.php';
$a = clean($_GET['a']);
mysql_query("SELECT x FROM t WHERE a = '" . $a . "'");
run_query("SELECT y FROM t WHERE b = '" . $_GET['b'] . "'");
render($_GET['c']);
""",
        "internal.php": """<?php
function leaky() {
    mysql_query($_GET['direct']);
}
""",
    })


#: a front controller: index.php includes both files, but page.php calls
#: lib.php's helpers without including lib.php itself
FRONT_CONTROLLER = {
    "index.php": "<?php\nrequire 'lib.php';\nrequire 'page.php';\n",
    "lib.php": """<?php
function clean($v) {
    return mysql_real_escape_string($v);
}
function run_query($sql) {
    return mysql_query($sql);
}
""",
    "page.php": """<?php
run_query("SELECT * FROM t WHERE id = " . $_GET['id']);
$n = clean($_GET['n']);
mysql_query("SELECT * FROM u WHERE n = '" . $n . "'");
""",
}


@pytest.fixture()
def front(tmp_path):
    return write_tree(tmp_path / "front", FRONT_CONTROLLER)


#: a.php's include closure is (b.php, c.php) under either policy, but
#: only the project policy links b.php's call to g() to c.php, whose g()
#: sanitizes: the modes' findings differ while a.php's closure does not
SHARED_CLOSURE = {
    "a.php": "<?php\ninclude 'b.php';\ninclude 'c.php';\n"
             "echo f($_GET['x']);\n",
    "b.php": "<?php\nfunction f($v) {\n    return g($v);\n}\n",
    "c.php": "<?php\nfunction g($v) {\n    return htmlentities($v);\n}\n",
}


def project_scan(tool, root, **options):
    return tool.analyze_tree(root, ScanOptions(project=True, jobs=1,
                                               **options))


def findings(report) -> set[tuple]:
    """(file, class, sink line, entry point, FP verdict) per finding."""
    return {(os.path.relpath(o.candidate.filename, report.target),
             o.vuln_class, o.candidate.sink_line, o.candidate.entry_point,
             o.prediction.is_false_positive)
            for o in report.outcomes}


def entries(report) -> set[str]:
    return {o.candidate.entry_point for o in report.real_vulnerabilities}


class TestProjectAnalyzer:
    """Cross-file flows under ``analyze_tree(root,
    ScanOptions(project=True))``."""

    def test_cross_file_sanitizer_resolved(self, tool, project):
        report = project_scan(tool, project)
        # the clean() flow must NOT be reported
        assert "$_GET['a']" not in \
            {o.candidate.entry_point for o in report.outcomes}

    def test_cross_file_sink_flow_reported_at_callee(self, tool, project):
        report = project_scan(tool, project)
        flows = [o.candidate for o in report.outcomes
                 if o.candidate.entry_point == "$_GET['b']"]
        assert len(flows) == 1
        assert flows[0].filename.endswith("lib.php")
        assert flows[0].vuln_class == "sqli"

    def test_cross_file_echo_sink(self, tool, project):
        report = project_scan(tool, project)
        flows = [o for o in report.outcomes
                 if o.candidate.entry_point == "$_GET['c']"]
        assert len(flows) == 1
        assert flows[0].vuln_class == "xss"

    def test_internal_flow_reported_once(self, tool, project):
        report = project_scan(tool, project)
        directs = [o.candidate for o in report.outcomes
                   if o.candidate.entry_point == "$_GET['direct']"]
        assert len(directs) == 1
        assert directs[0].filename.endswith("internal.php")

    def test_parse_error_does_not_abort_project(self, tool, project):
        with open(os.path.join(project, "broken.php"), "w") as f:
            f.write("<?php $x = ;")
        # the prefilter would skip the token-free broken file unparsed
        report = project_scan(tool, project, prefilter=False)
        assert len(report.parse_errors) == 1
        assert report.outcomes  # the rest still analyzed

    def test_candidates_sorted_and_unique(self, tool, project):
        report = project_scan(tool, project)
        keys = [o.candidate.key() for o in report.outcomes]
        assert len(keys) == len(set(keys))
        for file_report in report.files:
            order = [(o.candidate.sink_line, o.vuln_class)
                     for o in file_report.outcomes]
            assert order == sorted(order)


class TestWapeProjectMode:
    def test_project_mode_beats_per_file_on_both_axes(self, tool,
                                                      project):
        # includes=False is the pure per-file baseline; the default tree
        # scan resolves the require edge and matches project mode here
        per_file = tool.analyze_tree(project, ScanOptions(includes=False))
        whole = project_scan(tool, project)
        # the cross-file-sanitized flow is a false alarm only per-file
        assert "$_GET['a']" in entries(per_file)
        assert "$_GET['a']" not in entries(whole)
        # flows through cross-file helpers into sinks are found only
        # project-wide
        assert "$_GET['b']" not in entries(per_file)
        assert {"$_GET['b']", "$_GET['c']"} <= entries(whole)

    def test_include_aware_tree_scan_matches_project_mode(self, tool,
                                                          project):
        tree = tool.analyze_tree(project)
        assert "$_GET['a']" not in entries(tree)  # cross-file sanitizer
        assert "$_GET['c']" in entries(tree)      # helper-to-sink
        assert findings(tree) == findings(project_scan(tool, project))

    def test_project_report_structure(self, tool, project):
        report = project_scan(tool, project)
        assert report.total_files == 3
        assert report.total_lines > 0
        data = report.to_dict()
        assert data["summary"]["real_vulnerabilities"] == \
            len(report.real_vulnerabilities)

    def test_rfi_lfi_refinement_in_project_mode(self, tool, tmp_path):
        (tmp_path / "inc.php").write_text(
            "<?php include 'mods/' . $_GET['m'] . '.php';\n"
            "include $_GET['full'];\n")
        report = project_scan(tool, str(tmp_path))
        classes = sorted(o.vuln_class for o in report.outcomes)
        assert classes == ["lfi", "rfi"]

    def test_project_needs_include_resolution(self):
        with pytest.raises(ValueError, match="includes"):
            ScanOptions(project=True, includes=False)


class TestCallEdges:
    def graph(self, tmp_path, files, project=True):
        root = write_tree(tmp_path, files)
        paths = [os.path.join(root, name) for name in files]
        return root, build_include_graph(paths, project=project)

    def test_edge_to_callee_home_not_counted_as_include(self, tmp_path):
        root, graph = self.graph(tmp_path, {
            "page.php": "<?php require 'tpl.php'; helper($_GET['x']);",
            "tpl.php": "<?php echo 1;",
            "lib.php": "<?php function helper($v) { echo $v; }",
        })
        page = os.path.join(root, "page.php")
        # include edges first, then call edges
        assert graph.deps[page] == (os.path.join(root, "tpl.php"),
                                    os.path.join(root, "lib.php"))
        assert graph.resolved == {page: 1}
        assert graph.unresolved == {}

    def test_default_policy_adds_no_call_edges(self, tmp_path):
        _root, graph = self.graph(tmp_path, {
            "page.php": "<?php helper($_GET['x']);",
            "lib.php": "<?php function helper($v) { echo $v; }",
        }, project=False)
        assert not graph

    def test_first_declaration_in_discovery_order_wins(self, tmp_path):
        root, graph = self.graph(tmp_path, {
            "a.php": "<?php go();",
            "b.php": "<?php function go() {}",
            "c.php": "<?php function go() {}",
        })
        assert graph.deps[os.path.join(root, "a.php")] == \
            (os.path.join(root, "b.php"),)

    def test_own_declaration_shadows_foreign(self, tmp_path):
        root, graph = self.graph(tmp_path, {
            "a.php": "<?php function go() {} go();",
            "b.php": "<?php function go() {}",
        })
        assert os.path.join(root, "a.php") not in graph.deps

    def test_included_declaration_shadows_foreign(self, tmp_path, tool):
        # legacy.php comes first in discovery order, but page.php
        # already gets helper() from the inc/lib.php it includes
        files = {
            "legacy.php": "<?php\n$q = $_GET['q'];\n"
                          "function helper($v) { return $v; }\n",
            "page.php": "<?php\nrequire 'inc/lib.php';\nhelper(1);\n"
                        "echo $q;\n",
            "inc/lib.php": "<?php\nfunction helper($v) { return $v; }\n",
        }
        root, graph = self.graph(tmp_path, files)
        assert graph.deps[os.path.join(root, "page.php")] == \
            (os.path.join(root, "inc", "lib.php"),)
        # old/helpers.php's top-level taint never reaches page.php
        assert ("page.php", "xss", 4, "$_GET['q']", False) not in \
            findings(project_scan(tool, root))

    def test_method_and_static_calls(self, tmp_path):
        root, graph = self.graph(tmp_path, {
            "a.php": "<?php $db->fetch($q); Repo::find($id);",
            "b.php": "<?php class Db { function fetch($q) { return 1; } }",
            "c.php": "<?php function find($id) { return 1; }",
            "d.php": "<?php class Repo {\n"
                     "  static function find($i) { return 1; } }",
        })
        # Cls::m() resolves cls::m before the bare name, like the engine
        assert graph.deps[os.path.join(root, "a.php")] == \
            (os.path.join(root, "b.php"), os.path.join(root, "d.php"))

    def test_unknown_and_builtin_calls_add_nothing(self, tmp_path):
        _root, graph = self.graph(tmp_path, {
            "a.php": "<?php mysql_query(strtolower($_GET['q'])); $f();",
        })
        assert not graph


class TestFrontController:
    def test_callee_flow_needs_the_policy(self, tool, front):
        callee = ("lib.php", "sqli", 6, "$_GET['id']", False)
        assert callee in findings(project_scan(tool, front))
        assert callee not in findings(
            tool.analyze_tree(front, ScanOptions(jobs=1)))

    def test_cross_file_sanitizer_honoured(self, tool, front):
        sanitized = ("page.php", "sqli", 4, "$_GET['n']", False)
        assert sanitized not in findings(project_scan(tool, front))
        assert sanitized in findings(
            tool.analyze_tree(front, ScanOptions(jobs=1)))

    @pytest.mark.slow
    def test_parallel_scan_matches_sequential(self, tool, front):
        assert findings(project_scan(tool, front)) == \
            findings(tool.analyze_tree(
                front, ScanOptions(project=True, jobs=2)))

    @pytest.mark.parametrize("files", [FRONT_CONTROLLER, SHARED_CLOSURE],
                             ids=["front", "shared-closure"])
    @pytest.mark.parametrize("first", [False, True])
    def test_modes_sharing_a_cache_dir(self, tool, tmp_path, files, first):
        root = write_tree(tmp_path / "app", files)
        expected = {
            mode: findings(tool.analyze_tree(
                root, ScanOptions(project=mode, jobs=1)))
            for mode in (False, True)}
        assert expected[False] != expected[True]
        cache = str(tmp_path / "cache")
        for _round in range(2):  # cold, then fully cached
            for mode in (first, not first):
                report = tool.analyze_tree(root, ScanOptions(
                    project=mode, jobs=1, cache_dir=cache))
                assert findings(report) == expected[mode]
                warm = Scanner(tool, ScanOptions(
                    project=mode, jobs=1, cache_dir=cache)).scan(root)
                assert findings(warm.report) == expected[mode]


class TestCliProjectAndJson:
    def test_cli_project_flag(self, project, capsys):
        cli_main(["--project", "--quiet", "--no-cache", project])
        out = capsys.readouterr().out
        assert "vulnerabilities" in out

    def test_cli_json_output(self, project, capsys):
        cli_main(["--json", "--no-cache", project])
        data = json.loads(capsys.readouterr().out)
        assert data["tool"] == "WAPe"
        assert data["summary"]["files"] == 3
        assert all("findings" in f for f in data["files"])

    def test_cli_project_rescan_served_from_cache(self, front, tmp_path,
                                                  capsys):
        cache = str(tmp_path / "cache")
        ledger = str(tmp_path / "ledger.jsonl")
        argv = ["--project", "--json", "--jobs", "1", "--cache-dir", cache,
                "--ledger", ledger, front]
        assert cli_main(argv) == 1
        cold = json.loads(capsys.readouterr().out)
        assert cli_main(argv) == 1
        warm = json.loads(capsys.readouterr().out)
        assert [f["findings"] for f in warm["files"]] == \
            [f["findings"] for f in cold["files"]]
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["hits"] > 0
        with open(ledger) as f:
            records = [json.loads(line) for line in f]
        assert [r["mode"] for r in records] == ["project", "project"]
        assert records[0]["findings"] == records[1]["findings"]

    @pytest.mark.parametrize("flag", ["--original", "--no-includes"])
    def test_cli_project_usage_errors(self, project, capsys, flag):
        assert cli_main(["--project", flag, "--no-cache", project]) == 2
        assert "--project" in capsys.readouterr().err


class TestWarmProjectScans:
    def test_new_declaration_elsewhere_moves_call_edges(self, tool,
                                                        tmp_path):
        root = write_tree(tmp_path / "app", {
            "page.php": "<?php helper($_GET['h']);\n",
            "util.php": "<?php function other() { return 1; }\n",
        })
        scanner = Scanner(tool, ScanOptions(project=True, jobs=1))
        assert not scanner.scan(root).report.outcomes
        # util.php now declares the helper page.php calls: page.php gains
        # a call edge although page.php itself did not change
        (tmp_path / "app" / "util.php").write_text(
            "<?php function other() { return 1; }\n"
            "function helper($v) { mysql_query($v); }\n")
        warm = scanner.scan(root)
        assert warm.incremental
        cold = Scanner(tool, ScanOptions(project=True, jobs=1)).scan(root)
        assert findings(warm.report) == findings(cold.report)
        assert ("util.php", "sqli", 2, "$_GET['h']", False) in \
            findings(warm.report)
