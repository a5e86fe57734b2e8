"""Differential oracle: the IR engine vs. the original AST walker.

The taint engine was rewritten from a recursive AST interpreter to a
tight loop over the flat opcode IR (``repro.ir``).  The old walker is
kept verbatim in ``repro.analysis.astwalk`` as a reference
implementation; these tests run both over the same inputs — a snippet
battery, the grammar round-trip corpus and every file of the demo
application — and assert **byte-identical** findings: candidate lists
(class, sink, entry point, full path steps, guards, context) and the
exported top-level env must compare equal, dataclass field by dataclass
field.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.astwalk import ReferenceTaintEngine
from repro.analysis.engine import TaintEngine
from repro.exceptions import PhpSyntaxError
from repro.ir.lower import lower_program
from repro.php import parse, parse_with_recovery
from repro.tool.wap import Wape

from tests.test_php_grammar_corpus import TestRoundTripIdentity

DEMO_APP = os.path.join(os.path.dirname(__file__), "..", "examples",
                        "demo_app")


@pytest.fixture(scope="module")
def engines():
    """The full shipped knowledge base, fused exactly like the pipeline."""
    groups = [list(g.configs) for g in Wape()._config_groups()]
    configs = [cfg for group in groups for cfg in group]
    return (ReferenceTaintEngine(configs, groups),
            TaintEngine(configs, groups))


def assert_identical(engines, program, filename) -> int:
    reference, compiled = engines
    want, want_env = reference.analyze_with_env(program, filename)
    got, got_env = compiled.analyze_with_env(program, filename)
    assert got == want
    assert got_env == want_env
    return len(want)


SNIPPETS = [
    # direct flows, propagation and sanitization
    "mysql_query($_GET['q']);",
    "$id = $_GET['id']; mysql_query($id);",
    "$q = 'SELECT * FROM t WHERE c = ' . $_GET['c']; mysql_query($q);",
    '$id = $_POST["id"]; $q = "WHERE id = $id"; mysql_query($q);',
    "$s = mysql_real_escape_string($_GET['x']); mysql_query($s);",
    "$s = htmlspecialchars($_GET['x']); echo $s; mysql_query($s);",
    "$x = (int) $_GET['n']; mysql_query($x); echo (string) $_GET['n'];",
    "$a = $_GET['a'] + 1; mysql_query($a);",
    "$x = $_GET['x'] ?? 'd'; echo $x; echo $_GET['y'] ?: 'z';",
    # echo family, includes, shell
    "echo $_GET['msg']; print $_COOKIE['c']; exit($_POST['e']);",
    "include $_GET['page']; require_once $_REQUEST['mod'];",
    "echo `cat {$_GET['f']}`;",
    "system($_GET['cmd']); $out = shell_exec($_POST['c']); echo $out;",
    # superglobal specifics
    "echo $_SERVER['HTTP_USER_AGENT']; echo $_SERVER['SERVER_NAME'];",
    "echo $_SERVER[$k]; $s = $_SERVER; echo $s;",
    "$g = $_GET; echo $g; echo $_FILES['up']['name'];",
    # guards and validation symptoms
    "if (is_numeric($_GET['n'])) { mysql_query($_GET['n']); }",
    "if (!preg_match('/^\\d+$/', $_GET['id'])) exit; "
    "mysql_query($_GET['id']);",
    "if (isset($_GET['p'])) { include $_GET['p']; }",
    "if (empty($_POST['x'])) { echo 'no'; } else { echo $_POST['x']; }",
    "if (!ctype_digit($_GET['a'])) return; echo $_GET['a'];",
    "if (!is_int($_GET['b'])) throw new E('x'); mysql_query($_GET['b']);",
    # control flow joins
    "if ($c) { $x = $_GET['a']; } else { $x = 'safe'; } mysql_query($x);",
    "if ($c) { $x = 'a'; } elseif ($d) { $x = $_GET['b']; } "
    "else { $x = 'c'; } echo $x;",
    "$q = 'SELECT'; while ($r) { $q .= $_GET['w']; } mysql_query($q);",
    "do { $q = $_GET['x']; } while ($i--); echo $q;",
    "for ($i = 0; $i < 9; $i++) { $s .= $_GET['p']; } mysql_query($s);",
    "foreach ($_POST as $k => $v) { echo $v; echo $k; }",
    "foreach ($rows as list($a, $b)) { echo $a; } "
    "foreach ($rows as [$c, $d]) { echo $d; }",
    "switch ($_GET['t']) { case 'a': $x = $_GET['v']; break; "
    "default: $x = 1; } mysql_query($x);",
    "try { $x = $_GET['a']; } catch (E $e) { $x = 'safe'; } "
    "finally { echo $x; }",
    # assignments, arrays, properties
    "$a[] = $_GET['v']; $a['k'] = $_POST['w']; mysql_query($a);",
    "$o->p = $_GET['x']; echo $o->p; $o->q->r = $_GET['y']; echo $o->q->r;",
    "C::$stat = $_GET['s']; echo C::$stat;",
    "list($a, $b) = [$_GET['x'], 2]; echo $a;",
    "$x = $y = $_GET['chain']; mysql_query($x); mysql_query($y);",
    "$arr = ['a' => $_GET['k'], $_POST['v']]; mysql_query($arr);",
    "unset($x); $x = $_GET['u']; unset($x); echo $x;",
    "$$name = $_GET['vv']; echo $$name;",
    # functions and summaries
    "function f($a) { return $a; } mysql_query(f($_GET['x']));",
    "function g($a) { mysql_query($a); } g($_GET['y']);",
    "function h() { return $_GET['inner']; } echo h();",
    "function s($a) { return addslashes($a); } mysql_query(s($_GET['z']));",
    "function rec($a) { return rec($a) . $a; } echo rec($_GET['r']);",
    "function outer($a) { return inner($a); } "
    "function inner($b) { return $b; } mysql_query(outer($_GET['n']));",
    "function dead($p) { mysql_query($p); echo $_GET['in_dead']; }",
    # classes, methods, static and dynamic calls
    "class D { function m($a) { mysql_query($a); } } "
    "$d = new D(); $d->m($_GET['q']);",
    "class E2 { static function sm($a) { return $a; } } "
    "echo E2::sm($_GET['s']);",
    "$pdo->query($_GET['sql']); $st = $mysqli->prepare($_POST['p']);",
    "$f = 'strtolower'; echo $f($_GET['d']); $obj->$meth($_GET['dm']);",
    "echo call_user_func('x', $_GET['cb']);",
    "$n = new SomeCls($_GET['ctor']); echo $n; echo clone $q;",
    # closures, arrows, ternary, match
    "$fn = function ($x) use ($v) { echo $v; mysql_query($x); }; "
    "$v = $_GET['use']; $fn($_GET['arg']);",
    "$a = fn($y) => $y . $_GET['arrow']; echo $a(1);",
    "$t = $c ? $_GET['then'] : 'else'; mysql_query($t);",
    "echo match($_GET['m']) { 'a' => $_GET['r1'], default => 'safe' };",
    # interpolation corners
    '$n = $_GET["name"]; echo "Hello $n and {$_POST[\'other\']}!";',
    'echo "no vars here"; echo "{$obj->prop} and $plain";',
    # namespaces, goto, misc statement shapes
    "namespace A; echo $_GET['ns'];",
    "goto end; echo $_GET['skipped']; end: echo $_GET['after'];",
    "global $gv; static $sv = 1; echo $_GET['after_decls'];",
    "@mysql_query($_GET['sup']); echo @$_GET['sup2'];",
    "echo isset($_GET['i']) . empty($_GET['e']) . ($x instanceof Foo);",
]


class TestSnippetBattery:
    @pytest.mark.parametrize("source", SNIPPETS, ids=range(len(SNIPPETS)))
    def test_identical_findings(self, engines, source):
        program = parse("<?php " + source, "t.php")
        assert_identical(engines, program, "t.php")


class TestGrammarCorpus:
    CORPUS = TestRoundTripIdentity.CORPUS

    @pytest.mark.parametrize("source", CORPUS, ids=range(len(CORPUS)))
    def test_identical_findings(self, engines, source):
        program = parse(source, "t.php")
        assert_identical(engines, program, "t.php")


class TestDemoApp:
    def test_every_demo_file_identical(self, engines):
        total = 0
        files = 0
        for root, _dirs, names in os.walk(DEMO_APP):
            for name in sorted(names):
                if not name.endswith(".php"):
                    continue
                path = os.path.join(root, name)
                with open(path, encoding="utf-8", errors="replace") as fh:
                    source = fh.read()
                try:
                    program, _warnings = parse_with_recovery(source, name)
                except PhpSyntaxError:
                    continue  # e.g. broken.php: unlexable on purpose
                total += assert_identical(engines, program, name)
                files += 1
        assert files >= 10
        assert total > 0  # the demo app is seeded with real flows


class TestCrossFileParity:
    """extra_functions (include closures, call edges) and initial_env
    (include mode)."""

    def test_foreign_declarations(self, engines):
        """The walker takes the library's AST declarations; the compiled
        engine takes the lowered library's table, as the include context
        hands it over."""
        reference, compiled = engines
        lib = parse("<?php function mk($a) { return 'WHERE ' . $a; }\n"
                    "function leak() { return $_GET['lib']; }\n"
                    "class Db { function run($q) { mysql_query($q); } }",
                    "lib.php")
        module = lower_program(lib)
        table = {name: (module, fn, "lib.php")
                 for name, fn in module.functions.items()}
        decls = {}
        for node in lib.body:
            if hasattr(node, "params"):
                decls[node.name.lower()] = (node, "lib.php")
            elif hasattr(node, "members"):
                for member in node.members:
                    if getattr(member, "body", None):
                        key = f"{node.name.lower()}::{member.name.lower()}"
                        decls[key] = (member, "lib.php")
                        decls.setdefault(member.name.lower(),
                                         (member, "lib.php"))
        main = parse("<?php $q = mk($_GET['x']); mysql_query($q);\n"
                     "echo leak();\n"
                     "$db = new Db(); $db->run($_POST['y']);", "main.php")
        assert set(table) == set(decls)
        want, want_env = reference.analyze_with_env(
            main, "main.php", extra_functions=decls)
        got, got_env = compiled.analyze_with_env(
            main, "main.php", extra_functions=table)
        assert got == want
        assert got_env == want_env
        assert want  # the scenario actually produces findings

    def test_initial_env(self, engines):
        reference, compiled = engines
        dep = parse("<?php $conf = $_GET['c'];", "dep.php")
        _, dep_env = reference.analyze_with_env(dep, "dep.php")
        main = parse("<?php mysql_query($conf);", "main.php")
        want, want_env = reference.analyze_with_env(
            main, "main.php", initial_env=dep_env)
        got, got_env = compiled.analyze_with_env(
            main, "main.php", initial_env=dep_env)
        assert got == want
        assert got_env == want_env
        assert want
