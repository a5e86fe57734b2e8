"""Parse-once frontend: AstStore identity and the on-disk AST cache.

The tentpole guarantee of ISSUE 5: one scan lexes and parses each unique
file content exactly once.  The include resolver, the include context and
the fused detector all draw from one shared :class:`repro.php.AstStore`,
so the resolve phase hands its ASTs to the scan phase.  These tests pin
that property down by counting actual ``Parser.parse_program`` calls,
not just the telemetry counters that report it.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil

import pytest

from repro.analysis.options import ScanOptions
from repro.analysis.pipeline import ScanScheduler
from repro.cache import AST, CACHE_FORMAT, CacheStore
from repro.exceptions import PhpSyntaxError
from repro.ir import disassemble, lower_program
from repro.php import AstCache, AstStore, Lexer, Parser
from repro.php.parser import parse_with_recovery
from repro.php.source import content_key


DEMO_APP = os.path.join(os.path.dirname(__file__), os.pardir,
                        "examples", "demo_app")

VULN = "<?php $q = $_GET['q']; echo $q;\n"
CLEAN = "<?php echo htmlentities($_GET['x']);\n"


# ---------------------------------------------------------------------------
# AstStore unit behavior
# ---------------------------------------------------------------------------

class TestAstStore:
    def test_memory_memo_parses_each_content_once(self, monkeypatch):
        calls = []
        original = Parser.parse_program

        def counted(self):
            calls.append(self.filename)
            return original(self)

        monkeypatch.setattr(Parser, "parse_program", counted)
        store = AstStore()
        store.parse_recovering(VULN, "a.php")
        store.parse_recovering(VULN, "b.php")   # same content, other path
        store.parse_recovering(CLEAN, "c.php")
        assert calls == ["a.php", "c.php"]
        assert store.parses == 2
        assert store.reparse_avoided == 1

    def test_results_match_parse_with_recovery(self):
        store = AstStore()
        parsed = store.parse_recovering(VULN, "a.php")
        direct_program, direct_warnings = parse_with_recovery(
            VULN, "a.php")
        # the store serves the lowering of the same tree, not the tree
        assert disassemble(parsed.module) == \
            disassemble(lower_program(direct_program))
        assert parsed.program is None and parsed.has_php
        assert parsed.warnings == direct_warnings == []

    def test_warnings_reattributed_to_requesting_filename(self):
        damaged = "<?php $a = = 1;\necho 'ok';\n"
        store = AstStore()
        first = store.parse_recovering(damaged, "first.php").warnings
        second = store.parse_recovering(damaged, "second.php").warnings
        assert first[0].filename == "first.php"
        assert second[0].filename == "second.php"
        assert (first[0].message, first[0].line) == \
            (second[0].message, second[0].line)

    def test_fatal_errors_are_memoized_and_reraised(self, monkeypatch):
        import repro.php.parser as parser_module

        calls = []
        original = parser_module.tokenize

        def counted(source, filename="<source>"):
            calls.append(filename)
            return original(source, filename)

        # the error below is a *lexer* error, so count tokenize calls
        monkeypatch.setattr(parser_module, "tokenize", counted)
        store = AstStore()
        broken = '<?php echo "unterminated;'  # lexer errors stay fatal
        with pytest.raises(PhpSyntaxError) as first:
            store.parse_recovering(broken, "a.php")
        with pytest.raises(PhpSyntaxError) as second:
            store.parse_recovering(broken, "b.php")
        assert calls == ["a.php"]  # the hit re-raises without re-lexing
        assert first.value.filename == "a.php"
        assert second.value.filename == "b.php"
        assert first.value.message == second.value.message

    def test_metrics_sink_receives_counters(self):
        from repro.telemetry.metrics import Metrics

        metrics = Metrics()
        store = AstStore(metrics=metrics)
        store.parse_recovering(VULN, "a.php")
        store.parse_recovering(VULN, "b.php")
        assert metrics.counter("frontend_reparse_avoided").value == 1


# ---------------------------------------------------------------------------
# the on-disk tier
# ---------------------------------------------------------------------------

def _disk_store(directory) -> AstStore:
    """An AstStore over the ``ast`` namespace of *directory*'s store."""
    return AstStore(disk=AstCache(CacheStore(str(directory))))


def _ast_counts(store: AstStore):
    return store.disk.store.counts[AST]


class TestAstCache:
    def test_disk_roundtrip_across_stores(self, tmp_path):
        cold = _disk_store(tmp_path)
        cold.parse_recovering(VULN, "a.php")
        assert _ast_counts(cold).puts == 1
        cold.flush()  # puts are buffered until the per-scan flush

        warm = _disk_store(tmp_path)
        parsed = warm.parse_recovering(VULN, "other.php")
        assert warm.parses == 0 and _ast_counts(warm).hits == 1
        # the entry is the lowered module; the tree stayed behind
        assert disassemble(parsed.module) == \
            disassemble(lower_program(parse_with_recovery(VULN)[0]))
        assert parsed.program is None and parsed.has_php
        assert parsed.warnings == []

    def test_error_entries_roundtrip(self, tmp_path):
        broken = '<?php echo "unterminated;'  # lexer errors stay fatal
        cold = _disk_store(tmp_path)
        with pytest.raises(PhpSyntaxError):
            cold.parse_recovering(broken, "a.php")
        cold.flush()

        warm = _disk_store(tmp_path)
        with pytest.raises(PhpSyntaxError) as exc:
            warm.parse_recovering(broken, "b.php")
        assert warm.parses == 0
        assert exc.value.filename == "b.php"

    def test_corrupt_entry_is_evicted_then_reparsed(self, tmp_path):
        path = CacheStore(str(tmp_path)).path(AST)
        os.makedirs(os.path.dirname(path))
        with open(path, "wb") as f:
            key = content_key(VULN.encode())
            pickler = pickle.Pickler(f)
            pickler.dump({key: b"not a pickle"})
            pickler.dump(({"": (1, 1)}, {key: ("", 1)}))

        fresh = _disk_store(tmp_path)
        fresh.parse_recovering(VULN, "a.php")
        assert fresh.parses == 1          # reparsed, not served corrupt
        assert _ast_counts(fresh).evictions == 1
        assert _ast_counts(fresh).puts == 1  # ... and the good entry re-put
        fresh.flush()
        warm = _disk_store(tmp_path)
        warm.parse_recovering(VULN, "b.php")
        assert warm.parses == 0 and _ast_counts(warm).hits == 1

    def test_format_version_partitions_the_directory(self, tmp_path):
        path = CacheStore(str(tmp_path)).path(AST)
        assert os.path.dirname(path).endswith(f"cache-v{CACHE_FORMAT}")


# ---------------------------------------------------------------------------
# pipeline identity: resolve + scan share one store
# ---------------------------------------------------------------------------

def _write_project(root) -> None:
    (root / "lib.php").write_text(
        "<?php function q($x) { return $x; }\n")
    (root / "index.php").write_text(
        "<?php include 'lib.php'; $q = $_GET['q']; echo q($q);\n")
    (root / "admin.php").write_text(
        "<?php require 'lib.php'; echo q($_GET['id']);\n")
    (root / "copy.php").write_text(          # duplicate content of lib
        "<?php function q($x) { return $x; }\n")


class TestPipelineParseOnce:
    def test_scan_parses_each_unique_content_once(self, tmp_path,
                                                  monkeypatch):
        from repro.telemetry import Telemetry
        from repro.tool import Wape

        project = tmp_path / "proj"
        project.mkdir()
        _write_project(project)

        import repro.analysis.pipeline as pipeline

        # build the tool BEFORE counting: predictor training and
        # knowledge loading may parse PHP of their own
        tool = Wape()
        calls: list[tuple[str, bool]] = []
        resolving = [False]
        original = Parser.parse_program
        build_graph = pipeline.build_include_graph

        def counted(self):
            calls.append((self.filename, resolving[0]))
            return original(self)

        def traced_build(*args, **kwargs):
            resolving[0] = True
            try:
                return build_graph(*args, **kwargs)
            finally:
                resolving[0] = False

        monkeypatch.setattr(Parser, "parse_program", counted)
        monkeypatch.setattr(pipeline, "build_include_graph", traced_build)
        telemetry = Telemetry()
        scheduler = ScanScheduler(
            tool._config_groups(), tool_version=tool.version,
            options=ScanOptions(jobs=1, telemetry=telemetry))
        tool.run_scheduler(scheduler, str(project))

        unique_contents = 3  # lib == copy byte-for-byte
        assert len(calls) == unique_contents, calls
        # include resolution folds tokens: it never parses (under the
        # default policy); every parse belongs to the scan phase
        assert not any(inside for _name, inside in calls), calls
        assert scheduler.include_graph.resolved

    def test_scan_store_serves_include_dependencies(self, tmp_path,
                                                    monkeypatch):
        # IncludeContext's dependency parses must hit the store too
        from repro.tool import Wape

        project = tmp_path / "proj"
        project.mkdir()
        _write_project(project)
        tool = Wape()

        calls: list[str] = []
        original = Parser.parse_program

        def counted(self):
            calls.append(self.filename)
            return original(self)

        monkeypatch.setattr(Parser, "parse_program", counted)
        report = tool.analyze_tree(str(project), ScanOptions(jobs=1))
        assert len(calls) == 3
        assert any(o.vuln_class == "xss"
                   for entry in report.files for o in entry.outcomes)

    def test_scan_populates_disk_tier_for_later_consumers(self, tmp_path):
        from repro.telemetry.metrics import Metrics
        from repro.tool import Wape

        project = tmp_path / "proj"
        project.mkdir()
        _write_project(project)
        tool = Wape()
        cache_dir = str(tmp_path / "cache")

        first = ScanScheduler(
            tool._config_groups(), tool_version=tool.version,
            options=ScanOptions(jobs=1, cache_dir=cache_dir))
        tool.run_scheduler(first, str(project))
        assert first.cache_stats[AST].puts == 3  # one per unique content

        # a later frontend consumer over the same directory (a fresh
        # process, the daemon's warm path, ...) parses nothing: every
        # content is served from the on-disk tier.  (A full re-*scan* is
        # served even earlier, by the result cache + include-graph blob.)
        metrics = Metrics()
        warm = AstStore(disk=AstCache(CacheStore(cache_dir)),
                        metrics=metrics)
        for name in ("lib.php", "index.php", "admin.php", "copy.php"):
            warm.parse_recovering((project / name).read_text(), name)
        assert warm.parses == 0
        assert _ast_counts(warm).hits == 3  # copy.php reuses lib's entry
        assert warm.reparse_avoided == 1
        assert metrics.counters["frontend_reparse_avoided"].value == 1


# ---------------------------------------------------------------------------
# one key per content: CRLF and invalid UTF-8 files
# ---------------------------------------------------------------------------

#: a CRLF library, and a CRLF and an invalid-UTF-8 page that include it:
#: each page is sink-bearing on its own, so the record pass lexes it and
#: offers the tokens to its parse
ENDINGS = {
    "lib.php": b"<?php\r\nfunction q($x) {\r\n  return $x;\r\n}\r\n",
    "index.php": b"<?php\r\ninclude 'lib.php';\r\necho q($_GET['q']);\r\n",
    "latin1.php": b"<?php // caf\xe9\ninclude 'lib.php';\n"
                  b"echo q($_GET['l']);\n",
}


def _count_calls(monkeypatch, cls, method: str) -> dict:
    """Calls of ``cls.method`` per file basename, from now on."""
    calls: dict[str, int] = {}
    original = getattr(cls, method)

    def counted(self):
        name = os.path.basename(self.filename)
        calls[name] = calls.get(name, 0) + 1
        return original(self)

    monkeypatch.setattr(cls, method, counted)
    return calls


class TestOneKeyPerContent:
    """Every reader keys a content by its bytes, so the tokens and AST
    of a CRLF or invalid-UTF-8 file serve every later reader."""

    @pytest.fixture()
    def project(self, tmp_path) -> str:
        root = tmp_path / "proj"
        root.mkdir()
        for name, data in ENDINGS.items():
            (root / name).write_bytes(data)
        return str(root)

    @pytest.fixture(scope="class")
    def tool(self):
        from repro.tool import Wape
        return Wape()

    def test_each_content_is_lexed_once_per_scan(self, tool, project,
                                                 monkeypatch):
        lexes = _count_calls(monkeypatch, Lexer, "tokenize")
        report = tool.analyze_tree(project, ScanOptions(jobs=1))
        assert lexes == dict.fromkeys(ENDINGS, 1)
        assert len(report.outcomes) == 2

    def test_each_content_is_parsed_once_under_project(self, tool,
                                                       project,
                                                       monkeypatch):
        parses = _count_calls(monkeypatch, Parser, "parse_program")
        report = tool.analyze_tree(project, ScanOptions(jobs=1,
                                                        project=True))
        assert parses == dict.fromkeys(ENDINGS, 1)
        assert len(report.outcomes) == 2


class TestHeldBytes:
    """A scan holds the bytes it read only for readers in its own
    process, and only while one of them may still read them."""

    @pytest.fixture()
    def project(self, tmp_path) -> str:
        root = tmp_path / "proj"
        root.mkdir()
        for name, data in ENDINGS.items():
            (root / name).write_bytes(data)
        # no source anywhere in its closure: the tiers skip it
        (root / "about.php").write_bytes(b"<?php echo 'about';\n")
        return str(root)

    @pytest.fixture(scope="class")
    def tool(self):
        from repro.tool import Wape
        return Wape()

    @staticmethod
    def _record_held(monkeypatch, target, name: str, store_of) -> list:
        """The basenames held when ``target.name`` is called, per call."""
        seen: list = []
        original = getattr(target, name)

        def recording(*args, **kwargs):
            seen.append(sorted(map(os.path.basename,
                                   store_of(args, kwargs).held)))
            return original(*args, **kwargs)

        monkeypatch.setattr(target, name, recording)
        return seen

    def test_a_parallel_scan_holds_no_bytes(self, tool, project,
                                            monkeypatch):
        from repro.analysis import pipeline
        seen = self._record_held(
            monkeypatch, pipeline, "build_include_graph",
            lambda _args, kwargs: kwargs["ast_store"])
        report = tool.analyze_tree(project, ScanOptions(jobs=2))
        assert seen == [[]]
        assert len(report.outcomes) == 2

    def test_the_scan_phase_holds_only_what_it_reads(self, tool, project,
                                                      monkeypatch):
        seen = self._record_held(
            monkeypatch, ScanScheduler, "_scan_sequential",
            lambda args, _kwargs: args[0].ast_store)
        report = tool.analyze_tree(project, ScanOptions(jobs=1))
        assert seen == [sorted(ENDINGS)]
        assert len(report.outcomes) == 2


# ---------------------------------------------------------------------------
# the lowered tier end to end: a warm entry reports what a parse does
# ---------------------------------------------------------------------------

def _view(report) -> str:
    """A report's JSON without its timings and result-cache counts."""
    data = report.to_dict()
    data.pop("cache")
    data["summary"].pop("seconds")
    for entry in data["files"]:
        entry.pop("seconds")
    return json.dumps(data, sort_keys=True)


def _errors(report) -> dict:
    return {os.path.basename(entry.filename): entry.parse_error
            for entry in report.files}


class TestLoweredTier:
    """Scans served by the ``ast`` tier report what cold scans report.

    A second tool arms weapons: its knowledge fingerprint differs, so
    its result, record and summary tiers start cold while the ``ast``
    tier, shared by every fingerprint, serves the first tool's parses.
    """

    @pytest.fixture(scope="class")
    def tools(self):
        from repro.tool import Wape
        return Wape(), Wape(weapon_flags=["-nosqli", "-hei", "-wpsqli"])

    @staticmethod
    def _scan(tool, root: str, **options):
        """(report, ast tier counts or None) of one scan of *root*."""
        scheduler = ScanScheduler(tool._config_groups(),
                                  tool_version=tool.version,
                                  options=ScanOptions(**options))
        report = tool.run_scheduler(scheduler, root)
        return report, (scheduler.cache_stats or {}).get(AST)

    def test_a_warm_hit_without_php_still_raises_its_warning(
            self, tools, tmp_path):
        root = tmp_path / "app"
        root.mkdir()
        # recovery drops the damaged statement and keeps only HTML
        (root / "about.php").write_bytes(
            b"<?php $a = = 1; ?>\n<p>about</p>\n")
        (root / "page.php").write_bytes(b"<?php echo $_GET['q'];\n")
        cache = str(tmp_path / "cache")
        plain, armed = tools
        cold, _ = self._scan(plain, str(root), jobs=1, cache_dir=cache,
                             prefilter=False)
        warm, counts = self._scan(armed, str(root), jobs=1,
                                  cache_dir=cache, prefilter=False)
        assert (counts.hits, counts.misses) == (2, 0)
        about = str(root / "about.php")
        assert _errors(warm) == _errors(cold) == {
            "about.php": f"{about}:1:12: unexpected token '=' ('=') in "
                         f"expression",
            "page.php": None}

    def test_a_dependency_lowering_gave_up_on_fails_alike_cold_and_warm(
            self, tools, tmp_path):
        chain = " + ".join(["$y"] * 3000)  # parses, but too deep to lower
        root = tmp_path / "app"
        root.mkdir()
        (root / "lib.php").write_text(
            "<?php\nfunction q($v) {\n  mysql_query($v);\n}\n"
            f"$x = {chain};\n$g = $_GET['g'];\n")
        (root / "main.php").write_text(
            "<?php\ninclude 'lib.php';\nq($_GET['id']);\necho $g;\n")
        (root / "other.php").write_text("<?php\necho $_POST['o'];\n")
        cache = str(tmp_path / "cache")
        plain, armed = tools
        expected = {"lib.php": "recursion limit during analysis",
                    "main.php": "recursion limit during analysis",
                    "other.php": None}
        reports = []
        for tool in (plain, plain, armed):  # cold, warm, ast tier warm
            report, counts = self._scan(tool, str(root), jobs=1,
                                        cache_dir=cache)
            assert _errors(report) == expected
            reports.append(report)
        # the two other files came from the ast tier
        assert counts.hits == 2
        assert _view(reports[0]) == _view(reports[1])
        assert [o.vuln_class for o in reports[2].outcomes] == ["xss"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reports_identical_cold_and_warm(self, tools, tmp_path, jobs):
        root = str(tmp_path / "demo_app")
        shutil.copytree(DEMO_APP, root)
        cache = str(tmp_path / "cache")
        plain, armed = tools
        cold, _ = self._scan(plain, root, jobs=jobs, cache_dir=cache)
        warm, _ = self._scan(plain, root, jobs=jobs, cache_dir=cache)
        assert _view(warm) == _view(cold)
        # every parse of the armed scan is served by the ast tier
        reference, _ = self._scan(armed, root, jobs=jobs, cache_dir=None)
        served, counts = self._scan(armed, root, jobs=jobs, cache_dir=cache)
        assert counts.hits > 0 and counts.misses == 0
        assert _view(served) == _view(reference)
