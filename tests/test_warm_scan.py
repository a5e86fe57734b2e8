"""Warm re-scans run the batch pipeline: they must report what it reports.

A warm :class:`repro.api.Scanner` re-scan keeps the previous result of
every file whose closure key is unchanged and re-runs the rest through
the same scheduler as a cold ``analyze_tree``.  The sequences below edit
a small generated project step by step — page and library edits, added
and deleted files, added and removed includes, reverts, and pages or
libraries that share one content — and after every step compare the warm
report with a fresh, uncached scan of the same tree.

The I/O guard and the work counts pin the other half of the contract:
any scan reads each file at most once, a warm re-scan reads only what
changed (and again whatever it could not read), and it predicts,
fingerprints and (answering a daemon request) encodes only what it
re-analyzed.  A warm state holds each path string once.
"""

from __future__ import annotations

import builtins
import collections
import os
import random

import pytest

import repro.analysis.pipeline as pipeline
import repro.tool.report as report_module
from repro.analysis.options import ScanOptions
from repro.api import Scanner
from repro.mining.predictor import FalsePositivePredictor
from repro.tool import Wape

LIBRARIES = (
    "<?php\nfunction pass{n}($x) {{\n  return $x;\n}}\n",
    "<?php\nfunction clean{n}($x) {{\n  return htmlspecialchars($x);\n}}\n",
    "<?php\nfunction show{n}($v) {{\n  echo $v;\n}}\n",
    "<?php\n$g{n} = $_GET['g{n}'];\n",
    "<?php\nfunction query{n}($s) {{\n  mysql_query($s);\n}}\n",
)

STATEMENTS = (
    "echo pass{n}($_GET['a']);",
    "echo clean{n}($_GET['b']);",
    "show{n}($_POST['c']);",
    "echo $g{n};",
    "query{n}($_GET['id']);",
    "echo 'static';",
    "$x = $_COOKIE['k'];\necho $x;",
    "mysql_query('SELECT 1');",
)


@pytest.fixture(scope="module")
def tool():
    return Wape()


class Project:
    """A generated PHP tree plus the edits a sequence applies to it."""

    def __init__(self, root: str, rng: random.Random) -> None:
        self.root = root
        self.rng = rng
        self.files: dict[str, str] = {}
        self.history: list[tuple[str, str | None]] = []
        # stat-snapshot scanners see an edit by (mtime, size): give every
        # write its own mtime so same-size edits stay visible
        self.clock = 1_000_000_000_000_000_000
        for n in range(4):
            self.write(f"lib/l{n}.php", self.library(n))
        for n in range(5):
            self.write(self.page_name(), self.page())

    # -- content ------------------------------------------------------
    def library(self, n: int | None = None) -> str:
        n = self.rng.randrange(3) if n is None else n
        return self.rng.choice(LIBRARIES).format(n=n % 3)

    def include(self, page: str) -> str:
        libs = sorted(p for p in self.files if p.startswith("lib/"))
        lib = self.rng.choice(libs) if libs else "lib/l0.php"
        if self.rng.random() < 0.2:  # resolved by unique basename
            return f"require_once '{os.path.basename(lib)}';"
        up = "../" * page.count("/")
        return f"require_once __DIR__ . '/{up}{lib}';"

    def page(self, name: str = "page.php") -> str:
        lines = ["<?php"]
        lines += [self.include(name) for _ in range(self.rng.randrange(3))]
        lines += [self.rng.choice(STATEMENTS).format(n=self.rng.randrange(3))
                  for _ in range(1 + self.rng.randrange(3))]
        return "\n".join(lines) + "\n"

    def page_name(self) -> str:
        folder = self.rng.choice(("", "admin/"))
        return f"{folder}p{len(self.history)}.php"

    # -- filesystem ---------------------------------------------------
    def write(self, rel: str, text: str | None) -> None:
        self.history.append((rel, self.files.get(rel)))
        path = os.path.join(self.root, rel)
        if text is None:
            self.files.pop(rel, None)
            os.remove(path)
            return
        self.files[rel] = text
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        self.clock += 1_000_000
        os.utime(path, ns=(self.clock, self.clock))

    # -- edits --------------------------------------------------------
    @staticmethod
    def is_library(rel: str) -> bool:
        return rel.startswith(("lib/", "extra/"))

    def pick(self, library: bool | None = None) -> str | None:
        names = sorted(p for p in self.files
                       if library is None or self.is_library(p) == library)
        return self.rng.choice(names) if names else None

    def step(self) -> None:
        rng = self.rng
        op = rng.choice(("edit_page", "edit_lib", "add", "delete",
                         "add_include", "remove_include", "revert",
                         "duplicate"))
        if op == "edit_page" and (page := self.pick(False)) is not None:
            self.write(page, self.page(page))
        elif op == "edit_lib" and (lib := self.pick(True)) is not None:
            self.write(lib, self.library())
        elif op == "add":
            if rng.random() < 0.5:
                self.write(self.page_name(), self.page())
            else:
                folder = rng.choice(("lib/", "lib/", "extra/"))
                self.write(f"{folder}l{len(self.history)}.php",
                           self.library())
        elif op == "delete" and len(self.files) > 2:
            self.write(self.pick(), None)
        elif op == "add_include" and (page := self.pick(False)) is not None:
            head, _, body = self.files[page].partition("\n")
            self.write(page, f"{head}\n{self.include(page)}\n{body}")
        elif op == "remove_include" \
                and (page := self.pick(False)) is not None:
            lines = self.files[page].split("\n")
            keep = [line for line in lines if "require_once" not in line]
            if len(keep) < len(lines):
                drop = rng.choice([i for i, line in enumerate(lines)
                                   if "require_once" in line])
                self.write(page, "\n".join(
                    line for i, line in enumerate(lines) if i != drop))
        elif op == "revert" and len(self.history) > 1:
            rel, text = rng.choice(self.history[1:])
            if text is not None or rel in self.files:
                self.write(rel, text)
        elif op == "duplicate" and (src := self.pick()) is not None:
            lib = self.is_library(src)
            dst = self.pick(lib) if rng.random() < 0.5 else None
            if dst is None:
                dst = f"lib/l{len(self.history)}.php" if lib \
                    else self.page_name()
            self.write(dst, self.files[src])


def comparable(data: dict) -> dict:
    """A report dict without what may differ between equal scans."""
    data = dict(data)
    for key in ("seconds", "service", "cache", "stats"):
        data.pop(key, None)
    data["summary"] = {k: v for k, v in data["summary"].items()
                       if k != "seconds"}
    data["files"] = [{k: v for k, v in entry.items() if k != "seconds"}
                     for entry in data["files"]]
    return data


def spoil(data: dict) -> None:
    """Mutate a report dict the way a careless caller might."""
    files = data.pop("files")
    for entry in files:
        for finding in entry["findings"]:
            finding["fingerprint"] = "0" * 20
        entry["findings"].clear()


@pytest.mark.parametrize("cached", [False, True],
                         ids=["no-cache", "cache-dir"])
@pytest.mark.parametrize("project", [False, True],
                         ids=["default", "project"])
@pytest.mark.parametrize("seed", range(6))
def test_warm_rescans_equal_cold_scans(tool, tmp_path, seed, project,
                                       cached):
    root = str(tmp_path / "app")
    rng = random.Random(1000 * seed + 10 * project + cached)
    tree = Project(root, rng)
    options = ScanOptions(jobs=1, project=project,
                          cache_dir=str(tmp_path / "cache")
                          if cached else None)
    scanner = Scanner(tool, options)
    cold_options = ScanOptions(jobs=1, project=project)
    data = scanner.scan(root).to_dict()
    assert comparable(data) == comparable(
        tool.analyze_tree(root, cold_options).to_dict())
    for step in range(15):
        # the caller owns what to_dict() returned: nothing it does to
        # that dict may reach the warm state behind the next report
        spoil(data)
        tree.step()
        warm = scanner.scan(root)
        assert warm.incremental
        cold = tool.analyze_tree(root, cold_options)
        data = warm.to_dict()
        assert comparable(data) == comparable(cold.to_dict()), \
            f"step {step}: {tree.history[-1][0]}"


class TestWarmRequestWork:
    """A warm request predicts and fingerprints only the files it
    re-analyzed, and keeps the include graph while every include target
    stands (default policy)."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts: collections.Counter = collections.Counter()

        def count(name, owner, attr):
            real = getattr(owner, attr)

            def counting(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)

        count("predict", FalsePositivePredictor, "predict")
        count("fingerprint", report_module, "finding_fingerprint_material")
        count("entry", report_module, "file_report_dict")
        count("graph", pipeline, "build_include_graph")
        return counts

    @pytest.mark.parametrize("project", [False, True],
                             ids=["default", "project"])
    def test_one_page_edit_costs_its_files(self, tool, tmp_path, calls,
                                           project):
        root = str(tmp_path / "app")
        tree = Project(root, random.Random(20))
        scanner = Scanner(tool, ScanOptions(jobs=1, project=project))
        scanner.scan(root).to_dict()
        page = tree.pick(False)
        for edit in ("keep", "include"):
            text = tree.files[page]
            if edit == "keep":  # a new flow, every include target kept
                text += "echo $_GET['edit'];\n"
            else:
                text = text.replace("<?php\n",
                                    f"<?php\n{tree.include(page)}\n", 1)
            tree.write(page, text)
            calls.clear()
            warm = scanner.scan(root)
            assert os.path.normpath(page) in warm.dirty
            files = {f.filename: f for f in warm.report.files}
            rerun = [files[os.path.join(root, rel)] for rel in warm.dirty]
            candidates = sum(len(f.outcomes) for f in rerun)
            assert 0 < candidates < len(warm.report.outcomes)
            assert calls["predict"] == candidates, edit
            assert calls["graph"] == \
                (1 if project or edit == "include" else 0), edit
            data = warm.to_dict()
            assert calls["fingerprint"] == candidates, edit
            cold = tool.analyze_tree(root, ScanOptions(jobs=1,
                                                       project=project))
            assert comparable(data) == comparable(cold.to_dict()), edit

    def test_daemon_request_encodes_only_repredicted_entries(
            self, tool, tmp_path, calls):
        """A warm one-page-edit request (``workers=1``) builds the report
        entries of the files it re-predicted; every other entry of the
        body is the bytes its kept file report was encoded into."""
        from repro.service import ScanService, ServiceClient

        root = str(tmp_path / "app")
        tree = Project(root, random.Random(20))
        svc = ScanService(tool, ScanOptions(jobs=1))
        svc.start_background()
        try:
            client = ServiceClient(port=svc.port)
            client.wait_ready()
            client.scan(root)
            page = tree.pick(False)
            tree.write(page, tree.files[page] + "echo $_GET['edit'];\n")
            calls.clear()
            warm = client.scan(root)
        finally:
            svc.server.shutdown()
            svc.close()
        assert warm["service"]["dirty"] == [os.path.normpath(page)]
        listed = [entry["path"] for entry in warm["files"]]
        assert os.path.join(root, os.path.normpath(page)) in listed
        assert calls["predict"] > 0
        assert calls["entry"] == 1 < len(listed)
        cold = tool.analyze_tree(root, ScanOptions(jobs=1))
        assert comparable(warm) == comparable(cold.to_dict())


class TestWarmRescanReads:
    """A scan opens each file at most once in binary mode; a warm
    re-scan opens only files whose content it does not know."""

    @pytest.fixture()
    def blocked(self) -> set:
        """Basenames whose opening fails, as for an unreadable file."""
        return set()

    @pytest.fixture()
    def opened(self, monkeypatch, blocked):
        """(basename, binary) of every ``.php`` file opened."""
        seen: list[tuple[str, bool]] = []
        real_open = builtins.open

        def recording_open(file, mode="r", *args, **kwargs):
            if isinstance(file, str) and file.endswith(".php"):
                name = os.path.basename(file)
                seen.append((name, "b" in mode))
                if name in blocked:
                    raise PermissionError(13, "Permission denied", file)
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        return seen

    @staticmethod
    def make_tree(root) -> None:
        (root / "lib").mkdir(parents=True)
        (root / "lib" / "input.php").write_text("<?php\n$g = $_GET['x'];\n")
        (root / "lib" / "show.php").write_text(
            "<?php\nfunction show($v) {\n  echo $v;\n}\n")
        (root / "index.php").write_text(
            "<?php\nrequire_once 'lib/input.php';\necho $g;\n")
        (root / "admin.php").write_text(
            "<?php\nrequire_once 'lib/show.php';\nshow($_POST['n']);\n")
        (root / "about.php").write_text("<?php\necho 'about us';\n")
        (root / "search.php").write_text("<?php\necho $_GET['q'];\n")

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["no-cache", "cache-dir"])
    @pytest.mark.parametrize("project", [False, True],
                             ids=["default", "project"])
    def test_cold_scan_reads_each_file_once(self, tool, tmp_path, opened,
                                            project, cached):
        root = tmp_path / "app"
        self.make_tree(root)
        scanner = Scanner(tool, ScanOptions(
            jobs=1, project=project,
            cache_dir=str(tmp_path / "cache") if cached else None))
        scanner.scan(str(root))
        reads = collections.Counter(name for name, binary in opened
                                    if binary)
        assert reads == dict.fromkeys(
            ("input.php", "show.php", "index.php", "admin.php",
             "about.php", "search.php"), 1)

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["no-cache", "cache-dir"])
    @pytest.mark.parametrize("project", [False, True],
                             ids=["default", "project"])
    def test_noop_rescan_opens_no_php_file(self, tool, tmp_path, opened,
                                           project, cached):
        root = tmp_path / "app"
        self.make_tree(root)
        scanner = Scanner(tool, ScanOptions(
            jobs=1, project=project,
            cache_dir=str(tmp_path / "cache") if cached else None))
        scanner.scan(str(root))
        opened.clear()
        result = scanner.scan(str(root))
        assert result.incremental and result.dirty == ()
        assert opened == []

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["no-cache", "cache-dir"])
    @pytest.mark.parametrize("page", ["search.php", "about.php"])
    def test_standalone_page_edit_opens_only_that_page(
            self, tool, tmp_path, opened, page, cached):
        """Both a page the tiers keep (search.php, which the detector
        then analyzes from the bytes the scan read) and one they skip
        (about.php); either is read in binary once, for its hash and
        record (which carries its line count)."""
        root = tmp_path / "app"
        self.make_tree(root)
        scanner = Scanner(tool, ScanOptions(
            jobs=1, cache_dir=str(tmp_path / "cache") if cached else None))
        scanner.scan(str(root))
        with open(root / page, "a", encoding="utf-8") as f:
            f.write("<?php echo 'edited'; ?>\n")
        opened.clear()
        result = scanner.scan(str(root))
        assert result.dirty == (page,)
        assert {name for name, _binary in opened} == {page}
        assert opened.count((page, True)) == 1

    def test_a_skipped_includer_is_not_opened_for_its_line_count(
            self, tool, tmp_path, opened):
        """An edit re-runs the files that include the edited one; one the
        tiers skip reports the line count its memoized record carries."""
        root = tmp_path / "app"
        (root / "lib").mkdir(parents=True)
        (root / "lib" / "a.php").write_text("<?php\n$a = 1;\n")
        (root / "page.php").write_text(
            "<?php\nrequire 'lib/a.php';\necho $a;\n")
        (root / "search.php").write_text("<?php\necho $_GET['q'];\n")
        scanner = Scanner(tool, ScanOptions(jobs=1))
        scanner.scan(str(root))
        with open(root / "lib" / "a.php", "a", encoding="utf-8") as f:
            f.write("$b = 2;\n")
        opened.clear()
        result = scanner.scan(str(root))
        assert sorted(result.dirty) == ["lib/a.php", "page.php"]
        assert result.analyzed_files == 0  # both skipped by the tiers
        assert opened == [("a.php", True)]
        lines = {os.path.basename(f.filename): f.lines_of_code
                 for f in result.report.files}
        assert lines == {"a.php": 4, "page.php": 4, "search.php": 3}

    @pytest.mark.parametrize("plain", [False, True],
                             ids=["default", "no-includes-no-prefilter"])
    def test_a_file_one_scan_could_not_read_is_read_again(
            self, tool, tmp_path, opened, blocked, plain):
        """The read error reaches the report, and the next scan reads
        the file again although its stat signature did not change."""
        root = tmp_path / "app"
        self.make_tree(root)
        options = ScanOptions(jobs=1, includes=not plain,
                              prefilter=not plain)
        scanner = Scanner(tool, options)
        scanner.scan(str(root))
        page = root / "search.php"
        page.write_text("<?php\necho $_GET['edited'];\n")
        blocked.add("search.php")
        failed = scanner.scan(str(root))
        entry, = (f for f in failed.report.files
                  if f.filename == str(page))
        assert "Permission denied" in entry.parse_error
        blocked.clear()
        opened.clear()
        again = scanner.scan(str(root))
        assert again.dirty == ("search.php",)
        assert opened.count(("search.php", True)) == 1
        assert comparable(again.to_dict()) == comparable(
            tool.analyze_tree(str(root), options).to_dict())


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=pytest.mark.slow)])
def test_a_warm_state_holds_each_path_string_once(tool, tmp_path, jobs):
    """After a warm re-scan every table of the root's state is keyed by
    its results' own ``filename`` strings (a cold scan's pool workers
    send theirs back as copies)."""
    root = str(tmp_path / "app")
    tree = Project(root, random.Random(7))
    scanner = Scanner(tool, ScanOptions(jobs=jobs))
    scanner.scan(root)
    page = tree.pick(False)
    tree.write(page, tree.files[page] + "echo $_GET['edit'];\n")
    assert scanner.scan(root).dirty
    state = scanner._states[root]
    results = state.scan.results
    tables = {"snapshot": state.snapshot, "hashes": state.scan.hashes,
              "keys": state.scan.keys, "results": results,
              "reports": state.scan.reports}
    for name, table in tables.items():
        assert table.keys() == results.keys(), name
        assert all(path is results[path].filename for path in table), name
