"""Warm re-scans run the batch pipeline: they must report what it reports.

A warm :class:`repro.api.Scanner` re-scan keeps the previous result of
every file whose closure key is unchanged and re-runs the rest through
the same scheduler as a cold ``analyze_tree``.  The sequences below edit
a small generated project step by step — page and library edits, added
and deleted files, added and removed includes, reverts, and pages or
libraries that share one content — and after every step compare the warm
report with a fresh, uncached scan of the same tree.

The I/O guard pins the other half of the contract: a warm re-scan reads
only what changed.
"""

from __future__ import annotations

import builtins
import os
import random

import pytest

from repro.analysis.options import ScanOptions
from repro.api import Scanner
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
    assert comparable(scanner.scan(root).to_dict()) == comparable(
        tool.analyze_tree(root, cold_options).to_dict())
    for step in range(15):
        tree.step()
        warm = scanner.scan(root)
        assert warm.incremental
        cold = tool.analyze_tree(root, cold_options)
        assert comparable(warm.to_dict()) == comparable(cold.to_dict()), \
            f"step {step}: {tree.history[-1][0]}"


class TestWarmRescanReads:
    """A warm re-scan opens only files whose content it does not know."""

    @pytest.fixture()
    def opened(self, monkeypatch):
        seen: list[str] = []
        real_open = builtins.open

        def recording_open(file, *args, **kwargs):
            if isinstance(file, str) and file.endswith(".php"):
                seen.append(os.path.basename(file))
            return real_open(file, *args, **kwargs)

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
        """Both a page the tiers keep (search.php) and one they skip
        (about.php, whose line count is read again)."""
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
        assert set(opened) == {page}
