"""The one cache store: namespaces, counting, eviction and the bound.

* every namespace turns a corrupt entry or a truncated file into a miss
  plus an eviction, never an exception;
* only the scanning process writes: pool workers ship their work home,
  so a scan rewrites each file once and counts once, and a scan that
  writes nothing writes no file;
* an entry none of its tree's last ``KEEP_SCANS`` rewriting scans read,
  wrote or touched is dropped at the next rewrite, so a cache dir kept
  across many edits stays bounded while every live entry keeps hitting;
* scans of other trees sharing the cache dir never age a tree's entries,
  and a tree no one scans any more is forgotten after
  ``FORGET_ROOT_AFTER`` rewrites;
* only files something includes get a summary entry;
* a file that cannot be read is never probed in the result cache nor
  put there, by ``wape scan`` or the warm scanner alike;
* a warm CLI re-scan whose results all hit opens no AST or summary file;
* the tier counts reach the ledger at any ``--jobs``, with or without
  ``--stats``.
"""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import os
import pickle

import pytest

from repro.analysis.options import ScanOptions
from repro.analysis.pipeline import MISSING, ResultCache
from repro.analysis.summaries import SummaryCache
from repro.cache import (
    AST,
    FORGET_ROOT_AFTER,
    KEEP_SCANS,
    RECORD,
    RESULT,
    SUMMARY,
    CacheStore,
)
from repro.api import Scanner
from repro.php.ast_store import AstCache
from repro.tool.cli import main as cli_main
from repro.tool.wap import Wape

FP = "f" * 64
DEMO_APP = os.path.join(os.path.dirname(__file__), os.pardir, "examples",
                        "demo_app")


@pytest.fixture(scope="module")
def tool():
    return Wape()


def store(directory, root: str = "") -> CacheStore:
    """A store starting a scan of the tree at *root*."""
    cache = CacheStore(str(directory), FP)
    cache.begin_scan(root)
    return cache


#: namespace -> a probe through its view: (store, key) -> value or None
PROBES = {
    RESULT: lambda s, key: ResultCache(s).get(key, "/p/a.php"),
    RECORD: lambda s, key: ResultCache(s).get_blob(key),
    AST: lambda s, key: AstCache(s).get(key),
    SUMMARY: lambda s, key: SummaryCache(s).get(key, "/p/a.php"),
}


def layout(entries: dict) -> bytes:
    """A namespace file of *entries* (key -> bytes), used by root ""."""
    out = io.BytesIO()
    pickler = pickle.Pickler(out)
    pickler.dump(entries)
    pickler.dump(({"": (1, 1)}, {key: ("", 1) for key in entries}))
    return out.getvalue()


def write_namespace(directory, namespace: str, data: bytes) -> str:
    path = store(directory).path(namespace)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as f:
        f.write(data)
    return path


def read_namespace(directory, namespace: str) -> tuple[dict, dict]:
    """A namespace file's (roots, stamps)."""
    with open(store(directory).path(namespace), "rb") as f:
        unpickler = pickle.Unpickler(f)
        unpickler.load()  # the entries
        return unpickler.load()


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("namespace", sorted(PROBES))
class TestCorruption:
    def test_corrupt_entry_is_a_miss_and_an_eviction(self, tmp_path,
                                                     namespace):
        write_namespace(tmp_path, namespace,
                        layout({"k": b"\x80\x05not a pickle"}))
        cache = store(tmp_path)
        assert PROBES[namespace](cache, "k") is None
        counts = cache.counts[namespace]
        assert (counts.hits, counts.misses, counts.evictions) == (0, 1, 1)
        cache.flush(namespace)  # the eviction reaches the disk
        again = store(tmp_path)
        assert PROBES[namespace](again, "k") is None
        assert again.counts[namespace].evictions == 0

    def test_truncated_file_is_a_miss_and_an_eviction(self, tmp_path,
                                                      namespace):
        full = layout({f"k{i}": pickle.dumps(i) for i in range(50)})
        path = write_namespace(tmp_path, namespace, full[:len(full) // 2])
        cache = store(tmp_path)
        assert PROBES[namespace](cache, "k1") is None
        counts = cache.counts[namespace]
        assert (counts.misses, counts.evictions) == (1, 1)
        assert not os.path.exists(path)


# ---------------------------------------------------------------------------
# scans and the bound
# ---------------------------------------------------------------------------

def rewrite(directory, root: str = "", **entries) -> CacheStore:
    """One scan of *root* that puts *entries* in the AST namespace."""
    scan = store(directory, root)
    for key, value in entries.items():
        scan.put(AST, key, value)
    scan.flush(AST)
    return scan


class TestScans:
    def test_a_scan_that_writes_nothing_writes_no_file(self, tmp_path):
        cold = rewrite(tmp_path, k=1)
        directory = os.path.dirname(cold.path(AST))
        before = {name: os.stat(os.path.join(directory, name)).st_mtime_ns
                  for name in os.listdir(directory)}
        warm = store(tmp_path)
        assert warm.get(AST, "k") == 1
        warm.flush(AST)
        assert {name: os.stat(os.path.join(directory, name)).st_mtime_ns
                for name in os.listdir(directory)} == before
        assert read_namespace(tmp_path, AST)[0] == {"": (1, 1)}

    def test_workers_ship_their_work_to_the_scanning_process(self,
                                                            tmp_path):
        rewrite(tmp_path, old=0)
        for _ in range(KEEP_SCANS):
            parent = store(tmp_path)
            worker = CacheStore(str(tmp_path), FP)
            assert worker.get(AST, "old") == 0  # only a worker reads it
            for chunk in ("a", "b"):
                worker.put(AST, chunk, chunk)
                parent.absorb(worker.drain())
            assert parent.counts[AST].puts == 2
            parent.flush(AST)
        roots, stamps = read_namespace(tmp_path, AST)
        # one rewrite per scan, the workers' read kept "old"
        assert roots == {"": (KEEP_SCANS + 1, KEEP_SCANS + 1)}
        assert set(stamps) == {"old", "a", "b"}

    def test_unused_entries_age_out_and_touched_ones_stay(self, tmp_path):
        rewrite(tmp_path, read="read", touched="touched", idle="idle")
        for _ in range(KEEP_SCANS):
            scan = store(tmp_path)
            assert scan.get(AST, "read") == "read"
            scan.touch(AST, ["touched"])
            scan.put(AST, "new", "new")  # every scan rewrites the file
            scan.flush(AST)
        last = store(tmp_path)
        assert last.get(AST, "read") == "read"
        assert last.get(AST, "touched") == "touched"
        assert last.get(AST, "idle") is None

    def test_entries_survive_the_last_keep_scans(self, tmp_path):
        rewrite(tmp_path, idle=1)
        for _ in range(KEEP_SCANS - 1):
            rewrite(tmp_path, new=2)
        assert store(tmp_path).get(AST, "idle") == 1

    def test_rewrites_of_one_namespace_never_age_another(self, tmp_path):
        rewrite(tmp_path, idle=1)
        for i in range(2 * KEEP_SCANS):
            scan = store(tmp_path)
            scan.put(RESULT, f"r{i}", {})
            scan.flush(RESULT)
        rewrite(tmp_path, new=2)
        assert store(tmp_path).get(AST, "idle") == 1

    def test_scans_of_other_trees_never_age_an_entry(self, tmp_path):
        rewrite(tmp_path, "/a", mine=1)
        for i in range(3 * KEEP_SCANS):
            rewrite(tmp_path, f"/other{i}", **{f"k{i}": i})
        assert store(tmp_path, "/a").get(AST, "mine") == 1
        for i in range(KEEP_SCANS):
            rewrite(tmp_path, "/a", new=i)
        assert store(tmp_path, "/a").get(AST, "mine") is None

    def test_a_tree_no_one_scans_is_forgotten(self, tmp_path):
        rewrite(tmp_path, "/gone", old=1)
        for i in range(FORGET_ROOT_AFTER - 1):
            rewrite(tmp_path, "/busy", new=i)
        assert store(tmp_path).get(AST, "old") == 1
        rewrite(tmp_path, "/busy", new=-1)
        assert store(tmp_path).get(AST, "old") is None
        assert set(read_namespace(tmp_path, AST)[0]) == {"/busy"}


# ---------------------------------------------------------------------------
# end to end: bounded growth over many edits of an include tree
# ---------------------------------------------------------------------------

LIBS = 8
PAGES = 120


def write_app(root) -> None:
    for i in range(LIBS):
        write_library(root, i, 0)
    for p in range(PAGES):
        lib = p % LIBS
        page = root / "pages" / f"p{p}.php"
        page.parent.mkdir(parents=True, exist_ok=True)
        page.write_text(
            "<?php\n"
            f"require_once __DIR__ . '/../lib/l{lib}.php';\n"
            f"echo h{lib}($_GET['q']);\n"
            f"echo $g{lib};\n"
            f"echo 'page {p}';\n")


def write_library(root, i: int, edit: int) -> None:
    lib = root / "lib" / f"l{i}.php"
    lib.parent.mkdir(parents=True, exist_ok=True)
    body = "return $x;" if (i + edit) % 2 else "return htmlentities($x);"
    lib.write_text(
        "<?php\n"
        f"$g{i} = $_GET['g{i}'];\n"
        f"function h{i}($x) {{ {body} }}\n"
        f"// edit {edit}\n")


def dir_bytes(directory: str) -> int:
    return sum(os.path.getsize(os.path.join(path, name))
               for path, _dirs, names in os.walk(directory)
               for name in names)


def comparable(report) -> dict:
    data = report.to_dict()
    for key in ("cache", "stats"):
        data.pop(key)
    data["summary"].pop("seconds")
    for entry in data["files"]:
        entry.pop("seconds", None)
    return data


def test_cache_dir_stays_bounded_over_many_edits(tool, tmp_path):
    root = tmp_path / "app"
    write_app(root)
    cache_dir = str(tmp_path / "cache")
    options = ScanOptions(jobs=1, cache_dir=cache_dir)
    tool.analyze_tree(str(root), options)
    cold = dir_bytes(cache_dir)
    for edit in range(1, 3 * KEEP_SCANS + 1):
        write_library(root, edit % LIBS, edit)
        tool.analyze_tree(str(root), options)
    assert dir_bytes(cache_dir) <= 1.5 * cold
    rescan = tool.analyze_tree(str(root), options)
    results = rescan.cache[RESULT]
    assert results.misses == 0 and results.puts == 0
    assert results.hits == rescan.prefilter.sink_bearing
    assert comparable(rescan) == comparable(
        tool.analyze_tree(str(root), ScanOptions(jobs=1)))


def test_scans_of_other_trees_keep_a_tree_warm(tool, tmp_path):
    root = tmp_path / "app"
    write_app(root)
    cache_dir = str(tmp_path / "cache")
    options = ScanOptions(jobs=1, cache_dir=cache_dir)
    tool.analyze_tree(str(root), options)
    for i in range(2 * KEEP_SCANS):  # each writes to every namespace
        other = tmp_path / f"other{i}"
        other.mkdir()
        (other / "a.php").write_text(
            f"<?php\nrequire 'b.php';\necho $_GET['x{i}'];\n")
        (other / "b.php").write_text(f"<?php\n$y{i} = $_GET['y'];\n")
        tool.analyze_tree(str(other), options)
    rescan = tool.analyze_tree(str(root), options)
    results = rescan.cache[RESULT]
    assert results.misses == 0 and results.puts == 0
    assert results.hits == rescan.prefilter.sink_bearing


def test_an_included_files_summary_outlives_edits_elsewhere(tool,
                                                            tmp_path):
    root = tmp_path / "app"
    write_app(root)
    options = ScanOptions(jobs=1, cache_dir=str(tmp_path / "cache"))
    tool.analyze_tree(str(root), options)
    for edit in range(1, 2 * KEEP_SCANS + 1):  # no includer of l1 re-runs
        write_library(root, 0, edit)
        tool.analyze_tree(str(root), options)
    page = root / "pages" / "p1.php"  # includes l1
    page.write_text(page.read_text() + "echo 'edited';\n")
    summaries = tool.analyze_tree(str(root), options).cache[SUMMARY]
    # l1's is replayed from the cache; nothing includes the page, so its
    # own summary is neither probed nor stored
    assert (summaries.hits, summaries.misses, summaries.puts) == (1, 0, 0)


def test_a_rewriting_scan_stamps_crlf_and_invalid_utf8_contents(tool,
                                                                tmp_path):
    """AST and summary entries are keyed by the bytes the scan hashed,
    so its liveness touch reaches those of CRLF and invalid-UTF-8
    files: a scan that edits nothing but adds a library and its page
    rewrites both namespaces and stamps every entry of the tree."""
    root = tmp_path / "app"
    root.mkdir()
    (root / "lib.php").write_bytes(
        b"<?php\r\n$g = $_GET['g'];\r\nfunction h($x) {\r\n"
        b"  return $x;\r\n}\r\n")
    (root / "page.php").write_bytes(
        b"<?php // caf\xe9\nrequire 'lib.php';\necho h($g);\n")
    cache_dir = str(tmp_path / "cache")
    options = ScanOptions(jobs=1, cache_dir=cache_dir)
    tool.analyze_tree(str(root), options)
    (root / "extra.php").write_text("<?php\nfunction e($x) { return $x; }\n")
    (root / "more.php").write_text(
        "<?php\nrequire 'extra.php';\necho e($_GET['m']);\n")
    rescan = tool.analyze_tree(str(root), options)
    assert rescan.cache[RESULT].hits == 1  # page.php: not parsed again
    for namespace, entries in ((AST, 4), (SUMMARY, 2)):
        _roots, stamps = read_namespace(cache_dir, namespace)
        assert list(stamps.values()) == [(str(root), 2)] * entries


@pytest.mark.parametrize("jobs", [1, 2])
def test_only_included_files_store_a_summary(tool, tmp_path, jobs):
    root = tmp_path / "app"
    write_app(root)
    cache_dir = str(tmp_path / "cache")
    options = ScanOptions(jobs=jobs, cache_dir=cache_dir)
    cold = tool.analyze_tree(str(root), options)
    with open(store(cache_dir).path(SUMMARY), "rb") as f:
        entries = pickle.load(f)
    # one entry per library (each worker puts its own copy); no page
    # is included, so none has one
    assert len(entries) == LIBS
    write_library(root, 0, 1)  # re-runs the pages including l0
    warm = tool.analyze_tree(str(root), options)
    uncached = ScanOptions(jobs=jobs)
    assert comparable(warm) == comparable(tool.analyze_tree(str(root),
                                                            uncached))
    write_library(root, 0, 0)
    assert comparable(tool.analyze_tree(str(root), options)) \
        == comparable(cold)


# ---------------------------------------------------------------------------
# an unreadable file never reaches the result cache
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not hasattr(os, "symlink"), reason="needs symlinks")
@pytest.mark.parametrize("runner", ["wape-scan", "scanner"])
def test_an_unreadable_file_is_neither_probed_nor_put(tool, tmp_path,
                                                     monkeypatch, runner):
    """A dangling symlink hashes as ``missing``: no scan probes or puts
    that key, so a second tree with its own dangling symlink hits only
    its readable page's entry, and the detector reports the read error
    every time."""
    keys: list[str] = []
    for method in ("get", "put"):
        def recording(self, key, *args, _real=getattr(ResultCache, method)):
            keys.append(key)
            return _real(self, key, *args)

        monkeypatch.setattr(ResultCache, method, recording)
    options = ScanOptions(jobs=1, cache_dir=str(tmp_path / "cache"))
    reports = []
    for name in ("one", "two"):
        root = tmp_path / name
        root.mkdir()
        (root / "index.php").write_text("<?php\necho $_GET['x'];\n")
        os.symlink(str(root / "nowhere"), str(root / "gone.php"))
        reports.append(Scanner(tool, options).scan(str(root)).report
                       if runner == "scanner"
                       else tool.analyze_tree(str(root), options))
    assert keys and MISSING not in keys
    for report in reports:
        gone, = (f for f in report.files if f.filename.endswith("gone.php"))
        assert "No such file" in gone.parse_error
    assert reports[1].cache[RESULT].hits == 1
    directory = os.path.dirname(store(tmp_path / "cache").path(RESULT))
    name, = (n for n in os.listdir(directory) if n.startswith("result-"))
    with open(os.path.join(directory, name), "rb") as f:
        assert MISSING not in pickle.load(f)


# ---------------------------------------------------------------------------
# end to end: what a warm CLI re-scan opens
# ---------------------------------------------------------------------------

def cli(*argv: str) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli_main(list(argv))


def test_warm_cli_rescan_opens_no_ast_or_summary_file(tmp_path,
                                                      monkeypatch):
    root = tmp_path / "app"
    write_app(root)
    cache_dir = str(tmp_path / "cache")
    cli("--jobs", "1", "--quiet", "--cache-dir", cache_dir,
        str(root))
    namespaces = store(cache_dir)
    assert os.path.exists(namespaces.path(AST))
    assert os.path.exists(namespaces.path(SUMMARY))

    opened: list[str] = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    cli("--jobs", "1", "--quiet", "--cache-dir", cache_dir,
        str(root))
    monkeypatch.undo()
    with open(os.path.join(cache_dir, "ledger.jsonl")) as f:
        record = json.loads(f.readlines()[-1])
    assert record["caches"]["result"]["misses"] == 0
    store_dir = os.path.dirname(namespaces.path(AST))
    read = {os.path.basename(path) for path in opened
            if os.path.dirname(path) == store_dir}
    assert any(name.startswith("result-") for name in read)
    assert "ast.pkl" not in read and "summary.pkl" not in read


# ---------------------------------------------------------------------------
# end to end: the tier counts reach --stats and the ledger
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("stats", [False, True], ids=["plain", "stats"])
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_ledger_counts_every_tier(tmp_path, jobs, stats):
    cache_dir = str(tmp_path / "cache")
    cli("--jobs", jobs, "--quiet", "--cache-dir", cache_dir,
        *(["--stats"] if stats else []), DEMO_APP)
    with open(os.path.join(cache_dir, "ledger.jsonl")) as f:
        caches = json.loads(f.readlines()[-1])["caches"]
    assert caches["ast"]["puts"] > 0
    assert caches["summary"]["puts"] > 0
    if jobs == "1":  # one process: every content is parsed once
        assert caches == {
            "result": {"hits": 0, "misses": 12, "puts": 12,
                       "hit_rate": 0.0},
            "ast": {"hits": 0, "misses": 12, "puts": 12, "hit_rate": 0.0},
            # only the one file something includes has a summary entry
            "summary": {"hits": 0, "misses": 1, "puts": 1,
                        "hit_rate": 0.0},
        }


@pytest.mark.slow
def test_jobs_2_reports_equal_jobs_1_reports(tool, tmp_path):
    root = tmp_path / "app"
    write_app(root)
    reports = {}
    for jobs in (1, 2):
        options = ScanOptions(jobs=jobs, cache_dir=str(tmp_path / f"c{jobs}"))
        reports[jobs] = [comparable(tool.analyze_tree(str(root), options))
                         for _cold_then_warm in range(2)]
    assert reports[2] == reports[1]
    assert reports[1][0] == reports[1][1]
