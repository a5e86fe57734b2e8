"""Frontend throughput: lexer tokens/sec, parser nodes/sec, AST cache.

Measures the parse-once frontend in isolation — no taint analysis, no
predictor — over the synthesized corpus:

* **lex**: ``tokenize()`` over every file, tokens/sec.
* **parse**: ``Parser.parse_program()`` over every token stream,
  AST nodes/sec (counted with :func:`repro.php.count_nodes`).
* **cold vs AST-cache-warm**: :meth:`repro.php.AstStore.parse_recovering`
  through an empty on-disk :class:`repro.php.AstCache`, then again
  through a fresh store backed by the now-populated cache directory —
  the warm pass must serve every file from disk without re-parsing.

Results land in ``BENCH_frontend.json`` at the repository root so the
frontend's performance trajectory is tracked PR over PR.

Run under pytest (full corpus)::

    PYTHONPATH=src python -m pytest benchmarks/bench_frontend.py -s

or standalone, optionally in smoke mode (tiny corpus, no JSON written —
``make bench-smoke``)::

    PYTHONPATH=src python benchmarks/bench_frontend.py --smoke
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_PATH = os.path.join(REPO_ROOT, "BENCH_frontend.json")


def _corpus_sources(root: str, smoke: bool) -> list[tuple[str, str]]:
    from repro.corpus import (
        VULNERABLE_WEBAPPS,
        build_webapp_corpus,
        build_wordpress_corpus,
        materialize_package,
    )

    if smoke:
        for profile in VULNERABLE_WEBAPPS[:3]:
            materialize_package(profile, root)
    else:
        build_webapp_corpus(root)
        build_wordpress_corpus(root)

    from repro.analysis.pipeline import ScanScheduler

    sources = []
    for path in ScanScheduler.discover(root):
        with open(path, encoding="utf-8", errors="replace") as f:
            sources.append((path, f.read()))
    return sources


def run_benchmark(smoke: bool = False) -> dict:
    from repro.exceptions import PhpSyntaxError
    from repro.php import Parser, count_nodes, tokenize
    from repro.cache import AST, CacheStore
    from repro.php.ast_store import AstCache, AstStore

    with tempfile.TemporaryDirectory(prefix="bench-frontend-") as workdir:
        corpus_root = os.path.join(workdir, "corpus")
        os.makedirs(corpus_root)
        sources = _corpus_sources(corpus_root, smoke)
        loc = sum(src.count("\n") + 1 for _, src in sources)

        # --- lex ------------------------------------------------------
        start = time.perf_counter()
        token_streams = [(path, src, tokenize(src, path))
                         for path, src in sources]
        lex_seconds = time.perf_counter() - start
        tokens = sum(len(ts) for _, _, ts in token_streams)

        # --- parse ----------------------------------------------------
        nodes = 0
        start = time.perf_counter()
        programs = []
        for path, _, stream in token_streams:
            parser = Parser(stream, path, recover=True)
            programs.append(parser.parse_program())
        parse_seconds = time.perf_counter() - start
        nodes = sum(count_nodes(p) for p in programs)

        # --- cold vs AST-cache-warm ----------------------------------
        cache_dir = os.path.join(workdir, "cache")

        def _store_pass() -> tuple[float, AstStore]:
            store = AstStore(disk=AstCache(CacheStore(cache_dir)))
            start = time.perf_counter()
            for path, src in sources:
                try:
                    store.parse_recovering(src, path)
                except PhpSyntaxError:
                    pass  # corpus may contain deliberately broken files
            # puts are buffered: the store contract is one flush per
            # scan (the scheduler and workers do the same)
            store.flush()
            return time.perf_counter() - start, store

        cold_seconds, cold_store = _store_pass()
        warm_seconds, warm_store = _store_pass()
        assert cold_store.parses > 0 and warm_store.parses == 0, \
            "warm pass must be served entirely from the AST cache"

    result = {
        "benchmark": "frontend",
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "corpus": {"files": len(sources), "loc": loc,
                   "tokens": tokens, "ast_nodes": nodes},
        "lex": {"seconds": round(lex_seconds, 4),
                "tokens_per_sec": round(tokens / lex_seconds, 1)},
        "parse": {"seconds": round(parse_seconds, 4),
                  "nodes_per_sec": round(nodes / parse_seconds, 1)},
        "ast_cache": {
            "cold_seconds": round(cold_seconds, 4),
            "warm_seconds": round(warm_seconds, 4),
            "unique_parses": cold_store.parses,
            "warm_disk_hits": warm_store.disk.store.counts[AST].hits,
            "speedup_warm_vs_cold": round(cold_seconds / warm_seconds, 2),
        },
    }
    return result


def print_summary(result: dict) -> None:
    corpus = result["corpus"]
    print(f"\n### frontend — {corpus['files']} files, {corpus['loc']} LoC, "
          f"{corpus['tokens']} tokens, {corpus['ast_nodes']} AST nodes")
    print(f"  lex:   {result['lex']['seconds']:>8.4f}s  "
          f"{result['lex']['tokens_per_sec']:>11.1f} tokens/s")
    print(f"  parse: {result['parse']['seconds']:>8.4f}s  "
          f"{result['parse']['nodes_per_sec']:>11.1f} nodes/s")
    cache = result["ast_cache"]
    print(f"  AST cache: cold {cache['cold_seconds']}s "
          f"({cache['unique_parses']} parses), warm "
          f"{cache['warm_seconds']}s ({cache['warm_disk_hits']} disk "
          f"hits) -> {cache['speedup_warm_vs_cold']}x")


def check_expectations(result: dict) -> None:
    cache = result["ast_cache"]
    # lenient by design: unpickling is not free, but it must beat
    # lexing + parsing the same bytes
    assert cache["warm_seconds"] < cache["cold_seconds"], \
        "AST-cache-warm pass should be faster than the cold pass"
    assert cache["warm_disk_hits"] == cache["unique_parses"], \
        "every unique content should be a disk hit on the warm pass"


def test_frontend_throughput():
    """Full-corpus run: records BENCH_frontend.json at repo root."""
    result = run_benchmark(smoke=False)
    print_summary(result)
    with open(RESULT_PATH, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"  recorded -> {RESULT_PATH}")
    check_expectations(result)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    outcome = run_benchmark(smoke=smoke)
    print_summary(outcome)
    check_expectations(outcome)
    if not smoke:
        with open(RESULT_PATH, "w", encoding="utf-8") as f:
            json.dump(outcome, f, indent=2)
            f.write("\n")
        print(f"recorded -> {RESULT_PATH}")
