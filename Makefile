# Developer entry points.  Everything runs against the in-repo sources
# (PYTHONPATH=src) so no install step is needed.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-fast test-grammar test-ir test-service \
	bench bench-smoke bench-throughput bench-frontend bench-check \
	wapebench-check \
	trace-demo serve-demo watch-demo baseline-demo baseline-check

# tier-1: the full suite, slow tests included, exactly what CI runs
test:
	$(PYTHON) -m pytest -x -q

# the fast split, a local inner loop (CI runs all of `test`): skips
# subprocess CLI tests, multi-process scans and full-corpus evaluations
# (see the `slow` marker in pyproject.toml)
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

# the PHP frontend only: lexer/parser/unparser suites plus the grammar
# regression corpus (interleaved HTML, anon classes, goto, recovery)
test-grammar:
	$(PYTHON) -m pytest -x -q tests/test_php_lexer.py \
		tests/test_php_parser.py tests/test_php_unparser.py \
		tests/test_php_visitor.py tests/test_php_edge_cases.py \
		tests/test_php_modern_syntax.py tests/test_php_grammar_corpus.py

# the taint IR: lowering unit tests, the differential oracle against
# the reference AST walker, and the compositional summary-cache tier
# (all part of the fast suite; this target is the focused loop)
test-ir:
	$(PYTHON) -m pytest -x -q tests/test_ir.py tests/test_ir_oracle.py \
		tests/test_summary_cache.py tests/test_ast_store.py

# the embedding API, scan daemon (in-process and forked workers:
# sticky routing, crash supervision, NDJSON streaming, LRU eviction,
# /v1/status and `wape top`) and report-schema suites (includes the
# slow daemon-vs-CLI oracle and the `wape serve` subprocess tests)
test-service:
	$(PYTHON) -m pytest -x -q tests/test_api.py tests/test_service.py \
		tests/test_fleet.py tests/test_obs_service.py \
		tests/test_report_schema.py

# every paper table/figure benchmark
bench:
	$(PYTHON) -m pytest benchmarks/ -s -q

# scan-throughput trajectory: full corpus, records BENCH_scan_throughput.json
bench-throughput:
	$(PYTHON) benchmarks/bench_scan_throughput.py

# frontend trajectory (lex/parse/AST-cache): records BENCH_frontend.json
bench-frontend:
	$(PYTHON) benchmarks/bench_frontend.py

# tiny-tree regression guard (fast; writes no trajectory files).
# Covers every scenario — the summary-warm cold scan (inline assertions
# prove dependency bodies are replayed, not re-run) and the fleet smoke
# (2 workers, 1 scan each, clean shutdown).
bench-smoke:
	$(PYTHON) benchmarks/bench_scan_throughput.py --smoke
	$(PYTHON) benchmarks/bench_frontend.py --smoke

# observability gate: ledger determinism, regression detector and the
# sampling profiler, end to end on the demo app (artifacts in .bench/)
bench-check:
	$(PYTHON) benchmarks/bench_check.py

# the repository benchmark's ground-truth checks: one short session of
# every wapebench workload, failing unless its last line reports
# "correct": true with 0 failed ops (run.py exits 0 either way)
WAPEBENCH_WORKLOADS := corpus-batch corpus-edit include-app
wapebench-check:
	@for w in $(WAPEBENCH_WORKLOADS); do \
		$(PYTHON) wapebench/run.py --workload $$w --seed 1 --seconds 1 \
			--trace 0 | tail -n 1 | $(PYTHON) -c 'import json, sys; \
		r = json.loads(sys.stdin.read()); print(sys.argv[1], r); \
		sys.exit(r["correct"] is not True or r["failed"] != 0)' $$w \
			|| exit 1; \
	done

# telemetry demo: traced 2-worker scan of the demo app, writing
# trace.json + metrics.prom and printing the --stats footer
# (the demo app is deliberately vulnerable, so the scan exits 1)
trace-demo:
	-$(PYTHON) -m repro scan --jobs 2 --no-cache --quiet --stats \
		--trace-out trace.json --metrics-out metrics.prom examples/
	@echo "trace   -> trace.json"
	@echo "metrics -> metrics.prom"

# scan daemon on the demo app; scan it from another shell with
#   curl -s -X POST http://127.0.0.1:8711/v1/scan \
#        -d '{"root": "examples/demo_app"}'
# and stop it with  curl -s -X POST http://127.0.0.1:8711/v1/shutdown
serve-demo:
	$(PYTHON) -m repro serve --port 8711

# continuous scanning on the demo app: edit a file under
# examples/demo_app/ in another shell and watch the findings delta
watch-demo:
	$(PYTHON) -m repro watch examples/demo_app --no-ledger

# regenerate the committed findings baseline for the demo app (run
# after intentionally changing its findings; paths stay repo-relative
# so the baseline is machine-independent)
baseline-demo:
	-$(PYTHON) -m repro scan --json --no-cache examples/demo_app \
		> examples/demo_app.baseline.json
	@echo "baseline -> examples/demo_app.baseline.json"

# the CI gate: fail only on findings absent from the committed
# baseline, and export the scan as SARIF for code-review surfaces; the
# whole-project policy (--project) is gated against the same baseline
baseline-check:
	@mkdir -p .bench
	$(PYTHON) -m repro scan --quiet --no-cache \
		--baseline examples/demo_app.baseline.json --fail-on-new \
		--sarif-out .bench/demo_app.sarif examples/demo_app
	$(PYTHON) -m repro scan --project --quiet --no-cache \
		--baseline examples/demo_app.baseline.json --fail-on-new \
		examples/demo_app
