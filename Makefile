# Convenience targets for the PCC reproduction.

PYTHON ?= python

.PHONY: install test test-output chaos fuzz fuzz-selftest bench bench-tests bench-output bench-full examples scorecard clean trace-smoke serve-smoke serve-telemetry

# report `make bench` writes; commit it as the next BENCH_<n>.json, the
# baseline `scripts/perf_gate.py` holds later reports to
BENCH_OUT ?= BENCH_6.json

# first seed for `make fuzz`; CI passes its run id for fresh coverage
FUZZ_SEED ?= 0
FUZZ_CASES ?= 50

install:
	$(PYTHON) -m pip install -e ".[test]" --no-build-isolation

test:
	$(PYTHON) -m pytest tests/ -q

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# differential oracle: random cases through all engine tiers/policies
# (a second leg forces tree-PLRU TLBs on every case),
# then replay the regression corpus; failures shrink into tests/corpus/
fuzz:
	$(PYTHON) -m repro validate --fuzz $(FUZZ_CASES) --seed $(FUZZ_SEED)
	$(PYTHON) -m repro validate --fuzz $(FUZZ_CASES) --seed $(FUZZ_SEED) \
		--tlb-replacement plru
	$(PYTHON) -m repro validate --replay tests/corpus

# prove the harness catches planted bugs (each must fail + shrink).
# slot-order-faults and span-core-alias need two or more threads: one
# thread's span has a single fault window and a zero core offset.
# plru-span-empty-way needs tree-PLRU TLBs: LRU spans never reach the
# PLRU classifier.
# tlb-plru-drift goes through `crosscheck`, not `validate`: every engine
# tier shares the drifted policy, so only the independent reference
# model can see it.
fuzz-selftest:
	@for defect in lost-fast-hits pcc-no-decay region-count-drift \
		leaked-base-pages walk-clock-at-start; do \
		echo "=== defect: $$defect ==="; \
		$(PYTHON) -m repro validate --fuzz 40 \
			--inject-defect $$defect \
			--corpus-dir $${TMPDIR:-/tmp}/repro-fuzz-selftest || exit 1; \
	done
	@for defect in slot-order-faults span-core-alias; do \
		echo "=== defect: $$defect (two or more threads) ==="; \
		$(PYTHON) -m repro validate --fuzz 40 --min-threads 2 \
			--inject-defect $$defect \
			--corpus-dir $${TMPDIR:-/tmp}/repro-fuzz-selftest || exit 1; \
	done
	@echo "=== defect: plru-span-empty-way (tree-PLRU TLBs) ==="
	@$(PYTHON) -m repro validate --fuzz 40 --tlb-replacement plru \
		--inject-defect plru-span-empty-way \
		--corpus-dir $${TMPDIR:-/tmp}/repro-fuzz-selftest
	@echo "=== defect: tlb-plru-drift (reference cross-check) ==="
	@$(PYTHON) -m repro crosscheck --cases 8 --tlb-replacement plru \
		--inject-defect tlb-plru-drift \
		--corpus-dir $${TMPDIR:-/tmp}/repro-fuzz-selftest

# the fault matrix: crashes, hangs, cache corruption, kill+resume
chaos:
	$(PYTHON) -m pytest tests/resilience/ \
		tests/integration/test_resilience_pipeline.py \
		tests/trace/test_cache_resilience.py -q

# the repository benchmark (bench/README.md): four workloads, 25 s each,
# host-normalised end-to-end metrics and stats digests, written to
# $(BENCH_OUT); CI checks its own run with scripts/perf_gate.py
bench:
	$(PYTHON) -m bench run --out $(BENCH_OUT)

bench-tests:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

bench-full:
	REPRO_BENCH_SCALE=full $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

scorecard:
	$(PYTHON) -m repro scorecard

# chaos-under-load proof for the simulation service: drive a small job
# stream, kill -9 the server at ~30% completion, restart it with
# tracing on, and require zero lost/duplicated jobs plus a trace that
# passes `repro inspect --check` (what CI's serve-smoke job runs)
serve-smoke:
	$(PYTHON) scripts/serve_load.py --chaos --requests 60 \
		--concurrency 16 --distinct 24 --executors 2

# telemetry proof: an SSE stream opened during a live job must carry
# >=1 mid-run progress event before its terminal state, and /metrics
# must parse as Prometheus text exposition with native buckets
serve-telemetry:
	$(PYTHON) scripts/serve_load.py --requests 40 --concurrency 8 \
		--telemetry

# traced end-to-end slice: artifacts must pass their own validators
# (what CI's observability job runs)
trace-smoke:
	$(PYTHON) -m repro --scale quick --jobs 2 fig7 --apps BFS \
		--trace-out trace.json --metrics-out metrics.json
	$(PYTHON) -m repro inspect trace.json --check
	$(PYTHON) -m repro inspect metrics.json --check

clean:
	rm -rf .pytest_cache benchmarks/results/*.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
