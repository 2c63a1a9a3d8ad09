# Convenience targets for the PCC reproduction.

PYTHON ?= python

.PHONY: install test chaos fuzz fuzz-selftest bench bench-tests bench-full examples scorecard clean trace-smoke serve-smoke serve-telemetry serve-bench

# artifact `make bench` writes; bump per PR so perf history accumulates
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
# tlb-plru-drift goes through `crosscheck`, not `validate`: every
# engine tier shares the drifted policy, so only the independent
# reference model can see it.
fuzz-selftest:
	@for defect in stale-hints pcc-no-decay region-count-drift; do \
		echo "=== defect: $$defect ==="; \
		$(PYTHON) -m repro validate --fuzz 40 \
			--inject-defect $$defect \
			--corpus-dir $${TMPDIR:-/tmp}/repro-fuzz-selftest || exit 1; \
	done
	@echo "=== defect: tlb-plru-drift (reference cross-check) ==="
	@$(PYTHON) -m repro crosscheck --cases 8 --tlb-replacement plru \
		--inject-defect tlb-plru-drift \
		--corpus-dir $${TMPDIR:-/tmp}/repro-fuzz-selftest

# the fault matrix: crashes, hangs, cache corruption, kill+resume
chaos:
	$(PYTHON) -m pytest tests/resilience/ \
		tests/integration/test_resilience_pipeline.py \
		tests/trace/test_cache_resilience.py -q

# one-step perf trajectory: all three tiers timed interleaved, tier
# equivalence verified, steady-state + residue breakdown measured, and
# the $(BENCH_OUT) artifact written with the previous PR's numbers
# embedded as the before/after record
bench:
	$(PYTHON) scripts/perf_smoke.py --engines --verify-equivalence \
		--steady-state --bench-out $(BENCH_OUT)

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

# service throughput/latency trajectory: 1000 small jobs at fixed
# concurrency, merged into $(BENCH_OUT) as the `serve` and
# `telemetry` sections
serve-bench:
	$(PYTHON) scripts/serve_load.py --requests 1000 --concurrency 128 \
		--telemetry --bench-out $(BENCH_OUT)

# traced end-to-end slice: artifacts must pass their own validators,
# and disabled observability must stay free (what CI runs)
trace-smoke:
	$(PYTHON) -m repro --scale quick --jobs 2 fig7 --apps BFS \
		--trace-out trace.json --metrics-out metrics.json
	$(PYTHON) -m repro inspect trace.json --check
	$(PYTHON) -m repro inspect metrics.json --check
	$(PYTHON) scripts/perf_smoke.py --max-ratio 99 --obs-overhead

clean:
	rm -rf .pytest_cache benchmarks/results/*.txt
	find . -name __pycache__ -type d -exec rm -rf {} +
