# Convenience targets for the TMN reproduction.

.PHONY: install test lint lint-json lint-concurrency lint-exceptions \
	sanitize-test bench bench-fast bench-json bench-serve bench-shard \
	bench-memory bench-check trace-demo trace-shard-demo perfbench-smoke verify \
	regen-golden profile profile-serve examples clean

install:
	pip install -e .

test:
	pytest tests/

# All rule families; warning-severity findings (E002/E003/C002/C006) are
# reported but only error-severity ones break the build.
lint:
	PYTHONPATH=src python -m repro.analysis src --fail-on error

# Concurrency rule family only (C001–C006): lock-guard discipline,
# lock-order deadlock detection and thread hygiene over the serve tier.
lint-concurrency:
	PYTHONPATH=src python -m repro.analysis src --scope concurrency

# Exception-flow rule family only (E001–E006): verifies the never-raises
# serving contract interprocedurally and the except-hygiene rules; gates
# on warnings too, so every E-finding needs a fix or a justified allow.
lint-exceptions:
	PYTHONPATH=src python -m repro.analysis src --scope exception

# Tier-1 concurrency-sensitive suites under the runtime lock sanitizer:
# new_lock()/new_rlock() hand out order-checked shims that raise on any
# observed lock-order cycle and report hold/wait/contention metrics.
sanitize-test:
	PYTHONPATH=src python -m pytest tests/test_serve.py tests/test_serve_faults.py \
		tests/test_serve_concurrency.py tests/test_hnsw.py tests/test_obs.py \
		tests/test_obs_lockstats.py --sanitize -q

# Machine-readable lint report (violations + suppressed count) for CI artifacts.
lint-json:
	PYTHONPATH=src python -m repro.analysis src --format json > lint_report.json || true
	@python -c "import json; r = json.load(open('lint_report.json')); \
	print('lint_report.json:', len(r['violations']), 'violation(s),', \
	r['suppressed_count'], 'suppressed')"

bench:
	pytest benchmarks/ --benchmark-only

bench-fast:
	REPRO_BENCH_FAST=1 pytest benchmarks/ --benchmark-only

# Full-scale bench run whose deliverable is the machine-readable
# BENCH_results.json perf/quality trajectory (written by benchmarks/conftest.py).
bench-json:
	REPRO_BENCH_JSON=BENCH_results.json pytest benchmarks/ --benchmark-only

# Serving-layer benches (micro-batching vs naive encode, plus the sharded
# process-pool tier vs its single-interpreter control arm); together they
# write the BENCH_serve.json trajectory the bench-check gate diffs.
bench-serve:
	REPRO_BENCH_JSON=BENCH_serve.json PYTHONPATH=src \
		python -m pytest benchmarks/test_serve_throughput.py \
		benchmarks/test_serve_shard.py --benchmark-only

# Sharded-tier bench alone (quick iteration on repro.serve.shard).  Note
# this rewrites BENCH_serve.json with only the shard benches — run the
# full `make bench-serve` before `make bench-check`, which requires every
# baseline bench to be present.
bench-shard:
	REPRO_BENCH_JSON=BENCH_serve.json PYTHONPATH=src \
		python -m pytest benchmarks/test_serve_shard.py --benchmark-only

# Memory-budget bench: exact payload-byte audit of the serving structures
# (store / embedding cache / HNSW index) recorded as BENCH_memory.json —
# bytes_per_trajectory is the number the compression ROADMAP item is
# gated on (tight tolerance in repro.obs.benchgate).
bench-memory:
	REPRO_BENCH_JSON=BENCH_memory.json PYTHONPATH=src \
		python -m pytest benchmarks/test_memory_accounting.py --benchmark-only

# Bench-regression gate: diff the checked-in bench trajectories against
# their committed baselines with per-metric, direction-aware tolerances
# (see repro.obs.benchgate).  After an intentional perf change, refresh
# the baselines (cp BENCH_*.json benchmarks/baselines/) and review the diff.
bench-check:
	@test -f BENCH_results.json || \
		{ echo "BENCH_results.json not found: run 'make bench-json' first"; exit 2; }
	@test -f BENCH_serve.json || \
		{ echo "BENCH_serve.json not found: run 'make bench-serve' first"; exit 2; }
	@test -f BENCH_memory.json || \
		{ echo "BENCH_memory.json not found: run 'make bench-memory' first"; exit 2; }
	PYTHONPATH=src python -m repro.cli bench-diff \
		BENCH_results.json benchmarks/baselines/BENCH_results.json
	PYTHONPATH=src python -m repro.cli bench-diff \
		BENCH_serve.json benchmarks/baselines/BENCH_serve.json
	PYTHONPATH=src python -m repro.cli bench-diff \
		BENCH_memory.json benchmarks/baselines/BENCH_memory.json

# Run a small seeded serve workload and print critical-path trees for the
# slowest request traces (queue-wait vs forward vs index attribution).
trace-demo:
	PYTHONPATH=src python -m repro.cli trace --demo --top 3

# Run a small seeded 4-shard serve workload and print stitched
# cross-process traces: per-shard subtrees (ipc-wait / slab-read /
# search) grafted under the coordinator's serve.topk spans.
trace-shard-demo:
	PYTHONPATH=src python -m repro.cli trace --demo-shards 4 --top 3

# Smoke test of the perfbench harness at its smallest sizes: every
# workload, untraced and traced, must exit 0 with every metric of
# BENCHMARK.json reported and its checks passing.  The traced runs wrap
# layer entry points by name (TMN.forward_pair, cross_match,
# LSTM.forward, ...), so this catches a refactor that moves them.
perfbench-smoke:
	python3 perfbench/smoke.py

# The default verification path: lint (all families, including the
# R010 trace-propagation rule), the concurrency and exception scopes on
# their own exit gates, tier-1 tests, the sanitized serve subset, the
# bench-regression gate (perf + serve + memory trajectories), a
# profile-serve smoke run proving the sampler produces a loadable
# profile, a trace-demo smoke run rendering the single-process engine's
# serve.topk traces, a trace-shard-demo smoke run proving cross-process
# stitching works end-to-end, and the perfbench harness smoke test.
verify: lint lint-concurrency lint-exceptions test sanitize-test bench-check profile-serve trace-demo trace-shard-demo perfbench-smoke

# Re-snapshot the golden trainer regression file after an INTENTIONAL
# numeric change (review the diff before committing it).
regen-golden:
	PYTHONPATH=src python tests/test_golden_regression.py

# Smoke-train with the autograd op profiler on: prints the per-op table and
# leaves a JSONL run record under runs/.
profile:
	PYTHONPATH=src python -m repro.cli train --kind porto --metric dtw \
		--model TMN --fast --epochs 1 --profile \
		--log-json runs/profile.jsonl --out runs/profile-ckpt

# Wall-clock stack-sampler profile of the serving workload (+ an exact
# DP-metric phase): prints the top-frames table and writes a
# speedscope-loadable flamegraph (open runs/profile-serve.speedscope.json
# at https://www.speedscope.app/) plus collapsed stacks for flamegraph.pl.
profile-serve:
	@mkdir -p runs
	PYTHONPATH=src python -m repro.cli profile-serve --queries 150 \
		--speedscope runs/profile-serve.speedscope.json \
		--folded runs/profile-serve.folded

examples:
	python examples/quickstart.py
	python examples/matching_visualization.py
	python examples/knn_search.py
	python examples/clustering.py
	python examples/exact_search_pruning.py
	python examples/robustness.py
	python examples/serving.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
