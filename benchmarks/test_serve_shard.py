"""Sharded serving bench — the acceptance gate for `repro.serve.shard`.

Builds a ``SHARDS``-worker process pool over a 100k-trajectory store
(2k at SMOKE scale), drives cache-miss ``topk`` queries from ``WORKERS``
closed-loop threads, then replays the same queries through the
single-interpreter control arm: the *same* shard graphs (rebuilt from
worker state dumps) and the same scatter-gather merge on ``WORKERS``
threads, zero IPC.  Asserted properties:

- zero dropped requests and zero degraded answers on the healthy run;
- process-pool answers agree with the in-process replica answers on
  every checked query (same graphs + same embedding => identical ids);
- recall@k against the exact brute force over the retained embedding
  blocks stays above the floor for the committed HNSW parameters;
- >= 2x the single-process throughput — asserted only when the box has
  at least ``SHARDS`` cores.  Worker processes exist to escape the GIL;
  on a 1-CPU runner (the shared CI box) the kernel timeslices the pool
  over one core, so IPC overhead is pure cost and the honest ratio is
  *recorded* (benchgate tracks it) rather than gated.

A second bench SIGKILLs a worker mid-stream and holds the never-raises
contract: every query still gets an answer, the dead shard's portion is
served by the exact coordinator-side fallback, and nothing drops.

Numbers land in the bench JSON via ``bench_record`` (``make bench-serve``
writes BENCH_serve.json; ``make bench-shard`` reruns just this file).
"""

import os

import numpy as np
import pytest

from repro.serve import (
    FeatureEncoder,
    ShardedSimilarityServer,
    format_shard_bench,
    run_shard_bench,
)
from repro.serve.bench import _make_walks

pytestmark = pytest.mark.shard

FAST = bool(os.environ.get("REPRO_BENCH_FAST"))

SHARDS = 4
WORKERS = 4
N_DB = 2_000 if FAST else 100_000
N_QUERIES = 120 if FAST else 600
K = 10
#: Committed HNSW build parameters: small graph degree keeps the 100k
#: build inside the bench budget; ef_search recovers recall at query time.
M = 4
EF_CONSTRUCTION = 16
EF_SEARCH = 48
MIN_SPEEDUP = 2.0
MIN_RECALL = 0.5
#: Alternating untraced/traced run pairs behind the tracing-overhead median.
TRACING_PAIRS = 5


def _run():
    result = run_shard_bench(
        n_db=N_DB,
        n_queries=N_QUERIES,
        shards=SHARDS,
        workers=WORKERS,
        k=K,
        m=M,
        ef_construction=EF_CONSTRUCTION,
        ef_search=EF_SEARCH,
        # The graph at every scale: the recall floor and the process-pool
        # speedup are stated for HNSW search, and at SMOKE scale (500
        # rows per shard) the default threshold would scan instead.
        brute_threshold=0,
        check_sample=48,
        seed=0,
    )
    # Correctness properties hold on every run, not just the recorded one.
    assert result.dropped == 0, f"dropped {result.dropped} requests"
    assert result.completed == N_QUERIES
    assert result.degraded == 0, "healthy pool: nothing should degrade"
    assert result.checked > 0
    assert result.agreement == 1.0, (
        f"{result.checked - int(result.agreement * result.checked)} of "
        f"{result.checked} process-pool answers diverged from the "
        f"in-process replica"
    )
    assert result.slo_statuses and result.slo_ok
    return result


def test_shard_scatter_gather_throughput(benchmark, bench_record):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    print("\n" + format_shard_bench(result))
    bench_record(**result.to_dict())
    assert result.recall_at_k >= MIN_RECALL, (
        f"recall@{K} {result.recall_at_k:.3f} < {MIN_RECALL} with "
        f"m={M} efc={EF_CONSTRUCTION} ef={EF_SEARCH}"
    )
    if result.cpu_count >= SHARDS:
        assert result.speedup >= MIN_SPEEDUP, (
            f"speedup {result.speedup:.2f}x < {MIN_SPEEDUP}x with "
            f"{result.cpu_count} cores for {SHARDS} shards"
        )
    else:
        # Not enough cores to parallelise: the ratio is recorded for the
        # trajectory (and gated against regression by benchgate), not
        # asserted against the 2x bar.
        assert result.sharded_qps > 0


def test_tracing_overhead(benchmark, bench_record):
    """Cross-process trace collection must stay within ~5% of throughput.

    Runs the same sharded workload with tracing on (every request ships
    a ``TraceContext`` and gets a stitched worker subtree back) and
    tracing off (the null-trace path: identical wire shape, zero
    recording), and records both qps plus the overhead percentage.  The
    shared CI box is noisy, so after a warmup run the two arms run as
    ``TRACING_PAIRS`` back-to-back pairs, alternating which arm goes
    first; the recorded overhead is the median of the per-pair
    overheads, so a scheduler stall skews one pair rather than an arm.
    The benchgate rule for ``tracing_overhead_pct`` caps drift at 5
    percentage points over the committed baseline.
    """
    n_db, n_queries = (500, 60) if FAST else (2_000, 200)
    kw = dict(
        n_db=n_db,
        n_queries=n_queries,
        shards=2,
        workers=2,
        k=K,
        seed=0,
        enforce_slos=False,
    )

    def _run_pairs():
        run_shard_bench(tracing=False, **{**kw, "n_queries": n_queries // 4})
        pairs = []
        for i in range(TRACING_PAIRS):
            order = (False, True) if i % 2 == 0 else (True, False)
            runs = {tracing: run_shard_bench(tracing=tracing, **kw) for tracing in order}
            pairs.append((runs[False], runs[True]))
        return pairs

    pairs = benchmark.pedantic(_run_pairs, rounds=1, iterations=1)
    assert all(r.dropped == 0 for pair in pairs for r in pair)
    assert not any(off.shard_attribution for off, _ in pairs), (
        "untraced runs must not collect traces"
    )
    assert all(on.shard_attribution for _, on in pairs), (
        "tracing runs must attribute per-shard time"
    )
    per_pair = [
        (off.sharded_qps - on.sharded_qps) / off.sharded_qps * 100.0
        for off, on in pairs
    ]
    bench_record(
        tracing_on_qps=float(np.median([on.sharded_qps for _, on in pairs])),
        tracing_off_qps=float(np.median([off.sharded_qps for off, _ in pairs])),
        tracing_overhead_pct=max(0.0, float(np.median(per_pair))),
    )


def test_shard_bench_survives_worker_death(benchmark, bench_record):
    """SIGKILL one worker mid-stream: nothing drops, answers stay exact."""
    n_db, n_queries, kill_at = (200, 60, 20) if FAST else (600, 120, 40)

    def _run_with_kill():
        rng = np.random.default_rng(1)
        corpus = _make_walks(n_db + n_queries, rng)
        db, queries = corpus[:n_db], corpus[n_db:]
        enc = FeatureEncoder(dim=16, seed=0)
        srv = ShardedSimilarityServer(
            enc,
            dim=16,
            n_shards=2,
            brute_threshold=10**9,  # exact workers: every answer checkable
            shard_deadline_s=10.0,
        )
        try:
            srv.add_batch(db)
            emb = np.asarray(enc(db), dtype=np.float64)
            results = []
            for i, q in enumerate(queries):
                if i == kill_at:
                    srv._handles[0].process.kill()
                results.append(srv.topk(q, k=K))
            # Every query answered (the never-raises contract held) and
            # every answer — degraded or not — matches the brute force.
            q_emb = np.asarray(enc(queries), dtype=np.float64)
            for qe, result in zip(q_emb, results):
                sq = ((emb - qe[None, :]) ** 2).sum(axis=1)
                expect = np.argsort(sq, kind="stable")[:K]
                assert np.array_equal(result.ids, expect)
            return results
        finally:
            srv.close()

    results = benchmark.pedantic(_run_with_kill, rounds=1, iterations=1)
    degraded = sum(1 for r in results if r.degraded)
    assert len(results) == n_queries
    assert degraded > 0, "expected post-kill queries to be degraded"
    assert all(r.ids is not None for r in results)
    bench_record(completed=float(len(results)), degraded=float(degraded))
