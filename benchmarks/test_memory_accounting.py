"""Memory-accounting bench — the budget gate for the serving structures.

Runs the seeded serving workload and records the exact payload-byte
audit (:meth:`~repro.serve.engine.SimilarityServer.memory_stats`) into
the bench JSON: ``bytes_per_trajectory`` is the headline the
quantised-store ROADMAP item must *shrink*, so the committed baseline
(``benchmarks/baselines/BENCH_memory.json``) plus the tight benchgate
tolerance on ``bytes_per_trajectory`` make silent memory growth a
failing diff.  ``make bench-memory`` is the canonical producer;
``make bench-check`` diffs it.

Asserted here (not just recorded): the byte audit is *exact* — the
store figure equals the sum of the trajectory buffers, and cache/index
figures move when and only when entries exist.
"""

import numpy as np

from repro.serve import run_serve_bench

#: Deterministic workload shape: byte audits depend only on the seeded
#: corpus and the (seeded) HNSW level draws, so any drift in the bytes
#: metrics is a real accounting or layout change, not noise.
N_DB = 40
N_QUERIES = 120
WORKERS = 2
TRAJ_LEN = 60
HIDDEN_DIM = 8


def _run():
    return run_serve_bench(
        n_db=N_DB,
        n_queries=N_QUERIES,
        workers=WORKERS,
        traj_len=TRAJ_LEN,
        hidden_dim=HIDDEN_DIM,
        naive_queries=4,
        seed=0,
    )


def test_memory_accounting(benchmark, bench_record):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    assert result.dropped == 0
    # The audit produced real, positive figures.
    assert result.bytes_per_trajectory > 0
    assert result.peak_rss_bytes > 0
    # Sanity bound: a float64 (n, 2) trajectory of ~TRAJ_LEN points is
    # ~16 * TRAJ_LEN bytes; store + embeddings (no graph links this small) should land
    # within a loose order-of-magnitude band of that, not at megabytes.
    assert 16 * TRAJ_LEN * 0.5 < result.bytes_per_trajectory < 16 * TRAJ_LEN * 20
    print(
        f"\nmemory: {result.bytes_per_trajectory:,.0f} B/trajectory, "
        f"peak rss {result.peak_rss_bytes / 2**20:,.1f} MiB"
    )
    bench_record(
        n_db=float(result.n_db),
        bytes_per_trajectory=result.bytes_per_trajectory,
        peak_rss_bytes=result.peak_rss_bytes,
    )


def test_store_accounting_is_exact():
    """`memory_stats` store figure == the sum of the stored buffers."""
    from repro.core import TMN, TMNConfig
    from repro.serve.engine import SimilarityServer

    rng = np.random.default_rng(0)
    trajs = [rng.normal(size=(n, 2)) for n in (10, 20, 30)]
    model = TMN(TMNConfig(hidden_dim=8, matching=False, seed=0))
    model.eval()
    server = SimilarityServer(model, dim=model.output_dim, seed=0)
    try:
        server.add_batch(trajs)
        stats = server.memory_stats()
        assert stats["n_trajectories"] == 3
        assert stats["store_bytes"] == sum(t.nbytes for t in trajs)
        assert stats["index_bytes"] > 0  # stored vectors; no links this small
        assert stats["total_bytes"] == (
            stats["store_bytes"] + stats["cache_bytes"] + stats["index_bytes"]
        )
        assert stats["bytes_per_trajectory"] == stats["total_bytes"] / 3
    finally:
        server.close()
