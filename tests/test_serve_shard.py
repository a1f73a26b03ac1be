"""Merge-correctness tests for the sharded serving tier (DESIGN.md §16).

The load-bearing invariant: the scatter-gather merge over ANY shard
assignment must equal the single-index brute-force top-k EXACTLY — same
ids, same order, same distances bit for bit, including ties at the k
boundary (tie rule: lowest global id wins, the order a stable argsort
over one flat index produces).  The property tests exercise the merge in
pure numpy over random assignments at shard counts 1, 2, 4 and 7; the
``@pytest.mark.shard`` tests drive real spawned worker processes through
the same contract, and pin down the transport: payloads cross the
process boundary as raw float64 bytes inside the request message
(bit-exact, no shared memory), and no request stays pending after its
answer arrived.
"""

import os

import numpy as np
import pytest

from repro.serve import (
    FeatureEncoder,
    ShardedSimilarityServer,
    assign_shard,
    merge_topk,
    trajectory_key,
)

DIM = 8


def _brute_topk(emb, q, k):
    """Single flat index ground truth: squared L2, stable argsort."""
    sq = ((emb - q[None, :]) ** 2).sum(axis=1)
    order = np.argsort(sq, kind="stable")[:k]
    return sq[order], order


def _shard_parts(emb, q, assign, n_shards):
    """Per-shard (squared dists ascending, global ids) — what workers send."""
    parts = []
    for s in range(n_shards):
        gids = np.flatnonzero(assign == s)
        if not len(gids):
            parts.append((np.zeros(0), np.zeros(0, dtype=int)))
            continue
        sq = ((emb[gids] - q[None, :]) ** 2).sum(axis=1)
        order = np.argsort(sq, kind="stable")
        parts.append((sq[order], gids[order]))
    return parts


def _trajs(n, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.normal(size=(int(rng.integers(6, 16)), 2)).cumsum(axis=0)
        for _ in range(n)
    ]


# ---------------------------------------------------------------------------
# Shard assignment
# ---------------------------------------------------------------------------


class TestAssignShard:
    def test_round_robin_covers_all_shards_evenly(self):
        shards = [assign_shard(gid, 4) for gid in range(40)]
        assert sorted(set(shards)) == [0, 1, 2, 3]
        assert all(shards.count(s) == 10 for s in range(4))

    def test_hash_strategy_is_deterministic_and_in_range(self):
        key = trajectory_key(np.ones((5, 2)))
        a = assign_shard(0, 7, strategy="hash", key=key)
        b = assign_shard(99, 7, strategy="hash", key=key)
        assert a == b  # depends only on content, not gid
        assert 0 <= a < 7

    def test_hash_strategy_requires_a_key(self):
        with pytest.raises(ValueError):
            assign_shard(0, 4, strategy="hash")

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError):
            assign_shard(0, 4, strategy="alphabetical")


# ---------------------------------------------------------------------------
# The merge property, pure numpy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
def test_merge_matches_single_index_over_random_assignments(n_shards):
    rng = np.random.default_rng(100 + n_shards)
    n, k = 200, 12
    emb = rng.normal(size=(n, DIM))
    # Exact duplicate rows force bit-identical distances: the merge must
    # reproduce the single-index tie order, not just the same set.
    emb[50] = emb[10]
    emb[120] = emb[10]
    emb[33] = emb[77]
    for trial in range(6):
        # Half the queries ARE database rows, so distance zero (and its
        # duplicates) sits inside the top-k.
        q = emb[int(rng.integers(0, n))] if trial % 2 else rng.normal(size=DIM)
        assign = rng.integers(0, n_shards, size=n)
        dists, gids = merge_topk(_shard_parts(emb, q, assign, n_shards), k)
        exp_sq, exp_ids = _brute_topk(emb, q, k)
        assert np.array_equal(gids, exp_ids)
        assert np.array_equal(dists, exp_sq)


@pytest.mark.parametrize("n_shards", [2, 4, 7])
def test_merge_breaks_k_boundary_ties_by_lowest_gid(n_shards):
    """A tie group straddling the k boundary must resolve by global id."""
    rng = np.random.default_rng(7)
    n, k = 60, 8
    emb = rng.normal(size=(n, DIM))
    q = rng.normal(size=DIM)
    # Rows 5, 17, 29, 41, 53 are identical: five equidistant candidates.
    for gid in (17, 29, 41, 53):
        emb[gid] = emb[5]
    # Make the tie group the nearest candidates so it spans positions
    # 0..4; with k=8 the group is fully inside, shrink k to cut it.
    emb[5] = q + 1e-9
    for gid in (17, 29, 41, 53):
        emb[gid] = emb[5]
    assign = rng.integers(0, n_shards, size=n)
    for k_cut in (3, 5, 8):
        dists, gids = merge_topk(_shard_parts(emb, q, assign, n_shards), k_cut)
        exp_sq, exp_ids = _brute_topk(emb, q, k_cut)
        assert np.array_equal(gids, exp_ids), (k_cut, gids, exp_ids)
        assert np.array_equal(dists, exp_sq)
        # The tie group members selected are exactly the lowest gids.
        tie = [g for g in gids if g in (5, 17, 29, 41, 53)]
        assert tie == sorted((5, 17, 29, 41, 53))[: len(tie)]


def test_merge_handles_empty_parts_and_small_k():
    dists, gids = merge_topk([(np.zeros(0), np.zeros(0, dtype=int))], 5)
    assert len(dists) == 0 and len(gids) == 0
    parts = [(np.array([2.0, 3.0]), np.array([4, 1])), (np.array([1.0]), np.array([9]))]
    dists, gids = merge_topk(parts, 2)
    assert list(gids) == [9, 4]
    assert list(dists) == [1.0, 2.0]
    dists, gids = merge_topk(parts, 0)
    assert len(gids) == 0


# ---------------------------------------------------------------------------
# End to end through real worker processes
# ---------------------------------------------------------------------------


@pytest.mark.shard
@pytest.mark.parametrize("n_shards,strategy", [(1, "round-robin"), (3, "hash")])
def test_sharded_topk_is_exact_over_processes(n_shards, strategy):
    """Process-pool answers match the flat brute force bit for bit."""
    trajs = _trajs(36, seed=3)
    enc = FeatureEncoder(dim=DIM, seed=0)
    emb = np.asarray(enc(trajs), dtype=np.float64)
    srv = ShardedSimilarityServer(
        enc,
        dim=DIM,
        n_shards=n_shards,
        strategy=strategy,
        brute_threshold=10**9,  # exact path in every worker
        shard_deadline_s=30.0,
    )
    try:
        srv.add_batch(trajs)
        rng = np.random.default_rng(11)
        for _ in range(4):
            q = rng.normal(size=(9, 2)).cumsum(axis=0)
            qe = np.asarray(enc([q]), dtype=np.float64)[0]
            exp_sq, exp_ids = _brute_topk(emb, qe, 5)
            result = srv.topk(q, k=5)
            assert not result.degraded
            assert result.source == "sharded"
            assert np.array_equal(result.ids, exp_ids)
            assert np.array_equal(result.distances, np.sqrt(exp_sq))
        # Cache hit path returns the identical answer.
        again = srv.topk(q, k=5)
        assert again.cache_hit
        assert np.array_equal(again.ids, exp_ids)
    finally:
        srv.close()


@pytest.mark.shard
def test_hnsw_path_matches_in_process_replica():
    """Worker HNSW answers equal a replica rebuilt from its state dump."""
    trajs = _trajs(48, seed=5)
    enc = FeatureEncoder(dim=DIM, seed=0)
    srv = ShardedSimilarityServer(
        enc,
        dim=DIM,
        n_shards=2,
        brute_threshold=0,  # force the HNSW path in every worker
        shard_deadline_s=30.0,
    )
    try:
        srv.add_batch(trajs)
        replicas = [srv.dump_shard(i) for i in range(2)]
        q = np.linspace(0, 1, 16).reshape(8, 2)
        result = srv.topk(q, k=4)
        assert not result.degraded
        qe = srv.cache.get(trajectory_key(q))
        assert qe is not None
        answers = [replica.search(qe, 4) for replica in replicas]
        exp_sq, exp_ids = merge_topk([(a.sq, a.gids) for a in answers], 4)
        assert np.array_equal(result.ids, exp_ids)
        assert np.array_equal(result.distances, np.sqrt(exp_sq))
    finally:
        srv.close()


@pytest.mark.shard
def test_add_after_serving_is_visible():
    trajs = _trajs(20, seed=9)
    enc = FeatureEncoder(dim=DIM, seed=0)
    srv = ShardedSimilarityServer(
        enc, dim=DIM, n_shards=2, brute_threshold=10**9, shard_deadline_s=30.0
    )
    try:
        srv.add_batch(trajs[:12])
        probe = trajs[15]
        first = srv.topk(probe, k=1)
        assert first.ids[0] < 12
        gid = srv.add(probe)
        assert gid == 12
        hit = srv.topk(np.asarray(probe) + 0.0, k=1)
        assert hit.ids[0] == 12  # the trajectory itself is now nearest
        assert hit.distances[0] == 0.0
    finally:
        srv.close()


# ---------------------------------------------------------------------------
# Transport: payload bytes, shared memory, pending requests
# ---------------------------------------------------------------------------


def _shm_entries():
    """``/dev/shm`` entries besides multiprocessing's own ``sem.*`` semaphores."""
    return {name for name in os.listdir("/dev/shm") if not name.startswith("sem.")}


@pytest.mark.shard
def test_payload_round_trip_through_worker_is_bit_exact():
    enc = FeatureEncoder(dim=4, seed=0)
    srv = ShardedSimilarityServer(enc, dim=4, n_shards=1, shard_deadline_s=30.0)
    try:
        rng = np.random.default_rng(3)
        for shape in [(1, 2), (7, 2), (128, 2), (16,)]:
            payload = rng.normal(size=shape).cumsum(axis=0)
            # Infinities, negative zero, the smallest subnormal and a NaN
            # must all survive: the content-hash cache keys on the exact
            # byte image.
            flat = payload.reshape(-1)
            specials = [np.inf, -np.inf, -0.0, 5e-324, np.nan]
            flat[: len(specials)] = specials[: flat.size]
            resp = srv.echo_shard(0, payload, timeout_s=30.0)
            echoed = np.asarray(resp["data"])
            assert echoed.dtype == np.float64
            assert echoed.shape == shape
            assert echoed.tobytes() == payload.tobytes()
            # The worker hashed the array IT decoded: digest equality
            # proves the request carried the exact image, end to end.
            assert resp["digest"] == trajectory_key(payload)
    finally:
        srv.close()


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
@pytest.mark.shard
@pytest.mark.parametrize("kill_workers", [False, True])
def test_serving_creates_no_shared_memory(kill_workers):
    """Neither a live server nor its close leaves anything in /dev/shm."""
    before = _shm_entries()
    enc = FeatureEncoder(dim=4, seed=0)
    srv = ShardedSimilarityServer(enc, dim=4, n_shards=2, shard_deadline_s=30.0)
    try:
        srv.add_batch(_trajs(10, seed=1))
        assert not srv.topk(_trajs(1, seed=8)[0], k=2).degraded
        assert _shm_entries() - before == set()
        if kill_workers:
            for handle in srv._handles:
                handle.process.kill()
                handle.process.join(timeout=10)
            # The coordinator keeps answering from its retained blocks.
            assert srv.topk(_trajs(1, seed=9)[0], k=2).degraded
    finally:
        srv.close()
    assert _shm_entries() - before == set()


@pytest.mark.shard
def test_no_request_stays_pending_after_a_serving_burst():
    enc = FeatureEncoder(dim=4, seed=0)
    srv = ShardedSimilarityServer(enc, dim=4, n_shards=2, shard_deadline_s=30.0)
    try:
        srv.add_batch(_trajs(12, seed=2))
        for q in _trajs(10, seed=21):
            assert not srv.topk(q, k=3).degraded
        for handle in srv._handles:
            assert not handle._pending
    finally:
        srv.close()
