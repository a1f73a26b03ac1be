"""Unit tests for `repro.serve`: cache, micro-batcher, query engine.

Fault paths live in ``test_serve_faults.py``; this file covers the sunny
day contracts — content-hash keys, LRU eviction, request coalescing,
top-k correctness against brute force in embedding space, and the
serving counters.
"""

import threading
import time

import numpy as np
import pytest

from repro.obs import get_registry
from repro.serve import (
    EmbeddingCache,
    MicroBatcher,
    SimilarityServer,
    run_serve_bench,
    trajectory_key,
)
from repro.serve.engine import BRUTE_THRESHOLD, brute_topk

DIM = 3


def _embed(trajs):
    """Deterministic toy encoder: 3 arithmetic features per trajectory."""
    out = np.zeros((len(trajs), DIM))
    for i, t in enumerate(trajs):
        p = np.asarray(t, dtype=np.float64)
        out[i] = [p[:, 0].mean(), p[:, 1].mean(), float(len(p))]
    return out


def _trajs(n, seed=0, length=5):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(length, 2)) for _ in range(n)]


# ---------------------------------------------------------------------------
# brute_topk: the exact scan
# ---------------------------------------------------------------------------
class TestBruteTopk:
    """The partition-then-sort scan ranks exactly as a full stable argsort."""

    @staticmethod
    def _tied_table(n=12, dim=3):
        """Rows whose squared distances to the origin tie in runs of three,
        the runs interleaved so tied rows are not adjacent."""
        rng = np.random.default_rng(3)
        base = rng.normal(size=(n // 3, dim))
        return np.concatenate([base, base[::-1], base])

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 11, 12, 13, 40])
    def test_matches_stable_argsort_bit_for_bit(self, k):
        table = self._tied_table()
        gids = np.arange(100, 100 + len(table))
        query = np.zeros(table.shape[1])
        sq = ((table - query[None, :]) ** 2).sum(axis=1)
        expect = np.argsort(sq, kind="stable")[:k]
        # The ties really straddle the k-th position for some k.
        assert len(np.unique(sq)) == len(table) // 3
        got_sq, got_gids = brute_topk(table, gids, query, k)
        np.testing.assert_array_equal(got_gids, gids[expect])
        assert got_sq.tobytes() == sq[expect].tobytes()

    @pytest.mark.parametrize("k", [1, 9, 10, 11])
    def test_random_rows_with_duplicates(self, k):
        rng = np.random.default_rng(k)
        table = rng.normal(size=(10, 4))
        table[[2, 5, 7]] = table[4]  # four identical rows
        query = table[4] + 0.1
        sq = ((table - query[None, :]) ** 2).sum(axis=1)
        expect = np.argsort(sq, kind="stable")[:k]
        got_sq, got_ids = brute_topk(table, np.arange(10), query, k)
        np.testing.assert_array_equal(got_ids, expect)
        assert got_sq.tobytes() == sq[expect].tobytes()

    def test_nan_rows_rank_last(self):
        table = np.array([[np.nan, 0.0], [1.0, 0.0], [0.5, 0.0], [np.nan, 1.0]])
        got_sq, got_ids = brute_topk(table, np.arange(4), np.zeros(2), 3)
        np.testing.assert_array_equal(got_ids, [2, 1, 0])
        assert np.isnan(got_sq[2])

    def test_input_table_is_not_modified(self):
        table = self._tied_table()
        before = table.copy()
        brute_topk(table, np.arange(len(table)), np.ones(table.shape[1]), 4)
        np.testing.assert_array_equal(table, before)


# ---------------------------------------------------------------------------
# trajectory_key
# ---------------------------------------------------------------------------


class TestTrajectoryKey:
    def test_identical_content_same_key(self):
        a = np.arange(10.0).reshape(5, 2)
        assert trajectory_key(a) == trajectory_key(a.copy())

    def test_any_coordinate_change_changes_key(self):
        a = np.arange(10.0).reshape(5, 2)
        b = a.copy()
        b[3, 1] += 1e-15
        assert trajectory_key(a) != trajectory_key(b)

    def test_shape_disambiguates_same_bytes(self):
        """(4, 2) and (2, 4) views of the same buffer share bytes but not
        shape — the key must include the shape."""
        flat = np.arange(8.0)
        assert trajectory_key(flat.reshape(4, 2)) != trajectory_key(flat.reshape(2, 4))

    def test_accepts_trajectory_objects(self):
        class Wrapper:
            def __init__(self, points):
                self.points = points

        a = np.arange(6.0).reshape(3, 2)
        assert trajectory_key(Wrapper(a)) == trajectory_key(a)

    def test_non_contiguous_input(self):
        base = np.arange(20.0).reshape(5, 4)
        view = base[:, :2]  # non-contiguous view
        assert not view.flags["C_CONTIGUOUS"]
        assert trajectory_key(view) == trajectory_key(np.ascontiguousarray(view))


# ---------------------------------------------------------------------------
# EmbeddingCache
# ---------------------------------------------------------------------------


class TestEmbeddingCache:
    def test_put_get_roundtrip(self):
        cache = EmbeddingCache(capacity=4)
        emb = np.array([1.0, 2.0])
        cache.put("k", emb)
        np.testing.assert_array_equal(cache.get("k"), emb)
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self):
        cache = EmbeddingCache(capacity=4)
        assert cache.get("absent") is None
        assert cache.misses == 1
        assert cache.hit_rate == 0.0

    def test_lru_eviction_order(self):
        cache = EmbeddingCache(capacity=2)
        cache.put("a", np.zeros(1))
        cache.put("b", np.ones(1))
        cache.get("a")  # refresh 'a' -> 'b' is now least recent
        cache.put("c", np.full(1, 2.0))
        assert cache.get("b") is None  # evicted
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert len(cache) == 2

    def test_put_refreshes_recency(self):
        cache = EmbeddingCache(capacity=2)
        cache.put("a", np.zeros(1))
        cache.put("b", np.ones(1))
        cache.put("a", np.zeros(1))  # re-put refreshes
        cache.put("c", np.full(1, 2.0))
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EmbeddingCache(capacity=0)

    def test_clear_keeps_totals(self):
        cache = EmbeddingCache(capacity=4)
        cache.put("a", np.zeros(1))
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_hit_rate(self):
        cache = EmbeddingCache(capacity=4)
        cache.put("a", np.zeros(1))
        cache.get("a")
        cache.get("a")
        cache.get("missing")
        assert cache.hit_rate == pytest.approx(2 / 3)

    def test_thread_safety_smoke(self):
        cache = EmbeddingCache(capacity=32)
        errors = []

        def worker(wid):
            try:
                for i in range(200):
                    key = f"k{(wid * 7 + i) % 48}"
                    if cache.get(key) is None:
                        cache.put(key, np.full(2, float(i)))
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 32


# ---------------------------------------------------------------------------
# MicroBatcher coalescing
# ---------------------------------------------------------------------------


class TestMicroBatcher:
    def test_coalesces_concurrent_requests(self):
        sizes = []

        def encode(trajs):
            sizes.append(len(trajs))
            time.sleep(0.01)  # give later submitters time to queue up
            return _embed(trajs)

        trajs = _trajs(12, seed=1)
        with MicroBatcher(encode, max_batch_size=8, max_wait_ms=20.0) as batcher:
            futures = [batcher.submit(t) for t in trajs]
            results = [f.result(timeout=10) for f in futures]
        assert len(results) == 12
        assert max(sizes) > 1  # something actually coalesced
        assert sum(sizes) == 12

    def test_results_map_to_their_requests(self):
        trajs = _trajs(9, seed=2)
        with MicroBatcher(_embed, max_batch_size=4, max_wait_ms=5.0) as batcher:
            futures = [batcher.submit(t) for t in trajs]
            for traj, future in zip(trajs, futures):
                np.testing.assert_allclose(future.result(timeout=10), _embed([traj])[0])

    def test_max_batch_size_respected(self):
        sizes = []

        def encode(trajs):
            sizes.append(len(trajs))
            return _embed(trajs)

        with MicroBatcher(encode, max_batch_size=3, max_wait_ms=50.0) as batcher:
            futures = [batcher.submit(t) for t in _trajs(10, seed=3)]
            for f in futures:
                f.result(timeout=10)
        assert max(sizes) <= 3

    def test_single_request_flushes_by_deadline(self):
        with MicroBatcher(_embed, max_batch_size=64, max_wait_ms=10.0) as batcher:
            start = time.perf_counter()
            batcher.submit(_trajs(1)[0]).result(timeout=10)
            # idle grace flushes well before a 64-deep batch could fill.
            assert time.perf_counter() - start < 5.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(_embed, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(_embed, max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(_embed, idle_grace_ms=-0.1)

    def test_custom_name_prefixes_metrics(self):
        before = get_registry().counter("custom.requests").value
        with MicroBatcher(_embed, max_batch_size=2, name="custom") as batcher:
            batcher.submit(_trajs(1)[0]).result(timeout=10)
        assert get_registry().counter("custom.requests").value == before + 1


# ---------------------------------------------------------------------------
# SimilarityServer query engine
# ---------------------------------------------------------------------------


class TestSimilarityServer:
    @pytest.fixture
    def server(self):
        with SimilarityServer(_embed, dim=DIM, max_wait_ms=1.0) as srv:
            yield srv

    def test_add_returns_sequential_ids(self, server):
        ids = server.add_batch(_trajs(5, seed=4))
        assert ids == [0, 1, 2, 3, 4]
        assert len(server) == 5

    def test_topk_matches_brute_force_in_embedding_space(self, server):
        db = _trajs(20, seed=5)
        server.add_batch(db)
        query = _trajs(1, seed=6)[0]
        result = server.topk(query, k=4)
        assert not result.degraded
        db_emb = _embed(db)
        q_emb = _embed([query])[0]
        dists = np.sqrt(((db_emb - q_emb) ** 2).sum(axis=1))
        expected = np.argsort(dists, kind="stable")[:4]
        np.testing.assert_array_equal(np.sort(result.ids), np.sort(expected))
        np.testing.assert_allclose(
            np.sort(result.distances), np.sort(dists[expected]), atol=1e-9
        )

    def test_k_clamped_to_database_size(self, server):
        server.add_batch(_trajs(3, seed=7))
        result = server.topk(_trajs(1, seed=8)[0], k=10)
        assert len(result.ids) == 3
        assert result.k == 10  # the request is echoed, the answer clamped

    def test_repeat_query_hits_cache(self, server):
        server.add_batch(_trajs(6, seed=9))
        query = _trajs(1, seed=10)[0]
        first = server.topk(query, k=2)
        second = server.topk(query, k=2)
        assert not first.cache_hit
        assert second.cache_hit
        np.testing.assert_array_equal(first.ids, second.ids)

    def test_indexed_trajectory_is_cache_hit(self, server):
        db = _trajs(4, seed=11)
        server.add_batch(db)
        result = server.topk(db[2], k=1)
        assert result.cache_hit
        assert result.ids[0] == 2
        assert result.distances[0] == pytest.approx(0.0, abs=1e-12)

    def test_topk_on_empty_database(self, server):
        result = server.topk(_trajs(1, seed=12)[0], k=3)
        assert result.ids.size == 0 and result.distances.size == 0
        assert not result.degraded

    def test_default_threshold_scans_the_table(self):
        db = _trajs(30, seed=13)
        with SimilarityServer(_embed, dim=DIM) as server:
            assert server._local.brute_threshold == BRUTE_THRESHOLD
            server.add_batch(db)
            result = server.topk(_trajs(1, seed=14)[0], k=2)
        assert result.source == "brute"

    def test_hnsw_path_beyond_brute_threshold(self):
        db = _trajs(30, seed=13)
        with SimilarityServer(_embed, dim=DIM, brute_threshold=8) as server:
            server.add_batch(db)
            result = server.topk(_trajs(1, seed=14)[0], k=2)
        assert result.source == "hnsw"
        assert not result.degraded
        assert np.all(result.ids < 30)

    def test_encode_raises_unlike_topk(self, server):
        """encode() is the raising building block (no degradation)."""
        server.batcher._encode_fn = lambda trajs: (_ for _ in ()).throw(
            RuntimeError("boom")
        )
        with pytest.raises(RuntimeError):
            server.encode(_trajs(1, seed=15)[0])

    def test_stats_snapshot(self, server):
        server.add_batch(_trajs(3, seed=16))
        server.topk(_trajs(1, seed=17)[0], k=1)
        stats = server.stats()
        assert stats["db_size"] == 3
        assert stats["cache_size"] >= 3
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0

    def test_rejects_non_encoder(self):
        with pytest.raises(TypeError):
            SimilarityServer(42, dim=DIM)

    def test_model_encode_attribute_is_preferred(self):
        """Objects exposing .encode are used via that method even if callable."""

        class Model:
            def __call__(self, trajs):  # pragma: no cover - must NOT be used
                raise AssertionError("called __call__ instead of .encode")

            def encode(self, trajs):
                return _embed(trajs)

        with SimilarityServer(Model(), dim=DIM) as server:
            server.add(_trajs(1, seed=18)[0])
            assert len(server) == 1

    def test_serving_counters_advance(self, server):
        registry = get_registry()
        requests_before = registry.counter("serve.query.requests").value
        answered_before = registry.counter("serve.query.answered").value
        server.add_batch(_trajs(4, seed=19))
        server.topk(_trajs(1, seed=20)[0], k=1)
        assert registry.counter("serve.query.requests").value == requests_before + 1
        assert registry.counter("serve.query.answered").value == answered_before + 1


# ---------------------------------------------------------------------------
# Bench harness plumbing (scaled down: seconds, not the acceptance scale)
# ---------------------------------------------------------------------------


class TestLocalShardLinking:
    def test_search_stays_exact_while_the_graph_catches_up(self):
        """A shard crossing ``brute_threshold`` under concurrent searches:
        no add links before the threshold, each later add links two nodes,
        every search with a node still unlinked is an exact scan, and the
        graph covers the shard by twice the threshold."""
        from repro.index.hnsw import HNSWIndex
        from repro.serve.engine import LocalShard

        threshold, total, k = 64, 200, 5
        rng = np.random.default_rng(21)
        pts = rng.normal(size=(total, 4))
        gids = 1000 + np.arange(total)
        queries = rng.normal(size=(16, 4))
        shard = LocalShard(
            HNSWIndex(dim=4, m=4, ef_construction=16, seed=0), brute_threshold=threshold
        )
        index = shard.index
        errors, sources = [], []
        stop = threading.Event()

        def reader(seed):
            local = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    q = queries[int(local.integers(0, len(queries)))]
                    n_lo = len(index)
                    answer = shard.search(q, k)
                    n_hi = len(index)
                    sources.append(answer.source)
                    if answer.source == "hnsw":
                        # Only a fully linked shard walks the graph.
                        assert n_hi >= 2 * threshold
                        assert set(answer.gids.tolist()) <= set(gids[:n_hi].tolist())
                        continue
                    # Exact over the prefix the search saw: some n in [n_lo, n_hi].
                    assert any(
                        np.array_equal(answer.gids, brute_topk(pts[:n], gids[:n], q, k)[1])
                        for n in range(max(n_lo, k), n_hi + 1)
                    )
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        for p, g in zip(pts[:k], gids[:k]):
            shard.add(int(g), p)
        readers = [threading.Thread(target=reader, args=(s,)) for s in range(2)]
        for t in readers:
            t.start()
        try:
            for n in range(k + 1, total + 1):
                shard.add(int(gids[n - 1]), pts[n - 1])
                # Only the writer links: no search linked the backlog.
                assert index.linked == min(n, max(0, 2 * (n - threshold)))
                time.sleep(0.0005)
        finally:
            stop.set()
            for t in readers:
                t.join()
        assert not errors
        assert "brute" in sources
        assert index.linked == len(index) == total
        answer = shard.search(queries[0], k)
        assert answer.source == "hnsw"
        np.testing.assert_array_equal(np.sort(shard.gids), gids)


def test_run_serve_bench_smoke():
    result = run_serve_bench(
        n_db=8, n_queries=12, workers=2, batch_size=8, hidden_dim=8, naive_queries=4
    )
    assert result.completed == 12
    assert result.dropped == 0
    payload = result.to_dict()
    assert payload["speedup"] == pytest.approx(result.speedup)
    assert payload["completed"] == 12
    assert all(np.isfinite(v) for v in payload.values())
