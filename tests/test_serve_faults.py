"""Fault-injection tests for the serving layer.

The serving contract under failure (DESIGN.md §11):

- an exception inside one batched forward fails exactly that batch's
  futures; the flusher thread and every later request stay serviceable;
- a per-request deadline shorter than the encode time yields a
  *degraded-but-exact* answer (true metric over the stored subset),
  never an exception to the caller;
- ``close()`` fails pending futures cleanly instead of hanging callers.

Encoders here are deterministic stubs (cheap arithmetic features), so
every test is fast and reproducible; faults are injected by call count.
"""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.obs import get_registry
from repro.serve import MicroBatcher, SimilarityServer

DIM = 4


def _embed(trajs):
    """Deterministic stand-in encoder: 4 cheap per-trajectory features."""
    out = np.zeros((len(trajs), DIM))
    for i, t in enumerate(trajs):
        p = np.asarray(t, dtype=np.float64)
        out[i] = [p[:, 0].mean(), p[:, 1].mean(), float(len(p)), p.sum()]
    return out


class FlakyEncoder:
    """Encoder raising on selected (1-based) forward calls."""

    def __init__(self, fail_on=(), exc_factory=None, delay_s=0.0):
        self.fail_on = set(fail_on)
        self.exc_factory = exc_factory or (lambda: RuntimeError("poisoned batch"))
        self.delay_s = delay_s
        self.calls = 0
        self.batch_sizes = []

    def __call__(self, trajs):
        self.calls += 1
        self.batch_sizes.append(len(trajs))
        if self.delay_s:
            time.sleep(self.delay_s)
        if self.calls in self.fail_on:
            raise self.exc_factory()
        return _embed(trajs)


def _trajs(n, seed=0, length=6):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(length, 2)) for _ in range(n)]


def _counter(name):
    return get_registry().counter(name).value


# ---------------------------------------------------------------------------
# MicroBatcher fault isolation
# ---------------------------------------------------------------------------


def test_poisoned_batch_fails_only_its_own_futures():
    encoder = FlakyEncoder(fail_on=(2,))
    errors_before = _counter("serve.batch.errors")
    with MicroBatcher(encoder, max_batch_size=1, max_wait_ms=0.0) as batcher:
        t1, t2, t3 = _trajs(3)
        f1 = batcher.submit(t1)
        np.testing.assert_allclose(f1.result(timeout=5), _embed([t1])[0])
        f2 = batcher.submit(t2)
        with pytest.raises(RuntimeError, match="poisoned batch"):
            f2.result(timeout=5)
        # Queue stays alive: the very next request succeeds.
        f3 = batcher.submit(t3)
        np.testing.assert_allclose(f3.result(timeout=5), _embed([t3])[0])
    assert _counter("serve.batch.errors") == errors_before + 1


def test_whole_batch_gets_the_same_exception():
    encoder = FlakyEncoder(fail_on=(1,))
    failed_before = _counter("serve.batch.failed_requests")
    with MicroBatcher(encoder, max_batch_size=8, max_wait_ms=50.0) as batcher:
        futures = [batcher.submit(t) for t in _trajs(8)]
        excs = []
        for future in futures:
            with pytest.raises(RuntimeError, match="poisoned batch"):
                future.result(timeout=5)
            excs.append(future.exception())
        # One forward failed; all 8 futures carry that same exception object.
        assert encoder.calls == 1
        assert len({id(e) for e in excs}) == 1
    assert _counter("serve.batch.failed_requests") == failed_before + 8


def test_base_exception_is_contained():
    """Even a BaseException subclass must not kill the flusher thread."""

    class Poison(BaseException):
        pass

    encoder = FlakyEncoder(fail_on=(1,), exc_factory=Poison)
    with MicroBatcher(encoder, max_batch_size=1, max_wait_ms=0.0) as batcher:
        first = batcher.submit(_trajs(1)[0])
        with pytest.raises(Poison):
            first.result(timeout=5)
        follow_up = batcher.submit(_trajs(1, seed=9)[0])
        assert follow_up.result(timeout=5).shape == (DIM,)


def test_wrong_output_shape_is_a_batch_fault():
    """An encoder returning the wrong shape fails the batch, not the queue."""

    calls = []

    def bad_then_good(trajs):
        calls.append(len(trajs))
        if len(calls) == 1:
            return np.zeros((len(trajs) + 1, DIM))  # row-count mismatch
        return _embed(trajs)

    with MicroBatcher(bad_then_good, max_batch_size=1, max_wait_ms=0.0) as batcher:
        with pytest.raises(ValueError, match="encode_fn returned shape"):
            batcher.submit(_trajs(1)[0]).result(timeout=5)
        assert batcher.submit(_trajs(1)[0]).result(timeout=5).shape == (DIM,)


def test_close_fails_pending_futures_and_rejects_new_submits():
    release = threading.Event()

    def slow(trajs):
        release.wait(timeout=5)
        return _embed(trajs)

    batcher = MicroBatcher(slow, max_batch_size=1, max_wait_ms=0.0)
    inflight = batcher.submit(_trajs(1)[0])
    time.sleep(0.05)  # let the flusher pick it up
    # Queue a second request that will still be queued at close time.
    pending = batcher.submit(_trajs(1, seed=3)[0])
    release.set()
    batcher.close()
    assert inflight.result(timeout=5).shape == (DIM,)
    # The still-queued request is failed, not leaked.
    if not pending.done():
        with pytest.raises(RuntimeError):
            pending.result(timeout=5)
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit(_trajs(1)[0])


def test_concurrent_submitters_all_get_answers():
    encoder = FlakyEncoder()
    trajs = _trajs(40, seed=11)
    results = {}
    with MicroBatcher(encoder, max_batch_size=8, max_wait_ms=5.0) as batcher:

        def worker(wid):
            for i in range(wid, len(trajs), 4):
                results[i] = batcher.submit(trajs[i]).result(timeout=10)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert len(results) == 40
    for i, traj in enumerate(trajs):
        np.testing.assert_allclose(results[i], _embed([traj])[0])
    # Coalescing happened: fewer forwards than requests.
    assert encoder.calls < 40


# ---------------------------------------------------------------------------
# SimilarityServer degradation: deadlines and poisoned encodes
# ---------------------------------------------------------------------------


@pytest.fixture
def stocked_server():
    """A server with a deterministic encoder and 10 stored trajectories."""
    with SimilarityServer(_embed, dim=DIM, max_wait_ms=1.0) as server:
        server.add_batch(_trajs(10, seed=5))
        yield server


def test_deadline_shorter_than_encode_returns_degraded(stocked_server):
    missed_before = _counter("serve.query.deadline_missed")
    query = _trajs(1, seed=99)[0]
    # Patch in a slow encode so any sane deadline is missed.
    stocked_server.batcher._encode_fn = FlakyEncoder(delay_s=0.2)
    result = stocked_server.topk(query, k=3, deadline_s=0.01)
    assert result.degraded
    assert result.source == "degraded-exact"
    assert len(result.ids) == 3
    assert not result.cache_hit
    assert _counter("serve.query.deadline_missed") == missed_before + 1


def test_degraded_answer_is_exact_on_the_subset(stocked_server):
    query = _trajs(1, seed=100)[0]
    result = stocked_server.topk(query, k=4, deadline_s=0.0)  # instant miss
    assert result.degraded
    spec = stocked_server.fallback_metric
    with stocked_server._trajs_lock:
        stored = list(stocked_server._trajs)
    exact = np.array([spec.scalar(query, s) for s in stored])
    expected = np.argsort(exact, kind="stable")[:4]
    np.testing.assert_array_equal(result.ids, expected)
    np.testing.assert_allclose(result.distances, exact[expected], atol=1e-9)
    # Distances are sorted ascending (it is a ranking, not a bag).
    assert np.all(np.diff(result.distances) >= 0)


def test_poisoned_forward_degrades_instead_of_raising():
    encoder = FlakyEncoder(fail_on=(2,))  # add_batch is call 1
    degraded_before = _counter("serve.query.degraded")
    with SimilarityServer(encoder, dim=DIM, max_wait_ms=1.0) as server:
        server.add_batch(_trajs(6, seed=21))
        bad = server.topk(_trajs(1, seed=22)[0], k=2)
        assert bad.degraded and bad.source == "degraded-exact"
        assert len(bad.ids) == 2
        # Next cache-miss query (call 3) encodes fine again.
        good = server.topk(_trajs(1, seed=23)[0], k=2)
        assert not good.degraded
        assert good.source in ("brute", "hnsw")
    assert _counter("serve.query.degraded") >= degraded_before + 1


def test_degraded_on_empty_database_returns_empty_result():
    with SimilarityServer(_embed, dim=DIM) as server:
        result = server.topk(_trajs(1, seed=31)[0], k=5, deadline_s=0.0)
    assert result.degraded
    assert result.ids.size == 0
    assert result.distances.size == 0


def test_cache_hit_bypasses_deadline(stocked_server):
    """A cached embedding answers normally even with a 0 deadline."""
    query = _trajs(1, seed=41)[0]
    warm = stocked_server.topk(query, k=2)  # populates the cache
    assert not warm.degraded
    hit = stocked_server.topk(query, k=2, deadline_s=0.0)
    assert hit.cache_hit
    assert not hit.degraded
    np.testing.assert_array_equal(hit.ids, warm.ids)


def test_topk_never_raises_even_on_unexpected_errors(stocked_server):
    """The last-resort guard: corrupt internals still yield an answer."""
    unexpected_before = _counter("serve.query.unexpected_errors")
    stocked_server.cache.get = None  # type: ignore[assignment]  # sabotage
    result = stocked_server.topk(_trajs(1, seed=51)[0], k=2)
    assert result.degraded
    assert len(result.ids) == 2
    assert _counter("serve.query.unexpected_errors") == unexpected_before + 1


def test_degraded_scan_limit_bounds_the_subset():
    with SimilarityServer(
        _embed, dim=DIM, degraded_scan_limit=4, fallback_metric="hausdorff"
    ) as server:
        server.add_batch(_trajs(9, seed=61))
        result = server.topk(_trajs(1, seed=62)[0], k=9, deadline_s=0.0)
    assert result.degraded
    # Only the first 4 stored trajectories are eligible.
    assert len(result.ids) == 4
    assert set(result.ids.tolist()) <= {0, 1, 2, 3}


def test_failed_batch_blast_radius_under_concurrency():
    """With several worker threads and one poisoned forward, every request
    still completes — some degraded, none dropped, none raising."""
    encoder = FlakyEncoder(fail_on=(3,), delay_s=0.002)
    trajs = _trajs(24, seed=71)
    results = {}
    with SimilarityServer(encoder, dim=DIM, max_batch_size=4, max_wait_ms=2.0) as server:
        server.add_batch(_trajs(8, seed=72))

        def worker(wid):
            for i in range(wid, len(trajs), 4):
                results[i] = server.topk(trajs[i], k=2)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert len(results) == 24
    assert all(isinstance(r.ids, np.ndarray) for r in results.values())
    degraded = sum(r.degraded for r in results.values())
    ok = sum(not r.degraded for r in results.values())
    assert degraded + ok == 24
    assert ok > 0  # the fault did not take down the whole stream


def test_server_close_is_idempotent(stocked_server):
    stocked_server.close()
    stocked_server.close()  # second close is a no-op, not an error
    with pytest.raises(RuntimeError):
        stocked_server.batcher.submit(_trajs(1)[0])


def test_future_contract_smoke():
    """submit() returns a live concurrent.futures.Future."""
    with MicroBatcher(_embed, max_batch_size=2, max_wait_ms=1.0) as batcher:
        future = batcher.submit(_trajs(1)[0])
        assert isinstance(future, Future)
        assert future.result(timeout=5).shape == (DIM,)


# ---------------------------------------------------------------------------
# Coordinator edge cases shared by both server kinds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind", ["in-process", pytest.param("sharded", marks=pytest.mark.shard)]
)
def test_non_positive_k_is_an_empty_answer_without_encode(kind):
    """k < 1 never encodes, never degrades and never trips the guard —
    below and above ``brute_threshold`` alike, for both server kinds."""
    encoder = FlakyEncoder()
    if kind == "in-process":
        server = SimilarityServer(encoder, dim=DIM, brute_threshold=8)
    else:
        from repro.serve import FeatureEncoder, ShardedSimilarityServer

        server = ShardedSimilarityServer(
            FeatureEncoder(dim=DIM), dim=DIM, n_shards=2, brute_threshold=8,
            shard_deadline_s=30.0,
        )
    with server:
        for n_db in (6, 40):  # below, then above the brute threshold
            server.add_batch(_trajs(n_db - len(server), seed=n_db))
            query = _trajs(1, seed=100 + n_db)[0]
            for k in (0, -3):
                calls = encoder.calls
                requests = _counter("serve.shard.requests")
                unexpected = _counter("serve.query.unexpected_errors")
                result = server.topk(query, k=k)
                assert result.ids.size == 0 and result.distances.size == 0
                assert not result.degraded
                assert result.k == k
                assert encoder.calls == calls  # no in-process encode
                assert _counter("serve.shard.requests") == requests  # no worker call
                assert _counter("serve.query.unexpected_errors") == unexpected


def test_concurrent_adds_keep_store_and_index_ids_aligned():
    """The id ``add`` returns is the trajectory's id in every answer.

    Thread A takes its store slot first but is held inside its index
    insert while thread B adds; each trajectory's degraded (store) answer
    and its normal (index) answer must both name its own ``add`` id.
    """
    trajs = _trajs(2, seed=81)
    ids = {}
    with SimilarityServer(_embed, dim=DIM) as server:
        real_add = server.index.add
        inside = threading.Event()

        def slow_add(vector):
            if threading.current_thread().name == "adder-a":
                inside.set()
                time.sleep(0.2)
            return real_add(vector)

        server.index.add = slow_add
        adder = threading.Thread(
            target=lambda: ids.__setitem__(0, server.add(trajs[0])), name="adder-a"
        )
        adder.start()
        assert inside.wait(5.0)
        ids[1] = server.add(trajs[1])
        adder.join()
        assert sorted(ids.values()) == [0, 1]
        server.cache.clear()  # make every query below encode again
        for i, traj in enumerate(trajs):
            degraded = server.topk(traj, k=1, deadline_s=0.0)
            assert degraded.degraded and degraded.ids[0] == ids[i]
            served = server.topk(traj, k=1)
            assert not served.degraded and served.ids[0] == ids[i]
            assert served.distances[0] == pytest.approx(0.0, abs=1e-12)


def test_graph_search_maps_ids_added_during_the_query():
    """A node added while a graph search runs can be in its answer; the
    search maps it through the gid table as it stands after the query.

    The reader's graph query is held until a new trajectory — the very
    one it queries — has been added, so the answer's nearest node is one
    the search's own snapshot did not hold.
    """
    db = _trajs(20, seed=91)
    late = _trajs(1, seed=92)[0]
    result = {}
    with SimilarityServer(_embed, dim=DIM, brute_threshold=0) as server:
        server.add_batch(db)
        real_query = server.index.query
        inside, added = threading.Event(), threading.Event()

        def held_query(vector, k=1, ef=None):
            if threading.current_thread().name == "reader":
                inside.set()
                assert added.wait(5.0)
            return real_query(vector, k=k, ef=ef)

        server.index.query = held_query
        reader = threading.Thread(
            target=lambda: result.__setitem__("r", server.topk(late, k=1)), name="reader"
        )
        reader.start()
        assert inside.wait(5.0)
        late_id = server.add(late)
        added.set()
        reader.join()
    served = result["r"]
    assert served.source == "hnsw" and not served.degraded
    assert served.ids[0] == late_id == 20
    assert served.distances[0] == pytest.approx(0.0, abs=1e-12)
