"""The serving coordinator: cache → encode → search every shard → merge.

A :class:`SimilarityServer` answers ``topk(traj, k)`` from any number of
caller threads over a list of *shards*, each holding the embeddings of a
slice of the stored trajectories.  A shard is one of two kinds:

- :class:`LocalShard` — an in-process :class:`~repro.index.hnsw.HNSWIndex`
  plus the global id of each of its nodes, answered by an exact scan of
  the index's vector table up to ``brute_threshold`` nodes
  (:data:`BRUTE_THRESHOLD`, the measured scan/graph crossover) and
  through the graph above it.  It is the only
  shard of :class:`SimilarityServer`, whose queries encode on the
  server's own :class:`MicroBatcher`;
- :class:`~repro.serve.shard.ProcessShard` — a spawned worker process
  that owns a :class:`LocalShard` and its own batcher, reached through
  request/response queues whose messages carry payloads as float64
  bytes.  :class:`~repro.serve.shard.ShardedSimilarityServer` builds N
  of them.

The coordinator owns everything else once, for both kinds: the cache
probe, the encode (live shards take turns, one retry on another shard),
the fan-out and gather under one deadline, :func:`merge_topk`, the
degraded exact scan, the last-resort guard, and ``stats`` /
``memory_stats``.

Degradation contract — **callers never see an exception** from
:meth:`SimilarityServer.topk`:

- embedding available in time → every shard's local top-k, merged exactly
  (``source`` ``"hnsw"``/``"brute"`` in process, ``"sharded"`` across
  worker processes);
- a worker shard dead, past the gather deadline or erroring → that
  shard's portion comes from an exact scan of the coordinator's retained
  copy of its embeddings (``"sharded-fallback"``, ``degraded=True``);
- no embedding in time (deadline, failed batch, no live shard) → a
  *degraded-but-exact* answer: the true trajectory metric (default DTW)
  over a bounded subset of the stored trajectories
  (``"degraded-exact"``).  Coverage shrinks, correctness of what is
  returned does not.

Every call leaves one ``serve.topk`` trace (:mod:`repro.obs.trace`):
``cache``, ``queue-wait``/``forward`` (stamped across the batcher's
thread hop) and ``index`` in process; worker shards add
``encode``, ``shard-N`` (the worker's subtree grafted beneath) and
``fallback-N``.  A degraded answer carries its *reason* on the trace.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..index.hnsw import HNSWIndex
from ..metrics import MetricSpec, get_metric, pad_trajectories
from ..obs.lockstats import new_lock
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .batcher import MicroBatcher
from .cache import EmbeddingCache, trajectory_key

__all__ = [
    "BRUTE_THRESHOLD",
    "LocalShard",
    "ServeResult",
    "Shard",
    "ShardAnswer",
    "SimilarityServer",
    "brute_topk",
    "exact_metric_topk",
    "merge_topk",
]

_LOG = get_logger("repro.serve.engine")

#: Default ``brute_threshold``: the largest shard size, a power of two,
#: at which an exact scan of the contiguous vector table still beats HNSW
#: graph search (TMN embeddings, dim 32; the probe is in DESIGN.md §11).
#: Below it the scan is both faster and exact.
BRUTE_THRESHOLD = 4096


def exact_metric_topk(
    points: np.ndarray, subset: Sequence[np.ndarray], metric: MetricSpec, k: int
) -> "tuple[np.ndarray, np.ndarray]":
    """True-metric top-k of ``points`` against ``subset``: ``(order, dists)``.

    One padded batch evaluation of ``metric`` followed by a stable
    argsort, so ties resolve to the lowest subset index.
    """
    stacked, lengths = pad_trajectories([points] + list(subset))
    q_stack = np.repeat(stacked[:1], len(subset), axis=0)
    q_len = np.repeat(lengths[:1], len(subset))
    dists = metric.batch(q_stack, stacked[1:], q_len, lengths[1:])
    k_eff = min(k, len(subset))
    order = np.argsort(dists, kind="stable")[:k_eff]
    return order, np.asarray(dists[order], dtype=float)


def brute_topk(
    vectors: np.ndarray, gids: np.ndarray, embedding: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact ``(squared L2, gids)`` top-k of ``embedding`` over ``vectors`` rows.

    Ranks exactly as a stable argsort of every row, so ties resolve to
    the lowest row — the lowest global id within one shard — at the k-th
    position too: a partition finds the k-th value, and every row not
    above it (all rows tied with it included) is sorted stably.  Shared
    by the in-process shard's scan and the fallback scan over a worker
    shard's retained block, so both rank bit-identically.
    """
    diff = vectors - embedding[None, :]
    np.square(diff, out=diff)
    sq = diff.sum(axis=1)
    if 0 < k < len(sq):
        kth = np.partition(sq, k - 1)[k - 1]
        # ``not above`` rather than ``<=`` keeps NaN rows, as argsort does.
        rows = np.flatnonzero(~(sq > kth))
        order = rows[np.argsort(sq[rows], kind="stable")[:k]]
    else:
        order = np.argsort(sq, kind="stable")[:k]
    return sq[order], gids[order]


def merge_topk(
    parts: Sequence[Tuple[np.ndarray, np.ndarray]], k: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``(distances, global_ids)`` lists into a global top-k.

    Each part must hold a shard's *local* top-``min(k, shard size)`` with
    exact, mutually comparable distance values (the serving path passes
    squared L2 throughout).  The merge sorts lexicographically by
    ``(distance, global_id)`` — for exact parts this reproduces a single
    stable argsort over the union, so ties at the k-boundary resolve to
    the lowest global id exactly as a one-index brute force would.
    """
    kept = [(d, g) for d, g in parts if len(g)]
    if not kept:
        return np.zeros(0), np.zeros(0, dtype=int)
    dists = np.concatenate([d for d, _ in kept]).astype(np.float64, copy=False)
    gids = np.concatenate([g for _, g in kept]).astype(int, copy=False)
    order = np.lexsort((gids, dists))[: max(k, 0)]
    return dists[order], gids[order]


@dataclass
class ServeResult:
    """Outcome of one ``topk`` request.

    Attributes
    ----------
    ids:
        Database ids, ascending by distance (fewer than ``k`` on a
        degraded answer over a small subset).
    distances:
        Embedding-space L2, or true trajectory-metric distances for
        ``degraded-exact`` answers.
    degraded:
        True when a fallback produced (part of) the answer.
    cache_hit:
        Whether the query embedding came from the cache.
    source:
        ``"hnsw"`` or ``"brute"`` (in-process shard), ``"sharded"``
        (worker shards, merged), ``"sharded-fallback"`` (some worker
        shard answered from its retained block) or ``"degraded-exact"``
        (true metric over the stored trajectories).
    seconds:
        End-to-end request wall time.
    """

    ids: np.ndarray
    distances: np.ndarray
    degraded: bool
    cache_hit: bool
    source: str
    seconds: float
    k: int = field(default=0)


class ShardAnswer(NamedTuple):
    """One shard's local top-k: squared L2 ``sq`` ascending, global ``gids``.

    ``source`` labels an answer built from it; ``wait_s`` is the
    coordinator's wait on a worker shard; ``missed`` names why the shard
    could not answer (the coordinator then runs its fallback scan).
    """

    sq: np.ndarray
    gids: np.ndarray
    source: str
    wait_s: Optional[float] = None
    missed: Optional[str] = None


@dataclass
class _ShardSpec:
    """How every shard of one server is built (pickled into worker processes).

    ``encoder`` is the model-or-callable the server was given; a worker
    rebuilds it in its own interpreter, so it must pickle.
    """

    encoder: object
    dim: int
    m: int = 8
    ef_construction: int = 64
    ef_search: Optional[int] = None
    brute_threshold: int = BRUTE_THRESHOLD
    max_batch_size: int = 32
    max_wait_ms: float = 2.0
    idle_grace_ms: float = 0.5
    seed: int = 0


class Shard:
    """What the coordinator needs from a shard (see the module docstring).

    A search is split in two so the coordinator can fan out to every
    shard before it waits on any: :meth:`dispatch` starts it and
    :meth:`collect` returns its :class:`ShardAnswer`.
    """

    #: ``ServeResult.source`` of an answer with nothing more specific to
    #: say (an empty store, ``k < 1``).
    source = "brute"
    #: Whether the shard can take an encode or a search.
    live = True

    def encode(self, points: np.ndarray, timeout: Optional[float]) -> np.ndarray:
        """One query embedding through this shard's batcher; raises on failure."""
        raise NotImplementedError

    def dispatch(self, embedding: np.ndarray, k: int, trace) -> object:
        """Start this shard's local top-k search; returns a token for :meth:`collect`."""
        raise NotImplementedError

    def collect(self, call: object, deadline: Optional[float], trace) -> ShardAnswer:
        """The answer to a dispatched search, waiting until ``deadline`` at most."""
        raise NotImplementedError

    def fallback_topk(self, embedding: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact ``(squared L2, gids)`` cover for a search that missed."""
        raise NotImplementedError

    def memory(self, registry) -> Dict[str, int]:
        """Bytes this shard holds: ``index_bytes``, ``block_bytes``, ``worker_rss_bytes``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the shard's threads and processes; never raises."""
        raise NotImplementedError


class LocalShard(Shard):
    """In-process shard: an :class:`HNSWIndex` and the global id of each node.

    Node ``i`` stores global id ``gids[i]``, so ids assigned under the
    coordinator's store lock survive any interleaving of concurrent
    inserts.  :meth:`search` scans the index's vector table exactly while
    the shard holds at most ``brute_threshold`` nodes (or for ``k`` over
    half the shard) and searches the graph above that, once the graph
    covers every node.  Up to ``brute_threshold`` nodes :meth:`add` only
    stores the vector, since no search reads links there; above it each
    add links two nodes, so the backlog shrinks by one per add and the
    graph covers the shard by ``2 * brute_threshold`` nodes — no single
    add links the whole backlog, and until then the scan answers,
    exactly.  Worker processes search their slice with it too.
    """

    def __init__(
        self, index: HNSWIndex, gids: Sequence[int] = (), *, ef_search: Optional[int] = None,
        brute_threshold: int = BRUTE_THRESHOLD, batcher: Optional[MicroBatcher] = None,
    ):
        self.index: HNSWIndex = index
        self.batcher: Optional[MicroBatcher] = batcher
        self.ef_search = ef_search
        self.brute_threshold = brute_threshold
        #: gid of node i; grows by doubling, entries past len(index) unused.
        self._gids = np.asarray(gids, dtype=int)
        self._lock = new_lock("serve.shard.local")

    @property
    def gids(self) -> np.ndarray:
        """Global id of every node, in node order."""
        with self._lock:
            return self._gids[: len(self.index)].copy()

    def add(self, gid: int, embedding: np.ndarray) -> None:
        """Insert ``embedding`` as global id ``gid``; above ``brute_threshold``
        nodes, link two pending nodes into the graph."""
        with self._lock:
            node = len(self.index)
            if node == len(self._gids):
                grown = np.zeros(max(2 * node, 16), dtype=int)
                grown[:node] = self._gids
                self._gids = grown
            self._gids[node] = gid
            self.index.add(embedding)
            if node >= self.brute_threshold:
                self.index.link(2)

    def search(self, embedding: np.ndarray, k: int) -> ShardAnswer:
        """This shard's local top-``k`` as squared L2 and global ids.

        Distances stay squared so parts from several shards merge on
        comparable values; the coordinator takes the root once.
        """
        with self._lock:
            vectors = self.index.vectors
            n = len(vectors)
            gids = self._gids[:n]
            graph = n > self.brute_threshold and self.index.linked == n
        if n == 0:
            return ShardAnswer(np.zeros(0), np.zeros(0, dtype=int), "brute")
        k = min(k, n)
        if not graph or k > n // 2:
            sq, found = brute_topk(vectors, gids, embedding, k)
            return ShardAnswer(sq, found, "brute")
        dists, ids = self.index.query(embedding, k=k, ef=self.ef_search)
        # Nodes added since the snapshot may be in the answer: map ids
        # through the gid table as it stands now.
        with self._lock:
            gids = self._gids
        return ShardAnswer(dists**2, gids[ids], "hnsw")

    def encode(self, points: np.ndarray, timeout: Optional[float]) -> np.ndarray:
        """One query embedding through the server's micro-batcher."""
        return self.batcher.submit(points).result(timeout=timeout)

    def dispatch(self, embedding: np.ndarray, k: int, trace) -> ShardAnswer:
        """In process the search runs here, inside the trace's ``index`` span."""
        with trace.span("index") as span:
            answer = self.search(embedding, k)
            span.set(source=answer.source, n=len(self.index), k=k)
        return answer

    def collect(self, call: ShardAnswer, deadline: Optional[float], trace) -> ShardAnswer:
        """The answer :meth:`dispatch` already computed."""
        return call

    def memory(self, registry) -> Dict[str, int]:
        """Only the index: an in-process shard keeps no second embedding copy."""
        return {"index_bytes": self.index.nbytes, "block_bytes": 0, "worker_rss_bytes": 0}

    def close(self) -> None:
        """Shut down the batcher thread; pending encodes fail cleanly."""
        if self.batcher is not None:
            self.batcher.close()


class SimilarityServer:
    """Concurrent top-k similarity serving over learned embeddings.

    The coordinator over one in-process :class:`LocalShard`;
    :class:`~repro.serve.shard.ShardedSimilarityServer` is the same
    coordinator over worker processes.

    Parameters
    ----------
    encode_fn:
        Either a model exposing ``encode(trajs) -> (B, d)`` (any
        :class:`~repro.core.model.TrajectoryPairModel`) or a bare
        callable with that contract.
    dim:
        Embedding dimensionality (must match ``encode_fn`` output).
    cache_capacity / max_batch_size / max_wait_ms:
        Knobs of the embedding cache and the micro-batching queue.
    ef_search:
        HNSW beam width for queries (recall/latency trade-off).
    brute_threshold:
        Largest shard size answered by an exact scan of the index's
        vector table; larger shards search the HNSW graph.  The default,
        :data:`BRUTE_THRESHOLD`, is the measured size up to which the
        scan is also the faster of the two.
    fallback_metric:
        True trajectory metric used for degraded answers (name or
        :class:`MetricSpec`).
    degraded_scan_limit:
        Maximum stored trajectories scanned by the degraded exact path,
        bounding its latency.
    """

    def __init__(
        self,
        encode_fn: Union[Callable[[Sequence], np.ndarray], object],
        dim: int,
        *,
        cache_capacity: int = 4096,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        idle_grace_ms: float = 0.5,
        m: int = 8,
        ef_construction: int = 64,
        ef_search: Optional[int] = None,
        brute_threshold: int = BRUTE_THRESHOLD,
        fallback_metric: Union[str, MetricSpec] = "dtw",
        degraded_scan_limit: int = 256,
        seed: int = 0,
    ):
        # Models expose .encode (and are also callable via Module.__call__),
        # so the attribute check must come first.
        if hasattr(encode_fn, "encode"):
            self._encode_raw = encode_fn.encode
        elif callable(encode_fn):
            self._encode_raw = encode_fn
        else:
            raise TypeError("encode_fn must be callable or expose .encode()")
        self.dim = dim
        self.degraded_scan_limit = degraded_scan_limit
        #: Gather budget per query; None waits for every shard (in process
        #: the search is synchronous, so nothing is ever waited on).
        self.shard_deadline_s: Optional[float] = None
        self.cache = EmbeddingCache(capacity=cache_capacity)
        self.fallback_metric = (
            fallback_metric
            if isinstance(fallback_metric, MetricSpec)
            else get_metric(fallback_metric)
        )
        # Stored trajectories by global id: the degraded exact path's
        # store, and the one place global ids are assigned.
        self._trajs: List[np.ndarray] = []
        self._trajs_lock = new_lock("serve.trajs")
        self._rr = itertools.count()
        self._spec = _ShardSpec(
            encoder=encode_fn, dim=dim, m=m, ef_construction=ef_construction,
            ef_search=ef_search, brute_threshold=brute_threshold,
            max_batch_size=max_batch_size, max_wait_ms=max_wait_ms,
            idle_grace_ms=idle_grace_ms, seed=seed,
        )
        self._shards: List[Shard] = self._build_shards(self._spec)

    def _build_shards(self, spec: _ShardSpec) -> List[Shard]:
        """The in-process server's one shard, encoding on this server's batcher."""
        batcher = MicroBatcher(
            self._encode_batch,
            max_batch_size=spec.max_batch_size,
            max_wait_ms=spec.max_wait_ms,
            idle_grace_ms=spec.idle_grace_ms,
        )
        index = HNSWIndex(spec.dim, m=spec.m, ef_construction=spec.ef_construction, seed=spec.seed)
        return [
            LocalShard(
                index, ef_search=spec.ef_search,
                brute_threshold=spec.brute_threshold, batcher=batcher,
            )
        ]

    @property
    def _local(self) -> LocalShard:
        """The in-process shard (an in-process server has exactly one)."""
        return self._shards[0]

    @property
    def index(self) -> HNSWIndex:
        """The in-process shard's HNSW graph."""
        return self._local.index

    @property
    def batcher(self) -> MicroBatcher:
        """The micro-batching queue in-process queries encode on."""
        return self._local.batcher

    # ------------------------------------------------------------------
    def _encode_batch(self, trajs: Sequence) -> np.ndarray:
        """One validated padded forward over ``trajs`` -> ``(B, dim)``."""
        out = np.asarray(self._encode_raw(trajs), dtype=np.float64)
        if out.ndim != 2 or out.shape != (len(trajs), self.dim):
            raise ValueError(
                f"encoder returned {out.shape}, expected ({len(trajs)}, {self.dim})"
            )
        return out

    @staticmethod
    def _as_points(traj) -> np.ndarray:
        """Raw float64 point array behind a trajectory-or-array argument."""
        return np.asarray(
            traj.points if hasattr(traj, "points") else traj, dtype=np.float64
        )

    def _store(self, points: Sequence[np.ndarray]) -> int:
        """Append trajectories to the store; returns the first one's global id."""
        with self._trajs_lock:
            gid0 = len(self._trajs)
            self._trajs.extend(points)
        return gid0

    # ------------------------------------------------------------------
    def add(self, traj, embedding: Optional[np.ndarray] = None) -> int:
        """Insert one trajectory into the database; returns its id.

        The embedding is computed synchronously on the caller's thread
        (bypassing the queue) unless supplied; it is cached so a later
        query for the identical trajectory is a cache hit.
        """
        points = self._as_points(traj)
        if embedding is None:
            embedding = self._encode_batch([points])[0]
        embedding = np.asarray(embedding, dtype=np.float64)
        self.cache.put(trajectory_key(points), embedding)
        gid = self._store([points])
        self._local.add(gid, embedding)
        get_registry().counter("serve.db.size").inc()
        return gid

    def add_batch(self, trajs: Sequence) -> List[int]:
        """Insert many trajectories with one batched encode per chunk."""
        points = [self._as_points(t) for t in trajs]
        ids: List[int] = []
        chunk = max(self.batcher.max_batch_size, 1)
        for start in range(0, len(points), chunk):
            part = points[start : start + chunk]
            embeddings = self._encode_batch(part)
            for traj, emb in zip(part, embeddings):
                ids.append(self.add(traj, embedding=emb))
        return ids

    def __len__(self) -> int:
        with self._trajs_lock:
            return len(self._trajs)

    def __enter__(self) -> "SimilarityServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def live_shards(self) -> List[int]:
        """Indices of the shards that can still encode and search."""
        return [i for i, shard in enumerate(self._shards) if shard.live]

    # ------------------------------------------------------------------
    def encode(self, traj, timeout: Optional[float] = None) -> np.ndarray:
        """Embedding for one trajectory via cache + a shard's batcher.

        Unlike :meth:`topk`, this *does* raise on encode failure or
        timeout — it is the building block, not the guarded endpoint.
        """
        key = trajectory_key(traj)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        embedding = self._encode(self._as_points(traj), timeout)
        self.cache.put(key, embedding)
        return embedding

    def _encode(self, points: np.ndarray, timeout: Optional[float]) -> np.ndarray:
        """Query embedding from one live shard's batcher; raises on failure.

        Live shards take turns.  A failed encode is retried once on
        another live shard with the budget left; a timeout is not, since
        it spent the budget.
        """
        live = [shard for shard in self._shards if shard.live]
        if not live:
            raise RuntimeError("no live shard can encode")
        deadline = None if timeout is None else time.perf_counter() + timeout
        first = next(self._rr) % len(live)
        try:
            return live[first].encode(points, timeout)
        except Exception as exc:
            if isinstance(exc, FutureTimeoutError) or len(live) < 2:
                raise
            _LOG.warning("encode-retry", error=type(exc).__name__)
        get_registry().counter("serve.shard.encode_retries").inc()
        remaining = None if deadline is None else deadline - time.perf_counter()
        if remaining is not None and remaining <= 0:
            raise FutureTimeoutError("encode budget spent before the retry")
        return live[(first + 1) % len(live)].encode(points, remaining)

    # The E001 pass statically verifies this annotation: every raise
    # reachable from topk must be caught before it gets back here.
    def topk(self, traj, k: int = 1, deadline_s: Optional[float] = None) -> ServeResult:  # contract: never-raises
        """Top-k most similar database trajectories; never raises.

        ``deadline_s`` bounds the time spent waiting for the encoder; a
        missed deadline (or a failed batch) yields the degraded exact
        answer.  ``k`` is clamped to the database size, and ``k < 1``
        gets an empty answer without encoding.
        """
        start = time.perf_counter()
        try:
            return self._topk_impl(traj, k, deadline_s, start)
        except Exception as exc:
            # Last-resort guard: the serving contract is "no exceptions
            # to the caller"; anything unexpected degrades instead.
            _LOG.error("topk-unexpected", error=type(exc).__name__, k=k)
            return self._last_resort(traj, k, start, exc)

    def _topk_impl(
        self, traj, k: int, deadline_s: Optional[float], start: float
    ) -> ServeResult:
        """The cache → encode → search → merge pipeline behind :meth:`topk`.

        May raise; :meth:`topk` owns the never-raises guard.
        """
        registry = get_registry()
        registry.counter("serve.query.requests").inc()
        source = self._shards[0].source
        with get_tracer().trace("serve.topk", k=k, shards=len(self._shards)) as trace:
            if deadline_s is not None:
                trace.set(deadline_s=deadline_s)
            if k < 1:
                return self._result(np.zeros(0), np.zeros(0, dtype=int), start, False, source, k)
            points = self._as_points(traj)
            key = trajectory_key(points)
            with trace.span("cache") as cache_span:
                embedding = self.cache.get(key)
                cache_hit = embedding is not None
                cache_span.set(result="hit" if cache_hit else "miss")
            trace.set(cache_hit=cache_hit)
            if not cache_hit:
                budget = self.shard_deadline_s
                if deadline_s is not None:
                    remaining = deadline_s - (time.perf_counter() - start)
                    budget = remaining if budget is None else min(budget, remaining)
                if budget is not None and budget <= 0:
                    return self._degraded(points, k, start, "deadline-before-encode")
                # In process, queue-wait/forward spans are stamped onto
                # this trace by the batcher's flush thread (handoff).
                try:
                    embedding = self._encode(points, budget)
                except FutureTimeoutError:
                    registry.counter("serve.query.deadline_missed").inc()
                    return self._degraded(points, k, start, "deadline-missed")
                except Exception as exc:
                    _LOG.warning(
                        "batch-failed", error=type(exc).__name__,
                        trace_id=trace.trace_id, k=k,
                    )
                    return self._degraded(
                        points, k, start, f"batch-failed:{type(exc).__name__}"
                    )
                self.cache.put(key, embedding)
            n = len(self)
            if n == 0:
                return self._result(np.zeros(0), np.zeros(0, dtype=int), start, cache_hit, source, k)
            dists, ids, source = self._search(embedding, min(k, n), trace)
            return self._result(dists, ids, start, cache_hit, source, k)

    def _search(self, embedding: np.ndarray, k: int, trace) -> Tuple[np.ndarray, np.ndarray, str]:
        """Top-k over every shard as ``(distances, ids, source)``.

        Every shard is dispatched before any is collected, so worker
        shards search in parallel under one gather deadline.  A shard
        that missed (dead, past the deadline, erroring) is covered by its
        exact fallback scan, which makes the answer ``sharded-fallback``.
        """
        deadline = None
        if self.shard_deadline_s is not None:
            deadline = time.perf_counter() + self.shard_deadline_s
        # Fan out to every shard before waiting on any; collect in order.
        pending = iter([shard.dispatch(embedding, k, trace) for shard in self._shards])
        answers = iter([shard.collect(next(pending), deadline, trace) for shard in self._shards])
        parts: List[Tuple[np.ndarray, np.ndarray]] = []
        waits: List[Tuple[int, float]] = []
        missed = 0
        for shard in self._shards:
            answer = next(answers)
            if answer.wait_s is not None:
                waits.append((shard.idx, answer.wait_s))
            if answer.missed is None:
                parts.append((answer.sq, answer.gids))
                continue
            missed += 1
            with trace.span(f"fallback-{shard.idx}") as fallback_span:
                fallback_span.set(reason=answer.missed)
                parts.append(shard.fallback_topk(embedding, k))
            get_registry().counter("serve.shard.fallback_scans").inc()
        if len(waits) > 1:
            spread = np.asarray([w for _, w in waits], dtype=float)
            trace.set(
                straggler_gap_s=float(spread.max() - np.median(spread)),
                slowest_shard=waits[int(np.argmax(spread))][0],
            )
        sq, ids = merge_topk(parts, k)
        # Squared L2 values are nonnegative by construction.
        dists = np.sqrt(sq)  # lint: allow(N002)
        if missed:
            trace.set(fallback_shards=missed)
            return dists, ids, "sharded-fallback"
        return dists, ids, answer.source

    def _result(
        self, dists: np.ndarray, ids: np.ndarray, start: float, cache_hit: bool, source: str, k: int
    ) -> ServeResult:
        """Count, annotate and build one answer (every source but the last resort)."""
        registry = get_registry()
        degraded = source in ("sharded-fallback", "degraded-exact")
        registry.counter(
            "serve.query.degraded" if degraded else "serve.query.answered"
        ).inc()
        get_tracer().annotate(degraded=degraded, source=source)
        seconds = time.perf_counter() - start
        registry.histogram("serve.query.seconds").observe(seconds)
        return ServeResult(
            ids=np.asarray(ids, dtype=int),
            distances=np.asarray(dists, dtype=float),
            degraded=degraded,
            cache_hit=cache_hit,
            source=source,
            seconds=seconds,
            k=k,
        )

    def _degraded(self, points: np.ndarray, k: int, start: float, reason: str) -> ServeResult:
        """No-embedding fallback: the true metric over a bounded subset.

        Scans up to ``degraded_scan_limit`` stored trajectories with the
        true trajectory metric — the answer is exact *on that subset*,
        trading coverage for bounded latency instead of raising.
        ``reason`` is recorded on the request trace so a degraded answer
        is attributable (deadline vs. fault vs. unexpected error).
        """
        get_tracer().annotate(degraded_reason=reason)
        with self._trajs_lock:
            subset = list(self._trajs[: self.degraded_scan_limit])
        order, dists = np.zeros(0, dtype=int), np.zeros(0)
        if subset and k > 0:
            with get_tracer().span("degraded") as deg_span:
                deg_span.set(reason=reason, scanned=len(subset))
                order, dists = exact_metric_topk(points, subset, self.fallback_metric, k)
        return self._result(dists, order, start, False, "degraded-exact", k)

    def _last_resort(self, traj, k: int, start: float, exc: Exception) -> ServeResult:
        """Absolute fallback behind the never-raises contract.

        Tries the degraded exact path; if even that faults (the situation
        the contract exists for), answers with an empty result built from
        literals only — the one construction the exception model proves
        cannot raise.
        """
        try:
            get_registry().counter("serve.query.unexpected_errors").inc()
            return self._degraded(
                self._as_points(traj), k, start, f"unexpected:{type(exc).__name__}"
            )
        except Exception as inner:
            _LOG.error("topk-last-resort", error=type(inner).__name__, k=k)
            return ServeResult(
                ids=np.zeros(0, dtype=int),
                distances=np.zeros(0),
                degraded=True,
                cache_hit=False,
                source="degraded-exact",
                seconds=time.perf_counter() - start,
                k=k,
            )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving counters snapshot (store, shards, cache)."""
        return {
            "db_size": len(self),
            "n_shards": len(self._shards),
            "live_shards": len(self.live_shards),
            "cache_size": len(self.cache),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": self.cache.hit_rate,
        }

    def memory_stats(self, registry=None) -> dict:
        """Exact bytes held by the serving structures, plus process RSS.

        Audits the trajectory store, the cache and every shard (for
        worker shards also the retained block and the worker's resident
        set) into ``bytes_per_trajectory``, and mirrors every figure into
        the ``serve.*.bytes`` / ``mem.*`` gauges the SLOs and the bench
        gate read.
        """
        from ..obs.memory import update_memory_gauges

        reg = registry if registry is not None else get_registry()
        with self._trajs_lock:
            store_bytes = sum(t.nbytes for t in self._trajs)
            n_trajs = len(self._trajs)
        cache_bytes = self.cache.nbytes
        held = {"index_bytes": 0, "block_bytes": 0, "worker_rss_bytes": 0}
        for shard in self._shards:
            for name, value in shard.memory(reg).items():
                held[name] += int(value)
        total = store_bytes + held["block_bytes"] + cache_bytes + held["index_bytes"]
        per_traj = total / n_trajs if n_trajs else 0.0
        reg.gauge("serve.store.bytes").set(store_bytes + held["block_bytes"])
        reg.gauge("serve.cache.bytes").set(cache_bytes)
        reg.gauge("serve.index.bytes").set(held["index_bytes"])
        reg.gauge("serve.store.bytes_per_trajectory").set(per_traj)
        reg.gauge("serve.shard.worker_rss_bytes").set(held["worker_rss_bytes"])
        process = update_memory_gauges(reg)
        return {
            "n_trajectories": n_trajs,
            "store_bytes": store_bytes,
            "cache_bytes": cache_bytes,
            "total_bytes": total,
            "bytes_per_trajectory": per_traj,
            **held,
            "rss_bytes": process["rss_bytes"],
            "peak_rss_bytes": process["peak_rss_bytes"],
        }

    def close(self) -> None:
        """Shut every shard down; pending encodes fail cleanly. Idempotent."""
        for shard in self._shards:
            shard.close()
