"""The similarity query engine: cache → micro-batch encode → index top-k.

This is the serving path the ROADMAP's "heavy traffic" north star needs:
a :class:`SimilarityServer` owns an encoder, an :class:`EmbeddingCache`,
a :class:`MicroBatcher` and an :class:`~repro.index.hnsw.HNSWIndex`, and
answers ``topk(traj, k)`` from any number of caller threads.

Degradation contract — **callers never see an exception** from
:meth:`SimilarityServer.topk`:

- embedding available in time → approximate HNSW answer (or brute-force
  over the embedding table when the database is small or ``k`` is large,
  which is *exact* in embedding space);
- encode misses the per-request deadline, or the batched forward fails →
  a *degraded-but-exact* answer: the true trajectory metric (default
  DTW) is evaluated against a bounded subset of the stored trajectories
  and its top-k returned, flagged ``degraded=True``.  Coverage shrinks,
  correctness of what is returned does not.

Every stage is observable: ``serve.query.*`` counters, the cache and
batcher instruments they own, and one ``serve.topk`` request trace
(:mod:`repro.obs.trace`) per :meth:`SimilarityServer.topk` call.  Its
child spans cover the cache probe, queue wait, batched forward (both
stamped across the thread hop by the :class:`MicroBatcher` via a
handoff token), index search and the degraded fallback (with the
degradation *reason* as an attribute), so ``repro-tmn trace`` can show
where any single slow request spent its time.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from ..index.hnsw import HNSWIndex
from ..metrics import MetricSpec, get_metric, pad_trajectories
from ..obs.lockstats import new_lock
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer, trace_span
from .batcher import MicroBatcher
from .cache import EmbeddingCache, trajectory_key

__all__ = ["ServeResult", "SimilarityServer", "exact_metric_topk"]

_LOG = get_logger("repro.serve.engine")


def exact_metric_topk(
    points: np.ndarray, subset: Sequence[np.ndarray], metric: MetricSpec, k: int
) -> "tuple[np.ndarray, np.ndarray]":
    """True-metric top-k of ``points`` against ``subset``: ``(order, dists)``.

    One padded batch evaluation of ``metric`` followed by a stable
    argsort, so ties resolve to the lowest subset index.  Shared by the
    single-process degraded path and the sharded coordinator's
    no-embedding fallback — both tiers must rank identically.
    """
    stacked, lengths = pad_trajectories([points] + list(subset))
    q_stack = np.repeat(stacked[:1], len(subset), axis=0)
    q_len = np.repeat(lengths[:1], len(subset))
    dists = metric.batch(q_stack, stacked[1:], q_len, lengths[1:])
    k_eff = min(k, len(subset))
    order = np.argsort(dists, kind="stable")[:k_eff]
    return order, np.asarray(dists[order], dtype=float)


@dataclass
class ServeResult:
    """Outcome of one ``topk`` request.

    Attributes
    ----------
    ids:
        Database ids, ascending by distance (may hold fewer than ``k``
        entries on a degraded answer over a small cached subset).
    distances:
        Matching distances.  Embedding-space L2 for normal answers; true
        trajectory-metric distances when ``degraded``.
    degraded:
        True when the deadline/fault fallback produced the answer.
    cache_hit:
        Whether the query embedding came from the cache.
    source:
        ``"hnsw"``, ``"brute"`` or ``"degraded-exact"``.
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


class SimilarityServer:
    """Concurrent top-k similarity serving over learned embeddings.

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
        Below this database size the engine answers by brute force over
        the embedding table instead of the graph (exact, and faster than
        graph traversal at small N).
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
        brute_threshold: int = 64,
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
        self.ef_search = ef_search
        self.brute_threshold = brute_threshold
        self.degraded_scan_limit = degraded_scan_limit
        self.index = HNSWIndex(dim, m=m, ef_construction=ef_construction, seed=seed)
        self.cache = EmbeddingCache(capacity=cache_capacity)
        self.batcher = MicroBatcher(
            self._encode_batch,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            idle_grace_ms=idle_grace_ms,
        )
        self.fallback_metric = (
            fallback_metric
            if isinstance(fallback_metric, MetricSpec)
            else get_metric(fallback_metric)
        )
        # Stored trajectories (by database id) for the degraded exact path.
        self._trajs: List[np.ndarray] = []
        self._trajs_lock = new_lock("serve.trajs")

    # ------------------------------------------------------------------
    def _encode_batch(self, trajs: Sequence) -> np.ndarray:
        """One padded forward over ``trajs``; runs on the batcher thread."""
        out = np.asarray(self._encode_raw(trajs), dtype=np.float64)
        if out.ndim != 2 or out.shape[1] != self.dim:
            raise ValueError(f"encoder returned {out.shape}, expected (B, {self.dim})")
        return out

    @staticmethod
    def _as_points(traj) -> np.ndarray:
        return np.asarray(
            traj.points if hasattr(traj, "points") else traj, dtype=np.float64
        )

    # ------------------------------------------------------------------
    def add(self, traj, embedding: Optional[np.ndarray] = None) -> int:
        """Insert one trajectory into the database; returns its id.

        The embedding is computed synchronously (bypassing the queue)
        unless supplied; it is cached so a later query for the identical
        trajectory is a cache hit.
        """
        points = self._as_points(traj)
        if embedding is None:
            embedding = self._encode_batch([points])[0]
        embedding = np.asarray(embedding, dtype=np.float64)
        self.cache.put(trajectory_key(points), embedding)
        with self._trajs_lock:
            self._trajs.append(points)
        node = self.index.add(embedding)
        get_registry().counter("serve.db.size").inc()
        return node

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
        return len(self.index)

    # ------------------------------------------------------------------
    def encode(self, traj, timeout: Optional[float] = None) -> np.ndarray:
        """Embedding for one trajectory via cache + micro-batch queue.

        Unlike :meth:`topk`, this *does* raise on encode failure or
        timeout — it is the building block, not the guarded endpoint.
        """
        key = trajectory_key(traj)
        cached = self.cache.get(key)
        if cached is not None:
            return cached
        embedding = self.batcher.submit(traj).result(timeout=timeout)
        self.cache.put(key, embedding)
        return embedding

    # The E001 pass statically verifies this annotation: every raise
    # reachable from topk must be caught before it gets back here.
    def topk(self, traj, k: int = 1, deadline_s: Optional[float] = None) -> ServeResult:  # contract: never-raises
        """Top-k most similar database trajectories; never raises.

        ``deadline_s`` bounds the time spent waiting for the encoder; a
        missed deadline (or a failed batch) yields the degraded exact
        answer.  ``k`` is clamped to the database size.
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
        """The cache → micro-batch → index pipeline behind :meth:`topk`.

        May raise; :meth:`topk` owns the never-raises guard.
        """
        registry = get_registry()
        registry.counter("serve.query.requests").inc()
        with get_tracer().trace("serve.topk", k=k) as trace:
            if deadline_s is not None:
                trace.set(deadline_s=deadline_s)
            points = self._as_points(traj)
            key = trajectory_key(points)
            with trace.span("cache") as cache_span:
                cached = self.cache.get(key)
                cache_hit = cached is not None
                cache_span.set(result="hit" if cache_hit else "miss")
            trace.set(cache_hit=cache_hit)
            if cache_hit:
                embedding = cached
            else:
                remaining = deadline_s
                if deadline_s is not None:
                    remaining = deadline_s - (time.perf_counter() - start)
                    if remaining <= 0:
                        return self._degraded(
                            points, k, start, cache_hit=False,
                            reason="deadline-before-encode",
                        )
                # Queue-wait/forward spans are stamped onto this
                # trace by the batcher's flush thread (handoff).
                try:
                    embedding = self.batcher.submit(points).result(timeout=remaining)
                except FutureTimeoutError:
                    registry.counter("serve.query.deadline_missed").inc()
                    return self._degraded(
                        points, k, start, cache_hit=False,
                        reason="deadline-missed",
                    )
                except Exception as exc:
                    _LOG.warning(
                        "batch-failed", error=type(exc).__name__,
                        trace_id=trace.trace_id, k=k,
                    )
                    return self._degraded(
                        points, k, start, cache_hit=False,
                        reason=f"batch-failed:{type(exc).__name__}",
                    )
                self.cache.put(key, embedding)
            return self._answer(embedding, k, start, cache_hit)

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
                self._as_points(traj), k, start, cache_hit=False,
                reason=f"unexpected:{type(exc).__name__}",
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
    def _answer(
        self, embedding: np.ndarray, k: int, start: float, cache_hit: bool
    ) -> ServeResult:
        """Index-backed answer from a resolved embedding."""
        n = len(self.index)
        if n == 0:
            return ServeResult(
                ids=np.zeros(0, dtype=int),
                distances=np.zeros(0),
                degraded=False,
                cache_hit=cache_hit,
                source="brute",
                seconds=time.perf_counter() - start,
                k=k,
            )
        k_eff = min(k, n)
        with trace_span("index") as index_span:
            if n <= self.brute_threshold or k_eff > n // 2:
                diffs = np.asarray(self.index.vectors[:n]) - embedding[None, :]
                sq = (diffs**2).sum(axis=1)
                order = np.argsort(sq, kind="stable")[:k_eff]
                # Squared L2 values are nonnegative by construction.
                dists = np.sqrt(sq[order])  # lint: allow(N002)
                ids = order
                source = "brute"
            else:
                dists, ids = self.index.query(embedding, k=k_eff, ef=self.ef_search)
                source = "hnsw"
            index_span.set(source=source, n=n, k=k_eff)
        tracer = get_tracer()
        tracer.annotate(degraded=False, source=source)
        get_registry().counter("serve.query.answered").inc()
        get_registry().histogram("serve.query.seconds").observe(
            time.perf_counter() - start
        )
        return ServeResult(
            ids=np.asarray(ids, dtype=int),
            distances=np.asarray(dists, dtype=float),
            degraded=False,
            cache_hit=cache_hit,
            source=source,
            seconds=time.perf_counter() - start,
            k=k,
        )

    def _degraded(
        self,
        points: np.ndarray,
        k: int,
        start: float,
        cache_hit: bool,
        reason: str = "unknown",
    ) -> ServeResult:
        """Deadline/fault fallback: exact metric over a bounded subset.

        Scans up to ``degraded_scan_limit`` stored trajectories with the
        true trajectory metric — the answer is exact *on that subset*,
        trading coverage for bounded latency instead of raising.
        ``reason`` is recorded on the request trace so a degraded answer
        is attributable (deadline vs. fault vs. unexpected error).
        """
        registry = get_registry()
        registry.counter("serve.query.degraded").inc()
        get_tracer().annotate(degraded=True, degraded_reason=reason, source="degraded-exact")
        with self._trajs_lock:
            subset = list(self._trajs[: self.degraded_scan_limit])
        if not subset:
            return ServeResult(
                ids=np.zeros(0, dtype=int),
                distances=np.zeros(0),
                degraded=True,
                cache_hit=cache_hit,
                source="degraded-exact",
                seconds=time.perf_counter() - start,
                k=k,
            )
        with trace_span("degraded") as deg_span:
            deg_span.set(reason=reason, scanned=len(subset))
            order, dists = exact_metric_topk(points, subset, self.fallback_metric, k)
        return ServeResult(
            ids=np.asarray(order, dtype=int),
            distances=dists,
            degraded=True,
            cache_hit=cache_hit,
            source="degraded-exact",
            seconds=time.perf_counter() - start,
            k=k,
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving counters snapshot (cache + queue + query totals)."""
        return {
            "db_size": len(self.index),
            "cache_size": len(self.cache),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_hit_rate": self.cache.hit_rate,
        }

    def memory_stats(self, registry=None) -> dict:
        """Exact bytes held by the serving structures, plus process RSS.

        Audits the three stores the million-trajectory ROADMAP item must
        shrink — embedding cache, HNSW index, raw trajectory store — and
        derives the headline ``bytes_per_trajectory`` (accounted payload
        bytes divided by stored trajectories).  Every figure is mirrored
        into registry gauges (``serve.*.bytes``,
        ``serve.store.bytes_per_trajectory``, ``mem.rss_bytes``,
        ``mem.peak_rss_bytes``) so the SLO monitor and the bench gate
        read the same numbers this method returns.
        """
        from ..obs.memory import update_memory_gauges

        with self._trajs_lock:
            store_bytes = sum(t.nbytes for t in self._trajs)
            n_trajs = len(self._trajs)
        cache_bytes = self.cache.nbytes
        index_bytes = self.index.nbytes
        total = store_bytes + cache_bytes + index_bytes
        per_traj = total / n_trajs if n_trajs else 0.0
        reg = registry if registry is not None else get_registry()
        reg.gauge("serve.store.bytes").set(store_bytes)
        reg.gauge("serve.cache.bytes").set(cache_bytes)
        reg.gauge("serve.index.bytes").set(index_bytes)
        reg.gauge("serve.store.bytes_per_trajectory").set(per_traj)
        process = update_memory_gauges(reg)
        return {
            "n_trajectories": n_trajs,
            "store_bytes": store_bytes,
            "cache_bytes": cache_bytes,
            "index_bytes": index_bytes,
            "total_bytes": total,
            "bytes_per_trajectory": per_traj,
            "rss_bytes": process["rss_bytes"],
            "peak_rss_bytes": process["peak_rss_bytes"],
        }

    def close(self) -> None:
        """Shut down the batcher thread; pending encodes fail cleanly."""
        self.batcher.close()

    def __enter__(self) -> "SimilarityServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
