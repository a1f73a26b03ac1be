"""Worker-process shards: the scale-out case of the serving coordinator.

:class:`~repro.serve.engine.SimilarityServer` runs in one interpreter,
so every batched forward and every HNSW beam search shares one GIL.
:class:`ShardedSimilarityServer` is the same coordinator over N
:class:`ProcessShard` s.  Each is a spawned worker running a one-shard
``SimilarityServer`` over its slice of the store (own encoder replica,
batcher and :class:`~repro.serve.engine.LocalShard`), with:

- **payloads as bytes** — a query trajectory or embedding travels
  inside the request message as its raw float64 ``tobytes()`` image
  plus its shape, copied when the request is built, so the handoff is
  bit-exact by construction and the tier creates no shared memory;
- **one dispatch method** — :meth:`ProcessShard.request` takes
  ``trace_ctx`` as a required keyword, so no search or encode can leave
  without its cross-process trace context;
- **a retained fallback block** — the coordinator keeps each slice's
  embeddings and scans them exactly (the in-process brute path) when the
  worker is dead, past the gather deadline or erroring.

Stored trajectories go to shards round-robin by database id, or by the
content hash the embedding cache keys on.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
import multiprocessing as mp
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..index.hnsw import HNSWIndex
from ..metrics import MetricSpec
from ..obs.expo import register_scrape_hook, unregister_scrape_hook
from ..obs.lockstats import new_lock
from ..obs.log import get_logger
from ..obs.metrics import get_registry, mirror_snapshot
from ..obs.trace import (
    ROOT,
    TraceContext,
    begin_remote,
    capture_context,
    current_trace,
    export_subtree,
    graft_subtree,
    trace_span,
)
from .cache import trajectory_key
from .engine import (
    BRUTE_THRESHOLD,
    LocalShard,
    Shard,
    ShardAnswer,
    SimilarityServer,
    _ShardSpec,
    brute_topk,
)

__all__ = [
    "FeatureEncoder",
    "ProcessShard",
    "ShardDeadError",
    "ShardedSimilarityServer",
    "assign_shard",
]

_LOG = get_logger("repro.serve.shard")


class ShardDeadError(RuntimeError):
    """A request's owning worker process died before answering."""


# ----------------------------------------------------------------------
# Shard assignment.
# ----------------------------------------------------------------------
def assign_shard(
    gid: int, n_shards: int, strategy: str = "round-robin", key: Optional[str] = None
) -> int:
    """Shard index owning database id ``gid``.

    ``round-robin`` stripes ids across shards (balanced by construction);
    ``hash`` buckets by the trajectory's content digest (``key``, the
    same SHA-1 hex the embedding cache uses), so identical content always
    lands on the same shard regardless of insertion order.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if strategy == "round-robin":
        return gid % n_shards
    if strategy == "hash":
        if key is None:
            raise ValueError("hash strategy needs the trajectory content key")
        return int(key[:12], 16) % n_shards
    raise ValueError(f"unknown shard strategy {strategy!r}")


# ----------------------------------------------------------------------
# A cheap encoder that pickles across spawn (benches and tests use it).
# ----------------------------------------------------------------------
class FeatureEncoder:
    """Deterministic geometric-feature encoder, picklable across spawn.

    Summarises each trajectory with eight scale-stable statistics (mean,
    spread, endpoints) and projects them through a fixed random matrix to
    ``dim`` — orders of magnitude cheaper than a model forward, which
    makes it the right substrate for serving-machinery benchmarks where
    encode cost must not mask index/IPC behaviour.
    """

    def __init__(self, dim: int = 16, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._proj = rng.normal(size=(8, dim)) / np.sqrt(8.0)

    @staticmethod
    def _features(points: np.ndarray) -> np.ndarray:
        """Eight float64 summary features of one ``(n, 2)`` trajectory."""
        points = np.asarray(points, dtype=np.float64)
        mean = points.mean(axis=0)
        std = points.std(axis=0)
        return np.concatenate([mean, std, points[0], points[-1]])

    def __call__(self, trajs: Sequence) -> np.ndarray:
        """Encode a list of trajectories to a ``(B, dim)`` float64 array."""
        feats = np.stack([self._features(np.asarray(t)) for t in trajs])
        return feats @ self._proj


# ----------------------------------------------------------------------
# Worker process.
# ----------------------------------------------------------------------
def _shard_worker_main(spec: _ShardSpec, shard_idx: int, request_q, response_q) -> None:
    """Entry point of one shard worker process.

    Runs a one-shard :class:`~repro.serve.engine.SimilarityServer` over
    this worker's slice (its local shard's nodes carry the global ids the
    coordinator assigned) and serves commands off ``request_q`` until the
    shutdown sentinel.  Every per-message fault is answered as an
    ``error`` payload — the loop itself must survive anything a single
    request throws, or the whole shard dies with it.
    """
    policy = {k: v for k, v in vars(spec).items() if k not in ("encoder", "dim")}
    policy["seed"] += shard_idx
    server = SimilarityServer(spec.encoder, spec.dim, **policy)
    hooks: Dict[str, float] = {}
    try:
        while True:
            try:
                msg = request_q.get()
            except (EOFError, OSError):  # queue torn down under us
                break
            if msg is None or msg.get("cmd") == "shutdown":
                break
            try:
                _handle_worker_msg(msg, server, hooks, response_q)
            except Exception as exc:
                # Per-message fault isolation: the requester gets the
                # error, the worker lives on for every other request.
                _LOG.warning(
                    "shard-request-failed",
                    shard=shard_idx,
                    cmd=msg.get("cmd"),
                    error=type(exc).__name__,
                )
                response_q.put(
                    {"seq": msg.get("seq", -1),
                     "error": f"{type(exc).__name__}: {exc}"}
                )
    finally:
        server.close()


def _worker_payload(msg: dict) -> np.ndarray:
    """The request's float64 payload, rebuilt from its bytes and shape."""
    return np.frombuffer(msg["data"], dtype=np.float64).reshape(msg["shape"])


def _remote_trace(msg: dict, name: str, received: float):
    """The request's ``(trace context, worker subtree)``, IPC wait stamped.

    The context is None when the coordinator was not tracing; the subtree
    is then the inert null trace.  ``ipc-wait`` runs from the
    coordinator's ``sent_at`` stamp to the worker picking the message up
    (``perf_counter`` is CLOCK_MONOTONIC, shared across processes on
    Linux) — distinct from the batcher queue-wait the handoff records on
    the encode path.
    """
    wire = msg.get("trace_ctx")
    ctx = TraceContext.from_wire(wire) if wire else None
    rtrace = begin_remote(ctx, name=name)
    if ctx is not None:
        sent = msg.get("sent_at", received)
        rtrace.record_span("ipc-wait", min(sent, received), received, parent_id=ROOT)
    return ctx, rtrace


def _handle_worker_msg(
    msg: dict, server: SimilarityServer, hooks: Dict[str, float], response_q
) -> None:
    """Dispatch one coordinator command inside the worker process."""
    cmd = msg["cmd"]
    seq = msg["seq"]
    received = time.perf_counter()
    if cmd == "search":
        ctx, rtrace = _remote_trace(msg, "shard.search", received)
        embedding = _worker_payload(msg)
        with rtrace.handoff().resume(wait_name=None):
            start = time.perf_counter()
            # HNSW's own annotate() calls land on this span while the
            # subtree is bound current (hnsw_candidates / ef attribution).
            with rtrace.span("search") as search_span:
                if hooks.get("search_delay_s"):
                    time.sleep(hooks["search_delay_s"])
                answer = server._local.search(embedding, msg["k"])
                search_span.set(n=len(server.index))
        resp = {
            "seq": seq,
            "dists": answer.sq,
            "gids": answer.gids,
            "n": len(server.index),
            "search_s": time.perf_counter() - start,
            # perf_counter is CLOCK_MONOTONIC, shared across processes
            # on Linux: queue wait as seen from the worker side.
            "wait_s": max(received - msg.get("sent_at", received), 0.0),
        }
        if ctx is not None:
            resp["trace"] = export_subtree(rtrace)
        response_q.put(resp)
    elif cmd == "encode":
        ctx, rtrace = _remote_trace(msg, "shard.encode", received)
        if hooks.get("encode_delay_s"):
            time.sleep(hooks["encode_delay_s"])
        # Binding the subtree current across submit() makes the batcher
        # capture its handoff, so the flush thread's queue-wait and
        # batched-forward stamps land inside this request's subtree.
        with rtrace.handoff().resume(wait_name=None):
            future = server.batcher.submit(_worker_payload(msg))

        def _deliver(done: Future, seq: int = seq, t0: float = received) -> None:
            """Post the batched-encode outcome back on the response queue.

            Runs on the flush thread *after* it stamped the queue-wait
            and forward spans, so the exported subtree is complete.
            """
            try:
                resp = {
                    "seq": seq,
                    "embedding": np.asarray(done.result(), dtype=np.float64),
                    "worker_s": time.perf_counter() - t0,
                }
            except BaseException as exc:  # lint: allow(E002) callback boundary
                _LOG.warning("shard-encode-failed", error=type(exc).__name__)
                resp = {"seq": seq, "error": f"{type(exc).__name__}: {exc}"}
            if ctx is not None:
                resp["trace"] = export_subtree(rtrace)
            response_q.put(resp)

        future.add_done_callback(_deliver)
    elif cmd == "add_batch":
        # Build-path insert: synchronous chunked encodes (bypassing the
        # batcher, like the in-process add_batch) and inserts under the
        # coordinator's gids; the response returns the embeddings so the
        # coordinator can retain this shard's block for fallback scans.
        trajs = [np.asarray(t, dtype=np.float64) for t in msg["trajs"]]
        chunk = max(server.batcher.max_batch_size, 1)
        parts = [
            server._encode_batch(trajs[lo : lo + chunk])
            for lo in range(0, len(trajs), chunk)
        ]
        embeddings = (
            np.concatenate(parts, axis=0) if parts else np.zeros((0, server.dim))
        )
        for gid, embedding in zip(msg["gids"], embeddings):
            server._local.add(int(gid), embedding)
        response_q.put({"seq": seq, "embeddings": embeddings})
    elif cmd == "echo":
        payload = _worker_payload(msg)
        response_q.put({"seq": seq, "digest": trajectory_key(payload), "data": payload})
    elif cmd == "stats":
        response_q.put({
            "seq": seq, "pid": os.getpid(), "size": len(server.index),
            "index_bytes": server.index.nbytes, "snapshot": get_registry().snapshot(),
        })
    elif cmd == "dump":
        response_q.put({"seq": seq, "state": server.index.state_dict(),
                        "gids": server._local.gids})
    elif cmd == "debug":
        hooks.update(msg.get("hooks", {}))
        response_q.put({"seq": seq, "hooks": dict(hooks)})
    else:
        response_q.put({"seq": seq, "error": f"ValueError: unknown command {cmd!r}"})


# ----------------------------------------------------------------------
# Coordinator side.
# ----------------------------------------------------------------------
class ProcessShard(Shard):
    """One worker process as a shard: queues, pending map, retained block.

    A router thread delivers responses (by ``seq``) to the futures
    :meth:`request` handed out.  Death is seen there (queue idle,
    process gone) or by a gather timeout; ``mark_dead`` fails every
    pending future with :class:`ShardDeadError` and counts
    ``serve.shard.dead`` exactly once.  A search the worker cannot answer
    is covered by :meth:`fallback_topk` over the retained embeddings.
    """

    source = "sharded"

    def __init__(self, idx: int, ctx, spec: _ShardSpec):
        self.idx = idx
        self.dim = spec.dim
        self.request_q = ctx.Queue()
        self.response_q = ctx.Queue()
        self.dead = False
        self._stopping = False
        self._seq = itertools.count()
        #: seq -> future of every request in flight; guarded by _plock.
        self._pending: Dict[int, Future] = {}
        self._plock = new_lock(f"serve.shard{idx}.pending")
        #: Retained copy of this slice: gids and embedding blocks in insert
        #: order, stacked once per change by :meth:`block`.
        self._block_gids: List[int] = []
        self._blocks: List[np.ndarray] = []
        self._stacked: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._block_lock = new_lock(f"serve.shard{idx}.block")
        self.process = ctx.Process(
            target=_shard_worker_main,
            args=(spec, idx, self.request_q, self.response_q),
            daemon=True,
            name=f"repro-shard-{idx}",
        )
        self.process.start()
        self._router = threading.Thread(
            target=self._route, name=f"shard{idx}-router", daemon=True
        )
        self._router.start()

    @property
    def live(self) -> bool:
        """False once the worker was declared dead."""
        with self._plock:
            return not self.dead

    # ------------------------------------------------------------------
    def request(
        self, cmd: str, payload: Optional[np.ndarray] = None, *,
        trace_ctx: Optional[TraceContext], **fields,
    ) -> Future:
        """Send one command; the future resolves to the worker's response.

        The only way to reach the worker.  ``trace_ctx`` is required (None
        when untraced), so no search or encode can sever its trace.  A
        ``payload`` travels as its float64 bytes plus its shape: the copy
        is taken here, so the worker reads exactly what was sent.
        """
        wire = trace_ctx.to_wire() if trace_ctx is not None else None
        msg = dict(fields, cmd=cmd, trace_ctx=wire)
        if payload is not None:
            array = np.ascontiguousarray(payload, dtype=np.float64)
            msg.update(data=array.tobytes(), shape=array.shape)
        seq = next(self._seq)
        future: Future = Future()
        with self._plock:
            if self.dead:
                raise ShardDeadError(f"shard {self.idx} is dead")
            self._pending[seq] = future
        msg.update(seq=seq, sent_at=time.perf_counter())
        try:
            self.request_q.put(msg)
        except Exception:
            self._resolve({"seq": seq})  # forget the request
            raise
        get_registry().counter("serve.shard.requests").inc()
        return future

    # ------------------------------------------------------------------
    def encode(self, points: np.ndarray, timeout: Optional[float]) -> np.ndarray:
        """Query embedding from this worker's batcher; raises on failure or timeout.

        Recorded as an ``encode`` span with the worker's subtree grafted
        beneath it.
        """
        with trace_span("encode") as span:
            span.set(shard=self.idx)
            ctx = capture_context()
            try:
                resp = self.request("encode", points, trace_ctx=ctx).result(timeout=timeout)
            except Exception as exc:
                timed_out = isinstance(exc, FutureTimeoutError)
                span.set(result="timeout" if timed_out else "error", error=type(exc).__name__)
                if timed_out and not self.process.is_alive():
                    self.mark_dead("died-before-encode")
                raise
            self._graft(current_trace(), span.span_id, resp, ctx)
            if "error" in resp:
                span.set(result="error", error=resp["error"])
                raise RuntimeError(f"shard {self.idx} encode failed: {resp['error']}")
            span.set(result="ok", worker_s=resp.get("worker_s", 0.0))
        return np.asarray(resp["embedding"], dtype=np.float64)

    def dispatch(self, embedding: np.ndarray, k: int, trace) -> tuple:
        """Send the search: ``(future, sent_at, context, miss reason)``."""
        if not self.live:
            return None, 0.0, None, "dead"
        ctx = trace.context()
        try:
            future = self.request("search", embedding, trace_ctx=ctx, k=k)
        except Exception as exc:
            _LOG.warning("shard-send-failed", shard=self.idx, error=type(exc).__name__)
            return None, 0.0, None, f"send-failed:{type(exc).__name__}"
        return future, time.perf_counter(), ctx, None

    def collect(self, call: tuple, deadline: Optional[float], trace) -> ShardAnswer:
        """Wait for the worker's answer until ``deadline``; a miss names its cause.

        The wait is recorded post hoc as the ``shard-<i>`` span (coordinator
        clock) with the worker's subtree — ipc-wait, search — grafted
        beneath it.
        """
        future, sent, ctx, reason = call
        if future is None:
            return self._missed(reason)
        timeout = None if deadline is None else max(deadline - time.perf_counter(), 0.0)
        name = f"shard-{self.idx}"
        try:
            resp = future.result(timeout=timeout)
        except Exception as exc:
            now = time.perf_counter()
            if isinstance(exc, FutureTimeoutError) and self.process.is_alive():
                # Slow is not dead: the worker rejoins once it drains.
                get_registry().counter("serve.shard.deadline_missed").inc()
                trace.record_span(name, sent, now, result="deadline", deadline=True)
                return self._missed("deadline", now - sent)
            if isinstance(exc, (FutureTimeoutError, ShardDeadError)):
                # Died with our request in flight: seen by the timeout, or
                # the router failed the future.
                self.mark_dead("died-mid-query")
                trace.record_span(name, sent, now, result="dead", dead=True)
                return self._missed("dead", now - sent)
            _LOG.warning("shard-gather-error", shard=self.idx, error=type(exc).__name__)
            trace.record_span(name, sent, now, result="error", error=type(exc).__name__)
            return self._missed(type(exc).__name__, now - sent)
        now = time.perf_counter()
        if "error" in resp:
            span_id = trace.record_span(name, sent, now, result="error", error=resp["error"])
            self._graft(trace, span_id, resp, ctx)
            return self._missed("worker-error", now - sent)
        span_id = trace.record_span(
            name, sent, now,
            result="ok", n=resp.get("n", 0),
            search_s=resp.get("search_s", 0.0),
            wait_s=resp.get("wait_s", 0.0),
        )
        self._graft(trace, span_id, resp, ctx)
        return ShardAnswer(resp["dists"], resp["gids"], self.source, now - sent)

    def _missed(self, reason: str, wait_s: Optional[float] = None) -> ShardAnswer:
        """An empty answer the coordinator covers with :meth:`fallback_topk`."""
        return ShardAnswer(np.zeros(0), np.zeros(0, dtype=int), self.source, wait_s, reason)

    def _graft(self, trace, span_id: int, resp: dict, ctx: Optional[TraceContext]) -> None:
        """Stitch a worker-returned span subtree under one local span."""
        if trace is not None and ctx is not None and "trace" in resp:
            graft_subtree(trace, span_id, resp["trace"], shard=self.idx)

    # ------------------------------------------------------------------
    def retain(self, gids: Sequence[int], embeddings: np.ndarray) -> None:
        """Keep the embeddings the worker just indexed, for fallback scans."""
        with self._block_lock:
            self._block_gids.extend(int(g) for g in gids)
            self._blocks.append(np.asarray(embeddings, dtype=np.float64))
            self._stacked = None

    def block(self) -> Tuple[np.ndarray, np.ndarray]:
        """This shard's retained ``(embeddings, gids)``, in insert order."""
        with self._block_lock:
            if self._stacked is None:
                stacked = (
                    np.concatenate(self._blocks, axis=0)
                    if self._blocks else np.zeros((0, self.dim))
                )
                self._stacked = (stacked, np.asarray(self._block_gids, dtype=int))
            return self._stacked

    def fallback_topk(self, embedding: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact scan of the retained block: the worker's brute path, bit for bit.

        Same rows, same arithmetic, same stable tie order, so a degraded
        merge stays *exact* in embedding space — a dead shard costs
        latency, not correctness.
        """
        block, gids = self.block()
        return brute_topk(block, gids, embedding, k)

    def stats(self, timeout_s: float = 2.0) -> dict:
        """Worker pid, size and index bytes; mirrors its registry locally.

        The returned registry snapshot lands under ``serve.shard.<i>.*``
        gauges — the cross-process metrics handoff ``repro-tmn report``
        and the bench read.
        """
        if not self.live:
            return {"dead": True}
        try:
            resp = self.request("stats", trace_ctx=None).result(timeout=timeout_s)
        except Exception as exc:
            _LOG.debug("shard-stats-failed", shard=self.idx, error=type(exc).__name__)
            return {"dead": not self.live, "error": type(exc).__name__}
        mirror_snapshot(resp.get("snapshot", {}), f"serve.shard.{self.idx}.", get_registry())
        return {
            "dead": False,
            "pid": resp.get("pid"),
            "size": resp.get("size", 0),
            "index_bytes": resp.get("index_bytes", 0),
        }

    def memory(self, registry) -> Dict[str, int]:
        """Worker index bytes and resident set, plus the retained block."""
        from ..obs.memory import rss_bytes

        info = self.stats()
        rss = rss_bytes(pid=info["pid"]) if info.get("pid") else 0
        if rss:
            registry.gauge(f"serve.shard.{self.idx}.rss_bytes").set(rss)
        with self._block_lock:
            block_bytes = sum(b.nbytes for b in self._blocks)
        return {
            "index_bytes": int(info.get("index_bytes", 0)),
            "block_bytes": block_bytes,
            "worker_rss_bytes": rss,
        }

    # ------------------------------------------------------------------
    def _route(self) -> None:
        """Deliver worker responses to their futures until stop or death."""
        while True:
            try:
                resp = self.response_q.get(timeout=0.2)
            except queue.Empty:
                with self._plock:
                    stopping = self._stopping
                if stopping:
                    return
                if not self.process.is_alive():
                    self._drain()
                    self.mark_dead("process-exited")
                    return
                continue
            except (EOFError, OSError):
                with self._plock:
                    stopping = self._stopping
                if not stopping:
                    self.mark_dead("response-queue-closed")
                return
            self._resolve(resp)

    def _resolve(self, resp: dict) -> None:
        """Complete the future for one response."""
        with self._plock:
            future = self._pending.pop(resp.get("seq", -1), None)
        if future is not None and not future.done():
            future.set_result(resp)

    def _drain(self) -> None:
        """Deliver responses a dying worker managed to flush before exit."""
        while True:
            try:
                resp = self.response_q.get_nowait()
            except (queue.Empty, EOFError, OSError):
                return
            self._resolve(resp)

    def mark_dead(self, reason: str) -> None:
        """Declare the worker dead once: fail pending, count it."""
        with self._plock:
            if self.dead:
                return
            self.dead = True
            pending = list(self._pending.values())
            self._pending.clear()
        error = ShardDeadError(f"shard {self.idx} died ({reason})")
        for future in pending:
            if not future.done():
                future.set_exception(error)
        get_registry().counter("serve.shard.dead").inc()
        _LOG.warning("shard-dead", shard=self.idx, reason=reason, failed=len(pending))

    def close(self, timeout: float = 5.0) -> None:
        """Orderly worker shutdown; escalates to kill. Never raises."""
        with self._plock:
            self._stopping = True
            dead = self.dead
        try:
            if self.process.is_alive() and not dead:
                self.request_q.put({"cmd": "shutdown"})
            self.process.join(timeout=timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=timeout)
        except Exception as exc:  # shutdown is best-effort by contract
            _LOG.warning("shard-stop-failed", shard=self.idx, error=type(exc).__name__)
        with self._plock:
            pending = list(self._pending.values())
            self._pending.clear()
        for future in pending:
            if not future.done():
                future.set_exception(ShardDeadError(f"shard {self.idx} closed"))
        for q in (self.request_q, self.response_q):
            try:
                q.cancel_join_thread()
                q.close()
            except Exception as exc:  # queue internals already torn down
                _LOG.debug(
                    "shard-queue-close", shard=self.idx, error=type(exc).__name__
                )
        self._router.join(timeout=timeout)


class ShardedSimilarityServer(SimilarityServer):
    """The serving coordinator over N worker-process shards.

    Same surface as :class:`~repro.serve.engine.SimilarityServer`
    (``add`` / ``add_batch`` / ``topk`` / ``encode`` / ``stats`` /
    ``memory_stats`` / ``close``) and the same never-raises ``topk``; see
    the module docstring for the architecture.  Adds what exists only for
    worker shards: the build path, shard replicas, fault hooks, payload
    echo and fleet telemetry.

    Parameters
    ----------
    encoder:
        Picklable encode callable (or model with ``.encode``); each
        worker rebuilds its own replica in a spawned interpreter.
    dim:
        Embedding dimensionality.
    n_shards:
        Worker process count (>= 1).
    strategy:
        ``"round-robin"`` (default) or ``"hash"`` shard assignment.
    shard_deadline_s:
        Gather budget per request: shards that have not answered by then
        are covered by the coordinator's exact fallback scan.
    stats_ttl_s:
        Minimum age before a Prometheus scrape re-pulls worker registry
        snapshots (see :meth:`refresh_shard_telemetry`).
    """

    def __init__(
        self,
        encoder: object,
        dim: int,
        *,
        n_shards: int = 2,
        strategy: str = "round-robin",
        shard_deadline_s: float = 2.0,
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
        build_timeout_s: float = 600.0,
        stats_ttl_s: float = 1.0,
        seed: int = 0,
    ):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if strategy not in ("round-robin", "hash"):
            raise ValueError(f"unknown shard strategy {strategy!r}")
        self.n_shards = n_shards
        self.strategy = strategy
        self.build_timeout_s = build_timeout_s
        super().__init__(
            encoder, dim, cache_capacity=cache_capacity,
            max_batch_size=max_batch_size, max_wait_ms=max_wait_ms,
            idle_grace_ms=idle_grace_ms, m=m, ef_construction=ef_construction,
            ef_search=ef_search, brute_threshold=brute_threshold,
            fallback_metric=fallback_metric,
            degraded_scan_limit=degraded_scan_limit, seed=seed,
        )
        self._handles: List[ProcessShard] = self._shards
        self.shard_deadline_s = shard_deadline_s
        self._closed = False
        self._close_lock = new_lock("serve.shard.close")
        # Fleet telemetry: every Prometheus scrape re-pulls the worker
        # registries (TTL-throttled) instead of waiting for shard_stats().
        self.stats_ttl_s = stats_ttl_s
        self._stats_refreshed_at: Optional[float] = None
        self._stats_lock = new_lock("serve.shard.statsttl")
        register_scrape_hook(self.refresh_shard_telemetry)

    def _build_shards(self, spec: _ShardSpec) -> List[Shard]:
        """One spawned worker per shard, each rebuilding its stack from ``spec``."""
        # Spawn (not fork): workers must not inherit the coordinator's
        # threads, locks or sanitizer state — a forked child of a
        # multi-threaded parent is undefined behaviour waiting to happen.
        ctx = mp.get_context("spawn")
        return [ProcessShard(i, ctx, spec) for i in range(self.n_shards)]

    # ------------------------------------------------------------------
    def add(self, traj) -> int:
        """Insert one trajectory; returns its database id."""
        return self.add_batch([traj])[0]

    def add_batch(self, trajs: Sequence) -> List[int]:
        """Insert many trajectories, encoded and indexed on their shards.

        Unlike :meth:`topk` this is the build path and *does* raise — a
        worker that dies mid-build is a deployment failure, not a query
        to degrade around.
        """
        points = [self._as_points(t) for t in trajs]
        gid0 = self._store(points)
        per_shard: Dict[int, Tuple[List[int], List[np.ndarray]]] = {}
        for offset, pts in enumerate(points):
            gid = gid0 + offset
            key = trajectory_key(pts) if self.strategy == "hash" else None
            shard = assign_shard(gid, self.n_shards, self.strategy, key)
            shard_gids, shard_pts = per_shard.setdefault(shard, ([], []))
            shard_gids.append(gid)
            shard_pts.append(pts)
        futures = []
        for shard, (shard_gids, shard_pts) in sorted(per_shard.items()):
            handle = self._handles[shard]
            request = handle.request(
                "add_batch", trace_ctx=None, trajs=shard_pts, gids=shard_gids
            )
            futures.append((handle, shard_gids, request))
        for handle, shard_gids, future in futures:
            resp = self._await_build(handle, future)
            if "error" in resp:
                raise RuntimeError(f"shard {handle.idx} add failed: {resp['error']}")
            handle.retain(shard_gids, resp["embeddings"])
        return list(range(gid0, gid0 + len(points)))

    def _await_build(self, handle: ProcessShard, future: Future) -> dict:
        """Build-path wait: poll the future while the worker stays alive."""
        deadline = time.perf_counter() + self.build_timeout_s
        while True:
            try:
                return future.result(timeout=1.0)
            except FutureTimeoutError:
                if time.perf_counter() > deadline:
                    raise TimeoutError(
                        f"shard {handle.idx} build exceeded {self.build_timeout_s}s"
                    ) from None
                if not handle.process.is_alive():
                    handle.mark_dead("died-during-build")
                    raise ShardDeadError(
                        f"shard {handle.idx} died during add_batch"
                    ) from None

    # ------------------------------------------------------------------
    def shard_stats(self, timeout_s: float = 2.0) -> Dict[int, dict]:
        """Per-shard worker stats (pid, size, index bytes, registry mirror)."""
        out = {handle.idx: handle.stats(timeout_s) for handle in self._handles}
        with self._stats_lock:
            self._stats_refreshed_at = time.perf_counter()
        return out

    def refresh_shard_telemetry(
        self, ttl_s: Optional[float] = None, timeout_s: float = 0.5
    ) -> bool:
        """Re-pull worker registry snapshots when the mirror has gone stale.

        Registered as the Prometheus scrape hook, so ``serve.shard.N.*``
        gauges track live workers on every scrape; the TTL
        (``stats_ttl_s`` unless overridden) bounds that to one probe per
        worker per window.  Returns True when a refresh actually ran.
        """
        with self._close_lock:
            if self._closed:
                return False
        ttl = self.stats_ttl_s if ttl_s is None else ttl_s
        now = time.perf_counter()
        with self._stats_lock:
            last = self._stats_refreshed_at
            if last is not None and now - last < ttl:
                return False
            # Claim the window before probing so concurrent scrapes
            # cannot stampede the workers with duplicate stats probes.
            self._stats_refreshed_at = now
        self.shard_stats(timeout_s=timeout_s)
        return True

    def dump_shard(self, shard: int, timeout_s: float = 60.0) -> LocalShard:
        """An in-process replica of one shard, searched as its worker searches.

        Rebuilt from the worker's dumped graph and gid map with this
        server's ``ef_search`` and ``brute_threshold``, so the replica
        answers every query exactly as the worker would.
        """
        resp = self._handles[shard].request("dump", trace_ctx=None).result(timeout=timeout_s)
        if "error" in resp:
            raise RuntimeError(f"shard {shard} dump failed: {resp['error']}")
        return LocalShard(
            HNSWIndex.from_state(resp["state"]), resp["gids"],
            ef_search=self._spec.ef_search, brute_threshold=self._spec.brute_threshold,
        )

    def debug_shard(self, shard: int, timeout_s: float = 5.0, **hooks) -> dict:
        """Install fault-injection hooks (e.g. ``search_delay_s``) in a worker."""
        future = self._handles[shard].request("debug", trace_ctx=None, hooks=hooks)
        return future.result(timeout=timeout_s).get("hooks", {})

    def echo_shard(self, shard: int, array: np.ndarray, timeout_s: float = 5.0) -> dict:
        """Round-trip an array through a worker (payload-encoding tests)."""
        return self._handles[shard].request("echo", array, trace_ctx=None).result(
            timeout=timeout_s
        )

    def close(self) -> None:
        """Stop every worker; idempotent, no raise."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        unregister_scrape_hook(self.refresh_shard_telemetry)
        super().close()
