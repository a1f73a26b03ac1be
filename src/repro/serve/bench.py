"""Serving throughput/latency benchmark harness (``repro-tmn serve-bench``).

Measures the deployment workload the related work frames as the point of
trajectory embedding (top-k retrieval over a vector index): ``workers``
threads issue cache-miss ``topk`` queries against a
:class:`~repro.serve.engine.SimilarityServer`, and the same query set is
replayed through naive one-request-one-forward encoding as the baseline.
The headline number is the throughput ratio — how much the micro-batching
queue buys over per-request forwards — plus latency percentiles, cache
and degradation counters, and a zero-drop check.

The sharded bench (``--shards N``) drives the worker pool against the
same shard graphs searched in process.  Both share one closed-loop
driver, one result base and one finishing tail.  Runs are deterministic
given ``seed``; results serialise to the dicts ``BENCH_serve.json``
records.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import TMN, TMNConfig
from ..data import make_dataset, prepare
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.slo import (
    DEADLINE_SERVE_SLOS,
    DEFAULT_MEMORY_SLOS,
    DEFAULT_SERVE_SLOS,
    DEFAULT_SHARD_SLOS,
    SLO,
    SLOStatus,
    assert_slos,
    check_slos,
    format_slos,
)
from ..obs.trace import get_tracer
from .cache import trajectory_key
from .engine import BRUTE_THRESHOLD, ServeResult, SimilarityServer

__all__ = [
    "ServeBenchResult",
    "ShardBenchResult",
    "format_serve_bench",
    "format_shard_bench",
    "run_serve_bench",
    "run_shard_bench",
]

_BENCH_LOG = get_logger("repro.serve.bench")

#: Env var naming a fallback metrics-snapshot path for every bench run;
#: the ``metrics_out`` parameter takes precedence.
METRICS_ENV = "REPRO_SERVE_METRICS"


@dataclass(kw_only=True)
class _BenchResult:
    """Fields and checks both serve benches report (all times in seconds)."""

    n_db: int
    n_queries: int
    workers: int
    completed: int
    dropped: int
    degraded: int
    latency_p50: float
    latency_p99: float
    #: One status per evaluated SLO (latency / degraded-rate / drop-rate
    #: / shard balance / memory gauge ceilings).
    slo_statuses: List[SLOStatus] = field(default_factory=list)
    #: Exact accounted payload bytes per stored trajectory, from the
    #: server's ``memory_stats``.
    bytes_per_trajectory: float = 0.0
    #: Process high-water RSS at the end of the served phase.
    peak_rss_bytes: float = 0.0

    @property
    def slo_ok(self) -> bool:
        """Whether every evaluated SLO held over this run's traces."""
        return all(s.ok for s in self.slo_statuses)

    def to_dict(self) -> Dict[str, float]:
        """Flat JSON-ready summary (what the bench JSON records)."""
        return {
            "n_db": float(self.n_db),
            "n_queries": float(self.n_queries),
            "workers": float(self.workers),
            "completed": float(self.completed),
            "dropped": float(self.dropped),
            "degraded": float(self.degraded),
            "latency_p50": self.latency_p50,
            "latency_p99": self.latency_p99,
            "slo_failures": float(sum(1 for s in self.slo_statuses if not s.ok)),
            "bytes_per_trajectory": self.bytes_per_trajectory,
            "peak_rss_bytes": self.peak_rss_bytes,
        }


@dataclass(kw_only=True)
class ServeBenchResult(_BenchResult):
    """Outcome of one serve-bench run (all times in seconds)."""

    batch_size: int
    served_seconds: float
    naive_seconds: float
    naive_queries: int
    cache_hits: int
    batch_size_mean: float

    @property
    def served_qps(self) -> float:
        """Queries per second through the serving layer."""
        return self.n_queries / max(self.served_seconds, 1e-12)

    @property
    def naive_qps(self) -> float:
        """Queries per second for one-request-one-forward encoding."""
        return self.naive_queries / max(self.naive_seconds, 1e-12)

    @property
    def speedup(self) -> float:
        """Serving throughput over the naive baseline."""
        return self.served_qps / max(self.naive_qps, 1e-12)

    def to_dict(self) -> Dict[str, float]:
        """Flat JSON-ready summary (what the bench JSON records)."""
        return {
            **super().to_dict(),
            "batch_size": float(self.batch_size),
            "served_qps": self.served_qps,
            "naive_qps": self.naive_qps,
            "speedup": self.speedup,
            "cache_hits": float(self.cache_hits),
            "batch_size_mean": self.batch_size_mean,
        }


def _build_encoder(hidden_dim: int, seed: int) -> TMN:
    """A siamese (non-matching) TMN encoder for the serving benchmark.

    The bench measures the serving machinery, not model quality, so an
    untrained-but-deterministic encoder is the right substrate: encode
    cost is identical to a trained model's.
    """
    config = TMNConfig(hidden_dim=hidden_dim, matching=False, seed=seed)
    model = TMN(config)
    model.eval()
    return model


def run_serve_bench(
    n_db: int = 60,
    n_queries: int = 500,
    workers: int = 4,
    batch_size: int = 32,
    max_wait_ms: float = 4.0,
    hidden_dim: int = 32,
    kind: str = "porto",
    k: int = 5,
    seed: int = 0,
    naive_queries: Optional[int] = None,
    deadline_s: Optional[float] = None,
    traj_len: Optional[int] = None,
    slos: Optional[Sequence[SLO]] = None,
    enforce_slos: bool = True,
    trace_log: Optional[str] = None,
    metrics_out: Optional[str] = None,
) -> ServeBenchResult:
    """Run the serving benchmark and return its measurements.

    ``n_db`` trajectories are indexed; ``n_queries`` *distinct* (cache
    miss) queries are then issued from ``workers`` threads.  The naive
    baseline replays ``naive_queries`` of them (default: min(100,
    n_queries), extrapolated) one forward at a time on one thread.

    ``traj_len`` overrides the corpus trajectory length (points per
    trajectory, ±20%).  Longer trajectories make each forward heavier,
    which isolates the batching effect from fixed per-request overhead —
    the regime the paper's Table III workload lives in.

    After the served phase the run's SLOs are evaluated over the request
    traces via :func:`repro.obs.slo.check_slos` (``slos`` defaults to
    :data:`DEFAULT_SERVE_SLOS`, or :data:`DEADLINE_SERVE_SLOS` when a
    per-request deadline makes degradation the designed behaviour); with
    ``enforce_slos`` a breach raises
    :class:`~repro.obs.slo.SLOViolation` — the bench *asserts* the
    serving promises, it does not merely report them.  ``trace_log``
    mirrors every request trace to a JSONL file for ``repro-tmn trace``.

    ``metrics_out`` (or ``$REPRO_SERVE_METRICS``) names a JSON file
    receiving the registry snapshot, written before any SLO raise (see
    :func:`_finish`).
    """
    rng = np.random.default_rng(seed)
    length_kwargs = {}
    if traj_len is not None:
        length_kwargs = {
            "min_len": max(traj_len - traj_len // 5, 2),
            "max_len": traj_len + traj_len // 5,
        }
    dataset = make_dataset(kind, n_db + n_queries + 40, seed=seed, **length_kwargs)
    dataset, _ = prepare(dataset)
    points = [t.points for t in dataset]
    if len(points) < n_db + n_queries:
        # Preprocessing drops some trajectories; synthesise the shortfall
        # by jittering existing ones (still distinct content hashes).
        while len(points) < n_db + n_queries:
            base = points[int(rng.integers(len(points)))]
            points.append(base + rng.normal(scale=1e-4, size=base.shape))
    db = points[:n_db]
    queries = points[n_db : n_db + n_queries]

    model = _build_encoder(hidden_dim, seed)
    server = SimilarityServer(
        model, dim=model.output_dim, max_batch_size=batch_size,
        max_wait_ms=max_wait_ms, cache_capacity=max(4 * n_db, 256), seed=seed,
    )
    registry = get_registry()
    batch_hist = registry.histogram("serve.batch.size")
    batches_before = batch_hist.count
    batch_total_before = batch_hist.total
    tracer = get_tracer()
    if trace_log is not None:
        tracer.configure(log_path=trace_log)

    # Server tuning, applied to BOTH phases for fairness: a longer GIL
    # switch interval stops worker wake-ups from preempting the encoder
    # mid-forward (numpy releases the GIL only around large ops).
    switch_before = sys.getswitchinterval()
    sys.setswitchinterval(0.02)
    try:
        server.add_batch(db)

        served_seconds, results = _drive_closed_loop(
            lambda i: server.topk(queries[i], k=k, deadline_s=deadline_s),
            n_queries,
            workers,
        )

        # Naive baseline: the same encoder, one forward per request.
        n_naive = naive_queries if naive_queries is not None else min(100, n_queries)
        start = time.perf_counter()
        for q in queries[:n_naive]:
            model.encode([q])
        naive_seconds = time.perf_counter() - start

        batch_count = batch_hist.count - batches_before
        batch_requests = batch_hist.total - batch_total_before
        result = ServeBenchResult(
            n_db=n_db,
            n_queries=n_queries,
            workers=workers,
            batch_size=batch_size,
            served_seconds=served_seconds,
            naive_seconds=naive_seconds,
            naive_queries=n_naive,
            cache_hits=sum(1 for r in results if r is not None and r.cache_hit),
            **_tally(results),
            batch_size_mean=batch_requests / batch_count if batch_count else 0.0,
        )
        if slos is None:
            slos = DEADLINE_SERVE_SLOS if deadline_s is not None else DEFAULT_SERVE_SLOS
            slos = tuple(slos) + tuple(DEFAULT_MEMORY_SLOS)
        return _finish(result, server, slos, tracer, registry, metrics_out, enforce_slos)
    finally:
        sys.setswitchinterval(switch_before)
        server.close()
        if trace_log is not None:
            tracer.configure(log_path=None)  # flush + close the JSONL log


def _finish(
    result: _BenchResult,
    server,
    slos: Sequence[SLO],
    tracer,
    registry,
    metrics_out: Optional[str],
    enforce_slos: bool,
) -> _BenchResult:
    """The tail both benches share: audit memory, check SLOs, export, assert.

    The memory audit sets the gauges the memory SLOs read; the SLOs are
    checked non-strictly over the run's last ``n_queries`` traces, so the
    registry snapshot reaches ``metrics_out`` (or ``$REPRO_SERVE_METRICS``)
    before a breach raises :class:`~repro.obs.slo.SLOViolation`.
    """
    memory = server.memory_stats(registry=registry)
    result.bytes_per_trajectory = float(memory["bytes_per_trajectory"])
    result.peak_rss_bytes = float(memory["peak_rss_bytes"])
    result.slo_statuses = list(
        check_slos(
            slos,
            tracer=tracer,
            window=result.n_queries,
            totals={"requests": float(result.n_queries), "dropped": float(result.dropped)},
            strict=False,
            registry=registry,
        )
    )
    path = metrics_out if metrics_out is not None else os.environ.get(METRICS_ENV)
    if path:
        with open(path, "w") as fh:
            json.dump({"metrics": registry.snapshot()}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if enforce_slos:
        assert_slos(result.slo_statuses)
    return result


def format_serve_bench(result: ServeBenchResult) -> str:
    """Human-readable serve-bench report (what the CLI prints)."""
    lines = [
        f"serve-bench: {result.n_queries} queries x {result.workers} workers "
        f"over {result.n_db} indexed trajectories",
        f"  served    {result.served_qps:10.1f} qps "
        f"({result.served_seconds:.3f}s total)",
        f"  naive     {result.naive_qps:10.1f} qps "
        f"({result.naive_queries} one-forward encodes)",
        f"  speedup   {result.speedup:10.2f}x",
        f"  latency   p50 {result.latency_p50 * 1e3:8.2f} ms   "
        f"p99 {result.latency_p99 * 1e3:8.2f} ms",
        f"  batching  mean batch {result.batch_size_mean:.1f} "
        f"(max {result.batch_size})",
        f"  health    completed {result.completed}/{result.n_queries}, "
        f"dropped {result.dropped}, degraded {result.degraded}, "
        f"cache hits {result.cache_hits}",
        f"  memory    {result.bytes_per_trajectory:,.0f} B/trajectory accounted, "
        f"peak rss {result.peak_rss_bytes / (1024 * 1024):,.1f} MiB",
    ]
    if result.slo_statuses:
        lines.append(format_slos(result.slo_statuses))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Sharded closed-loop bench (``repro-tmn serve-bench --shards N``).
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class ShardBenchResult(_BenchResult):
    """Outcome of one sharded serve-bench run (all times in seconds).

    ``single_seconds`` is the control arm (the same shard graphs and
    merge on ``workers`` threads in one interpreter), so sharded/single
    isolates what the process pool changes.  ``agreement`` is the share
    of sampled queries answered identically by both arms;
    ``recall_at_k`` scores merged answers against brute force over the
    retained embedding blocks.
    """

    shards: int
    k: int
    build_seconds: float
    sharded_seconds: float
    single_seconds: float
    recall_at_k: float
    agreement: float
    checked: int
    cpu_count: int
    #: Per-shard time attribution aggregated over the run's stitched
    #: traces: mean coordinator wait vs worker-side ipc/search time plus
    #: dead/deadline counts, keyed by shard id (empty with tracing off).
    shard_attribution: Dict[int, Dict[str, float]] = field(default_factory=dict)

    @property
    def sharded_qps(self) -> float:
        """Queries per second through the process-pool tier."""
        return self.n_queries / max(self.sharded_seconds, 1e-12)

    @property
    def single_qps(self) -> float:
        """Queries per second through the single-interpreter control arm."""
        return self.n_queries / max(self.single_seconds, 1e-12)

    @property
    def speedup(self) -> float:
        """Process-pool throughput over the single-process thread pool."""
        return self.sharded_qps / max(self.single_qps, 1e-12)

    def to_dict(self) -> Dict[str, float]:
        """Flat JSON-ready summary (what the bench JSON records)."""
        return {
            **super().to_dict(),
            "shards": float(self.shards),
            "k": float(self.k),
            "sharded_qps": self.sharded_qps,
            "single_qps": self.single_qps,
            "speedup": self.speedup,
            "build_seconds": self.build_seconds,
            "recall_at_k": self.recall_at_k,
            "agreement": self.agreement,
            "checked": float(self.checked),
            "cpu_count": float(self.cpu_count),
        }


def _make_walks(
    n: int, rng: np.random.Generator, min_len: int = 16, max_len: int = 32
) -> List[np.ndarray]:
    """``n`` random-walk trajectories with one bulk normal draw.

    Cheap enough to generate a 100k-trajectory corpus in seconds — the
    sharded bench needs store scale without paying dataset-pipeline cost.
    """
    lengths = rng.integers(min_len, max_len + 1, size=n)
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    steps = rng.normal(scale=0.05, size=(int(offsets[-1]), 2))
    starts = rng.uniform(-1.0, 1.0, size=(n, 2))
    return [
        starts[i] + np.cumsum(steps[offsets[i] : offsets[i + 1]], axis=0)
        for i in range(n)
    ]


_SHARD_SPAN_NAME = re.compile(r"^shard-(\d+)$")


def _shard_attribution(traces) -> Dict[int, Dict[str, float]]:
    """Aggregate per-shard time attribution over stitched serve traces.

    For every shard: how long the coordinator waited on it (``shard-N``
    span, coordinator clock), where that time went on the worker side
    (grafted ``ipc-wait`` and ``search`` spans), and how often it was
    declared dead or blew the gather deadline.  Means are reported so
    shards with different gather counts stay comparable.
    """
    acc: Dict[int, Dict[str, float]] = {}

    fields = ("gathers", "wait_s", "ipc_s", "search_s", "dead", "deadline")

    def row(shard: int) -> Dict[str, float]:
        return acc.setdefault(int(shard), dict.fromkeys(fields, 0.0))

    for trace in traces:
        for event in trace.events:
            end = event.get("end")
            if end is None:
                continue
            duration = float(end) - float(event["start"])
            name = str(event.get("name", ""))
            shard = event.get("shard")
            if shard is not None:
                if name == "ipc-wait":
                    row(shard)["ipc_s"] += duration
                elif name == "search":
                    row(shard)["search_s"] += duration
                continue
            match = _SHARD_SPAN_NAME.match(name)
            if match is None:
                continue
            entry = row(match.group(1))
            entry["gathers"] += 1.0
            entry["wait_s"] += duration
            result = event.get("attrs", {}).get("result")
            if result in ("dead", "deadline"):
                entry[result] += 1.0
    for entry in acc.values():
        gathers = max(entry["gathers"], 1.0)
        entry["mean_wait_s"] = entry["wait_s"] / gathers
        entry["mean_ipc_s"] = entry["ipc_s"] / gathers
        entry["mean_search_s"] = entry["search_s"] / gathers
    return acc


def _drive_closed_loop(
    serve_fn, n_queries: int, workers: int
) -> "tuple[float, list]":
    """Closed-loop thread pool: ``workers`` threads drain a query pool.

    ``serve_fn(i)`` answers query ``i``; returns (wall seconds, results
    list with None for queries whose slot errored).
    """
    results: List[Optional[object]] = [None] * n_queries
    next_query = {"i": 0}
    hand_out = threading.Lock()

    def worker() -> None:  # contract: never-raises
        """Pull query indices and serve them until the pool is drained.

        A raise escaping this loop would kill the worker thread and
        silently drop every query it still owned; E001 verifies none can.
        """
        i = -1
        while True:
            try:
                with hand_out:
                    i = next_query["i"]
                    if i >= n_queries:
                        return
                    next_query["i"] = i + 1
                # Slot i is handed to exactly one worker by the hand_out
                # block above, so this write is index-partitioned — no
                # two threads ever share a slot.
                results[i] = serve_fn(i)  # lint: allow(C001)
            except Exception as exc:
                # The slot stays None (counted as dropped); the worker
                # lives on to serve the rest of the pool.
                _BENCH_LOG.warning(
                    "serve-query-failed", error=type(exc).__name__, query=i
                )

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - start, results


def _tally(results: Sequence[Optional[ServeResult]]) -> Dict[str, float]:
    """Health and latency fields of a closed-loop run (None = dropped)."""
    answered = [r for r in results if r is not None]
    latencies = sorted(r.seconds for r in answered) or [0.0]
    return {
        "completed": len(answered),
        "dropped": len(results) - len(answered),
        "degraded": sum(1 for r in answered if r.degraded),
        "latency_p50": latencies[len(latencies) // 2],
        "latency_p99": latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))],
    }


def run_shard_bench(
    n_db: int = 2000,
    n_queries: int = 400,
    shards: int = 4,
    workers: int = 4,
    dim: int = 16,
    k: int = 10,
    m: int = 4,
    ef_construction: int = 16,
    ef_search: Optional[int] = None,
    batch_size: int = 32,
    max_wait_ms: float = 2.0,
    brute_threshold: int = BRUTE_THRESHOLD,
    shard_deadline_s: float = 5.0,
    strategy: str = "round-robin",
    check_sample: int = 64,
    seed: int = 0,
    slos: Optional[Sequence[SLO]] = None,
    enforce_slos: bool = True,
    metrics_out: Optional[str] = None,
    trace_log: Optional[str] = None,
    tracing: bool = True,
) -> ShardBenchResult:
    """Run the sharded serving benchmark and return its measurements.

    Phases: (1) build a ``shards``-worker
    :class:`~repro.serve.shard.ShardedSimilarityServer` over ``n_db``
    random-walk trajectories (workers insert their shards in parallel);
    (2) drive ``n_queries`` distinct queries from ``workers`` threads
    through the process pool; (3) dump every shard's graph, rebuild it
    in process as a :class:`~repro.serve.engine.LocalShard` and drive the
    *same* queries through the same merge on ``workers`` threads inside
    this interpreter (the workers idle meanwhile) — the single-process
    control arm, identical data structures and total search work, zero
    IPC.

    Correctness riders on every run: for ``check_sample`` queries the
    process-pool answer must agree with the in-process answer (same
    graphs, same cached embedding ⇒ identical traversal), and merged
    answers are scored for recall against an exact brute force over the
    coordinator's retained embedding blocks.

    The encode substrate is the cheap deterministic
    :class:`~repro.serve.shard.FeatureEncoder` — the bench measures
    index/IPC/GIL behaviour, so encode cost must not dominate either arm.

    ``trace_log`` persists every stitched ``serve.topk`` trace to JSONL
    (same contract as :func:`run_serve_bench`); ``tracing=False`` runs
    the sharded phase with the tracer disabled — the arm the
    trace-collection overhead number in ``BENCH_serve.json`` compares
    against.  With tracing on, the result carries a per-shard
    time-attribution table aggregated from the stitched traces.
    """
    from .engine import merge_topk
    from .shard import FeatureEncoder, ShardedSimilarityServer

    rng = np.random.default_rng(seed)
    corpus = _make_walks(n_db + n_queries, rng)
    db, queries = corpus[:n_db], corpus[n_db:]
    encoder = FeatureEncoder(dim=dim, seed=seed)
    registry = get_registry()
    tracer = get_tracer()
    tracing_before = tracer.set_enabled(tracing)
    if trace_log is not None:
        tracer.configure(log_path=trace_log)
    cpu_count = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )

    server = ShardedSimilarityServer(
        encoder, dim=dim, n_shards=shards, strategy=strategy,
        shard_deadline_s=shard_deadline_s, cache_capacity=max(4 * n_queries, 1024),
        max_batch_size=batch_size, max_wait_ms=max_wait_ms, m=m,
        ef_construction=ef_construction, ef_search=ef_search,
        brute_threshold=brute_threshold, seed=seed,
    )
    switch_before = sys.getswitchinterval()
    sys.setswitchinterval(0.02)
    try:
        build_start = time.perf_counter()
        chunk = 5000
        for lo in range(0, n_db, chunk):
            server.add_batch(db[lo : lo + chunk])
            _BENCH_LOG.info("shard-bench-build", inserted=min(lo + chunk, n_db), total=n_db)
        build_seconds = time.perf_counter() - build_start

        sharded_seconds, results = _drive_closed_loop(
            lambda i: server.topk(queries[i], k=k), n_queries, workers
        )
        # Per-shard time attribution from the stitched traces, while the
        # sharded phase's traces are still the newest in the ring.
        shard_attribution = _shard_attribution(
            tracer.recent(n=n_queries, name="serve.topk") if tracing else ()
        )
        if trace_log is not None:
            tracer.configure(log_path=None)  # flush + close the JSONL log

        # --- correctness riders (non-timed) --------------------------------
        # Exact reference: the coordinator's retained embedding blocks,
        # reassembled into gid order — brute force over them is the ground
        # truth the merged answers are scored against.
        emb_by_gid = np.zeros((n_db, dim))
        for handle in server._handles:
            block, gids = handle.block()
            emb_by_gid[gids] = block
        # In-process replicas of every shard graph (also the control arm),
        # searched as their workers search them.
        replicas = [server.dump_shard(i) for i in range(shards)]

        def inline_topk(embedding: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
            """The coordinator merge over in-process shard replicas."""
            answers = [replica.search(embedding, k) for replica in replicas]
            sq, gid = merge_topk([(a.sq, a.gids) for a in answers], min(k, n_db))
            # Squared L2 values are nonnegative by construction.
            return np.sqrt(sq), gid  # lint: allow(N002)

        checked = agree = 0
        recall_total = 0.0
        step = max(len(queries) // max(check_sample, 1), 1)
        for i in range(0, len(queries), step):
            result = results[i]
            if result is None or result.degraded:
                continue
            cached = server.cache.get(trajectory_key(queries[i]))
            if cached is None:
                continue
            checked += 1
            in_dists, in_gids = inline_topk(cached)
            if np.array_equal(result.ids, in_gids) and np.array_equal(
                result.distances, in_dists
            ):
                agree += 1
            sq = ((emb_by_gid - cached[None, :]) ** 2).sum(axis=1)
            exact = np.argsort(sq, kind="stable")[: min(k, n_db)]
            recall_total += len(set(result.ids) & set(exact)) / max(len(exact), 1)

        # --- single-interpreter control arm (workers idle) ------------------
        def single_serve(i: int) -> object:
            embedding = np.asarray(encoder([queries[i]]), dtype=np.float64)[0]
            return inline_topk(embedding)

        single_seconds, single_results = _drive_closed_loop(
            single_serve, n_queries, workers
        )
        single_dropped = sum(1 for r in single_results if r is None)
        if single_dropped:
            raise RuntimeError(f"control arm dropped {single_dropped} queries")

        result = ShardBenchResult(
            n_db=n_db,
            n_queries=n_queries,
            shards=shards,
            workers=workers,
            k=k,
            build_seconds=build_seconds,
            sharded_seconds=sharded_seconds,
            single_seconds=single_seconds,
            recall_at_k=recall_total / checked if checked else 0.0,
            agreement=agree / checked if checked else 0.0,
            checked=checked,
            cpu_count=cpu_count,
            shard_attribution=shard_attribution,
            **_tally(results),
        )
        if slos is None:
            slos = (
                tuple(DEFAULT_SERVE_SLOS)
                + tuple(DEFAULT_SHARD_SLOS)
                + tuple(DEFAULT_MEMORY_SLOS)
            )
        return _finish(result, server, slos, tracer, registry, metrics_out, enforce_slos)
    finally:
        sys.setswitchinterval(switch_before)
        tracer.set_enabled(tracing_before)
        if trace_log is not None:
            tracer.configure(log_path=None)
        server.close()


def format_shard_bench(result: ShardBenchResult) -> str:
    """Human-readable shard-bench report (what the CLI prints)."""
    lines = [
        f"shard-bench: {result.n_queries} queries x {result.workers} workers "
        f"over {result.n_db} trajectories in {result.shards} shards "
        f"({result.cpu_count} cpu)",
        f"  sharded   {result.sharded_qps:10.1f} qps "
        f"({result.sharded_seconds:.3f}s total)",
        f"  single    {result.single_qps:10.1f} qps "
        f"(same graphs, {result.workers} threads, one interpreter)",
        f"  speedup   {result.speedup:10.2f}x  (build {result.build_seconds:.1f}s)",
        f"  latency   p50 {result.latency_p50 * 1e3:8.2f} ms   "
        f"p99 {result.latency_p99 * 1e3:8.2f} ms",
        f"  quality   agreement {result.agreement:.3f}, "
        f"recall@{result.k} {result.recall_at_k:.3f} "
        f"({result.checked} checked)",
        f"  health    completed {result.completed}/{result.n_queries}, "
        f"dropped {result.dropped}, degraded {result.degraded}",
        f"  memory    {result.bytes_per_trajectory:,.0f} B/trajectory accounted, "
        f"peak rss {result.peak_rss_bytes / (1024 * 1024):,.1f} MiB",
    ]
    if result.shard_attribution:
        lines.append(
            "  shard      gathers   wait-ms    ipc-ms  search-ms   dead  deadline"
        )
        for shard in sorted(result.shard_attribution):
            row = result.shard_attribution[shard]
            lines.append(
                f"  shard-{shard:<4d} {row['gathers']:8.0f}  "
                f"{row['mean_wait_s'] * 1e3:8.2f}  {row['mean_ipc_s'] * 1e3:8.2f}  "
                f"{row['mean_search_s'] * 1e3:9.2f}  {row['dead']:5.0f}  "
                f"{row['deadline']:8.0f}"
            )
    if result.slo_statuses:
        lines.append(format_slos(result.slo_statuses))
    return "\n".join(lines)
