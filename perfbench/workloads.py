"""The benchmark's workloads: the paper pipeline and two serving mixes.

Every workload takes its inputs from the seed, makes one untimed warm-up
call before each timed phase, spreads its latency samples over the whole
run, checks every output, and returns a :class:`Report`.  The serving
workloads size their load so that it lasts about ``--seconds`` on 2 vCPUs;
train-dtw's pipeline is fixed work and ``--seconds`` sets its number of
timed ``encode`` calls.  The program is reached only through the public
functions of ``repro.data``, ``repro.metrics``, ``repro.core``,
``repro.eval`` and ``repro.serve.SimilarityServer``.

``trace=False`` measures the end-to-end metrics.  ``trace=True`` runs the
same timed phases twice, plain and then with :class:`layers.LayerTimer`
hooks installed, and reports the per-layer metrics plus the difference
between the two passes as ``trace_overhead_pct``.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core import TMN, TMNConfig, Trainer, pair_distance_matrix
from repro.data import make_dataset, prepare
from repro.eval import embedding_distance_matrix, hitting_ratio, recall_k_at_t
from repro.metrics import MetricSpec, cross_distance_matrix, get_metric, pairwise_distance_matrix
from repro.serve import SimilarityServer

from layers import LayerTimer

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: Relative and absolute tolerance for values recomputed in another batch
#: layout (padding changes the summation order in the last digits).
RTOL, ATOL = 1e-6, 1e-9


@dataclass
class Report:
    """Metrics, operation counts and named check failures of one run."""

    metrics: Dict[str, Optional[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    #: Lines for standard error, such as the sample count behind a percentile.
    notes: List[str] = field(default_factory=list)

    def check(self, name: str, ok) -> None:
        """Count one checked operation; a failure is tallied under ``name``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures[name] += 1

    def check_all(self, name: str, oks) -> None:
        for ok in np.asarray(oks, dtype=bool).ravel():
            self.check(name, ok)


def _points(dataset) -> List[np.ndarray]:
    return [t.points for t in dataset]


def _median_setup(setup: Callable[[], object]):
    """Run ``setup`` SETUP_REPEATS times; returns (median seconds, results).

    Garbage (autograd graphs hold reference cycles) is collected after
    each set-up, so one set-up's leftovers do not land in the next one or
    in the timed phases, and peak RSS repeats closely.
    """
    seconds, results = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        results.append(setup())
        seconds.append(time.perf_counter() - start)
        gc.collect()
    return statistics.median(seconds), results


def _latency_ms(seconds: List[float]):
    """Mean and 90th percentile in ms.

    The mean, not the median: the shared host's speed switches between two
    states for tens of seconds at a time, so a run's samples mix two modes;
    their median jumps from one mode to the other as the mix passes half,
    while the mean moves in proportion to it.
    """
    arr = np.asarray(seconds) * 1000.0
    return float(arr.mean()), float(np.percentile(arr, 90))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# train-dtw: exact DTW ground truth, TMN training, pairwise evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrainSizes:
    n_raw: int = 800
    n_train: int = 150
    n_test: int = 200
    hidden_dim: int = 32
    epochs: int = 6
    sampling_number: int = 10
    dtw_samples: int = 24
    #: Timed ``encode`` calls per second of ``--seconds``.
    encode_rate: float = 40.0
    warm: int = 24


TRAIN_TINY = TrainSizes(n_raw=220, n_train=30, n_test=60, hidden_dim=8, epochs=1, dtw_samples=4, encode_rate=20.0, warm=12)

#: Trajectories per timed ``encode`` call of train-dtw.  A batch costs about
#: its longest member, so the latency varies less with the seed's length mix
#: than a one-trajectory encode does.
ENCODE_BATCH = 8


def _train_config(sizes: TrainSizes, seed: int, epochs: int) -> TMNConfig:
    return TMNConfig(
        hidden_dim=sizes.hidden_dim,
        epochs=epochs,
        sampling_number=sizes.sampling_number,
        seed=seed,
    )


class _EncodeBursts:
    """The timed ``encode`` calls of train-dtw, made in bursts spread over the pass.

    The host's speed drifts over tens of seconds, so latency samples taken
    in one block would see one moment of it; spread between the phases
    (before and after each exact-DTW matrix, after every training epoch and
    after the pairwise evaluation) they span the same time as ``ops_per_s``.
    Each burst is checked against an encode of the whole test set by the
    model as it is at that moment.
    """

    def __init__(self, model, test, batches, n_bursts: int, report: Report, phase):
        self.model, self.test, self.report, self.phase = model, test, report, phase
        self.todo = list(batches)
        self.per_burst = math.ceil(len(self.todo) / n_bursts)
        self.latencies: List[float] = []
        #: Wall seconds spent in bursts and their checks.
        self.seconds = 0.0

    def __call__(self, *_args) -> None:
        begin = time.perf_counter()
        resume = self.phase("encode")
        burst, self.todo = self.todo[: self.per_burst], self.todo[self.per_burst :]
        encoded = []
        for idx in burst:
            start = time.perf_counter()
            emb = self.model.encode([self.test[i] for i in idx])
            self.latencies.append(time.perf_counter() - start)
            encoded.append(emb)
        self.phase("checks")
        reference = self.model.encode(self.test)
        for idx, emb in zip(burst, encoded):
            self.report.check("encode-batch-layout", np.allclose(emb, reference[idx], rtol=RTOL, atol=ATOL))
        self.phase(resume)
        self.seconds += time.perf_counter() - begin


def _paper_pass(train, test, sizes, seed, seconds, report: Report, timer: Optional[LayerTimer]):
    """The timed phases of train-dtw; returns seconds, pair counts and outputs."""
    current = ["setup"]

    def phase(name):
        """Switch the timer's phase; returns the one it replaces."""
        previous, current[0] = current[0], name
        if timer is not None:
            timer.phase(name)
        return previous

    out: Dict[str, object] = {}
    cfg = _train_config(sizes, seed, sizes.epochs)
    model = TMN(cfg)
    n_tr, n_te = len(train), len(test)
    rng = np.random.default_rng(seed + 5)
    n_calls = max(4, round(sizes.encode_rate * seconds))
    batches = [rng.choice(n_te, size=ENCODE_BATCH, replace=False) for _ in range(n_calls)]
    bursts = _EncodeBursts(model, test, batches, sizes.epochs + 4, report, phase)

    bursts()
    phase("gt")
    start = time.perf_counter()
    d_train = pairwise_distance_matrix(train, "dtw")
    gt_s = time.perf_counter() - start
    bursts()
    start = time.perf_counter()
    d_test = pairwise_distance_matrix(test, "dtw")
    out["gt_s"] = gt_s + time.perf_counter() - start
    bursts()

    phase("setup")
    metric = get_metric("dtw")
    if timer is not None:
        metric = MetricSpec(metric.name, metric.scalar, timer.timed("prefix", metric.batch), metric.params)
    trainer = Trainer(model, cfg, metric=metric)
    phase("train")
    in_bursts = bursts.seconds
    start = time.perf_counter()
    history = trainer.fit(train, distances=d_train, on_epoch=bursts)
    out["train_s"] = time.perf_counter() - start - (bursts.seconds - in_bursts)

    phase("eval")
    start = time.perf_counter()
    predicted = pair_distance_matrix(model, test)
    out["eval_s"] = time.perf_counter() - start
    while bursts.todo:
        bursts()
    phase("checks")

    out["gt_pairs"] = n_tr * (n_tr - 1) // 2 + n_te * (n_te - 1) // 2
    out["train_pairs"] = len(history.epoch_losses) * n_tr * sizes.sampling_number
    out["eval_pairs"] = n_te * (n_te - 1) // 2
    out["steps"] = len(history.epoch_losses) * math.ceil(n_tr / cfg.batch_anchors)
    out["encode_latencies"] = bursts.latencies
    elapsed = out["gt_s"] + out["train_s"] + out["eval_s"]
    out["ops_per_s"] = (out["gt_pairs"] + out["train_pairs"] + out["eval_pairs"]) / elapsed

    # Output checks (untimed).
    scalar = get_metric("dtw")
    rng = np.random.default_rng(seed + 7)
    for name, trajs, d in (("dtw-train", train, d_train), ("dtw-test", test, d_test)):
        report.check(
            f"{name}-matrix",
            np.all(np.isfinite(d)) and np.array_equal(d, d.T) and not np.any(np.diag(d)),
        )
        for _ in range(sizes.dtw_samples // 2):
            i, j = rng.choice(len(trajs), size=2, replace=False)
            report.check(f"{name}-entry", np.isclose(d[i, j], scalar(trajs[i], trajs[j]), rtol=1e-9, atol=1e-12))
    report.check("epochs-run", len(history.epoch_losses) == sizes.epochs)
    report.check_all("loss-finite", np.isfinite(history.epoch_losses))
    report.check(
        "pair-matrix",
        np.all(np.isfinite(predicted)) and np.allclose(predicted, predicted.T, rtol=RTOL, atol=ATOL)
        and not np.any(np.diag(predicted)) and np.all(predicted >= 0),
    )
    self_emb = model.encode(test)

    out["hr10"] = hitting_ratio(d_test, predicted, 10)
    out["hr50"] = hitting_ratio(d_test, predicted, 50)
    out["r10at50"] = recall_k_at_t(d_test, predicted, 10, 50)
    out["self_hr10"] = hitting_ratio(d_test, embedding_distance_matrix(self_emb), 10)
    return out


def train_dtw(seed: int, seconds: float, trace: bool, sizes: TrainSizes = TrainSizes()) -> Report:
    """Paper pipeline: fixed-size DTW, training and evaluation phases, with
    ``encode_rate * seconds`` timed ``encode`` calls spread between them."""
    report = Report()
    raw = make_dataset("porto", sizes.n_raw, seed=seed)

    def setup():
        corpus, _ = prepare(raw)
        pts = _points(corpus)
        if len(pts) < sizes.n_train + sizes.n_test:
            raise RuntimeError(f"seed {seed} kept only {len(pts)} trajectories")
        TMN(_train_config(sizes, seed, sizes.epochs))
        return pts[: sizes.n_train], pts[sizes.n_train : sizes.n_train + sizes.n_test]

    setup_s, results = _median_setup(setup)
    train, test = results[-1]

    # Warm-up: one untimed call of every timed phase, on a slice.
    warm_train = train[: sizes.warm]
    d_warm = pairwise_distance_matrix(warm_train, "dtw")
    warm_cfg = _train_config(sizes, seed, 1)
    warm_model = TMN(warm_cfg)
    Trainer(warm_model, warm_cfg).fit(warm_train, distances=d_warm)
    pair_distance_matrix(warm_model, test[: sizes.warm])
    warm_model.encode(test[:ENCODE_BATCH])

    gc.collect()
    plain = _paper_pass(train, test, sizes, seed, seconds, report, None)
    if not trace:
        mean, p90 = _latency_ms(plain["encode_latencies"])
        report.notes.append(f"mean_ms/p90_ms over {len(plain['encode_latencies'])} encode calls")
        report.metrics.update(
            setup_s=setup_s, ops_per_s=plain["ops_per_s"], mean_ms=mean, p90_ms=p90,
            hr10=plain["hr10"], hr50=plain["hr50"], r10at50=plain["r10at50"],
        )
        return report

    timer = LayerTimer()
    gc.collect()
    timer.install()
    try:
        traced = _paper_pass(train, test, sizes, seed, seconds, report, timer)
    finally:
        timer.uninstall()
    report.metrics.update(_train_layers(traced, timer))
    report.metrics["trace_overhead_pct"] = 100.0 * (plain["ops_per_s"] / traced["ops_per_s"] - 1.0)
    report.metrics["core.model.self_hr10"] = traced["self_hr10"]
    return report


#: Per-step layers of a training step, each timed at its own entry point.
STEP_LAYERS = {
    "metrics.prefix_ms_per_step": "prefix",
    "core.sampling.ms_per_step": "sample",
    "data.batching.pair_batch_ms_per_step": "pair_batch",
    "core.model.forward_ms_per_step": "forward",
    "autograd.backward_ms_per_step": "backward",
    "optim.clip_ms_per_step": "clip",
    "optim.adam_ms_per_step": "adam",
}
#: Metrics of the serving layers, idle on train-dtw.
SERVE_LAYERS = (
    "serve.batcher.batch_size_mean", "serve.cache.get_us", "serve.cache.hit_share", "index.hnsw.query_ms",
    "index.hnsw.add_ms", "serve.engine.add_p50_ms", "serve.engine.wait_ms", "serve.engine.degraded_calls",
)
#: Sub-layers of one TMN forward.
FORWARD_LAYERS = {
    "nn.point_embed_ms": "point_embed",
    "nn.cross_match_ms": "cross_match",
    "nn.lstm_ms": "lstm",
    "nn.mlp_ms": "mlp",
}


def _train_layers(out, timer: LayerTimer) -> Dict[str, Optional[float]]:
    missing = set(timer.missing)
    m: Dict[str, Optional[float]] = {
        "metrics.dp_pairs_per_s": out["gt_pairs"] / out["gt_s"],
        "core.trainer.train_pairs_per_s": out["train_pairs"] / out["train_s"],
        "core.model.eval_pairs_per_s": out["eval_pairs"] / out["eval_s"],
        "core.model.encode_ms_per_batch": 1000.0 * statistics.fmean(out["encode_latencies"]),
    }
    steps = out["steps"]
    covered = 0.0
    for metric, hook in STEP_LAYERS.items():
        busy = timer.seconds(hook, "train")
        covered += busy
        m[metric] = None if hook in missing else _per(busy, steps, 1000.0)
    step_missing = missing & set(STEP_LAYERS.values())
    m["core.trainer.self_ms_per_step"] = None if step_missing else _per(out["train_s"] - covered, steps, 1000.0)
    forwards = timer.calls("forward", "train", "eval")
    for metric, hook in FORWARD_LAYERS.items():
        busy = timer.seconds(hook, "train", "eval")
        m[metric] = None if {hook, "forward"} & missing else _per(busy, forwards, 1000.0)
    train_forwards = timer.calls("forward", "train")
    for metric, hook in (("nn.cross_match_calls_per_forward", "cross_match"), ("nn.lstm_calls_per_forward", "lstm")):
        m[metric] = None if {hook, "forward"} & missing else _per(timer.calls(hook, "train"), train_forwards)
    # The serving layers are idle on this workload.
    for metric in SERVE_LAYERS:
        m[metric] = 0.0
    return m


# ----------------------------------------------------------------------
# serve-miss / serve-hot-mixed: SimilarityServer over TMN embeddings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeSizes:
    n_train: int = 60
    n_store: int = 2000
    hidden_dim: int = 32
    epochs: int = 1
    sampling_number: int = 10
    #: Completed operations per second on 2 vCPUs of a shared host; the run
    #: sends ``rate * seconds`` operations so that the load lasts about
    #: ``seconds``.
    miss_rate: float = 250.0
    hot_rate: float = 650.0
    hot_set: int = 500
    quality_queries: int = 50
    self_queries: int = 8
    warm: int = 32


SERVE_TINY = ServeSizes(n_train=24, n_store=150, hidden_dim=8, epochs=1, miss_rate=60.0, hot_rate=80.0,
                        hot_set=16, quality_queries=8, self_queries=2, warm=4)

#: serve-hot-mixed operation mix: adds, never-seen queries, repeated hot queries.
ADD_SHARE, MISS_SHARE = 0.10, 0.06
ZIPF_EXPONENT = 0.8


class _Encoder:
    """Timing ``encode_fn`` for the traced server: one record per encode batch."""

    def __init__(self, model, timer: LayerTimer):
        self.model = model
        self.timer = timer
        self.adding = threading.local()

    def __call__(self, trajs):
        start = time.perf_counter()
        out = self.model.encode(trajs)
        elapsed = time.perf_counter() - start
        in_add = getattr(self.adding, "on", False)
        self.timer.add("encode_add" if in_add else "encode_queue", elapsed)
        if not in_add:
            self.timer.add("encode_queue_weighted", elapsed * len(trajs))
            self.timer.add("encode_queue_items", 0.0, calls=len(trajs))
        return out


def _build_server(pts, sizes: ServeSizes, seed: int, timer: Optional[LayerTimer]):
    train = pts[: sizes.n_train]
    store = pts[sizes.n_train : sizes.n_train + sizes.n_store]
    cfg = TMNConfig(hidden_dim=sizes.hidden_dim, epochs=sizes.epochs, sampling_number=sizes.sampling_number, seed=seed)
    model = TMN(cfg)
    Trainer(model, cfg).fit(train)
    encoder = _Encoder(model, timer) if timer is not None else None
    server = SimilarityServer(encoder if encoder is not None else model, sizes.hidden_dim, seed=seed)
    try:
        server.add_batch(store)
    except BaseException:
        server.close()
        raise
    return {"server": server, "model": model, "encoder": encoder, "store": list(store), "pts": pts}


class _Load:
    """Results of one load pass, checked segment by segment."""

    def __init__(self, db_size: int, fresh):
        self.lock = threading.Lock()
        self.topk: List[tuple] = []  # (query, k, result, db size, seconds)
        self.add_seconds: List[float] = []
        self.added: List[np.ndarray] = []
        self.add_ids: List[int] = []
        self.elapsed = 0.0
        self.db_size = db_size
        self.fresh = iter(fresh)
        #: How many topk results and adds the checks have covered.
        self.checked_topk = 0
        self.checked_adds = 0

    @property
    def ops(self) -> int:
        return len(self.topk) + len(self.add_seconds)


def _timed_topk(server, load: _Load, traj, k: int, db_size: int) -> None:
    start = time.perf_counter()
    result = server.topk(traj, k=k)
    seconds = time.perf_counter() - start
    with load.lock:
        load.topk.append((traj, k, result, db_size, seconds))


def _miss_segment(server, load: _Load, queries, clients: int = 2) -> None:
    """Closed loop: each client sends its share of never-seen queries, k=10."""
    errors: List[BaseException] = []
    barrier = threading.Barrier(clients + 1)

    def client(part):
        try:
            barrier.wait()
            for q in part:
                _timed_topk(server, load, q, 10, load.db_size)
        except BaseException as exc:  # reported after join
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(queries[c::clients],), name=f"perfbench-client-{c}")
               for c in range(clients)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join(timeout=150.0)
    load.elapsed += time.perf_counter() - start
    if errors or any(t.is_alive() for t in threads):
        raise RuntimeError(f"load client failed: {errors[:1]}")


def _hot_ops(rng: np.random.Generator, n_ops: int, hot_set: int):
    """Deterministic serve-hot-mixed stream: ('add'|'miss'|'hit', hot rank)."""
    weights = 1.0 / np.arange(1, hot_set + 1) ** ZIPF_EXPONENT
    ranks = rng.choice(hot_set, size=n_ops, p=weights / weights.sum())
    draws = rng.random(n_ops)
    kinds = np.where(draws < ADD_SHARE, "add", np.where(draws < ADD_SHARE + MISS_SHARE, "miss", "hit"))
    return list(zip(kinds.tolist(), ranks.tolist()))


def _hot_segment(server, load: _Load, ops, hot, encoder) -> None:
    """One closed-loop client: Zipf hot repeats, never-seen queries and adds."""
    start = time.perf_counter()
    for kind, rank in ops:
        if kind == "hit":
            _timed_topk(server, load, hot[rank], 10, load.db_size)
        elif kind == "miss":
            _timed_topk(server, load, next(load.fresh), 10, load.db_size)
        else:
            traj = next(load.fresh)
            if encoder is not None:
                encoder.adding.on = True
            t0 = time.perf_counter()
            try:
                node = server.add(traj)
            finally:
                if encoder is not None:
                    encoder.adding.on = False
            load.add_seconds.append(time.perf_counter() - t0)
            load.added.append(traj)
            load.add_ids.append(node)
            load.db_size += 1
    load.elapsed += time.perf_counter() - start


def _check_load(ctx, load: _Load, report: Report) -> None:
    """Check the results since the last check: every add got the next id;
    every topk is not degraded and returns k unique in-range ids whose
    distances equal the recomputed L2."""
    model, n_store = ctx["model"], len(ctx["store"])
    new_ids = load.add_ids[load.checked_adds :]
    first = n_store + load.checked_adds
    report.check_all("add-id", np.asarray(new_ids) == np.arange(first, first + len(new_ids)))
    if new_ids:
        ctx["vectors"] = np.concatenate([ctx["vectors"], model.encode(load.added[load.checked_adds :])], axis=0)
    load.checked_adds = len(load.add_ids)
    vectors = ctx["vectors"]
    todo, load.checked_topk = load.topk[load.checked_topk :], len(load.topk)
    unique = {id(q): q for q, *_ in todo}
    if not unique:
        return
    row = {key: i for i, key in enumerate(unique)}
    q_emb = model.encode(list(unique.values()))
    for q, k, result, db_size, _ in todo:
        emb = q_emb[row[id(q)]]
        ids = np.asarray(result.ids)
        ok = (
            not result.degraded
            and ids.shape == (k,)
            and len(set(ids.tolist())) == k
            and ids.min() >= 0
            and ids.max() < db_size
        )
        if ok:
            expect = np.sqrt(((vectors[ids] - emb) ** 2).sum(axis=1))
            ok = np.allclose(result.distances, expect, rtol=RTOL, atol=ATOL) and np.all(np.diff(result.distances) >= -ATOL)
        report.check("topk-answer" if not result.degraded else "topk-degraded", ok)


def _quality(ctx, sample, report: Report, n_self: int) -> Dict[str, float]:
    """Served top-10/top-50 against brute force over the same embeddings.

    Measured single-threaded after the load phase on never-seen queries,
    so each is encoded alone and the figures repeat exactly for a seed.
    With ``n_self`` > 0 the served top-10 of the first ``n_self`` queries
    is also compared with the exact-DTW top-10 over the whole store.
    """
    server, model, vectors = ctx["server"], ctx["model"], ctx["vectors"]
    hr, hr50, rec, served = [], [], [], []
    for q in sample:
        top10 = server.topk(q, k=10)
        emb = server.encode(q)
        report.check("encode-matches-model", np.allclose(emb, model.encode([q])[0], rtol=1e-12, atol=1e-12))
        top50 = server.topk(q, k=50)
        for res, k in ((top10, 10), (top50, 50)):
            report.check("quality-topk", not res.degraded and len(set(np.asarray(res.ids).tolist())) == k)
        order = np.argsort(((vectors - emb) ** 2).sum(axis=1), kind="stable")
        brute, served50 = set(order[:10].tolist()), set(np.asarray(top50.ids).tolist())
        hr.append(len(brute & set(np.asarray(top10.ids).tolist())) / 10.0)
        hr50.append(len(set(order[:50].tolist()) & served50) / 50.0)
        rec.append(len(brute & served50) / 10.0)
        served.append(set(np.asarray(top10.ids).tolist()))
    out = {"hr10": float(np.mean(hr)), "hr50": float(np.mean(hr50)), "r10at50": float(np.mean(rec))}
    if n_self:
        exact = cross_distance_matrix(sample[:n_self], ctx["trajs"], "dtw")
        out["self_hr10"] = float(np.mean([
            len(set(np.argsort(row, kind="stable")[:10].tolist()) & ids) / 10.0
            for row, ids in zip(exact, served)
        ]))
    return out


def _load_pass(kind, ctx, work, warm, hot, pool, report: Report, between, timer, n_self: int):
    """Warm up, then send ``work`` in segments with the untimed jobs of
    ``between`` and a check of the results so far after each segment.

    The host's speed drifts over tens of seconds; spreading the load over
    the run's set-ups and checks lets its latency samples span that drift
    rather than one moment of it.  A timed (traced) pass runs in one
    segment, so its hooks are installed once.
    """
    server, encoder = ctx["server"], ctx["encoder"]
    traced = encoder is not None
    ctx["vectors"] = ctx["model"].encode(ctx["store"], batch_size=32)
    # Warm-up: one untimed round of the phase's calls.  The hot set is
    # queried once, so its repeats are cache hits as in steady state.
    for q in warm + hot:
        server.topk(q, k=10)
    gc.collect()
    load = _Load(len(ctx["store"]), pool)
    jobs = [job for step in between for job in (lambda: _check_load(ctx, load, report), step)]
    n_seg = len(jobs) + 1
    for i in range(n_seg):
        part = work[i * len(work) // n_seg : (i + 1) * len(work) // n_seg]
        if traced:
            timer.install()
            timer.phase("load")
        try:
            if kind == "miss":
                _miss_segment(server, load, part)
            else:
                _hot_segment(server, load, part, hot, encoder)
        finally:
            if traced:
                timer.phase("checks")
                timer.uninstall()
        if i < len(jobs):
            jobs[i]()
            gc.collect()
    _check_load(ctx, load, report)
    ctx["trajs"] = ctx["store"] + load.added
    return load, _quality(ctx, ctx["quality_sample"], report, n_self)


def _serve(kind: str, seed: int, seconds: float, trace: bool, sizes: ServeSizes) -> Report:
    report = Report()
    if kind == "miss":
        n_ops = max(4, round(sizes.miss_rate * seconds))
        n_pool = n_ops
    else:
        n_ops = max(4, round(sizes.hot_rate * seconds))
        n_pool = sizes.hot_set + int(n_ops * (ADD_SHARE + MISS_SHARE) * 1.3) + 50
    n_fresh = sizes.quality_queries + sizes.warm + n_pool
    raw = make_dataset("porto", int((sizes.n_train + sizes.n_store + n_fresh) * 1.7) + 200, seed=seed)
    timer = LayerTimer() if trace else None
    servers: List[dict] = []
    setup_seconds: List[float] = []

    def setup(timed: bool = False) -> dict:
        start = time.perf_counter()
        pts = _points(prepare(raw)[0])
        if len(pts) < sizes.n_train + sizes.n_store + n_fresh:
            raise RuntimeError(f"seed {seed} kept only {len(pts)} trajectories")
        ctx = _build_server(pts, sizes, seed, timer if timed else None)
        servers.append(ctx)
        setup_seconds.append(time.perf_counter() - start)
        # Autograd graphs hold reference cycles; collect them here so they
        # land in neither the next set-up nor the load.
        gc.collect()
        return ctx

    def throwaway_setup() -> None:
        setup()["server"].close()

    def traced_setup() -> None:
        setup(timed=True)

    try:
        # Set-up runs SETUP_REPEATS times and its median is reported; the
        # repeats after the first run between the load segments of the
        # server the first one built.  In a traced run the last repeat
        # builds the server the hooks time and is kept.
        ctx = setup()
        fresh = ctx["pts"][sizes.n_train + sizes.n_store :]
        ctx["quality_sample"] = fresh[: sizes.quality_queries]
        warm = fresh[sizes.quality_queries : sizes.quality_queries + sizes.warm]
        pool = fresh[sizes.quality_queries + sizes.warm :]
        hot: list = []
        if kind == "miss":
            work, pool = pool[:n_ops], []
        else:
            hot, pool = pool[: sizes.hot_set], pool[sizes.hot_set :]
            work = _hot_ops(np.random.default_rng(seed + 11), n_ops, sizes.hot_set)
        repeats = [throwaway_setup] * (SETUP_REPEATS - 1)
        if trace:
            repeats[-1] = traced_setup
        passes = [_load_pass(kind, ctx, work, warm, hot, pool, report, repeats, timer, 0)]
        if trace:
            traced_ctx = servers[-1]
            traced_ctx["quality_sample"] = ctx["quality_sample"]
            passes.append(_load_pass(kind, traced_ctx, work, warm, hot, pool, report, [], timer, sizes.self_queries))
    finally:
        for built in servers:
            built["server"].close()

    load, quality = passes[0]
    ops_per_s = load.ops / load.elapsed
    if not trace:
        mean, p90 = _latency_ms([s for *_, s in load.topk])
        report.notes.append(f"mean_ms/p90_ms over {len(load.topk)} topk calls")
        report.metrics.update(
            setup_s=statistics.median(setup_seconds), ops_per_s=ops_per_s, mean_ms=mean, p90_ms=p90,
            hr10=quality["hr10"], hr50=quality["hr50"], r10at50=quality["r10at50"],
        )
        return report
    traced_load, traced_quality = passes[1]
    report.metrics.update(_serve_layers(traced_load, timer, traced_quality))
    report.metrics["trace_overhead_pct"] = 100.0 * (ops_per_s / (traced_load.ops / traced_load.elapsed) - 1.0)
    return report


def _serve_layers(load: _Load, timer: LayerTimer, quality) -> Dict[str, Optional[float]]:
    missing = set(timer.missing)
    n_topk = len(load.topk)
    m: Dict[str, Optional[float]] = {name: 0.0 for name in STEP_LAYERS}
    m.update({
        "metrics.dp_pairs_per_s": 0.0,
        "core.trainer.self_ms_per_step": 0.0,
        "core.trainer.train_pairs_per_s": 0.0,
        "core.model.eval_pairs_per_s": 0.0,
        "core.model.self_hr10": quality["self_hr10"],
    })
    batches = timer.calls("encode_queue", "load") + timer.calls("encode_add", "load")
    encode_s = timer.seconds("encode_queue", "load") + timer.seconds("encode_add", "load")
    m["core.model.encode_ms_per_batch"] = _per(encode_s, batches, 1000.0)
    m["serve.batcher.batch_size_mean"] = _per(
        timer.calls("encode_queue_items", "load"), timer.calls("encode_queue", "load")
    )
    for metric, hook in FORWARD_LAYERS.items():
        m[metric] = None if hook in missing else _per(timer.seconds(hook, "load"), batches, 1000.0)
    for metric, hook in (("nn.cross_match_calls_per_forward", "cross_match"), ("nn.lstm_calls_per_forward", "lstm")):
        m[metric] = None if hook in missing else _per(timer.calls(hook, "load"), batches)
    for metric, hook, scale in (("serve.cache.get_us", "cache_get", 1e6),
                                ("index.hnsw.query_ms", "hnsw_query", 1e3),
                                ("index.hnsw.add_ms", "hnsw_add", 1e3)):
        m[metric] = None if hook in missing else _per(timer.seconds(hook, "load"), timer.calls(hook, "load"), scale)
    m["serve.cache.hit_share"] = _per(sum(1 for _, _, r, _, _ in load.topk if r.cache_hit), n_topk)
    m["serve.engine.add_p50_ms"] = 1000.0 * float(np.percentile(load.add_seconds, 50)) if load.add_seconds else 0.0
    if {"cache_get", "hnsw_query"} & missing:
        m["serve.engine.wait_ms"] = None
    else:
        mean_topk = statistics.fmean(s for *_, s in load.topk)
        covered = (
            timer.seconds("cache_get", "load")
            + timer.seconds("encode_queue_weighted", "load")
            + timer.seconds("hnsw_query", "load")
        ) / n_topk
        m["serve.engine.wait_ms"] = 1000.0 * (mean_topk - covered)
    m["serve.engine.degraded_calls"] = None if "degraded" in missing else float(timer.calls("degraded", "load"))
    return m


def serve_miss(seed: int, seconds: float, trace: bool, sizes: ServeSizes = ServeSizes()) -> Report:
    return _serve("miss", seed, seconds, trace, sizes)


def serve_hot_mixed(seed: int, seconds: float, trace: bool, sizes: ServeSizes = ServeSizes()) -> Report:
    return _serve("hot", seed, seconds, trace, sizes)


WORKLOADS = {
    "train-dtw": (train_dtw, TRAIN_TINY),
    "serve-miss": (serve_miss, SERVE_TINY),
    "serve-hot-mixed": (serve_hot_mixed, SERVE_TINY),
}
