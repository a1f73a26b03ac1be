"""Training loop for TMN and the baselines (Section IV-C/D).

The :class:`Trainer` is model-agnostic: anything implementing
:class:`~repro.core.model.TrajectoryPairModel` trains under the same
sampling strategies, similarity normalisation and loss functions, which is
what makes the paper's model comparisons meaningful.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..autograd import concat
from ..metrics import MetricSpec, get_metric, pairwise_distance_matrix, prefix_distances
from ..obs.log import get_logger
from ..obs.memory import MemoryTracker, alloc_span, update_memory_gauges
from ..obs.metrics import get_registry
from ..obs.trace import Trace, get_tracer, trace_span
from ..optim import Adam, clip_grad_norm
from .config import TMNConfig, alpha_for_metric
from .loss import pair_loss
from .model import TrajectoryPairModel
from .sampling import KDTreeSampler, PairSample, RankSampler
from .similarity import distance_to_similarity, predicted_similarity

__all__ = ["Trainer", "TrainingHistory"]

_log = get_logger("repro.trainer")


def _epoch_spans(trace: Trace) -> Dict[str, Dict[str, float]]:
    """Run-record span breakdown of one finished ``train.epoch`` trace.

    The trace root is keyed ``epoch`` and each span path under it
    ``epoch/<path>``, the keys run records and ``repro-tmn report``
    read.  Empty while the tracer is disabled.
    """
    totals = trace.totals()
    if not totals:
        return {}
    spans = {"epoch": {"seconds": trace.duration, "count": 1}}
    spans.update((f"epoch/{path}", stat) for path, stat in totals.items())
    return spans


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    metric: str
    epoch_losses: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    #: Mean pre-clip global gradient norm per epoch (same length as
    #: ``epoch_losses``) — the number ``clip_grad_norm`` used to discard.
    grad_norms: List[float] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def final_loss(self) -> float:
        """Mean loss of the last trained epoch."""
        if not self.epoch_losses:
            raise RuntimeError("no epochs recorded")
        return self.epoch_losses[-1]


class Trainer:
    """Fits a pair model to approximate one distance metric.

    Parameters
    ----------
    model:
        Any :class:`TrajectoryPairModel` (TMN or a baseline).
    config:
        Training hyper-parameters; ``config.sampler`` and ``config.loss``
        select the ablation variants.
    metric:
        Metric name or prepared :class:`MetricSpec` to learn.
    """

    def __init__(
        self,
        model: TrajectoryPairModel,
        config: TMNConfig,
        metric: Union[str, MetricSpec] = "dtw",
    ):
        self.model = model
        self.config = config
        self.metric = metric if isinstance(metric, MetricSpec) else get_metric(metric)
        self.alpha = config.alpha if config.alpha is not None else alpha_for_metric(self.metric.name)
        # The paper's alpha values (16 / 8) are calibrated to the raw
        # lon/lat scale of Geolife and Porto.  To stay faithful on any
        # coordinate scale, alpha is divided by the mean train-set distance
        # (fixed in :meth:`fit`) so that exp(-alpha_eff * D) spreads over
        # (0, 1) instead of collapsing to zero.
        self.effective_alpha: float = self.alpha
        self.optimizer = Adam(model.parameters(), lr=config.learning_rate)

    # ------------------------------------------------------------------
    def fit(
        self,
        train_trajs: Sequence,
        distances: Optional[np.ndarray] = None,
        verbose: bool = False,
        on_epoch: Optional[Callable[[dict], None]] = None,
        track_memory: bool = False,
    ) -> TrainingHistory:
        """Train the model on a trajectory collection.

        Parameters
        ----------
        train_trajs:
            Training trajectories (dataset, list of Trajectory, or arrays).
        distances:
            Optional precomputed ground-truth matrix ``D`` (saves the exact
            computation when several models share one training set).
        verbose:
            Log one structured event per epoch via :mod:`repro.obs.log`.
        on_epoch:
            Optional callback receiving one dict per epoch — ``{"epoch",
            "loss", "grad_norm", "seconds", "lr", "spans"}`` — the payload
            :class:`repro.obs.run.RunWriter` persists as a JSONL line.
            ``spans`` is the epoch's wall-time breakdown from its
            ``train.epoch`` trace (``epoch`` → ``sampling`` / ``batch`` →
            ``forward`` / ``loss`` / ``backward`` / ``optimizer``); it is
            ``{}`` while the tracer is disabled.
            With ``track_memory`` the payload also carries ``alloc_bytes``
            (the epoch's net Python-heap allocation delta).
        track_memory:
            Run the epochs under a tracemalloc
            :class:`~repro.obs.memory.MemoryTracker` (roughly doubles
            allocation cost — opt-in, exposed as ``train
            --track-memory``); each epoch's allocation delta lands in the
            ``mem.alloc.train.epoch`` histogram.
        """
        with contextlib.ExitStack() as memory_scope:
            if track_memory:
                memory_scope.enter_context(MemoryTracker())
            return self._fit(
                train_trajs, distances=distances, verbose=verbose, on_epoch=on_epoch
            )

    def _fit(
        self,
        train_trajs: Sequence,
        distances: Optional[np.ndarray],
        verbose: bool,
        on_epoch: Optional[Callable[[dict], None]],
    ) -> TrainingHistory:
        points = [t.points if hasattr(t, "points") else np.asarray(t, float) for t in train_trajs]
        if len(points) < self.config.sampling_number + 1:
            raise ValueError(
                f"need more than sampling_number={self.config.sampling_number} "
                f"training trajectories, got {len(points)}"
            )
        if distances is None:
            with get_tracer().trace("train.exact-metric", n=len(points)):
                distances = pairwise_distance_matrix(points, self.metric)
        distances = np.asarray(distances)
        if distances.shape != (len(points), len(points)):
            raise ValueError("distance matrix does not match the training set")

        positive = distances[distances > 0]
        scale = float(positive.mean()) if positive.size else 1.0
        self.effective_alpha = self.alpha / max(scale * 8.0, 1e-12)

        self.model.prepare(points)
        sampler = self._build_sampler(points, distances)
        rng = np.random.default_rng(self.config.seed + 1)
        history = TrainingHistory(metric=self.metric.name)

        self.model.train()
        metrics = get_registry()
        best_loss = np.inf
        stale_epochs = 0
        for _ in range(self.config.epochs):
            start = time.perf_counter()
            losses: List[float] = []
            norms: List[float] = []
            anchors = rng.permutation(len(points))
            # One trace per epoch: batch child spans (with forward/loss/
            # backward/optimizer grandchildren) make a slow epoch
            # inspectable via `repro-tmn trace`, and its totals are the
            # epoch's span breakdown.  The alloc span is a no-op unless
            # fit(track_memory=True) opened a tracemalloc session.
            epoch_alloc = alloc_span("train.epoch", registry=metrics)
            with epoch_alloc, get_tracer().trace(
                "train.epoch",
                epoch=len(history.epoch_losses) + 1,
                metric=self.metric.name,
            ) as epoch_trace:
                for chunk_start in range(0, len(anchors), self.config.batch_anchors):
                    batch_anchors = anchors[chunk_start : chunk_start + self.config.batch_anchors]
                    samples: List[PairSample] = []
                    with trace_span("sampling"):
                        for a in batch_anchors:
                            samples.extend(sampler.sample(int(a), rng))
                    with trace_span("batch") as batch_span:
                        loss_value, grad_norm = self._train_step(points, distances, samples)
                        batch_span.set(pairs=len(samples), loss=loss_value)
                    losses.append(loss_value)
                    norms.append(grad_norm)
                    metrics.counter("train.steps").inc()
                    metrics.counter("train.pairs").inc(len(samples))
                    metrics.histogram("train.grad_norm").observe(grad_norm)
                epoch_trace.set(
                    loss=float(np.mean(losses)), batches=len(losses)
                )
            history.epoch_losses.append(float(np.mean(losses)))
            history.epoch_seconds.append(time.perf_counter() - start)
            history.grad_norms.append(float(np.mean(norms)))
            metrics.counter("train.epochs").inc()
            metrics.gauge("train.last_loss").set(history.epoch_losses[-1])
            if verbose:
                _log.info(
                    "epoch",
                    metric=self.metric.name,
                    epoch=len(history.epoch_losses),
                    loss=history.epoch_losses[-1],
                    grad_norm=history.grad_norms[-1],
                    seconds=history.epoch_seconds[-1],
                )
            if epoch_alloc.tracked:
                update_memory_gauges(metrics)
            if on_epoch is not None:
                payload = {
                    "epoch": len(history.epoch_losses),
                    "loss": history.epoch_losses[-1],
                    "grad_norm": history.grad_norms[-1],
                    "seconds": history.epoch_seconds[-1],
                    "lr": self.optimizer.lr,
                    "spans": _epoch_spans(epoch_trace),
                }
                if epoch_alloc.tracked:
                    payload["alloc_bytes"] = epoch_alloc.net_bytes
                on_epoch(payload)
            if self.config.patience is not None:
                current = history.epoch_losses[-1]
                if current < best_loss - self.config.min_delta:
                    best_loss = current
                    stale_epochs = 0
                else:
                    stale_epochs += 1
                    if stale_epochs >= self.config.patience:
                        history.stopped_early = True
                        break
        self.model.eval()
        return history

    # ------------------------------------------------------------------
    def _build_sampler(self, points, distances):
        if self.config.sampler == "rank":
            return RankSampler(distances, sampling_number=self.config.sampling_number)
        return KDTreeSampler(
            points,
            distances,
            k_neighbors=self.config.kd_neighbors,
            n_far=self.config.kd_neighbors,
        )

    def _train_step(self, points, distances, samples: List[PairSample]):
        """One optimisation step; returns ``(loss, pre-clip grad norm)``.

        The loss reads each pair's final step and, for Eq. 15's prefix
        supervision, the step of every ``sub_stride`` cut (10, 20, ...)
        that both sides of the pair extend beyond.  The head maps only
        those rows, of both sides in one call.
        """
        from ..data.batching import pair_batch

        n = len(samples)
        with trace_span("forward"):
            trajs_a = [points[s.anchor] for s in samples]
            trajs_b = [points[s.sample] for s in samples]
            pa, la, ma, pb, lb, mb = pair_batch(trajs_a, trajs_b)
            out_a, out_b = self.model.forward_pair(pa, la, ma, pb, lb, mb)
            shortest = np.minimum(la, lb)
            top = shortest.max() if self.config.sub_loss else 0
            cuts = np.arange(self.config.sub_stride, top, self.config.sub_stride)
            cut_ks, cut_pairs = np.nonzero(shortest > cuts[:, None])  # cut-major
            rows = np.concatenate([np.arange(n), cut_pairs])
            steps = cuts[cut_ks] - 1
            emb = self.model.head(concat([
                out_a[rows, np.concatenate([la - 1, steps])],
                out_b[rows, np.concatenate([lb - 1, steps])],
            ], axis=0))
            pred = predicted_similarity(emb[: rows.size], emb[rows.size :])

        with trace_span("loss"):
            anchor_idx = np.array([s.anchor for s in samples])
            sample_idx = np.array([s.sample for s in samples])
            weights = np.array([s.weight for s in samples])
            true = distance_to_similarity(
                distances[anchor_idx, sample_idx], self.effective_alpha
            )

            loss = pair_loss(self.config.loss, pred[:n], true, weights)
            if cut_pairs.size:
                with trace_span("exact-metric"):
                    prefix = prefix_distances(self.metric, pa, pb, cut_pairs, cuts[cut_ks])
                true_sub = distance_to_similarity(prefix, self.effective_alpha)
                loss = loss + pair_loss(self.config.loss, pred[n:], true_sub, weights[cut_pairs])

        with trace_span("backward"):
            self.optimizer.zero_grad()
            loss.backward()
        with trace_span("optimizer"):
            grad_norm = clip_grad_norm(self.model.parameters(), self.config.grad_clip)
            self.optimizer.step()
        return float(loss.item()), float(grad_norm)
