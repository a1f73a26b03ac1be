"""Config-driven experiment runner: one function per paper table/figure.

Every run is deterministic given (scale, seed).  Ground-truth matrices are
cached per (dataset, metric) inside a :class:`Corpus`, since they dominate
the cost and are shared by all six models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import Trainer, pair_distance_matrix
from ..data import make_dataset, prepare
from ..eval import (
    evaluate_rankings,
    time_encoding,
    time_exact_metric,
    time_vector_similarity,
)
from ..metrics import pairwise_distance_matrix
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from .configs import MODEL_NAMES, Scale, build_model

_log = get_logger("repro.experiments")

__all__ = ["Corpus", "RunResult", "load_corpus", "run_model", "effectiveness_table", "efficiency_table"]

#: Evaluation bundle used throughout (scaled-down HR-10/HR-50/R10@50: with
#: ~50 test trajectories the paper's k = 50 would span the whole database,
#: so k is scaled to 5/10 with recall R5@10).
HR_KS = (5, 10)
RECALL = (5, 10)


@dataclass
class Corpus:
    """A prepared dataset split plus cached ground-truth matrices."""

    kind: str
    train_points: List[np.ndarray]
    test_points: List[np.ndarray]
    seed: int
    _train_gt: Dict[str, np.ndarray] = field(default_factory=dict)
    _test_gt: Dict[str, np.ndarray] = field(default_factory=dict)

    def train_distances(self, metric: str) -> np.ndarray:
        """Ground-truth train-set matrix under `metric`, cached."""
        if metric not in self._train_gt:
            self._train_gt[metric] = pairwise_distance_matrix(self.train_points, metric)
        return self._train_gt[metric]

    def test_distances(self, metric: str) -> np.ndarray:
        """Ground-truth test-set matrix under `metric`, cached."""
        if metric not in self._test_gt:
            self._test_gt[metric] = pairwise_distance_matrix(self.test_points, metric)
        return self._test_gt[metric]


def load_corpus(kind: str, scale: Scale, seed: int = 0) -> Corpus:
    """Generate, preprocess and split a synthetic corpus.

    Mirrors Section V-A1: centre-area filtering, minimum length 10 (scaled:
    the generators respect it by construction), then a train/test split.
    """
    raw = make_dataset(kind, scale.n_raw, seed=seed)
    ds, _ = prepare(raw)
    needed = scale.train_size + scale.test_size
    if len(ds) < needed:
        raise ValueError(
            f"preprocessing left {len(ds)} trajectories, need {needed}; "
            f"raise scale.n_raw"
        )
    rng = np.random.default_rng(seed + 10)
    order = rng.permutation(len(ds))
    train_idx = order[: scale.train_size]
    test_idx = order[scale.train_size : needed]
    return Corpus(
        kind=kind,
        train_points=[ds[int(i)].points for i in train_idx],
        test_points=[ds[int(i)].points for i in test_idx],
        seed=seed,
    )


@dataclass
class RunResult:
    """Outcome of training + evaluating one model under one metric."""

    model_name: str
    metric: str
    dataset: str
    scores: Dict[str, float]
    train_seconds_per_epoch: float
    final_loss: float


def run_model(
    name: str,
    corpus: Corpus,
    metric: str,
    scale: Scale,
    seed: int = 0,
    config_overrides: Optional[dict] = None,
) -> RunResult:
    """Train one model on a corpus and evaluate top-k search quality."""
    model, config = build_model(name, scale, seed=seed)
    if config_overrides:
        config = config.with_updates(**config_overrides)
        model = type(model)(config)  # every model takes its config first
    trainer = Trainer(model, config, metric=metric)
    with get_tracer().trace("experiment", model=name, metric=metric) as trace:
        with trace.span("train"):
            history = trainer.fit(corpus.train_points, distances=corpus.train_distances(metric))
        with trace.span("predict"):
            pred = pair_distance_matrix(model, corpus.test_points)
        with trace.span("evaluate"):
            scores = evaluate_rankings(
                corpus.test_distances(metric), pred, hr_ks=HR_KS, recall=RECALL
            )
    get_registry().counter("experiments.models_trained").inc()
    _log.debug(
        "run_model",
        model=name,
        metric=metric,
        dataset=corpus.kind,
        final_loss=history.final_loss,
        grad_norm=history.grad_norms[-1],
    )
    return RunResult(
        model_name=name,
        metric=metric,
        dataset=corpus.kind,
        scores=scores,
        train_seconds_per_epoch=float(np.mean(history.epoch_seconds)),
        final_loss=history.final_loss,
    )


def effectiveness_table(
    corpus: Corpus,
    metrics: Sequence[str],
    scale: Scale,
    models: Sequence[str] = MODEL_NAMES,
    seed: int = 0,
) -> List[RunResult]:
    """Table II: every model under every metric on one corpus."""
    results = []
    for metric in metrics:
        for name in models:
            results.append(run_model(name, corpus, metric, scale, seed=seed))
    return results


def efficiency_table(
    corpus: Corpus,
    scale: Scale,
    exact_metrics: Sequence[str] = ("frechet", "dtw", "erp"),
    model_names: Sequence[str] = ("SRN", "NeuTraj", "T3S", "TMN"),
    seed: int = 0,
) -> List[dict]:
    """Table III: exact-metric all-pairs time vs learned three-phase time."""
    rows: List[dict] = []
    for metric in exact_metrics:
        seconds = time_exact_metric(corpus.test_points, metric)
        rows.append(
            {
                "method": metric,
                "training_s": None,
                "inference_s": None,
                "computation_s": seconds,
            }
        )
    for name in model_names:
        model, config = build_model(name, scale, seed=seed)
        trainer = Trainer(model, config, metric="dtw")
        history = trainer.fit(
            corpus.train_points, distances=corpus.train_distances("dtw")
        )
        inference = time_encoding(model, corpus.test_points)
        embeddings = model.encode(corpus.test_points[:8])
        computation = time_vector_similarity(embeddings, repeats=2_000)
        rows.append(
            {
                "method": name,
                "training_s": float(np.mean(history.epoch_seconds)),
                "inference_s": inference,
                "computation_s": computation,
            }
        )
    return rows
