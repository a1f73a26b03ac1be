"""Timing harness for the efficiency study (Table III).

Splits the learned pipeline into the paper's three phases — training time
per epoch, per-trajectory inference (encoding) time, and the similarity
computation between two embedding vectors — and times the exact metrics'
all-pairs computation for comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..metrics import MetricSpec, get_metric, pairwise_distance_matrix
from ..obs.metrics import get_registry
from ..obs.trace import trace_span

__all__ = ["EfficiencyReport", "time_exact_metric", "time_encoding", "time_vector_similarity"]


@dataclass(frozen=True)
class EfficiencyReport:
    """One Table III row."""

    method: str
    training_s: Optional[float]  # per epoch; None for exact metrics
    inference_s: Optional[float]  # per trajectory; None for exact metrics
    computation_s: float  # exact: all-pairs; learned: one vector pair


def time_exact_metric(trajs: Sequence, metric: Union[str, MetricSpec]) -> float:
    """Seconds to compute all pairwise exact distances of a collection."""
    spec = metric if isinstance(metric, MetricSpec) else get_metric(metric)
    start = time.perf_counter()
    with trace_span("exact-metric"):
        pairwise_distance_matrix(trajs, spec)
    seconds = time.perf_counter() - start
    get_registry().histogram(f"eval.exact_metric_s.{spec.name}").observe(seconds)
    return seconds


def time_encoding(model, trajs: Sequence, batch_size: int = 64) -> float:
    """Average seconds to encode one trajectory (the inference phase)."""
    trajs = list(trajs)
    if not trajs:
        raise ValueError("need at least one trajectory to time encoding")
    start = time.perf_counter()
    with trace_span("encoding"):
        model.encode(trajs, batch_size=batch_size)
    per_traj = (time.perf_counter() - start) / len(trajs)
    get_registry().histogram("eval.encode_s_per_traj").observe(per_traj)
    return per_traj


def time_vector_similarity(embeddings: np.ndarray, repeats: int = 10_000) -> float:
    """Average seconds for one Euclidean similarity between two embeddings."""
    embeddings = np.asarray(embeddings)
    if len(embeddings) < 2:
        raise ValueError("need at least two embeddings")
    a, b = embeddings[0], embeddings[1]
    start = time.perf_counter()
    for _ in range(repeats):
        float(np.sqrt(((a - b) ** 2).sum()))
    return (time.perf_counter() - start) / repeats
