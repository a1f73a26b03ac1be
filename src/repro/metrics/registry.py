"""Metric registry: one uniform handle per distance metric.

The learning models are metric-agnostic (the paper's key "generic" claim);
experiments select a metric by name.  A :class:`MetricSpec` bundles the
scalar two-trajectory function with a batched implementation used to build
ground-truth distance matrices quickly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from . import _dp
from .dtw import dtw
from .edr import DEFAULT_EPS as EDR_EPS
from .edr import edr
from .erp import DEFAULT_GAP, erp
from .frechet import frechet
from .hausdorff import hausdorff
from .lcss import DEFAULT_EPS as LCSS_EPS
from .lcss import lcss

__all__ = ["MetricSpec", "get_metric", "METRIC_NAMES"]

#: The six distance metrics evaluated in the paper.
METRIC_NAMES: Tuple[str, ...] = ("dtw", "frechet", "hausdorff", "erp", "edr", "lcss")


def _batch_cost(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Cross point-distance tensor for stacked pairs: (P, m, 2), (P, n, 2) -> (P, m, n).

    One coordinate at a time, in place: a (P, m, n, 2) difference summed
    over its length-2 axis costs several times the DP that reads it.  The
    result is bit-identical (``dx*dx + dy*dy`` is that sum).
    """
    dx = points_a[:, :, None, 0] - points_b[:, None, :, 0]
    dy = points_a[:, :, None, 1] - points_b[:, None, :, 1]
    dist = np.square(dx, out=dx)
    dist += np.square(dy, out=dy)
    return np.sqrt(dist, out=dist)


def _readout_cost(points_a, points_b, len_a, len_b) -> np.ndarray:
    """:func:`_batch_cost` restricted to the cells the DP read-outs need.

    With (P, K) read-out lists, a pair's cells beyond its longest read-outs
    never reach them (the DP is causal): they stay zero, and the others are
    computed one group of pairs with equal extents at a time.
    """
    len_a, len_b = np.asarray(len_a), np.asarray(len_b)
    if len_a.ndim == 1:
        return _batch_cost(points_a, points_b)
    extents = np.stack([len_a.max(axis=1), len_b.max(axis=1)], axis=1)
    cost = np.zeros((len(extents), *extents.max(axis=0, initial=1)))
    for m, n in np.unique(extents, axis=0):
        group = np.nonzero((extents[:, 0] == m) & (extents[:, 1] == n))[0]
        cost[group, :m, :n] = _batch_cost(points_a[group, :m], points_b[group, :n])
    return cost


def _hausdorff_batch(points_a, points_b, len_a, len_b) -> np.ndarray:
    len_a = np.asarray(len_a)
    if len_a.ndim == 2:
        # Not a DP, so no table to read several cells from: one pass per
        # read-out column, each bit-identical to a call on cropped prefixes.
        len_b = np.asarray(len_b)
        return np.stack(
            [_hausdorff_batch(points_a, points_b, len_a[:, k], len_b[:, k]) for k in range(len_a.shape[1])],
            axis=1,
        )
    dists = _batch_cost(points_a, points_b)
    pairs, la_max, lb_max = dists.shape
    col_idx = np.arange(lb_max)
    row_idx = np.arange(la_max)
    invalid_b = col_idx[None, None, :] >= np.asarray(len_b)[:, None, None]
    invalid_a = row_idx[None, :, None] >= np.asarray(len_a)[:, None, None]
    masked_min = np.where(invalid_b, np.inf, dists)
    forward = np.where(invalid_a[:, :, 0], -np.inf, masked_min.min(axis=2)).max(axis=1)
    masked_min2 = np.where(invalid_a, np.inf, dists)
    backward = np.where(invalid_b[:, 0, :], -np.inf, masked_min2.min(axis=1)).max(axis=1)
    return np.maximum(forward, backward)


@dataclass(frozen=True)
class MetricSpec:
    """A named trajectory distance metric with scalar and batched forms.

    Attributes
    ----------
    name:
        Registry key ("dtw", "frechet", "hausdorff", "erp", "edr", "lcss").
    scalar:
        ``f(a, b) -> float`` on raw (n, 2) arrays.
    batch:
        ``f(points_a, points_b, len_a, len_b) -> (P,)`` on padded stacks.
        The lengths may also be (P, K) read-out lists: entry ``[p, k]``
        is then the distance of pair p's prefixes of lengths
        ``len_a[p, k]`` and ``len_b[p, k]``, all from one call.
    params:
        The resolved metric parameters (eps / gap) for provenance.
    """

    name: str
    scalar: Callable[[np.ndarray, np.ndarray], float]
    batch: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    params: Dict[str, object] = field(default_factory=dict)

    def __call__(self, a, b) -> float:
        return self.scalar(a, b)


def get_metric(
    name: str,
    eps: Optional[float] = None,
    gap: Optional[Tuple[float, float]] = None,
) -> MetricSpec:
    """Look up a metric by name, resolving its parameters.

    Parameters
    ----------
    name:
        One of :data:`METRIC_NAMES` (case-insensitive).
    eps:
        Matching tolerance for EDR/LCSS (ignored by the others).
    gap:
        Gap reference point for ERP (ignored by the others).
    """
    key = name.lower()
    if key == "dtw":

        def batch(pa, pb, la, lb):
            return _dp.dtw_batch(_readout_cost(pa, pb, la, lb), la, lb)

        return MetricSpec("dtw", dtw, batch)

    if key == "frechet":

        def batch(pa, pb, la, lb):
            return _dp.frechet_batch(_readout_cost(pa, pb, la, lb), la, lb)

        return MetricSpec("frechet", frechet, batch)

    if key == "hausdorff":
        return MetricSpec("hausdorff", hausdorff, _hausdorff_batch)

    if key == "erp":
        gap_point = np.asarray(gap if gap is not None else DEFAULT_GAP, dtype=float)

        def scalar(a, b):
            return erp(a, b, gap=gap_point)

        def batch(pa, pb, la, lb):
            cost = _readout_cost(pa, pb, la, lb)
            gap_a = np.sqrt(((pa[:, : cost.shape[1]] - gap_point) ** 2).sum(axis=-1))
            gap_b = np.sqrt(((pb[:, : cost.shape[2]] - gap_point) ** 2).sum(axis=-1))
            return _dp.erp_batch(cost, gap_a, gap_b, la, lb)

        return MetricSpec("erp", scalar, batch, params={"gap": tuple(gap_point)})

    if key == "edr":
        tol = eps if eps is not None else EDR_EPS

        def scalar(a, b):
            return edr(a, b, eps=tol)

        def batch(pa, pb, la, lb):
            match = _readout_cost(pa, pb, la, lb) <= tol
            return _dp.edr_batch(match, la, lb)

        return MetricSpec("edr", scalar, batch, params={"eps": tol})

    if key == "lcss":
        tol = eps if eps is not None else LCSS_EPS

        def scalar(a, b):
            return lcss(a, b, eps=tol)

        def batch(pa, pb, la, lb):
            match = _readout_cost(pa, pb, la, lb) <= tol
            counts = _dp.lcss_batch(match, la, lb)
            shorter = np.minimum(np.asarray(la), np.asarray(lb))
            return 1.0 - counts / shorter

        return MetricSpec("lcss", scalar, batch, params={"eps": tol})

    raise KeyError(f"unknown metric {name!r}; choose from {METRIC_NAMES}")
