"""Ground-truth distance matrices (the paper's matrix ``D``).

Training every model in the paper requires the exact pairwise distances of
the training set under the chosen metric; evaluation requires the
query-by-database matrix.  Both are produced here in vectorised chunks via
the batched DP engines, which is what keeps CPU-only reproduction feasible.

A chunk of pairs costs its padded size: the DP fills ``m_max * n_max``
cells per pair.  :func:`length_ordered_pairs` therefore sorts the pairs by
length before chunking, and each chunk is cropped to its own longest
sides, so no chunk pays for the longest trajectory of the whole
collection.  The DP read-out never looks past the true lengths, so the
matrices are bit-identical to an unordered, uncropped evaluation.  The
pairwise-TMN builders in :mod:`repro.core.model` chunk with the same
helper.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .point import as_points
from .registry import MetricSpec, get_metric

__all__ = [
    "pad_trajectories",
    "length_ordered_pairs",
    "pairwise_distance_matrix",
    "cross_distance_matrix",
    "prefix_distances",
]


def _resolve(metric: Union[str, MetricSpec], **params) -> MetricSpec:
    if isinstance(metric, MetricSpec):
        return metric
    return get_metric(metric, **params)


def pad_trajectories(trajs: Sequence) -> Tuple[np.ndarray, np.ndarray]:
    """Stack variable-length trajectories into (N, L, 2) plus lengths (N,).

    Padding is zeros; every consumer must honour the returned lengths (the
    DP engines do so by construction).
    """
    points: List[np.ndarray] = [as_points(t) for t in trajs]
    lengths = np.array([len(p) for p in points], dtype=int)
    if lengths.size == 0:
        raise ValueError("cannot pad an empty trajectory collection")
    longest = int(lengths.max())
    stacked = np.zeros((len(points), longest, 2))
    for i, p in enumerate(points):
        stacked[i, : len(p)] = p
    return stacked, lengths


def length_ordered_pairs(
    rows: np.ndarray,
    cols: np.ndarray,
    lengths_a: np.ndarray,
    lengths_b: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reorder pair index arrays by (longer length, shorter length).

    Pair ``p`` is trajectory ``rows[p]`` (length ``lengths_a[rows[p]]``) on
    side a against ``cols[p]`` (``lengths_b[cols[p]]``) on side b.  After
    the sort, consecutive pairs have similar lengths, so a chunk of them
    padded to its own maximum is nearly all real points.  The sort is
    stable, so the order is deterministic.

    With ``lengths_b`` omitted both indices address one collection (a
    symmetric matrix) and each pair is first turned so that its shorter
    trajectory is on side a; the caller writes both ``(i, j)`` and
    ``(j, i)``.  Otherwise the sides are kept.
    """
    if lengths_b is None:
        lengths_b = lengths_a
        swap = lengths_a[rows] > lengths_a[cols]
        rows, cols = np.where(swap, cols, rows), np.where(swap, rows, cols)
    len_a = lengths_a[rows]
    len_b = lengths_b[cols]
    order = np.lexsort((np.minimum(len_a, len_b), np.maximum(len_a, len_b)))
    return rows[order], cols[order]


def prefix_distances(
    metric: MetricSpec,
    points_a: np.ndarray,
    points_b: np.ndarray,
    pairs: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Exact distance of the length-``lengths[i]`` prefixes of both sides of
    pair ``pairs[i]`` of a padded stack (the Eq. 15 sub-trajectory targets).

    One ``metric.batch`` call with (P, K) read-out lists: each pair's table
    is swept once, to its longest prefix, and read at all of its lengths.
    Pairs go in longest first, so the DP sweep drops a pair once its reads
    are done, and each pair's cost cells are computed only up to its
    longest prefix.  Bit-identical to one call per prefix length.
    """
    pairs = np.asarray(pairs, dtype=int)
    lengths = np.asarray(lengths, dtype=int)
    if pairs.size == 0:
        return np.empty(0)
    by_pair = np.lexsort((lengths, pairs))
    owners, slot_start, counts = np.unique(pairs[by_pair], return_index=True, return_counts=True)
    group = np.repeat(np.arange(owners.size), counts)
    slot = np.arange(pairs.size) - slot_start[group]
    longest = lengths[by_pair][slot_start + counts - 1]
    order = np.argsort(-longest, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    row = rank[group]
    # Unused slots repeat the pair's longest read-out.
    table = np.repeat(longest[order, None], counts.max(), axis=1)
    table[row, slot] = lengths[by_pair]
    top = int(longest[order[0]])
    dists = metric.batch(points_a[owners[order], :top], points_b[owners[order], :top], table, table)
    result = np.empty(pairs.size)
    result[by_pair] = dists[row, slot]
    return result


def pairwise_distance_matrix(
    trajs: Sequence,
    metric: Union[str, MetricSpec] = "dtw",
    chunk_size: int = 512,
    eps: Optional[float] = None,
    gap=None,
) -> np.ndarray:
    """Symmetric N x N exact distance matrix under ``metric``.

    Only the upper triangle is computed, in length-ordered chunks; the
    diagonal is zero by the identity property of every supported metric.

    Parameters
    ----------
    trajs:
        Sequence of trajectories (arrays or ``Trajectory`` objects).
    metric:
        Metric name or a prepared :class:`MetricSpec`.
    chunk_size:
        Number of trajectory pairs evaluated per vectorised batch; bounds
        peak memory at roughly ``chunk_size * L^2`` floats.
    """
    spec = _resolve(metric, eps=eps, gap=gap)
    stacked, lengths = pad_trajectories(trajs)
    n = len(lengths)
    result = np.zeros((n, n))
    rows, cols = length_ordered_pairs(*np.triu_indices(n, k=1), lengths)
    for start in range(0, rows.size, chunk_size):
        i_idx = rows[start : start + chunk_size]
        j_idx = cols[start : start + chunk_size]
        la, lb = lengths[i_idx], lengths[j_idx]
        # Crop each side to this chunk's own longest trajectory.
        dists = spec.batch(stacked[i_idx, : la.max()], stacked[j_idx, : lb.max()], la, lb)
        result[i_idx, j_idx] = dists
        result[j_idx, i_idx] = dists
    return result


def cross_distance_matrix(
    queries: Sequence,
    base: Sequence,
    metric: Union[str, MetricSpec] = "dtw",
    chunk_size: int = 512,
    eps: Optional[float] = None,
    gap=None,
) -> np.ndarray:
    """Exact Q x N distance matrix between two trajectory collections."""
    spec = _resolve(metric, eps=eps, gap=gap)
    q_stack, q_len = pad_trajectories(queries)
    b_stack, b_len = pad_trajectories(base)
    result = np.zeros((len(q_len), len(b_len)))
    q_idx, b_idx = np.meshgrid(np.arange(len(q_len)), np.arange(len(b_len)), indexing="ij")
    rows, cols = length_ordered_pairs(q_idx.ravel(), b_idx.ravel(), q_len, b_len)
    for start in range(0, rows.size, chunk_size):
        qi = rows[start : start + chunk_size]
        bi = cols[start : start + chunk_size]
        la, lb = q_len[qi], b_len[bi]
        result[qi, bi] = spec.batch(q_stack[qi, : la.max()], b_stack[bi, : lb.max()], la, lb)
    return result
