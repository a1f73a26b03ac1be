"""Batched anti-diagonal dynamic-programming engines.

Every matching-based trajectory metric in the paper (DTW, discrete Fréchet,
ERP, EDR, LCSS) is an O(m·n) dynamic program whose cell (i, j) depends only
on cells (i-1, j), (i, j-1) and (i-1, j-1).  Cells on the same anti-diagonal
``k = i + j`` are therefore independent, which lets us vectorise both along
the diagonal *and across a whole batch of trajectory pairs at once*.  This
is what makes computing the paper's ground-truth distance matrices feasible
on CPU without compiled extensions.

All engines operate on a padded cost (or match) tensor of shape
``(P, m_max, n_max)`` together with per-pair true lengths.  Because the DP is
causal — cell (i, j) never reads beyond row i / column j — padded entries
cannot influence the read-out cell ``(len_a, len_b)``, so padding values are
irrelevant.

The same causality makes cell (c, c) of a pair's table the exact distance of
its two length-c prefixes.  The lengths may therefore also be (P, K) arrays:
row p lists K cells to read from pair p's table, all filled in one sweep,
and the result is (P, K).  Every cell is computed by the same element-wise
operations whatever the table size, so each read-out is bit-identical to a
separate call on the cropped prefixes.  The sweep stops at the last
diagonal any read-out needs, and when the pairs come ordered by that
diagonal, longest first, it drops each pair once its reads are done
(packing: the live pairs of diagonal k are a prefix of the rows).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "dtw_batch",
    "frechet_batch",
    "erp_batch",
    "edr_batch",
    "lcss_batch",
]

_INF = np.inf


def _check_inputs(cost: np.ndarray, len_a, len_b) -> Tuple[int, int, int, np.ndarray, np.ndarray]:
    """Validate a cost tensor and its read-out lengths, (P,) or (P, K).

    Returns ``(P, m, n, len_a, len_b)`` with the lengths as int arrays.
    """
    if cost.ndim != 3:
        raise ValueError(f"cost tensor must be (P, m, n), got {cost.shape}")
    pairs, m, n = cost.shape
    len_a = np.asarray(len_a, dtype=int)
    len_b = np.asarray(len_b, dtype=int)
    if (
        len_a.ndim not in (1, 2)
        or len_a.shape[0] != pairs
        or len_b.shape != len_a.shape
    ):
        raise ValueError("length arrays must match the pair axis of the cost tensor")
    if np.any(len_a < 1) or np.any(len_b < 1):
        raise ValueError("trajectory lengths must be >= 1")
    if np.any(len_a > m) or np.any(len_b > n):
        raise ValueError("lengths exceed padded cost dimensions")
    return pairs, m, n, len_a, len_b


class _Sweep:
    """Diagonal schedule of a batch's read-outs.

    ``result`` (shaped like ``len_a``) is filled by :meth:`take` as the
    sweep passes each read-out's diagonal ``len_a + len_b``; ``last`` is
    the final diagonal needed.  ``live[k]`` is the number of leading rows
    the sweep still computes at diagonal k: all of them, unless the pairs'
    own last diagonals are non-increasing (packing).
    """

    def __init__(self, len_a: np.ndarray, len_b: np.ndarray):
        target = len_a + len_b
        flat = target.ravel()
        self.result = np.empty(len_a.shape)
        self.last = int(flat.max(initial=0))
        self._order = np.argsort(flat, kind="stable")
        self._bounds = np.searchsorted(flat[self._order], np.arange(self.last + 2))
        self._width = target.shape[1] if target.ndim == 2 else 1
        self._rows = len_a.ravel()
        ends = target if target.ndim == 1 else target.max(axis=1, initial=0)
        steps = np.arange(self.last + 1)[:, None]
        if np.all(ends[:-1] >= ends[1:]):
            self.live = np.count_nonzero(ends >= steps, axis=1).tolist()
        else:
            self.live = [ends.size] * (self.last + 1)

    def take(self, k: int, cur: np.ndarray) -> None:
        """Copy the read-outs on diagonal ``k`` out of its array ``cur``."""
        ids = self._order[self._bounds[k] : self._bounds[k + 1]]
        if ids.size:
            self.result.flat[ids] = cur[ids // self._width, self._rows[ids]]


def _diag_interior(k: int, m: int, n: int) -> np.ndarray:
    """Grid rows I with 1 <= I <= m, 1 <= J = k - I <= n on diagonal k."""
    lo = max(1, k - n)
    hi = min(m, k - 1)
    return np.arange(lo, hi + 1)


def _run_dp(cost, len_a, len_b, init_border_row, init_border_col, combine):
    """Shared anti-diagonal driver.

    ``combine(cost_vals, up, left, diag)`` computes interior cells; the
    border callbacks give D[I, 0] and D[0, J].  Returns D[len_a, len_b] for
    every read-out, shaped like ``len_a``.
    """
    pairs, m, n, len_a, len_b = _check_inputs(cost, len_a, len_b)
    sweep = _Sweep(len_a, len_b)

    # Three diagonals, rotated: each is reset to inf before it is reused.
    prev2, prev1, cur = (np.full((pairs, m + 1), _INF) for _ in range(3))
    # Diagonal k = 0 holds only D[0, 0].
    prev1[:, 0] = init_border_col(0)
    # cost[p, I-1, k-I-1] sits at flat index (I-1)*n + (k-I-1): consecutive
    # rows I of one diagonal are n - 1 apart, so a strided view reads it.
    flat = cost.reshape(pairs, m * n)
    for k in range(1, sweep.last + 1):
        live = sweep.live[k]
        cur[:live].fill(_INF)
        if k <= n:
            cur[:live, 0] = init_border_col(k)  # D[0, k]
        if k <= m:
            cur[:live, k] = init_border_row(k)  # D[k, 0]
        lo = max(1, k - n)
        hi = min(m, k - 1)
        if lo <= hi:
            start = (lo - 1) * n + (k - lo - 1)
            if n == 1:
                # One column: the diagonal has a single interior cell.
                c = flat[:live, start : start + 1]
            else:
                c = flat[:live, start : start + (hi - lo) * (n - 1) + 1 : n - 1]
            up = prev1[:live, lo - 1 : hi]
            left = prev1[:live, lo : hi + 1]
            diag = prev2[:live, lo - 1 : hi]
            cur[:live, lo : hi + 1] = combine(c, up, left, diag)
        sweep.take(k, cur)
        prev2, prev1, cur = prev1, cur, prev2
    return sweep.result


def dtw_batch(cost: np.ndarray, len_a, len_b) -> np.ndarray:
    """Dynamic Time Warping distances for a batch of pairs.

    D[i, j] = cost[i, j] + min(D[i-1, j], D[i, j-1], D[i-1, j-1]).
    """

    def combine(c, up, left, diag):
        return c + np.minimum(np.minimum(up, left), diag)

    return _run_dp(
        cost,
        len_a,
        len_b,
        init_border_row=lambda i: 0.0 if i == 0 else _INF,
        init_border_col=lambda j: 0.0 if j == 0 else _INF,
        combine=combine,
    )


def frechet_batch(cost: np.ndarray, len_a, len_b) -> np.ndarray:
    """Discrete Fréchet distances (coupling distance of Eiter & Mannila).

    D[i, j] = max(cost[i, j], min(D[i-1, j], D[i, j-1], D[i-1, j-1])).
    """

    def combine(c, up, left, diag):
        return np.maximum(c, np.minimum(np.minimum(up, left), diag))

    return _run_dp(
        cost,
        len_a,
        len_b,
        init_border_row=lambda i: 0.0 if i == 0 else _INF,
        init_border_col=lambda j: 0.0 if j == 0 else _INF,
        combine=combine,
    )


def erp_batch(
    cost: np.ndarray,
    gap_a: np.ndarray,
    gap_b: np.ndarray,
    len_a,
    len_b,
) -> np.ndarray:
    """Edit distance with Real Penalty (paper Eq. 1).

    ``gap_a[p, i]`` is the cost of deleting point i of trajectory a (its
    distance to the gap point g); similarly ``gap_b``.  The recurrence is

    D[i, j] = min(D[i-1, j] + gap_a[i],
                  D[i, j-1] + gap_b[j],
                  D[i-1, j-1] + cost[i, j]).
    """
    pairs, m, n, len_a, len_b = _check_inputs(cost, len_a, len_b)
    if gap_a.shape != (pairs, m) or gap_b.shape != (pairs, n):
        raise ValueError("gap arrays must be (P, m) and (P, n)")
    prefix_a = np.concatenate([np.zeros((pairs, 1)), np.cumsum(gap_a, axis=1)], axis=1)
    prefix_b = np.concatenate([np.zeros((pairs, 1)), np.cumsum(gap_b, axis=1)], axis=1)

    sweep = _Sweep(len_a, len_b)

    prev2 = np.full((pairs, m + 1), _INF)
    prev1 = np.full((pairs, m + 1), _INF)
    prev1[:, 0] = 0.0
    for k in range(1, sweep.last + 1):
        live = sweep.live[k]
        cur = np.full((live, m + 1), _INF)
        if k <= n:
            cur[:, 0] = prefix_b[:live, k]  # delete the first k points of b
        if k <= m:
            cur[:, k] = prefix_a[:live, k]  # delete the first k points of a
        rows = _diag_interior(k, m, n)
        if rows.size:
            cols = k - rows
            c = cost[:live, rows - 1, cols - 1]
            up = prev1[:live, rows - 1] + gap_a[:live, rows - 1]
            left = prev1[:live, rows] + gap_b[:live, cols - 1]
            diag = prev2[:live, rows - 1] + c
            cur[:, rows] = np.minimum(np.minimum(up, left), diag)
        sweep.take(k, cur)
        prev2, prev1 = prev1, cur
    return sweep.result


def edr_batch(match: np.ndarray, len_a, len_b) -> np.ndarray:
    """Edit Distance on Real sequence (paper Eq. 2).

    ``match[p, i, j]`` is True when points i/j are within the EDR tolerance.
    D[i, j] = min(D[i-1, j] + 1, D[i, j-1] + 1, D[i-1, j-1] + (0 if match else 1)).
    """
    subcost = np.where(np.asarray(match, dtype=bool), 0.0, 1.0)

    def combine(c, up, left, diag):
        return np.minimum(np.minimum(up + 1.0, left + 1.0), diag + c)

    return _run_dp(
        subcost,
        len_a,
        len_b,
        init_border_row=lambda i: float(i),
        init_border_col=lambda j: float(j),
        combine=combine,
    )


def lcss_batch(match: np.ndarray, len_a, len_b) -> np.ndarray:
    """Longest Common Subsequence *lengths* (paper Eq. 3).

    Returns the raw LCSS count; callers convert to a distance, conventionally
    ``1 - lcss / min(m, n)``.
    """
    match_f = np.asarray(match, dtype=bool)
    pairs, m, n, len_a, len_b = _check_inputs(match_f, len_a, len_b)
    sweep = _Sweep(len_a, len_b)

    neg = -1.0  # invalid cells must never win a max
    prev2 = np.full((pairs, m + 1), neg)
    prev1 = np.full((pairs, m + 1), neg)
    prev1[:, 0] = 0.0
    for k in range(1, sweep.last + 1):
        live = sweep.live[k]
        cur = np.full((live, m + 1), neg)
        if k <= n:
            cur[:, 0] = 0.0
        if k <= m:
            cur[:, k] = 0.0
        rows = _diag_interior(k, m, n)
        if rows.size:
            cols = k - rows
            is_match = match_f[:live, rows - 1, cols - 1]
            extend = prev2[:live, rows - 1] + 1.0
            skip = np.maximum(prev1[:live, rows - 1], prev1[:live, rows])
            cur[:, rows] = np.where(is_match, extend, skip)
        sweep.take(k, cur)
        prev2, prev1 = prev1, cur
    return sweep.result
