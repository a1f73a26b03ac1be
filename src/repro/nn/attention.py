"""Attention mechanisms.

Two flavours are needed for the reproduction:

- :func:`cross_match` — the paper's core contribution (Section IV-B,
  Eq. 6–11): dot-product attention *across* a trajectory pair producing the
  match pattern ``P`` and the discrepancy matrix ``M = X_a − P·X_b``.
- :class:`SelfAttention` — scaled dot-product self-attention used by the
  T3S baseline to capture intra-trajectory structure.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autograd import Tensor, masked_softmax, softmax
from . import init
from .module import Module, Parameter

__all__ = ["match_pattern", "cross_match", "SelfAttention"]


def match_pattern(
    x_a: Tensor,
    x_b: Tensor,
    mask_a: Optional[np.ndarray] = None,
    mask_b: Optional[np.ndarray] = None,
) -> Tensor:
    """Compute the match pattern ``P_{a<-b} = softmax(X_a X_b^T)`` (Eq. 8).

    Row ``i`` of the result gives the attention weights of every point of
    ``T_b`` from the viewpoint of point ``i`` of ``T_a``.  Padded positions
    of ``T_b`` receive zero weight; padded rows of ``T_a`` are zeroed out.

    Parameters
    ----------
    x_a, x_b:
        Point-embedding tensors of shape ``(B, T, d)`` (or ``(T, d)``).
    mask_a, mask_b:
        Boolean validity masks of shape ``(B, T)`` (or ``(T,)``).
    """
    return _pattern(x_a @ x_b.swapaxes(-1, -2), mask_a, mask_b)


def _pattern(scores: Tensor, mask_a, mask_b) -> Tensor:
    """Softmax of ``scores`` over the valid points of b (columns), for each
    valid point of a (rows); padded rows are all zero."""
    if mask_a is None and mask_b is None:
        return softmax(scores, axis=-1)
    rows = np.ones(scores.shape[:-1], bool) if mask_a is None else np.asarray(mask_a, dtype=bool)
    cols = np.ones(scores.shape[:-2] + scores.shape[-1:], bool) if mask_b is None else np.asarray(mask_b, dtype=bool)
    return masked_softmax(scores, np.expand_dims(rows, -1) & np.expand_dims(cols, -2), axis=-1)


def _discrepancy(x: Tensor, other: Tensor, pattern: Tensor, mask) -> Tuple[Tensor, Tensor]:
    """``(M, P)`` of one side, ``M = X - P X_other``; padded rows stay zero."""
    discrepancy = x - pattern @ other
    if mask is not None:
        discrepancy = discrepancy * Tensor(np.expand_dims(np.asarray(mask, dtype=float), axis=-1))
    return discrepancy, pattern


def cross_match(
    x_a: Tensor,
    x_b: Tensor,
    mask_a: Optional[np.ndarray] = None,
    mask_b: Optional[np.ndarray] = None,
) -> Tuple[Tuple[Tensor, Tensor], Tuple[Tensor, Tensor]]:
    """The TMN matching mechanism (Eq. 6–11), both directions at once.

    Computes, for every point of ``T_a``, the attention-weighted summary of
    ``T_b``'s points (``S_{a<-b}``, Eq. 9–10) and the discrepancy
    ``M_{a<-b} = X_a − S_{a<-b}`` (Eq. 11), and the same for ``T_b``.  The
    paper's (m, m, d) expansion summed over ``j`` is the product ``P·X_b``.
    ``X_b X_a^T`` is the transpose of ``X_a X_b^T``, so both directions
    share one score matmul and its backward.  A self-pair (``x_b`` is
    ``x_a``, same mask) has one direction, returned for both sides.

    Returns ``((M_{a<-b}, P_{a<-b}), (M_{b<-a}, P_{b<-a}))``: per side, the
    discrepancy (shaped like that side's ``x``) and the match pattern.
    """
    scores = x_a @ x_b.swapaxes(-1, -2)
    side_a = _discrepancy(x_a, x_b, _pattern(scores, mask_a, mask_b), mask_a)
    if x_b is x_a and mask_b is mask_a:
        return side_a, side_a
    pattern_b = _pattern(scores.swapaxes(-1, -2), mask_b, mask_a)
    return side_a, _discrepancy(x_b, x_a, pattern_b, mask_b)


class SelfAttention(Module):
    """Scaled dot-product self-attention with learned Q/K/V projections.

    T3S combines the output of such a layer with an LSTM to capture the
    structural information of a single trajectory.
    """

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if dim <= 0:
            raise ValueError("attention dim must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.w_q = Parameter(init.xavier_uniform((dim, dim), rng), name="w_q")
        self.w_k = Parameter(init.xavier_uniform((dim, dim), rng), name="w_k")
        self.w_v = Parameter(init.xavier_uniform((dim, dim), rng), name="w_v")

    def forward(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        """Apply self-attention over ``(B, T, dim)`` input.

        ``mask`` (B, T) hides padded positions from both queries and keys:
        one masked softmax whose padded rows are all zero, as in
        :func:`cross_match`.
        """
        q = x @ self.w_q
        k = x @ self.w_k
        v = x @ self.w_v
        # dim is a positive integer hyperparameter, never zero.
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.dim))  # lint: allow(N002)
        return _pattern(scores, mask, mask) @ v
