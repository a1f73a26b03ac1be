"""Composite and multi-input autodiff operations.

Functions here operate on :class:`repro.autograd.tensor.Tensor` objects and
participate in the tape.  They cover the operations the TMN paper needs that
are not natural as ``Tensor`` methods: softmax (with padding masks, Eq. 7),
concatenation (Eq. 12), stacking LSTM time steps, and elementwise selection.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .tensor import Tensor, _unbroadcast, profiled_op

ArrayLike = Union[np.ndarray, float, int]

__all__ = [
    "softmax",
    "masked_softmax",
    "concat",
    "stack",
    "where",
    "maximum",
    "minimum",
    "clip",
    "euclidean_distance",
    "dot_rows",
]


@profiled_op
def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    # Denominator >= 1: after max-subtraction exps contains exp(0) = 1.
    out_data = exps / exps.sum(axis=axis, keepdims=True)  # lint: allow(N003)

    def backward(grad: np.ndarray, a=x) -> None:
        # d softmax = s * (grad - sum(grad * s))
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        out._send(a, out_data * (grad - inner))

    out = Tensor._make(out_data, (x,), backward)
    return out


@profiled_op
def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax that ignores positions where ``mask`` is False.

    Used for the match pattern over padded trajectories (Section IV-B):
    padded points must receive zero attention weight.  Rows whose mask is
    entirely False produce all-zero outputs rather than NaNs.

    The forward allocates one full-size array (the output) and works on
    it in place; only the per-row max and sum are extra.  The match
    pattern is a (B, T, T) array per pair batch, so every further
    full-size temporary is a fresh multi-megabyte allocation.

    Parameters
    ----------
    x:
        Scores tensor; not modified.
    mask:
        Boolean array broadcastable to ``x.shape``; True marks valid points.
    """
    # A view, not a copy; raises ValueError when the mask does not fit.
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    out_data = np.where(mask, x.data, -np.inf)
    row_max = out_data.max(axis=axis, keepdims=True)
    # Rows that are fully masked have row_max == -inf; neutralise them.
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    out_data -= row_max
    np.exp(out_data, out=out_data)  # masked entries: exp(-inf) == 0
    denom = out_data.sum(axis=axis, keepdims=True)
    out_data /= np.where(denom == 0.0, 1.0, denom)

    def backward(grad: np.ndarray, a=x) -> None:
        inner = (grad * out_data).sum(axis=axis, keepdims=True)
        out._send(a, out_data * (grad - inner))

    out = Tensor._make(out_data, (x,), backward)
    return out


@profiled_op
def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` (autodiff-aware ``np.concatenate``)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            out._send(t, grad[tuple(index)])

    out = Tensor._make(out_data, tensors, backward)
    return out


@profiled_op
def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis (autodiff-aware ``np.stack``)."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        moved = np.moveaxis(grad, axis, 0)
        for i, t in enumerate(tensors):
            out._send(t, moved[i])

    out = Tensor._make(out_data, tensors, backward)
    return out


@profiled_op
def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``a`` where ``condition`` else ``b``."""
    condition = np.asarray(condition, dtype=bool)
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        out._send(a, _unbroadcast(np.where(condition, grad, 0.0), a.shape))
        out._send(b, _unbroadcast(np.where(condition, 0.0, grad), b.shape))

    out = Tensor._make(out_data, (a, b), backward)
    return out


@profiled_op
def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum; ties send the full gradient to ``a``."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    take_a = a.data >= b.data
    return where(take_a, a, b)


@profiled_op
def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise minimum; ties send the full gradient to ``a``."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    take_a = a.data <= b.data
    return where(take_a, a, b)


@profiled_op
def clip(x: Tensor, low: Optional[float], high: Optional[float]) -> Tensor:
    """Clamp values into ``[low, high]``; gradient is zero outside the range."""
    lo = -np.inf if low is None else low
    hi = np.inf if high is None else high
    inside = (x.data >= lo) & (x.data <= hi)
    out_data = np.clip(x.data, lo, hi)

    def backward(grad: np.ndarray, a=x) -> None:
        out._send(a, grad * inside)

    out = Tensor._make(out_data, (x,), backward)
    return out


@profiled_op
def euclidean_distance(a: Tensor, b: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Euclidean distance ``||a - b||`` along ``axis``.

    This is the predicted-similarity kernel of every model in the paper:
    trajectory embeddings are compared with the L2 distance.  ``eps`` keeps
    the square root differentiable at zero.
    """
    diff = a - b
    sq = (diff * diff).sum(axis=axis)
    return (sq + eps).sqrt()


@profiled_op
def dot_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise dot product of two equally shaped tensors along the last axis."""
    return (a * b).sum(axis=-1)
