"""Packed LSTM sequence kernel with a hand-derived backward pass.

Composing an LSTM from primitive autodiff ops records a slice, a cell
update, two mask selects and a final stack for every time step, so the
tape grows with the sequence and every step pays Python-object overhead
even under ``no_grad``.  This module runs the whole padded sequence as a
plain numpy loop and records one tape node for it, whose closure is an
analytically derived backward pass through time.

The loop is packed, the technique PyTorch calls ``pack_padded_sequence``.
The mask marks a prefix of each row, so once the rows are stable-sorted
by length the rows still inside their trajectory at step ``t`` are a
prefix ``[:n_t]`` of the batch.  The cell runs on that prefix only and
updates ``h``/``c`` in place; a finished row keeps its state because
nothing writes to it.  The backward walks the same prefixes and writes
each step's gate gradients into one zero-initialised buffer, so padding
costs no work in either direction.  The values and gradients are
validated against finite differences and against a per-step loop of
:meth:`repro.nn.lstm.LSTMCell.forward_composed` in the test suite.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..autograd import Tensor, is_grad_enabled, profiled_op

__all__ = ["fused_lstm_sequence"]


def _packing(
    mask: Optional[np.ndarray], batch: int, steps: int
) -> Tuple[Optional[np.ndarray], List[int]]:
    """Return ``(order, live)`` for a ``(B, T)`` prefix mask.

    ``order`` stable-sorts the rows by descending length (None when the
    rows already are in that order) and ``live[t]`` counts the rows still
    inside their trajectory at step ``t``.
    """
    if mask is None:
        return None, [batch] * steps
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (batch, steps):
        raise ValueError(f"mask shape {mask.shape} does not match the (B, T) input {(batch, steps)}")
    lengths = np.count_nonzero(mask, axis=1)
    if not np.array_equal(mask, np.arange(steps) < lengths[:, None]):
        raise ValueError("mask must mark a prefix of each row: padding only at the end")
    live = np.count_nonzero(mask, axis=0).tolist()
    if np.all(lengths[:-1] >= lengths[1:]):
        return None, live
    return np.argsort(-lengths, kind="stable"), live


def _time_major(rows: np.ndarray, order: Optional[np.ndarray], steps: int) -> np.ndarray:
    """The first ``steps`` steps of batch-major ``(B, T, D)`` ``rows`` as a
    contiguous, time-major ``(steps * B, D)`` array in packed order."""
    tm = rows[:, :steps].swapaxes(0, 1)
    tm = np.ascontiguousarray(tm if order is None else tm[:, order])
    return tm.reshape(steps * rows.shape[0], rows.shape[2])


def _packed_copy(rows: np.ndarray, order: Optional[np.ndarray]) -> np.ndarray:
    """A private copy of batch-major ``rows`` in packed order."""
    return rows.copy() if order is None else rows[order]


def _unpack(rows: np.ndarray, order: Optional[np.ndarray]) -> np.ndarray:
    """Packed ``rows`` back in input order, as a contiguous array."""
    if order is None:
        return np.ascontiguousarray(rows)
    out = np.empty(rows.shape)
    out[order] = rows
    return out


@profiled_op
def fused_lstm_sequence(
    x: Tensor,
    h0: Tensor,
    c0: Tensor,
    w_ih: Tensor,
    w_hh: Tensor,
    bias: Tensor,
    mask: Optional[np.ndarray] = None,
) -> Tuple[Tensor, Tensor, Tensor]:
    """Run an LSTM over a padded ``(B, T, D)`` batch as one fused op.

    Gate layout follows :class:`repro.nn.lstm.LSTMCell`: the 4H columns of
    the weight matrices are [input, forget, cell, output].  ``mask``
    (``(B, T)`` bool) marks a prefix of each row as real: padding comes
    only at the end, where ``h``/``c`` carry over unchanged.  A mask with
    a hole (a real step after a padded one) raises ``ValueError``.
    ``mask=None`` means every step is real.

    Returns ``(outputs, h_T, c_T)``: the ``(B, T, H)`` hidden state after
    every step and the final hidden and cell states.  ``outputs`` is the
    one tape node of the sequence; ``h_T`` and ``c_T`` are thin child
    nodes that hand their gradients to its backward pass, which starts
    the recurrence from them.
    """
    batch, steps, dim = x.data.shape
    hidden = h0.data.shape[1]
    order, live = _packing(mask, batch, steps)
    # Steps with at least one real row; the rest are padding for every row.
    t_live = sum(1 for n in live if n)
    w_hh_data = w_hh.data
    parents = (x, h0, c0, w_ih, w_hh, bias)
    record = is_grad_enabled() and any(p.requires_grad for p in parents)

    # sigmoid(z) = (1 + tanh(z / 2)) / 2, so one tanh over all 4H gate
    # columns, pre-scaled by 1/2 except the cell gate's, gives every
    # activation.  Halving is exact, so it is folded into the weights.
    half = np.full(4 * hidden, 0.5)
    half[2 * hidden : 3 * hidden] = 1.0
    shift = 1.0 - half
    w_ih_half = w_ih.data * half
    bias_half = bias.data * half
    w_hh_half = w_hh_data * half
    # The live steps' inputs, time-major and in packed order.  Each step
    # projects its own live rows: a (T, B, 4H) projection made up front
    # would be the kernel's largest array, and the same work.
    x_flat = _time_major(x.data, order, t_live)
    x_tm = x_flat.reshape(t_live, batch, dim)
    # states[t] is the hidden state entering step t; states[1:] the outputs.
    states = np.empty((steps + 1, batch, hidden))
    states[0] = h0.data if order is None else h0.data[order]
    h = states[0].copy()
    c = _packed_copy(c0.data, order)
    if record:
        # Per-step buffers for the backward pass; step t fills rows [:n_t].
        acts = np.empty((t_live, batch, 4 * hidden))
        tanh_cs = np.empty((t_live, batch, hidden))
        c_prevs = np.empty((t_live, batch, hidden))
    else:
        gates = np.empty((batch, 4 * hidden))
    for t in range(t_live):
        n = live[t]
        h_live, c_live = h[:n], c[:n]
        act = acts[t, :n] if record else gates[:n]
        np.matmul(x_tm[t, :n], w_ih_half, out=act)
        act += bias_half
        act += h_live @ w_hh_half
        np.tanh(act, out=act)
        act *= half
        act += shift
        if record:
            c_prevs[t, :n] = c_live
        c_live *= act[:, hidden : 2 * hidden]
        c_live += act[:, :hidden] * act[:, 2 * hidden : 3 * hidden]
        tanh_c = np.tanh(c_live, out=tanh_cs[t, :n] if record else None)
        np.multiply(act[:, 3 * hidden :], tanh_c, out=h_live)
        states[t + 1] = h
    states[t_live + 1 :] = h
    outputs = _unpack(states[1:].swapaxes(0, 1), order)

    # Gradients reaching h_T / c_T, parked here by their nodes' closures,
    # which always run before the sequence node's (they are its children).
    final: Dict[str, np.ndarray] = {}

    def backward_sequence(grad: np.ndarray) -> None:
        grad_tm = grad.swapaxes(0, 1)
        if order is not None:
            grad_tm = grad_tm[:, order]
        d_h = _packed_copy(final["h"], order) if "h" in final else np.zeros((batch, hidden))
        d_c = _packed_copy(final["c"], order) if "c" in final else np.zeros((batch, hidden))
        final.clear()
        # Padding rows of a step keep their zero gate gradients.
        d_gates = np.zeros((t_live, batch, 4 * hidden))
        for t in range(steps - 1, -1, -1):
            # A row past its end hands its state gradient straight back.
            d_h += grad_tm[t]
            if t >= t_live:
                continue
            n = live[t]
            act = acts[t, :n]
            i, f = act[:, :hidden], act[:, hidden : 2 * hidden]
            g, o = act[:, 2 * hidden : 3 * hidden], act[:, 3 * hidden :]
            tanh_c = tanh_cs[t, :n]
            dh, dc = d_h[:n], d_c[:n]
            # With dc the gradient of the step's new cell state and dh that
            # of its new hidden state, the pre-activation gate gradients are
            # [dc*g*i', dc*c_prev*f', dc*i*g', dh*tanh(c)*o'].
            dc += dh * (o * (1.0 - tanh_c * tanh_c))
            d_gate = d_gates[t, :n]
            np.multiply(g * i * (1.0 - i), dc, out=d_gate[:, :hidden])
            np.multiply(c_prevs[t, :n] * f * (1.0 - f), dc, out=d_gate[:, hidden : 2 * hidden])
            np.multiply(i * (1.0 - g * g), dc, out=d_gate[:, 2 * hidden : 3 * hidden])
            np.multiply(tanh_c * o * (1.0 - o), dh, out=d_gate[:, 3 * hidden :])
            np.matmul(d_gate, w_hh_data.T, out=dh)
            dc *= f
        flat_gates = d_gates.reshape(t_live * batch, 4 * hidden)
        d_x = np.zeros((steps, batch, dim))
        np.matmul(flat_gates, w_ih.data.T, out=d_x[:t_live].reshape(t_live * batch, dim))
        out._send(x, _unpack(d_x.swapaxes(0, 1), order))
        out._send(h0, _unpack(d_h, order))
        out._send(c0, _unpack(d_c, order))
        out._send(w_ih, x_flat.T @ flat_gates)
        out._send(w_hh, states[:t_live].reshape(t_live * batch, hidden).T @ flat_gates)
        out._send(bias, flat_gates.sum(axis=0))

    def final_state(data: np.ndarray, key: str) -> Tensor:
        def backward_final(grad: np.ndarray) -> None:
            final[key] = grad
            node_ref()._send(out, np.zeros_like(outputs))

        node = Tensor._make(data, (out,), backward_final)
        # A weak self-reference: callers usually drop the final states
        # unused, and then nothing runs backward through them to release
        # them, so a strong one would leave a cycle holding ``out``.
        node_ref = weakref.ref(node)
        return node

    out = Tensor._make(outputs, parents, backward_sequence)
    return out, final_state(_unpack(h, order), "h"), final_state(_unpack(c, order), "c")
