"""Fused LSTM sequence kernel with a hand-derived backward pass.

Composing an LSTM from primitive autodiff ops records a slice, a cell
update, two mask selects and a final stack for every time step, so the
tape grows with the sequence and every step pays Python-object overhead
even under ``no_grad``.  This module runs the whole padded sequence as a
plain numpy loop and records one tape node for it, whose closure is an
analytically derived, mask-aware backward pass through time.  The values
and gradients are validated against finite differences and against a
per-step loop of :meth:`repro.nn.lstm.LSTMCell.forward_composed` in the
test suite.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from ..autograd import Tensor, is_grad_enabled, profiled_op

__all__ = ["fused_lstm_sequence"]


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
    the weight matrices are [input, forget, cell, output].  Where ``mask``
    (``(B, T)`` bool) is False the step is padding and ``h``/``c`` carry
    over unchanged.

    Returns ``(outputs, h_T, c_T)``: the ``(B, T, H)`` hidden state after
    every step and the final hidden and cell states.  ``outputs`` is the
    one tape node of the sequence; ``h_T`` and ``c_T`` are thin child
    nodes that hand their gradients to its backward pass, which starts
    the recurrence from them.
    """
    batch, steps, _ = x.data.shape
    hidden = h0.data.shape[1]
    w_hh_data = w_hh.data
    parents = (x, h0, c0, w_ih, w_hh, bias)
    record = is_grad_enabled() and any(p.requires_grad for p in parents)
    # Per step, the (B, 1) column of real rows, or None when every row is
    # real and the step needs no carry-over select.
    if mask is None:
        step_keep = [None] * steps
    else:
        step_keep = [None if col.all() else col[:, None] for col in np.asarray(mask, dtype=bool).T]

    # sigmoid(z) = (1 + tanh(z / 2)) / 2, so one tanh over all 4H gate
    # columns, pre-scaled by 1/2 except the cell gate's, gives every
    # activation.  Halving is exact, so it is folded into the weights.
    half = np.full(4 * hidden, 0.5)
    half[2 * hidden : 3 * hidden] = 1.0
    shift = 1.0 - half
    x_proj = (x.data @ w_ih.data + bias.data) * half
    w_hh_half = w_hh_data * half
    outputs = np.empty((batch, steps, hidden))
    if record:
        # Time-major per-step buffers for the backward pass.
        acts = np.empty((steps, batch, 4 * hidden))
        tanh_cs = np.empty((steps, batch, hidden))
        c_prevs = np.empty((steps, batch, hidden))
    h, c = h0.data, c0.data
    for t in range(steps):
        act = np.tanh(x_proj[:, t] + h @ w_hh_half)
        act *= half
        act += shift
        c_new = act[:, hidden : 2 * hidden] * c + act[:, :hidden] * act[:, 2 * hidden : 3 * hidden]
        tanh_c = np.tanh(c_new)
        h_new = act[:, 3 * hidden :] * tanh_c
        if record:
            acts[t] = act
            tanh_cs[t] = tanh_c
            c_prevs[t] = c
        keep = step_keep[t]
        if keep is None:
            h, c = h_new, c_new
        else:
            h = np.where(keep, h_new, h)
            c = np.where(keep, c_new, c)
        outputs[:, t] = h

    # Gradients reaching h_T / c_T, parked here by their nodes' closures,
    # which always run before the sequence node's (they are its children).
    final: Dict[str, np.ndarray] = {}

    def backward_sequence(grad: np.ndarray) -> None:
        gate = acts.reshape(steps, batch, 4, hidden)
        i, f, g, o = gate[:, :, 0], gate[:, :, 1], gate[:, :, 2], gate[:, :, 3]
        # Per-step local derivatives, vectorised over the sequence.  With
        # dc the gradient of the step's new cell state and dh that of its
        # new hidden state, the pre-activation gate gradients are
        # [dc*g*i', dc*c_prev*f', dc*i*g'] and dh*tanh(c)*o'.
        from_c = np.stack(
            [g * i * (1.0 - i), c_prevs * f * (1.0 - f), i * (1.0 - g * g)], axis=2
        )
        from_h = tanh_cs * o * (1.0 - o)
        h_to_c = o * (1.0 - tanh_cs * tanh_cs)
        d_gates = np.empty((steps, batch, 4, hidden))
        d_h = final.pop("h", np.zeros((batch, hidden)))
        d_c = final.pop("c", np.zeros((batch, hidden)))
        for t in range(steps - 1, -1, -1):
            d_h = d_h + grad[:, t]
            keep = step_keep[t]
            if keep is not None:
                # A padded row hands its state gradient straight back.
                d_h_carry = np.where(keep, 0.0, d_h)
                d_c_carry = np.where(keep, 0.0, d_c)
                d_h = np.where(keep, d_h, 0.0)
                d_c = np.where(keep, d_c, 0.0)
            d_c = d_c + d_h * h_to_c[t]
            np.multiply(from_c[t], d_c[:, None, :], out=d_gates[t, :, :3])
            np.multiply(from_h[t], d_h, out=d_gates[t, :, 3])
            d_h = d_gates[t].reshape(batch, 4 * hidden) @ w_hh_data.T
            d_c = d_c * f[t]
            if keep is not None:
                d_h = d_h + d_h_carry
                d_c = d_c + d_c_carry
        d_gates_bt = d_gates.reshape(steps, batch, 4 * hidden).transpose(1, 0, 2)
        flat_gates = d_gates_bt.reshape(batch * steps, 4 * hidden)
        h_prevs = np.concatenate([h0.data[:, None], outputs[:, :-1]], axis=1)
        out._send(x, d_gates_bt @ w_ih.data.T)
        out._send(h0, d_h)
        out._send(c0, d_c)
        out._send(w_ih, x.data.reshape(batch * steps, -1).T @ flat_gates)
        out._send(w_hh, h_prevs.reshape(batch * steps, hidden).T @ flat_gates)
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
    return out, final_state(h, "h"), final_state(c, "c")
