"""Batched, mask-aware LSTM.

Every model in the paper (SRN, NeuTraj, T3S, Traj2SimVec, TMN) uses an LSTM
backbone over padded trajectory batches.  This implementation follows the
standard formulation of Hochreiter & Schmidhuber with input/forget/cell/
output gates and supports a per-time-step validity mask: at padded steps the
hidden and cell states are carried forward unchanged, so the output at any
step ``>= length`` equals the representation of the last real point — which
is exactly the "final time step output" the paper uses as the trajectory
embedding.

Both :class:`LSTM` and :class:`LSTMCell` run on the fused sequence kernel
:func:`repro.nn.fused.fused_lstm_sequence` (a cell step is a one-step
sequence), which records one tape node per sequence;
:meth:`LSTMCell.forward_composed` is the primitive-op reference it is
tested against.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autograd import Tensor
from . import init
from .fused import fused_lstm_sequence
from .module import Module, Parameter

__all__ = ["LSTM", "LSTMCell", "gather_last"]


class LSTMCell(Module):
    """A single LSTM step: (x_t, h, c) -> (h', c')."""

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("LSTM sizes must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        self.weight_ih = Parameter(init.xavier_uniform((input_size, 4 * h), rng), name="weight_ih")
        self.weight_hh = Parameter(init.orthogonal((h, 4 * h), rng), name="weight_hh")
        bias = np.zeros(4 * h)
        # Forget-gate bias of 1.0: the usual trick that stabilises early
        # training by defaulting to remembering.
        bias[h : 2 * h] = 1.0
        self.bias = Parameter(bias, name="bias")

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        """Run one LSTM step on a batch: the fused sequence kernel over T=1."""
        h_prev, c_prev = state
        x_seq = x.reshape(x.shape[0], 1, x.shape[1])
        _, h, c = fused_lstm_sequence(
            x_seq, h_prev, c_prev, self.weight_ih, self.weight_hh, self.bias
        )
        return h, c

    def forward_composed(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        """Reference implementation from primitive ops.

        Kept for validating the fused kernel (the test suite asserts a
        per-step loop of it and the fused sequence produce the same values
        and gradients).
        """
        h_prev, c_prev = state
        gates = x @ self.weight_ih + h_prev @ self.weight_hh + self.bias
        hs = self.hidden_size
        i = gates[:, 0 * hs : 1 * hs].sigmoid()
        f = gates[:, 1 * hs : 2 * hs].sigmoid()
        g = gates[:, 2 * hs : 3 * hs].tanh()
        o = gates[:, 3 * hs : 4 * hs].sigmoid()
        c = f * c_prev + i * g
        h = o * c.tanh()
        return h, c


class LSTM(Module):
    """Unidirectional LSTM over a padded batch.

    Parameters
    ----------
    input_size:
        Dimension of each time step's feature vector.
    hidden_size:
        Dimension of the hidden state (the paper's ``d``).
    """

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)

    def forward(
        self,
        x: Tensor,
        mask: Optional[np.ndarray] = None,
        initial_state: Optional[Tuple[Tensor, Tensor]] = None,
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        """Run the LSTM over a (batch, time, feature) tensor.

        Parameters
        ----------
        x:
            Input of shape ``(B, T, input_size)``.
        mask:
            Optional boolean array ``(B, T)``; False marks padding.  Padded
            steps leave ``h``/``c`` unchanged.
        initial_state:
            Optional ``(h0, c0)`` each of shape ``(B, hidden_size)``.

        Returns
        -------
        outputs:
            Tensor ``(B, T, hidden_size)`` of hidden states at every step
            (the paper's ``Z``).
        (h, c):
            Final hidden and cell state.
        """
        if x.ndim != 3:
            raise ValueError(f"LSTM expects (B, T, D) input, got shape {x.shape}")
        batch = x.shape[0]
        if initial_state is None:
            h0 = Tensor(np.zeros((batch, self.hidden_size)))
            c0 = Tensor(np.zeros((batch, self.hidden_size)))
        else:
            h0, c0 = initial_state
        cell = self.cell
        outputs, h, c = fused_lstm_sequence(
            x, h0, c0, cell.weight_ih, cell.weight_hh, cell.bias, mask
        )
        return outputs, (h, c)


def gather_last(outputs: Tensor, lengths: np.ndarray) -> Tensor:
    """Select each sequence's output at its true final step.

    ``outputs`` has shape (B, T, H) and ``lengths`` gives each sequence's
    unpadded length; row ``b`` of the result is ``outputs[b, lengths[b]-1]``
    — the paper's ``O^(m)`` trajectory embedding.
    """
    lengths = np.asarray(lengths, dtype=int)
    if np.any(lengths < 1) or np.any(lengths > outputs.shape[1]):
        raise ValueError("lengths out of range for gather_last")
    rows = np.arange(outputs.shape[0])
    return outputs[rows, lengths - 1]
