"""Validation of the fused LSTM sequence kernel against the composed reference."""

import gc
import weakref

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, no_grad, stack, where
from repro.nn import LSTM, LSTMCell, gather_last
from repro.nn.fused import fused_lstm_sequence

#: Ragged validity mask (B=3, T=5): full, length 3, length 1.
MASK = np.array(
    [
        [True, True, True, True, True],
        [True, True, True, False, False],
        [True, False, False, False, False],
    ]
)


@pytest.fixture
def cell(rng):
    return LSTMCell(3, 4, rng=rng)


def make_state(rng, batch=2, hidden=4):
    return (
        Tensor(rng.normal(size=(batch, 3))),
        Tensor(rng.normal(size=(batch, hidden))),
        Tensor(rng.normal(size=(batch, hidden))),
    )


def composed_sequence(cell, x, h, c, mask):
    """Per-step loop of the primitive-op cell with mask carry-over."""
    outputs = []
    for t in range(x.shape[1]):
        h_new, c_new = cell.forward_composed(x[:, t, :], (h, c))
        m = mask[:, t : t + 1]
        h = where(m, h_new, h)
        c = where(m, c_new, c)
        outputs.append(h)
    return stack(outputs, axis=1), h, c


def fused_sequence(cell, x, h, c, mask):
    return fused_lstm_sequence(x, h, c, cell.weight_ih, cell.weight_hh, cell.bias, mask)


class TestFusedMatchesComposed:
    def test_forward_values(self, cell, rng):
        x, h, c = make_state(rng)
        h_fused, c_fused = cell(x, (h, c))
        h_ref, c_ref = cell.forward_composed(x, (h, c))
        np.testing.assert_allclose(h_fused.data, h_ref.data, atol=1e-12)
        np.testing.assert_allclose(c_fused.data, c_ref.data, atol=1e-12)

    def test_gradients_match_composed(self, cell, rng):
        x_raw = rng.normal(size=(2, 3))
        h_raw = rng.normal(size=(2, 4))
        c_raw = rng.normal(size=(2, 4))
        # Deterministic downstream weighting mixing both outputs.
        w_h = rng.normal(size=(2, 4))
        w_c = rng.normal(size=(2, 4))

        def run(step_fn):
            cell.zero_grad()
            x = Tensor(x_raw, requires_grad=True)
            h = Tensor(h_raw, requires_grad=True)
            c = Tensor(c_raw, requires_grad=True)
            h2, c2 = step_fn(x, (h, c))
            loss = (h2 * Tensor(w_h)).sum() + (c2 * Tensor(w_c) * h2).sum()
            loss.backward()
            return (
                x.grad.copy(),
                h.grad.copy(),
                c.grad.copy(),
                cell.weight_ih.grad.copy(),
                cell.weight_hh.grad.copy(),
                cell.bias.grad.copy(),
            )

        fused = run(cell)
        composed = run(cell.forward_composed)
        for a, b in zip(fused, composed):
            np.testing.assert_allclose(a, b, atol=1e-10)

    def test_gradcheck_all_inputs(self, rng):
        """Finite differences on every input of the sequence kernel, with a
        ragged mask and gradients entering through outputs, h_T and c_T."""
        x = rng.normal(size=(3, 5, 2))
        h = rng.normal(size=(3, 3))
        c = rng.normal(size=(3, 3))
        w_ih = rng.normal(size=(2, 12)) * 0.3
        w_hh = rng.normal(size=(3, 12)) * 0.3
        b = rng.normal(size=12) * 0.1
        w_out = rng.normal(size=(3, 5, 3))

        def fn(xt, ht, ct, wi, wh, bt):
            out, h_last, c_last = fused_lstm_sequence(xt, ht, ct, wi, wh, bt, MASK)
            return (out * Tensor(w_out)).sum() + (h_last * h_last).sum() + (c_last * 2.0).sum()

        check_gradients(fn, [x, h, c, w_ih, w_hh, b], atol=1e-4)

    def test_full_lstm_uses_fused_and_trains(self, rng):
        lstm = LSTM(2, 4, rng=rng)
        x = Tensor(rng.normal(size=(3, 5, 2)))
        mask = np.ones((3, 5), bool)
        out, _ = lstm(x, mask=mask)
        gather_last(out, np.array([5, 5, 5])).sum().backward()
        for name, p in lstm.named_parameters():
            assert p.grad is not None, name


class TestFusedSequence:
    """The whole-sequence kernel against a per-step composed loop."""

    @pytest.fixture
    def inputs(self, rng):
        return (
            rng.normal(size=(3, 5, 3)),
            rng.normal(size=(3, 4)),
            rng.normal(size=(3, 4)),
        )

    def test_values_match_composed_loop(self, cell, inputs):
        x, h, c = (Tensor(a) for a in inputs)
        fused = fused_sequence(cell, x, h, c, MASK)
        composed = composed_sequence(cell, x, h, c, MASK)
        for a, b in zip(fused, composed):
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=1e-10)

    def test_gradients_match_composed_loop(self, cell, inputs, rng):
        """Gradients through outputs, h_T and c_T into all six inputs."""
        w_out = rng.normal(size=(3, 5, 4))
        w_h = rng.normal(size=(3, 4))
        w_c = rng.normal(size=(3, 4))

        def run(sequence_fn):
            cell.zero_grad()
            x, h, c = (Tensor(a, requires_grad=True) for a in inputs)
            out, h_last, c_last = sequence_fn(cell, x, h, c, MASK)
            loss = (
                (out * Tensor(w_out)).sum()
                + (h_last * Tensor(w_h)).sum()
                + (c_last * Tensor(w_c) * c_last).sum()
            )
            loss.backward()
            return [t.grad.copy() for t in (x, h, c)] + [
                p.grad.copy() for p in (cell.weight_ih, cell.weight_hh, cell.bias)
            ]

        for a, b in zip(run(fused_sequence), run(composed_sequence)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)

    def test_padded_inputs_get_zero_gradient(self, cell, inputs):
        x = Tensor(inputs[0], requires_grad=True)
        h, c = Tensor(inputs[1]), Tensor(inputs[2])
        out, _, _ = fused_sequence(cell, x, h, c, MASK)
        out.sum().backward()
        np.testing.assert_array_equal(x.grad[~MASK], 0.0)
        assert np.all(x.grad[MASK] != 0.0)

    def test_records_one_node_per_sequence(self, cell, inputs):
        x, h, c = (Tensor(a, requires_grad=True) for a in inputs)
        out, h_last, c_last = fused_sequence(cell, x, h, c, MASK)
        assert out._parents == (x, h, c, cell.weight_ih, cell.weight_hh, cell.bias)
        assert h_last._parents == (out,)
        assert c_last._parents == (out,)

    def test_no_grad_records_nothing(self, cell, inputs):
        x, h, c = (Tensor(a, requires_grad=True) for a in inputs)
        with no_grad():
            out, h_last, c_last = fused_sequence(cell, x, h, c, MASK)
        for t in (out, h_last, c_last):
            assert t._backward is None and t._parents == ()

    def test_unused_final_states_do_not_keep_outputs_alive(self, rng):
        """The usual call drops (h_T, c_T); after backward, reference
        counting alone must free the sequence node."""
        lstm = LSTM(3, 4, rng=rng)
        x = Tensor(rng.normal(size=(3, 5, 3)), requires_grad=True)

        def run_lstm():
            outputs, _ = lstm(x, mask=MASK)
            return outputs

        gc.collect()
        gc.disable()
        try:
            outputs = run_lstm()
            alive = weakref.ref(outputs)
            loss = outputs.sum()
            del outputs
            loss.backward()
            del loss
            assert alive() is None
        finally:
            gc.enable()
