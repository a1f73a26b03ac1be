"""Unit tests for the Tensor autodiff engine."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.autograd import Tensor, check_gradients, is_grad_enabled, no_grad
from repro.core import TMN, TMNConfig
from repro.core.loss import pair_loss
from repro.core.similarity import predicted_similarity
from repro.data import pair_batch
from repro.nn import gather_last


class TestConstruction:
    def test_wraps_array(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert not t.requires_grad

    def test_promotes_integers_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype.kind == "f"

    def test_scalar(self):
        t = Tensor(3.5)
        assert t.item() == 3.5

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad=True" in repr(Tensor(1.0, requires_grad=True))
        assert "requires_grad" not in repr(Tensor(1.0))

    def test_numpy_returns_underlying(self):
        arr = np.ones(3)
        assert Tensor(arr).numpy() is arr

    def test_detach_cuts_graph(self):
        a = Tensor(2.0, requires_grad=True)
        b = (a * 3).detach()
        assert not b.requires_grad
        c = b * 2
        c.backward()
        assert a.grad is None


class TestArithmetic:
    def test_add(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (a + 3).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])

    def test_radd(self):
        a = Tensor([1.0, 2.0])
        np.testing.assert_allclose((3 + a).data, [4.0, 5.0])

    def test_sub_and_rsub(self):
        a = Tensor([5.0])
        np.testing.assert_allclose((a - 2).data, [3.0])
        np.testing.assert_allclose((2 - a).data, [-3.0])

    def test_mul_gradient(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([4.0, 5.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0, 5.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_div_gradient(self):
        a = Tensor(6.0, requires_grad=True)
        b = Tensor(3.0, requires_grad=True)
        (a / b).backward()
        assert a.grad == pytest.approx(1 / 3)
        assert b.grad == pytest.approx(-6 / 9)

    def test_rtruediv(self):
        a = Tensor(4.0)
        assert (8 / a).item() == pytest.approx(2.0)

    def test_neg(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        (-a).sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0, -1.0])

    def test_pow(self):
        a = Tensor(3.0, requires_grad=True)
        (a**2).backward()
        assert a.grad == pytest.approx(6.0)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor(2.0) ** Tensor(3.0)

    def test_gradient_accumulates_across_uses(self):
        a = Tensor(2.0, requires_grad=True)
        (a * a + a).backward()  # d/da (a^2 + a) = 2a + 1 = 5
        assert a.grad == pytest.approx(5.0)

    def test_broadcast_add_gradients(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((4,)), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 4)
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, 3.0 * np.ones(4))

    def test_broadcast_keepdim_axis(self):
        a = Tensor(np.ones((3, 1)), requires_grad=True)
        b = Tensor(np.ones((3, 5)))
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, 5.0 * np.ones((3, 1)))


class TestMatmul:
    def test_2d(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        check_gradients(lambda x, y: x @ y, [a, b])

    def test_batched(self, rng):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 5))
        check_gradients(lambda x, y: x @ y, [a, b])

    def test_broadcast_batch(self, rng):
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 5))
        check_gradients(lambda x, y: x @ y, [a, b])

    def test_vector_vector(self, rng):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        check_gradients(lambda x, y: x @ y, [a, b])

    def test_vector_matrix(self, rng):
        a = rng.normal(size=4)
        b = rng.normal(size=(4, 5))
        check_gradients(lambda x, y: x @ y, [a, b])

    def test_matrix_vector(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=4)
        check_gradients(lambda x, y: x @ y, [a, b])

    def test_value_matches_numpy(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        np.testing.assert_allclose((Tensor(a) @ Tensor(b)).data, a @ b)


class TestElementwise:
    @pytest.mark.parametrize(
        "fn",
        [
            lambda t: t.exp(),
            lambda t: t.tanh(),
            lambda t: t.sigmoid(),
            lambda t: t.relu(),
            lambda t: t.leaky_relu(),
            lambda t: t.leaky_relu(0.3),
            lambda t: t.abs(),
        ],
    )
    def test_gradcheck(self, fn, rng):
        x = rng.normal(size=(4, 3)) + 0.05  # avoid the kink exactly at 0
        check_gradients(fn, [x])

    def test_log_sqrt_gradcheck(self, rng):
        x = np.abs(rng.normal(size=(4, 3))) + 0.5
        check_gradients(lambda t: t.log(), [x])
        check_gradients(lambda t: t.sqrt(), [x])

    def test_leaky_relu_slope(self):
        t = Tensor([-10.0, 10.0])
        np.testing.assert_allclose(t.leaky_relu(0.1).data, [-1.0, 10.0])

    def test_sigmoid_range(self, rng):
        vals = Tensor(rng.normal(size=100) * 10).sigmoid().data
        assert np.all((vals > 0) & (vals < 1))


class TestReductions:
    def test_sum_axis(self, rng):
        x = rng.normal(size=(3, 4, 5))
        check_gradients(lambda t: t.sum(axis=1), [x])
        check_gradients(lambda t: t.sum(axis=(0, 2)), [x])
        check_gradients(lambda t: t.sum(axis=2, keepdims=True), [x])

    def test_mean_value(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(Tensor(x).mean(axis=0).data, x.mean(axis=0))
        check_gradients(lambda t: t.mean(axis=1), [x])
        check_gradients(lambda t: t.mean(), [x])

    def test_max_gradcheck(self, rng):
        # Distinct values so the argmax is stable under perturbation.
        x = rng.permutation(12).astype(float).reshape(3, 4)
        check_gradients(lambda t: t.max(axis=1), [x])
        check_gradients(lambda t: t.max(), [x])

    def test_max_tie_splits_gradient(self):
        x = Tensor([[1.0, 1.0]], requires_grad=True)
        x.max(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, [[0.5, 0.5]])


class TestShapes:
    def test_reshape(self, rng):
        x = rng.normal(size=(2, 6))
        check_gradients(lambda t: t.reshape(3, 4), [x])
        check_gradients(lambda t: t.reshape((4, 3)), [x])

    def test_transpose_default_and_axes(self, rng):
        x = rng.normal(size=(2, 3, 4))
        check_gradients(lambda t: t.transpose(), [x])
        check_gradients(lambda t: t.transpose(1, 0, 2), [x])
        np.testing.assert_allclose(Tensor(x).T.data, x.T)

    def test_swapaxes(self, rng):
        x = rng.normal(size=(2, 3, 4))
        np.testing.assert_allclose(Tensor(x).swapaxes(1, 2).data, x.swapaxes(1, 2))
        check_gradients(lambda t: t.swapaxes(0, 2), [x])

    def test_expand_squeeze(self, rng):
        x = rng.normal(size=(3, 4))
        check_gradients(lambda t: t.expand_dims(1), [x])
        y = rng.normal(size=(3, 1, 4))
        check_gradients(lambda t: t.squeeze(1), [y])

    def test_broadcast_to(self, rng):
        x = rng.normal(size=(3, 1))
        check_gradients(lambda t: t.broadcast_to((3, 5)), [x])

    def test_getitem_slice_and_fancy(self, rng):
        x = rng.normal(size=(5, 4))
        check_gradients(lambda t: t[1:3], [x])
        check_gradients(lambda t: t[[0, 2, 2]], [x])  # repeated index accumulates
        check_gradients(lambda t: t[np.array([0, 1]), np.array([2, 3])], [x])

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        x[[0, 0, 1]].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 1.0, 0.0])


class TestBackwardMechanics:
    def test_backward_requires_scalar(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()

    def test_backward_with_explicit_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t * 2).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(t.grad, [2.0, 4.0, 6.0])

    def test_zero_grad(self):
        t = Tensor(1.0, requires_grad=True)
        (t * 2).backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph(self):
        # y = (a + a) * a: grad = 4a
        a = Tensor(3.0, requires_grad=True)
        ((a + a) * a).backward()
        assert a.grad == pytest.approx(12.0)

    def test_deep_chain_no_recursion_error(self):
        t = Tensor(1.0, requires_grad=True)
        x = t
        for _ in range(3000):
            x = x * 1.0001
        x.backward()
        assert t.grad is not None

    def test_no_grad_context(self):
        assert is_grad_enabled()
        a = Tensor(1.0, requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            b = a * 2
        assert is_grad_enabled()
        assert not b.requires_grad
        assert b._backward is None

    def test_requires_grad_suppressed_inside_no_grad(self):
        with no_grad():
            t = Tensor(1.0, requires_grad=True)
        assert not t.requires_grad


class TestGraphRelease:
    """backward() frees the graph it consumes, as PyTorch does by default."""

    @staticmethod
    def _tmn_step_graph(rng):
        """Forward and loss of one TMN training step (as Trainer._train_step)."""
        model = TMN(TMNConfig(hidden_dim=8, seed=0))
        trajs = [rng.normal(size=(int(rng.integers(4, 9)), 2)) for _ in range(6)]
        pa, la, ma, pb, lb, mb = pair_batch(trajs[:3], trajs[3:])
        out_a, out_b = model.forward_pair(pa, la, ma, pb, lb, mb)
        pred = predicted_similarity(gather_last(out_a, la), gather_last(out_b, lb))
        loss = pair_loss("mse", pred, np.full(3, 0.5), np.ones(3))
        return model, out_a, loss

    def test_training_graph_freed_without_cyclic_gc(self, rng):
        """Reference counting alone reclaims the step's intermediates."""
        gc.collect()
        gc.disable()
        try:
            model, out_a, loss = self._tmn_step_graph(rng)
            intermediate = weakref.ref(out_a)
            del out_a
            assert intermediate() is not None  # the loss graph holds it
            loss.backward()
            del loss
            assert intermediate() is None
            assert all(p.grad is not None for p in model.parameters())
        finally:
            gc.enable()

    def test_second_backward_through_freed_graph_raises(self, rng):
        _, _, loss = self._tmn_step_graph(rng)
        loss.backward()
        with pytest.raises(RuntimeError, match="second time"):
            loss.backward()

    def test_reusing_a_freed_intermediate_raises(self):
        a = Tensor(2.0, requires_grad=True)
        y = a * 3.0
        (y * 2.0).backward()
        with pytest.raises(RuntimeError, match="second time"):
            (y * 5.0).backward()
        assert a.grad == pytest.approx(6.0)

    def test_leaves_keep_accumulating_across_graphs(self):
        a = Tensor(2.0, requires_grad=True)
        (a * 3.0).backward()
        (a * 4.0).backward()
        assert a.grad == pytest.approx(7.0)


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4),
        elements=st.floats(-3, 3, allow_nan=False),
    )
)
def test_property_sum_matches_numpy(arr):
    np.testing.assert_allclose(Tensor(arr).sum().item(), arr.sum(), atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 4), st.integers(1, 4)),
        elements=st.floats(-2, 2, allow_nan=False),
    )
)
def test_property_add_backward_is_ones(arr):
    t = Tensor(arr, requires_grad=True)
    (t + 1.0).sum().backward()
    np.testing.assert_allclose(t.grad, np.ones_like(arr))
