"""Unit tests for composite autodiff operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.autograd import (
    Tensor,
    check_gradients,
    clip,
    concat,
    dot_rows,
    euclidean_distance,
    masked_softmax,
    maximum,
    minimum,
    softmax,
    stack,
    where,
)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.normal(size=(5, 7)))
        s = softmax(x, axis=-1).data
        np.testing.assert_allclose(s.sum(axis=-1), np.ones(5))

    def test_invariant_to_shift(self, rng):
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            softmax(Tensor(x)).data, softmax(Tensor(x + 100.0)).data, atol=1e-12
        )

    def test_handles_large_values(self):
        s = softmax(Tensor([[1000.0, 1000.0]])).data
        np.testing.assert_allclose(s, [[0.5, 0.5]])

    def test_gradcheck(self, rng):
        x = rng.normal(size=(3, 4))
        w = Tensor(rng.normal(size=(3, 4)))
        check_gradients(lambda t: softmax(t, axis=-1) * w, [x])

    def test_axis_zero(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        np.testing.assert_allclose(softmax(x, axis=0).data.sum(axis=0), np.ones(3))


class TestMaskedSoftmax:
    def test_masked_positions_zero(self, rng):
        x = Tensor(rng.normal(size=(2, 4)))
        mask = np.array([[True, True, False, False], [True, True, True, True]])
        s = masked_softmax(x, mask).data
        assert np.all(s[0, 2:] == 0.0)
        np.testing.assert_allclose(s.sum(axis=-1), [1.0, 1.0])

    def test_fully_masked_row_is_zero(self):
        x = Tensor(np.ones((1, 3)))
        s = masked_softmax(x, np.zeros((1, 3), bool)).data
        np.testing.assert_allclose(s, np.zeros((1, 3)))
        assert not np.any(np.isnan(s))

    def test_equals_softmax_with_full_mask(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(
            masked_softmax(Tensor(x), np.ones((3, 5), bool)).data,
            softmax(Tensor(x)).data,
        )

    def test_gradcheck(self, rng):
        x = rng.normal(size=(3, 4))
        mask = np.array([[1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]], bool)
        w = Tensor(rng.normal(size=(3, 4)))
        check_gradients(lambda t: masked_softmax(t, mask) * w, [x])

    def test_broadcast_mask(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        mask = np.array([True, True, False, True])[None, None, :]
        s = masked_softmax(x, np.broadcast_to(mask, x.shape)).data
        assert np.all(s[..., 2] == 0.0)

    def test_bit_identical_to_reference_formula(self, rng):
        x = rng.normal(size=(5, 7, 7)) * 30.0
        lengths = np.array([7, 3, 1, 0, 5])
        key_mask = (np.arange(7)[None, :] < lengths[:, None])[:, None, :]
        got = masked_softmax(Tensor(x), key_mask).data
        expected = reference_masked_softmax(x, key_mask)
        assert np.array_equal(got, expected)
        assert np.all(got[3] == 0.0)  # fully masked rows give zeros

    def test_does_not_mutate_input(self, rng):
        data = rng.normal(size=(2, 3, 4))
        x = Tensor(data.copy())
        masked_softmax(x, np.array([True, False, True, True]))
        assert np.array_equal(x.data, data)

    def test_non_broadcastable_mask_raises(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 4)))
        with pytest.raises(ValueError):
            masked_softmax(x, np.ones((2, 3, 5), bool))

    def test_gradcheck_broadcast_key_mask(self, rng):
        x = rng.normal(size=(2, 3, 4))
        key_mask = np.array([[1, 1, 0, 0], [0, 0, 0, 0]], bool)[:, None, :]
        w = Tensor(rng.normal(size=(2, 3, 4)))
        check_gradients(lambda t: masked_softmax(t, key_mask) * w, [x])


def reference_masked_softmax(x, mask, axis=-1):
    """The straightforward masked softmax, one fresh array per step; the
    in-place kernel must reproduce it bit for bit."""
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    shifted = x + np.where(mask, 0.0, -np.inf)
    row_max = shifted.max(axis=axis, keepdims=True)
    row_max = np.where(np.isfinite(row_max), row_max, 0.0)
    exps = np.exp(np.where(mask, shifted - row_max, -np.inf))
    exps = np.where(mask, exps, 0.0)
    denom = exps.sum(axis=axis, keepdims=True)
    return exps / np.where(denom == 0.0, 1.0, denom)


class TestConcatStack:
    def test_concat_values(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 5))
        out = concat([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_allclose(out.data, np.concatenate([a, b], axis=1))

    def test_concat_gradcheck(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        check_gradients(lambda x, y: concat([x.tanh(), y], axis=0), [a, b])
        check_gradients(lambda x, y: concat([x, y * 2], axis=-1), [a, b])

    def test_concat_accepts_raw_arrays(self):
        out = concat([np.ones((1, 2)), np.zeros((1, 2))], axis=0)
        assert out.shape == (2, 2)

    def test_stack_values_and_grad(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        out = stack([Tensor(a), Tensor(b)], axis=1)
        np.testing.assert_allclose(out.data, np.stack([a, b], axis=1))
        check_gradients(lambda x, y: stack([x, y.exp()], axis=0), [a, b])

    def test_stack_many(self, rng):
        parts = [Tensor(rng.normal(size=(3,))) for _ in range(5)]
        assert stack(parts, axis=0).shape == (5, 3)


class TestSelection:
    def test_where_values(self, rng):
        cond = np.array([True, False, True])
        a, b = Tensor([1.0, 2.0, 3.0]), Tensor([10.0, 20.0, 30.0])
        np.testing.assert_allclose(where(cond, a, b).data, [1.0, 20.0, 3.0])

    def test_where_gradcheck(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        cond = rng.random((3, 4)) > 0.5
        check_gradients(lambda x, y: where(cond, x * 2, y), [a, b])

    def test_where_broadcast_condition(self, rng):
        cond = np.array([[True], [False]])
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        check_gradients(lambda x, y: where(cond, x, y), [a, b])

    def test_maximum_minimum_values(self):
        a, b = Tensor([1.0, 5.0]), Tensor([3.0, 2.0])
        np.testing.assert_allclose(maximum(a, b).data, [3.0, 5.0])
        np.testing.assert_allclose(minimum(a, b).data, [1.0, 2.0])

    def test_maximum_gradcheck(self, rng):
        a = rng.normal(size=(4,))
        b = rng.normal(size=(4,))
        check_gradients(lambda x, y: maximum(x, y), [a, b])
        check_gradients(lambda x, y: minimum(x, y), [a, b])

    def test_clip_values_and_grad(self, rng):
        x = Tensor(np.array([-2.0, 0.0, 2.0]), requires_grad=True)
        out = clip(x, -1.0, 1.0)
        np.testing.assert_allclose(out.data, [-1.0, 0.0, 1.0])
        out.sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_clip_one_sided(self):
        x = Tensor([-2.0, 2.0])
        np.testing.assert_allclose(clip(x, 0.0, None).data, [0.0, 2.0])
        np.testing.assert_allclose(clip(x, None, 0.0).data, [-2.0, 0.0])

    def test_clip_gradcheck(self):
        # Points kept away from the clip boundaries, where the kink would
        # invalidate the central finite difference.
        x = np.array([-1.7, -0.4, 0.3, 0.9, 1.6])
        check_gradients(lambda t: clip(t, -1.0, 1.0) * 2.0, [x])
        check_gradients(lambda t: clip(t, 0.0, None), [x])
        check_gradients(lambda t: clip(t, None, 0.5), [x])


class TestDistances:
    def test_euclidean_value(self):
        a, b = Tensor([0.0, 0.0]), Tensor([3.0, 4.0])
        assert euclidean_distance(a, b).item() == pytest.approx(5.0, abs=1e-5)

    def test_euclidean_gradcheck(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        check_gradients(lambda x, y: euclidean_distance(x, y), [a, b])

    def test_euclidean_at_zero_is_finite(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        d = euclidean_distance(a, Tensor(np.zeros(3)))
        d.backward()
        assert np.all(np.isfinite(a.grad))

    def test_dot_rows(self, rng):
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        np.testing.assert_allclose(
            dot_rows(Tensor(a), Tensor(b)).data, (a * b).sum(axis=-1)
        )

    def test_dot_rows_gradcheck(self, rng):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(4, 3))
        check_gradients(lambda x, y: dot_rows(x, y), [a, b])


@settings(max_examples=25, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(-5, 5, allow_nan=False),
    )
)
def test_property_softmax_is_distribution(arr):
    s = softmax(Tensor(arr), axis=-1).data
    assert np.all(s >= 0)
    np.testing.assert_allclose(s.sum(axis=-1), np.ones(arr.shape[0]), atol=1e-9)
