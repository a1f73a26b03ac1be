"""Tests for the matching mechanism and self-attention."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, concat, masked_softmax
from repro.nn import SelfAttention, cross_match, match_pattern


class TestMatchPattern:
    def test_rows_are_distributions(self, rng):
        xa = Tensor(rng.normal(size=(2, 4, 3)))
        xb = Tensor(rng.normal(size=(2, 4, 3)))
        p = match_pattern(xa, xb).data
        np.testing.assert_allclose(p.sum(axis=-1), np.ones((2, 4)))

    def test_masked_keys_get_zero_weight(self, rng):
        xa = Tensor(rng.normal(size=(1, 3, 2)))
        xb = Tensor(rng.normal(size=(1, 3, 2)))
        mask_b = np.array([[True, False, True]])
        p = match_pattern(xa, xb, mask_b=mask_b).data
        assert np.all(p[0, :, 1] == 0.0)
        np.testing.assert_allclose(p.sum(axis=-1), np.ones((1, 3)))

    def test_masked_query_rows_zeroed(self, rng):
        xa = Tensor(rng.normal(size=(1, 3, 2)))
        xb = Tensor(rng.normal(size=(1, 3, 2)))
        mask_a = np.array([[True, True, False]])
        p = match_pattern(xa, xb, mask_a=mask_a).data
        np.testing.assert_allclose(p[0, 2], np.zeros(3))

    def test_unbatched_2d_inputs(self, rng):
        xa = Tensor(rng.normal(size=(4, 3)))
        xb = Tensor(rng.normal(size=(5, 3)))
        p = match_pattern(xa, xb).data
        assert p.shape == (4, 5)
        np.testing.assert_allclose(p.sum(axis=-1), np.ones(4))

    def test_identical_points_attend_to_match(self):
        # Strongly separated embeddings: each point of a matches its twin in b.
        base = np.eye(4)[None, :, :] * 10.0
        p = match_pattern(Tensor(base), Tensor(base)).data[0]
        assert np.all(p.argmax(axis=1) == np.arange(4))


class TestCrossMatch:
    def test_shapes(self, rng):
        xa = Tensor(rng.normal(size=(2, 5, 3)))
        xb = Tensor(rng.normal(size=(2, 5, 3)))
        (m, p), _ = cross_match(xa, xb)
        assert m.shape == (2, 5, 3)
        assert p.shape == (2, 5, 5)

    def test_discrepancy_is_x_minus_summary(self, rng):
        xa = Tensor(rng.normal(size=(1, 4, 3)))
        xb = Tensor(rng.normal(size=(1, 4, 3)))
        (m, p), _ = cross_match(xa, xb)
        summary = p.data @ xb.data
        np.testing.assert_allclose(m.data, xa.data - summary, atol=1e-12)

    def test_padded_rows_zeroed(self, rng):
        xa = Tensor(rng.normal(size=(1, 4, 3)))
        xb = Tensor(rng.normal(size=(1, 4, 3)))
        mask_a = np.array([[True, True, False, False]])
        (m, _), _ = cross_match(xa, xb, mask_a=mask_a)
        np.testing.assert_allclose(m.data[0, 2:], np.zeros((2, 3)))

    def test_self_match_discrepancy_small_for_identical_points(self):
        # All points equal: the weighted summary is exactly the point itself.
        pts = np.ones((1, 5, 3))
        (m, _), _ = cross_match(Tensor(pts), Tensor(pts))
        np.testing.assert_allclose(m.data, np.zeros_like(pts), atol=1e-12)

    def test_gradcheck(self, rng):
        xa = rng.normal(size=(2, 3, 2))
        xb = rng.normal(size=(2, 3, 2))
        ma = np.array([[1, 1, 0], [1, 1, 1]], bool)
        mb = np.array([[1, 0, 0], [1, 1, 1]], bool)
        check_gradients(lambda a, b: cross_match(a, b, ma, mb)[0][0], [xa, xb], atol=1e-4)

    def test_gradcheck_both_sides(self, rng):
        xa = rng.normal(size=(2, 3, 2))
        xb = rng.normal(size=(2, 4, 2))
        ma = np.array([[1, 1, 0], [1, 1, 1]], bool)
        mb = np.array([[1, 0, 0, 0], [1, 1, 1, 1]], bool)

        def both(a, b):
            (m_a, _), (m_b, _) = cross_match(a, b, ma, mb)
            return concat([m_a, m_b], axis=1)

        check_gradients(both, [xa, xb], atol=1e-4)

    def test_side_b_is_the_reverse_direction(self, rng):
        """Side b, read from the shared scores, is the b<-a matching."""
        xa = Tensor(rng.normal(size=(2, 5, 3)))
        xb = Tensor(rng.normal(size=(2, 4, 3)))
        ma = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], bool)
        mb = np.array([[1, 1, 0, 0], [1, 1, 1, 1]], bool)
        _, (m_b, p_b) = cross_match(xa, xb, ma, mb)
        p_ref = match_pattern(xb, xa, mask_a=mb, mask_b=ma).data
        np.testing.assert_allclose(p_b.data, p_ref, rtol=0, atol=1e-12)
        m_ref = (xb.data - p_ref @ xa.data) * mb[..., None]
        np.testing.assert_allclose(m_b.data, m_ref, rtol=0, atol=1e-12)

    def test_self_pair_returns_one_direction(self, rng):
        x = Tensor(rng.normal(size=(2, 4, 3)))
        mask = np.array([[1, 1, 1, 0], [1, 1, 1, 1]], bool)
        side_a, side_b = cross_match(x, x, mask, mask)
        assert side_b[0] is side_a[0] and side_b[1] is side_a[1]

    def test_padding_invariance(self, rng):
        """Extending both trajectories with padded points must not change
        the discrepancy on the real points (Section IV-B masking)."""
        xa = rng.normal(size=(1, 3, 2))
        xb = rng.normal(size=(1, 3, 2))
        (m_short, _), _ = cross_match(
            Tensor(xa), Tensor(xb), np.ones((1, 3), bool), np.ones((1, 3), bool)
        )
        xa_pad = np.concatenate([xa, np.zeros((1, 2, 2))], axis=1)
        xb_pad = np.concatenate([xb, np.zeros((1, 2, 2))], axis=1)
        mask = np.array([[True, True, True, False, False]])
        (m_pad, _), _ = cross_match(Tensor(xa_pad), Tensor(xb_pad), mask, mask)
        np.testing.assert_allclose(m_pad.data[:, :3], m_short.data, atol=1e-12)


class TestSelfAttention:
    def test_output_shape(self, rng):
        attn = SelfAttention(4, rng=rng)
        out = attn(Tensor(rng.normal(size=(2, 6, 4))))
        assert out.shape == (2, 6, 4)

    def test_mask_hides_padding(self, rng):
        attn = SelfAttention(3, rng=rng)
        x = rng.normal(size=(1, 4, 3))
        mask = np.array([[True, True, True, False]])
        out = attn(Tensor(x), mask=mask)
        # Padded query rows produce zero output.
        np.testing.assert_allclose(out.data[0, 3], np.zeros(3), atol=1e-12)

    def test_mask_padding_invariance(self, rng):
        attn = SelfAttention(3, rng=rng)
        x = rng.normal(size=(1, 3, 3))
        out_short = attn(Tensor(x), mask=np.ones((1, 3), bool))
        x_pad = np.concatenate([x, np.zeros((1, 2, 3))], axis=1)
        mask = np.array([[True, True, True, False, False]])
        out_pad = attn(Tensor(x_pad), mask=mask)
        np.testing.assert_allclose(out_pad.data[:, :3], out_short.data, atol=1e-12)

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            SelfAttention(0)

    def test_gradcheck(self, rng):
        attn = SelfAttention(2, rng=rng)
        x = rng.normal(size=(1, 3, 2))
        check_gradients(lambda t: attn(t), [x], atol=1e-4)

    def test_gradcheck_ragged_mask(self, rng):
        attn = SelfAttention(3, rng=rng)
        x = rng.normal(size=(3, 4, 3))
        mask = np.array([[True] * 4, [True, True, False, False], [True, False, False, False]])
        check_gradients(lambda t: attn(t, mask=mask), [x], atol=1e-4)

    def test_matches_row_mask_multiply_reference(self, rng):
        """Folding the row mask into the softmax mask changes no value: the
        output and every gradient equal a key-mask softmax followed by a
        row-mask multiply, to 1e-12."""
        attn = SelfAttention(3, rng=rng)
        x_data = rng.normal(size=(3, 5, 3))
        mask = np.array([[True] * 5, [True, True, True, False, False], [True] + [False] * 4])

        def reference(x):
            q, k, v = x @ attn.w_q, x @ attn.w_k, x @ attn.w_v
            scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(attn.dim))
            key_mask = np.broadcast_to(np.expand_dims(mask, -2), scores.shape)
            weights = masked_softmax(scores, key_mask, axis=-1)
            weights = weights * Tensor(np.expand_dims(mask, -1).astype(float))
            return weights @ v

        grads = []
        for fn in (lambda x: attn(x, mask=mask), reference):
            attn.zero_grad()
            x = Tensor(x_data.copy(), requires_grad=True)
            out = fn(x)
            (out * Tensor(np.arange(out.data.size).reshape(out.shape))).sum().backward()
            grads.append([out.data, x.grad] + [p.grad.copy() for p in (attn.w_q, attn.w_k, attn.w_v)])
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_parameters_trainable(self, rng):
        attn = SelfAttention(3, rng=rng)
        attn(Tensor(rng.normal(size=(1, 4, 3)))).sum().backward()
        assert attn.w_q.grad is not None
        assert attn.w_k.grad is not None
        assert attn.w_v.grad is not None
