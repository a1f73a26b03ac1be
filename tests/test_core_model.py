"""Tests for the TMN model and the pair-model interface."""

import numpy as np
import pytest

from repro.autograd import Tensor, concat, no_grad
from repro.core import TMN, TMNConfig, pair_cross_distance_matrix, pair_distance_matrix
from repro.core import model as model_module
from repro.data import pad_batch, pair_batch
from repro.nn import LSTM, gather_last


@pytest.fixture
def cfg():
    return TMNConfig(hidden_dim=16, epochs=1, sampling_number=4, seed=0)


@pytest.fixture
def model(cfg):
    return TMN(cfg)


def toy_pair(rng, n=3, la=6, lb=4):
    a = [rng.normal(size=(la, 2)) for _ in range(n)]
    b = [rng.normal(size=(lb, 2)) for _ in range(n)]
    return a, b


class TestTMNForward:
    def test_output_shapes(self, model, rng):
        a, b = toy_pair(rng)
        pa, la, ma, pb, lb, mb = pair_batch(a, b)
        out_a, out_b = model.forward_pair(pa, la, ma, pb, lb, mb)
        assert out_a.shape == (3, 6, 16)
        assert out_b.shape == (3, 6, 16)

    def test_embed_pair_shapes(self, model, rng):
        a, b = toy_pair(rng)
        emb_a, emb_b = model.embed_pair(a, b)
        assert emb_a.shape == (3, 16)
        assert emb_b.shape == (3, 16)

    def test_symmetry_of_pair_roles(self, model, rng):
        """forward(a, b) and forward(b, a) must produce swapped outputs —
        both sides run the identical shared-weight pipeline."""
        a, b = toy_pair(rng, n=2)
        e1a, e1b = model.embed_pair(a, b)
        e2b, e2a = model.embed_pair(b, a)
        np.testing.assert_allclose(e1a.data, e2a.data, atol=1e-12)
        np.testing.assert_allclose(e1b.data, e2b.data, atol=1e-12)

    def test_padding_invariance(self, model, rng):
        """A pair evaluated alone must embed identically when batched with
        a longer pair (padding + masks must be inert)."""
        a = [rng.normal(size=(4, 2))]
        b = [rng.normal(size=(5, 2))]
        e_alone_a, e_alone_b = model.embed_pair(a, b)
        long_a = a + [rng.normal(size=(12, 2))]
        long_b = b + [rng.normal(size=(12, 2))]
        e_batch_a, e_batch_b = model.embed_pair(long_a, long_b)
        np.testing.assert_allclose(e_batch_a.data[0], e_alone_a.data[0], atol=1e-10)
        np.testing.assert_allclose(e_batch_b.data[0], e_alone_b.data[0], atol=1e-10)

    def test_match_patterns_exposed(self, model, rng):
        a, b = toy_pair(rng, n=2)
        model.embed_pair(a, b)
        p_ab, p_ba = model.last_match_patterns
        assert p_ab.shape == (2, 6, 6)
        # Valid rows are distributions over valid partner points.
        np.testing.assert_allclose(p_ab[:, :6, :].sum(-1)[:, :4], np.ones((2, 4)), atol=1e-9)

    def test_matching_changes_with_partner(self, model, rng):
        """The core property TMN adds: the same trajectory embeds
        differently depending on its partner."""
        t = [rng.normal(size=(5, 2))]
        p1 = [rng.normal(size=(5, 2))]
        p2 = [rng.normal(size=(5, 2)) + 3.0]
        e1, _ = model.embed_pair(t, p1)
        e2, _ = model.embed_pair(t, p2)
        assert not np.allclose(e1.data, e2.data)

    def test_no_matching_variant_ignores_partner(self, cfg, rng):
        model = TMN(cfg.with_updates(matching=False))
        t = [rng.normal(size=(5, 2))]
        e1, _ = model.embed_pair(t, [rng.normal(size=(5, 2))])
        e2, _ = model.embed_pair(t, [rng.normal(size=(5, 2)) + 10.0])
        np.testing.assert_allclose(e1.data, e2.data, atol=1e-12)
        assert model.last_match_patterns is None

    def test_requires_pair_interaction_property(self, cfg):
        assert TMN(cfg).requires_pair_interaction
        assert not TMN(cfg.with_updates(matching=False)).requires_pair_interaction

    def test_lstm_input_dim_depends_on_matching(self, cfg):
        assert TMN(cfg).lstm.input_size == cfg.embed_dim * 2
        assert TMN(cfg.with_updates(matching=False)).lstm.input_size == cfg.embed_dim

    def test_deterministic_by_seed(self, cfg, rng):
        a, b = toy_pair(rng, n=1)
        e1, _ = TMN(cfg).embed_pair(a, b)
        e2, _ = TMN(cfg).embed_pair(a, b)
        np.testing.assert_allclose(e1.data, e2.data)

    def test_gradients_reach_all_parameters(self, model, rng):
        a, b = toy_pair(rng, n=2)
        emb_a, emb_b = model.embed_pair(a, b)
        ((emb_a - emb_b) ** 2).sum().backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, f"no gradient for {name}"


class TestEncode:
    def test_encode_shape(self, model, rng):
        trajs = [rng.normal(size=(int(rng.integers(3, 9)), 2)) for _ in range(7)]
        emb = model.encode(trajs, batch_size=3)
        assert emb.shape == (7, 16)

    def test_encode_batch_size_invariance(self, model, rng):
        trajs = [rng.normal(size=(5, 2)) for _ in range(6)]
        np.testing.assert_allclose(
            model.encode(trajs, batch_size=2), model.encode(trajs, batch_size=6), atol=1e-10
        )


class TestSelfPairEncode:
    """encode() pads each chunk once and runs a self-pair as one side."""

    @pytest.mark.parametrize("matching", [True, False])
    def test_encode_equals_embed_pair(self, cfg, rng, matching):
        # Not bit-exact: on the self-pair, cross_match multiplies X by its
        # own transpose on one buffer, which NumPy hands to a symmetric BLAS
        # kernel whose rounding differs from the two-buffer product (a
        # 1.7e-16 maximum difference was measured).
        model = TMN(cfg.with_updates(matching=matching))
        trajs = [rng.normal(size=(int(rng.integers(3, 9)), 2)) for _ in range(5)]
        expected, _ = model.embed_pair(trajs, trajs)
        np.testing.assert_allclose(
            model.encode(trajs, batch_size=5), expected.data, rtol=1e-13, atol=0
        )

    def test_one_cross_match_and_lstm_call_per_chunk(self, model, rng, monkeypatch):
        calls = {"cross_match": 0, "lstm": 0}
        real_cross_match = model_module.cross_match
        real_lstm_forward = LSTM.forward

        def spy_cross_match(*args, **kwargs):
            calls["cross_match"] += 1
            return real_cross_match(*args, **kwargs)

        def spy_lstm_forward(self, *args, **kwargs):
            calls["lstm"] += 1
            return real_lstm_forward(self, *args, **kwargs)

        monkeypatch.setattr(model_module, "cross_match", spy_cross_match)
        monkeypatch.setattr(LSTM, "forward", spy_lstm_forward)
        trajs = [rng.normal(size=(int(rng.integers(3, 9)), 2)) for _ in range(7)]
        model.encode(trajs, batch_size=3)  # three chunks
        assert calls == {"cross_match": 3, "lstm": 3}

    def test_self_pair_gradients_match_two_sided(self, model, rng):
        trajs = [rng.normal(size=(int(rng.integers(3, 9)), 2)) for _ in range(4)]
        points, lengths, mask = pad_batch(trajs)
        w_a = rng.normal(size=(4, 16))
        w_b = rng.normal(size=(4, 16))

        def grads(side_b):
            model.zero_grad()
            out_a, out_b = model.forward_pair(points, lengths, mask, *side_b)
            # One head call over both sides' rows, as Trainer._train_step.
            emb = model.head(
                concat([gather_last(out_a, lengths), gather_last(out_b, lengths)], axis=0)
            )
            loss = (emb[:4] * Tensor(w_a)).sum() + (emb[4:] * Tensor(w_b)).sum()
            loss.backward()
            return {name: p.grad.copy() for name, p in model.named_parameters()}

        shortcut = grads((points, lengths, mask))
        two_sided = grads((points.copy(), lengths.copy(), mask.copy()))
        assert shortcut.keys() == two_sided.keys()
        for name in shortcut:
            np.testing.assert_allclose(shortcut[name], two_sided[name], rtol=1e-10, atol=1e-12)


class TestPairDistanceMatrix:
    def test_symmetric_zero_diagonal(self, model, rng):
        trajs = [rng.normal(size=(5, 2)) for _ in range(6)]
        mat = pair_distance_matrix(model, trajs, batch_pairs=5)
        assert mat.shape == (6, 6)
        np.testing.assert_allclose(mat, mat.T)
        np.testing.assert_allclose(np.diag(mat), np.zeros(6))

    def test_siamese_path_equals_encode(self, cfg, rng):
        model = TMN(cfg.with_updates(matching=False))
        trajs = [rng.normal(size=(5, 2)) for _ in range(5)]
        mat = pair_distance_matrix(model, trajs)
        emb = model.encode(trajs)
        from repro.eval import embedding_distance_matrix

        np.testing.assert_allclose(mat, embedding_distance_matrix(emb), atol=1e-8)

    def test_batch_pairs_invariance(self, model, rng):
        trajs = [rng.normal(size=(4, 2)) for _ in range(5)]
        a = pair_distance_matrix(model, trajs, batch_pairs=2)
        b = pair_distance_matrix(model, trajs, batch_pairs=100)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_needs_two(self, model, rng):
        with pytest.raises(ValueError):
            pair_distance_matrix(model, [rng.normal(size=(4, 2))])

    def test_cross_matrix_shape(self, model, rng):
        q = [rng.normal(size=(4, 2)) for _ in range(3)]
        b = [rng.normal(size=(6, 2)) for _ in range(4)]
        mat = pair_cross_distance_matrix(model, q, b)
        assert mat.shape == (3, 4)
        assert np.all(mat >= 0)

    def test_cross_matrix_siamese_path(self, cfg, rng):
        model = TMN(cfg.with_updates(matching=False))
        q = [rng.normal(size=(4, 2)) for _ in range(3)]
        base = [rng.normal(size=(6, 2)) for _ in range(4)]
        mat = pair_cross_distance_matrix(model, q, base)
        from repro.eval import embedding_distance_matrix

        expected = embedding_distance_matrix(model.encode(q), model.encode(base))
        np.testing.assert_allclose(mat, expected, atol=1e-8)


def per_pair_distances(model, queries, base):
    """Distances from one unpadded ``embed_pair`` call per pair."""
    out = np.zeros((len(queries), len(base)))
    with no_grad():
        for i, q in enumerate(queries):
            for j, b in enumerate(base):
                emb_a, emb_b = model.embed_pair([q], [b])
                out[i, j] = np.sqrt(((emb_a.data - emb_b.data) ** 2).sum())
    return out


class TestLengthOrderedPairBatches:
    """The pairwise-TMN builders batch length-ordered pairs; every entry
    must still be its own pair's forward, up to BLAS summation order."""

    LENGTHS = (3, 9, 3, 6, 1, 9, 4, 12)

    def test_pair_matrix_matches_per_pair_forward(self, model, rng):
        trajs = [rng.normal(size=(k, 2)) for k in self.LENGTHS]
        mat = pair_distance_matrix(model, trajs, batch_pairs=5)
        expected = per_pair_distances(model, trajs, trajs)
        iu = np.triu_indices(len(trajs), k=1)
        np.testing.assert_allclose(mat[iu], expected[iu], rtol=1e-12)
        assert np.array_equal(mat, mat.T)
        assert not np.any(np.diag(mat))

    def test_cross_matrix_matches_per_pair_forward(self, model, rng):
        queries = [rng.normal(size=(k, 2)) for k in (5, 1, 9)]
        base = [rng.normal(size=(k, 2)) for k in self.LENGTHS]
        mat = pair_cross_distance_matrix(model, queries, base, batch_pairs=5)
        np.testing.assert_allclose(
            mat, per_pair_distances(model, queries, base), rtol=1e-12
        )

    def test_batches_grow_with_length(self, model, rng, monkeypatch):
        trajs = [rng.normal(size=(k, 2)) for k in self.LENGTHS]
        widths = []
        real = model_module.pair_batch

        def spy(trajs_a, trajs_b):
            batch = real(trajs_a, trajs_b)
            widths.append(batch[0].shape[1])
            return batch

        monkeypatch.setattr(model_module, "pair_batch", spy)
        pair_distance_matrix(model, trajs, batch_pairs=5)
        # Unordered, nearly every batch would hold a 12-point trajectory.
        assert widths == sorted(widths)
        assert widths[0] < max(self.LENGTHS) and widths[-1] == max(self.LENGTHS)

class TestStatePersistence:
    def test_state_dict_roundtrip_preserves_outputs(self, cfg, rng):
        m1 = TMN(cfg)
        m2 = TMN(cfg.with_updates(seed=123))
        a, b = toy_pair(rng, n=1)
        m2.load_state_dict(m1.state_dict())
        e1, _ = m1.embed_pair(a, b)
        e2, _ = m2.embed_pair(a, b)
        np.testing.assert_allclose(e1.data, e2.data)
