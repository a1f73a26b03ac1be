"""Tests for SRN, NeuTraj, T3S and Traj2SimVec."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.baselines import SRN, NeuTraj, T3S, Traj2SimVec
from repro.core import TMNConfig, Trainer
from repro.data import pad_batch, pair_batch
from repro.nn import gather_last


def small_config(**overrides):
    defaults = dict(hidden_dim=8, epochs=1, sampling_number=4, batch_anchors=8, seed=0)
    defaults.update(overrides)
    return TMNConfig(**defaults)


def toy_batch(rng, n=3, steps=6):
    trajs = [rng.normal(size=(steps, 2)) for _ in range(2 * n)]
    return pair_batch(trajs[:n], trajs[n:])


ALL_BASELINES = [SRN, NeuTraj, T3S, Traj2SimVec]


@pytest.mark.parametrize("cls", ALL_BASELINES)
class TestCommonBehaviour:
    def make(self, cls, rng):
        model = cls(small_config())
        if isinstance(model, NeuTraj):
            model.prepare([rng.normal(size=(10, 2)) for _ in range(4)])
        return model

    def test_forward_shapes(self, cls, rng):
        model = self.make(cls, rng)
        pa, la, ma, pb, lb, mb = toy_batch(rng)
        out_a, out_b = model.forward_pair(pa, la, ma, pb, lb, mb)
        assert out_a.shape == (3, 6, 8)
        assert out_b.shape == (3, 6, 8)

    def test_siamese_no_pair_interaction(self, cls, rng):
        model = self.make(cls, rng)
        assert not model.requires_pair_interaction
        model.eval()
        t = [rng.normal(size=(5, 2))]
        e1, _ = model.embed_pair(t, [rng.normal(size=(5, 2))])
        e2, _ = model.embed_pair(t, [rng.normal(size=(5, 2)) + 10.0])
        np.testing.assert_allclose(e1.data, e2.data, atol=1e-12)

    def test_recommended_config(self, cls, rng):
        cfg = cls.recommended_config(hidden_dim=8, epochs=1, sampling_number=4)
        assert isinstance(cfg, TMNConfig)

    def test_trains_one_epoch(self, cls, rng):
        trajs = [rng.normal(size=(int(rng.integers(8, 14)), 2)) for _ in range(10)]
        cfg = cls.recommended_config(
            hidden_dim=8, epochs=1, sampling_number=4, kd_neighbors=2, batch_anchors=8
        )
        model = cls(cfg)
        history = Trainer(model, cfg, metric="hausdorff").fit(trajs)
        assert len(history.epoch_losses) == 1

    def test_gradients_reach_parameters(self, cls, rng):
        model = self.make(cls, rng)
        pa, la, ma, pb, lb, mb = toy_batch(rng)
        out_a, out_b = model.forward_pair(pa, la, ma, pb, lb, mb)
        (out_a.sum() + out_b.sum()).backward()
        grads = [p.grad is not None for _, p in model.named_parameters()]
        assert any(grads)

    def test_encode_equals_embed_pair(self, cls, rng):
        model = self.make(cls, rng)
        # Eval mode: in training NeuTraj writes its memory on every forward,
        # so two calls in a row would not see the same memory.
        model.eval()
        trajs = [rng.normal(size=(int(rng.integers(3, 9)), 2)) for _ in range(5)]
        expected, _ = model.embed_pair(trajs, trajs)
        np.testing.assert_allclose(
            model.encode(trajs, batch_size=5), expected.data, rtol=1e-13, atol=0
        )

    def test_encode_runs_one_side_per_chunk(self, cls, rng, monkeypatch):
        model = self.make(cls, rng)
        model.eval()
        calls = []
        real_encode_side = cls.encode_side

        def spy(self, points, lengths, mask):
            calls.append(points.shape[0])
            return real_encode_side(self, points, lengths, mask)

        monkeypatch.setattr(cls, "encode_side", spy)
        trajs = [rng.normal(size=(int(rng.integers(3, 9)), 2)) for _ in range(7)]
        model.encode(trajs, batch_size=3)
        assert calls == [3, 3, 1]

    def test_self_pair_gradients_match_two_sided(self, cls, rng):
        model = self.make(cls, rng)
        model.eval()  # NeuTraj's memory must not change between the runs
        trajs = [rng.normal(size=(int(rng.integers(3, 9)), 2)) for _ in range(4)]
        points, lengths, mask = pad_batch(trajs)
        w_a = rng.normal(size=(4, 8))
        w_b = rng.normal(size=(4, 8))

        def grads(side_b):
            model.zero_grad()
            out_a, out_b = model.forward_pair(points, lengths, mask, *side_b)
            loss = (gather_last(out_a, lengths) * Tensor(w_a)).sum() + (
                gather_last(out_b, lengths) * Tensor(w_b)
            ).sum()
            loss.backward()
            return {n: p.grad.copy() for n, p in model.named_parameters() if p.grad is not None}

        shortcut = grads((points, lengths, mask))
        two_sided = grads((points.copy(), lengths.copy(), mask.copy()))
        assert shortcut and shortcut.keys() == two_sided.keys()
        for name in shortcut:
            np.testing.assert_allclose(shortcut[name], two_sided[name], rtol=1e-10, atol=1e-12)


class TestSRN:
    def test_config_has_no_subloss(self):
        assert not SRN.recommended_config().sub_loss

    def test_masked_padding_invariance(self, rng):
        model = SRN(small_config())
        a = [rng.normal(size=(4, 2))]
        e_alone, _ = model.embed_pair(a, a)
        longer = a + [rng.normal(size=(9, 2))]
        e_batch, _ = model.embed_pair(longer, longer)
        np.testing.assert_allclose(e_batch.data[0], e_alone.data[0], atol=1e-10)


class TestNeuTraj:
    def test_requires_prepare(self, rng):
        model = NeuTraj(small_config())
        pa, la, ma, pb, lb, mb = toy_batch(rng)
        with pytest.raises(RuntimeError, match="prepare"):
            model.forward_pair(pa, la, ma, pb, lb, mb)

    def test_memory_written_only_in_training(self, rng):
        model = NeuTraj(small_config())
        model.prepare([rng.normal(size=(10, 2)) for _ in range(4)])
        pa, la, ma, pb, lb, mb = toy_batch(rng)
        model.eval()
        model.forward_pair(pa, la, ma, pb, lb, mb)
        assert model._memory_count.sum() == 0
        model.train()
        model.forward_pair(pa, la, ma, pb, lb, mb)
        assert model._memory_count.sum() > 0

    def test_memory_influences_output(self, rng):
        model = NeuTraj(small_config())
        model.prepare([rng.normal(size=(10, 2)) for _ in range(4)])
        t = [rng.normal(size=(6, 2))]
        model.eval()
        before, _ = model.embed_pair(t, t)
        # Write memory by processing other trajectories in training mode.
        model.train()
        others = [rng.normal(size=(6, 2)) for _ in range(8)]
        model.embed_pair(others[:4], others[4:])
        model.eval()
        after, _ = model.embed_pair(t, t)
        assert not np.allclose(before.data, after.data)

    def test_memory_decay_validation(self):
        with pytest.raises(ValueError):
            NeuTraj(small_config(), memory_decay=1.0)

    def test_lstm_input_dim_doubled(self):
        model = NeuTraj(small_config())
        assert model.lstm.input_size == 2 * small_config().embed_dim


class TestT3S:
    def test_gamma_blends_representations(self, rng):
        model = T3S(small_config())
        pa, la, ma, pb, lb, mb = toy_batch(rng)
        out, _ = model.forward_pair(pa, la, ma, pb, lb, mb)
        # Force gamma extreme: pure LSTM (sigmoid -> 1).
        model.gamma.data = np.array([50.0])
        out_lstm, _ = model.forward_pair(pa, la, ma, pb, lb, mb)
        x = model.act(model.point_embed(__import__("repro.autograd", fromlist=["Tensor"]).Tensor(pa)))
        lstm_only, _ = model.lstm(x, mask=ma)
        np.testing.assert_allclose(out_lstm.data, lstm_only.data, atol=1e-8)

    def test_positional_encoding_limit(self, rng):
        model = T3S(small_config(), max_len=4)
        trajs = [rng.normal(size=(8, 2))]
        with pytest.raises(ValueError, match="positional"):
            model.embed_pair(trajs, trajs)

    def test_gamma_is_trainable(self, rng):
        model = T3S(small_config())
        names = [n for n, _ in model.named_parameters()]
        assert "gamma" in names


class TestTraj2SimVec:
    def test_prepare_builds_tree(self, rng):
        model = Traj2SimVec(small_config())
        assert model.tree is None
        model.prepare([rng.normal(size=(10, 2)) for _ in range(6)])
        assert model.tree is not None
        assert model.simplified.shape == (6, 20)

    def test_recommended_config_flags(self):
        cfg = Traj2SimVec.recommended_config()
        assert cfg.sub_loss
        assert cfg.sampler == "kdtree"
        assert cfg.kd_neighbors == 5

    def test_segment_validation(self):
        with pytest.raises(ValueError):
            Traj2SimVec(small_config(), n_segments=1)
