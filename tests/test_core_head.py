"""The output head runs after the gather: on the rows callers read, only.

``forward_pair`` returns pre-head states and ``TrajectoryPairModel.head``
is row-wise, so applying it to the gathered rows must equal gathering from
the head applied to every step (the Eq. 13 formulation), for embeddings,
``encode`` and a training step's loss and gradients.
"""

import numpy as np
import pytest

from repro.autograd import concat
from repro.baselines import SRN, NeuTraj, T3S, Traj2SimVec
from repro.core import TMN, TMNConfig, Trainer
from repro.core.loss import pair_loss
from repro.core.sampling import PairSample
from repro.core.similarity import distance_to_similarity, predicted_similarity
from repro.data import pad_batch, pair_batch
from repro.metrics import pairwise_distance_matrix
from repro.nn import MLP, gather_last

#: sub_stride 4 over lengths 6-17 gives pairs with zero to four cuts.
CONFIG = dict(hidden_dim=8, sampling_number=4, sub_stride=4, grad_clip=1e9, seed=3)


@pytest.fixture
def corpus():
    rng = np.random.default_rng(5)
    trajs = [rng.normal(size=(int(rng.integers(6, 18)), 2)) for _ in range(10)]
    return trajs, pairwise_distance_matrix(trajs, "dtw")


def _samples(n_trajs, rng, count=8):
    anchors = rng.integers(0, n_trajs, size=count)
    others = (anchors + rng.integers(1, n_trajs, size=count)) % n_trajs
    weights = rng.uniform(0.5, 1.5, size=count)
    return [PairSample(int(a), int(b), float(w), True) for a, b, w in zip(anchors, others, weights)]


def _full_head_step(trainer, points, distances, samples):
    """Loss of one step as Eq. 13 states it: the MLP on every step, then
    the gather, and one exact-metric call per prefix cut."""
    model, cfg = trainer.model, trainer.config
    pa, la, ma, pb, lb, mb = pair_batch(
        [points[s.anchor] for s in samples], [points[s.sample] for s in samples]
    )
    out_a, out_b = model.forward_pair(pa, la, ma, pb, lb, mb)
    full_a, full_b = model.mlp(out_a), model.mlp(out_b)
    weights = np.array([s.weight for s in samples])
    true = distance_to_similarity(
        distances[[s.anchor for s in samples], [s.sample for s in samples]], trainer.effective_alpha
    )
    pred = predicted_similarity(gather_last(full_a, la), gather_last(full_b, lb))
    loss = pair_loss(cfg.loss, pred, true, weights)
    shortest = np.minimum(la, lb)
    preds, trues, ws = [], [], []
    for cut in range(cfg.sub_stride, int(shortest.max()), cfg.sub_stride):
        idx = np.where(shortest > cut)[0]
        cut_len = np.full(idx.size, cut)
        dist = trainer.metric.batch(pa[idx, :cut], pb[idx, :cut], cut_len, cut_len)
        trues.append(distance_to_similarity(dist, trainer.effective_alpha))
        preds.append(predicted_similarity(full_a[idx, cut - 1], full_b[idx, cut - 1]))
        ws.append(weights[idx])
    assert preds, "the fixture must exercise the sub-trajectory loss"
    return loss + pair_loss(cfg.loss, concat(preds, axis=0), np.concatenate(trues), np.concatenate(ws))


@pytest.mark.parametrize("matching", [True, False])
class TestHeadAfterGather:
    def test_embed_pair_and_encode(self, corpus, matching):
        trajs, _ = corpus
        model = TMN(TMNConfig(matching=matching, **CONFIG))
        a, b = trajs[:5], trajs[5:]
        emb_a, emb_b = model.embed_pair(a, b)
        pa, la, ma, pb, lb, mb = pair_batch(a, b)
        out_a, out_b = model.forward_pair(pa, la, ma, pb, lb, mb)
        np.testing.assert_allclose(emb_a.data, gather_last(model.mlp(out_a), la).data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(emb_b.data, gather_last(model.mlp(out_b), lb).data, rtol=0, atol=1e-12)

        points, lengths, mask = pad_batch(trajs)
        out, _ = model.forward_pair(points, lengths, mask, points, lengths, mask)
        expected = gather_last(model.mlp(out), lengths).data
        np.testing.assert_allclose(model.encode(trajs), expected, rtol=0, atol=1e-12)

    def test_training_step_loss_and_gradients(self, corpus, matching):
        trajs, distances = corpus
        samples = _samples(len(trajs), np.random.default_rng(0))
        cfg = TMNConfig(matching=matching, **CONFIG)
        reference = Trainer(TMN(cfg), cfg)
        ref_loss = _full_head_step(reference, trajs, distances, samples)
        ref_loss.backward()
        trainer = Trainer(TMN(cfg), cfg)
        loss, _ = trainer._train_step(trajs, distances, samples)
        assert loss == pytest.approx(ref_loss.item(), rel=1e-10)
        ref_grads = dict(reference.model.named_parameters())
        for name, p in trainer.model.named_parameters():
            np.testing.assert_allclose(p.grad, ref_grads[name].grad, rtol=1e-10, atol=1e-14, err_msg=name)


class TestHeadRows:
    @pytest.fixture
    def mlp_rows(self, monkeypatch):
        rows = []
        real = MLP.forward

        def spy(self, x):
            rows.append(int(np.prod(x.shape[:-1])))
            return real(self, x)

        monkeypatch.setattr(MLP, "forward", spy)
        return rows

    def test_training_step_feeds_only_the_rows_the_loss_reads(self, corpus, mlp_rows):
        trajs, distances = corpus
        samples = _samples(len(trajs), np.random.default_rng(1))
        cfg = TMNConfig(**CONFIG)
        Trainer(TMN(cfg), cfg)._train_step(trajs, distances, samples)
        lengths = np.array([len(t) for t in trajs])
        shortest = np.minimum(lengths[[s.anchor for s in samples]], lengths[[s.sample for s in samples]])
        n_cuts = len(range(cfg.sub_stride, int(shortest.max()), cfg.sub_stride))
        assert n_cuts >= 2
        assert len(mlp_rows) == 1
        assert mlp_rows[0] <= 2 * len(samples) * (1 + n_cuts)

    def test_encode_feeds_one_row_per_trajectory(self, corpus, mlp_rows):
        trajs, _ = corpus
        TMN(TMNConfig(**CONFIG)).encode(trajs, batch_size=4)
        assert mlp_rows == [4, 4, 2]


@pytest.mark.parametrize("cls", [TMN, SRN, NeuTraj, T3S, Traj2SimVec])
def test_training_step_reaches_every_parameter(cls, corpus):
    """A caller that skipped ``head`` would leave the head untrained."""
    trajs, distances = corpus
    cfg = TMNConfig(**CONFIG)
    model = cls(cfg)
    model.prepare(trajs)
    Trainer(model, cfg)._train_step(trajs, distances, _samples(len(trajs), np.random.default_rng(2)))
    for name, p in model.named_parameters():
        assert p.grad is not None, f"{cls.__name__}.{name} got no gradient"
