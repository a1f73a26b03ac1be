"""Tests for the Trainer: loss descent, determinism, validation, ablations."""

import math

import numpy as np
import pytest

from repro.core import TMN, TMNConfig, Trainer
from repro.metrics import pairwise_distance_matrix


@pytest.fixture(scope="module")
def tiny_train():
    rng = np.random.default_rng(11)
    trajs = [rng.normal(size=(int(rng.integers(8, 16)), 2)) for _ in range(16)]
    distances = pairwise_distance_matrix(trajs, "hausdorff")
    return trajs, distances


def small_config(**overrides):
    defaults = dict(hidden_dim=8, epochs=2, sampling_number=4, batch_anchors=8, seed=0)
    defaults.update(overrides)
    return TMNConfig(**defaults)


class TestFit:
    def test_loss_decreases(self, tiny_train):
        trajs, distances = tiny_train
        cfg = small_config(epochs=6)
        trainer = Trainer(TMN(cfg), cfg, metric="hausdorff")
        history = trainer.fit(trajs, distances=distances)
        assert len(history.epoch_losses) == 6
        assert history.epoch_losses[-1] < history.epoch_losses[0]

    def test_history_metadata(self, tiny_train):
        trajs, distances = tiny_train
        cfg = small_config()
        trainer = Trainer(TMN(cfg), cfg, metric="hausdorff")
        history = trainer.fit(trajs, distances=distances)
        assert history.metric == "hausdorff"
        assert all(s > 0 for s in history.epoch_seconds)
        assert history.final_loss == history.epoch_losses[-1]
        assert len(history.grad_norms) == len(history.epoch_losses)
        assert all(g >= 0 for g in history.grad_norms)

    def test_spans_and_epoch_callback(self, tiny_train):
        trajs, distances = tiny_train
        # sub_stride=4 < the shortest trajectory, so every batch runs the
        # sub-loss prefix DP and the key set is the same each epoch.
        cfg = small_config(epochs=2, sub_loss=True, sub_stride=4)
        trainer = Trainer(TMN(cfg), cfg, metric="hausdorff")
        seen = []
        trainer.fit(trajs, distances=distances, on_epoch=seen.append)
        assert [r["epoch"] for r in seen] == [1, 2]
        batches = math.ceil(len(trajs) / cfg.batch_anchors)
        for record in seen:
            assert record["grad_norm"] >= 0
            spans = record["spans"]
            assert set(spans) == {
                "epoch",
                "epoch/sampling",
                "epoch/batch",
                "epoch/batch/forward",
                "epoch/batch/loss",
                "epoch/batch/loss/exact-metric",
                "epoch/batch/backward",
                "epoch/batch/optimizer",
            }
            assert spans["epoch"]["count"] == 1
            assert spans["epoch/batch"]["count"] == batches
            assert spans["epoch"]["seconds"] >= spans["epoch/batch"]["seconds"]

    def test_final_loss_without_epochs_raises(self):
        from repro.core import TrainingHistory

        with pytest.raises(RuntimeError):
            TrainingHistory(metric="dtw").final_loss

    def test_effective_alpha_scaled(self, tiny_train):
        trajs, distances = tiny_train
        cfg = small_config()
        trainer = Trainer(TMN(cfg), cfg, metric="hausdorff")
        trainer.fit(trajs, distances=distances)
        mean_d = distances[distances > 0].mean()
        assert trainer.effective_alpha == pytest.approx(8.0 / (8.0 * mean_d))

    def test_explicit_alpha_respected(self, tiny_train):
        trajs, distances = tiny_train
        cfg = small_config(alpha=2.0)
        trainer = Trainer(TMN(cfg), cfg, metric="hausdorff")
        trainer.fit(trajs, distances=distances)
        mean_d = distances[distances > 0].mean()
        assert trainer.effective_alpha == pytest.approx(2.0 / (8.0 * mean_d))

    def test_deterministic_given_seed(self, tiny_train):
        trajs, distances = tiny_train

        def run():
            cfg = small_config(epochs=2)
            model = TMN(cfg)
            Trainer(model, cfg, metric="hausdorff").fit(trajs, distances=distances)
            return model.encode(trajs[:3])

        np.testing.assert_allclose(run(), run())

    def test_model_left_in_eval_mode(self, tiny_train):
        trajs, distances = tiny_train
        cfg = small_config()
        model = TMN(cfg)
        Trainer(model, cfg, metric="hausdorff").fit(trajs, distances=distances)
        assert not model.training

    def test_computes_distances_when_missing(self):
        rng = np.random.default_rng(2)
        trajs = [rng.normal(size=(6, 2)) for _ in range(8)]
        cfg = small_config(epochs=1)
        trainer = Trainer(TMN(cfg), cfg, metric="hausdorff")
        history = trainer.fit(trajs)  # no distances passed
        assert len(history.epoch_losses) == 1


class TestValidation:
    def test_too_few_trajectories(self, rng):
        trajs = [rng.normal(size=(5, 2)) for _ in range(3)]
        cfg = small_config()
        with pytest.raises(ValueError, match="sampling_number"):
            Trainer(TMN(cfg), cfg, metric="dtw").fit(trajs)

    def test_distance_matrix_shape_mismatch(self, tiny_train):
        trajs, _ = tiny_train
        cfg = small_config()
        with pytest.raises(ValueError, match="does not match"):
            Trainer(TMN(cfg), cfg, metric="dtw").fit(trajs, distances=np.zeros((3, 3)))


class TestVariants:
    def test_kdtree_sampler_path(self, tiny_train):
        trajs, distances = tiny_train
        cfg = small_config(sampler="kdtree", kd_neighbors=3)
        history = Trainer(TMN(cfg), cfg, metric="hausdorff").fit(trajs, distances=distances)
        assert history.epoch_losses

    def test_qerror_loss_path(self, tiny_train):
        trajs, distances = tiny_train
        cfg = small_config(loss="qerror")
        history = Trainer(TMN(cfg), cfg, metric="hausdorff").fit(trajs, distances=distances)
        # Q-error is >= 1 by construction.
        assert history.epoch_losses[-1] >= 1.0

    def test_sub_loss_disabled(self, tiny_train):
        trajs, distances = tiny_train
        cfg = small_config(sub_loss=False)
        history = Trainer(TMN(cfg), cfg, metric="hausdorff").fit(trajs, distances=distances)
        assert history.epoch_losses

    def test_sub_loss_none_when_stride_exceeds_lengths(self, tiny_train):
        trajs, distances = tiny_train
        cfg = small_config(sub_loss=True, sub_stride=1000)
        trainer = Trainer(TMN(cfg), cfg, metric="hausdorff")
        history = trainer.fit(trajs, distances=distances)
        assert history.epoch_losses  # runs fine; sub term contributes nothing

    def test_sub_loss_changes_training(self, tiny_train):
        trajs, distances = tiny_train

        def final_loss(sub):
            cfg = small_config(sub_loss=sub, sub_stride=5, epochs=2)
            model = TMN(cfg)
            Trainer(model, cfg, metric="hausdorff").fit(trajs, distances=distances)
            return model.encode(trajs[:2])

        assert not np.allclose(final_loss(True), final_loss(False))

    def test_trainer_works_with_metric_spec(self, tiny_train):
        from repro.metrics import get_metric

        trajs, distances = tiny_train
        cfg = small_config()
        spec = get_metric("edr", eps=0.5)
        history = Trainer(TMN(cfg), cfg, metric=spec).fit(trajs)
        assert history.metric == "edr"


class TestEarlyStopping:
    def test_stops_when_loss_plateaus(self, tiny_train):
        trajs, distances = tiny_train
        # A huge min_delta means "never improved": stop after patience epochs.
        cfg = small_config(epochs=10, patience=2, min_delta=1e9)
        trainer = Trainer(TMN(cfg), cfg, metric="hausdorff")
        history = trainer.fit(trajs, distances=distances)
        assert history.stopped_early
        # First epoch always "improves" on infinity, then patience epochs.
        assert len(history.epoch_losses) == 3

    def test_runs_full_epochs_when_improving(self, tiny_train):
        trajs, distances = tiny_train
        cfg = small_config(epochs=3, patience=3, min_delta=0.0)
        history = Trainer(TMN(cfg), cfg, metric="hausdorff").fit(trajs, distances=distances)
        assert len(history.epoch_losses) <= 3

    def test_disabled_by_default(self, tiny_train):
        trajs, distances = tiny_train
        cfg = small_config(epochs=3)
        history = Trainer(TMN(cfg), cfg, metric="hausdorff").fit(trajs, distances=distances)
        assert not history.stopped_early
        assert len(history.epoch_losses) == 3

    def test_patience_validation(self):
        import pytest as _pytest

        with _pytest.raises(ValueError):
            small_config(patience=0)
