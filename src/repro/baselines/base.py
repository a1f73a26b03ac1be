"""Shared siamese backbone for the baseline models.

SRN, NeuTraj, T3S and Traj2SimVec all encode each trajectory independently
with an LSTM backbone (Section II-D); they differ in what they add around
it.  This base class implements the common encode-one-side path so each
baseline only specifies its augmentation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..autograd import Tensor
from ..core.config import TMNConfig
from ..core.model import TrajectoryPairModel, make_rnn
from ..nn import LSTM, LeakyReLU, Linear

__all__ = ["SiameseTrajectoryModel"]


class SiameseTrajectoryModel(TrajectoryPairModel):
    """LSTM encoder applied independently to both sides of a pair.

    Subclasses override :meth:`encode_side` (or just :meth:`step_features`)
    to inject their model-specific structure.
    """

    def __init__(self, config: Optional[TMNConfig] = None):
        super().__init__()
        self.config = config if config is not None else TMNConfig()
        self._rng = np.random.default_rng(self.config.seed)
        d = self.config.hidden_dim
        d_hat = self.config.embed_dim
        self.output_dim = d
        self.point_embed = Linear(2, d_hat, rng=self._rng)
        self.act = LeakyReLU(0.1)
        self.lstm = make_rnn(self.config.backbone, self.lstm_input_dim(), d, self._rng)

    def lstm_input_dim(self) -> int:
        """Feature dimension fed to the LSTM; defaults to the point embedding."""
        return self.config.embed_dim

    def step_features(self, points: np.ndarray, mask: np.ndarray) -> Tensor:
        """Per-step features (B, T, lstm_input_dim) before the LSTM."""
        return self.act(self.point_embed(Tensor(points)))

    def encode_side(self, points: np.ndarray, lengths: np.ndarray, mask: np.ndarray) -> Tensor:
        """Per-step representations (B, T, d) for one side of the pair."""
        features = self.step_features(points, mask)
        outputs, _ = self.lstm(features, mask=mask)
        return outputs

    def forward_pair(self, points_a, lengths_a, mask_a, points_b, lengths_b, mask_b):
        """Encode both sides independently (siamese behaviour).

        A self-pair — side b given as the very same ``points``/``mask``
        arrays as side a, as :meth:`encode` does — is encoded once.
        """
        out_a = self.encode_side(points_a, lengths_a, mask_a)
        if points_b is points_a and mask_b is mask_a:
            return out_a, out_a
        out_b = self.encode_side(points_b, lengths_b, mask_b)
        return out_a, out_b
