"""The TMN model (Section IV-B) and the shared pair-model interface.

Every model in the reproduction — TMN and the four baselines — implements
:class:`TrajectoryPairModel`: given a padded pair batch it returns per-step
representations ``O`` of shape (B, T, d) for both sides, from which the
trajectory embedding is the row at each sequence's final real step.  The
trainer and evaluation stack are written against this interface only, so
comparisons are apples-to-apples.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor, concat, no_grad
from ..data.batching import pad_batch, pair_batch
from ..nn import GRU, LSTM, MLP, LeakyReLU, Linear, Module, cross_match, gather_last
from .config import TMNConfig


def make_rnn(backbone: str, input_size: int, hidden_size: int, rng):
    """Instantiate the configured recurrent backbone (LSTM or GRU)."""
    if backbone == "lstm":
        return LSTM(input_size, hidden_size, rng=rng)
    if backbone == "gru":
        return GRU(input_size, hidden_size, rng=rng)
    raise KeyError(f"unknown backbone {backbone!r}")

__all__ = [
    "TrajectoryPairModel",
    "TMN",
    "make_rnn",
    "pair_distance_matrix",
    "pair_cross_distance_matrix",
]


class TrajectoryPairModel(Module):
    """Interface shared by TMN and every baseline.

    Subclasses implement :meth:`forward_pair`; single-trajectory encoding
    defaults to running the pair forward with the trajectory on both sides
    (correct for siamese models, and the natural reading of TMN's encoder
    whose matching needs a counterpart).
    """

    #: Embedding dimension d; subclasses must set it.
    output_dim: int

    @property
    def requires_pair_interaction(self) -> bool:
        """Whether representations depend on the partner trajectory.

        Siamese baselines encode each trajectory independently, so the
        similarity-search database can be built with one forward pass per
        trajectory.  TMN's matching mechanism makes representations
        pair-dependent, so faithful evaluation runs a forward pass per
        *pair* — the accuracy/efficiency trade-off Table III quantifies.
        """
        return False

    def prepare(self, points_list: Sequence[np.ndarray]) -> None:
        """Hook called once with the training trajectories before fitting.

        Baselines that need corpus-level structures (NeuTraj's grid memory,
        Traj2SimVec's k-d tree) override this; default is a no-op.
        """

    def forward_pair(
        self,
        points_a: np.ndarray,
        lengths_a: np.ndarray,
        mask_a: np.ndarray,
        points_b: np.ndarray,
        lengths_b: np.ndarray,
        mask_b: np.ndarray,
    ) -> Tuple[Tensor, Tensor]:
        """Per-step representations ``(O_a, O_b)`` each of shape (B, T, d)."""
        raise NotImplementedError

    def embed_pair(self, trajs_a: Sequence, trajs_b: Sequence) -> Tuple[Tensor, Tensor]:
        """Final-step embeddings (B, d) for two aligned trajectory lists."""
        pa, la, ma, pb, lb, mb = pair_batch(trajs_a, trajs_b)
        out_a, out_b = self.forward_pair(pa, la, ma, pb, lb, mb)
        return gather_last(out_a, la), gather_last(out_b, lb)

    def encode(self, trajs: Sequence, batch_size: int = 64) -> np.ndarray:
        """Embed trajectories into R^d for the similarity-search database.

        Runs under ``no_grad``; batches are padded independently to keep
        memory bounded.  Each chunk is padded once and passed as *both*
        sides of :meth:`forward_pair` (the same array objects), which TMN
        and the siamese baselines recognise as a self-pair and compute
        once.  The result equals ``embed_pair(batch, batch)[0]``; for
        pair-interacting models (TMN with matching enabled) that means each
        trajectory is matched against itself.  This is the fast
        approximate path — faithful evaluation uses
        :func:`pair_distance_matrix` instead.
        """
        chunks: List[np.ndarray] = []
        trajs = list(trajs)
        with no_grad():
            for start in range(0, len(trajs), batch_size):
                points, lengths, mask = pad_batch(trajs[start : start + batch_size])
                out, _ = self.forward_pair(points, lengths, mask, points, lengths, mask)
                chunks.append(gather_last(out, lengths).data)
        return np.concatenate(chunks, axis=0)


def pair_distance_matrix(
    model: TrajectoryPairModel,
    trajs: Sequence,
    batch_pairs: int = 256,
) -> np.ndarray:
    """Predicted-distance matrix for top-k search, respecting pair semantics.

    Siamese models are encoded once per trajectory; pair-interacting models
    (TMN) run one forward per trajectory pair over the upper triangle.
    """
    trajs = list(trajs)
    n = len(trajs)
    if n < 2:
        raise ValueError("need at least two trajectories")
    if not model.requires_pair_interaction:
        from ..eval.search import embedding_distance_matrix

        return embedding_distance_matrix(model.encode(trajs))
    result = np.zeros((n, n))
    rows, cols = np.triu_indices(n, k=1)
    with no_grad():
        for start in range(0, rows.size, batch_pairs):
            r = rows[start : start + batch_pairs]
            c = cols[start : start + batch_pairs]
            emb_a, emb_b = model.embed_pair([trajs[i] for i in r], [trajs[j] for j in c])
            dists = np.sqrt(((emb_a.data - emb_b.data) ** 2).sum(axis=1))
            result[r, c] = dists
            result[c, r] = dists
    return result


def pair_cross_distance_matrix(
    model: TrajectoryPairModel,
    queries: Sequence,
    base: Sequence,
    batch_pairs: int = 256,
) -> np.ndarray:
    """Predicted Q x N distance matrix between two collections."""
    queries = list(queries)
    base = list(base)
    if not model.requires_pair_interaction:
        from ..eval.search import embedding_distance_matrix

        return embedding_distance_matrix(model.encode(queries), model.encode(base))
    result = np.zeros((len(queries), len(base)))
    q_idx, b_idx = np.meshgrid(
        np.arange(len(queries)), np.arange(len(base)), indexing="ij"
    )
    q_idx = q_idx.ravel()
    b_idx = b_idx.ravel()
    with no_grad():
        for start in range(0, q_idx.size, batch_pairs):
            qs = q_idx[start : start + batch_pairs]
            bs = b_idx[start : start + batch_pairs]
            emb_a, emb_b = model.embed_pair(
                [queries[i] for i in qs], [base[j] for j in bs]
            )
            result[qs, bs] = np.sqrt(((emb_a.data - emb_b.data) ** 2).sum(axis=1))
    return result


class TMN(TrajectoryPairModel):
    """Trajectory Matching Network (Figure 2, Eq. 4-13).

    Pipeline per side of the pair:

    1. point embedding ``x = LeakyReLU(W0 p + b0)`` into d/2 dims (Eq. 4-5);
    2. matching mechanism: attention match pattern against the *other*
       trajectory and discrepancy ``M = X - P X_other`` (Eq. 6-11);
    3. LSTM over ``[X ⊕ M]`` (Eq. 12);
    4. per-step MLP head producing the final representations ``O`` (Eq. 13).

    With ``config.matching = False`` step 2 is skipped and the LSTM sees
    ``X`` alone — the TMN-NM ablation.
    """

    def __init__(self, config: Optional[TMNConfig] = None):
        super().__init__()
        self.config = config if config is not None else TMNConfig()
        rng = np.random.default_rng(self.config.seed)
        d = self.config.hidden_dim
        d_hat = self.config.embed_dim
        self.output_dim = d
        self.point_embed = Linear(2, d_hat, rng=rng)
        self.act = LeakyReLU(0.1)
        lstm_in = 2 * d_hat if self.config.matching else d_hat
        self.lstm = make_rnn(self.config.backbone, lstm_in, d, rng)
        self.mlp = MLP([d, d, d], rng=rng)
        self._last_patterns: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def requires_pair_interaction(self) -> bool:
        """True when the matching mechanism is active (pair-dependent)."""
        return self.config.matching

    def embed_points(self, points: np.ndarray) -> Tensor:
        """Eq. 4-5: map raw coordinates (B, T, 2) to embeddings (B, T, d/2)."""
        return self.act(self.point_embed(Tensor(points)))

    def forward_pair(self, points_a, lengths_a, mask_a, points_b, lengths_b, mask_b):
        """Per-step representations (O_a, O_b) for a padded pair batch.

        A self-pair — side b given as the very same ``points``/``mask``
        arrays as side a, as :meth:`encode` does — runs the pipeline once
        and returns its output for both sides.
        """
        self_pair = points_b is points_a and mask_b is mask_a
        x_a = self.embed_points(points_a)
        x_b = x_a if self_pair else self.embed_points(points_b)
        if self.config.matching:
            m_ab, p_ab = cross_match(x_a, x_b, mask_a=mask_a, mask_b=mask_b)
            in_a = concat([x_a, m_ab], axis=-1)
            if self_pair:
                p_ba = p_ab
            else:
                m_ba, p_ba = cross_match(x_b, x_a, mask_a=mask_b, mask_b=mask_a)
                in_b = concat([x_b, m_ba], axis=-1)
            self._last_patterns = (p_ab.data, p_ba.data)
        else:
            self._last_patterns = None
            in_a, in_b = x_a, x_b
        z_a, _ = self.lstm(in_a, mask=mask_a)
        out_a = self.mlp(z_a)
        if self_pair:
            return out_a, out_a
        z_b, _ = self.lstm(in_b, mask=mask_b)
        return out_a, self.mlp(z_b)

    @property
    def last_match_patterns(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Match patterns ``(P_{a<-b}, P_{b<-a})`` from the latest forward.

        Exposed for inspection/visualisation (the learned analogue of the
        DTW match lines in Figure 1).
        """
        return self._last_patterns
