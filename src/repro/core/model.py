"""The TMN model (Section IV-B) and the shared pair-model interface.

Every model in the reproduction — TMN and the four baselines — implements
:class:`TrajectoryPairModel`: given a padded pair batch, ``forward_pair``
returns per-step states of shape (B, T, d) for both sides, *before* the
model's output head.  Callers gather the rows they read (the final real
step for the trajectory embedding, a prefix step for the sub-trajectory
loss) and apply the row-wise ``head`` to those rows only.  The trainer and
evaluation stack are written against this interface only, so comparisons
are apples-to-apples.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..autograd import Tensor, concat, no_grad
from ..data.batching import pad_batch, pair_batch
from ..metrics import length_ordered_pairs
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

    Subclasses implement :meth:`forward_pair`, which returns pre-head
    per-step states, and may override :meth:`head`, the row-wise output
    map applied after the caller has gathered the rows it reads.  A caller
    that skips ``head`` trains no head parameters.  Single-trajectory
    encoding defaults to running the pair forward with the trajectory on
    both sides (correct for siamese models, and the natural reading of
    TMN's encoder whose matching needs a counterpart).
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
        """Pre-head per-step states ``(Z_a, Z_b)`` each of shape (B, T, d)."""
        raise NotImplementedError

    def head(self, rows: Tensor) -> Tensor:
        """Row-wise output head on gathered states (N, d); identity here."""
        return rows

    def embed_pair(self, trajs_a: Sequence, trajs_b: Sequence) -> Tuple[Tensor, Tensor]:
        """Final-step embeddings (B, d) for two aligned trajectory lists."""
        pa, la, ma, pb, lb, mb = pair_batch(trajs_a, trajs_b)
        out_a, out_b = self.forward_pair(pa, la, ma, pb, lb, mb)
        return self.head(gather_last(out_a, la)), self.head(gather_last(out_b, lb))

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
                chunks.append(self.head(gather_last(out, lengths)).data)
        return np.concatenate(chunks, axis=0)


def _lengths(trajs: Sequence) -> np.ndarray:
    """Point counts of a trajectory list (arrays or ``Trajectory`` objects)."""
    return np.array([len(t.points if hasattr(t, "points") else t) for t in trajs])


def _pair_distances(model, side_a, side_b, rows, cols, batch_pairs) -> np.ndarray:
    """Embedding distance of each pair ``(side_a[rows[p]], side_b[cols[p]])``,
    one forward per pair, ``batch_pairs`` pairs per batch."""
    dists = np.empty(rows.size)
    with no_grad():
        for start in range(0, rows.size, batch_pairs):
            part = slice(start, start + batch_pairs)
            emb_a, emb_b = model.embed_pair(
                [side_a[i] for i in rows[part]], [side_b[j] for j in cols[part]]
            )
            dists[part] = np.sqrt(((emb_a.data - emb_b.data) ** 2).sum(axis=1))
    return dists


def pair_distance_matrix(
    model: TrajectoryPairModel,
    trajs: Sequence,
    batch_pairs: int = 256,
) -> np.ndarray:
    """Predicted-distance matrix for top-k search, respecting pair semantics.

    Siamese models are encoded once per trajectory; pair-interacting models
    (TMN) run one forward per trajectory pair over the upper triangle, in
    batches of length-ordered pairs
    (:func:`repro.metrics.length_ordered_pairs`) so that each batch pads
    to nearly its own pairs' lengths.
    """
    trajs = list(trajs)
    n = len(trajs)
    if n < 2:
        raise ValueError("need at least two trajectories")
    if not model.requires_pair_interaction:
        from ..eval.search import embedding_distance_matrix

        return embedding_distance_matrix(model.encode(trajs))
    result = np.zeros((n, n))
    rows, cols = length_ordered_pairs(*np.triu_indices(n, k=1), _lengths(trajs))
    result[rows, cols] = result[cols, rows] = _pair_distances(model, trajs, trajs, rows, cols, batch_pairs)
    return result


def pair_cross_distance_matrix(
    model: TrajectoryPairModel,
    queries: Sequence,
    base: Sequence,
    batch_pairs: int = 256,
) -> np.ndarray:
    """Predicted Q x N distance matrix between two collections.

    Pair batches are length-ordered as in :func:`pair_distance_matrix`.
    """
    queries = list(queries)
    base = list(base)
    if not model.requires_pair_interaction:
        from ..eval.search import embedding_distance_matrix

        return embedding_distance_matrix(model.encode(queries), model.encode(base))
    result = np.zeros((len(queries), len(base)))
    q_idx, b_idx = np.indices(result.shape).reshape(2, -1)
    q_idx, b_idx = length_ordered_pairs(q_idx, b_idx, _lengths(queries), _lengths(base))
    result[q_idx, b_idx] = _pair_distances(model, queries, base, q_idx, b_idx, batch_pairs)
    return result


class TMN(TrajectoryPairModel):
    """Trajectory Matching Network (Figure 2, Eq. 4-13).

    Pipeline per side of the pair:

    1. point embedding ``x = LeakyReLU(W0 p + b0)`` into d/2 dims (Eq. 4-5);
    2. matching mechanism: attention match pattern against the *other*
       trajectory and discrepancy ``M = X - P X_other`` (Eq. 6-11);
    3. LSTM over ``[X ⊕ M]`` (Eq. 12): the states :meth:`forward_pair` returns;
    4. MLP head producing ``O`` (Eq. 13), which :meth:`head` applies to rows.

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
        """Pre-head LSTM states (Z_a, Z_b) for a padded pair batch.

        A self-pair — side b given as the very same ``points``/``mask``
        arrays as side a, as :meth:`encode` does — runs the pipeline once
        and returns its output for both sides.
        """
        self_pair = points_b is points_a and mask_b is mask_a
        x_a = self.embed_points(points_a)
        x_b = x_a if self_pair else self.embed_points(points_b)
        if self.config.matching:
            (m_a, p_a), (m_b, p_b) = cross_match(x_a, x_b, mask_a=mask_a, mask_b=mask_b)
            self._last_patterns = (p_a.data, p_b.data)
            x_a = concat([x_a, m_a], axis=-1)
            x_b = x_a if self_pair else concat([x_b, m_b], axis=-1)
        else:
            self._last_patterns = None
        z_a, _ = self.lstm(x_a, mask=mask_a)
        if self_pair:
            return z_a, z_a
        z_b, _ = self.lstm(x_b, mask=mask_b)
        return z_a, z_b

    def head(self, rows: Tensor) -> Tensor:
        """Eq. 13: the MLP, applied to gathered rows only."""
        return self.mlp(rows)

    @property
    def last_match_patterns(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Match patterns ``(P_{a<-b}, P_{b<-a})`` from the latest forward.

        Exposed for inspection/visualisation (the learned analogue of the
        DTW match lines in Figure 1).
        """
        return self._last_patterns
