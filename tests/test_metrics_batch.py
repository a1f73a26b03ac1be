"""Tests for the batched DP engines and distance-matrix builders."""

import numpy as np
import pytest

from repro.metrics import (
    METRIC_NAMES,
    MetricSpec,
    cross_distance_matrix,
    get_metric,
    length_ordered_pairs,
    pad_trajectories,
    pairwise_distance_matrix,
    prefix_distances,
)
from repro.metrics._dp import dtw_batch, edr_batch, erp_batch, frechet_batch, lcss_batch
from repro.metrics.point import cross_dist
from repro.metrics.registry import _batch_cost


def make_trajs(rng, n, max_len=14):
    return [rng.normal(size=(int(rng.integers(2, max_len)), 2)) for _ in range(n)]


class TestBatchEngines:
    def test_batch_matches_scalar_for_every_metric(self, rng):
        trajs = make_trajs(rng, 8)
        stacked, lengths = pad_trajectories(trajs)
        idx_a = np.array([0, 1, 2, 3])
        idx_b = np.array([4, 5, 6, 7])
        for name in METRIC_NAMES:
            spec = get_metric(name)
            batch = spec.batch(stacked[idx_a], stacked[idx_b], lengths[idx_a], lengths[idx_b])
            for row, (i, j) in enumerate(zip(idx_a, idx_b)):
                assert batch[row] == pytest.approx(spec(trajs[i], trajs[j])), name

    def test_batch_cost_bit_identical_to_summed_difference(self, rng):
        for scale in (1e-6, 1.0, 1e6):
            pa = rng.normal(size=(6, 5, 2)) * scale
            pb = rng.normal(size=(6, 8, 2)) * scale
            expected = np.sqrt(((pa[:, :, None, :] - pb[:, None, :, :]) ** 2).sum(axis=-1))
            assert np.array_equal(_batch_cost(pa, pb), expected)

    def test_padding_values_are_irrelevant(self, rng):
        """The DP read-out must not depend on what lies beyond the true
        lengths — the core guarantee that makes shared padding sound."""
        a = rng.normal(size=(5, 2))
        b = rng.normal(size=(4, 2))
        for pad_value in (0.0, 123.0, -7.5):
            pa = np.full((1, 9, 2), pad_value)
            pb = np.full((1, 9, 2), pad_value)
            pa[0, :5] = a
            pb[0, :4] = b
            cost = np.sqrt(((pa[:, :, None, :] - pb[:, None, :, :]) ** 2).sum(-1))
            got = dtw_batch(cost, np.array([5]), np.array([4]))[0]
            expected = dtw_batch(
                cross_dist(a, b)[None], np.array([5]), np.array([4])
            )[0]
            assert got == pytest.approx(expected)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            dtw_batch(np.zeros((2, 3)), np.array([1]), np.array([1]))
        with pytest.raises(ValueError):
            dtw_batch(np.zeros((1, 3, 3)), np.array([0]), np.array([1]))
        with pytest.raises(ValueError):
            dtw_batch(np.zeros((1, 3, 3)), np.array([4]), np.array([1]))
        with pytest.raises(ValueError):
            dtw_batch(np.zeros((1, 3, 3)), np.array([1, 2]), np.array([1]))

    def test_erp_gap_shape_validation(self):
        cost = np.zeros((1, 3, 3))
        with pytest.raises(ValueError):
            erp_batch(cost, np.zeros((1, 4)), np.zeros((1, 3)), np.array([3]), np.array([3]))

    def test_single_point_trajectories(self, rng):
        a = rng.normal(size=(1, 2))
        b = rng.normal(size=(1, 2))
        cost = cross_dist(a, b)[None]
        ones = np.array([1])
        gap = np.linalg.norm
        assert dtw_batch(cost, ones, ones)[0] == pytest.approx(np.linalg.norm(a[0] - b[0]))
        assert frechet_batch(cost, ones, ones)[0] == pytest.approx(np.linalg.norm(a[0] - b[0]))
        match = cost <= 0.5
        assert edr_batch(match, ones, ones)[0] in (0.0, 1.0)
        assert lcss_batch(match, ones, ones)[0] in (0.0, 1.0)

    def test_mixed_lengths_in_one_batch(self, rng):
        trajs = [rng.normal(size=(k, 2)) for k in (1, 3, 9, 9, 2)]
        stacked, lengths = pad_trajectories(trajs)
        spec = get_metric("dtw")
        ia = np.array([0, 1, 2])
        ib = np.array([3, 4, 0])
        out = spec.batch(stacked[ia], stacked[ib], lengths[ia], lengths[ib])
        for row, (i, j) in enumerate(zip(ia, ib)):
            assert out[row] == pytest.approx(spec(trajs[i], trajs[j]))


class TestPadTrajectories:
    def test_shapes_and_lengths(self, rng):
        trajs = make_trajs(rng, 5)
        stacked, lengths = pad_trajectories(trajs)
        assert stacked.shape == (5, lengths.max(), 2)
        for i, t in enumerate(trajs):
            np.testing.assert_allclose(stacked[i, : len(t)], t)
            np.testing.assert_allclose(stacked[i, len(t) :], 0.0)

    def test_rejects_empty_collection(self):
        with pytest.raises(ValueError):
            pad_trajectories([])


class TestPairwiseMatrix:
    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_matrix_properties(self, name, rng):
        trajs = make_trajs(rng, 10)
        mat = pairwise_distance_matrix(trajs, name)
        assert mat.shape == (10, 10)
        np.testing.assert_allclose(mat, mat.T)
        np.testing.assert_allclose(np.diag(mat), np.zeros(10))
        spec = get_metric(name)
        assert mat[2, 7] == pytest.approx(spec(trajs[2], trajs[7]))

    def test_chunking_invariance(self, rng):
        trajs = make_trajs(rng, 9)
        a = pairwise_distance_matrix(trajs, "dtw", chunk_size=3)
        b = pairwise_distance_matrix(trajs, "dtw", chunk_size=1000)
        np.testing.assert_allclose(a, b)

    def test_accepts_metric_spec(self, rng):
        trajs = make_trajs(rng, 4)
        spec = get_metric("edr", eps=0.7)
        mat = pairwise_distance_matrix(trajs, spec)
        assert mat[0, 1] == pytest.approx(spec(trajs[0], trajs[1]))

    def test_eps_parameter_forwarded(self, rng):
        trajs = make_trajs(rng, 4)
        loose = pairwise_distance_matrix(trajs, "edr", eps=10.0)
        tight = pairwise_distance_matrix(trajs, "edr", eps=1e-6)
        assert loose.sum() <= tight.sum()


class TestCrossMatrix:
    def test_values_match_scalar(self, rng):
        queries = make_trajs(rng, 3)
        base = make_trajs(rng, 5)
        mat = cross_distance_matrix(queries, base, "frechet")
        spec = get_metric("frechet")
        assert mat.shape == (3, 5)
        assert mat[1, 4] == pytest.approx(spec(queries[1], base[4]))

    def test_chunking_invariance(self, rng):
        queries = make_trajs(rng, 4)
        base = make_trajs(rng, 4)
        a = cross_distance_matrix(queries, base, "dtw", chunk_size=2)
        b = cross_distance_matrix(queries, base, "dtw", chunk_size=100)
        np.testing.assert_allclose(a, b)


#: Ragged lengths with ties and single-point trajectories.
RAGGED = (1, 5, 3, 5, 9, 2, 9, 4, 5, 1, 12)


def ragged_trajs(rng, lengths=RAGGED):
    return [rng.normal(size=(k, 2)) for k in lengths]


def reference_batch(spec, trajs, rows, cols):
    """One unordered batch over the given pairs, padded to the longest
    trajectory of the collection: the layout before length ordering."""
    stacked, lengths = pad_trajectories(trajs)
    return spec.batch(stacked[rows], stacked[cols], lengths[rows], lengths[cols])


class BatchSpy:
    """Wraps a metric's batch function and records each chunk's layout."""

    def __init__(self, spec):
        self.inner = spec
        self.calls = []
        self.spec = MetricSpec(spec.name, spec.scalar, self.batch, spec.params)

    def batch(self, pa, pb, la, lb):
        self.calls.append((pa.shape[1], pb.shape[1], np.asarray(la), np.asarray(lb)))
        return self.inner.batch(pa, pb, la, lb)


class TestDiagonalDriver:
    """The shared anti-diagonal driver behind DTW, Fréchet and EDR reads
    each diagonal through a strided view of the cost tensor; one-point
    sides and ragged lengths are its edge cases."""

    @pytest.mark.parametrize("name", ["dtw", "frechet", "edr"])
    @pytest.mark.parametrize(
        "lengths_a, lengths_b",
        [
            ((1, 1), (1, 1)),  # m = n = 1
            ((1, 1, 1), (6, 1, 3)),  # m = 1
            ((7, 2, 4), (1, 1, 1)),  # n = 1
            (RAGGED, RAGGED[::-1]),
        ],
    )
    def test_matches_scalar(self, name, lengths_a, lengths_b, rng):
        spec = get_metric(name, eps=0.8)
        trajs_a = ragged_trajs(rng, lengths_a)
        trajs_b = ragged_trajs(rng, lengths_b)
        (pa, la), (pb, lb) = pad_trajectories(trajs_a), pad_trajectories(trajs_b)
        got = spec.batch(pa, pb, la, lb)
        expected = [spec(a, b) for a, b in zip(trajs_a, trajs_b)]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


class TestReadOutLists:
    """(P, K) lengths read K cells of each pair's table in one sweep."""

    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_prefix_cells_bit_identical_to_one_call_per_cut(self, name, rng):
        spec = get_metric(name, eps=0.8)
        pa = rng.normal(size=(5, 30, 2))
        pb = rng.normal(size=(5, 30, 2))
        cuts = np.array([1, 4, 10, 17, 25])
        lengths = np.tile(cuts, (5, 1))
        got = spec.batch(pa[:, :25], pb[:, :25], lengths, lengths)
        assert got.shape == (5, cuts.size)
        for k, cut in enumerate(cuts):
            cut_len = np.full(5, cut)
            expected = spec.batch(pa[:, :cut], pb[:, :cut], cut_len, cut_len)
            np.testing.assert_array_equal(got[:, k], expected)

    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_unequal_read_outs_match_scalar(self, name, rng):
        spec = get_metric(name, eps=0.8)
        pa = rng.normal(size=(2, 9, 2))
        pb = rng.normal(size=(2, 7, 2))
        len_a = np.array([[9, 3, 1], [2, 5, 9]])
        len_b = np.array([[7, 6, 2], [7, 1, 4]])
        got = spec.batch(pa, pb, len_a, len_b)
        for p in range(2):
            for k in range(3):
                expected = spec(pa[p, : len_a[p, k]], pb[p, : len_b[p, k]])
                assert got[p, k] == pytest.approx(expected, rel=1e-12), (p, k)

    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_packed_sweep_matches_scalar(self, name, rng):
        """Pairs ordered longest first are dropped as their reads finish."""
        spec = get_metric(name, eps=0.8)
        len_a = np.array([[12, 3], [9, 9], [4, 7], [2, 1]])
        len_b = np.array([[11, 5], [8, 2], [6, 1], [1, 3]])
        pa = rng.normal(size=(4, 12, 2))
        pb = rng.normal(size=(4, 11, 2))
        got = spec.batch(pa, pb, len_a, len_b)
        for p in range(4):
            for k in range(2):
                expected = spec(pa[p, : len_a[p, k]], pb[p, : len_b[p, k]])
                assert got[p, k] == pytest.approx(expected, rel=1e-12), (p, k)

    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_prefix_distances_bit_identical_to_one_call_per_length(self, name, rng):
        spec = get_metric(name, eps=0.8)
        pa = rng.normal(size=(6, 20, 2))
        pb = rng.normal(size=(6, 20, 2))
        pairs = np.array([4, 0, 4, 2, 5, 0, 4, 3])
        lengths = np.array([5, 10, 15, 5, 20, 15, 10, 1])
        got = prefix_distances(spec, pa, pb, pairs, lengths)
        for i, (p, c) in enumerate(zip(pairs, lengths)):
            expected = spec.batch(pa[[p], :c], pb[[p], :c], np.array([c]), np.array([c]))
            assert got[i] == expected[0], (p, c)

    def test_prefix_distances_is_one_batch_call(self, rng):
        spy = BatchSpy(get_metric("dtw"))
        pa = rng.normal(size=(3, 9, 2))
        got = prefix_distances(spy.spec, pa, pa[::-1], np.array([0, 1, 1, 2]), np.array([3, 3, 9, 6]))
        assert len(spy.calls) == 1 and got.shape == (4,)
        # Longest first, each pair cropped to its longest prefix.
        width_a, width_b, la, lb = spy.calls[0]
        assert (width_a, width_b) == (9, 9)
        np.testing.assert_array_equal(la, [[3, 9], [6, 6], [3, 3]])
        assert prefix_distances(spy.spec, pa, pa, np.array([], int), np.array([], int)).shape == (0,)

    def test_read_out_shapes_must_agree(self):
        cost = np.zeros((2, 3, 3))
        with pytest.raises(ValueError):
            dtw_batch(cost, np.ones((2, 2), int), np.ones((2, 3), int))
        with pytest.raises(ValueError):
            dtw_batch(cost, np.ones((3, 2), int), np.ones((3, 2), int))
        with pytest.raises(ValueError):
            dtw_batch(cost, np.ones((2, 2, 1), int), np.ones((2, 2, 1), int))


class TestLengthOrderedChunks:
    @pytest.mark.parametrize("name", METRIC_NAMES)
    @pytest.mark.parametrize("lengths", [RAGGED, (7, 3)])
    def test_pairwise_bit_identical_to_one_unordered_batch(self, name, lengths, rng):
        trajs = ragged_trajs(rng, lengths)
        spec = get_metric(name)
        n = len(trajs)
        rows, cols = np.triu_indices(n, k=1)
        expected = np.zeros((n, n))
        expected[rows, cols] = reference_batch(spec, trajs, rows, cols)
        expected[cols, rows] = expected[rows, cols]
        got = pairwise_distance_matrix(trajs, spec, chunk_size=7)
        assert np.array_equal(got, expected), name

    @pytest.mark.parametrize("name", METRIC_NAMES)
    def test_cross_bit_identical_to_one_unordered_batch(self, name, rng):
        queries = ragged_trajs(rng, (4, 1, 9, 4))
        base = ragged_trajs(rng, (2, 12, 4, 6, 9, 1))
        spec = get_metric(name)
        q_idx, b_idx = np.meshgrid(np.arange(4), np.arange(6), indexing="ij")
        expected = reference_batch(spec, queries + base, q_idx.ravel(), 4 + b_idx.ravel())
        got = cross_distance_matrix(queries, base, spec, chunk_size=7)
        assert np.array_equal(got, expected.reshape(4, 6)), name

    def test_pairwise_chunks_are_cropped_to_their_own_lengths(self, rng):
        trajs = ragged_trajs(rng)
        spy = BatchSpy(get_metric("dtw"))
        pairwise_distance_matrix(trajs, spy.spec, chunk_size=7)
        n = len(trajs)
        assert sum(la.size for *_, la, _ in spy.calls) == n * (n - 1) // 2
        widths = [(wa, wb) for wa, wb, *_ in spy.calls]
        assert widths == [(la.max(), lb.max()) for *_, la, lb in spy.calls]
        # The shorter trajectory of each pair is on side a.
        assert all(np.all(la <= lb) for *_, la, lb in spy.calls)
        assert max(wb for _, wb in widths) == max(RAGGED)
        assert min(wb for _, wb in widths) < max(RAGGED)

    def test_cross_chunks_are_cropped_to_their_own_lengths(self, rng):
        queries = ragged_trajs(rng, (4, 1, 9, 4))
        base = ragged_trajs(rng, (2, 12, 4, 6, 9, 1))
        spy = BatchSpy(get_metric("erp"))
        cross_distance_matrix(queries, base, spy.spec, chunk_size=7)
        assert sum(la.size for *_, la, _ in spy.calls) == 24
        assert [(wa, wb) for wa, wb, *_ in spy.calls] == [
            (la.max(), lb.max()) for *_, la, lb in spy.calls
        ]

    def test_order_is_a_permutation_sorted_by_longer_then_shorter(self):
        lengths = np.array(RAGGED)
        rows, cols = np.triu_indices(len(lengths), k=1)
        r, c = length_ordered_pairs(rows, cols, lengths)
        assert sorted(zip(np.minimum(r, c), np.maximum(r, c))) == sorted(zip(rows, cols))
        assert np.all(lengths[r] <= lengths[c])
        keys = list(zip(lengths[c], lengths[r]))
        assert keys == sorted(keys)

    def test_two_sided_order_keeps_sides(self):
        len_q = np.array([5, 2])
        len_b = np.array([1, 7, 3])
        q_idx, b_idx = np.meshgrid(np.arange(2), np.arange(3), indexing="ij")
        r, c = length_ordered_pairs(q_idx.ravel(), b_idx.ravel(), len_q, len_b)
        assert sorted(zip(r, c)) == sorted(zip(q_idx.ravel(), b_idx.ravel()))
        longer = np.maximum(len_q[r], len_b[c])
        assert np.all(np.diff(longer) >= 0)


class TestRegistry:
    def test_all_names_resolve(self):
        for name in METRIC_NAMES:
            spec = get_metric(name)
            assert isinstance(spec, MetricSpec)
            assert spec.name == name

    def test_case_insensitive(self):
        assert get_metric("DTW").name == "dtw"

    def test_unknown_metric(self):
        with pytest.raises(KeyError):
            get_metric("manhattan")

    def test_spec_is_callable(self, rng):
        spec = get_metric("hausdorff")
        a, b = rng.normal(size=(3, 2)), rng.normal(size=(4, 2))
        assert spec(a, b) == pytest.approx(spec.scalar(a, b))

    def test_params_recorded(self):
        assert get_metric("edr", eps=0.9).params["eps"] == 0.9
        assert get_metric("erp", gap=(1.0, 2.0)).params["gap"] == (1.0, 2.0)
        assert get_metric("lcss").params["eps"] > 0
