"""Tests for the HNSW approximate nearest-neighbour index."""

import heapq

import numpy as np
import pytest

from repro.index import knn_brute
from repro.index.hnsw import HNSWIndex, sq_distances


@pytest.fixture
def built(rng):
    pts = rng.normal(size=(300, 8))
    index = HNSWIndex(dim=8, m=8, ef_construction=64, seed=0)
    index.add_batch(pts)
    return index, pts


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            HNSWIndex(dim=0)
        with pytest.raises(ValueError):
            HNSWIndex(dim=4, m=1)
        with pytest.raises(ValueError):
            HNSWIndex(dim=4, ef_construction=0)

    def test_add_returns_sequential_ids(self, rng):
        index = HNSWIndex(dim=3)
        ids = index.add_batch(rng.normal(size=(5, 3)))
        assert ids == [0, 1, 2, 3, 4]
        assert len(index) == 5

    def test_add_rejects_wrong_dim(self, rng):
        index = HNSWIndex(dim=3)
        with pytest.raises(ValueError):
            index.add(rng.normal(size=4))

    def test_query_empty_index(self):
        with pytest.raises(RuntimeError):
            HNSWIndex(dim=2).query(np.zeros(2))


def _one_distance(a, b):
    """The index's distance kernel applied to a single pair."""
    return float(sq_distances(a[None, :], b)[0])


class ReferenceHNSW(HNSWIndex):
    """Per-add linking, per-neighbour search and per-link prune: the
    oracle for the vectorised, lazily linked :class:`HNSWIndex`.

    Every ``add`` links its node at once; one distance call per neighbour
    and per link, a tuple sort for pruning; same distance kernel, same
    level sampling.  Graphs and query answers must match
    :class:`HNSWIndex` exactly.
    """

    def add(self, vector):
        node = super().add(vector)
        self.link()
        return node

    def _search_layer(self, query, entry, ef, layer):
        vectors = self._table
        visited = {entry}
        d0 = _one_distance(vectors[entry], query)
        candidates = [(d0, entry)]
        best = [(-d0, entry)]
        while candidates:
            dist, node = heapq.heappop(candidates)
            if dist > -best[0][0]:
                break
            for neighbor in self._neighbors[layer].get(node, ()):
                if neighbor in visited:
                    continue
                visited.add(neighbor)
                d = _one_distance(vectors[neighbor], query)
                if len(best) < ef or d < -best[0][0]:
                    heapq.heappush(candidates, (d, neighbor))
                    heapq.heappush(best, (-d, neighbor))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted((-d, i) for d, i in best)

    def _link_node(self, node):
        vector = self._table[node].copy()
        level = self._random_level()
        while len(self._neighbors) <= level:
            self._neighbors.append({})
        for l in range(level + 1):
            self._neighbors[l].setdefault(node, [])
        if self._entry is None:
            self._entry = node
            self._max_level = level
            return
        entry = self._entry
        for l in range(self._max_level, level, -1):
            entry = self._search_layer(vector, entry, ef=1, layer=l)[0][1]
        for l in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(vector, entry, self.ef_construction, l)
            max_degree = self.m * 2 if l == 0 else self.m
            chosen = self._select_neighbors(candidates, max_degree)
            self._neighbors[l][node] = list(chosen)
            for other in chosen:
                links = self._neighbors[l].setdefault(other, [])
                links.append(node)
                if len(links) > max_degree:
                    dists = [
                        (_one_distance(self._table[other], self._table[x]), x)
                        for x in links
                    ]
                    dists.sort()
                    self._neighbors[l][other] = [x for _, x in dists[:max_degree]]
            entry = chosen[0] if chosen else entry
        if level > self._max_level:
            self._max_level = level
            self._entry = node


def _clustered(rng, n, dim):
    """Tight blobs with exact duplicates, so distance ties reach the prune."""
    centres = rng.normal(scale=5.0, size=(6, dim))
    pts = centres[rng.integers(0, 6, size=n)] + rng.normal(scale=0.05, size=(n, dim))
    pts[1::7] = pts[0::7][: len(pts[1::7])]
    return pts


def _graph(index):
    return index._entry, index._max_level, index._neighbors


class TestVectorisedSearchEquivalence:
    """The vectorised graph build and search equal the per-neighbour reference."""

    @pytest.mark.parametrize("data", ["random", "clustered"])
    @pytest.mark.parametrize("m", [4, 8])
    def test_graph_and_queries_match_reference(self, data, m):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(300, 6)) if data == "random" else _clustered(rng, 300, 6)
        queries = np.concatenate([rng.normal(size=(10, 6)), pts[:5]])
        index = HNSWIndex(dim=6, m=m, ef_construction=32, seed=3)
        reference = ReferenceHNSW(dim=6, m=m, ef_construction=32, seed=3)
        index.add_batch(pts)
        reference.add_batch(pts)
        index.link()
        assert _graph(index) == _graph(reference)
        for ef in (1, 16, 64):
            for q in queries:
                d, i = index.query(q, k=min(ef, 10), ef=ef)
                d_ref, i_ref = reference.query(q, k=min(ef, 10), ef=ef)
                np.testing.assert_array_equal(i, i_ref)
                np.testing.assert_array_equal(d, d_ref)


class TestLazyLinking:
    """``add`` only stores; ``link`` builds the graph an eager build would."""

    @pytest.mark.parametrize("chunk", [1, 2, None])
    @pytest.mark.parametrize("data", ["random", "clustered"])
    @pytest.mark.parametrize("m", [4, 8])
    def test_link_in_chunks_matches_per_add_reference(self, chunk, data, m):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(200, 6)) if data == "random" else _clustered(rng, 200, 6)
        index = HNSWIndex(dim=6, m=m, ef_construction=32, seed=4)
        reference = ReferenceHNSW(dim=6, m=m, ef_construction=32, seed=4)
        reference.add_batch(pts)
        index.add_batch(pts[:120])
        assert index.linked == 0
        while index.linked < 120:
            before = index.linked
            assert index.link(chunk) == (120 - before if chunk is None else chunk)
        index.add_batch(pts[120:])
        while index.link(chunk):
            pass
        assert index.linked == len(index) == 200
        assert _graph(index) == _graph(reference)

    def test_store_reads_never_link(self, rng):
        pts = rng.normal(size=(40, 4))
        index = HNSWIndex(dim=4, m=4, seed=1)
        index.add_batch(pts)
        assert len(index) == 40
        np.testing.assert_array_equal(index.vectors, pts)
        assert index.nbytes == pts.size * 8
        assert index.linked == 0 and index.link(0) == 0 and index.linked == 0
        index.link(10)
        assert index.linked == 10
        index.query(pts[3], k=2)
        assert index.linked == 40  # a direct query searches the whole store
        assert index.link() == 0

    def test_query_links_the_backlog_first(self, rng):
        pts = rng.normal(size=(60, 4))
        queries = rng.normal(size=(6, 4))
        lazy = HNSWIndex(dim=4, m=4, ef_construction=16, seed=2)
        eager = ReferenceHNSW(dim=4, m=4, ef_construction=16, seed=2)
        lazy.add_batch(pts)
        eager.add_batch(pts)
        d, i = lazy.query_batch(queries, k=3)
        d_eager, i_eager = eager.query_batch(queries, k=3)
        np.testing.assert_array_equal(i, i_eager)
        np.testing.assert_array_equal(d, d_eager)

    def test_state_dict_mid_backlog_matches_undumped_twin(self, rng):
        pts = rng.normal(size=(150, 5))
        twin = HNSWIndex(dim=5, m=4, ef_construction=16, seed=6)
        dumped = HNSWIndex(dim=5, m=4, ef_construction=16, seed=6)
        twin.add_batch(pts)
        twin.link()
        dumped.add_batch(pts[:90])
        dumped.link(40)
        state = dumped.state_dict()
        assert state["linked"] == 40 and state["vectors"].shape == (90, 5)
        rebuilt = HNSWIndex.from_state(state)
        assert rebuilt.linked == 40 and len(rebuilt) == 90
        assert rebuilt.nbytes == dumped.nbytes
        rebuilt.add_batch(pts[90:])
        rebuilt.link()
        assert _graph(rebuilt) == _graph(twin)
        assert rebuilt.nbytes == twin.nbytes

    def test_nbytes_counts_only_existing_links(self, rng):
        pts = rng.normal(size=(50, 3))
        index = HNSWIndex(dim=3, m=4, seed=3)
        index.add_batch(pts)
        vector_bytes = pts.size * 8

        def link_bytes():
            return 8 * sum(len(v) for layer in index._neighbors for v in layer.values())

        assert index.nbytes == vector_bytes and link_bytes() == 0
        index.link(20)
        partial = index.nbytes
        assert partial == vector_bytes + link_bytes() > vector_bytes
        assert all(node < 20 for layer in index._neighbors for node in layer)
        index.link()
        assert index.nbytes == vector_bytes + link_bytes() > partial


def _stranding_clusters(seed):
    """Many tight far-apart clusters with duplicates: at m=4 the layer-0
    component around the entry point can hold fewer than k=16 nodes."""
    rng = np.random.default_rng(seed)
    n_centres = int(rng.integers(14, 29))
    centres = rng.normal(scale=50.0, size=(n_centres, 8))
    pts = centres[rng.integers(0, n_centres, size=300)]
    pts = pts + rng.normal(scale=0.01, size=pts.shape)
    pts[1::7] = pts[0::7][: len(pts[1::7])]
    return pts


class TestShortBeam:
    """A beam that reaches fewer than k nodes is topped up to k ids."""

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_query_and_query_batch_return_k_ids(self, seed):
        pts = _stranding_clusters(seed)
        index = HNSWIndex(dim=8, m=4, ef_construction=32, seed=seed)
        index.add_batch(pts)
        queries = pts[::10]
        for q in queries:
            d, i = index.query(q, k=16, ef=16)
            assert len(i) == len(set(i.tolist())) == 16
            assert np.all(np.diff(d) >= 0)
            np.testing.assert_allclose(d, np.sqrt(((pts[i] - q) ** 2).sum(axis=1)))
        dists, ids = index.query_batch(queries, k=16, ef=16)
        assert ids.shape == dists.shape == (len(queries), 16)
        for row, q in enumerate(queries):
            d, i = index.query(q, k=16, ef=16)
            np.testing.assert_array_equal(ids[row], i)
            np.testing.assert_array_equal(dists[row], d)


class TestVectorTable:
    def test_vectors_is_a_read_only_table_view(self, built):
        index, pts = built
        view = index.vectors
        assert view.shape == pts.shape
        np.testing.assert_array_equal(view, pts)
        with pytest.raises(ValueError):
            view[0, 0] = 1.0
        assert index.nbytes >= pts.size * 8

    def test_mutating_the_added_array_changes_nothing(self, rng):
        pts = rng.normal(size=(80, 4))
        queries = rng.normal(size=(10, 4))
        index = HNSWIndex(dim=4, m=4, seed=2)
        twin = HNSWIndex(dim=4, m=4, seed=2)
        twin.add_batch(pts)
        buffer = np.empty(4)
        for p in pts:
            buffer[:] = p
            index.add(buffer)
        buffer[:] = 1e6
        np.testing.assert_array_equal(index.vectors, pts)
        for ef in (1, 16):
            d, i = index.query_batch(queries, k=3, ef=ef)
            d_twin, i_twin = twin.query_batch(queries, k=3, ef=ef)
            np.testing.assert_array_equal(i, i_twin)
            np.testing.assert_array_equal(d, d_twin)

    def test_from_state_then_add_matches_undumped_twin(self, rng):
        pts = rng.normal(size=(120, 5))
        queries = rng.normal(size=(12, 5))
        twin = HNSWIndex(dim=5, m=4, ef_construction=16, seed=9)
        dumped = HNSWIndex(dim=5, m=4, ef_construction=16, seed=9)
        twin.add_batch(pts)
        dumped.add_batch(pts[:50])
        state = dumped.state_dict()
        assert state["vectors"].shape == (50, 5)
        rebuilt = HNSWIndex.from_state(state)
        assert len(rebuilt._table) == 50  # no slack until the next add
        rebuilt.add_batch(pts[50:])
        assert len(rebuilt) == 120 and len(rebuilt._table) >= 120
        np.testing.assert_array_equal(rebuilt.vectors, pts)
        rebuilt.link()
        twin.link()
        assert _graph(rebuilt) == _graph(twin)
        assert rebuilt.nbytes == twin.nbytes
        d, i = rebuilt.query_batch(queries, k=4)
        d_twin, i_twin = twin.query_batch(queries, k=4)
        np.testing.assert_array_equal(i, i_twin)
        np.testing.assert_array_equal(d, d_twin)


class TestSearchQuality:
    def test_exact_on_indexed_point(self, built):
        index, pts = built
        d, i = index.query(pts[42], k=1)
        assert i[0] == 42
        assert d[0] == pytest.approx(0.0, abs=1e-9)

    def test_high_recall_vs_brute_force(self, built, rng):
        index, pts = built
        queries = rng.normal(size=(30, 8))
        hits = total = 0
        for q in queries:
            _, approx = index.query(q, k=10, ef=80)
            _, exact = knn_brute(pts, q[None], 10)
            hits += len(set(approx.tolist()) & set(exact[0].tolist()))
            total += 10
        assert hits / total >= 0.9  # approximate, but must be good

    def test_distances_sorted(self, built, rng):
        index, _ = built
        d, _ = index.query(rng.normal(size=8), k=10)
        assert np.all(np.diff(d) >= -1e-12)

    def test_larger_ef_no_worse(self, built, rng):
        index, pts = built
        q = rng.normal(size=8)
        _, exact = knn_brute(pts, q[None], 5)
        exact = set(exact[0].tolist())

        def recall(ef):
            _, ids = index.query(q, k=5, ef=ef)
            return len(set(ids.tolist()) & exact)

        assert recall(200) >= recall(5)

    def test_query_validation(self, built, rng):
        index, _ = built
        with pytest.raises(ValueError):
            index.query(np.zeros(3), k=1)
        with pytest.raises(ValueError):
            index.query(np.zeros(8), k=0)

    def test_single_element_index(self, rng):
        index = HNSWIndex(dim=2)
        index.add(np.array([1.0, 2.0]))
        d, i = index.query(np.array([1.0, 2.0]), k=1)
        assert i[0] == 0


class TestIntegrationWithEmbeddings:
    def test_trajectory_embedding_search(self, rng):
        """HNSW over learned trajectory embeddings (the paper's use case)."""
        from repro.core import TMN, TMNConfig

        model = TMN(TMNConfig(hidden_dim=8, matching=False, sampling_number=4, seed=0))
        trajs = [rng.normal(size=(6, 2)) for _ in range(50)]
        emb = model.encode(trajs)
        index = HNSWIndex(dim=8, m=6, seed=1)
        index.add_batch(emb)
        _, approx = index.query(emb[0], k=5, ef=50)
        _, exact = knn_brute(emb, emb[0][None], 5)
        assert len(set(approx.tolist()) & set(exact[0].tolist())) >= 3


class TestQueryBatch:
    def test_matches_single_queries(self, built, rng):
        index, pts = built
        queries = rng.normal(size=(7, 8))
        dists, ids = index.query_batch(queries, k=3, ef=50)
        assert dists.shape == (7, 3) and ids.shape == (7, 3)
        for row, q in enumerate(queries):
            d_single, i_single = index.query(q, k=3, ef=50)
            np.testing.assert_array_equal(ids[row], i_single)
            np.testing.assert_allclose(dists[row], d_single)

    def test_empty_batch(self, built):
        index, _ = built
        dists, ids = index.query_batch(np.zeros((0, 8)), k=2)
        assert dists.shape == (0, 2) and ids.shape == (0, 2)

    def test_validation(self, built):
        index, _ = built
        with pytest.raises(ValueError):
            index.query_batch(np.zeros(8), k=1)  # 1-D, not a batch
        with pytest.raises(ValueError):
            index.query_batch(np.zeros((3, 5)), k=1)  # wrong dim


class TestConcurrency:
    """The serving layer queries from worker threads while inserts happen.

    The contract (see the module docstring): operations serialise on an
    internal lock — concurrent readers must never crash, never observe a
    half-linked graph, and never return an id >= the index size they
    observed."""

    def test_queries_during_adds(self, rng):
        import threading

        index = HNSWIndex(dim=4, m=6, ef_construction=32, seed=0)
        index.add_batch(rng.normal(size=(10, 4)))
        vectors = rng.normal(size=(120, 4))
        queries = rng.normal(size=(40, 4))
        errors = []
        stop = threading.Event()

        def writer():
            try:
                for v in vectors:
                    index.add(v)
            finally:
                stop.set()

        def reader(seed):
            local = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    q = queries[int(local.integers(0, len(queries)))]
                    size_before = len(index)
                    dists, ids = index.query(q, k=3)
                    assert len(ids) == 3
                    # Ids must come from trajectories present at query time;
                    # the size can only have grown since we sampled it.
                    assert np.all(ids < len(index))
                    assert np.all(ids >= 0)
                    assert np.all(np.isfinite(dists))
                    assert len(index) >= size_before
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        readers = [threading.Thread(target=reader, args=(s,)) for s in range(3)]
        writer_thread = threading.Thread(target=writer)
        for t in readers:
            t.start()
        writer_thread.start()
        writer_thread.join()
        for t in readers:
            t.join()
        assert not errors
        assert len(index) == 130

    def test_concurrent_adds_assign_unique_ids(self, rng):
        import threading

        index = HNSWIndex(dim=3, m=4, seed=1)
        vectors = rng.normal(size=(60, 3))
        ids = []
        lock = threading.Lock()

        def worker(part):
            for v in part:
                node = index.add(v)
                with lock:
                    ids.append(node)

        threads = [
            threading.Thread(target=worker, args=(vectors[w::4],)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(ids) == list(range(60))
        assert len(index) == 60

    def test_vector_scans_across_table_growth(self, rng):
        """Readers scan ``vectors`` views while a writer crosses several
        capacity doublings; every view is a prefix of the stored rows and
        stays one after the table moves."""
        import threading

        from repro.serve.engine import brute_topk

        pts = rng.normal(size=(300, 4))
        queries = rng.normal(size=(8, 4))
        index = HNSWIndex(dim=4, m=4, ef_construction=8, seed=3)
        index.add_batch(pts[:16])  # capacity 16: the next add doubles it
        errors = []
        views = []
        stop = threading.Event()

        def writer():
            try:
                for p in pts[16:]:
                    index.add(p)
            finally:
                stop.set()

        def reader(seed):
            local = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    view = index.vectors
                    n = len(view)
                    assert n >= 16 and not view.flags.writeable
                    q = queries[int(local.integers(0, len(queries)))]
                    sq, ids = brute_topk(view, np.arange(n), q, 3)
                    expect = np.argsort(((pts[:n] - q) ** 2).sum(axis=1), kind="stable")[:3]
                    np.testing.assert_array_equal(ids, expect)
                    views.append(view)
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        readers = [threading.Thread(target=reader, args=(s,)) for s in range(2)]
        writer_thread = threading.Thread(target=writer)
        for t in readers:
            t.start()
        writer_thread.start()
        writer_thread.join()
        for t in readers:
            t.join()
        assert not errors
        assert len(index) == 300 and len(index._table) == 512
        assert views
        for view in views:
            np.testing.assert_array_equal(view, pts[: len(view)])

    def test_query_batch_during_adds(self, rng):
        import threading

        index = HNSWIndex(dim=4, m=6, seed=2)
        index.add_batch(rng.normal(size=(20, 4)))
        inserts = rng.normal(size=(60, 4))
        queries = rng.normal(size=(5, 4))
        errors = []
        stop = threading.Event()

        def writer():
            try:
                for v in inserts:
                    index.add(v)
            finally:
                stop.set()

        def reader():
            try:
                while not stop.is_set():
                    dists, ids = index.query_batch(queries, k=2)
                    assert ids.shape == (5, 2)
                    assert np.all(ids < len(index))
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        reader_thread = threading.Thread(target=reader)
        writer_thread = threading.Thread(target=writer)
        reader_thread.start()
        writer_thread.start()
        writer_thread.join()
        reader_thread.join()
        assert not errors
