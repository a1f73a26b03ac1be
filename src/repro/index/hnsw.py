"""HNSW — Hierarchical Navigable Small World graphs (Malkov et al.).

The paper points out that once trajectories are embedded as vectors,
"state-of-the-art indexing techniques (e.g., HNSW) can be immediately
applied ... for nearest neighbor search".  This is a compact, dependency-
free implementation of that index: multi-layer proximity graphs searched
greedily from the top layer down, with beam (``ef``) search on the bottom
layer.  Approximate by design; the test suite measures recall against the
brute-force oracle.

Storing and linking are two steps.  :meth:`HNSWIndex.add` only copies a
vector into the next row of one contiguous ``(capacity, dim)`` float64
table (grown by doubling) and returns its id; :meth:`HNSWIndex.link`
later links the oldest unlinked rows into the graph, in id order, with
the same level draws an eager build makes — so the linked graph is
bit-identical to inserting and linking one vector at a time, however
the linking is chunked.  :attr:`HNSWIndex.linked` counts the linked
prefix.  A caller that answers small stores by an exact scan (the
serving layer's :class:`~repro.serve.engine.LocalShard`) stores vectors
without ever paying for links no query reads; :meth:`HNSWIndex.query`
and :meth:`HNSWIndex.query_batch` link any pending rows first, so a
direct caller always searches the whole store.  ``vectors``, ``len()``
and ``nbytes`` never link; ``nbytes`` counts only links that exist.

Thread-safety contract (relied on by :mod:`repro.serve`): every public
method — ``add``, ``link``, ``query``, ``query_batch``, ``linked``,
``vectors`` and ``len()`` — takes an internal lock, so any number of
reader threads may query while writers insert and link.  A query
observes the index either before or after a concurrent insert, never a
half-linked graph, and never returns an id ``>= len(index)`` as seen at
the moment the query completed.  A stored row is never written again,
so the read-only view :attr:`HNSWIndex.vectors` hands out is a stable
snapshot — an exact scan over it runs outside the lock, and a concurrent
insert that reallocates the table leaves the view on the old buffer
untouched.  Graph search gathers an expanded node's unvisited neighbours
with one ``take`` and scores them with one :func:`sq_distances` call;
the heap decisions stay sequential.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..obs.lockstats import new_rlock
from ..obs.metrics import get_registry
from ..obs.trace import annotate

__all__ = ["HNSWIndex", "sq_distances"]


def sq_distances(rows: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Squared L2 from ``point`` to every row of ``rows`` (same ordering as
    L2, no root).  The one distance kernel of graph search and pruning."""
    diff = rows - point
    return np.einsum("ij,ij->i", diff, diff)


class HNSWIndex:
    """Approximate k-NN index over vectors.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    m:
        Maximum out-degree per node on the upper layers (bottom layer
        allows ``2 * m``).
    ef_construction:
        Beam width while inserting; larger builds a better graph, slower.
    seed:
        Seed for the geometric level sampling.
    """

    def __init__(self, dim: int, m: int = 8, ef_construction: int = 64, seed: int = 0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if m < 2:
            raise ValueError("m must be >= 2")
        if ef_construction < 1:
            raise ValueError("ef_construction must be >= 1")
        self.dim = dim
        self.m = m
        self.ef_construction = ef_construction
        self._rng = np.random.default_rng(seed)
        self._level_mult = 1.0 / math.log(m)
        #: Rows ``[:_n]`` hold the vectors in id order; the rest is slack.
        self._table = np.zeros((0, dim))
        self._n = 0
        #: Nodes ``[:_linked]`` are in the graph; ``[_linked:_n]`` await :meth:`link`.
        self._linked = 0
        # neighbors[layer][node] -> list of neighbor ids
        self._neighbors: List[Dict[int, List[int]]] = []
        self._entry: Optional[int] = None
        self._max_level = -1
        # Guards graph mutation and search; reentrant so query_batch can
        # delegate to the single-query path while already holding it.
        self._lock = new_rlock("index.hnsw")

    def __len__(self) -> int:
        with self._lock:
            return self._n

    @property
    def linked(self) -> int:
        """How many nodes (the oldest, ids ``0..linked-1``) are in the graph."""
        with self._lock:
            return self._linked

    @property
    def vectors(self) -> np.ndarray:
        """Read-only ``(n, dim)`` view of every stored vector, row = id.

        Stored rows never change, so the view stays a consistent snapshot
        while later inserts append (or move the table) behind it.
        """
        with self._lock:
            view = self._table[: self._n]
        view.flags.writeable = False
        return view

    @property
    def nbytes(self) -> int:
        """Exact payload bytes: stored vectors + 8 bytes per existing graph link.

        Vector data is ``n * dim * 8`` (the table's unused slack rows are
        not payload; unlinked nodes hold no links); each neighbour link is
        accounted as one 8-byte id (what a packed adjacency array would
        store), deliberately excluding Python container overhead so the
        number tracks the structure's information content — the figure
        the bytes-per-trajectory gate compares across compression PRs.
        """
        with self._lock:
            vector_bytes = self._n * self.dim * self._table.itemsize
            link_bytes = 8 * sum(
                len(links) for layer in self._neighbors for links in layer.values()
            )
        return vector_bytes + link_bytes

    # ------------------------------------------------------------------
    def _random_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._level_mult)

    def _search_layer(
        self, query: np.ndarray, entry: int, ef: int, layer: int
    ) -> List[Tuple[float, int]]:
        """Beam search one layer; returns up to ``ef`` (dist, id) ascending.

        Each expanded node's unvisited neighbours are scored in one
        vectorised call; they are then offered to the heaps in link order,
        exactly as a one-at-a-time scan would.
        """
        table = self._table
        links_of = self._neighbors[layer]
        visited: Set[int] = {entry}
        d0 = float(sq_distances(table[entry : entry + 1], query)[0])
        candidates = [(d0, entry)]  # min-heap by distance
        best = [(-d0, entry)]  # max-heap of current ef best
        while candidates:
            dist, node = heapq.heappop(candidates)
            if dist > -best[0][0]:
                break
            fresh = [x for x in links_of.get(node, ()) if x not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            dists = sq_distances(table.take(fresh, axis=0), query).tolist()
            for d, neighbor in zip(dists, fresh):
                if len(best) < ef or d < -best[0][0]:
                    heapq.heappush(candidates, (d, neighbor))
                    heapq.heappush(best, (-d, neighbor))
                    if len(best) > ef:
                        heapq.heappop(best)
        return sorted((-d, i) for d, i in best)

    def _select_neighbors(self, candidates: List[Tuple[float, int]], m: int) -> List[int]:
        return [i for _, i in candidates[:m]]

    # ------------------------------------------------------------------
    def add(self, vector: np.ndarray) -> int:
        """Store a copy of one vector; returns its id.  Links nothing (see :meth:`link`)."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected vector of dim {self.dim}, got {vector.shape}")
        with self._lock:
            node = self._n
            if node == len(self._table):
                # Views handed out earlier keep the old buffer alive unchanged.
                grown = np.empty((max(2 * node, 16), self.dim))
                grown[:node] = self._table[:node]
                self._table = grown
            self._table[node] = vector
            self._n = node + 1
        get_registry().counter("index.hnsw.inserts").inc()
        return node

    def link(self, max_nodes: Optional[int] = None) -> int:
        """Link the oldest unlinked nodes into the graph, at most ``max_nodes``.

        Returns how many were linked.  Nodes link in id order with the
        level draws of an eager build, so any chunking yields the graph
        that linking each node on its insert would have built.
        """
        with self._lock:
            stop = self._n if max_nodes is None else min(self._n, self._linked + max_nodes)
            start = self._linked
            for node in range(start, stop):
                self._link_node(node)
                self._linked = node + 1
        return max(stop - start, 0)

    def _link_node(self, node: int) -> None:
        """Link stored node ``node`` into the graph of nodes ``[0, node)``."""
        vector = self._table[node]
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
        # Greedy descent through layers above the new node's level.
        for l in range(self._max_level, level, -1):
            entry = self._search_layer(vector, entry, ef=1, layer=l)[0][1]
        # Connect on each layer from min(level, max_level) down to 0.
        for l in range(min(level, self._max_level), -1, -1):
            candidates = self._search_layer(vector, entry, self.ef_construction, l)
            max_degree = self.m * 2 if l == 0 else self.m
            chosen = self._select_neighbors(candidates, max_degree)
            self._neighbors[l][node] = list(chosen)
            for other in chosen:
                links = self._neighbors[l].setdefault(other, [])
                links.append(node)
                if len(links) > max_degree:
                    # Prune the farthest link to keep degrees bounded:
                    # nearest first, ties to the lower id.
                    dists = sq_distances(self._table.take(links, axis=0), self._table[other])
                    keep = np.lexsort((links, dists))[:max_degree]
                    self._neighbors[l][other] = [links[i] for i in keep.tolist()]
            entry = chosen[0] if chosen else entry

        if level > self._max_level:
            self._max_level = level
            self._entry = node

    def add_batch(self, vectors: np.ndarray) -> List[int]:
        """Store many vectors; returns their ids."""
        return [self.add(v) for v in np.asarray(vectors, dtype=np.float64)]

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """One consistent, picklable snapshot of the whole graph.

        Everything :meth:`from_state` needs to answer queries identically
        to this instance: the ``(n, dim)`` vector table (linked prefix and
        unlinked rows), the linked count, per-layer adjacency, entry
        point, construction parameters and the level sampler's state.
        The sharded serving tier ships these across the process boundary
        so a coordinator can rebuild a worker's shard in-process without
        re-inserting.
        """
        with self._lock:
            return {
                "dim": self.dim,
                "m": self.m,
                "ef_construction": self.ef_construction,
                "vectors": self._table[: self._n].copy(),
                "linked": self._linked,
                "neighbors": [
                    {node: list(links) for node, links in layer.items()}
                    for layer in self._neighbors
                ],
                "entry": self._entry,
                "max_level": self._max_level,
                "rng": self._rng.bit_generator.state,
            }

    @classmethod
    def from_state(cls, state: dict) -> "HNSWIndex":
        """Rebuild an index from :meth:`state_dict` output.

        Queries on the rebuilt index traverse the identical graph, so
        results match the source instance exactly, and the level sampler
        resumes where the source's stood: linking the rest (the source's
        backlog and any further inserts) builds the graph the source would
        have built.
        """
        index = cls(
            state["dim"], m=state["m"], ef_construction=state["ef_construction"]
        )
        with index._lock:
            table = np.array(state["vectors"], dtype=np.float64).reshape(-1, index.dim)
            index._table, index._n = table, len(table)
            index._linked = state["linked"]
            index._neighbors = [
                {int(node): list(links) for node, links in layer.items()}
                for layer in state["neighbors"]
            ]
            index._entry = state["entry"]
            index._max_level = state["max_level"]
            index._rng.bit_generator.state = state["rng"]
        return index

    def query(self, vector: np.ndarray, k: int = 1, ef: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Approximate k nearest neighbours: ``(distances, ids)`` ascending.

        ``ef`` (beam width, >= k) trades recall for speed; defaults to
        ``max(ef_construction, k)``.  Links any pending nodes first, so
        every stored vector can be found.  Returns ``k`` ids even where the
        beam reaches fewer nodes (see :meth:`_top_up`).  Safe under a
        concurrent :meth:`add`.
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dim,):
            raise ValueError(f"expected vector of dim {self.dim}, got {vector.shape}")
        with self._lock:
            self.link()
            return self._query_locked(vector, k, ef)

    def query_batch(
        self, vectors: np.ndarray, k: int = 1, ef: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Query many vectors under one lock acquisition.

        Returns ``(distances, ids)`` of shape (Q, k) each, row ``q`` sorted
        ascending.  The whole batch sees one consistent index snapshot —
        useful for the serving layer, which answers coalesced requests
        against the same database state.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(f"expected (Q, {self.dim}) query stack, got {vectors.shape}")
        with self._lock:
            self.link()
            out = [self._query_locked(v, k, ef) for v in vectors]
        dists = np.stack([d for d, _ in out]) if out else np.zeros((0, k))
        ids = np.stack([i for _, i in out]) if out else np.zeros((0, k), dtype=int)
        return dists, ids

    def _query_locked(
        self, vector: np.ndarray, k: int, ef: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        if self._entry is None:
            raise RuntimeError("index is empty")
        if not 1 <= k <= self._n:
            raise ValueError(f"k must be in [1, {self._n}]")
        ef = max(ef if ef is not None else self.ef_construction, k)
        entry = self._entry
        visited = 0
        for l in range(self._max_level, 0, -1):
            layer_best = self._search_layer(vector, entry, ef=1, layer=l)
            visited += len(layer_best)
            entry = layer_best[0][1]
        found = self._search_layer(vector, entry, ef=ef, layer=0)
        visited += len(found)
        found = found[:k] if len(found) >= k else self._top_up(vector, found, k)
        registry = get_registry()
        registry.counter("index.hnsw.queries").inc()
        registry.counter("index.hnsw.candidates_scanned").inc(visited)
        # Attribute graph-search effort on the active request trace (the
        # serving layer's "index" span); no-op outside a trace.
        annotate(hnsw_candidates=visited, ef=ef)
        ids = np.array([i for _, i in found], dtype=int)
        # Candidate distances are squared L2 values, nonnegative by
        # construction; no eps needed on this no-gradient search path.
        dists = np.sqrt(np.array([d for d, _ in found]))  # lint: allow(N002)
        return dists, ids

    def _top_up(
        self, query: np.ndarray, found: List[Tuple[float, int]], k: int
    ) -> List[Tuple[float, int]]:
        """Fill a beam that reached fewer than ``k`` nodes to exactly ``k``.

        A graph whose layer-0 component around the entry point is smaller
        than ``k`` (tight clusters, duplicates, small ``m``) strands the
        rest; the nearest stranded rows come from an exact scan of the
        table, merged by ``(distance, id)``.
        """
        sq = sq_distances(self._table[: self._n], query)
        sq[[i for _, i in found]] = np.inf
        extra = np.argsort(sq, kind="stable")[: k - len(found)].tolist()
        return sorted(found + [(float(sq[i]), i) for i in extra])
