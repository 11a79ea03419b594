"""Incremental all-pairs shortest paths for single-link SA moves.

``anneal_topology`` evaluates its exact objective from the all-pairs hop
matrix; recomputing it from scratch per move is the residual O(n·E) cost
noted since PR 5 and the wall at 256+ routers.  A move swaps exactly one
directed link — drop ``(da, db)``, add ``(aa, ab)`` — and the distance
matrix of the mutated graph can be derived exactly:

* **deletion** ``(da, db)``: a source row ``s`` can only change if some
  shortest path from ``s`` crossed the deleted edge, which (by subpath
  optimality) requires ``dist[s, da] + 1 == dist[s, db]``.  Even then,
  if another in-neighbor ``u`` of ``db`` is equally tight
  (``dist[s, u] + 1 == dist[s, db]``), every affected path re-routes
  through ``u`` at unchanged length — a tight in-neighbor is strictly
  closer than ``db``, so no shortest path to it visits ``db``, hence the
  detour never uses the deleted edge — and the row is unchanged.  The
  same argument transposes: a target column ``t`` can only change if
  ``dist[da, t] == 1 + dist[db, t]`` with no alternative tight
  *out*-neighbor of ``da``.  Whichever candidate set is smaller is
  recomputed — affected rows by BFS on the post-delete graph, or
  affected columns by BFS on its reverse.  A row that reaches neither
  endpoint (``inf + 1 == inf``) may enter the candidate set too; it is
  recomputed to the same values, so the set only has to be a superset;
* **insertion** ``(aa, ab)``: a shortest path uses a new edge at most
  once (no vertex repeats), so the exact update is one vectorized
  minimum: ``d' = min(d, d[:, aa, None] + 1 + d[ab, None, :])``.

The affected slice is recomputed by one of two exact BFSs, selected by
its per-level work ``sources * n * n`` (:data:`DENSE_BFS_WORK`): a dense
boolean-frontier BFS (one ``frontier @ adj`` product per level) for
small slices, where scipy's fixed cost of building a CSR graph and
calling ``dijkstra`` dominates, and that scipy path above it, where the
dense product's O(sources·n²) per level loses.

Distances are small exact integers in float64, so every updated entry
equals the full-recompute value *bitwise*; objectives summed from the
matrix (same shape, same numpy pairwise reduction) are bit-identical.
The full-recompute oracle lives in the tests (``tests/apsp_oracle.py``).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, shortest_path

from ..topology.csr import build_csr

#: Largest per-level work ``sources * n * n`` recomputed by the dense
#: BFS.  Measured on real SA calls (2-core x86, numpy 2.4, scipy 1.17):
#: the dense BFS is 3.5x faster than scipy at 20 routers (~2.7 sources
#: per call), and the two break even at 14-18k, e.g. 7 sources of 48
#: routers or 4 of 64.  Every 256-router call lies above it.
DENSE_BFS_WORK = 2**14


def full_apsp(adj: np.ndarray) -> np.ndarray:
    """The dense hop matrix of a boolean adjacency, recomputed in full."""
    return shortest_path(
        csr_matrix(adj.astype(np.int8)), method="D", unweighted=True
    )


def _dense_bfs(adj: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Hop distances from ``sources``, one boolean product per level.

    ``adj`` has no self-loops, so the first frontier is the sources'
    adjacency rows.  ``unseen`` only loses the nodes each level reaches.
    """
    src = (np.arange(sources.size), sources)
    dist = np.full((sources.size, adj.shape[0]), np.inf)
    frontier = adj[sources]
    unseen = ~frontier
    unseen[src] = False
    level = 1.0
    while np.count_nonzero(frontier):
        dist[frontier] = level
        frontier = frontier @ adj
        frontier &= unseen
        unseen ^= frontier
        level += 1.0
    dist[src] = 0.0
    return dist


def _scipy_bfs(adj: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Hop distances from ``sources``, via a hand-built CSR graph.

    Skips the COO round-trip and dtype copies of ``csr_matrix(dense)``;
    unweighted Dijkstra over unit weights returns the exact integer hop
    counts of the full recompute.
    """
    n = adj.shape[0]
    indptr, indices = build_csr(adj)
    g = csr_matrix(
        (np.ones(indices.size, dtype=np.float64), indices, indptr),
        shape=(n, n),
        copy=False,
    )
    return dijkstra(g, unweighted=True, indices=sources)


def _bfs_rows(adj: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Exact hop distances from ``sources``, by the cheaper BFS."""
    n = adj.shape[0]
    if sources.size * n * n <= DENSE_BFS_WORK:
        return _dense_bfs(adj, sources)
    return _scipy_bfs(adj, sources)


class IncrementalAPSP:
    """Per-pair hop distances maintained across single-link swaps.

    Usage in a propose/accept loop::

        apsp = IncrementalAPSP(adj)          # adj = current adjacency
        ...
        d = apsp.candidate(adj2, (da, db), (aa, ab))  # adj2 = post-swap
        ...
        apsp.commit()                        # iff the move was accepted

    ``candidate`` never mutates the committed state; an un-committed
    candidate is simply overwritten by the next call.
    """

    def __init__(self, adj: np.ndarray):
        self.dist = full_apsp(adj)
        self._cand: np.ndarray = np.empty_like(self.dist)
        self._outer: np.ndarray = np.empty_like(self.dist)

    def candidate(
        self,
        adj_after: np.ndarray,
        dropped: Tuple[int, int],
        added: Tuple[int, int],
    ) -> np.ndarray:
        """Exact hop matrix of ``adj_after`` (one drop + one add away).

        ``adj_after`` must differ from the committed adjacency by
        exactly the swap described; it is restored unmodified (the added
        edge is cleared temporarily to expose the mid-state graph).
        """
        da, db = dropped
        aa, ab = added
        d = self.dist
        cand = self._cand
        np.copyto(cand, d)

        # -- deletion: recompute only the slices whose paths died -------
        adj_after[aa, ab] = False  # expose the post-delete mid-state
        try:
            to_db = d[:, db]
            rows = (d[:, da] + 1.0 == to_db).nonzero()[0]
            if rows.size:
                alt_in = adj_after[:, db].nonzero()[0]
                if alt_in.size:
                    rerouted = (
                        d[rows[:, None], alt_in] + 1.0 == to_db[rows, None]
                    ).any(axis=1)
                    rows = rows[~rerouted]
            from_da = d[da]
            cols = (d[db] + 1.0 == from_da).nonzero()[0]
            if cols.size:
                alt_out = adj_after[da].nonzero()[0]
                if alt_out.size:
                    rerouted = (
                        d[alt_out[:, None], cols] + 1.0 == from_da[cols]
                    ).any(axis=0)
                    cols = cols[~rerouted]
            # Either slice alone is exact; recompute the cheaper one.
            if rows.size <= cols.size:
                if rows.size:
                    cand[rows] = _bfs_rows(adj_after, rows)
            else:
                cand[:, cols] = _bfs_rows(adj_after.T, cols).T
        finally:
            adj_after[aa, ab] = True

        # -- insertion: one exact vectorized relaxation -----------------
        outer = self._outer
        np.add(cand[:, aa, None] + 1.0, cand[ab], out=outer)
        np.minimum(cand, outer, out=cand)
        return cand

    def commit(self) -> None:
        """Adopt the last candidate as the committed state."""
        self.dist, self._cand = self._cand, self.dist
