"""Topology performance metrics (paper Sections II-C/II-D, Table II).

* **Average hops / diameter** — from the all-pairs hop matrix, excluding
  self-pairs (Table II footnote).
* **Bisection bandwidth** — minimum, over *balanced* bipartitions, of the
  number of directed links crossing the cut; for asymmetric links the
  minimum of the two directions is taken (paper III-A(e)).
* **Sparsest cut** — the uniform-demand sparsest cut
  ``min over (U,V)`` of ``cross(U,V) / (|U| * |V|)``, the tightest
  cut-based throughput bound (Jyothi et al. [27]); exhaustively enumerated
  for n <= :data:`EXACT_CUT_LIMIT` (22), every bipartition's crossing
  counts read off split-half cut tables (each half's crossings
  tabulated once), heuristic (spectral + Kernighan–Lin refinement with
  restarts) above.

Throughput bounds (paper II-D, Fig. 7):

* **cut bound** — saturation injection rate (flits/node/cycle) implied by
  the sparsest cut under uniform traffic;
* **occupancy bound** — ``1 / avg_hops``-style bound implied by aggregate
  link occupancy under shortest-path routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .graph import Topology

#: Largest router count whose cuts are exact: every bipartition is
#: enumerated up to here, and the spectral + KL heuristic takes over
#: above.  The one exact-cut limit; SCOp and the SA sparsest-cut
#: objective, which need exact cuts, are refused above it.
EXACT_CUT_LIMIT = 22

#: Masks per block of the exhaustive scan (whole ``hi`` rows of ``2**l``
#: masks, at least one row): bounds the scan's temporaries.
_BLOCK = 1 << 16

#: Above this size the spectral+KL cut heuristic (O(n²) per refinement
#: probe) is replaced by an O(E log n) Fiedler sweep cut.
_KL_LIMIT = 128


# ---------------------------------------------------------------------------
# Hop statistics
# ---------------------------------------------------------------------------
#
# Streamed CSR multi-source BFS blocks (:mod:`repro.topology.csr`): O(n·E)
# time and O(n) memory per block.  ``tests/metrics_oracle.py`` keeps the
# historical all-pairs hop-matrix versions; hop counts are small exact
# integers, so the property suite asserts bit-identical floats over
# random connected topologies.

def average_hops(topo: Topology) -> float:
    """Mean shortest-path hops over all ordered pairs, excluding self-pairs."""
    s = topo.hop_stats()
    if not s.connected:
        return float("inf")
    return float(s.total / s.pairs)


def diameter(topo: Topology) -> int:
    s = topo.hop_stats()
    if not s.connected:
        raise ValueError(f"{topo.name}: disconnected; diameter undefined")
    return int(s.max_hop)


def hop_histogram(topo: Topology) -> Dict[int, int]:
    """Count of ordered pairs at each hop distance (the latency distribution)."""
    return topo.hop_stats().histogram()


# ---------------------------------------------------------------------------
# Cut enumeration machinery
# ---------------------------------------------------------------------------

def _memberships(bits: int) -> np.ndarray:
    """The ``2**bits x bits`` table whose row r flags the set bits of r."""
    r = np.arange(1 << bits)[:, None]
    return ((r >> np.arange(bits)) & 1).astype(np.float64)


def _cut_scan(adj: np.ndarray) -> Tuple[float, np.ndarray, float, np.ndarray]:
    """Exhaustive scan over all bipartitions with node 0 in U.

    Returns ``(best_sparsest_value, best_sparsest_mask,
    best_balanced_cross, best_balanced_mask)``; sparsest values are
    ``min_dir_cross / (|U| |V|)``.  Mask bit k means node k+1 is in U,
    and ties go to the first mask in mask order.

    Split-half tables: A is node 0 plus the ``l`` nodes of the low mask
    bits, B the ``h`` nodes of the high bits, so mask = ``hi << l | lo``.
    Per direction, the crossings of mask ``(hi, lo)`` are ``X[lo]``
    (inside A, plus the A->B links as if all of B were in V), plus
    ``Y[hi]`` (likewise for B), minus the A<->B links with both ends in
    U, ``U_B[hi] @ W[:, lo]``.  Every entry is a small integer in
    float64, so every count is exact and each value is the same float
    division a mask-by-mask scan makes.  Walking ``hi`` in row blocks
    visits the masks in mask order: ``np.argmin`` keeps the first
    minimum within a block and a strict ``<`` the first across blocks.
    """
    n = adj.shape[0]
    if n > EXACT_CUT_LIMIT:
        raise ValueError(f"exhaustive cut scan infeasible for n={n}")
    l = n // 2  # ceil((n - 1) / 2)
    h = n - 1 - l
    ua = np.hstack([np.ones((1 << l, 1)), _memberships(l)])  # A = 0..l
    ub = _memberships(h)  # B = l+1..n-1

    def tables(m: np.ndarray):
        """``(X, Y, W)`` of the crossings U -> V under adjacency ``m``."""
        m_aa, m_ab = m[: l + 1, : l + 1], m[: l + 1, l + 1 :]
        m_ba, m_bb = m[l + 1 :, : l + 1], m[l + 1 :, l + 1 :]
        x = ((ua @ m_aa) * (1.0 - ua)).sum(axis=1) + ua @ m_ab.sum(axis=1)
        y = ((ub @ m_bb) * (1.0 - ub)).sum(axis=1) + ub @ m_ba.sum(axis=1)
        return x, y, (m_ab.T + m_ba) @ ua.T

    a = adj.astype(np.float64)
    x_uv, y_uv, w_uv = tables(a)
    x_vu, y_vu, w_vu = tables(a.T)
    size_a = ua.sum(axis=1)  # |U ∩ A|, node 0 included
    size_b = ub.sum(axis=1)

    best_sparse = np.inf
    best_sparse_mask = None
    best_bal = np.inf
    best_bal_mask = None
    half = n // 2
    nhi = 1 << h
    rows = max(1, _BLOCK >> l)

    def members(r0: int, k: int) -> np.ndarray:
        hi, lo = divmod(k, 1 << l)
        return np.concatenate((ua[lo], ub[r0 + hi])).astype(bool)

    for r0 in range(0, nhi, rows):
        r1 = min(r0 + rows, nhi)
        blk = ub[r0:r1]
        cross = np.minimum(
            x_uv + (y_uv[r0:r1, None] - blk @ w_uv),
            x_vu + (y_vu[r0:r1, None] - blk @ w_vu),
        )
        size_u = size_a + size_b[r0:r1, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = cross / (size_u * (n - size_u))
        if r1 == nhi:
            vals[-1, -1] = np.inf  # every node in U: not a cut
        k = int(np.argmin(vals))
        if vals.flat[k] < best_sparse:
            best_sparse = float(vals.flat[k])
            best_sparse_mask = members(r0, k)

        bal = np.where(size_u == half, cross, np.inf)
        k = int(np.argmin(bal))
        if bal.flat[k] < best_bal:
            best_bal = float(bal.flat[k])
            best_bal_mask = members(r0, k)

    return best_sparse, best_sparse_mask, best_bal, best_bal_mask


def _kl_refine(
    adj: np.ndarray, memb: np.ndarray, objective: str, rng: np.random.Generator
) -> Tuple[float, np.ndarray]:
    """Greedy single-move refinement of a bipartition.

    ``objective`` is ``"sparsest"`` (minimize cross/(|U||V|), any sizes) or
    ``"bisection"`` (minimize cross, sizes locked).
    """
    n = adj.shape[0]
    memb = memb.copy()

    def value(m: np.ndarray) -> float:
        su = int(m.sum())
        if su == 0 or su == n:
            return np.inf
        cross_uv = adj[m][:, ~m].sum()
        cross_vu = adj[~m][:, m].sum()
        c = min(cross_uv, cross_vu)
        if objective == "sparsest":
            return c / (su * (n - su))
        return float(c)

    best = value(memb)
    improved = True
    while improved:
        improved = False
        order = rng.permutation(n)
        if objective == "bisection":
            # swap pairs to preserve balance
            us = [i for i in order if memb[i]]
            vs = [i for i in order if not memb[i]]
            for i in us:
                for j in vs:
                    memb[i], memb[j] = False, True
                    v = value(memb)
                    if v < best - 1e-12:
                        best = v
                        improved = True
                        break
                    memb[i], memb[j] = True, False
                if improved:
                    break
        else:
            for i in order:
                memb[i] = not memb[i]
                v = value(memb)
                if v < best - 1e-12:
                    best = v
                    improved = True
                else:
                    memb[i] = not memb[i]
    return best, memb


def _heuristic_cut(
    adj: np.ndarray, objective: str, restarts: int, seed: int
) -> Tuple[float, np.ndarray]:
    """Spectral seed + KL refinement with random restarts (the fallback
    above :data:`EXACT_CUT_LIMIT`)."""
    n = adj.shape[0]
    rng = np.random.default_rng(seed)
    sym = ((adj + adj.T) > 0).astype(np.float64)
    deg = sym.sum(axis=1)
    lap = np.diag(deg) - sym
    _, vecs = np.linalg.eigh(lap)
    fiedler = vecs[:, 1]

    seeds = []
    if objective == "bisection":
        order = np.argsort(fiedler)
        m = np.zeros(n, dtype=bool)
        m[order[: n // 2]] = True
        seeds.append(m)
        for _ in range(restarts):
            m = np.zeros(n, dtype=bool)
            m[rng.permutation(n)[: n // 2]] = True
            seeds.append(m)
    else:
        for thresh in np.quantile(fiedler, [0.25, 0.5, 0.75]):
            seeds.append(fiedler <= thresh)
        for _ in range(restarts):
            size = int(rng.integers(1, n))
            m = np.zeros(n, dtype=bool)
            m[rng.permutation(n)[:size]] = True
            seeds.append(m)

    best, best_m = np.inf, None
    for m in seeds:
        if m.all() or not m.any():
            continue
        v, refined = _kl_refine(adj, m, objective, rng)
        if v < best:
            best, best_m = v, refined
    return best, best_m


def _fiedler_vector(sym: np.ndarray, seed: int) -> np.ndarray:
    """Second Laplacian eigenvector, sparse when the size warrants it."""
    n = sym.shape[0]
    deg = sym.sum(axis=1)
    try:
        from scipy.sparse import csr_matrix as _sp_csr, diags
        from scipy.sparse.linalg import eigsh

        lap = diags(deg) - _sp_csr(sym)
        rng = np.random.default_rng(seed)
        _, vecs = eigsh(
            lap.tocsc(), k=2, sigma=-1e-3, which="LM",
            v0=rng.standard_normal(n),
        )
        return vecs[:, 1]
    except Exception:
        lap = np.diag(deg) - sym
        _, vecs = np.linalg.eigh(lap)
        return vecs[:, 1]


def _sweep_cut(
    adj: np.ndarray, objective: str, seed: int
) -> Tuple[float, np.ndarray]:
    """Fiedler sweep cut for large n (O(E log n) after the eigensolve).

    Orders nodes by the Fiedler vector and scans every prefix cut,
    maintaining both directed cross-edge counts incrementally as one
    node at a time moves into U.  ``objective`` selects the sparsest
    prefix (``"sparsest"``) or the balanced prefix (``"bisection"``).
    """
    n = adj.shape[0]
    sym = ((adj + adj.T) > 0).astype(np.float64)
    order = np.argsort(_fiedler_vector(sym, seed), kind="stable")
    memb = np.zeros(n, dtype=bool)
    cross_uv = 0  # directed links U -> V
    cross_vu = 0
    best = np.inf
    best_k = 1
    half = n // 2
    for k, x in enumerate(order[:-1], start=1):
        # moving x from V to U: U->x and x->U links stop crossing,
        # x's links to/from the remaining V start crossing (the x,x
        # diagonal is always zero, so no self-correction is needed).
        out_nbrs = adj[x]
        in_nbrs = adj[:, x]
        cross_uv += int(out_nbrs[~memb].sum()) - int(in_nbrs[memb].sum())
        cross_vu += int(in_nbrs[~memb].sum()) - int(out_nbrs[memb].sum())
        memb[x] = True
        c = min(cross_uv, cross_vu)
        if objective == "sparsest":
            v = c / (k * (n - k))
        elif k == half:
            v = float(c)
        else:
            continue
        if v < best:
            best, best_k = v, k
    best_memb = np.zeros(n, dtype=bool)
    best_memb[order[:best_k]] = True
    return float(best), best_memb


# ---------------------------------------------------------------------------
# Public cut metrics
# ---------------------------------------------------------------------------

@dataclass
class CutResult:
    """A cut and its value; ``members`` flags the U-side of the partition."""

    value: float
    members: np.ndarray
    exact: bool

    @property
    def partition(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        u = tuple(int(i) for i in np.nonzero(self.members)[0])
        v = tuple(int(i) for i in np.nonzero(~self.members)[0])
        return u, v


def sparsest_cut(
    topo: Topology, restarts: int = 32, seed: int = 0
) -> CutResult:
    """Uniform-demand sparsest cut ``min cross(U,V)/(|U||V|)``: exact up
    to :data:`EXACT_CUT_LIMIT` routers, heuristic above."""
    n = topo.n
    if n <= EXACT_CUT_LIMIT:
        val, memb, _, _ = _cut_scan(topo.adj)
        return CutResult(val, memb, True)
    if n > _KL_LIMIT:
        val, memb = _sweep_cut(topo.adj, "sparsest", seed)
    else:
        val, memb = _heuristic_cut(topo.adj, "sparsest", restarts, seed)
    return CutResult(val, memb, False)


def bisection_bandwidth(
    topo: Topology, restarts: int = 32, seed: int = 0
) -> int:
    """Minimum directed links crossing any balanced bipartition.

    Matches Table II's 'Bi. BW' column (reported instead of sparsest cut
    for comparability with prior work).  Requires even n.  Exact up to
    :data:`EXACT_CUT_LIMIT` routers, heuristic above.
    """
    n = topo.n
    if n % 2:
        raise ValueError("bisection undefined for odd router counts")
    if n <= EXACT_CUT_LIMIT:
        _, _, val, _ = _cut_scan(topo.adj)
    elif n > _KL_LIMIT:
        val, _ = _sweep_cut(topo.adj, "bisection", seed)
    else:
        val, _ = _heuristic_cut(topo.adj, "bisection", restarts, seed)
    return int(round(val))


# ---------------------------------------------------------------------------
# Throughput bounds (paper II-D / Fig. 7 solid lines)
# ---------------------------------------------------------------------------

def cut_throughput_bound(topo: Topology) -> float:
    """Saturation injection bound from the sparsest cut, flits/node/cycle.

    Under uniform all-to-all traffic at per-node injection rate ``x``,
    each of a node's ``n-1`` flows carries ``x/(n-1)``; the demand
    crossing a cut (U, V) is ``x * |U| * |V| / (n-1)`` against capacity
    ``cross(U, V)`` flits/cycle.  The bound is the minimum over cuts:
    ``x_max = (n-1) * sparsest_cut_value``.
    """
    return (topo.n - 1) * sparsest_cut(topo).value


def occupancy_throughput_bound(topo: Topology) -> float:
    """Link-occupancy saturation bound, flits/node/cycle.

    Every packet occupies ``avg_hops`` links on average under shortest-path
    routing; aggregate link capacity is ``num_directed_links`` flits/cycle,
    so per-node injection saturates at ``links / (n * avg_hops)``.  When
    channel loads are perfectly balanced this coincides with the routed
    max-channel-load bound ``(n-1) / max_load``.
    """
    h = average_hops(topo)
    return topo.num_directed_links / (topo.n * h)


def saturation_bound(topo: Topology) -> float:
    """The tighter of the cut and occupancy bounds (flits/node/cycle)."""
    return min(cut_throughput_bound(topo), occupancy_throughput_bound(topo))


# ---------------------------------------------------------------------------
# Link-length accounting (paper III-B and Fig. 9 wire analysis)
# ---------------------------------------------------------------------------

def link_length_histogram(topo: Topology) -> Dict[Tuple[int, int], int]:
    """Count of full-duplex link resources by (|dx|, |dy|) span.

    Asymmetric halves are paired arbitrarily for counting purposes; the
    histogram counts directed links / 2 per span bucket, so mixed-span
    pairings report half-integer totals rounded toward the longer span.
    """
    spans: Dict[Tuple[int, int], int] = {}
    for i, j in topo.directed_links:
        dx, dy = topo.layout.span(i, j)
        key = (max(dx, dy), min(dx, dy)) if dx < dy else (dx, dy)
        spans[key] = spans.get(key, 0) + 1
    return {k: v // 2 + (v % 2) for k, v in sorted(spans.items())}


def total_wire_length(topo: Topology) -> float:
    """Aggregate directed wire length in grid units (drives dynamic power)."""
    return float(
        sum(topo.layout.length(i, j) for i, j in topo.directed_links)
    )


@dataclass
class TopologyMetrics:
    """The Table II row for one topology."""

    name: str
    num_links: int
    diameter: int
    avg_hops: float
    bisection_bw: int
    sparsest_cut_value: float

    def as_row(self) -> Tuple:
        return (
            self.name,
            self.num_links,
            self.diameter,
            round(self.avg_hops, 2),
            self.bisection_bw,
            round(self.sparsest_cut_value, 4),
        )


def summarize(topo: Topology) -> TopologyMetrics:
    """Compute the full Table II metric row for a topology.

    Exact cuts of an even router count take both cut columns from one
    scan; otherwise each column comes from its own function.
    """
    if topo.n <= EXACT_CUT_LIMIT and topo.n % 2 == 0:
        sparsest, _, balanced, _ = _cut_scan(topo.adj)
        bisection = int(round(balanced))
    else:
        bisection = bisection_bandwidth(topo)
        sparsest = sparsest_cut(topo).value
    return TopologyMetrics(
        name=topo.name,
        num_links=topo.num_links,
        diameter=diameter(topo),
        avg_hops=average_hops(topo),
        bisection_bw=bisection,
        sparsest_cut_value=sparsest,
    )
