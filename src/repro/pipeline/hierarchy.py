"""Hierarchical generation: exact clusters + annealed stitching.

The exact formulation tops out in the low tens of routers and flat SA
needs ever more steps as the design space grows, so 256- and 1024-router
points are generated hierarchically:

1. the grid is tiled into identical ``cluster_rows x cluster_cols``
   clusters (auto-chosen divisors near 4 per side when unset);
2. one *representative* cluster is solved with the exact LatOp
   formulation at ``radix - 1`` — reserving one in- and one out-port on
   every router for inter-cluster wiring — falling back to annealing
   when the exact solve fails within budget;
3. the solved cluster is replicated by translation (valid-link sets are
   translation-invariant, so every copy is feasible), and adjacent
   clusters are seeded with bidirectional links between their
   mid-border routers, which makes the cluster graph — and therefore
   the whole network — strongly connected;
4. a stitching SA refines only the inter-cluster links (intra-cluster
   links are frozen) with flat SA's move loop,
   :func:`~repro.core.search.anneal_links`, so each move costs an
   affected-slice update of the hop matrix instead of a full APSP.

The result is a :class:`~repro.core.netsmith.GenerationResult` with
status ``"hierarchical"``; the topology is named
``NS-HIER-LatOp-<class>``.
"""

from __future__ import annotations

import math
import time
from typing import List, Tuple, TYPE_CHECKING

import numpy as np

from ..core.netsmith import GenerationResult, NetSmithConfig
from ..core.search import anneal_links, anneal_topology
from ..topology import Layout, Topology

if TYPE_CHECKING:  # pragma: no cover
    from .design import DesignPoint

#: Auto cluster sizing aims near this many routers per cluster side —
#: big enough that the exact solver shapes real structure, small enough
#: that the cluster solve stays in the exact-tractable regime.
_PREFERRED_SIDE = 4
_MAX_SIDE = 8

Link = Tuple[int, int]


def _auto_side(extent: int, axis: str) -> int:
    """The divisor of ``extent`` in [2, 8] closest to the preferred side
    (ties to the larger), so clusters tile the grid exactly."""
    divisors = [d for d in range(2, _MAX_SIDE + 1) if extent % d == 0]
    if not divisors:
        raise ValueError(
            f"no cluster {axis} in [2, {_MAX_SIDE}] divides {extent}; pass "
            f"cluster_rows/cluster_cols explicitly"
        )
    return min(divisors, key=lambda d: (abs(d - _PREFERRED_SIDE), -d))


def cluster_shape(point: "DesignPoint") -> Tuple[int, int]:
    """Resolved ``(cluster_rows, cluster_cols)`` for a hierarchical point.

    Explicit values must divide the grid; unset values are auto-chosen.
    """
    cr = point.cluster_rows
    cc = point.cluster_cols
    if cr is None:
        cr = _auto_side(point.rows, "rows")
    elif not (2 <= cr <= point.rows and point.rows % cr == 0):
        raise ValueError(
            f"cluster_rows={cr} must divide rows={point.rows} (and be >= 2)"
        )
    if cc is None:
        cc = _auto_side(point.cols, "cols")
    elif not (2 <= cc <= point.cols and point.cols % cc == 0):
        raise ValueError(
            f"cluster_cols={cc} must divide cols={point.cols} (and be >= 2)"
        )
    if (point.rows // cr) * (point.cols // cc) < 2:
        raise ValueError(
            f"hierarchical generation needs at least 2 clusters; "
            f"{point.rows}x{point.cols} with {cr}x{cc} clusters has one — "
            "use a flat strategy"
        )
    return cr, cc


def _solve_cluster(
    point: "DesignPoint", cluster_layout: Layout
) -> GenerationResult:
    """Solve the representative cluster at ``radix - 1``.

    Exact LatOp first; annealing fallback when the solver cannot
    produce an incumbent within the point's budget (large clusters or
    tight limits), so a hierarchical point degrades rather than fails.
    """
    from ..core.netsmith import generate_latop

    cfg = NetSmithConfig(
        layout=cluster_layout,
        link_class=point.link_class,
        radix=point.radix - 1,
    )
    try:
        return generate_latop(
            cfg, time_limit=point.time_limit, backend=point.backend
        )
    except (RuntimeError, ValueError):
        return anneal_topology(
            cfg, objective="latency", steps=point.sa_steps, seed=point.seed
        )


def _replicate(
    layout: Layout,
    cluster: Topology,
    kr: int,
    kc: int,
) -> List[Link]:
    """Translate the representative cluster's links to every tile."""
    cl = cluster.layout
    links: List[Link] = []
    for gy in range(kr):
        for gx in range(kc):
            ox, oy = gx * cl.cols, gy * cl.rows
            for a, b in cluster.directed_links:
                ax, ay = cl.position(a)
                bx, by = cl.position(b)
                links.append((
                    layout.router_at(ox + ax, oy + ay),
                    layout.router_at(ox + bx, oy + by),
                ))
    return links


def _seed_cross_links(
    layout: Layout,
    cr: int,
    cc: int,
    kr: int,
    kc: int,
    out_deg: np.ndarray,
    in_deg: np.ndarray,
    radix: int,
) -> List[Link]:
    """Bidirectional mid-border links between adjacent clusters.

    Unit-length (so valid in every link class) and placed on the middle
    one-or-two border routers, which the ``radix - 1`` cluster solve
    left with port headroom; the resulting cluster graph is the (k_r x
    k_c) grid graph, hence connected, hence the network is strongly
    connected before stitching begins.
    """
    links: List[Link] = []

    def add_pair(a: int, b: int) -> None:
        if out_deg[a] < radix and in_deg[b] < radix:
            links.append((a, b))
            out_deg[a] += 1
            in_deg[b] += 1
        if out_deg[b] < radix and in_deg[a] < radix:
            links.append((b, a))
            out_deg[b] += 1
            in_deg[a] += 1

    for gy in range(kr):
        for gx in range(kc):
            if gx + 1 < kc:  # horizontal neighbor
                ax = gx * cc + cc - 1
                bx = (gx + 1) * cc
                for ry in sorted({(cr - 1) // 2, cr // 2}):
                    y = gy * cr + ry
                    add_pair(layout.router_at(ax, y), layout.router_at(bx, y))
            if gy + 1 < kr:  # vertical neighbor
                ay = gy * cr + cr - 1
                by = (gy + 1) * cr
                for rx in sorted({(cc - 1) // 2, cc // 2}):
                    x = gx * cc + rx
                    add_pair(layout.router_at(x, ay), layout.router_at(x, by))
    return links


def _hops_cost(dist: np.ndarray, adj: np.ndarray) -> float:
    """The stitch's cost: total hops (``inf`` if any pair is cut off)."""
    return float(dist.sum())


def _stitch(
    layout: Layout,
    intra: List[Link],
    cross: List[Link],
    allowed_cross: List[Link],
    radix: int,
    steps: int,
    seed: int,
) -> Tuple[List[Link], float]:
    """Anneal the inter-cluster links only; returns (links, total hops).

    The move loop is :func:`~repro.core.search.anneal_links`, the one
    flat SA also runs, with the intra-cluster links frozen: only cross
    links are dropped, and only valid cross links are added.
    """
    return anneal_links(
        layout.n, intra, cross, allowed_cross, radix, _hops_cost,
        np.random.default_rng(seed), steps,
    )


def generate_hierarchical(point: "DesignPoint") -> GenerationResult:
    """Generate a hierarchical topology for a large design point."""
    started = time.perf_counter()
    cr, cc = cluster_shape(point)
    layout = point.layout
    kr, kc = point.rows // cr, point.cols // cc

    cluster = _solve_cluster(point, Layout(rows=cr, cols=cc))
    intra = _replicate(layout, cluster.topology, kr, kc)

    n = layout.n
    out_deg = np.zeros(n, dtype=np.intp)
    in_deg = np.zeros(n, dtype=np.intp)
    for a, b in intra:
        out_deg[a] += 1
        in_deg[b] += 1
    cross = _seed_cross_links(
        layout, cr, cc, kr, kc, out_deg, in_deg, point.radix
    )

    def cluster_of(r: int) -> Tuple[int, int]:
        x, y = layout.position(r)
        return (y // cr, x // cc)

    allowed_cross = [
        (a, b)
        for a, b in layout.valid_links(point.link_class)
        if cluster_of(a) != cluster_of(b)
    ]
    stitched, total_hops = _stitch(
        layout,
        intra,
        cross,
        allowed_cross,
        point.radix,
        steps=point.sa_steps,
        seed=point.seed,
    )
    if not math.isfinite(total_hops):
        raise RuntimeError(
            f"hierarchical stitch left {point.rows}x{point.cols} "
            "disconnected; raise sa_steps or radix"
        )

    topo = Topology(
        layout,
        intra + stitched,
        name=f"NS-HIER-LatOp-{point.link_class}",
        link_class=point.link_class,
    )
    topo.check(radix=point.radix, link_class=point.link_class)
    return GenerationResult(
        topology=topo,
        objective=float(total_hops),
        mip_gap=float("nan"),
        status="hierarchical",
        solve_time_s=time.perf_counter() - started,
        result=None,
    )
