"""Heuristic (simulated-annealing) topology search over directed links.

This is both (a) the scalability fallback where the MILP's exhaustive
branch-and-bound becomes impractical within a benchmark's time budget
(48-router instances; the paper spends *days* of Gurobi time there), and
(b) an ablation baseline quantifying what the exact formulation buys over
local search on small instances.

Moves rewire one directed link at a time, preserving in/out radix and the
valid-link set; the cost is the exact objective (total hops for LatOp,
negated sparsest cut for SCOp) evaluated on the candidate topology.

The move loop, :func:`anneal_links`, is the one flat SA and the
hierarchical stitch (:mod:`repro.pipeline.hierarchy`) both run; the
stitch freezes the intra-cluster links.  It is incremental: the
adjacency matrix, in/out degree arrays, and the membership mask over
the candidate pool are maintained across steps (swap applied in place,
reverted on rejection) instead of being rebuilt from the link list per
move, candidate links are selected with one vectorized mask over the
pre-indexed pool, and the hop matrix is updated by
:class:`~repro.core.apsp.IncrementalAPSP`.  Candidate ordering and the
RNG call sequence match the original list-rebuilding implementation
exactly, so results are unchanged — only the per-step cost drops from
"rebuild everything" to an affected-slice update of the hop matrix (the
exact-objective part).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..topology import EXACT_CUT_LIMIT, Layout, Topology, sparsest_cut
from .apsp import IncrementalAPSP
from .netsmith import GenerationResult, NetSmithConfig

Link = Tuple[int, int]


def _total_hops(topo: Topology, weights: Optional[np.ndarray]) -> float:
    d = topo.hop_matrix()
    if not np.isfinite(d).all():
        return float("inf")
    if weights is None:
        return float(d.sum())
    return float((d * weights).sum())


def _initial_directed(
    layout: Layout,
    allowed: List[Tuple[int, int]],
    radix: int,
    rng: np.random.Generator,
) -> List[Tuple[int, int]]:
    """Random strongly-connected directed start: a bidirectional path
    through the grid snake order plus random fill."""
    n = layout.n
    snake = []
    for y in range(layout.rows):
        xs = range(layout.cols) if y % 2 == 0 else range(layout.cols - 1, -1, -1)
        snake.extend(layout.router_at(x, y) for x in xs)
    links = set()
    for k in range(n):
        a, b = snake[k], snake[(k + 1) % n]
        links.add((a, b))
        links.add((b, a))
    # The wrap link may be too long for the class; the bidirectional
    # snake path of unit links is strongly connected without it.
    links &= set(allowed)
    out_deg = np.zeros(n, dtype=int)
    in_deg = np.zeros(n, dtype=int)
    for a, b in links:
        out_deg[a] += 1
        in_deg[b] += 1
    pool = [l for l in allowed if l not in links]
    rng.shuffle(pool)
    for a, b in pool:
        if out_deg[a] < radix and in_deg[b] < radix:
            links.add((a, b))
            out_deg[a] += 1
            in_deg[b] += 1
    return sorted(links)


def anneal_links(
    n: int,
    frozen: Sequence[Link],
    movable: Sequence[Link],
    pool: Sequence[Link],
    radix: int,
    cost: Callable[[np.ndarray, np.ndarray], float],
    rng: np.random.Generator,
    steps: int,
    t0: float = 8.0,
    t1: float = 0.02,
    symmetric: bool = False,
) -> Tuple[List[Link], float]:
    """The SA move loop of flat and hierarchical generation.

    The topology is ``frozen + movable`` on ``n`` routers.  Each step
    drops a uniformly drawn ``movable`` link, adds a uniformly drawn
    absent ``pool`` link whose endpoints have radix headroom once the
    drop is made (and, if ``symmetric``, whose reverse link is present),
    and accepts by Metropolis on a geometric schedule from ``t0`` to
    ``t1``.  ``cost(dist, adj)`` scores the exact hop matrix that
    :class:`~repro.core.apsp.IncrementalAPSP` maintains across moves.
    A link outside ``pool`` can be dropped but never added back.

    Returns the best-cost set of non-frozen links seen, and its cost.
    """
    adj = np.zeros((n, n), dtype=bool)
    for a, b in frozen:
        adj[a, b] = True
    for a, b in movable:
        adj[a, b] = True
    out_deg = adj.sum(axis=1)
    in_deg = adj.sum(axis=0)
    pool_arr = np.asarray(pool, dtype=np.intp)
    p_src, p_dst = pool_arr[:, 0], pool_arr[:, 1]
    pool_idx = {l: k for k, l in enumerate(pool)}
    absent = ~adj[p_src, p_dst]

    tracker = IncrementalAPSP(adj)
    cur = list(movable)
    cur_cost = cost(tracker.dist, adj)
    best, best_cost = list(cur), cur_cost
    if not cur:
        return best, best_cost

    for step in range(steps):
        temp = t0 * (t1 / t0) ** (step / max(steps - 1, 1))
        drop_idx = int(rng.integers(len(cur)))
        da, db = dropped = cur[drop_idx]
        # Free the dropped link's ports; candidates keep `pool` order.
        out_deg[da] -= 1
        in_deg[db] -= 1
        ok = absent & (out_deg[p_src] < radix) & (in_deg[p_dst] < radix)
        if symmetric:
            ok &= adj[p_dst, p_src]  # reverse link present (pre-drop)
        cands = ok.nonzero()[0]
        if cands.size == 0:
            out_deg[da] += 1
            in_deg[db] += 1
            continue
        added_k = int(cands[int(rng.integers(cands.size))])
        aa, ab = added = pool[added_k]
        adj[da, db] = False
        adj[aa, ab] = True
        c = cost(tracker.candidate(adj, dropped, added), adj)
        if c < cur_cost or rng.random() < math.exp(
            -(c - cur_cost) / max(temp, 1e-9)
        ):
            tracker.commit()
            del cur[drop_idx]
            cur.append(added)
            cur_cost = c
            out_deg[aa] += 1
            in_deg[ab] += 1
            dropped_k = pool_idx.get(dropped)
            if dropped_k is not None:
                absent[dropped_k] = True
            absent[added_k] = False
            if c < best_cost:
                best, best_cost = list(cur), c
        else:
            adj[aa, ab] = False
            adj[da, db] = True
            out_deg[da] += 1
            in_deg[db] += 1
    return best, best_cost


def anneal_topology(
    config: NetSmithConfig,
    objective: str = "latency",
    steps: int = 8000,
    seed: int = 0,
    t0: float = 8.0,
    t1: float = 0.02,
    initial: Optional[Topology] = None,
) -> GenerationResult:
    """Simulated-annealing topology generation (NetSmith-SA).

    ``objective``: ``"latency"`` minimizes (weighted) total hops;
    ``"sparsest_cut"`` maximizes the exact sparsest-cut value with a small
    hop tie-break (mirroring :func:`repro.core.scop.generate_scop`).

    An explicit ``config.diameter_bound`` is honored (C8): excess
    diameter is penalized into infeasibility during the search and the
    final topology is checked, raising if the bound cannot be met —
    so an SA (or portfolio) design point never silently ships a
    bound-violating topology.  Without a bound the cost is exactly the
    historical unconstrained objective.

    Every link is movable (:func:`anneal_links`); an ``initial``
    topology may carry links outside the valid-link set (e.g. polished
    down from a longer link class), which moves can drop but never add.
    """
    layout = config.layout
    rng = np.random.default_rng(seed)
    allowed = layout.valid_links(config.link_class)
    radix = config.radix

    if objective == "sparsest_cut" and layout.n > EXACT_CUT_LIMIT:
        raise ValueError(
            f"sparsest-cut objective needs exact cuts (n <= {EXACT_CUT_LIMIT})"
        )

    # C8: with an explicit diameter bound, excess diameter is penalized
    # steeply enough to dominate any hop/cut difference, steering the
    # search into the feasible region (and the final result is checked).
    # An unset bound keeps the historical unconstrained cost exactly.
    diam_bound = config.diameter_bound
    _DIAM_PENALTY = 1e7

    def cost_from_dist(d: np.ndarray, adj: np.ndarray) -> float:
        total = float(d.sum())  # inf iff some pair is unreachable
        if total == math.inf:
            return total
        penalty = 0.0
        if diam_bound is not None:
            penalty = _DIAM_PENALTY * max(0.0, float(d.max()) - diam_bound)
        if objective == "latency":
            w = config.traffic_weights
            h = total if w is None else float((d * w).sum())
            return h + penalty
        b = sparsest_cut(Topology.from_adjacency(layout, adj)).value
        return -b * 1e4 + 1e-4 * total + penalty

    if initial is not None:
        links = sorted(initial.directed_links)
    else:
        links = _initial_directed(layout, allowed, radix, rng)
    best, _ = anneal_links(
        layout.n, (), links, allowed, radix, cost_from_dist, rng, steps,
        t0=t0, t1=t1, symmetric=config.symmetric,
    )

    suffix = "LatOp" if objective == "latency" else "SCOp"
    topo = Topology(
        layout,
        best,
        name=f"NS-SA-{suffix}-{config.link_class}",
        link_class=config.link_class,
    )
    topo.check(radix=radix, link_class=config.link_class)
    if diam_bound is not None:
        d = topo.hop_matrix()
        if float(d.max()) > diam_bound:
            raise ValueError(
                f"{topo.name}: annealing could not satisfy diameter bound "
                f"{diam_bound} (reached {int(d.max())}); raise `steps` or "
                "relax the bound"
            )
    obj_val = (
        _total_hops(topo, config.traffic_weights)
        if objective == "latency"
        else sparsest_cut(topo).value
    )
    return GenerationResult(
        topology=topo,
        objective=float(obj_val),
        mip_gap=float("nan"),
        status="heuristic",
        solve_time_s=0.0,
        result=None,
    )
