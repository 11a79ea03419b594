"""NetSmith topology generation as MILP (paper Section III, Table I).

The formulation follows Table I:

* ``M(i,j)`` — binary connectivity map over the valid-link set ``L`` (C3);
* ``O(k,j)`` — one-hop distance, the exact affine encoding
  ``BIG - (BIG-1) * M(k,j)`` of the paper's if-then C4
  (:func:`~repro.milp.affine_if_then`);
* ``D(i,j)`` — integer shortest-path distances, constrained to equal
  ``min_k (D(i,k) + O(k,j))`` by the triangle-inequality construction C5
  (upper bounds for every candidate predecessor ``k`` plus big-M
  attainment indicators — the encoding behind Gurobi's min general
  constraint, :func:`~repro.milp.add_min_equality`);
* radix (C2), self-adjacency (C1), optional diameter bound (C8) and
  optional link symmetry (C9).

Objectives: **LatOp** minimizes total hops (O1); **SCOp** maximizes the
sparsest-cut bandwidth (O2/C6/C7) via lazy cut generation — see
:mod:`repro.core.scop`; pattern-weighted variants (ShufOpt) minimize a
traffic-weighted hop sum (Section V-E).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..milp import (
    BINARY,
    INTEGER,
    MAXIMIZE,
    MINIMIZE,
    Model,
    SolveResult,
    Var,
    add_min_equality,
    affine_if_then,
    quicksum,
)
from ..topology import Layout, Topology

#: Default diameter bounds per link class when the caller does not supply
#: one; generous enough to include every Table II topology.
_DEFAULT_DIAMETER = {"small": 8, "medium": 7, "large": 6}


@dataclass
class NetSmithConfig:
    """Inputs to NetSmith's formulation (paper Section III intro).

    ``traffic_weights`` biases the latency objective toward a traffic
    matrix (uniform all-to-all when ``None``); this is how the ShufOpt
    topologies of Section V-E are produced.
    """

    layout: Layout
    link_class: str = "medium"
    radix: int = 4
    symmetric: bool = False  # C9; paper uses asymmetric links by default
    diameter_bound: Optional[int] = None  # C8
    traffic_weights: Optional[np.ndarray] = None
    min_links_per_router: int = 1  # connectivity strengthening cut

    def resolved_diameter(self) -> int:
        if self.diameter_bound is not None:
            return int(self.diameter_bound)
        base = _DEFAULT_DIAMETER.get(self.link_class, 8)
        # larger grids need more headroom
        scale = max(self.layout.rows, self.layout.cols) / 5.0
        return max(base, int(np.ceil(base * scale)))

    def validate(self) -> None:
        """Reject configurations no solver could satisfy.

        Arbitrary grids are first-class, so failure modes that used to
        surface as preset-table KeyErrors must be caught here instead:
        a link class that strands a router, or a radix of zero.
        """
        if self.link_class not in _DEFAULT_DIAMETER:
            raise ValueError(
                f"unknown link class {self.link_class!r} "
                f"(expected one of {sorted(_DEFAULT_DIAMETER)})"
            )
        if self.radix < 1:
            raise ValueError(f"radix must be >= 1, got {self.radix}")
        if self.layout.n < 2:
            raise ValueError(f"layout {self.layout} has fewer than 2 routers")
        if self.min_links_per_router > self.radix:
            raise ValueError(
                f"min_links_per_router {self.min_links_per_router} exceeds "
                f"radix {self.radix}"
            )

    # -- pure-data codecs (runner payloads / cache keys) --------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-clean encoding (`traffic_weights` expanded to lists)."""
        return {
            "layout": [self.layout.rows, self.layout.cols],
            "link_class": self.link_class,
            "radix": int(self.radix),
            "symmetric": bool(self.symmetric),
            "diameter_bound": (
                None if self.diameter_bound is None else int(self.diameter_bound)
            ),
            "traffic_weights": (
                None
                if self.traffic_weights is None
                else np.asarray(self.traffic_weights, dtype=float).tolist()
            ),
            "min_links_per_router": int(self.min_links_per_router),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "NetSmithConfig":
        rows, cols = doc["layout"]
        weights = doc.get("traffic_weights")
        return cls(
            layout=Layout(rows=int(rows), cols=int(cols)),
            link_class=str(doc["link_class"]),
            radix=int(doc.get("radix", 4)),
            symmetric=bool(doc.get("symmetric", False)),
            diameter_bound=(
                None if doc.get("diameter_bound") is None
                else int(doc["diameter_bound"])
            ),
            traffic_weights=(
                None if weights is None else np.asarray(weights, dtype=float)
            ),
            min_links_per_router=int(doc.get("min_links_per_router", 1)),
        )


@dataclass
class FormulationHandles:
    """Variable handles exposed for objective construction and extraction."""

    model: Model
    config: NetSmithConfig
    links: List[Tuple[int, int]]
    m_vars: Dict[Tuple[int, int], Var]
    d_vars: Dict[Tuple[int, int], Var]
    total_hops: object  # LinExpr

    def extract_topology(self, result: SolveResult, name: str = "NetSmith") -> Topology:
        """Read the connectivity map out of a solution."""
        if not result.ok:
            raise ValueError(f"no solution to extract (status={result.status})")
        links = [
            (i, j) for (i, j), v in self.m_vars.items() if result.value(v) > 0.5
        ]
        topo = Topology(
            self.config.layout, links, name=name, link_class=self.config.link_class
        )
        return topo


def build_distance_formulation(config: NetSmithConfig, sense: str = MINIMIZE) -> FormulationHandles:
    """Construct the shared C1–C5/C8/C9 core of every NetSmith variant."""
    layout = config.layout
    n = layout.n
    diam = config.resolved_diameter()
    big_o = diam + 1  # "infinity" for the one-hop distance (C4)
    big_m = 2 * diam + 2  # relaxation constant for attainment lower bounds

    model = Model(f"netsmith-{config.link_class}", sense=sense)
    links = layout.valid_links(config.link_class)
    link_set = set(links)

    m_vars: Dict[Tuple[int, int], Var] = {
        (i, j): model.add_binary(f"M[{i},{j}]") for (i, j) in links
    }

    # C2: router radix, both directions.
    for i in range(n):
        out = [m_vars[(i, j)] for j in range(n) if (i, j) in link_set]
        inc = [m_vars[(j, i)] for j in range(n) if (j, i) in link_set]
        if out:
            model.add_constr(quicksum(out) <= config.radix, name=f"radix_out[{i}]")
            model.add_constr(
                quicksum(out) >= config.min_links_per_router, name=f"deg_out[{i}]"
            )
        if inc:
            model.add_constr(quicksum(inc) <= config.radix, name=f"radix_in[{i}]")
            model.add_constr(
                quicksum(inc) >= config.min_links_per_router, name=f"deg_in[{i}]"
            )

    # C9 (optional): symmetric links.
    if config.symmetric:
        for (i, j) in links:
            if i < j and (j, i) in link_set:
                model.add_constr(
                    m_vars[(i, j)] == m_vars[(j, i)], name=f"sym[{i},{j}]"
                )

    # D variables with C8 diameter bound; D(i,i) = 0 by omission (C1).
    d_vars: Dict[Tuple[int, int], Var] = {}
    for i in range(n):
        for j in range(n):
            if i != j:
                d_vars[(i, j)] = model.add_integer(f"D[{i},{j}]", lb=1, ub=diam)

    def one_hop(k: int, j: int):
        """C4: O(k,j) = 1 if M(k,j) else BIG."""
        return affine_if_then(m_vars[(k, j)], then_value=1, else_value=big_o)

    # C5: D(i,j) = min over predecessors k of D(i,k) + O(k,j), per
    # ordered pair (D(i,i) = 0 makes k == i the direct-link term).
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            dij = d_vars[(i, j)]
            preds = [k for k in range(n) if (k, j) in link_set and k != j]
            if not preds:
                raise ValueError(
                    f"router {j} has no valid incoming links under class "
                    f"{config.link_class!r}"
                )
            terms = [
                one_hop(i, j) if k == i else d_vars[(i, k)] + one_hop(k, j)
                for k in preds
            ]
            add_min_equality(model, dij, terms, big_m, name=f"tri[{i},{j}]")
            # Strengthening: without a direct link, the distance is >= 2.
            if (i, j) in link_set:
                model.add_constr(dij >= 2 - m_vars[(i, j)], name=f"cut2[{i},{j}]")
            else:
                model.add_constr(dij >= 2, name=f"cut2[{i},{j}]")

    weights = config.traffic_weights
    if weights is None:
        total = quicksum(d_vars.values())
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n, n):
            raise ValueError(f"traffic_weights must be {n}x{n}")
        total = quicksum(
            w * d_vars[(i, j)]
            for (i, j), w in np.ndenumerate(weights)
            if i != j and w > 0
        )

    return FormulationHandles(
        model=model,
        config=config,
        links=links,
        m_vars=m_vars,
        d_vars=d_vars,
        total_hops=total,
    )


@dataclass
class GenerationResult:
    """A generated topology plus solve diagnostics."""

    topology: Topology
    objective: float
    mip_gap: float
    status: str
    solve_time_s: float
    result: SolveResult = field(repr=False, default=None)

    @property
    def proven_optimal(self) -> bool:
        return self.status == "optimal"


def generate_latop(
    config: NetSmithConfig,
    time_limit: Optional[float] = 60.0,
    backend: str = "scipy",
    name: Optional[str] = None,
    **solve_kw,
) -> GenerationResult:
    """Generate a latency-optimized (LatOp) topology (objective O1).

    Minimizes total pair distance ``sum_{s,d} D(s,d)``; with
    ``config.traffic_weights`` set, minimizes the weighted sum instead
    (the ShufOpt mode of Section V-E).
    """
    handles = build_distance_formulation(config, sense=MINIMIZE)
    handles.model.set_objective(handles.total_hops)
    res = handles.model.solve(backend=backend, time_limit=time_limit, **solve_kw)
    if not res.ok:
        raise RuntimeError(
            f"LatOp solve failed ({res.status}); raise the time limit"
        )
    label = name or f"NS-LatOp-{config.link_class}"
    topo = handles.extract_topology(res, name=label)
    topo.check(radix=config.radix, link_class=config.link_class)
    return GenerationResult(
        topology=topo,
        objective=float(res.objective),
        mip_gap=res.mip_gap,
        status=res.status,
        solve_time_s=res.solve_time_s,
        result=res,
    )


def shuffle_weights(layout: Layout, uniform_floor: float = 0.05) -> np.ndarray:
    """Traffic weights for gem5's *shuffle* pattern (paper Section V-E).

    ``dest = 2*src`` for the low half, ``(2*src + 1) mod n`` for the high
    half.  A small uniform floor keeps all-pairs distances meaningful so
    the generated network still serves background traffic.
    """
    n = layout.n
    w = np.full((n, n), uniform_floor)
    np.fill_diagonal(w, 0.0)
    for src in range(n):
        if src < n // 2:
            dest = 2 * src
        else:
            dest = (2 * src + 1) % n
        if dest != src:
            w[src, dest] += 1.0
    return w


def generate_shufopt(
    config: NetSmithConfig,
    time_limit: Optional[float] = 60.0,
    backend: str = "scipy",
    **solve_kw,
) -> GenerationResult:
    """Generate the shuffle-pattern-optimized topology ("NS ShufOpt")."""
    cfg = NetSmithConfig(
        layout=config.layout,
        link_class=config.link_class,
        radix=config.radix,
        symmetric=config.symmetric,
        diameter_bound=config.diameter_bound,
        traffic_weights=shuffle_weights(config.layout),
        min_links_per_router=config.min_links_per_router,
    )
    out = generate_latop(
        cfg,
        time_limit=time_limit,
        backend=backend,
        name=f"NS-ShufOpt-{config.link_class}",
        **solve_kw,
    )
    return out
