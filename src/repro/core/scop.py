"""SCOp: sparsest-cut-bandwidth-optimized topology generation (O2/C6/C7).

The paper constrains ``B`` against *every* bipartition (C6), noting the
20-router instance is "feasible in reasonable time frames" on Gurobi.
Materializing 2^(n-1) rows in a Python-built model is not; we use the
standard equivalent — **lazy constraint generation**:

1. solve with the cut constraints discovered so far (initially none, so
   ``B`` is only capped by ``b_cap``);
2. extract the incumbent topology and compute its *exact* sparsest cut;
3. if the model's claimed ``B`` exceeds the true value, the found cut is
   a violated C6 row — add it (both directions, per the paper's
   asymmetric-link rule) and re-solve.

At termination the incumbent satisfies every cut constraint the
exhaustive model would impose, so the fixpoint is the same; the tests
check this equivalence against explicit enumeration of every row on a
tiny instance (``tests/scop_oracle.py``).

A small latency tie-break (``hop_penalty * Dtotal``) is subtracted from
the objective so that, among equal-bandwidth optima, low-hop designs are
preferred (NS-SCOp's Table II rows have near-LatOp hop counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..milp import MAXIMIZE, quicksum
from ..topology import EXACT_CUT_LIMIT, sparsest_cut
from .netsmith import FormulationHandles, GenerationResult, NetSmithConfig, build_distance_formulation


@dataclass
class SCOpDiagnostics:
    """Per-iteration record of the lazy cut loop."""

    iterations: int
    cuts_added: int
    claimed_b: float
    true_b: float


def _cut_expression(handles: FormulationHandles, u_mask: np.ndarray, direction: str):
    """Linear expression for cross(U,V) (C6 numerator) in one direction."""
    terms = []
    for (i, j), var in handles.m_vars.items():
        if direction == "uv" and u_mask[i] and not u_mask[j]:
            terms.append(var)
        elif direction == "vu" and not u_mask[i] and u_mask[j]:
            terms.append(var)
    return quicksum(terms) if terms else quicksum([])


def generate_scop(
    config: NetSmithConfig,
    time_limit: Optional[float] = 60.0,
    backend: str = "scipy",
    max_iterations: int = 25,
    hop_penalty: float = 1e-4,
    tol: float = 1e-6,
    name: Optional[str] = None,
    initial_cuts: Optional[List[np.ndarray]] = None,
    **solve_kw,
) -> Tuple[GenerationResult, SCOpDiagnostics]:
    """Generate a sparsest-cut-optimized (SCOp) topology.

    ``time_limit`` applies per lazy iteration.  Returns the generation
    result and lazy-loop diagnostics.
    """
    if config.layout.n > EXACT_CUT_LIMIT:
        raise ValueError(
            "SCOp needs exact sparsest-cut separation; "
            f"n > {EXACT_CUT_LIMIT} is infeasible "
            "(the paper, likewise, reports SCOp only at 20 routers)"
        )
    handles = build_distance_formulation(config, sense=MAXIMIZE)
    model = handles.model
    n = config.layout.n

    # B: sparsest-cut bandwidth (continuous; values are ratios like 10/100).
    b_cap = config.radix  # loose upper bound: radix links per router pair side
    b = model.add_var("B", lb=0.0, ub=float(b_cap))
    model.set_objective(b - hop_penalty * handles.total_hops)

    # Seed cuts: the balanced horizontal/vertical grid splits plus caller's.
    seeds: List[np.ndarray] = []
    lay = config.layout
    memb = np.zeros(n, dtype=bool)
    for r in range(n):
        _, y = lay.position(r)
        memb[r] = y < lay.rows // 2
    seeds.append(memb.copy())
    if lay.cols % 2 == 0:
        memb = np.zeros(n, dtype=bool)
        for r in range(n):
            x, _ = lay.position(r)
            memb[r] = x < lay.cols // 2
        seeds.append(memb.copy())
    if initial_cuts:
        seeds.extend(np.asarray(c, dtype=bool) for c in initial_cuts)

    added: set = set()

    def add_cut(u_mask: np.ndarray) -> bool:
        key = tuple(u_mask.tolist())
        ckey = tuple((~u_mask).tolist())
        if key in added or ckey in added:
            return False
        added.add(key)
        su = int(u_mask.sum())
        sv = n - su
        scale = float(su * sv)
        model.add_constr(
            scale * b <= _cut_expression(handles, u_mask, "uv"),
            name=f"cut_uv[{len(added)}]",
        )
        model.add_constr(
            scale * b <= _cut_expression(handles, u_mask, "vu"),
            name=f"cut_vu[{len(added)}]",
        )
        return True

    for s in seeds:
        add_cut(s)

    cuts_added = len(added)
    last_res = None
    claimed = np.inf
    true_val = -np.inf
    for it in range(1, max_iterations + 1):
        res = model.solve(backend=backend, time_limit=time_limit, **solve_kw)
        if not res.ok:
            raise RuntimeError(f"SCOp iteration {it} failed ({res.status})")
        last_res = res
        topo = handles.extract_topology(res)
        claimed = res.value(b)
        cut = sparsest_cut(topo)
        true_val = cut.value
        if claimed <= true_val + tol:
            break
        if not add_cut(cut.members):
            # separation returned a known cut: numerical stall; accept.
            break
        cuts_added = len(added)
    else:
        it = max_iterations

    label = name or f"NS-SCOp-{config.link_class}"
    topo = handles.extract_topology(last_res, name=label)
    topo.check(radix=config.radix, link_class=config.link_class)
    gen = GenerationResult(
        topology=topo,
        objective=float(true_val),
        mip_gap=last_res.mip_gap,
        status=last_res.status,
        solve_time_s=last_res.solve_time_s,
        result=last_res,
    )
    diag = SCOpDiagnostics(
        iterations=it,
        cuts_added=cuts_added,
        claimed_b=float(claimed),
        true_b=float(true_val),
    )
    return gen, diag
