"""Exhaustive C6: every sparsest-cut row, materialized up front.

The paper constrains SCOp's ``B`` against every bipartition (C6);
:func:`repro.core.scop.generate_scop` adds those rows lazily, one
violated cut at a time.  Materializing all ``2**(n-1) - 1`` of them is
only sensible on tiny instances, where it is the reference the lazy
loop must match.  Test-only.
"""

from __future__ import annotations

from repro.core.netsmith import FormulationHandles
from repro.milp import quicksum


def exhaustive_cut_constraints(
    handles: FormulationHandles, b_var, max_n: int = 12
) -> int:
    """Add both directions' C6 rows for every bipartition with node 0 in
    U (mask bit k puts node k+1 in U); returns the number of cuts added."""
    n = handles.config.layout.n
    if n > max_n:
        raise ValueError(f"exhaustive C6 enumeration capped at n={max_n}")
    count = 0
    for mask in range(1 << (n - 1)):
        in_u = [True] + [bool((mask >> (k - 1)) & 1) for k in range(1, n)]
        su = sum(in_u)
        sv = n - su
        if sv == 0:
            continue
        scale = float(su * sv)
        uv = quicksum(
            v for (i, j), v in handles.m_vars.items() if in_u[i] and not in_u[j]
        )
        vu = quicksum(
            v for (i, j), v in handles.m_vars.items() if in_u[j] and not in_u[i]
        )
        handles.model.add_constr(scale * b_var <= uv)
        handles.model.add_constr(scale * b_var <= vu)
        count += 1
    return count
