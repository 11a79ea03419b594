"""MILP model container and solve orchestration.

:class:`Model` is a thin, Gurobi-flavoured modeling object.  It accumulates
variables and linear constraints, and dispatches to one of two backends:

* ``"scipy"`` — :func:`scipy.optimize.milp` (HiGHS), the fast default;
* ``"bnb"`` — :mod:`repro.milp.branch_and_bound`, our own LP-relaxation
  branch-and-bound, which exposes incumbent/bound progress callbacks used
  to regenerate the paper's Fig. 5 solver-progress curves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
from scipy import sparse

from .expressions import (
    BINARY,
    CONTINUOUS,
    EQ,
    GE,
    INTEGER,
    LE,
    Constraint,
    LinExpr,
    Var,
    quicksum,
)

MINIMIZE = "min"
MAXIMIZE = "max"

#: Solve status codes.
OPTIMAL = "optimal"
FEASIBLE = "feasible"  # time limit hit with an incumbent
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NO_SOLUTION = "no_solution"  # time limit hit with no incumbent


@dataclass
class ProgressEvent:
    """One sample of solver progress (for objective-bounds-gap curves)."""

    time_s: float
    incumbent: Optional[float]
    bound: float
    gap: float
    nodes: int


@dataclass
class SolveResult:
    """Outcome of :meth:`Model.solve`."""

    status: str
    objective: Optional[float]
    x: Optional[np.ndarray]
    mip_gap: float
    solve_time_s: float
    progress: List[ProgressEvent] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE)

    def value(self, item) -> float:
        """Value of a :class:`Var` or :class:`LinExpr` in the solution."""
        if self.x is None:
            raise ValueError("no solution available")
        if isinstance(item, Var):
            return float(self.x[item.index])
        if isinstance(item, LinExpr):
            return float(item.value(self.x))
        raise TypeError(f"cannot evaluate {type(item)!r}")


class Model:
    """A mixed-integer linear program under construction."""

    def __init__(self, name: str = "model", sense: str = MINIMIZE):
        self.name = name
        self.sense = sense
        self._vars: List[Var] = []
        self._constraints: List[Constraint] = []
        self._objective: LinExpr = LinExpr()
        #: callback(ProgressEvent) invoked by backends that support it
        self.progress_callback: Optional[Callable[[ProgressEvent], None]] = None

    # -- variables ------------------------------------------------------------
    def add_var(
        self,
        name: str = "",
        lb: float = 0.0,
        ub: float = float("inf"),
        domain: str = CONTINUOUS,
    ) -> Var:
        idx = len(self._vars)
        if domain == BINARY:
            lb, ub = max(lb, 0.0), min(ub, 1.0)
        v = Var(index=idx, name=name or f"x{idx}", domain=domain, lb=lb, ub=ub)
        self._vars.append(v)
        return v

    def add_binary(self, name: str = "") -> Var:
        return self.add_var(name=name, lb=0.0, ub=1.0, domain=BINARY)

    def add_integer(self, name: str = "", lb: float = 0.0, ub: float = float("inf")) -> Var:
        return self.add_var(name=name, lb=lb, ub=ub, domain=INTEGER)

    def add_vars(self, count: int, prefix: str = "x", **kw) -> List[Var]:
        return [self.add_var(name=f"{prefix}[{i}]", **kw) for i in range(count)]

    @property
    def num_vars(self) -> int:
        return len(self._vars)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def variables(self) -> Sequence[Var]:
        return tuple(self._vars)

    # -- constraints ------------------------------------------------------------
    def add_constr(self, constr: Constraint, name: str = "") -> Constraint:
        if not isinstance(constr, Constraint):
            raise TypeError(
                "expected a Constraint (did you compare two expressions?), "
                f"got {type(constr)!r}"
            )
        if name:
            constr.name = name
        self._constraints.append(constr)
        return constr

    # -- objective ---------------------------------------------------------------
    def set_objective(self, expr, sense: Optional[str] = None) -> None:
        if isinstance(expr, Var):
            expr = expr.expr()
        self._objective = expr
        if sense is not None:
            self.sense = sense

    # -- matrix assembly -----------------------------------------------------------
    def to_arrays(self):
        """Build ``(c, c0, A, lb_con, ub_con, integrality, lb_var, ub_var)``.

        ``A`` is a CSR sparse matrix; senses are folded into per-row bounds
        as HiGHS expects.  The objective is always returned in *minimize*
        orientation (negated if the model maximizes) with constant ``c0``.
        """
        n = len(self._vars)
        c = np.zeros(n)
        for i, coef in self._objective.coeffs.items():
            c[i] = coef
        c0 = self._objective.const
        if self.sense == MAXIMIZE:
            c = -c
            c0 = -c0

        rows, cols, data = [], [], []
        lo = np.empty(len(self._constraints))
        hi = np.empty(len(self._constraints))
        for r, con in enumerate(self._constraints):
            l, u = con.bounds()
            lo[r], hi[r] = l, u
            for i, coef in con.expr.coeffs.items():
                rows.append(r)
                cols.append(i)
                data.append(coef)
        A = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(self._constraints), n)
        )

        integrality = np.array(
            [0 if v.domain == CONTINUOUS else 1 for v in self._vars], dtype=np.uint8
        )
        lb_var = np.array([v.lb for v in self._vars])
        ub_var = np.array([v.ub for v in self._vars])
        return c, c0, A, lo, hi, integrality, lb_var, ub_var

    # -- solve ---------------------------------------------------------------------
    def solve(
        self,
        backend: str = "scipy",
        time_limit: Optional[float] = None,
        mip_rel_gap: float = 1e-6,
        **backend_kw,
    ) -> SolveResult:
        """Solve the model and return a :class:`SolveResult`.

        Objective values in the result are reported in the model's own
        orientation (i.e. maximization objectives come back un-negated).
        """
        start = time.monotonic()
        if backend == "scipy":
            from .scipy_backend import solve_scipy

            result = solve_scipy(
                self, time_limit=time_limit, mip_rel_gap=mip_rel_gap, **backend_kw
            )
        elif backend == "bnb":
            from .branch_and_bound import solve_bnb

            result = solve_bnb(
                self, time_limit=time_limit, mip_rel_gap=mip_rel_gap, **backend_kw
            )
        else:
            raise ValueError(f"unknown backend {backend!r}")
        result.solve_time_s = time.monotonic() - start
        return result

    # -- export ----------------------------------------------------------------------
    def to_lp_string(self) -> str:
        """Serialize in CPLEX LP format (debugging / external solvers).

        Covers the subset this layer produces: linear objective, linear
        constraints, bounds, binaries and general integers.
        """
        lines = ["\\ " + self.name, ""]
        lines.append("Minimize" if self.sense == MINIMIZE else "Maximize")

        def expr_str(e: LinExpr) -> str:
            terms = []
            for idx in sorted(e.coeffs):
                c = e.coeffs[idx]
                name = self._vars[idx].name.replace("[", "(").replace("]", ")").replace(",", "_").replace(" ", "")
                sign = "+" if c >= 0 else "-"
                terms.append(f"{sign} {abs(c):g} {name}")
            return " ".join(terms) if terms else "0"

        lines.append(f" obj: {expr_str(self._objective)}")
        lines.append("Subject To")
        for k, con in enumerate(self._constraints):
            lo, hi = con.bounds()
            body = expr_str(con.expr)
            cname = (con.name or f"c{k}").replace("[", "(").replace("]", ")").replace(",", "_").replace(" ", "")
            if lo == hi:
                lines.append(f" {cname}: {body} = {lo:g}")
            elif hi != float("inf"):
                lines.append(f" {cname}: {body} <= {hi:g}")
            else:
                lines.append(f" {cname}: {body} >= {lo:g}")
        lines.append("Bounds")
        for v in self._vars:
            name = v.name.replace("[", "(").replace("]", ")").replace(",", "_").replace(" ", "")
            ub = "+inf" if v.ub == float("inf") else f"{v.ub:g}"
            lines.append(f" {v.lb:g} <= {name} <= {ub}")
        bins = [v for v in self._vars if v.domain == BINARY]
        ints = [v for v in self._vars if v.domain == INTEGER]
        if bins:
            lines.append("Binaries")
            lines.append(" " + " ".join(
                v.name.replace("[", "(").replace("]", ")").replace(",", "_").replace(" ", "") for v in bins
            ))
        if ints:
            lines.append("Generals")
            lines.append(" " + " ".join(
                v.name.replace("[", "(").replace("]", ")").replace(",", "_").replace(" ", "") for v in ints
            ))
        lines.append("End")
        return "\n".join(lines)

    def write_lp(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_lp_string())

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Model({self.name!r}, {self.sense}, vars={self.num_vars}, "
            f"constrs={self.num_constraints})"
        )


__all__ = [
    "Model",
    "SolveResult",
    "ProgressEvent",
    "MINIMIZE",
    "MAXIMIZE",
    "OPTIMAL",
    "FEASIBLE",
    "INFEASIBLE",
    "UNBOUNDED",
    "NO_SOLUTION",
    "quicksum",
]
