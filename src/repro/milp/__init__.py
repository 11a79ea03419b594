"""MILP modeling layer and solvers (the repo's Gurobi substitute).

Public surface::

    from repro.milp import Model, quicksum, BINARY, INTEGER, CONTINUOUS

    m = Model("example")
    x = m.add_binary("x")
    y = m.add_integer("y", ub=10)
    m.add_constr(x + 2 * y <= 7)
    m.set_objective(-(x + y))          # minimize
    res = m.solve(backend="scipy")     # or backend="bnb" for progress curves
"""

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
from .linearize import add_min_equality, affine_if_then
from .model import (
    FEASIBLE,
    INFEASIBLE,
    MAXIMIZE,
    MINIMIZE,
    NO_SOLUTION,
    OPTIMAL,
    UNBOUNDED,
    Model,
    ProgressEvent,
    SolveResult,
)

__all__ = [
    "Model",
    "SolveResult",
    "ProgressEvent",
    "Var",
    "LinExpr",
    "Constraint",
    "quicksum",
    "BINARY",
    "INTEGER",
    "CONTINUOUS",
    "LE",
    "GE",
    "EQ",
    "MINIMIZE",
    "MAXIMIZE",
    "OPTIMAL",
    "FEASIBLE",
    "INFEASIBLE",
    "UNBOUNDED",
    "NO_SOLUTION",
    "add_min_equality",
    "affine_if_then",
]
