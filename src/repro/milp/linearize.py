"""Linearization helpers: big-M encodings of logic the paper writes as
Gurobi "general constraints" (if-then, min-equality).

NetSmith's Table I uses two non-linear idioms:

* **C4** (if-then): ``O(i,j) = 1 if M(i,j) else INF`` — encoded here as an
  affine expression ``O = INF - (INF-1)*M``, exact because ``M`` is binary.
* **C5** (min-equality): ``D(i,j) = min_k (D(i,k) + O(k,j))`` — encoded with
  one upper-bound inequality per ``k`` plus indicator binaries asserting at
  least one term is attained (:func:`add_min_equality`).

These are the standard big-M constructions; correctness requires that ``M``
dominates the spread of every operand, which callers guarantee by bounding
distances with the diameter constraint (paper's C8).
"""

from __future__ import annotations

from typing import List, Sequence, Union

from .expressions import BINARY, LinExpr, Var, quicksum
from .model import Model

ExprLike = Union[LinExpr, Var, float, int]


def _expr(x: ExprLike) -> LinExpr:
    if isinstance(x, Var):
        return x.expr()
    if isinstance(x, LinExpr):
        return x
    return LinExpr({}, float(x))


def affine_if_then(indicator: Var, then_value: float, else_value: float) -> LinExpr:
    """Exact affine encoding of ``then_value if indicator else else_value``.

    Only valid when ``indicator`` is binary.  This is how the paper's C4
    (one-hop distance = 1 or "infinity") is realised without extra rows.
    """
    if indicator.domain != BINARY:
        raise ValueError("affine_if_then requires a binary indicator")
    return LinExpr({indicator.index: then_value - else_value}, else_value)


def add_min_equality(
    model: Model,
    target: Var,
    terms: Sequence[ExprLike],
    big_m: float,
    name: str = "min",
) -> List[Var]:
    """Constrain ``target == min(terms)`` using big-M indicators.

    Adds, for each term ``t_k``:

    * ``target <= t_k``                      (target is a lower bound), and
    * ``target >= t_k - big_m * (1 - z_k)``  (attained when ``z_k`` is set),

    with ``sum_k z_k >= 1`` so at least one term is attained.  Returns the
    indicator variables for callers that want to inspect the argmin.
    """
    if not terms:
        raise ValueError("min over an empty set")
    zs = []
    for k, t in enumerate(terms):
        te = _expr(t)
        model.add_constr(target <= te, name=f"{name}_ub[{k}]")
        z = model.add_binary(name=f"{name}_z[{k}]")
        # target >= t - M*(1-z)
        model.add_constr(target >= te - big_m * (1 - z), name=f"{name}_lb[{k}]")
        zs.append(z)
    model.add_constr(quicksum(zs) >= 1, name=f"{name}_attain")
    return zs
