"""Linear-expression algebra for the MILP modeling layer.

This module provides the small algebra (:class:`Var`, :class:`LinExpr`,
:class:`Constraint`) that :class:`repro.milp.model.Model` builds matrices
from.  Expressions are stored as ``{var_index: coefficient}`` dictionaries
plus a constant, which keeps construction of models with tens of thousands
of terms cheap (no symbolic tree walking at matrix-build time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Union

Number = Union[int, float]

#: Variable domains.
CONTINUOUS = "continuous"
INTEGER = "integer"
BINARY = "binary"

#: Constraint senses.
LE = "<="
GE = ">="
EQ = "=="


class LinExpr:
    """A linear expression ``sum(coef[i] * var[i]) + const``.

    Supports ``+``, ``-``, ``*`` (by scalar), and comparison operators that
    produce :class:`Constraint` objects, mirroring the Gurobi/PuLP API the
    paper's artifact would have used.
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Dict[int, float] | None = None, const: float = 0.0):
        self.coeffs: Dict[int, float] = coeffs if coeffs is not None else {}
        self.const = float(const)

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def from_var(index: int, coef: float = 1.0) -> "LinExpr":
        return LinExpr({index: float(coef)})

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.coeffs), self.const)

    # -- algebra ---------------------------------------------------------------
    def _iadd_expr(self, other: "LinExpr", sign: float) -> "LinExpr":
        for idx, c in other.coeffs.items():
            new = self.coeffs.get(idx, 0.0) + sign * c
            if new == 0.0:
                self.coeffs.pop(idx, None)
            else:
                self.coeffs[idx] = new
        self.const += sign * other.const
        return self

    def __add__(self, other: Union["LinExpr", "Var", Number]) -> "LinExpr":
        out = self.copy()
        return out.__iadd__(other)

    def __iadd__(self, other: Union["LinExpr", "Var", Number]) -> "LinExpr":
        if isinstance(other, Var):
            other = other.expr()
        if isinstance(other, LinExpr):
            return self._iadd_expr(other, 1.0)
        self.const += float(other)
        return self

    def __radd__(self, other: Number) -> "LinExpr":
        return self.__add__(other)

    def __sub__(self, other: Union["LinExpr", "Var", Number]) -> "LinExpr":
        out = self.copy()
        return out.__isub__(other)

    def __isub__(self, other: Union["LinExpr", "Var", Number]) -> "LinExpr":
        if isinstance(other, Var):
            other = other.expr()
        if isinstance(other, LinExpr):
            return self._iadd_expr(other, -1.0)
        self.const -= float(other)
        return self

    def __rsub__(self, other: Number) -> "LinExpr":
        out = self.__mul__(-1.0)
        out.const += float(other)
        return out

    def __neg__(self) -> "LinExpr":
        return self.__mul__(-1.0)

    def __mul__(self, scalar: Number) -> "LinExpr":
        s = float(scalar)
        return LinExpr({i: c * s for i, c in self.coeffs.items()}, self.const * s)

    def __rmul__(self, scalar: Number) -> "LinExpr":
        return self.__mul__(scalar)

    # -- comparisons -> constraints ---------------------------------------------
    def __le__(self, other) -> "Constraint":
        return Constraint(self - _as_expr(other), LE)

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - _as_expr(other), GE)

    def __eq__(self, other) -> "Constraint":  # type: ignore[override]
        return Constraint(self - _as_expr(other), EQ)

    __hash__ = None  # type: ignore[assignment]

    def value(self, solution) -> float:
        """Evaluate the expression at a solution vector."""
        return sum(c * solution[i] for i, c in self.coeffs.items()) + self.const

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = " + ".join(f"{c:g}*x{i}" for i, c in sorted(self.coeffs.items()))
        return f"LinExpr({terms} + {self.const:g})"


@dataclass
class Var:
    """A decision variable handle.

    The model owns the actual storage (bounds, domain); ``Var`` is a light
    index wrapper that participates in expression algebra.
    """

    index: int
    name: str
    domain: str = CONTINUOUS
    lb: float = 0.0
    ub: float = float("inf")

    def expr(self) -> LinExpr:
        return LinExpr.from_var(self.index)

    # algebra delegates to LinExpr
    def __add__(self, other):
        return self.expr() + other

    def __radd__(self, other):
        return self.expr() + other

    def __sub__(self, other):
        return self.expr() - other

    def __rsub__(self, other):
        return (-1.0 * self.expr()) + other

    def __neg__(self):
        return -1.0 * self.expr()

    def __mul__(self, scalar):
        return self.expr() * scalar

    def __rmul__(self, scalar):
        return self.expr() * scalar

    def __le__(self, other):
        return self.expr() <= other

    def __ge__(self, other):
        return self.expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, Var) and other is self:
            return True
        return self.expr() == other

    def __hash__(self):
        return hash(("Var", self.index))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Var({self.name}#{self.index})"


@dataclass
class Constraint:
    """``expr (<=|>=|==) 0`` in normalized form.

    Built by comparing two expressions; the right-hand side is folded into
    the expression constant, so the stored form is always against zero.
    """

    expr: LinExpr
    sense: str
    name: str = ""

    def bounds(self) -> tuple:
        """Return ``(lower, upper)`` for ``sum(coeffs*x)`` with const removed."""
        rhs = -self.expr.const
        if self.sense == LE:
            return (-float("inf"), rhs)
        if self.sense == GE:
            return (rhs, float("inf"))
        return (rhs, rhs)


def _as_expr(x: Union[LinExpr, Var, Number]) -> LinExpr:
    if isinstance(x, LinExpr):
        return x
    if isinstance(x, Var):
        return x.expr()
    return LinExpr({}, float(x))


def quicksum(items: Iterable[Union[LinExpr, Var, Number]]) -> LinExpr:
    """Sum many expressions/vars in O(total terms); mirrors ``gurobipy.quicksum``."""
    out = LinExpr()
    for it in items:
        out += it
    return out
