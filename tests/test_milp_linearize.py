"""Tests for big-M linearization helpers (the Table I C4/C5 encodings)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.milp import Model, add_min_equality, affine_if_then


class TestAffineIfThen:
    def test_then_branch(self):
        m = Model()
        b = m.add_binary("b")
        m.add_constr(b >= 1)
        o = affine_if_then(b, then_value=1.0, else_value=99.0)
        m.set_objective(o)
        res = m.solve()
        assert res.value(o) == pytest.approx(1.0)

    def test_else_branch(self):
        m = Model()
        b = m.add_binary("b")
        m.add_constr(b <= 0)
        o = affine_if_then(b, then_value=1.0, else_value=99.0)
        m.set_objective(o)
        res = m.solve()
        assert res.value(o) == pytest.approx(99.0)

    def test_rejects_non_binary(self):
        m = Model()
        x = m.add_integer("x", ub=3)
        with pytest.raises(ValueError):
            affine_if_then(x, 1.0, 2.0)


class TestMinEquality:
    @pytest.mark.parametrize("fixed", [(3, 7, 5), (9, 2, 4), (6, 6, 6)])
    def test_min_of_fixed_values(self, fixed):
        m = Model()
        t = m.add_var("t", lb=0, ub=100)
        terms = []
        for k, val in enumerate(fixed):
            v = m.add_integer(f"v{k}", lb=val, ub=val)
            terms.append(v)
        add_min_equality(m, t, terms, big_m=200)
        # objective pulls t UP, so only the equality encoding holds it down
        m.set_objective(-t)
        res = m.solve()
        assert res.value(t) == pytest.approx(min(fixed))

    def test_min_holds_under_minimization_too(self):
        m = Model()
        t = m.add_var("t", lb=0, ub=100)
        a = m.add_integer("a", lb=4, ub=4)
        b = m.add_integer("b", lb=9, ub=9)
        add_min_equality(m, t, [a, b], big_m=200)
        m.set_objective(t)
        res = m.solve()
        assert res.value(t) == pytest.approx(4.0)

    def test_empty_terms_raises(self):
        m = Model()
        t = m.add_var("t")
        with pytest.raises(ValueError):
            add_min_equality(m, t, [], big_m=10)

    @settings(max_examples=25, deadline=None)
    @given(vals=st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=5))
    def test_property_min_equality(self, vals):
        m = Model()
        t = m.add_var("t", lb=0, ub=100)
        terms = [m.add_integer(f"v{k}", lb=v, ub=v) for k, v in enumerate(vals)]
        add_min_equality(m, t, terms, big_m=200)
        m.set_objective(-t)
        res = m.solve()
        assert res.value(t) == pytest.approx(min(vals))
