import random
from fractions import Fraction

import pytest

from tuplix.algebra import Comp, Entry, Test, compose, denote_ground, normalize
from tuplix.constraints import conjunction_expr, leq_expr
from tuplix.expr import Const, Var, div, evaluate, sub


def test_leq_expr_void_iff_ordered():
    e = leq_expr(Var("p"), Var("q"))
    rng = random.Random(1)
    for _ in range(500):
        p = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
        q = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
        value = evaluate(e, {"p": p, "q": q})
        assert (value == 0) == (p <= q)
        assert value >= 0


def test_leq_guards_a_budget():
    t = Comp(Test(leq_expr(Var("p"), Const(Fraction(4)))), Entry("a", Const(Fraction(1))))
    assert denote_ground(t, {"p": Fraction(3)}) is not None
    assert denote_ground(t, {"p": Fraction(4)}) is not None
    assert denote_ground(t, {"p": Fraction(5)}) is None


def test_eq_guard():
    t = Test(sub(Var("p"), Const(Fraction(2))))
    assert denote_ground(t, {"p": Fraction(2)}) is not None
    assert denote_ground(t, {"p": Fraction(1)}) is None


def test_conjunction_counts_failures():
    e = conjunction_expr([Var("x"), Var("y"), Var("z")])
    v = {"x": Fraction(0), "y": Fraction(7), "z": Fraction(-2)}
    assert evaluate(e, v) == Fraction(2)  # two conjuncts violated
    assert evaluate(e, {k: Fraction(0) for k in "xyz"}) == Fraction(0)
    with pytest.raises(ValueError):
        conjunction_expr([])


def test_combined_guard_matches_composed_tests():
    args = [Var("x"), leq_expr(Var("x"), Var("y"))]
    combined = Test(conjunction_expr(args))
    separate = compose(*(Test(a) for a in args))
    rng = random.Random(8)
    for _ in range(300):
        v = {
            "x": Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            "y": Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        }
        assert denote_ground(combined, v) == denote_ground(separate, v)


def test_single_conjunct_becomes_its_indicator():
    c = normalize(Test(conjunction_expr([Var("x")])))
    assert c.tests == (div(Var("x"), Var("x")),)
