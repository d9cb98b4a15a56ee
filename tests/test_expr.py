import random
from fractions import Fraction

import pytest

from tuplix.expr import (
    Abs,
    Add,
    Const,
    Inv,
    Mul,
    Neg,
    UnboundVariableError,
    Var,
    compare,
    compile_exprs,
    const,
    div,
    equiv_prob,
    evaluate,
    fold_constants,
    free_vars,
    postorder,
    pretty,
    random_expr,
    random_rational,
    random_valuation,
    sort_key,
    sub,
    substitute_all,
    var,
)


def test_evaluate_basic():
    e = Add(Mul(Const(Fraction(2)), Var("x")), Const(Fraction(1)))
    assert evaluate(e, {"x": Fraction(3)}) == Fraction(7)
    assert evaluate(Neg(Var("x")), {"x": Fraction(1, 2)}) == Fraction(-1, 2)
    assert evaluate(Abs(sub(const(3), const(5))), {}) == Fraction(2)


def test_evaluate_totalizes_inverse():
    assert evaluate(Inv(Const(Fraction(0))), {}) == Fraction(0)
    # x/x is 0 at x = 0 and 1 elsewhere
    ind = div(var("x"), var("x"))
    assert evaluate(ind, {"x": Fraction(0)}) == Fraction(0)
    assert evaluate(ind, {"x": Fraction(-7, 3)}) == Fraction(1)


def test_evaluate_unbound_names_the_variable():
    with pytest.raises(UnboundVariableError) as info:
        evaluate(var("missing"), {"other": Fraction(1)})
    assert info.value.name == "missing"


def test_var_rejects_bad_identifiers():
    for bad in ("", "1x", "a b", "a:", ":a", "a::b", "a-b"):
        with pytest.raises(ValueError):
            Var(bad)
    # colon-separated segments are fine
    assert Var("A:C1:sslt").name == "A:C1:sslt"


def test_free_vars():
    e = Mul(Add(var("a"), Neg(var("b"))), Inv(var("a")))
    assert free_vars(e) == {"a", "b"}
    assert free_vars(const(4)) == set()


def test_substitute():
    e = Add(var("x"), var("y"))
    assert substitute_all(e, {"x": const(2)}) == Add(const(2), var("y"))
    swapped = substitute_all(e, {"x": var("y"), "y": var("x")})
    assert swapped == Add(var("y"), var("x"))  # simultaneous, not sequential
    assert free_vars(substitute_all(e, {"x": const(2)})) == free_vars(e) - {"x"}
    assert substitute_all(e, {"z": const(2)}) is e  # nothing bound, nothing rebuilt


def test_fold_collapses_constants():
    assert fold_constants(Add(const(2), const(3))) == const(5)
    assert fold_constants(Mul(const(2), Inv(const(4)))) == Const(Fraction(1, 2))
    assert fold_constants(Inv(const(0))) == const(0)
    assert fold_constants(Abs(const(-9))) == const(9)


def test_fold_identities():
    x = var("x")
    assert fold_constants(Add(x, const(0))) == x
    assert fold_constants(Add(const(0), x)) == x
    assert fold_constants(Mul(x, const(1))) == x
    assert fold_constants(Mul(const(0), x)) == const(0)
    assert fold_constants(Neg(Neg(x))) == x
    assert fold_constants(Inv(Inv(x))) == x


def test_fold_keeps_open_indicators():
    # x/x is NOT 1: at x = 0 it is 0, so folding it away would be wrong
    e = div(var("x"), var("x"))
    assert fold_constants(e) == e


def test_fold_preserves_value():
    rng = random.Random(3)
    names = ("x", "y", "z")
    for _ in range(400):
        e = random_expr(rng, names, rng.randint(0, 5))
        v = random_valuation(rng, names)
        assert evaluate(fold_constants(e), v) == evaluate(e, v)


def test_fold_with_bindings_equals_fold_after_substitution():
    rng = random.Random(17)
    names = ("x", "y", "z")
    for _ in range(1000):
        e = random_expr(rng, names, rng.randint(0, 6))
        bindings = {}
        for name in names:
            roll = rng.random()
            if roll < 0.35:
                bindings[name] = Const(random_rational(rng))  # zero a quarter of the time
            elif roll < 0.7:
                bindings[name] = fold_constants(random_expr(rng, names, rng.randint(0, 3)))
        assert fold_constants(e, bindings) == fold_constants(substitute_all(e, bindings))


def operator_subterms(roots):
    return {node for node in postorder(roots) if not isinstance(node, (Const, Var))}


def test_compiled_program_agrees_with_evaluate():
    rng = random.Random(23)
    names = ("x", "y", "z")
    x = var("x")
    for trial in range(300):
        e = random_expr(rng, names, rng.randint(0, 8))
        copy = random_expr(random.Random(trial), names, 6)  # equal, separately built
        again = random_expr(random.Random(trial), names, 6)
        roots = [
            e,
            Add(e, e),  # the same node object twice
            Mul(copy, again),
            Abs(Add(copy, Neg(again))),
            Inv(sub(x, x)),  # an inverse of zero at every valuation
            random_expr(rng, names, rng.randint(0, 8)),
        ]
        program = compile_exprs(roots)
        assert len(program.instructions) == len(operator_subterms(roots))
        for _ in range(3):
            v = random_valuation(rng, names)  # zero a quarter of the time
            assert program(v) == [evaluate(root, v) for root in roots]
        zeros = dict.fromkeys(names, Fraction(0))
        assert program(zeros) == [evaluate(root, zeros) for root in roots]


def test_compiled_program_names_an_unbound_variable():
    program = compile_exprs([Add(var("x"), Inv(const(0))), var("missing")])
    assert program({"x": Fraction(2), "missing": Fraction(1)}) == [Fraction(2), Fraction(1)]
    with pytest.raises(UnboundVariableError) as info:
        program({"x": Fraction(2)})
    assert info.value.name == "missing"


def test_compiled_program_runs_a_deep_chain():
    # 20,000 nested Adds: far past the recursion limit of evaluate and of == on nodes
    n = 20_000
    chain = var("x")
    for i in range(n):
        chain = Add(chain, Const(Fraction(i)))
    program = compile_exprs([chain])
    assert len(program.instructions) == n
    assert program({"x": Fraction(1, 2)}) == [Fraction(1, 2) + n * (n - 1) // 2]


def test_equiv_prob_detects_indicator_vs_one():
    # sampling hits zero often enough to separate x/x from 1
    assert equiv_prob(div(var("x"), var("x")), const(1), trials=200, seed=5) is False
    assert equiv_prob(Add(var("x"), var("y")), Add(var("y"), var("x")), 200, 5) is True
    with pytest.raises(ValueError):
        equiv_prob(const(0), const(0), trials=0, seed=1)


def test_sort_key_is_a_total_order():
    rng = random.Random(9)
    exprs = [random_expr(rng, ("u", "v"), rng.randint(0, 4)) for _ in range(120)]
    keyed = sorted(exprs, key=sort_key)
    assert sorted(keyed, key=sort_key) == keyed
    for e in exprs:
        assert sort_key(e) == sort_key(e)
    a, b = var("a"), var("b")
    assert sort_key(a) != sort_key(b)
    assert sort_key(Add(a, b)) != sort_key(Mul(a, b))


def reference_sort_key(e):
    """The recursive structural key whose order `sort_key` keeps exactly."""
    match e:
        case Const(value):
            return (0, value.numerator, value.denominator)
        case Var(name):
            return (1, name)
        case Add(left, right):
            return (2, reference_sort_key(left), reference_sort_key(right))
        case Mul(left, right):
            return (3, reference_sort_key(left), reference_sort_key(right))
        case Neg(arg):
            return (4, reference_sort_key(arg))
        case Inv(arg):
            return (5, reference_sort_key(arg))
        case Abs(arg):
            return (6, reference_sort_key(arg))
    raise TypeError(f"not an expression: {e!r}")


def test_sort_key_orders_exactly_as_the_recursive_key():
    rng = random.Random(31)
    names = ("u", "v", "w")
    for trial in range(1000):
        shared = random_expr(rng, names, rng.randint(0, 4))
        exprs = [random_expr(rng, names, rng.randint(0, 5)) for _ in range(rng.randint(0, 6))]
        exprs += [
            shared,
            Add(shared, shared),  # one node object twice
            Mul(shared, random_expr(rng, names, 1)),
            random_expr(random.Random(trial), names, 3),  # equal, separately built
            random_expr(random.Random(trial), names, 3),
        ]
        rng.shuffle(exprs)
        assert [id(e) for e in sorted(exprs, key=sort_key)] == [
            id(e) for e in sorted(exprs, key=reference_sort_key)
        ]
        for a, b in zip(exprs, exprs[1:]):
            ka, kb = reference_sort_key(a), reference_sort_key(b)
            assert compare(a, b) == (ka > kb) - (ka < kb)


def test_postorder_lists_each_node_once_children_first():
    x, one = var("x"), const(1)
    shared = Add(x, one)
    root = Mul(shared, Neg(shared))
    assert postorder([root, shared]) == [x, one, shared, root.right, root]
    assert postorder([root], {id(shared)}) == [root.right, root]
    with pytest.raises(TypeError):
        postorder([Add(x, "y")])


def test_fold_returns_unchanged_nodes_and_shares_its_memo():
    e = fold_constants(Add(Mul(var("x"), Inv(var("y"))), Neg(Abs(var("z")))))
    assert fold_constants(e) is e
    shared = Add(var("x"), Add(const(1), const(2)))
    roots = [Mul(shared, var("y")), Neg(shared)]  # alive as long as the memo is used
    memo = {}
    first, second = (fold_constants(root, {"y": const(2)}, memo) for root in roots)
    assert first.left is second.arg == Add(var("x"), const(3))


def test_passes_run_deep_chains_and_shared_nodes_once():
    n = 20_000  # far past the recursion limit
    chain = var("x")
    for _ in range(n):
        chain = sub(chain, const(1))
    folded = fold_constants(chain)  # each Neg(1) becomes the constant -1
    assert fold_constants(folded, {"x": const(n)}) == const(0)
    assert free_vars(chain) == {"x"}
    assert pretty(chain) == "x" + " - 1" * n
    assert substitute_all(chain, {"x": const(2)}).left.left.right is chain.left.left.right
    assert compare(chain, folded) == 1 and compare(folded, chain) == -1  # Neg after Const
    doubled, again = var("x"), var("x")
    for _ in range(200):  # 2^200 paths, 201 distinct nodes
        doubled, again = Add(doubled, doubled), Add(again, again)
    assert len(postorder([doubled])) == 201
    assert fold_constants(doubled, {"x": const(1)}) == Const(Fraction(2**200))
    assert compare(doubled, again) == 0
    assert free_vars(doubled) == {"x"}


def test_pretty_spells_sums_and_quotients():
    assert pretty(sub(var("a"), var("b"))) == "a - b"
    assert pretty(div(var("a"), var("b"))) == "a / b"
    assert pretty(Inv(var("a"))) == "1 / a"
    assert pretty(Mul(Add(var("a"), var("b")), var("c"))) == "(a + b) * c"
    assert pretty(Neg(Add(var("a"), var("b")))) == "-(a + b)"
    assert pretty(Const(Fraction(1, 4))) == "0.25"
    assert pretty(Const(Fraction(1, 3))) == "1/3"
    assert pretty(Const(Fraction(-2))) == "-2"
    assert pretty(Abs(var("x"))) == "abs(x)"


def test_random_expr_is_deterministic():
    a = random_expr(random.Random(42), ("x",), 4)
    b = random_expr(random.Random(42), ("x",), 4)
    assert a == b
