import operator
import random
import string
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest

from tuplix.algebra import EPS, CanonicalTuplix, Comp, Delta, Entry, Test, _canonical_tests, encap, ground_columns
from tuplix import expr
from tuplix.expr import (
    IDENTIFIER_RE,
    Abs,
    Add,
    Const,
    Inv,
    LinearForms,
    Mul,
    Neg,
    UnboundVariableError,
    Var,
    _Form,
    _fold_node,
    compare,
    div,
    evaluate,
    fold_constants,
    free_vars,
    is_identifier,
    postorder,
    pretty,
    sort_key,
    sub,
)
from tuplix.laws import random_expr, random_rational
from tuplix.meadow import minv


def const(value):
    return Const(Fraction(value))


def test_evaluate_basic():
    e = Add(Mul(Const(Fraction(2)), Var("x")), Const(Fraction(1)))
    assert evaluate(e, {"x": Fraction(3)}) == Fraction(7)
    assert evaluate(Neg(Var("x")), {"x": Fraction(1, 2)}) == Fraction(-1, 2)
    assert evaluate(Abs(sub(const(3), const(5))), {}) == Fraction(2)


def test_evaluate_totalizes_inverse():
    assert evaluate(Inv(Const(Fraction(0))), {}) == Fraction(0)
    # x/x is 0 at x = 0 and 1 elsewhere
    ind = div(Var("x"), Var("x"))
    assert evaluate(ind, {"x": Fraction(0)}) == Fraction(0)
    assert evaluate(ind, {"x": Fraction(-7, 3)}) == Fraction(1)


def test_evaluate_unbound_names_the_variable():
    with pytest.raises(UnboundVariableError) as info:
        evaluate(Var("missing"), {"other": Fraction(1)})
    assert info.value.name == "missing"


def test_var_rejects_bad_identifiers():
    for bad in ("", "1x", "a b", "a:", ":a", "a::b", "a-b"):
        with pytest.raises(ValueError):
            Var(bad)
    # colon-separated segments are fine
    assert Var("A:C1:sslt").name == "A:C1:sslt"


def test_is_identifier_agrees_with_the_pattern_on_every_name():
    # ASCII names skip the pattern; any name that they take and the pattern refuses fails here,
    # such as one that starts with a non-ASCII letter, or ends in a newline, which \Z refuses
    rng = random.Random(27)
    alphabet = string.ascii_letters + string.digits + "_:é²٣ \t-"
    names = ["", "\n", "x\n", "A:y\n", "é", "xé", "x²", "x٣", "_", "a:b", "a::b"]
    names += ["".join(rng.choices(alphabet, k=rng.randint(1, 6))) for _ in range(200_000)]
    names += [name + "\n" for name in names[:20_000]]
    matched = [IDENTIFIER_RE.match(name) is not None for name in names]
    assert list(map(is_identifier, names)) == matched
    fast = sum(name.isascii() and name.isidentifier() for name in names)
    assert 0 < fast < sum(matched)  # the pattern still decides some of the names it matches


def test_free_vars():
    e = Mul(Add(Var("a"), Neg(Var("b"))), Inv(Var("a")))
    assert free_vars(e) == {"a", "b"}
    assert free_vars(const(4)) == set()


def test_substitute():
    e = Add(Var("x"), Var("y"))
    assert fold_constants(e, {"x": const(2)}) == Add(const(2), Var("y"))
    swapped = fold_constants(e, {"x": Var("y"), "y": Var("x")})
    assert swapped == Add(Var("y"), Var("x"))  # simultaneous, not sequential
    assert free_vars(fold_constants(e, {"x": const(2)})) == free_vars(e) - {"x"}
    assert fold_constants(e, {"z": const(2)}) is e  # nothing bound, nothing rebuilt


def test_fold_collapses_constants():
    assert fold_constants(Add(const(2), const(3))) == const(5)
    assert fold_constants(Mul(const(2), Inv(const(4)))) == Const(Fraction(1, 2))
    assert fold_constants(Inv(const(0))) == const(0)
    assert fold_constants(Abs(const(-9))) == const(9)


def test_fold_identities():
    x = Var("x")
    assert fold_constants(Add(x, const(0))) == x
    assert fold_constants(Add(const(0), x)) == x
    assert fold_constants(Mul(x, const(1))) == x
    assert fold_constants(Mul(const(0), x)) == const(0)
    assert fold_constants(Neg(Neg(x))) == x
    assert fold_constants(Inv(Inv(x))) == x


def folds_in_lowest_terms(e, bindings=None):
    """Fold e node by node, as fold_constants does, and check that every closed fold is in lowest terms."""
    folded = {}
    for node in postorder([e]):
        fold = folded[id(node)] = _fold_node(node, folded, bindings)
        if type(fold) is tuple:
            n, d = fold
            assert d > 0 and gcd(n, d) == 1, (node, fold)


def test_fold_reduces_every_closed_value_as_fraction_does():
    # zeros and ones that only arithmetic makes still trigger their identities
    x, c = Var("x"), lambda n, d=1: Const(Fraction(n, d))
    square = c(1, 3)
    for _ in range(10):
        square = Mul(square, square)
    table = [
        (Mul(x, Add(c(1, 3), c(2, 3))), x),
        (Add(x, sub(c(1, 6), c(1, 6))), x),
        (Mul(Mul(c(2, 3), c(3, 2)), x), x),
        (Mul(x, sub(c(1, 2), c(1, 2))), c(0)),
        (div(c(1), c(-3, 4)), c(-4, 3)),
        (Abs(c(-5, 7)), c(5, 7)),
        (div(c(1), c(0)), c(0)),
        (square, Const(Fraction(1, 3) ** 1024)),
    ]
    for e, expected in table:
        folds_in_lowest_terms(e)
        assert fold_constants(e) == expected, pretty(e)


def test_fold_agrees_with_evaluate_on_zeros_and_long_numbers():
    rng = random.Random(29)
    names = ("x", "y", "z")

    def value():
        roll = rng.random()
        if roll < 0.3:
            return Fraction(0)
        if roll < 0.6:  # numerators and denominators of 60 to 80 digits
            sign = rng.choice((-1, 1))
            return Fraction(sign * rng.randrange(10**60, 10**80), rng.randrange(10**60, 10**80))
        return random_rational(rng)

    for _ in range(2_000):
        e = random_expr(rng, names, rng.randint(0, 8))
        v = {name: value() for name in names}
        consts = {name: Const(r) for name, r in v.items()}
        folds_in_lowest_terms(e, consts)
        assert fold_constants(e, consts) == Const(evaluate(e, v))
        # a closed value may be bound as an integer pair, as normalize binds it
        part = {name: v[name].as_integer_ratio() for name in names if rng.random() < 0.5}
        rest = {name: r for name, r in v.items() if name not in part}
        assert evaluate(fold_constants(e, part), rest) == evaluate(e, v)


def test_fold_keeps_open_indicators():
    # x/x is NOT 1: at x = 0 it is 0, so folding it away would be wrong
    e = div(Var("x"), Var("x"))
    assert fold_constants(e) == e


def test_fold_preserves_value():
    rng = random.Random(3)
    names = ("x", "y", "z")
    for _ in range(400):
        e = random_expr(rng, names, rng.randint(0, 5))
        v = {name: random_rational(rng) for name in names}
        assert evaluate(fold_constants(e), v) == evaluate(e, v)


def _substitute(e, bindings):
    """Each bound variable of `e` replaced by its expression, nothing folded: the reference."""
    match e:
        case Var(name):
            return bindings.get(name, e)
        case Add(left, right) | Mul(left, right):
            return type(e)(_substitute(left, bindings), _substitute(right, bindings))
        case Neg(arg) | Inv(arg) | Abs(arg):
            return type(e)(_substitute(arg, bindings))
    return e


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
        assert fold_constants(e, bindings) == fold_constants(_substitute(e, bindings))


def column(values):
    """The column of some rationals: their numerators and their denominators."""
    return [v.numerator for v in values], [v.denominator for v in values]


def shared_column(values, factor=1):
    """The column of some rationals as numerators over one denominator: the lcm of theirs times `factor`."""
    denominator = lcm(*(v.denominator for v in values)) * factor
    return [v.numerator * (denominator // v.denominator) for v in values], denominator


def amount_columns(roots, values, rows):
    """The roots' columns as `algebra.ground_columns` gives the amounts of a form: each in lowest terms."""
    entries = tuple((str(i), root) for i, root in enumerate(roots))
    return ground_columns(CanonicalTuplix(False, (), entries), values, rows)[1]


def in_lowest_terms(columns):
    """Whether every root's column has a positive denominator per row, and every row is in lowest terms."""
    return all(type(d) is list and min(d) > 0 and set(map(gcd, n, d)) == {1} for n, d in columns)


def rows_of(columns):
    """Each row of the roots' columns, as (numerator, denominator) pairs."""
    return list(zip(*(zip(*c) for c in columns)))


def pairs(values):
    """Rationals as the (numerator, denominator) pairs of their lowest terms."""
    return tuple((v.numerator, v.denominator) for v in values)


# The plain operators as a domain of `LinearForms.run`: on `Fraction`s, or on sympy symbols
PLAIN = {op: op for op in (operator.add, operator.sub, operator.mul, operator.neg, abs, minv)}
PLAIN[Const] = lambda pair: Fraction(*pair)


def row(linear, valuation):
    """The value of every root under a valuation binding all its variables, as one row of `Fraction`s."""
    return linear.run(PLAIN, valuation)


def test_compiled_program_agrees_with_evaluate():
    # each trial's four valuations run as the four rows of one call
    rng = random.Random(23)
    names = ("x", "y", "z")
    x = Var("x")
    for trial in range(2_000):
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
        program = LinearForms(roots)
        # zero a quarter of the time, and all zero in the last row
        valuations = [{name: random_rational(rng) for name in names} for _ in range(3)]
        valuations.append(dict.fromkeys(names, Fraction(0)))
        values = {name: column([v[name] for v in valuations]) for name in names}
        expected = [[evaluate(root, v) for root in roots] for v in valuations]
        assert rows_of(amount_columns(roots, values, 4)) == list(map(pairs, expected))
        assert [row(program, v) for v in valuations] == expected  # the same program on Fractions


def test_columns_agree_with_evaluate_row_by_row():
    # one column of 40 rows per variable, with zeros, negatives and large values
    rng = random.Random(41)
    names = ("x", "y", "z")
    for _ in range(300):
        roots = [random_expr(rng, names, rng.randint(0, 12)) for _ in range(4)]
        valuations = [{name: random_rational(rng) for name in names} for _ in range(36)]
        valuations += [{name: Fraction(rng.randint(-(2**70), 2**70), 3**41) for name in names}]
        valuations += [dict.fromkeys(names, Fraction(value)) for value in (0, -1, 1)]
        program = LinearForms(roots)
        values = {name: column([v[name] for v in valuations]) for name in names}
        rows = rows_of(amount_columns(roots, values, len(valuations)))
        assert rows == [pairs([evaluate(root, v) for root in roots]) for v in valuations]
        assert rows[0] == pairs(row(program, valuations[0]))  # the one-row view
        # each variable over one denominator, in lowest terms as a whole or not, and with x over a
        # denominator per row
        for factor in (1, 6):
            shared = {name: shared_column([v[name] for v in valuations], factor) for name in names}
            for given in (shared, dict(shared, x=values["x"])):
                columns = amount_columns(roots, given, len(valuations))
                assert rows_of(columns) == rows and in_lowest_terms(columns)


def test_columns_invert_zero_negatives_and_large_numbers():
    x, y = Var("x"), Var("y")
    big = Fraction(-(2**100) - 1, 3**50)
    xs = [Fraction(0), Fraction(-3, 4), Fraction(5), big]
    ys = [Fraction(0), Fraction(-2), Fraction(1, 7), Fraction(2**64 + 1)]
    roots = [Inv(x), Inv(Add(x, y)), Abs(x), Neg(Mul(x, y)), Add(Mul(x, y), Inv(y)), Mul(x, Inv(x))]
    # a constant times a column, and a constant added to one, over one denominator or one a row
    roots += [Add(Mul(const(Fraction(-6, 5)), x), const(Fraction(1, 6))), Mul(const(Fraction(4)), Inv(y))]
    rows = rows_of(amount_columns(roots, {"x": column(xs), "y": column(ys)}, 4))
    valuations = [{"x": a, "y": b} for a, b in zip(xs, ys)]
    assert rows == [pairs([evaluate(root, v) for root in roots]) for v in valuations]
    assert rows[0][:6] == ((0, 1),) * 6  # 1/0 = 0, in lowest terms with denominator 1
    assert rows[1][0] == (-4, 3)  # the sign goes to the numerator
    assert rows[3][0] == (-(3**50), 2**100 + 1)
    assert rows[3][3] == pairs([-big * (2**64 + 1)])[0]  # past 2^64, exact
    # the same rows with each variable over one denominator, numerators past 2^70, in lowest terms
    # as a whole or 10^30 times that, and with y over a denominator per row
    for factor in (1, 10**30):
        shared = {"x": shared_column(xs, factor), "y": shared_column(ys, factor)}
        assert max(map(abs, shared["x"][0])) > 2**70
        columns = amount_columns(roots, shared, 4)
        assert rows_of(columns) == rows and in_lowest_terms(columns)
        columns = amount_columns(roots, dict(shared, y=column(ys)), 4)
        assert rows_of(columns) == rows and in_lowest_terms(columns)


def test_shared_columns_are_divided_by_their_gcd_at_each_step(monkeypatch):
    assert expr._sum(operator.add, ([1, 3], 4), ([3, 1], 4)) == ([1, 1], 1)
    assert expr._product(([2, 6], 4), ([2, 6], 4)) == ([1, 9], 4)
    assert expr._product((3, 2), ([2, 4], 3)) == ([1, 2], 1)  # 3/2 times 2/3 and 4/3
    assert expr._sum(operator.sub, ([0, 0], 5), ([2, 2], 6)) == ([-1, -1], 3)
    # z = (x - 1)(x - 1) + 3/4 is 1 at x = 1/2 and at x = 3/2, though over 4 as it is summed;
    # squared 20 times it is 1 at every step, where the product of the denominators would be 4^(2^20)
    x = Var("x")
    d = Add(Mul(sub(x, const(1)), sub(x, const(1))), const(Fraction(3, 4)))
    for _ in range(20):
        d = Mul(d, d)
    program = LinearForms([d])
    sizes = []

    def spy(step):
        def run(*columns):
            numerators, denominator = result = step(*columns)
            sizes.append(max(denominator.bit_length(), *(n.bit_length() for n in numerators)))
            return result

        return run

    for op in (operator.add, operator.sub, operator.mul):
        monkeypatch.setitem(expr._COLUMN_OPS, op, spy(expr._COLUMN_OPS[op]))
    for given in (([1, 3], 2), ([1], 2)):
        rows = len(given[0])
        assert program.run(expr._COLUMN_OPS, {"x": given}) == [([1] * rows, 1)]
    assert len(sizes) > 40 and max(sizes) <= 3


def test_columns_of_a_program_without_variables_fill_every_row():
    roots = [Add(const(1), Inv(const(3))), Inv(const(0)), Abs(Var("x"))]
    constants = LinearForms(roots[:2])
    assert (tuple(constants.variables), constants.instructions) == ((), {})
    assert constants.run(expr._COLUMN_OPS, {}) == [(4, 3), (0, 1)]  # a constant root stays a pair
    assert amount_columns(roots[:2], {}, 3) == [([4, 4, 4], [3, 3, 3]), ([0, 0, 0], [1, 1, 1])]
    columns = amount_columns(roots, {"x": ([-1, 2], [1, 5])}, 2)
    assert columns == [([4, 4], [3, 3]), ([0, 0], [1, 1]), ([1, 2], [1, 5])]


def test_compiled_program_names_an_unbound_variable():
    program = LinearForms([Add(Var("x"), Inv(const(0))), Var("missing")])
    assert row(program, {"x": Fraction(2), "missing": Fraction(1)}) == [Fraction(2), Fraction(1)]
    with pytest.raises(UnboundVariableError) as info:
        row(program, {"x": Fraction(2)})
    assert info.value.name == "missing"


def test_compiled_program_runs_a_deep_chain():
    # 20,000 nested Adds: far past the recursion limit of evaluate
    n = 20_000
    chain = Var("x")
    for i in range(n):
        chain = Add(chain, Const(Fraction(i)))
    program = LinearForms([chain])
    assert len(program.instructions) == 1  # the constants collect into one: x + n(n-1)/2
    assert row(program, {"x": Fraction(1, 2)}) == [Fraction(1, 2) + n * (n - 1) // 2]


def test_columns_let_each_column_go_after_its_last_use():
    # Each step's column has 2,000 numerators and denominators of up to 150
    # bits. Let go after its last use, at most a few are alive at once: the
    # call peaked at 0.7 MiB, against 18.7 MiB with every column kept.
    chain = Var("x")
    for i in range(100):
        chain = Abs(Add(chain, Const(Fraction(1, i + 2))))
    program = LinearForms([chain])
    xs = [Fraction(j - 1000, 7) for j in range(2000)]
    tracemalloc.start()
    try:
        (root,) = program.run(expr._COLUMN_OPS, {"x": column(xs)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(program.instructions) == 200  # an addition and an abs per step
    assert peak < 4 * 2**20
    assert rows_of([root])[-1] == pairs([evaluate(chain, {"x": xs[-1]})])


def test_compiled_program_collects_linear_forms():
    x = Var("x")
    roots = [
        sub(x, x),  # 0
        Add(Mul(const(2), x), Neg(Add(x, x))),  # 0
        Mul(x, Inv(x)),  # stays a product: 0 at x = 0
        Mul(Add(x, const(1)), Add(const(1), x)),  # one product of one form with itself
        Abs(Mul(const(3), Add(x, Neg(const(1))))),
    ]
    program = LinearForms(roots)
    ops = [op for op, _, _ in program.instructions]
    assert ops == [minv, operator.mul, operator.add, operator.mul, operator.mul, operator.add, abs]
    for value in (Fraction(0), Fraction(1), Fraction(-5, 2)):
        v = {"x": value}
        assert row(program, v) == [evaluate(root, v) for root in roots]


def test_running_totals_compile_to_a_linear_program():
    # Every partial sum x_i + (x_{i-1} + (...)) is an output too. Written out
    # as linear forms the outputs would have n^2 / 2 terms; a node that is
    # used again is computed once and is an atom of its users.
    n = 2_000
    names = [f"x{i}" for i in range(n)]
    totals = [Var(names[0])]
    for name in names[1:]:
        totals.append(Add(Var(name), totals[-1]))
    totals.reverse()
    program = LinearForms(totals)
    assert len(program.instructions) == n - 1
    v = {name: Fraction(i, 3) for i, name in enumerate(names)}
    assert row(program, v) == [Fraction(i * (i + 1), 6) for i in reversed(range(n))]


def sum_of_vars(names):
    """names[0] + (names[1] + ...), summed right to left."""
    total = Var(names[-1])
    for name in reversed(names[:-1]):
        total = Add(Var(name), total)
    return total


def test_compiled_program_agrees_on_scaled_and_cancelling_forms():
    # Forms of many terms, scaled in place by the one node that owns them,
    # merged at a scale other than theirs, cancelled, and shared once scaled.
    names = [f"x{i}" for i in range(1, 25)]
    first, second, every = names[:12], names[12:], names
    chain = Var(names[19])
    for name in reversed(names[:19]):
        chain = sub(Var(name), chain)  # x1 - (x2 - (x3 - ... x20))
    scaled = Mul(const(3), sum_of_vars(first))
    roots = [
        chain,
        Add(Mul(const(3), sum_of_vars(first)), Neg(sum_of_vars(second))),
        Add(Neg(sum_of_vars(first)), Add(sum_of_vars(first), Var("y"))),
        Mul(const(5), Add(Neg(Add(sum_of_vars(every), Var("y"))), sum_of_vars(every))),
        Add(scaled, Mul(scaled, const(Fraction(-1, 3)))),  # used twice, so one atom
        Add(const(5), Neg(Add(sum_of_vars(second), const(2)))),
    ]
    program = LinearForms(roots)
    names.append("y")
    valuations = [
        dict.fromkeys(names, Fraction(0)),
        {name: Fraction(i + 1) for i, name in enumerate(names)},
        {name: Fraction(-1) ** i * Fraction(i, 7) for i, name in enumerate(names)},
    ]
    for v in valuations:
        assert row(program, v) == [evaluate(root, v) for root in roots]
    v = valuations[1]
    assert row(program, v) == [-10, 3 * 78 - 222, 25, -125, 2 * 78, 5 - 222 - 2]


def ring_expr(rng, names, size):
    """A random expression without Inv or Abs, with at most `size` operator nodes."""
    if size <= 0:
        return Var(rng.choice(names)) if rng.random() < 0.6 else Const(random_rational(rng))
    pick = rng.randrange(3)
    if pick == 2:
        return Neg(ring_expr(rng, names, size - 1))
    split = rng.randint(0, size - 1)
    kind = Add if pick == 0 else Mul
    return kind(ring_expr(rng, names, split), ring_expr(rng, names, size - 1 - split))


def test_compiled_linear_forms_expand_to_the_same_polynomial_as_sympy():
    # run on symbols, the program reads its linear forms back as sympy expressions;
    # evaluate on symbols writes out each tree as it stands
    sympy = pytest.importorskip("sympy")
    rng = random.Random(37)
    names = ("x", "y", "z")
    symbols = {name: sympy.Symbol(name) for name in names}
    for _ in range(300):
        roots = [ring_expr(rng, names, rng.randint(0, 10)) for _ in range(3)]
        roots += [Add(roots[0], Neg(roots[1])), Mul(roots[2], roots[2])]
        program = LinearForms(roots)
        for form, root in zip(program.run(PLAIN, symbols), roots):
            assert sympy.expand(form - evaluate(root, symbols)) == 0


def sum_of_distinct_abs(n):
    """abs(x) + abs(x + 1) + ... + abs(x + n - 1), summed left to right."""
    x = Var("x")
    total = Abs(x)
    for i in range(1, n):
        total = Add(total, Abs(Add(x, Const(Fraction(i)))))
    return total


def merge_work(monkeypatch, root):
    """The term entries that `_Form.merge` writes while the forms of a root are compiled.

    A merge in place writes the terms of the other form into the dict of
    the one it keeps; a merge that returns a new dict writes all of its
    terms. A merge that hands itself over to the larger form is counted in
    both calls, which at most doubles the count.
    """
    written = 0
    merge = _Form.merge

    def counted(self, other):
        nonlocal written
        kept = {id(self.terms): len(other.terms), id(other.terms): len(self.terms)}
        form = merge(self, other)
        written += kept.get(id(form.terms), len(form.terms))
        return form

    with monkeypatch.context() as patch:
        patch.setattr(_Form, "merge", counted)
        LinearForms([root])
    return written


def test_compiling_a_sum_of_distinct_atoms_takes_linear_time(monkeypatch):
    n = 5_000
    small, large = sum_of_distinct_abs(n), sum_of_distinct_abs(2 * n)
    half = Fraction(-1, 2)
    program = LinearForms([small])
    assert len(program.instructions) == 3 * n - 2  # per term: x + i, abs and the running sum
    assert row(program, {"x": half}) == [sum(abs(Fraction(2 * i - 1, 2)) for i in range(n))]
    # The running sum is the only form that grows, and each merge adds one
    # term to it in place: one entry written per term, where a merge that
    # copied the sum's terms would write n^2 / 2. Counted rather than timed,
    # since the time of one compile varied twofold from run to run on a
    # shared 2-vCPU host.
    ratio = merge_work(monkeypatch, small) / n
    doubled_ratio = merge_work(monkeypatch, large) / (2 * n)
    assert ratio < 4
    # a linear compile keeps its work per term at twice the terms
    assert doubled_ratio < 1.25 * ratio


def test_repr_is_the_dataclass_text_at_any_depth():
    assert repr(Add(Var("x"), Const(Fraction(1, 2)))) == (
        "Add(left=Var(name='x'), right=Const(value=Fraction(1, 2)))"
    )
    assert repr(Abs(Inv(Mul(Neg(Var("y")), const(3))))) == (
        "Abs(arg=Inv(arg=Mul(left=Neg(arg=Var(name='y')), right=Const(value=Fraction(3, 1)))))"
    )
    deep = Var("x")
    for _ in range(5_000):  # far past the recursion limit
        deep = Add(deep, const(1))
    text = repr(deep)
    assert text.startswith("Add(left=" * 5_000 + "Var(name='x'), right=Const(")
    assert text.endswith(", right=Const(value=Fraction(1, 1)))")


def test_random_rational_is_zero_in_about_a_quarter_of_draws():
    # the laws reach the zero corners of total division, such as x/x against 1, only through these zeros
    rng = random.Random(5)
    draws = [random_rational(rng) for _ in range(4_000)]
    assert 0.25 <= draws.count(0) / len(draws) <= 0.35
    assert all(abs(r.numerator) <= 8 and r.denominator <= 8 for r in draws)


def test_sort_key_is_a_total_order():
    rng = random.Random(9)
    exprs = [random_expr(rng, ("u", "v"), rng.randint(0, 4)) for _ in range(120)]
    keyed = sorted(exprs, key=sort_key)
    assert sorted(keyed, key=sort_key) == keyed
    for e in exprs:
        assert sort_key(e) == sort_key(e)
    a, b = Var("a"), Var("b")
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
    # sort_key lists only the first 16 preorder tokens, so these agree there and
    # are ordered by the compare that it falls back to
    x = Var("x")

    def spine(n, last):
        """x + x + ... + last, summed left to right, with n additions."""
        return reduce(Add, [x] * n + [last])

    ties = [spine(n, last) for n in (15, 16, 20, 30) for last in (Var("u"), Var("v"), x)]
    ties += [spine(20, Var("u")), spine(30, Var("v"))]  # equal, separately built
    # constants that differ only in the denominator, within the 16 tokens and past them
    ties += [spine(n, Const(Fraction(1, d))) for n in (3, 20) for d in (2, 3, 7)]
    ties += [Neg(spine(20, Const(Fraction(2, 3)))), Neg(spine(20, Const(Fraction(2, 5))))]
    for trial in range(20):
        random.Random(trial).shuffle(ties)
        assert [id(e) for e in sorted(ties, key=sort_key)] == [
            id(e) for e in sorted(ties, key=reference_sort_key)
        ]
    for a in ties:
        for b in ties:
            ka, kb = reference_sort_key(a), reference_sort_key(b)
            assert compare(a, b) == (ka > kb) - (ka < kb)
            assert (sort_key(a) < sort_key(b), sort_key(a) == sort_key(b)) == (ka < kb, ka == kb)
    # a shared doubling chain of depth 60 is 2^60 tokens long as a tree, too
    # long for the recursive key; its key stops after 16 of them
    chains = []
    for leaf in (x, Var("y"), x):
        d = leaf
        for _ in range(60):
            d = Add(d, d)
        chains.append(d)
    assert len(sort_key(chains[0])[0]) == 2 * 16
    assert [id(e) for e in sorted([chains[1], chains[0], chains[2]], key=sort_key)] == [
        id(chains[0]), id(chains[2]), id(chains[1])
    ]
    assert sort_key(chains[0]) == sort_key(chains[2]) and sort_key(chains[0]) < sort_key(chains[1])
    pairs = ((0, 2), (0, 1), (1, 2))
    assert [compare(chains[i], chains[j]) for i, j in pairs] == [0, -1, 1]


def test_canonical_tests_keep_one_of_two_equal_tests():
    # equal past the first 16 tokens of their keys, but built apart
    first, second = (reduce(Add, [Var("x")] * 20 + [Var("u")]) for _ in range(2))
    other = reduce(Add, [Var("x")] * 20 + [Var("v")])
    kept = _canonical_tests([other, first, second])
    assert list(map(id, kept)) == [id(first), id(other)]


def test_postorder_lists_each_node_once_children_first():
    x, one = Var("x"), const(1)
    shared = Add(x, one)
    root = Mul(shared, Neg(shared))
    uses = {}
    assert postorder([root, shared], uses) == [x, one, shared, root.right, root]
    assert [uses[id(node)] for node in (x, one, shared, root.right, root)] == [1, 1, 3, 1, 1]
    # a budget term is a root like any other; its sub-budget is used twice
    entry, test = Entry("a", shared), Test(x)
    budget = Comp(entry, test)
    term = Comp(budget, encap({"a"}, budget))
    listed = [x, one, shared, root.right, root, entry, test, budget, term.right, term]
    assert list(map(id, postorder([root, term]))) == list(map(id, listed))
    uses = {}
    postorder([term], uses)
    assert uses[id(budget)] == 2
    # a root of every term kind, mixed with expressions: the leaves Eps and
    # Delta, and Entry, Test, Comp and Encap through their children
    delta = Delta()
    roots = [EPS, x, delta, entry, shared, test, Comp(EPS, delta), term, EPS]
    uses = {}
    order = postorder(roots, uses)
    assert len(order) == len(set(map(id, order)))
    assert list(map(id, order)) == list(map(id, [
        EPS, x, delta, one, shared, entry, test, roots[6], budget, term.right, term
    ]))
    assert [uses[id(node)] for node in order] == [3, 3, 2, 1, 2, 2, 2, 1, 2, 1, 1]
    with pytest.raises(TypeError):
        postorder([Add(x, "y")])
    with pytest.raises(TypeError):
        postorder([Comp(entry, "y")])


def test_fold_returns_unchanged_nodes():
    e = fold_constants(Add(Mul(Var("x"), Inv(Var("y"))), Neg(Abs(Var("z")))))
    assert fold_constants(e) is e
    e = Add(Var("x"), Const(2))  # a literal constant child keeps its node
    assert fold_constants(e) is e


def test_passes_run_deep_chains_and_shared_nodes_once():
    n = 20_000  # far past the recursion limit
    chain = Var("x")
    for _ in range(n):
        chain = sub(chain, const(1))
    folded = fold_constants(chain)  # each Neg(1) becomes the constant -1
    assert fold_constants(folded, {"x": const(n)}) == const(0)
    assert free_vars(chain) == {"x"}
    assert pretty(chain) == "x" + " - 1" * n
    assert fold_constants(folded, {"x": Var("y")}).left.left.right is folded.left.left.right
    assert compare(chain, folded) == 1 and compare(folded, chain) == -1  # Neg after Const
    doubled, again = Var("x"), Var("x")
    for _ in range(200):  # 2^200 paths, 201 distinct nodes
        doubled, again = Add(doubled, doubled), Add(again, again)
    assert len(postorder([doubled])) == 201
    assert fold_constants(doubled, {"x": const(1)}) == Const(Fraction(2**200))
    assert compare(doubled, again) == 0
    assert free_vars(doubled) == {"x"}


def test_pretty_spells_sums_and_quotients():
    assert pretty(sub(Var("a"), Var("b"))) == "a - b"
    assert pretty(div(Var("a"), Var("b"))) == "a / b"
    assert pretty(Inv(Var("a"))) == "1 / a"
    assert pretty(Mul(Add(Var("a"), Var("b")), Var("c"))) == "(a + b) * c"
    assert pretty(Neg(Add(Var("a"), Var("b")))) == "-(a + b)"
    assert pretty(Const(Fraction(1, 4))) == "0.25"
    assert pretty(Const(Fraction(1, 3))) == "1/3"
    assert pretty(Const(Fraction(-2))) == "-2"
    assert pretty(Abs(Var("x"))) == "abs(x)"


def test_pretty_prints_a_named_node_by_its_name():
    total, neg, inv = Add(Var("a"), Var("b")), Neg(Var("b")), Inv(Var("b"))
    names = {id(total): "T", id(neg): "N", id(inv): "R"}
    assert pretty(Mul(total, Var("c")), names) == "T * c"  # never bracketed
    assert pretty(Add(Var("a"), neg), names) == "a + N"  # no a - b sugar over a name
    assert pretty(Mul(Var("a"), inv), names) == "a * R"  # nor a / b
    assert pretty(Add(total, sub(total, Var("c")))) == "a + b + (a + b - c)"
    assert pretty(Add(total, sub(total, Var("c"))), names) == "T + (T - c)"


class LookupOnly(Mapping):
    """A mapping that answers lookups and refuses to be iterated or copied."""

    def __init__(self, items):
        self.items = items

    def __getitem__(self, key):
        return self.items[key]

    def __len__(self):
        return len(self.items)

    def __iter__(self):
        raise AssertionError("iterated")

    def keys(self):
        raise AssertionError("iterated")


def test_pretty_looks_each_name_up_and_never_copies_the_names():
    # the parser prints each label with every def read so far: a copy would cost each label them all
    total, neg = Add(Var("a"), Var("b")), Neg(Var("b"))
    names = LookupOnly({id(total): "T", id(neg): "N"})
    assert pretty(Add(total, sub(total, Var("c"))), names) == "T + (T - c)"
    assert pretty(Add(Var("a"), neg), names) == "a + N"
    assert pretty(total, names) == "T" and pretty(Var("c"), names) == "c"


def test_pretty_prints_a_leaf_as_the_stack_prints_it():
    # a leaf returns at once; inside abs(...), whose argument is never bracketed, the stack prints it
    x, named_var, named_const = Var("x"), Var("x"), Const(Fraction(7))
    names = {id(named_var): "d", id(named_const): "seven"}
    values = (Fraction(-3), Fraction(-5, 2), Fraction(1, 3), Fraction(-1, 3), Fraction(7, 8), Fraction(0))
    leaves = [x, named_var, named_const, *map(Const, values)]
    texts = [pretty(leaf, names) for leaf in leaves]
    assert texts == ["x", "d", "seven", "-3", "-2.5", "1/3", "-1/3", "0.875", "0"]
    assert texts == [pretty(Abs(leaf), names)[4:-1] for leaf in leaves]
    assert [pretty(leaf) for leaf in leaves[:3]] == ["x", "x", "7"]


def test_random_expr_is_deterministic():
    a = random_expr(random.Random(42), ("x",), 4)
    b = random_expr(random.Random(42), ("x",), 4)
    assert a == b
