import copy
import dataclasses
import random
import sys
from fractions import Fraction
from itertools import repeat

import pytest

from tuplix.algebra import (
    DELTA,
    EPS,
    CanonicalTuplix,
    Comp,
    Delta,
    Encap,
    Entry,
    Eps,
    Test,
    apply_test_substitution,
    compose,
    denote_ground,
    encap,
    ground_columns,
    ground_of,
    normalize,
)
from tuplix import algebra, bundled, expr
from tuplix.cli import parse_bindings_text
from tuplix.dsl import elaborate, parse
from tuplix.expr import (
    Abs,
    Add,
    Const,
    Inv,
    LinearForms,
    Mul,
    Neg,
    UnboundVariableError,
    Var,
    compare,
    evaluate,
    free_vars,
    postorder,
    pretty,
    sub,
)
from tuplix.laws import random_expr, random_rational, random_term
from tuplix.meadow import minv

EMPTY = CanonicalTuplix(False, (), (), ())


def const(value):
    return Const(Fraction(value))


def ent(channel, n, d=1):
    return Entry(channel, Const(Fraction(n, d)))


def to_term(c):
    """A term whose normal form is the given canonical form."""
    if c.is_null:
        return DELTA
    return compose(*(Test(e) for e in c.tests), *(Entry(ch, amount) for ch, amount in c.entries))


def random_tuplix(size, channels=("a", "b", "c"), names=(), seed=0):
    """A random term of roughly `size` nodes, the same for the same seed."""
    if size < 1:
        raise ValueError("size must be >= 1")
    return random_term(random.Random(seed), size, tuple(channels), tuple(names))


def test_transfer_example():
    # two transfers on b cancel against a third; only the ends remain
    p = compose(ent("a", -30), ent("b", 10), ent("b", 20))
    q = compose(ent("b", -30), ent("c", 30))
    c = normalize(encap({"b"}, Comp(p, q)))
    assert not c.is_null
    assert c.tests == ()
    assert ground_of(c) == {"a": Fraction(-30), "c": Fraction(30)}


def test_zero_entries_discharge_to_empty():
    c = normalize(encap({"a", "b"}, Comp(ent("a", 0), ent("b", 0))))
    assert c == EMPTY
    assert ground_of(c) == {}


def test_zero_entry_is_not_empty():
    # a(0) still occupies channel a; only encapsulation removes it
    c = normalize(ent("a", 0))
    assert c != EMPTY
    assert ground_of(c) == {"a": Fraction(0)}
    assert denote_ground(ent("a", 0)) != denote_ground(EPS)


def test_entries_accumulate():
    t = Comp(ent("a", 5), Comp(ent("a", 7), ent("b", 1)))
    assert ground_of(normalize(t)) == denote_ground(t) == {"a": Fraction(12), "b": Fraction(1)}


def test_delta_absorbs_and_is_reported():
    c = normalize(Comp(ent("a", 5), DELTA))
    assert c.is_null
    assert ground_of(c) is None
    assert [v.label for v in c.violations] == ["delta"]


def test_closed_tests_decide():
    assert normalize(Test(const(0))) == EMPTY
    failing = normalize(Test(sub(const(2), const(1)), label="demand"))
    assert failing.is_null
    assert failing.violations[0].label == "demand"
    assert failing.violations[0].value == Fraction(1)


def test_open_tests_stay_residual():
    c = normalize(Comp(Test(Var("u")), ent("a", 3)))
    assert not c.is_null
    assert c.tests == (Var("u"),)
    assert ground_of(c) is None  # still open
    closed = normalize(Comp(Test(Var("u")), ent("a", 3)), {"u": Fraction(0)})
    assert ground_of(closed) == {"a": Fraction(3)}


def test_valuation_closes_amounts():
    c = normalize(Entry("a", Add(Var("u"), Var("v"))), {"u": Fraction(1), "v": Fraction(2)})
    assert ground_of(c) == {"a": Fraction(3)}


def test_a_bound_budget_folds_without_a_const_per_subterm(monkeypatch):
    # the paper's department budget with every parameter bound: the bound
    # values enter the fold as integer pairs, its closed subterms fold as
    # pairs and its 3 enc{} balances settle as pairs, so a Const is made only
    # for each of the 2 entries reported, never for a balance or for each of
    # the 55 parameters or 275 expression nodes
    total = elaborate(parse(bundled("msc.bgt").read_text(encoding="utf-8")), "Total")
    bindings = bundled("scenario.bindings").read_text(encoding="utf-8")
    valuation = parse_bindings_text(bindings, "scenario.bindings")
    valuation["k"] = Fraction(424, 1495)
    made = []
    init = Const.__init__

    def counted(self, value):
        made.append(value)
        init(self, value)

    monkeypatch.setattr(Const, "__init__", counted)
    c = normalize(total, valuation)
    assert ground_of(c) == {"e": Fraction(25116, 5), "in": Fraction(-7176)}
    assert made == [Fraction(25116, 5), Fraction(-7176)]


def count_fractions(monkeypatch):
    """The arguments of every Fraction made from here on, one list entry each."""
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return made


def test_a_bound_flat_composition_normalizes_without_a_fraction_per_entry(monkeypatch):
    # each amount x + i folds to a pair and the entries' forms add pairs, so
    # the one Fraction made is the value of the sum, at any length
    x = Fraction(1, 3)
    counts = []
    for n in (500, 1000):
        flat = compose(*(Entry("a", Add(Var("x"), const(i))) for i in range(n)))
        valuation = {"x": x}
        with monkeypatch.context() as patch:
            made = count_fractions(patch)
            c = normalize(flat, valuation)
        assert ground_of(c) == {"a": n * x + n * (n - 1) // 2}
        counts.append(len(made))
    assert counts == [1, 1]


def calls_of(function, run):
    """What run() returns, and how many times it called the Python function."""
    code, calls = function.__code__, 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is code

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def test_distinct_open_tests_are_ordered_and_deduplicated_by_their_keys_alone():
    # 400 tests u_i <= v_i, whose sort keys differ within their first 16
    # tokens, so the keys' compare tie-breaker never runs
    n = 400
    text = "".join(f"param u{i}\nparam v{i}\n" for i in range(n))
    text += "budget T = " + " | ".join(f"test(u{i} <= v{i})" for i in reversed(range(n))) + "\n"
    term = elaborate(parse(text), "T")
    c, calls = calls_of(compare, lambda: normalize(term))
    assert len(c.tests) == n and calls == 0
    assert [pretty(t) for t in c.tests[:2]] == ["abs(v0 - u0) - (v0 - u0)", "abs(v1 - u1) - (v1 - u1)"]
    assert not hasattr(algebra, "compare")  # sort_key is the one order key of the normal form


def test_pivot_gives_its_coefficient_and_value_as_pairs_without_a_fraction(monkeypatch):
    x, y = Var("x"), Var("y")
    linear = LinearForms([Neg(Add(Mul(const(2), x), Mul(y, Inv(const(3)))))])  # -(2x + y/3)
    constant = LinearForms([Add(sub(x, x), const(Fraction(-1, 2)))])
    made = count_fractions(monkeypatch)
    assert linear.pivot() == (("x", (-2, 1)), None)
    assert constant.pivot() == (None, (-1, 2))
    assert made == []


# the bindings of the README's sweep example: every parameter of J but k
README_SWEEP = {
    "cpec": 1, "cpdg": 10, "escf": Fraction(1, 5), "bbpp": 8,
    "A:nec": 30, "B:nec": 20, "C:nec": 10, "A:ndg": 4, "B:ndg": 1, "C:ndg": 1,
}


def test_compiling_the_residual_of_j_makes_no_fraction(monkeypatch):
    # the forms keep their constants and coefficients as integer pairs, and
    # the columns run on integers, so compiling and running the residual
    # makes no Fraction at all
    j = elaborate(parse(bundled("msc.bgt").read_text(encoding="utf-8")), "J")
    c = normalize(j, {name: Fraction(value) for name, value in README_SWEEP.items()})
    assert len(postorder([*c.tests, *(amount for _, amount in c.entries)])) > 50
    made = count_fractions(monkeypatch)
    ok, amounts = ground_columns(c, {"k": ([0, 1, 4], 4)}, 3)  # k = 0, 1/4, 1 over one denominator
    assert made == []
    assert [c.entries[i][0] for i in range(5)] == ["a", "b", "c", "e", "in"]
    assert ok == [True] * 3
    assert [list(zip(*column)) for column in amounts] == [
        [(52, 1), (51, 1), (48, 1)],
        [(24, 1), (25, 1), (28, 1)],
        [(20, 1)] * 3,
        [(24, 1)] * 3,
        [(-120, 1)] * 3,
    ]
    # a denominator per row, in lowest terms, gives the same columns
    assert ground_columns(c, {"k": ([0, 1, 1], [1, 4, 1])}, 3) == (ok, amounts)


def test_violations_collect_across_composition():
    t = Comp(Test(const(1), label="first"), Comp(ent("a", 1), Test(const(2), label="second")))
    c = normalize(t)
    assert c.is_null
    assert [v.label for v in c.violations] == ["first", "second"]
    assert [v.value for v in c.violations] == [Fraction(1), Fraction(2)]


def test_encap_balance_failure_names_channel():
    c = normalize(encap({"a"}, Comp(ent("a", 2), ent("b", 1)), span="f:3:1"))
    assert c.is_null
    v = c.violations[0]
    assert v.label == "enc{a}"
    assert v.span == "f:3:1"
    assert v.value == Fraction(2)


def test_encap_open_balance_becomes_test():
    c = normalize(encap({"a"}, Entry("a", Var("u"))))
    assert c.tests == (Var("u"),)
    assert c.entries == ()


def test_null_body_settles_nothing():
    # the delta makes enc{a}'s body null, so its unbalanced a(1) is not reported
    t = Comp(encap({"a"}, Comp(ent("a", 1), DELTA)), Test(const(2), label="late"))
    assert [v.label for v in normalize(t).violations] == ["delta", "late"]


def test_deep_encap_nesting_normalizes():
    # 20,000 levels of enc{c}(c(x) | ... | c(-x)), far past the recursion limit
    x = Var("x")
    term = EPS
    for _ in range(20_000):
        term = encap({"c"}, compose(Entry("c", x), term, Entry("c", Neg(x))))
    assert normalize(term).tests == (Add(x, Neg(x)),)
    assert normalize(term, {"x": Fraction(3)}) == EMPTY


def test_deep_encap_leftovers_reach_the_top():
    # enc{b}(a(1) | enc{b}(a(1) | ...)): channel a passes up through every level
    term = ent("a", 1)
    for _ in range(20_000):
        term = encap({"b"}, Comp(ent("a", 1), term))
    assert ground_of(normalize(term)) == {"a": Fraction(20_001)}


def test_terms_of_20000_entries_compare_and_hash_without_recursion():
    # two compositions built apart, under an enc{}, with a shared sub-budget
    # used twice and every expression kind; spans and labels take no part
    x = Var("x")

    def build(last, span):
        entries = [Entry("a", Add(x, Const(Fraction(i)))) for i in range(20_000)]
        test = Test(Abs(Mul(x, Inv(Neg(Var("y"))))), label=span)
        shared = compose(*entries, test, ent("a", last))
        return encap({"b"}, Comp(shared, shared), span=span)

    first, second, other = build(1, None), build(1, "f:1:1"), build(2, None)
    assert first == second and hash(first) == hash(second)
    assert first != other
    assert first != encap({"b"}, Comp(first.body.left, EPS)) and first != EPS
    assert Delta("f:2:3") == DELTA and hash(Delta("f:2:3")) == hash(DELTA)


def test_hashing_a_term_of_20000_entries_reads_only_a_prefix(monkeypatch):
    # the hash is that of a bounded preorder prefix: it walks nothing below it
    first, second = (compose(*(Entry("a", Add(Var("x"), const(i))) for i in range(20_000))) for _ in "ab")
    walks = []
    monkeypatch.setattr(expr, "postorder", lambda *args: walks.append(args) or postorder(*args))
    assert hash(first) == hash(second) and walks == []


def test_encap_missing_channel_is_identity():
    assert normalize(encap({"z"}, ent("a", 4))) == normalize(ent("a", 4))


def test_normalization_is_stable_under_reordering():
    rng = random.Random(2)
    for trial in range(150):
        t1 = random_tuplix(rng.randint(2, 7), names=("u", "v"), seed=trial)
        t2 = random_tuplix(rng.randint(1, 5), names=("u", "v"), seed=1000 + trial)
        left = normalize(Comp(t1, t2))
        right = normalize(Comp(t2, t1))
        # identical canonical output, not merely equivalent
        assert left.tests == right.tests
        assert left.entries == right.entries
        assert left.is_null == right.is_null


def test_normalize_idempotent_through_to_term():
    rng = random.Random(6)
    for trial in range(150):
        t = random_tuplix(rng.randint(1, 7), names=("u", "v"), seed=5000 + trial)
        c = normalize(t)
        again = normalize(to_term(c))
        assert again.tests == c.tests
        assert again.entries == c.entries
        assert again.is_null == c.is_null


def test_normalize_agrees_with_direct_denotation():
    rng = random.Random(13)
    for trial in range(300):
        t = random_tuplix(rng.randint(1, 6), seed=9000 + trial)  # closed
        assert ground_of(normalize(t)) == denote_ground(t)


def ground_at(c, ok, amounts):
    """The rows of `ground_columns` as the oracle writes them: None, or a channel -> amount dict."""
    channels = [channel for channel, _ in c.entries]
    rows = zip(*(map(Fraction, *column) for column in amounts)) if amounts else repeat(())
    return [dict(zip(channels, row)) if fine else None for fine, row in zip(ok, rows)]


def test_ground_of_at_a_valuation_agrees_with_the_oracle():
    # normalize under x alone, compile the residual form, then run it at a
    # column of k; a term composed with itself sums each amount node with
    # itself, so its residual shares subterms, and an enc{} over two copies
    # of that takes a shared part at two levels and settles counted summands
    rng = random.Random(29)
    for trial in range(300):
        t = random_tuplix(rng.randint(1, 40), names=("x", "k"), seed=7000 + trial)
        x = random_rational(rng)
        ks = (Fraction(0), random_rational(rng))
        # k in lowest terms row by row, and as numerators over one denominator not in lowest terms
        shared = 6 * ks[1].denominator
        k_columns = (
            ([k.numerator for k in ks], [k.denominator for k in ks]),
            ([int(k * shared) for k in ks], shared),
        )
        tt = Comp(t, t)
        for term in (t, tt, encap({"a"}, Comp(tt, tt))):
            c = normalize(term, {"x": x})
            for k_column in k_columns:
                ok, amounts = ground_columns(c, {"k": k_column}, 2)
                assert ground_at(c, ok, amounts) == [denote_ground(term, {"x": x, "k": k}) for k in ks]
                assert len(amounts) == len(c.entries)
                for column in amounts:  # lowest terms, positive denominators, at every row
                    assert all(Fraction(*p).as_integer_ratio() == p for p in zip(*column))


def test_ground_columns_of_a_form_null_at_every_row():
    # test(x * x + 1) is nonzero at every x: the form is open, and every row is null
    x = Var("x")
    c = normalize(Comp(Test(Add(Mul(x, x), const(1))), Entry("a", x)))
    assert not c.is_null and c.tests
    assert ground_columns(c, {"x": ([0, -1, 5], [1, 1, 2])}, 3)[0] == [False, False, False]
    assert ground_columns(c, {"x": ([0, -2, 5], 2)}, 3)[0] == [False, False, False]
    assert ground_columns(normalize(DELTA), {}, 2) == ([False, False], [])
    # no tests and no channels: each row is the empty budget
    assert ground_columns(normalize(EPS), {}, 2) == ([True, True], [])


def test_free_vars_tuplix():
    t = Comp(Entry("a", Var("u")), encap({"a"}, Test(Var("v"))))
    assert free_vars(t) == {"u", "v"}


def test_denote_ground_requires_closed_terms():
    with pytest.raises(UnboundVariableError, match="unbound variable: u") as raised:
        denote_ground(Entry("a", Var("u")))
    assert raised.value.name == "u"


def test_expressions_and_budget_terms_are_not_taken_for_each_other():
    with pytest.raises(TypeError, match="not a budget term"):
        normalize(Var("x"))
    with pytest.raises(TypeError, match="not a budget term"):
        denote_ground(Var("x"))
    with pytest.raises(TypeError, match="not an expression"):
        evaluate(EPS, {})
    assert (Var("x") == "x") is False  # a node is equal to no other kind of object


def test_a_wrong_layer_error_names_the_kind_not_the_node():
    # the repr of a shared term doubles with each level; the message stays short at any depth
    expression, term = Var("x"), ent("a", 1)
    for _ in range(40):
        expression, term = Add(expression, expression), Comp(term, term)
    for call, message in (
        (lambda: normalize(expression), "not a budget term: Add"),
        (lambda: denote_ground(expression), "not a budget term: Add"),
        (lambda: evaluate(term, {}), "not an expression: Comp"),
    ):
        with pytest.raises(TypeError) as raised:
            call()
        assert str(raised.value) == message and len(message) < 100


def test_the_oracles_error_contract():
    # both sides of a composition are denoted before either is read for None
    with pytest.raises(UnboundVariableError, match="unbound variable: u") as raised:
        denote_ground(Comp(DELTA, Entry("a", Var("u"))))
    assert raised.value.name == "u"
    with pytest.raises(TypeError, match="not an expression: int"):
        evaluate(1, {})
    with pytest.raises(TypeError, match="not a budget term: object"):
        denote_ground(object())


def reference_evaluate(e, valuation):
    """`evaluate` as it was written with class patterns, which the kind tests must match exactly."""
    match e:
        case Const(value):
            return value
        case Var(name):
            try:
                return valuation[name]
            except KeyError:
                raise UnboundVariableError(name) from None
        case Add(left, right):
            return reference_evaluate(left, valuation) + reference_evaluate(right, valuation)
        case Mul(left, right):
            return reference_evaluate(left, valuation) * reference_evaluate(right, valuation)
        case Neg(arg):
            return -reference_evaluate(arg, valuation)
        case Inv(arg):
            return minv(reference_evaluate(arg, valuation))
        case Abs(arg):
            return abs(reference_evaluate(arg, valuation))
    raise TypeError(f"not an expression: {type(e).__qualname__}")


def reference_denote_ground(t, v):
    """`denote_ground` as it was written with class patterns, over `reference_evaluate`."""
    match t:
        case Eps():
            return {}
        case Delta():
            return None
        case Entry(channel, amount):
            return {channel: reference_evaluate(amount, v)}
        case Test(arg):
            return {} if reference_evaluate(arg, v) == 0 else None
        case Comp(left, right):
            a = reference_denote_ground(left, v)
            b = reference_denote_ground(right, v)
            if a is None or b is None:
                return None
            for channel, amount in b.items():
                a[channel] = a.get(channel, Fraction(0)) + amount
            return a
        case Encap(channels, body):
            amounts = reference_denote_ground(body, v)
            if amounts is None:
                return None
            for channel in channels:
                if channel in amounts and amounts.pop(channel) != 0:
                    return None
            return amounts
    raise TypeError(f"not a budget term: {type(t).__qualname__}")


def outcome(oracle, node, valuation):
    """What an oracle gives: ("value", its result, with a dict's entries in order) or ("unbound", the name)."""
    try:
        result = oracle(node, valuation)
    except UnboundVariableError as raised:
        return "unbound", raised.name
    return "value", list(result.items()) if type(result) is dict else result


def test_the_oracles_agree_exactly_with_their_class_pattern_references():
    rng = random.Random(35)
    names = ("u", "v", "w")
    seen = {"null": 0, "empty": 0, "zero entry": 0, "unbound": 0}
    for _ in range(2_000):
        # law-table values, a quarter of them zero; now and then a name is left unbound
        valuation = {name: random_rational(rng) for name in names if rng.random() < 0.95}
        term = random_term(rng, 1 + rng.randrange(8), ("a", "b", "c"), names)
        expected = outcome(reference_denote_ground, term, valuation)
        assert outcome(denote_ground, term, valuation) == expected
        e = random_expr(rng, names, rng.randrange(6))
        assert outcome(evaluate, e, valuation) == outcome(reference_evaluate, e, valuation)
        kind, result = expected
        seen["unbound"] += kind == "unbound"
        seen["null"] += kind == "value" and result is None
        seen["empty"] += result == []
        seen["zero entry"] += kind == "value" and result is not None and any(a == 0 for _, a in result)
    assert min(seen.values()) >= 50, seen


def test_substitution_solves_entry_amounts():
    # test(x - 5) pins x, so a(x) becomes a(5)
    c = normalize(Comp(Test(sub(Var("x"), const(5))), Entry("a", Var("x"))))
    s = apply_test_substitution(c)
    assert dict(s.entries)["a"] == const(5)
    assert len(s.tests) == 1  # the solved test is kept


def test_substitution_prefers_left_variable():
    c = normalize(Comp(Test(sub(Var("x"), Var("y"))), Entry("a", Add(Var("x"), Var("y")))))
    s = apply_test_substitution(c)
    # x := y, so the amount mentions only y
    assert free_vars(to_term(s)) <= {"y", "x"}
    assert dict(s.entries)["a"] == Add(Var("y"), Var("y"))


def test_substitution_chains():
    t = compose(
        Test(sub(Var("x"), Var("y"))),
        Test(sub(Var("y"), const(2))),
        Entry("a", Var("x")),
    )
    s = apply_test_substitution(normalize(t))
    assert dict(s.entries)["a"] == const(2)


def test_substitution_preserves_denotation():
    rng = random.Random(21)
    t = compose(
        Test(sub(Var("x"), Var("y"))),
        Entry("a", Mul(Var("x"), Var("y"))),
        Entry("b", Var("y")),
    )
    s = to_term(apply_test_substitution(normalize(t)))
    for _ in range(200):
        x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        y = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        assert denote_ground(t, {"x": x, "y": y}) == denote_ground(s, {"x": x, "y": y})


def test_substitution_reveals_contradictions():
    t = compose(Test(sub(Var("x"), const(1))), Test(sub(Var("x"), const(2))))
    s = apply_test_substitution(normalize(t))
    assert s.is_null
    assert len(s.violations) == 1


def test_substitution_rejects_null_input():
    with pytest.raises(ValueError):
        apply_test_substitution(normalize(DELTA))


def test_substitution_solves_one_of_two_mutually_dependent_tests():
    # x = y + 1 solves x; y = x - 1 then reads y - (y + 1 + -1), which is 0 and dropped
    t = compose(
        Test(sub(Var("x"), Add(Var("y"), const(1)))),
        Test(sub(Var("y"), Add(Var("x"), Neg(const(1))))),
        Entry("a", Var("x")),
    )
    s = apply_test_substitution(normalize(t))
    assert s == CanonicalTuplix(
        False, (sub(Var("x"), Add(Var("y"), const(1))),), (("a", Add(Var("y"), const(1))),)
    )


def test_substitution_drops_tests_that_are_identically_zero():
    zero = sub(Var("y"), Add(Add(Var("y"), const(1)), const(-1)))
    c = normalize(Comp(Test(zero), Entry("a", Var("y"))))
    assert c.tests == (zero,)  # folding keeps it
    assert apply_test_substitution(c) == CanonicalTuplix(False, (), (("a", Var("y")),))


def test_substitution_keeps_a_solved_test_as_x_minus_r():
    t = compose(
        Test(sub(Mul(const(3), Abs(Var("y"))), Var("x"))),
        Test(sub(const(5), Var("z"))),
        Entry("a", Add(Var("x"), Var("z"))),
    )
    c = normalize(t)
    assert [pretty(e) for e in c.tests] == ["5 - z", "3 * abs(y) - x"]
    s = apply_test_substitution(c)
    assert [pretty(e) for e in s.tests] == ["x - 3 * abs(y)", "z + -5"]
    assert pretty(dict(s.entries)["a"]) == "3 * abs(y) + 5"


def test_substitution_folds_a_def_shared_by_entries_and_a_test_once():
    program = "param x\nparam y\ndef D = abs(y) + x\nbudget B = test(x == 2) | a(D) | b(D) | test(D <= 5)\n"
    s = apply_test_substitution(normalize(elaborate(parse(program), "B")))
    amounts = dict(s.entries)
    assert pretty(amounts["a"]) == "abs(y) + 2"
    assert amounts["a"] is amounts["b"]
    assert any(node is amounts["a"] for node in postorder([s.tests[-1]]))


def test_substitution_solves_a_test_linear_in_a_variable():
    # 2 * (x + 3 * y * y) - 4 pins x to 2 - 3 * y * y: x is under a constant factor, y * y an atom
    t = Comp(
        Test(Add(Mul(const(2), Add(Var("x"), Mul(Mul(const(3), Var("y")), Var("y")))), const(-4))),
        Entry("a", Var("x")),
    )
    s = apply_test_substitution(normalize(t))
    assert free_vars(to_term(s)) == {"x", "y"}
    assert free_vars(dict(s.entries)["a"]) == {"y"}
    for y in (Fraction(0), Fraction(1, 3), Fraction(-2)):
        x = 2 - 3 * y * y
        assert denote_ground(to_term(s), {"x": x, "y": y}) == {"a": x}
        assert denote_ground(to_term(s), {"x": x + 1, "y": y}) is None


def test_substitution_agrees_with_the_oracle_on_random_terms():
    # Each solved test reads x - r with r free of every solved variable; the
    # valuation puts x at r's value, so that the test holds as often as not.
    rng = random.Random(11)
    names = ("u", "v", "w")
    for _ in range(10_000):
        t = random_term(rng, rng.randint(1, 8), ("a", "b"), names)
        partial = {name: random_rational(rng) for name in names if rng.random() < 0.3}
        c = normalize(t, partial)
        if c.is_null:
            continue
        s = apply_test_substitution(c)
        full = {**{name: random_rational(rng) for name in names}, **partial}
        for test in s.tests:
            if type(test) is Add and type(test.left) is Var and rng.random() < 0.9:
                if test.left.name not in free_vars(test.right):
                    full[test.left.name] = -evaluate(test.right, full)
        assert denote_ground(to_term(s), full) == denote_ground(t, full)


def test_random_tuplix_is_deterministic_and_varied():
    assert random_tuplix(6, seed=4) == random_tuplix(6, seed=4)
    kinds = set()
    for seed in range(60):
        t = random_tuplix(6, names=("u",), seed=seed)
        stack = [t]
        while stack:
            node = stack.pop()
            kinds.add(type(node).__name__)
            if isinstance(node, Comp):
                stack.extend((node.left, node.right))
            elif isinstance(node, Encap):
                stack.append(node.body)
    assert kinds >= {"Eps", "Delta", "Entry", "Test", "Comp", "Encap"}
    with pytest.raises(ValueError):
        random_tuplix(0)


def test_entry_rejects_bad_channel():
    with pytest.raises(ValueError):
        Entry("9bad", const(1))
    with pytest.raises(ValueError):
        Encap(frozenset({"ok", "not ok"}), EPS)


def test_canonical_entry_map():
    c = normalize(Comp(ent("b", 2), ent("a", 1)))
    assert c.entries == (("a", const(1)), ("b", const(2)))


def test_repr_of_terms_is_the_dataclass_text_at_any_depth():
    t = compose(
        Entry("a", Neg(Var("x"))), Test(Var("y"), "g", "f:1:2"), encap(["a"], EPS, "f:2:3"), DELTA
    )
    assert repr(t) == (
        "Comp(left=Comp(left=Comp(left=Entry(channel='a', amount=Neg(arg=Var(name='x'))), "
        "right=Test(arg=Var(name='y'), label='g', span='f:1:2')), "
        "right=Encap(channels=frozenset({'a'}), body=Eps(), span='f:2:3')), right=Delta(span=None))"
    )
    long = compose(*[Entry("a", Const(Fraction(i))) for i in range(5_000)])
    text = repr(long)
    assert text.startswith("Comp(left=" * 4_999 + "Entry(channel='a', amount=Const(value=Fraction(0, 1)))")
    assert text.endswith("right=Entry(channel='a', amount=Const(value=Fraction(4999, 1))))")


def test_normal_forms_of_long_sums_compare_and_hash_without_recursion():
    # a(x + 1 + ... + 1) with 5,000 terms folds to a chain 5,000 deep
    ones = [" + 1"] * 5_000
    forms = []
    for terms in (ones, ones, ones[:-1] + [" + 2"]):
        program = parse("param x\nbudget B = a(x" + "".join(terms) + ")\n")
        forms.append(normalize(elaborate(program, "B")))
    same, again, changed = forms
    assert same == again and same.entries[0][1] is not again.entries[0][1]
    assert hash(same) == hash(again)
    assert same != changed


def test_every_kind_of_node_is_slotted_and_frozen():
    kinds = {cls for module in (expr, algebra) for cls in vars(module).values()
             if isinstance(cls, type) and issubclass(cls, expr._Node) and cls is not expr._Node}
    # numbered once each, in the order of definition
    assert sorted(cls._kind for cls in kinds) == list(range(13))
    value_of = {"value": Fraction(1, 3), "name": "x", "channel": "a", "channels": frozenset({"a"}),
                "label": "x <= 1", "span": "1:1"}  # any other field holds a node
    for cls in kinds:
        names = cls.__match_args__  # the fields, in order: the slots of its layout, if any, then its own
        slots = tuple(name for base in reversed(cls.__mro__) for name in vars(base).get("__slots__", ()))
        # a label or a span is read through algebra._Text, and kept in its slot with a leading underscore
        fields = tuple(f"_{name}" if name in ("label", "span") else name for name in names)
        assert slots == fields and not dataclasses.is_dataclass(cls), cls
        node = cls(*(value_of.get(name, Var("x")) for name in names))
        assert not hasattr(node, "__dict__"), cls
        for name in names:
            with pytest.raises(AttributeError):
                setattr(node, name, getattr(node, name))
            with pytest.raises(AttributeError):
                delattr(node, name)
        with pytest.raises(AttributeError):
            node.other = 1
        # the parser gives a def that is another def's body a copy of its own
        twin = copy.copy(node)
        assert twin == node and twin is not node, cls
        assert all(getattr(twin, name) is getattr(node, name) for name in names), cls
