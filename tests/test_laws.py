import random
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, repeat
from types import SimpleNamespace

import pytest

from tuplix import laws as L
from tuplix.algebra import DELTA, Comp, Encap, Entry, Test, denote_ground, normalize
from tuplix.expr import PAIR_STEPS, Abs, Add, Const, Var


def test_registry_is_complete():
    names = [law.name for law in L.all_laws()]
    assert len(names) == len(set(names))
    families = [L.tuplix_laws(), L.oracle_laws(), L.meadow_laws(), L.constraint_laws(), L.expr_laws()]
    assert [len(laws) for laws in families] == [17, 2, 13, 4, 3]
    assert [law.name for laws in families for law in laws] == names


def test_suite_is_deterministic():
    first = L.run_suite(L.all_laws(), trials=25, seed=9)
    second = L.run_suite(L.all_laws(), trials=25, seed=9)
    assert first == second
    assert all(r.passed and r.trials == 25 for r in first)


def test_each_law_gets_its_own_stream():
    # same seed, different law names: the generators must not be in lockstep
    def recording(law, draws):
        return L.Law(law.name, lambda rng: draws.append(rng.random()) or law.check(rng))

    commutes, associates = L.tuplix_laws()[:2]
    first, second, again = [], [], []
    laws = [recording(commutes, first), recording(associates, second), recording(commutes, again)]
    results = L.run_suite(laws, trials=10, seed=4)
    assert [r.name for r in results] == ["comp-commutes", "comp-associates", "comp-commutes"]
    assert all(r.passed for r in results)
    assert len(first) == 10 and first == again
    assert set(first).isdisjoint(second)


def test_eleven_budget_laws_hold_on_normal_forms_and_six_only_at_a_valuation():
    # ROADMAP item 3: each law's equations compared as normal forms, with no valuation. A change
    # that makes one more law hold there, such as item 20's linear forms, updates this test.
    failures = {}
    for name, kinds, equations in L._BUDGET_LAWS:
        rng = random.Random(f"0:{name}")
        draws = [L._DRAWS[kind] for kind in kinds.split()]
        failures[name] = sum(
            not all(normalize(t1) == normalize(t2) for t1, t2 in equations(*[draw(rng) for draw in draws]))
            for _ in range(300)
        )
    holding = {"comp-commutes", "comp-associates", "eps-unit", "delta-absorbs"}
    holding |= {name for name in failures if name.startswith("encap-")}
    assert len(holding) == 11
    assert {name for name, count in failures.items() if count == 0} == holding, failures


def test_suite_catches_a_false_law():
    # x composed with itself is not x, except in corner cases
    def bogus(rng):
        t = L._term(rng)
        return denote_ground(Comp(t, t), L._valuation(rng)) == denote_ground(
            t, L._valuation(rng)
        )

    results = L.run_suite([*L.all_laws(), L.Law("bogus-doubling", bogus)], 60, 0)
    by_name = {r.name: r for r in results}
    assert not by_name["bogus-doubling"].passed
    assert by_name["bogus-doubling"].failures > 0
    assert all(r.passed for name, r in by_name.items() if name != "bogus-doubling")


def test_suite_catches_a_broken_engine(monkeypatch):
    # sabotage the engine: every amount it reports is off by one
    original = L.ground_of

    def skewed(c):
        amounts = original(c)
        return None if amounts is None else {ch: v + 1 for ch, v in amounts.items()}

    monkeypatch.setattr(L, "ground_of", skewed)
    results = L.run_suite(L.oracle_laws(), trials=40, seed=2)
    assert [r.name for r in results if not r.passed] == [
        "normalize-matches-direct",
        "normalize-closed-terms",
    ]


def test_suite_catches_pair_arithmetic_that_skips_its_reduction(monkeypatch):
    # equal values must be equal pairs: a sum left unreduced breaks the meadow laws
    def unreduced(x, y):
        (a, b), (c, d) = x, y
        return a * d + b * c, b * d

    assert all(r.passed for r in L.run_suite(L.meadow_laws(), trials=200, seed=0))
    monkeypatch.setitem(PAIR_STEPS, Add, unreduced)  # the sum that the fold takes
    results = L.run_suite(L.meadow_laws(), trials=200, seed=0)
    assert [r.name for r in results if not r.passed] == ["mul-distributes", "add-inverse"]


def test_substitute_binds_fails_without_raising_when_the_fold_leaves_its_variable_free(monkeypatch):
    # a fold that ignores its bindings leaves the variable free, and evaluating the result without it would raise
    [law] = [law for law in L.expr_laws() if law.name == "substitute-binds"]
    monkeypatch.setattr(L, "fold_constants", lambda e, bindings=None: e)
    result = L.run_law(law, trials=50, seed=0)
    assert 0 < result.failures < result.trials


def test_render_results_reports_totals():
    results = L.run_suite(L.meadow_laws(), trials=7, seed=1)
    text = L.render_results(results)
    assert "add-commutes" in text
    assert "7/7" in text
    assert "all 13 laws passed" in text


def test_render_results_names_failures():
    always_false = L.Law("always-false", lambda rng: False)
    text = L.render_results(L.run_suite([always_false], trials=3, seed=0))
    assert "always-false" in text
    assert "FAIL" in text
    assert "1 law(s) failed" in text


def test_law_generators_cover_zero():
    rng = random.Random(0)
    zeros = sum(L._valuation(rng)["u"] == 0 for _ in range(200))
    assert zeros > 20  # zero-inclusive sampling is load-bearing


def test_run_law_counts_failures():
    flaky = L.Law("flaky", lambda rng: rng.random() < 0.5)
    result = L.run_law(flaky, trials=100, seed=8)
    assert result.failures > 0
    assert result.trials == 100
    assert not result.passed


def test_rational_table_is_a_quarter_zeros_and_three_copies_of_each_fraction():
    # the multiset `random_rational` drew from before the tables: zero below 0.25, else randint n and d
    fractions = Counter(Fraction(n, d) for n in range(-8, 9) for d in range(1, 9) for _ in range(3))
    assert len(L._RATIONALS) == 544
    assert Counter(L._RATIONALS) == fractions + Counter({Fraction(0): 136})
    assert L._PAIRS == tuple(r.as_integer_ratio() for r in L._RATIONALS)


@pytest.mark.parametrize("channels", [(), ("a",), ("a", "b", "c"), ("a", "b", "c", "d", "e")])
def test_subset_table_gives_each_size_the_same_share_and_each_subset_of_a_size_the_same(channels):
    table = L._subset_table(channels)
    counts = Counter(table)
    sizes = range(len(channels) + 1)
    by_size = [[frozenset(c) for c in combinations(channels, k)] for k in sizes]
    assert set(counts) == {subset for group in by_size for subset in group}
    for group in by_size:
        assert {Fraction(counts[s], len(table)) for s in group} == {Fraction(1, len(sizes) * len(group))}
    assert L._SUBSETS is L._subset_table(L._CHANNELS)


@pytest.mark.parametrize("names", [(), ("x",), ("u", "v"), ("u", "v", "w"), ("a", "b", "c", "d", "e")])
def test_leaf_table_draws_a_variable_six_times_in_ten_else_a_constant_as_random_rational(names):
    table = L._leaf_table(names)
    variables = Counter(leaf.name for leaf in table if type(leaf) is Var)
    constants = Counter(leaf.value for leaf in table if type(leaf) is Const)
    assert sum(variables.values()) + sum(constants.values()) == len(table)
    assert set(variables) == set(names)
    assert {Fraction(c, len(table)) for c in variables.values()} <= {Fraction(3, 5 * max(len(names), 1))}
    share = Fraction(2, 5) if names else 1
    rationals = Counter(L._RATIONALS)
    assert {v: Fraction(c, len(table)) for v, c in constants.items()} == {
        v: share * Fraction(c, len(L._RATIONALS)) for v, c in rationals.items()
    }
    # one shared node for each name and for each value
    assert len({id(leaf) for leaf in table}) == len(variables) + len(constants)


class _Draws:
    """A stand-in generator whose `random()` returns the given values, then `then` forever."""

    def __init__(self, *values, then):
        self.random = chain(values, repeat(then)).__next__


def test_the_ends_of_random_draw_the_first_and_last_entry_of_each_table():
    first, last = 0.0, 1 - 2**-53  # the least and greatest value `random()` returns
    zero, one = Fraction(0), Fraction(1)
    pairs = []
    check = L._on_pairs(lambda x, y: pairs.append((x, y)) is None)
    ends = [(first, zero, frozenset(), "a", Const(zero)), (last, one, frozenset("abc"), "c", Var("w"))]
    for end, value, channels, channel, leaf in ends:
        draws = _Draws(then=end)
        assert L.random_rational(draws) == value
        assert L._nums(draws, 3) == [value] * 3
        assert L._valuation(draws) == dict.fromkeys(L._NAMES, value)
        assert L._channels(draws) == channels
        assert L._channel(draws) == channel
        assert check(draws) and pairs.pop() == (value.as_integer_ratio(),) * 2
        assert L.random_expr(draws, L._NAMES, 0) == leaf
        assert L.random_expr(draws, (), 0) == Const(value)
    assert L._expr(_Draws(then=first)) == Const(zero)
    assert L._expr(_Draws(then=last)) == Abs(Abs(Abs(Var("w"))))
    c0 = Const(zero)
    assert L.random_expr(_Draws(then=first), ("u",), 3) == Add(c0, Add(c0, Add(c0, c0)))
    assert L._term(_Draws(then=first)) == Entry("a", c0)
    assert L._term(_Draws(then=last)) == DELTA
    assert L.random_term(_Draws(then=first), 3, ("a", "b"), ()) == Comp(
        Entry("a", c0), Comp(Entry("a", c0), Entry("a", c0))
    )
    assert L.random_term(_Draws(then=first), 1, (), ()) == Test(c0)
    # an entry on the last channel, with the largest amount; an encapsulation of every channel
    entry = L.random_term(_Draws(first, then=last), 1, ("a", "b", "c"), ("u", "v"))
    assert entry == Entry("c", Abs(Abs(Var("v"))))
    assert L.random_term(_Draws(0.6, then=last), 2, ("a", "b", "c"), ()) == Encap(frozenset("abc"), DELTA)
    assert L.random_term(_Draws(0.6, first, then=last), 2, ("a",), ()) == Encap(frozenset(), DELTA)


@pytest.mark.parametrize("law", L.all_laws(), ids=lambda law: law.name)
def test_every_law_draws_only_through_random(law):
    # each draw of a law body is one `random()`, as the model's are: a generator with no other
    # method runs every law, also when each draw is the least or greatest value `random()` returns
    stream = SimpleNamespace(random=random.Random(law.name).random)
    for draws in (_Draws(then=0.0), _Draws(then=1 - 2**-53), stream):
        assert all(law.check(draws) for _ in range(20))
