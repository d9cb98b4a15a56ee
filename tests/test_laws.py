import random

from tuplix import laws as L
from tuplix.algebra import Comp, denote_ground


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
    [a] = L.run_suite([L.tuplix_laws()[0]], trials=10, seed=4)
    [b] = L.run_suite([L.tuplix_laws()[1]], trials=10, seed=4)
    assert (a.name, b.name) == ("comp-commutes", "comp-associates")
    assert a.failures == b.failures == 0


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
    monkeypatch.setattr(L, "add_pairs", unreduced)
    results = L.run_suite(L.meadow_laws(), trials=200, seed=0)
    assert [r.name for r in results if not r.passed] == ["mul-distributes", "add-inverse"]


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
