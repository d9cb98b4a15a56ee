"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line with its measured time (run with -s to see them all).
Tolerances are exact rational equality throughout; the only randomness
is seeded."""

import random
import time
from fractions import Fraction

from case_study import (
    PERTURBABLE,
    PROGRAMS,
    consistent_scenario,
    expr_formulas,
    straight_line,
)
from tuplix import bundled
from tuplix.algebra import (
    Comp,
    Entry,
    Test,
    compose,
    denote_ground,
    encap,
    ground_of,
    normalize,
)
from tuplix.cli import main
from tuplix.constraints import conjunction_expr
from tuplix.dsl import elaborate, parse
from tuplix.expr import Const, evaluate, free_vars
from tuplix.laws import (
    constraint_laws,
    meadow_laws,
    oracle_laws,
    random_rational,
    run_suite,
    tuplix_laws,
)

MSC = parse(bundled("msc.bgt").read_text(encoding="utf-8"))


def report(n, ok, elapsed, bound, detail):
    status = "PASS" if ok and elapsed < bound else "FAIL"
    print(f"ACCEPTANCE {n}: {status} ({elapsed:.2f}s < {bound:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < bound, f"took {elapsed:.2f}s, bound {bound}s"


def ent(channel, n):
    return Entry(channel, Const(Fraction(n)))


def agree_on_samples(e1, e2, trials, seed):
    """Equal values at `trials` seeded random valuations; True only says no difference was drawn."""
    rng = random.Random(seed)
    names = sorted(free_vars(e1, e2))
    for _ in range(trials):
        valuation = {name: random_rational(rng) for name in names}
        if evaluate(e1, valuation) != evaluate(e2, valuation):
            return False
    return True


def test_acceptance_1_transfer_example():
    t0 = time.perf_counter()
    p = compose(ent("a", -30), ent("b", 10), ent("b", 20))
    q = compose(ent("b", -30), ent("c", 30))
    c = normalize(encap({"b"}, Comp(p, q)))
    got = ground_of(c)
    ok = (
        not c.is_null
        and c.tests == ()
        and got == {"a": Fraction(-30), "c": Fraction(30)}
    )
    report(1, ok, time.perf_counter() - t0, 1.0, f"entries {got}")


def test_acceptance_2_zero_entries_discharge():
    t0 = time.perf_counter()
    c = normalize(encap({"a", "b"}, Comp(ent("a", 0), ent("b", 0))))
    ok = not c.is_null and c.tests == () and c.entries == ()
    report(2, ok, time.perf_counter() - t0, 1.0, "empty canonical form")


def test_acceptance_3_symbolic_synchronization():
    t0 = time.perf_counter()
    trials = 1000
    c = normalize(elaborate(MSC, "Total"))
    forms = expr_formulas()
    entries = dict(c.entries)
    channels_ok = not c.is_null and sorted(entries) == ["e", "in"]
    in_ok = channels_ok and agree_on_samples(entries["in"], forms["in"], trials, seed=301)
    e_ok = channels_ok and agree_on_samples(entries["e"], forms["e"], trials, seed=302)
    engine_conj = conjunction_expr(list(c.tests))
    oracle_conj = conjunction_expr(forms["phis"] + [forms["psis"][x] for x in PROGRAMS])
    tests_ok = agree_on_samples(engine_conj, oracle_conj, trials, seed=303)
    ok = channels_ok and in_ok and e_ok and tests_ok
    report(
        3,
        ok,
        time.perf_counter() - t0,
        10.0,
        f"channels={sorted(entries)} in={in_ok} e={e_ok} tests={tests_ok} ({trials} valuations each)",
    )


def test_acceptance_4_ground_synchronization(tmp_path):
    scenarios = 24
    term = elaborate(MSC, "Total")
    rng = random.Random(40)
    worst = 0.0
    checked = 0
    perturbed_checked = 0
    for i in range(scenarios):
        t0 = time.perf_counter()
        v = consistent_scenario(rng)
        oracle = straight_line(v)
        assert oracle.feasible

        f = tmp_path / f"s{i}.bindings"
        f.write_text("".join(f"{name} = {value}\n" for name, value in v.items()), encoding="utf-8")
        code = main(["check", str(bundled("msc.bgt")), "--budget", "Total", "--bindings", str(f)])
        assert code == 0, f"scenario {i} rejected"
        entries = ground_of(normalize(elaborate(MSC, "Total"), v))
        assert entries == oracle.entries, f"scenario {i}: {entries} != {oracle.entries}"

        for x in PROGRAMS:
            for p in PERTURBABLE:
                w = dict(v)
                w[f"{x}:{p}"] += 1
                c = normalize(term, w)
                expected = straight_line(w).psi[x]
                assert c.is_null, f"scenario {i}: bump {x}:{p} not caught"
                assert len(c.violations) == 1
                viol = c.violations[0]
                assert viol.label == f"enc{{{x.lower()}}}", f"misattributed: {viol}"
                assert viol.value == expected != 0
                perturbed_checked += 1
        worst = max(worst, time.perf_counter() - t0)
        checked += 1
    report(
        4,
        checked == scenarios and perturbed_checked == scenarios * 24,
        worst,
        1.0,
        f"{checked} scenarios, {perturbed_checked} perturbations, worst case per scenario",
    )


def domain_valuation(rng):
    """A valuation inside the model's meaning: counts and prices are
    nonnegative, the two negotiated shares sit in [0, 1]."""
    v = {
        "cpec": Fraction(rng.randint(0, 24), rng.randint(1, 4)),
        "cpdg": Fraction(rng.randint(0, 120), rng.randint(1, 4)),
        "escf": Fraction(rng.randint(0, 10), 10),
        "k": Fraction(rng.randint(0, 10), 10),
        "bbpp": Fraction(rng.randint(0, 60), rng.randint(1, 3)),
    }
    for x in PROGRAMS:
        v[f"{x}:nec"] = Fraction(rng.randint(0, 9) if rng.random() < 0.8 else 0)
        v[f"{x}:ndg"] = Fraction(rng.randint(0, 9) if rng.random() < 0.8 else 0)
    return v


def test_acceptance_5_share_constraints_are_redundant():
    t0 = time.perf_counter()
    trials = 1000
    forms = expr_formulas()
    j = elaborate(MSC, "J")
    augmented = compose(j, Test(forms["sigma_dgc"]), Test(forms["sigma_ecc"]))
    rng = random.Random(50)
    agree = 0
    nulls = 0
    for _ in range(trials):
        v = domain_valuation(rng)
        a = denote_ground(j, v)
        agree += a == denote_ground(augmented, v)
        nulls += a is None
    report(
        5,
        agree == trials,
        time.perf_counter() - t0,
        10.0,
        f"{agree}/{trials} valuations agree ({nulls} null on both sides)",
    )


def test_share_constraints_need_the_domain():
    # an off-domain valuation (negative degree count, k < 0) separates the
    # augmented budget from J: the share sums divide by a zero total
    forms = expr_formulas()
    j = elaborate(MSC, "J")
    augmented = compose(j, Test(forms["sigma_dgc"]), Test(forms["sigma_ecc"]))
    v = {
        "cpec": Fraction(1), "cpdg": Fraction(1), "escf": Fraction(0),
        "k": Fraction(-1), "bbpp": Fraction(1),
        "A:nec": Fraction(3), "B:nec": Fraction(3), "C:nec": Fraction(3),
        "A:ndg": Fraction(1), "B:ndg": Fraction(-1), "C:ndg": Fraction(0),
    }
    assert denote_ground(j, v) is not None
    assert denote_ground(augmented, v) is None


def run_criterion(n, laws, trials, bound, seed):
    t0 = time.perf_counter()
    results = run_suite(laws, trials, seed)
    elapsed = time.perf_counter() - t0
    failures = [r.name for r in results if not r.passed]
    report(
        n,
        not failures,
        elapsed,
        bound,
        f"{len(results)} laws x {trials} trials" + (f", failed: {failures}" if failures else ""),
    )


def test_acceptance_6_axiom_suite():
    run_criterion(6, tuplix_laws(), 10_000, 60.0, seed=60)


def test_acceptance_7_oracle_agreement():
    run_criterion(7, oracle_laws(), 10_000, 60.0, seed=70)


def test_acceptance_8_meadow_laws():
    run_criterion(8, meadow_laws(), 10_000, 10.0, seed=80)


def test_acceptance_9_constraint_encodings():
    run_criterion(9, constraint_laws(), 10_000, 10.0, seed=90)
