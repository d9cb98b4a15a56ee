"""Randomized law suite for the algebra and its number system.

Every law pairs two ways of building the same budget (or number) and
checks that they agree on random ground instantiations. The suite is
deterministic for a given seed: each law draws from its own generator
seeded with "<seed>:<law name>". The same registry backs the `axioms`
CLI subcommand and the acceptance tests.

The random model is here too: `random_rational`, `random_expr` and
`random_term`. Each of its choices, and each draw of a law body, is one
`rng.random()` that is scaled to a range or indexes a table built once,
whose entries repeat in proportion to their probabilities, so the
distributions are those of the `randint`, `choice` and `sample` draws
the model once made. Leaves are shared nodes, one `Const` per value and
one `Var` per name. The number laws run on integer pairs, drawn from a
table of pairs, with the five steps that every fold takes on them: those
of `expr.PAIR_STEPS`, so they check what ships.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm

from .algebra import (
    DELTA,
    EPS,
    Comp,
    Encap,
    Entry,
    Test,
    Tuplix,
    compose,
    denote_ground,
    ground_of,
    normalize,
)
from .constraints import conjunction_expr, leq_expr
from .expr import (
    PAIR_STEPS,
    Abs,
    Add,
    Const,
    Expr,
    Inv,
    Mul,
    Neg,
    Var,
    div,
    evaluate,
    fold_constants,
    free_vars,
    postorder,
    sub,
)
from .meadow import Rational

_CHANNELS = ("a", "b", "c")
_NAMES = ("u", "v", "w")


class Law(namedtuple("Law", "name check")):
    """A named law; `check(rng)` runs one random trial of it and tells whether it held."""

    __slots__ = ()


class LawResult(namedtuple("LawResult", "name trials failures")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.failures == 0


def run_law(law: Law, trials: int, seed: int) -> LawResult:
    rng = random.Random(f"{seed}:{law.name}")
    failures = 0
    for _ in range(trials):
        if not law.check(rng):
            failures += 1
    return LawResult(law.name, trials, failures)


def run_suite(laws: Iterable[Law], trials: int, seed: int) -> list[LawResult]:
    return [run_law(law, trials, seed) for law in laws]


def render_results(results: list[LawResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "ok" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {r.trials - r.failures:>6}/{r.trials}  {status}")
    failed = [r for r in results if not r.passed]
    total = sum(r.trials for r in results)
    if failed:
        names = ", ".join(r.name for r in failed)
        lines.append(f"{len(failed)} law(s) failed: {names}")
    else:
        lines.append(f"all {len(results)} laws passed ({total} trials)")
    return "\n".join(lines) + "\n"


# --- generators ----------------------------------------------------------------

# Each choice of the random model is one `rng.random()` that indexes a table:
# `table[int(rng.random() * len(table))]`. A table built here repeats each entry
# in proportion to its probability; a uniform integer is an index into a range.
# For a length below 2**53 the product stays below the length, so the last entry
# is drawn and no index is past the end.

# zero a quarter of the time, else n/d with n in [-8, 8] and d in [1, 8]
_RATIONALS: tuple[Rational, ...] = (Fraction(0),) * 136 + tuple(
    r for r in (Fraction(n, d) for n in range(-8, 9) for d in range(1, 9)) for _ in range(3)
)
_PAIRS = tuple(r.as_integer_ratio() for r in _RATIONALS)
# one shared node per value, keyed by its pair, which hashes faster than a Fraction
_CONSTS: tuple[Const, ...] = tuple(map({p: Const(r) for p, r in zip(_PAIRS, _RATIONALS)}.__getitem__, _PAIRS))
_OPERATORS = (Add, Mul, Neg, Inv, Abs)  # the first two take two operands


@cache
def _leaf_table(names: tuple[str, ...]) -> tuple[Const | Var, ...]:
    """Leaves over `names`: a variable with probability 0.6, the same for each name, else a constant.

    The constants are drawn as `random_rational` draws them. Each value has
    one shared `Const` and each name one shared `Var`, as the parser interns them.
    """
    if not names:
        return _CONSTS
    variables = len(_CONSTS) * 3 // 2  # entries, against one entry per constant
    copies = len(names) // gcd(len(names), variables)
    shared = {name: Var(name) for name in names}
    per_name = variables * copies // len(names)
    return _CONSTS * copies + tuple(shared[name] for name in names for _ in range(per_name))


@cache
def _subset_table(channels: tuple[str, ...]) -> tuple[frozenset[str], ...]:
    """Subsets of `channels`: each size from none to all equally likely, then each subset of that size."""
    by_size = [[frozenset(c) for c in combinations(channels, k)] for k in range(len(channels) + 1)]
    width = lcm(*map(len, by_size))
    return tuple(subset for group in by_size for subset in group for _ in range(width // len(group)))


_LEAVES = _leaf_table(_NAMES)
_SUBSETS = _subset_table(_CHANNELS)


def random_rational(rng: random.Random) -> Rational:
    """Small random rational for the randomized law checks.

    Zero comes up with probability >= 1/4 so that the zero-sensitive
    corners of total division get exercised; otherwise numerators lie in
    [-8, 8] and denominators in [1, 8].
    """
    return _RATIONALS[int(rng.random() * len(_RATIONALS))]


def random_expr(rng: random.Random, names: tuple[str, ...], size: int) -> Expr:
    """Random expression with at most `size` operator nodes over `names`."""
    return _expr_of(rng.random, _leaf_table(names), size)


def _expr_of(draw: Callable[[], float], leaves: tuple[Const | Var, ...], size: int) -> Expr:
    if size <= 0:
        return leaves[int(draw() * len(leaves))]
    pick = int(draw() * len(_OPERATORS))
    if pick < 2:
        split = int(draw() * size)
        left = _expr_of(draw, leaves, split)
        return _OPERATORS[pick](left, _expr_of(draw, leaves, size - 1 - split))
    return _OPERATORS[pick](_expr_of(draw, leaves, size - 1))


def random_term(
    rng: random.Random, size: int, channels: tuple[str, ...], names: tuple[str, ...]
) -> Tuplix:
    """A random term of about `size` >= 1 nodes over `channels` and the variables `names`."""
    return _term_of(rng.random, size, channels, _subset_table(channels), _leaf_table(names))


def _term_of(
    draw: Callable[[], float],
    size: int,
    channels: tuple[str, ...],
    subsets: tuple[frozenset[str], ...],
    leaves: tuple[Const | Var, ...],
) -> Tuplix:
    if size >= 2:
        roll = draw()
        if roll < 0.45:
            split = 1 + int(draw() * (size - 1))
            left = _term_of(draw, split, channels, subsets, leaves)
            return Comp(left, _term_of(draw, size - split, channels, subsets, leaves))
        if roll < 0.65:
            subset = subsets[int(draw() * len(subsets))]
            return Encap(subset, _term_of(draw, size - 1, channels, subsets, leaves))
    roll = draw()
    if channels and roll < 0.45:
        channel = channels[int(draw() * len(channels))]
        return Entry(channel, _expr_of(draw, leaves, int(draw() * 3)))
    if roll < 0.75:
        return Test(_expr_of(draw, leaves, int(draw() * 3)))
    if roll < 0.92:
        return EPS
    return DELTA


def _term(rng: random.Random) -> Tuplix:
    draw = rng.random
    return _term_of(draw, 1 + int(draw() * 5), _CHANNELS, _SUBSETS, _LEAVES)


def _expr(rng: random.Random) -> Expr:
    draw = rng.random
    return _expr_of(draw, _LEAVES, int(draw() * 4))


def _channels(rng: random.Random) -> frozenset[str]:
    return _SUBSETS[int(rng.random() * len(_SUBSETS))]


def _valuation(rng: random.Random) -> dict[str, Fraction]:
    return dict(zip(_NAMES, _nums(rng, len(_NAMES))))


def _same(rng: random.Random, t1: Tuplix, t2: Tuplix) -> bool:
    v = _valuation(rng)
    return denote_ground(t1, v) == denote_ground(t2, v)


# --- the budget algebra ----------------------------------------------------------


def _law_comp_commutes(rng):
    x, y = _term(rng), _term(rng)
    return _same(rng, Comp(x, y), Comp(y, x))


def _law_comp_associates(rng):
    x, y, z = _term(rng), _term(rng), _term(rng)
    return _same(rng, Comp(Comp(x, y), z), Comp(x, Comp(y, z)))


def _law_eps_unit(rng):
    x = _term(rng)
    return _same(rng, Comp(x, EPS), x)


def _law_delta_absorbs(rng):
    x = _term(rng)
    return _same(rng, Comp(x, DELTA), DELTA)


def _law_entry_accumulates(rng):
    channel = _CHANNELS[int(rng.random() * len(_CHANNELS))]
    u, v = _expr(rng), _expr(rng)
    return _same(rng, Comp(Entry(channel, u), Entry(channel, v)), Entry(channel, Add(u, v)))


def _law_test_self_division(rng):
    u = _expr(rng)
    return _same(rng, Test(u), Test(div(u, u)))


def _law_test_zero_void(rng):
    e = _expr(rng)
    return _same(rng, Test(Const(Fraction(0))), EPS) and _same(rng, Test(sub(e, e)), EPS)


def _law_test_one_null(rng):
    e = _expr(rng)
    nonzero = Add(div(e, e), Const(Fraction(1)))  # evaluates to 1 or 2
    return _same(rng, Test(Const(Fraction(1))), DELTA) and _same(rng, Test(nonzero), DELTA)


def _law_tests_combine(rng):
    u, v = _expr(rng), _expr(rng)
    return _same(rng, Comp(Test(u), Test(v)), Test(Add(div(u, u), div(v, v))))


def _law_test_entry_substitution(rng):
    channel = _CHANNELS[int(rng.random() * len(_CHANNELS))]
    u, v = _expr(rng), _expr(rng)
    guard = Test(sub(u, v))
    return _same(rng, Comp(guard, Entry(channel, u)), Comp(guard, Entry(channel, v)))


def _law_encap_eps(rng):
    h = _channels(rng)
    return _same(rng, Encap(h, EPS), EPS)


def _law_encap_delta(rng):
    h = _channels(rng)
    return _same(rng, Encap(h, DELTA), DELTA)


def _law_encap_test(rng):
    h = _channels(rng)
    u = _expr(rng)
    return _same(rng, Encap(h, Test(u)), Test(u))


def _law_encap_entry(rng):
    h = _channels(rng)
    channel = _CHANNELS[int(rng.random() * len(_CHANNELS))]
    u = _expr(rng)
    expected: Tuplix = Test(u) if channel in h else Entry(channel, u)
    return _same(rng, Encap(h, Entry(channel, u)), expected)


def _law_encap_distributes(rng):
    h = _channels(rng)
    x, y = _term(rng), _term(rng)
    return _same(rng, Encap(h, Comp(x, Encap(h, y))), Comp(Encap(h, x), Encap(h, y)))


def _law_encap_decomposes(rng):
    h1, h2 = _channels(rng), _channels(rng)
    x = _term(rng)
    return _same(rng, Encap(h1 | h2, x), Encap(h1, Encap(h2, x)))


def _law_encap_empty_identity(rng):
    x = _term(rng)
    return _same(rng, Encap(frozenset(), x), x)


def tuplix_laws() -> list[Law]:
    checks = [
        ("comp-commutes", _law_comp_commutes),
        ("comp-associates", _law_comp_associates),
        ("eps-unit", _law_eps_unit),
        ("delta-absorbs", _law_delta_absorbs),
        ("entry-accumulates", _law_entry_accumulates),
        ("test-self-division", _law_test_self_division),
        ("test-zero-void", _law_test_zero_void),
        ("test-one-null", _law_test_one_null),
        ("tests-combine", _law_tests_combine),
        ("test-entry-substitution", _law_test_entry_substitution),
        ("encap-eps", _law_encap_eps),
        ("encap-delta", _law_encap_delta),
        ("encap-test", _law_encap_test),
        ("encap-entry", _law_encap_entry),
        ("encap-distributes", _law_encap_distributes),
        ("encap-decomposes", _law_encap_decomposes),
        ("encap-empty-identity", _law_encap_empty_identity),
    ]
    return [Law(name, check) for name, check in checks]


# --- normalizer against the direct evaluator --------------------------------------


def _law_normalize_matches_direct(rng):
    t = random_term(rng, 1 + int(rng.random() * 6), _CHANNELS, _NAMES)
    v = _valuation(rng)
    return ground_of(normalize(t, v)) == denote_ground(t, v)


def _law_normalize_closed_terms(rng):
    t = random_term(rng, 1 + int(rng.random() * 6), _CHANNELS, ())
    return ground_of(normalize(t)) == denote_ground(t)


def oracle_laws() -> list[Law]:
    return [
        Law("normalize-matches-direct", _law_normalize_matches_direct),
        Law("normalize-closed-terms", _law_normalize_closed_terms),
    ]


# --- the number system -------------------------------------------------------------


def _nums(rng, n):
    draw = rng.random
    return [_RATIONALS[int(draw() * len(_RATIONALS))] for _ in range(n)]


def meadow_laws() -> list[Law]:
    """The meadow's laws on the fold's own pair steps, `PAIR_STEPS`: equal values must be equal pairs."""
    (add, mul, neg, inv, absolute), zero, one = map(PAIR_STEPS.get, (Add, Mul, Neg, Inv, Abs)), (0, 1), (1, 1)
    checks = [
        ("add-commutes", lambda x, y: add(x, y) == add(y, x)),
        ("add-associates", lambda x, y, z: add(add(x, y), z) == add(x, add(y, z))),
        ("mul-commutes", lambda x, y: mul(x, y) == mul(y, x)),
        ("mul-associates", lambda x, y, z: mul(mul(x, y), z) == mul(x, mul(y, z))),
        ("mul-distributes", lambda x, y, z: mul(x, add(y, z)) == add(mul(x, y), mul(x, z))),
        ("add-zero-identity", lambda x: add(x, zero) == x),
        ("mul-one-identity", lambda x: mul(x, one) == x),
        ("add-inverse", lambda x: add(x, neg(x)) == zero),
        ("inverse-involution", lambda x: inv(inv(x)) == x),
        ("restricted-inverse", lambda x: mul(x, mul(x, inv(x))) == x),
        ("zero-inverse", lambda x: inv(zero) == zero and mul(x, inv(zero)) == zero),
        ("indicator-range", lambda x: mul(x, inv(x)) == (zero if x == zero else one)),
        ("abs-nonnegative", lambda x: absolute(x)[0] >= 0 and absolute(x) in (x, neg(x))),
    ]
    return [Law(name, _on_pairs(law)) for name, law in checks]


def _on_pairs(law: Callable[..., bool]) -> Callable[[random.Random], bool]:
    """A check that draws one random pair for each argument of `law`, as `random_rational` draws a value."""
    arguments = range(law.__code__.co_argcount)

    def check(rng: random.Random) -> bool:
        draw = rng.random
        return law(*[_PAIRS[int(draw() * len(_PAIRS))] for _ in arguments])

    return check


# --- constraint encodings -------------------------------------------------------------


def _law_leq_encoding(rng):
    p, q = _nums(rng, 2)
    form = denote_ground(Test(leq_expr(Const(p), Const(q))))
    return (form is None) == (not p <= q)


def _law_eq_encoding(rng):
    p, q = _nums(rng, 2)
    if rng.random() < 0.3:
        q = p
    form = denote_ground(Test(sub(Const(p), Const(q))))
    return (form is None) == (p != q)


def _law_conjunction_encoding(rng):
    parts = [_expr(rng) for _ in range(2 + int(rng.random() * 3))]
    v = _valuation(rng)
    combined = denote_ground(Test(conjunction_expr(parts)), v)
    separate = denote_ground(compose(*[Test(p) for p in parts]), v)
    return combined == separate


def _law_constraint_nodes(rng):
    kinds = (Const, Var, Add, Mul, Neg, Inv, Abs)
    p, q = _expr(rng), _expr(rng)
    built = [Test(leq_expr(p, q)), Test(sub(p, q)), Test(conjunction_expr([p, q]))]
    return all(isinstance(node, kinds) for t in built for node in postorder([t.arg]))


def constraint_laws() -> list[Law]:
    return [
        Law("leq-encoding", _law_leq_encoding),
        Law("eq-encoding", _law_eq_encoding),
        Law("conjunction-encoding", _law_conjunction_encoding),
        Law("constraint-nodes", _law_constraint_nodes),
    ]


# --- expression layer ------------------------------------------------------------------


def _law_fold_preserves_evaluation(rng):
    e = random_expr(rng, _NAMES, int(rng.random() * 6))
    v = _valuation(rng)
    return evaluate(fold_constants(e), v) == evaluate(e, v)


def _law_fold_idempotent(rng):
    e = fold_constants(random_expr(rng, _NAMES, int(rng.random() * 6)))
    return fold_constants(e) == e


def _law_substitute_binds(rng):
    e = random_expr(rng, _NAMES, int(rng.random() * 5))
    name = _NAMES[int(rng.random() * len(_NAMES))]
    r = random_rational(rng)
    rest = {n: random_rational(rng) for n in _NAMES if n != name}
    bound = fold_constants(e, {name: Const(r)})
    if name in free_vars(bound):
        return False
    return evaluate(bound, rest) == evaluate(e, {**rest, name: r})


def expr_laws() -> list[Law]:
    return [
        Law("fold-preserves-evaluation", _law_fold_preserves_evaluation),
        Law("fold-idempotent", _law_fold_idempotent),
        Law("substitute-binds", _law_substitute_binds),
    ]


def all_laws() -> list[Law]:
    return tuplix_laws() + oracle_laws() + meadow_laws() + constraint_laws() + expr_laws()
