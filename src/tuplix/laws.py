"""Randomized law suite for the algebra and its number system.

Every law pairs two ways of building the same budget (or number) and
checks that they agree on random ground instantiations. The suite is
deterministic for a given seed: each law draws from its own generator
seeded with "<seed>:<law name>". The same registry backs the `axioms`
CLI subcommand and the acceptance tests. Each law of the budget algebra
is one row of `_BUDGET_LAWS`: the kinds of the arguments it draws, and
its equations, each between two terms that `_same` compares by
`denote_ground` at a random valuation.

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


def _channel(rng: random.Random) -> str:
    return _CHANNELS[int(rng.random() * len(_CHANNELS))]


def _valuation(rng: random.Random) -> dict[str, Fraction]:
    draw = rng.random
    return {name: _RATIONALS[int(draw() * len(_RATIONALS))] for name in _NAMES}


def _same(rng: random.Random, t1: Tuplix, t2: Tuplix) -> bool:
    v = _valuation(rng)
    return denote_ground(t1, v) == denote_ground(t2, v)


# --- the budget algebra ----------------------------------------------------------

# the draw of each kind of argument: a term, an expression, a subset of the channels or one channel
_DRAWS = {"term": _term, "expr": _expr, "channels": _channels, "channel": _channel}
_ZERO, _ONE = Const(Fraction(0)), Const(Fraction(1))

# One row per law: its name, the kinds of the arguments it draws, in order, and a function from
# those arguments to its equations, each a pair of terms that denote the same.
_BUDGET_LAWS = (
    ("comp-commutes", "term term", lambda x, y: [(Comp(x, y), Comp(y, x))]),
    ("comp-associates", "term term term", lambda x, y, z: [(Comp(Comp(x, y), z), Comp(x, Comp(y, z)))]),
    ("eps-unit", "term", lambda x: [(Comp(x, EPS), x)]),
    ("delta-absorbs", "term", lambda x: [(Comp(x, DELTA), DELTA)]),
    ("entry-accumulates", "channel expr expr", lambda c, u, v: [(Comp(Entry(c, u), Entry(c, v)), Entry(c, Add(u, v)))]),
    ("test-self-division", "expr", lambda u: [(Test(u), Test(div(u, u)))]),
    ("test-zero-void", "expr", lambda e: [(Test(_ZERO), EPS), (Test(sub(e, e)), EPS)]),
    # e/e + 1 is 1 or 2
    ("test-one-null", "expr", lambda e: [(Test(_ONE), DELTA), (Test(Add(div(e, e), _ONE)), DELTA)]),
    ("tests-combine", "expr expr", lambda u, v: [(Comp(Test(u), Test(v)), Test(Add(div(u, u), div(v, v))))]),
    ("test-entry-substitution", "channel expr expr",
     lambda c, u, v: [(Comp(Test(sub(u, v)), Entry(c, u)), Comp(Test(sub(u, v)), Entry(c, v)))]),
    ("encap-eps", "channels", lambda h: [(Encap(h, EPS), EPS)]),
    ("encap-delta", "channels", lambda h: [(Encap(h, DELTA), DELTA)]),
    ("encap-test", "channels expr", lambda h, u: [(Encap(h, Test(u)), Test(u))]),
    ("encap-entry", "channels channel expr",
     lambda h, c, u: [(Encap(h, Entry(c, u)), Test(u) if c in h else Entry(c, u))]),
    ("encap-distributes", "channels term term",
     lambda h, x, y: [(Encap(h, Comp(x, Encap(h, y))), Comp(Encap(h, x), Encap(h, y)))]),
    ("encap-decomposes", "channels channels term", lambda h1, h2, x: [(Encap(h1 | h2, x), Encap(h1, Encap(h2, x)))]),
    ("encap-empty-identity", "term", lambda x: [(Encap(frozenset(), x), x)]),
)


def _equational(kinds: str, equations: Callable[..., list[tuple[Tuplix, Tuplix]]]) -> Callable[[random.Random], bool]:
    """A check that draws one argument of each of `kinds`, then compares the equations' sides until one differs."""
    draws = [_DRAWS[kind] for kind in kinds.split()]

    def check(rng: random.Random) -> bool:
        for t1, t2 in equations(*[draw(rng) for draw in draws]):
            if not _same(rng, t1, t2):
                return False
        return True

    return check


def tuplix_laws() -> list[Law]:
    return [Law(name, _equational(kinds, equations)) for name, kinds, equations in _BUDGET_LAWS]


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
