"""Budget terms: entries, tests, composition and encapsulation.

A term describes financial commitments on named channels. The building
blocks are:

  Eps            the empty budget (no commitments)
  Delta          the impossible budget (absorbs everything)
  Entry(a, u)    amount u attached to channel a; negative u is a receipt
  Test(u)        a guard that is void when u evaluates to 0, impossible
                 otherwise
  Comp(x, y)     merge of two budgets; amounts on a shared channel add up
  Encap(H, x)    settle the channels in H internally: each must balance
                 to zero, and then disappears from the budget

Terms are nodes of `expr._Node`, as expressions are, so a sub-budget may
be shared by object, as a budget referenced twice is. Their ==, hash and
repr are structural and never recurse, and spans and labels take no part
in equality; `expr.free_vars` names the variables of a term.

Two views are provided. `denote_ground` evaluates a fully bound term to
its ground value: None for the null budget, or a dict from channel to
amount; it is deliberately the simplest possible recursion, an oracle
for small terms. `normalize` reduces a partially bound term, each
distinct node once, to a canonical form with residual symbolic tests and
per-channel amounts. `ground_of` turns a closed form into a ground value,
and `ground_columns` evaluates an open one at many valuations at once, as
a column of which rows are ok and a column of amounts per channel; both
must equal the oracle's whenever the term is fully bound; the law suite
(`laws`) checks that on the random terms it draws.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction
from functools import reduce
from itertools import repeat

from .expr import (
    Const,
    Expr,
    Add,
    LinearForms,
    Mul,
    Neg,
    Var,
    _Binary,
    _COLUMN_OPS,
    _Form,
    _Node,
    _TERMS,
    _Unary,
    _as_expr,
    _fold_node,
    _set_arg,
    _setters,
    Valuation,
    evaluate,
    fold_constants,
    is_identifier,
    postorder,
    pretty,
    sort_key,
    sub,
)
from .meadow import Column, Pair, Rational, lowest_terms


class Eps(_Node):
    __slots__ = ()  # no fields, no children


class _Text:
    """A field of text that tells where a term came from: a test's label, or a term's span.

    It is kept in the slot of its name with a leading underscore, as the
    constructor was given it: the text, None, or the term's origin
    (`dsl._Origin`), whose method of the field's name makes the text on
    every read. The slot is never written again, so no text is made that
    no violation reports, and no node changes once it is built.
    """

    __slots__ = ("slot", "name")

    def __set_name__(self, kind: type, name: str):
        self.slot, self.name = vars(kind)[f"_{name}"], name

    def __get__(self, node: _Node | None, kind: type | None = None):
        if node is None:
            return self
        text = self.slot.__get__(node)
        return text if text is None or type(text) is str else getattr(text, self.name)()


Text = str | object  # a text, or an origin whose method of the field's name makes it; see `_Text`


class Delta(_Node):
    __slots__ = ("_span",)
    __match_args__ = ("span",)
    span = _Text()

    def __init__(self, span: Text | None = None):
        _delta_span(self, span)


(_delta_span,) = _setters(Delta)


class Entry(_Node):
    __slots__ = __match_args__ = ("channel", "amount")
    _children = staticmethod(lambda node: (node.amount,))

    def __init__(self, channel: str, amount: Expr):
        if not is_identifier(channel):
            raise ValueError(f"invalid channel name: {channel!r}")
        _entry_channel(self, channel)
        _entry_amount(self, amount)

    def _own(self):
        return self.channel


_entry_channel, _entry_amount = _setters(Entry)


class Test(_Unary, _Node):
    # label and span, made on each read from the one origin the parser gives both (`_Text`), are no part of its identity
    __slots__ = ("_label", "_span")
    __match_args__ = ("arg", "label", "span")
    __test__ = False  # keep pytest from collecting this class
    label = _Text()
    span = _Text()

    def __init__(self, arg: Expr, label: Text | None = None, span: Text | None = None):
        _set_arg(self, arg)
        _test_label(self, label)
        _test_span(self, span)


_test_label, _test_span = _setters(Test)  # its own slots; `arg` is `_Unary`'s


class Comp(_Binary, _Node):
    __slots__ = ()


class Encap(_Node):
    __slots__ = ("channels", "body", "_span")
    __match_args__ = ("channels", "body", "span")
    _children = staticmethod(lambda node: (node.body,))
    span = _Text()

    def __init__(self, channels: frozenset[str], body: Tuplix, span: Text | None = None):
        for channel in channels:
            if not is_identifier(channel):
                raise ValueError(f"invalid channel name: {channel!r}")
        _encap_channels(self, channels)
        _encap_body(self, body)
        _encap_span(self, span)

    def _own(self):
        return tuple(sorted(self.channels))


_encap_channels, _encap_body, _encap_span = _setters(Encap)


Tuplix = Eps | Delta | Entry | Test | Comp | Encap

EPS = Eps()
DELTA = Delta()


def encap(channels: Iterable[str], body: Tuplix, span: Text | None = None) -> Encap:
    return Encap(frozenset(channels), body, span)


def compose(*terms: Tuplix) -> Tuplix:
    """Left-associated composition; the empty composition is Eps."""
    if not terms:
        return EPS
    return reduce(Comp, terms)


# ---------------------------------------------------------------------------
# Ground denotation


def denote_ground(t: Tuplix, valuation: Valuation | None = None) -> dict[str, Rational] | None:
    """Evaluate a term under a valuation binding every free variable.

    The result is None for the null budget, or a fresh channel->amount
    dict. An explicit zero entry is kept distinct from no entry at all: a
    channel carrying amount 0 is still a commitment on that channel. The
    naive oracle, for small terms: each kind tested, most frequent first,
    a shared sub-budget walked once per path, and both sides of a
    composition denoted before either is read for None, so an unbound
    variable on either side raises.
    """
    v = valuation if valuation is not None else {}
    kind = type(t)
    if kind is Comp:
        a = denote_ground(t.left, v)
        b = denote_ground(t.right, v)
        if a is None or b is None:
            return None
        for channel, amount in b.items():
            a[channel] = a[channel] + amount if channel in a else amount
        return a
    if kind is Test:
        return {} if evaluate(t.arg, v) == 0 else None
    if kind is Entry:
        return {t.channel: evaluate(t.amount, v)}
    if kind is Encap:
        amounts = denote_ground(t.body, v)
        if amounts is None:
            return None
        for channel in t.channels:
            if channel in amounts and amounts.pop(channel) != 0:
                return None
        return amounts
    if kind is Eps:
        return {}
    if kind is Delta:
        return None
    raise TypeError(f"not a budget term: {kind.__qualname__}")


# ---------------------------------------------------------------------------
# Canonical form


class Violation(namedtuple("Violation", "label span value")):
    """A test that evaluated to a nonzero value during normalization: its label, span or None, and value."""

    __slots__ = ()


class CanonicalTuplix(namedtuple("CanonicalTuplix", "is_null tests entries violations", defaults=((),))):
    """Normal form: Null, or residual tests plus per-channel amounts.

    Tests are folded, pairwise distinct and sorted by a structural key;
    entry amounts are folded sums, n * s for a summand node counted n
    times, keyed by channel. Violations explain a Null result, each
    distinct one once in source order, and never take part in equality.
    """

    __slots__ = ()

    def __eq__(self, other):
        return self[:3] == other[:3] if type(other) is CanonicalTuplix else NotImplemented

    __ne__ = object.__ne__  # the inverse of __eq__, not tuple's != over all four fields

    def __hash__(self):
        return hash(self[:3])


def _sum_amounts(form: _Form, folded: Mapping[int, Expr]) -> Expr:
    """Fold the sum of a form whose terms count amount nodes by id(): n * s for one counted n times.

    The form is never scaled, so each coefficient is a count, the pair (n, 1).
    """
    counted = sorted(((folded[key], n) for key, (n, _) in form.terms.items()), key=lambda sn: sort_key(sn[0]))
    rest = [s if n == 1 else Mul(Const(Fraction(n)), s) for s, n in counted]
    const = form.const
    return reduce(Add, rest, Const(Fraction(*const))) if const[0] or not rest else reduce(Add, rest)


def _canonical_tests(found: Iterable[Expr]) -> tuple[Expr, ...]:
    """The tests sorted by `sort_key`, each dropped whose key equals the one before; `compare` only breaks ties."""
    keyed = sorted(((sort_key(test), test) for test in found), key=lambda pair: pair[0])
    return tuple(test for i, (key, test) in enumerate(keyed) if not i or key != keyed[i - 1][0])


def normalize(t: Tuplix, valuation: Valuation | None = None) -> CanonicalTuplix:
    """Reduce a term to canonical form under a (possibly partial) valuation.

    Closed tests are decided on the spot, and a failing one makes the
    result Null; an enc{} turns its channels' amounts into balance tests
    unless its body is Null. One `postorder` walk gives each term node a
    part, None if Null or else a `_Form` per channel, which its last user
    takes in place and others copy: each node costs once. No construct
    drops a test, so the open tests are kept for the whole walk.
    Expressions fold in the same walk, by `_fold_node`: each bound value
    enters it as an integer pair, a closed expression folds to one, read as
    such for an entry's amount and a test's value, and it becomes a `Const`
    only under an open parent. A closed balance is read as a pair too, its
    form's constant; `_sum_amounts` sums only open balances and entries.
    """
    bindings = {name: value.as_integer_ratio() for name, value in (valuation or {}).items()}
    uses: dict[int, int] = {}  # id(node) -> its users: for a term, its Comp and Encap parents and the root
    order = postorder([t], uses)
    if t._kind < _TERMS:
        raise TypeError(f"not a budget term: {type(t).__qualname__}")
    folded: dict[int, Expr | Pair] = {}  # id(expression node) -> its fold, a pair if closed
    parts: dict[int, dict | None] = {}  # id(term node) -> its part, until its last user takes it
    tests: dict[int, Expr] = {}  # id(folded open test) -> the test
    violations: dict[Violation, None] = {}  # each distinct one once; nonempty exactly when Null

    def take(key: int) -> dict | None:
        """The part of the node with this id() for a user to change: a copy unless it is the last user."""
        uses[key] -= 1
        if not uses[key]:
            return parts.pop(key)
        part = parts[key]
        return None if part is None else {channel: form.copy() for channel, form in part.items()}

    for node in order:
        kind = type(node)
        if node._kind < _TERMS:
            folded[id(node)] = _fold_node(node, folded, bindings)
            continue
        part = {}  # as for Eps, and a test that holds or stays open
        if kind is Comp:
            part, other = take(id(node.left)), take(id(node.right))
            if part is None or other is None:
                part = None
            else:
                if len(part) < len(other):
                    part, other = other, part
                for channel, form in other.items():
                    kept = part.setdefault(channel, form)
                    if kept is not form:
                        part[channel] = kept.merge(form)
        elif kind is Entry:
            amount = folded[id(node.amount)]
            if type(amount) is tuple:  # a constant is no term
                part[node.channel] = _Form(amount, {})
            else:
                part[node.channel] = _Form((0, 1), {id(node.amount): (1, 1)})
        elif kind is Test:
            arg = folded[id(node.arg)]
            if type(arg) is not tuple:
                tests[id(arg)] = arg
            elif arg[0]:
                violations[Violation(node.label or pretty(node.arg), node.span, Fraction(*arg))] = None
                part = None
        elif kind is Delta:
            violations[Violation("delta", node.span, Fraction(1))] = None
            part = None
        elif kind is Encap:
            part = entries = take(id(node.body))
            if entries is not None:  # a null body settles nothing
                for channel in sorted(node.channels & entries.keys()):
                    if (form := entries.pop(channel)).terms:
                        amount = _sum_amounts(form, folded)
                        tests[id(amount)] = amount
                    elif form.const[0]:
                        violations[Violation(f"enc{{{channel}}}", node.span, Fraction(*form.const))] = None
                        part = None  # once every channel has settled, so each one is reported
        parts[id(node)] = part
    if violations:
        return CanonicalTuplix(True, (), (), tuple(violations))
    entries = parts[id(t)]
    amounts = tuple((channel, _sum_amounts(entries[channel], folded)) for channel in sorted(entries))
    return CanonicalTuplix(False, _canonical_tests(tests.values()), amounts, ())


def ground_of(c: CanonicalTuplix) -> dict[str, Rational] | None:
    """The amounts of a closed canonical form, or None if it is null or still open.

    A form is closed when it has no residual tests and only constant
    amounts; `c.is_null` tells the two None cases apart. To evaluate an
    open form at many valuations, use `ground_columns`.
    """
    if c.is_null or c.tests:
        return None
    amounts: dict[str, Rational] = {}
    for channel, amount in c.entries:
        if not isinstance(amount, Const):
            return None
        amounts[channel] = amount.value
    return amounts


def ground_columns(
    c: CanonicalTuplix, values: Mapping[str, Column], rows: int
) -> tuple[list[bool], list[tuple[list[int], list[int]]]]:
    """The ground value of a canonical form at each of `rows` rows of values, column by column.

    `values` maps every variable left in the form to a column of `rows`
    rationals (see `meadow.Column`). The result tells which rows are ok,
    True where every residual test is 0 and False where the row is the
    null budget, and gives the amount column of every channel of the form,
    in sorted order, as numerators and positive denominators in lowest
    terms; at a null row an amount means nothing. Folding is sound at every
    valuation and evaluation is total, so normalizing under some bindings
    and then evaluating under the rest gives the ground denotation under
    all of them. The residuals are compiled once, into `expr.LinearForms`,
    so no depth is too great, and run once over columns (`expr._COLUMN_OPS`).
    A test's column is read only for its zero numerators, and only the amount
    columns are reduced, each once; a constant root is spread over the rows.
    """
    if c.is_null:
        return [False] * rows, []
    roots = LinearForms([*c.tests, *(amount for _, amount in c.entries)]).run(_COLUMN_OPS, values)
    tested = len(c.tests)
    amounts = [([n] * rows, [d] * rows) if type(n) is int else lowest_terms(n, d) for n, d in roots[tested:]]
    if not tested:
        return [True] * rows, amounts
    failed = map(any, zip(*(repeat(n, rows) if type(n) is int else n for n, _ in roots[:tested])))
    return list(map(operator.not_, failed)), amounts


# ---------------------------------------------------------------------------
# Test substitution


def apply_test_substitution(c: CanonicalTuplix) -> CanonicalTuplix:
    """Solve residual tests that are linear in a variable into the amounts and other tests.

    The first test, in canonical order, of the form c0 + c1 * x + c2 *
    atom2 + ..., with x under none of the other atoms (`LinearForms.pivot`),
    pins x to r = -(c0 + c2 * atom2 + ...) / c1: x becomes r in every entry
    and other test, and the test is kept as x - r, with the same zeros.
    Then the next; x is left in its own test alone, so each variable and
    test is solved at most once. Tests that are identically 0 are dropped,
    and a test that is a nonzero constant, closed or not, fails at every
    valuation and makes the form Null. The result denotes the same budget
    at every total valuation. The pivot gives integer pairs, and only the
    `Const` of -1 / c1 and a violation's value make a `Fraction`.
    """
    if c.is_null:
        raise ValueError("cannot substitute tests in the null form")
    tests = dict(enumerate(c.tests))  # the tests not solved yet, by their place in c.tests
    linear: dict[int, tuple] = {}  # the pivot of each of them, until it changes
    solved: list[Expr] = []  # x - r for each solved test
    entries = dict(c.entries)

    def solvable(i: int) -> bool:
        if i not in linear:
            linear[i] = LinearForms([tests[i]]).pivot()
        return linear[i][0] is not None

    while (i := next(filter(solvable, tests), None)) is not None:
        (name, (n, d)), _ = linear.pop(i)
        r = at_zero = fold_constants(tests.pop(i), {name: (0, 1)})
        if (n, d) != (-1, 1):
            r = fold_constants(Neg(at_zero) if (n, d) == (1, 1) else Mul(Const(Fraction(-d, n)), at_zero))
        binding, folded = {name: r}, {}  # one walk, so a node the roots share is folded once
        for node in postorder([*entries.values(), *tests.values(), *solved]):
            folded[id(node)] = _fold_node(node, folded, binding)
        entries = {ch: _as_expr(amount, folded[id(amount)]) for ch, amount in entries.items()}
        solved = [_as_expr(t, folded[id(t)]) for t in solved]
        solved.append(fold_constants(sub(Var(name), r)))
        for j, test in tests.items():
            if (new := _as_expr(test, folded[id(test)])) is not test:
                tests[j] = new
                linear.pop(j, None)
    violations = [Violation(pretty(c.tests[i]), None, Fraction(*v)) for i in tests if (v := linear[i][1]) and v[0]]
    if violations:
        return CanonicalTuplix(True, (), (), tuple(violations))
    kept = [test for i, test in tests.items() if linear[i][1] is None]  # each test that is not constant
    return CanonicalTuplix(False, _canonical_tests(solved + kept), tuple(entries.items()), ())
