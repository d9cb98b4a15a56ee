"""Symbolic rational expressions over named variables.

Expressions are immutable DAGs built from constants, variables, sums,
products, negation, totalized inversion and absolute value: a subterm may
be shared by object (the budget language inlines a def by sharing its
body). Every pass walks the `postorder` of its roots, each distinct node
walked once, with its own stack, so neither sharing nor depth costs
more than the nodes themselves. Subtraction and division are sugar:
a - b is Add(a, Neg(b)), a / b is Mul(a, Inv(b)). Evaluation is total
for any fully bound valuation because the inverse of zero is zero.

Budget terms (`algebra`) are nodes of the same kind: `_Node` gives both
their structural ==, hash and repr, `postorder`, `compare` and
`free_vars` take terms as well as expressions, and `algebra.normalize`
folds a term's expressions in its one walk of the term, by `_fold_node`.
A node costs what its fields do: its kind's constructor writes each slot
once, through the slot's descriptor, and a name is checked against the
identifier pattern only when it is not an ASCII identifier. `pretty`
looks each node up in the names it is given, which it never copies or
iterates, and prints a leaf, a name or a constant, at once, with no stack.

Two representations serve different ends. `fold_constants` keeps the
tree as written, only smaller, and `pretty` prints it. Inside a fold a
closed value is an integer pair (numerator, denominator > 0) in lowest
terms, each step its kind's in `PAIR_STEPS`, and it becomes a `Const`
only under an open parent or as a root; `evaluate`, the naive oracle,
stays on `Fraction`. `LinearForms` writes expressions as a constant plus
exact multiples of atoms, as a meadow allows, with every coefficient an
integer pair too, and is also the straight-line program that computes
them: test substitution solves the tests linear in a variable
(`LinearForms.pivot`, which gives its coefficient and constant as pairs).
`LinearForms.run` is the one interpreter of that program, over a domain:
`algebra.ground_columns` runs it over whole columns of integer numerators
(`_COLUMN_OPS`), each over one shared denominator until an inverse gives
it one per row, so `LinearForms` makes no `Fraction`; the tests also run
it on `Fraction`s and on sympy symbols.
The law suite (`laws`) draws random expressions.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import cmp_to_key, partial
from itertools import count, repeat
from math import gcd
from operator import floordiv

from .meadow import (
    Column,
    Pair,
    Rational,
    add_pairs,
    decimal_repr,
    format_rational,
    lowest_terms,
    minv,
    minv_pair,
    mul_pairs,
)

# Shared with the budget language: names are colon-separated word segments.
IDENT_PATTERN = r"[A-Za-z_]\w*(?::[A-Za-z_]\w*)*"
IDENTIFIER_RE = re.compile(IDENT_PATTERN + r"\Z")


def is_identifier(name: str) -> bool:
    """Whether a name matches IDENT_PATTERN.

    An ASCII identifier matches it, so the pattern runs only on the other
    names, such as those with a colon or a non-ASCII letter.
    """
    return (name.isascii() and name.isidentifier()) or IDENTIFIER_RE.match(name) is not None


class UnboundVariableError(LookupError):
    """Raised when evaluation meets a variable the valuation does not bind."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class _Node:
    """A node of an immutable DAG: an expression here, or a budget term in `algebra`.

    Equality is structural, over `compare`, hashing reads `_prefix` alone,
    and repr is the text a dataclass's generated repr would give; none of
    them recurses. Each kind is numbered in the order its class is defined,
    which is the order `compare` puts kinds in. A kind's `_children` is
    None, or a function that gives a node's child nodes last first, the
    order a stack takes them in, and `_own()` gives what its equality
    compares besides its children: a constant's numerator and
    denominator, a variable's name, an entry's channel or an
    encapsulation's sorted channels. Spans and labels, which tell where a
    term came from, are never among them.

    A kind's fields, in order, are its `__match_args__`: the slots of its
    layout, if it has one, then its own `__slots__`, so a node has no
    `__dict__`. A test's label or a term's span is kept in the slot of its
    name with a leading underscore, which may hold the origin that makes the
    text on each read (`algebra._Text`). `__reduce__` and `__repr__` read
    the fields, as do the tests' reference walks by class pattern; the walks
    here, the oracles too, test `type(node)` and read each field by name.
    The layouts are plain mixins, not kinds, and take no number: `_Binary`
    gives Add, Mul and Comp their `left` and `right`, and `_Unary` gives
    Neg, Inv, Abs and Test their `arg`, each with its constructor and
    `_children`. A constructor writes each slot once, through the slot's
    descriptor (`_setters`), and `__setattr__` and `__delattr__` refuse with
    AttributeError, so no field changes once a node is built. Pickle, `copy`
    and the parser's copy of a def's body rebuild a node from its fields
    through its kind's constructor (`__reduce__`).
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _numbers = count()
    _children: Callable[[_Node], tuple[_Node, ...]] | None = None

    def __init_subclass__(cls):
        cls._kind = next(_Node._numbers)

    def _own(self):
        return ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__match_args__))

    def __eq__(self, other):
        if not isinstance(other, _Node):
            return NotImplemented
        return compare(self, other) == 0

    def __hash__(self):
        return hash(_prefix(self))  # bounded, and equal nodes have equal preorders

    def __repr__(self) -> str:
        parts: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                parts.append(item)
                continue
            pieces = [f"{type(item).__qualname__}("]
            for i, name in enumerate(item.__match_args__):
                value = getattr(item, name)
                pieces.append(f"{', ' if i else ''}{name}=")
                pieces.append(value if isinstance(value, _Node) else repr(value))
            pieces.append(")")
            stack += reversed(pieces)
        return "".join(parts)


def _setters(kind: type) -> tuple[Callable[[_Node, object], None], ...]:
    """The `__set__` of each of the own slots of a kind or a layout, in order: its constructor's cheapest write."""
    return tuple(getattr(kind, name).__set__ for name in kind.__slots__)


class Const(_Node):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: Rational):
        _const_value(self, value)

    def _own(self):
        return self.value.as_integer_ratio()


(_const_value,) = _setters(Const)


class Var(_Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        if not is_identifier(name):
            raise ValueError(f"invalid variable name: {name!r}")
        _var_name(self, name)

    def _own(self):
        return self.name


(_var_name,) = _setters(Var)


class _Binary:
    """The layout of a kind with two child nodes, `left` and `right`: Add, Mul and `algebra.Comp`."""

    __slots__ = __match_args__ = ("left", "right")
    _children = staticmethod(lambda node: (node.right, node.left))

    def __init__(self, left: _Node, right: _Node):
        _set_left(self, left)
        _set_right(self, right)


_set_left, _set_right = _setters(_Binary)


class _Unary:
    """The layout of a kind with one child node, `arg`: Neg, Inv, Abs and `algebra.Test`."""

    __slots__ = __match_args__ = ("arg",)
    _children = staticmethod(lambda node: (node.arg,))

    def __init__(self, arg: _Node):
        _set_arg(self, arg)


(_set_arg,) = _setters(_Unary)


class Add(_Binary, _Node):
    __slots__ = ()


class Mul(_Binary, _Node):
    __slots__ = ()


class Neg(_Unary, _Node):
    __slots__ = ()


class Inv(_Unary, _Node):
    __slots__ = ()


class Abs(_Unary, _Node):
    __slots__ = ()


Expr = Const | Var | Add | Mul | Neg | Inv | Abs
_TERMS = Abs._kind + 1  # the kinds from here on are budget terms
Valuation = Mapping[str, Rational]

# Each kind's one step on closed pairs in lowest terms, which the fold, `LinearForms` and the laws take.
PAIR_STEPS: dict[type, Callable[..., Pair]] = {
    Add: add_pairs, Mul: mul_pairs, Neg: lambda x: (-x[0], x[1]), Inv: minv_pair, Abs: lambda x: (abs(x[0]), x[1])
}


def sub(a: Expr, b: Expr) -> Expr:
    return Add(a, Neg(b))


def div(a: Expr, b: Expr) -> Expr:
    return Mul(a, Inv(b))


def evaluate(e: Expr, valuation: Valuation) -> Rational:
    """Evaluate a fully bound expression. Never fails on division by zero.

    The naive oracle: `Fraction` arithmetic and a recursive call per child,
    a shared subterm once per path, each kind tested, most frequent first.
    """
    kind = type(e)
    if kind is Var:
        try:
            return valuation[e.name]
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if kind is Const:
        return e.value
    if kind is Add:
        return evaluate(e.left, valuation) + evaluate(e.right, valuation)
    if kind is Mul:
        return evaluate(e.left, valuation) * evaluate(e.right, valuation)
    if kind is Neg:
        return -evaluate(e.arg, valuation)
    if kind is Inv:
        return minv(evaluate(e.arg, valuation))
    if kind is Abs:
        return abs(evaluate(e.arg, valuation))
    raise TypeError(f"not an expression: {kind.__qualname__}")


_EMIT = object()  # on the postorder stack: the node below it has all its children listed


def postorder(roots: Sequence[_Node], uses: dict[int, int] | None = None) -> list[_Node]:
    """Each distinct node object under the roots once, children before parents.

    The roots may be expressions or budget terms. A `uses` dict, given
    empty, is filled in with the number of places that reach each node, by
    id(): one per parent edge, and one per time the node is among the roots.
    """
    order: list[_Node] = []
    seen: dict[int, int] = {} if uses is None else uses
    stack: list = list(reversed(roots))
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if node is _EMIT:
            order.append(pop())
            continue
        key = id(node)
        if key in seen:
            seen[key] += 1
            continue
        seen[key] = 1
        try:
            children = node._children
        except AttributeError:
            raise TypeError(f"not a node: {node!r}") from None
        if children is None:
            order.append(node)
        else:
            push(node)
            push(_EMIT)
            stack += children(node)
    return order


# The operator of an instruction of `LinearForms` for an inverse or an absolute value.
_OPS = {Inv: minv, Abs: abs}


def _rows(part: int | list[int]) -> Iterable[int]:
    """Numerators or denominators as an iterable over the rows: a list as it is, an int repeated."""
    return repeat(part) if type(part) is int else part


def _scaled(numerators: int | list[int], factor: int) -> Iterable[int]:
    """Each numerator times an int factor, over the rows."""
    if factor == 1:
        return _rows(numerators)
    if type(numerators) is int:
        return repeat(numerators * factor)
    return map(operator.mul, numerators, repeat(factor))


def _common(numerators: list[int], d: int) -> Column:
    """Numerators over one denominator d, divided by the gcd of d and every numerator.

    That gcd is one pass in C, and leaves d the lcm of the denominators of
    the rows in lowest terms, so a column whose rows cancel to small values
    keeps no factor that none of its rows needs through any chain of sums
    and products.
    """
    g = gcd(d, *numerators)
    if g == 1:
        return numerators, d
    return list(map(floordiv, numerators, repeat(g))), d // g


def _sum(op: Callable, x, y) -> Column:
    """x + y or x - y, for op operator.add or operator.sub; only the left side may be a scalar pair.

    Over two shared denominators the sum is over their lcm, by one scalar
    gcd and none per row, and then divided by its `_common` factor. With a
    denominator per row on either side, each row is reduced, as the
    denominators would otherwise multiply up.
    """
    mul = operator.mul
    (a, b), (c, d) = x, y
    if type(b) is int and type(d) is int:
        g = gcd(b, d)
        return _common(list(map(op, _scaled(a, d // g), _scaled(c, b // g))), b // g * d)
    if type(b) is int and b == 1:  # a*d ± c over d is in lowest terms, as c/d is
        return list(map(op, map(mul, _rows(a), d), c)), d
    a, b, c, d = map(_rows, (a, b, c, d))
    return lowest_terms(list(map(op, map(mul, a, d), map(mul, c, b))), list(map(mul, b, d)))


def _product(x, y) -> Column:
    """x * y; only the left side may be a scalar pair.

    Over two shared denominators the product is over theirs, divided by
    its `_common` factor. With a denominator per row on either side, each
    row is reduced.
    """
    (a, b), (c, d) = x, y
    if type(b) is int and type(d) is int:
        return _common(list(map(operator.mul, _rows(a), c)), b * d)
    a, b, c, d = map(_rows, (a, b, c, d))
    return lowest_terms(list(map(operator.mul, a, c)), list(map(operator.mul, b, d)))


def _inverse(x: Column) -> Column:
    """The totalized inverse: b/a becomes sign(a) * b / |a|, and 0/1 stays 0/1.

    Each row gets its own denominator, and is reduced once if the column
    shared one, which need not be in lowest terms with each row.
    """
    a, b = x
    d = list(map(max, map(abs, a), repeat(1)))  # |a|, or 1 where a is 0
    n = list(map(floordiv, map(operator.mul, a, _rows(b)), d))
    return lowest_terms(n, d) if type(b) is int else (n, d)


# The domain of columns for `LinearForms.run`. A column (`meadow.Column`)
# holds the integer numerators of all rows over one int denominator, in any
# terms, or over one denominator per row, in lowest terms. A constant stays a
# scalar pair: every instruction has an operand that is not a constant, as
# the forms fold the others. Sums, products, negations and absolute values
# keep a shared denominator, which each sum and product divides by the gcd of
# the whole column, one scalar pass; only an inverse gives each row its own.
_COLUMN_OPS: dict[Callable, Callable] = {
    Const: lambda pair: pair,
    operator.add: partial(_sum, operator.add),
    operator.sub: partial(_sum, operator.sub),
    operator.mul: _product,
    operator.neg: lambda x: (list(map(operator.neg, x[0])), x[1]),
    abs: lambda x: (list(map(abs, x[0])), x[1]),
    minv: _inverse,
}


class _Form:
    """The linear form scale * (const + the sum of coefficient * atom) of a node.

    `terms` maps each atom, a slot reference of `LinearForms` or the id()
    of an entry's amount in `algebra.normalize`, to its coefficient, which
    is never zero. The scale, the constant and the coefficients are
    integer pairs (numerator, denominator > 0) in lowest terms, added and
    multiplied by `meadow.add_pairs` and `mul_pairs`, so a form makes no
    `Fraction`. The scale is kept apart so that scaling a form costs one
    step; it is never zero.
    """

    __slots__ = ("scale", "const", "terms")

    def __init__(self, const: Pair, terms: dict[int, Pair]):
        self.scale, self.const, self.terms = (1, 1), const, terms

    def value(self) -> Pair:
        """The value of a form without terms."""
        return mul_pairs(self.scale, self.const)

    def copy(self) -> _Form:
        form = _Form(self.const, dict(self.terms))
        form.scale = self.scale
        return form

    def scaled(self, factor: Pair) -> _Form:
        """This form times a constant, changed in place."""
        if not factor[0]:
            return _Form((0, 1), {})
        self.scale = mul_pairs(self.scale, factor)
        return self

    def merge(self, other: _Form) -> _Form:
        """The sum of this form and another, made in place in the one with more terms, and returned."""
        if len(self.terms) < len(other.terms):
            return other.merge(self)
        ratio = None if other.scale == self.scale else mul_pairs(other.scale, minv_pair(self.scale))
        terms = self.terms
        for atom, coefficient in other.terms.items():
            if ratio is not None:
                coefficient = mul_pairs(coefficient, ratio)
            old = terms.get(atom)
            if old is None:
                terms[atom] = coefficient
            else:
                total = add_pairs(old, coefficient)
                if total[0]:
                    terms[atom] = total
                else:
                    del terms[atom]
        if other.const[0]:
            const = other.const if ratio is None else mul_pairs(other.const, ratio)
            self.const = add_pairs(self.const, const)
        return self

    def settle(self) -> None:
        """Fold the scale into the constant and the coefficients; the value stays."""
        scale = self.scale
        if scale != (1, 1):
            self.const = mul_pairs(self.const, scale)
            self.terms = {atom: mul_pairs(c, scale) for atom, c in self.terms.items()}
            self.scale = (1, 1)


class LinearForms:
    """The linear forms of expressions, over the atoms of one straight-line program.

    Each node becomes a linear form c0 + c1 * atom1 + ... with exact
    coefficients, by rules that hold in a meadow, a commutative ring: sums
    merge, a negation or a product with a constant side scales, and an
    inverse or absolute value of a constant folds by its `PAIR_STEPS` step.
    Zero coefficients are dropped, so x - x is 0. An atom is a variable, or
    one instruction for an inverse, an absolute value or a product of two
    non-constant forms, applied to the slots of its argument forms. Products
    are never expanded, and x * Inv(x) stays an atom. Forms and atoms are
    interned by their content, never by the node, whose hash and equality
    walk its whole tree, so equal subterms built apart share their slots. A node
    that more than one node or root uses, such as the body of a def, is
    computed once into a slot and is an atom of each user.

    `forms` holds each root's form; `emit` adds the instructions that compute
    a form, and `outputs` holds the reference of each root's value, as the
    constructor emits each root's form once, so running the program never
    changes it. A reference is j for variable j, len(variables) + k for
    instruction k and -1 - i for constant i: the slots that `run` works on
    hold the variables, the instructions and the constants in reverse, so
    constants found last need no renumbering. A form costs about one
    instruction per term: an addition or a subtraction, and a product by
    its coefficient unless that is 1 or -1. A form grows only in its one
    user, and each user of a shared node takes a copy of a form of at most
    one term, so building the forms takes time near linear in the number
    of distinct nodes.
    """

    def __init__(self, roots: Sequence[Expr]):
        uses: dict[int, int] = {}  # id(node) -> the parents and root places that take its form
        order = postorder(roots, uses)
        names = dict.fromkeys(node.name for node in order if type(node) is Var)
        self.variables = {name: j for j, name in enumerate(names)}
        self.constants: dict[Pair, int] = {}
        self.instructions: dict[tuple[Callable, int, int | None], int] = {}
        instruction, emit = self._instruction, self.emit

        def atom(ref: int) -> _Form:
            return _Form((0, 1), {ref: (1, 1)})

        forms: dict[int, _Form] = {}  # id(node) -> its form

        def take(node: Expr) -> _Form:
            """A node's form, for its user to change: a copy if the node has other users."""
            key = id(node)
            return forms[key].copy() if uses[key] > 1 else forms.pop(key)

        for node in order:
            kind = type(node)
            if kind is Const:
                form = _Form(node.value.as_integer_ratio(), {})
            elif kind is Var:
                form = atom(self.variables[node.name])
            elif kind is Add:
                form = take(node.left).merge(take(node.right))
            elif kind is Mul:
                a, b = take(node.left), take(node.right)
                if not a.terms:
                    form = b.scaled(a.value())
                elif not b.terms:
                    form = a.scaled(b.value())
                else:
                    form = atom(instruction(operator.mul, *sorted((emit(a), emit(b)))))
            elif kind is Neg:
                form = take(node.arg).scaled((-1, 1))
            else:
                a = take(node.arg)
                if a.terms:
                    form = atom(instruction(_OPS[kind], emit(a)))
                else:
                    form = _Form(PAIR_STEPS[kind](a.value()), {})
            if uses[id(node)] > 1 and form.terms:
                form = atom(emit(form))
            forms[id(node)] = form
        self.forms = [take(root) for root in roots]
        self.outputs = [emit(form) for form in self.forms]

    def _constant(self, value: Pair) -> int:
        return self.constants.setdefault(value, -1 - len(self.constants))

    def _instruction(self, op: Callable, a: int, b: int | None = None) -> int:
        ref = len(self.variables) + len(self.instructions)
        return self.instructions.setdefault((op, a, b), ref)

    def _times(self, coefficient: Pair, atom: int) -> int:
        if coefficient == (1, 1):
            return atom
        if coefficient == (-1, 1):
            return self._instruction(operator.neg, atom)
        return self._instruction(operator.mul, self._constant(coefficient), atom)

    def emit(self, form: _Form) -> int:
        """The slot reference of a form's value, after the instructions that compute it.

        The terms go in the order of their atoms, so equal forms emit the
        same instructions, which are interned, and share their slot.
        """
        form.settle()
        terms, c0 = sorted(form.terms.items()), form.const
        added = [self._constant(c0)] if c0[0] or not terms else []
        added += [self._times(c, atom) for atom, c in terms if c[0] > 0]
        subtracted = [(c, atom) for atom, c in terms if c[0] < 0]
        ref = added[0] if added else self._times(*subtracted.pop(0))
        for other in added[1:]:
            ref = self._instruction(operator.add, ref, other)
        for c, atom in subtracted:
            ref = self._instruction(operator.sub, ref, self._times(PAIR_STEPS[Neg](c), atom))
        return ref

    def run(self, ops: Mapping[Callable, Callable], values: Mapping) -> list:
        """The value of every root in a domain, with each variable bound to its value in `values`.

        This is the one loop that interprets the program. The domain is
        `ops`: it maps the operator of each instruction (`operator.add`,
        `sub`, `mul` and `neg`, `abs` and `meadow.minv`) to the function
        that applies it to values of the domain, and `Const` to the
        function that takes a constant, an integer pair, into the domain.
        Every variable of the roots must be bound, as `evaluate` needs,
        even one whose terms cancel. The inverse of 0 is 0, so the program
        is total in any domain whose inverse is. Each instruction runs
        once, and a slot is let go after its last use. A root's value may
        be the very value of a variable, a constant or another root.
        """
        instructions = self.instructions
        slots: list = []
        for name in self.variables:
            try:
                slots.append(values[name])
            except KeyError:
                raise UnboundVariableError(name) from None
        slots += repeat(None, len(instructions))
        slots += map(ops[Const], reversed(self.constants))
        last_use = {}
        for k, (_, a, b) in enumerate(instructions):
            last_use[a] = last_use[b] = k
        drops: list[list[int]] = [[] for _ in instructions]  # the slots each one uses last
        kept = set(self.outputs)
        for ref, k in last_use.items():
            if ref is not None and ref not in kept:
                drops[k].append(ref)
        for k, ((op, a, b), drop) in enumerate(zip(instructions, drops), len(self.variables)):
            slots[k] = ops[op](slots[a]) if b is None else ops[op](slots[a], slots[b])
            for ref in drop:
                slots[ref] = None
        return [slots[ref] for ref in self.outputs]

    def pivot(self) -> tuple[tuple[str, Pair] | None, Pair | None]:
        """A variable that the first root is linear in, and the root's constant value.

        The variable, paired with its coefficient, is the first one with a
        coefficient in the root's form and under none of its other atoms.
        The value is None unless that form has no terms, as for x - x + -1.
        The coefficient and the value are integer pairs, read from the settled form.
        """
        form, operands = self.forms[0], list(self.instructions)
        under = {atom for atom in form.terms if atom >= len(self.variables)}
        for k in reversed(range(len(operands))):  # each instruction before its operands
            if len(self.variables) + k in under:
                under.update(operands[k][1:])
        for name, atom in self.variables.items():
            if atom in form.terms and atom not in under:
                return (name, form.terms[atom]), None
        return None, None if form.terms else form.const


def free_vars(*roots: _Node) -> frozenset[str]:
    """The names of the variables in any of the expressions or budget terms."""
    return frozenset(node.name for node in postorder(roots) if type(node) is Var)


def _as_expr(node: Expr, fold: Expr | Pair) -> Expr:
    """The expression of a node's fold: a pair becomes the node's own Const or a new one."""
    if type(fold) is not tuple:
        return fold
    return node if type(node) is Const else Const(Fraction(*fold))


def _fold_node(
    node: Expr, folded: Mapping[int, Expr | Pair], bindings: Mapping[str, Expr | Pair] | None
) -> Expr | Pair:
    """`fold_constants` of one node, whose children's folds `folded` holds by their id().

    A closed fold is not a `Const` but its value as an integer pair
    (numerator, denominator > 0) in lowest terms, by the kind's step in
    `PAIR_STEPS`, so folding a closed subterm makes neither a `Fraction`
    nor a node; an open fold is an expression. `_as_expr` turns a pair into
    a `Const` where an open parent or a caller reads it. A variable folds to
    its binding: a closed one may be bound to a pair, which is its fold as
    it is, or to a `Const`. The identities fire on pairs: x + 0, x * 1 and
    x * 0 by the numerator, as 0 is 0/1 and 1 is 1/1.
    """
    kind = type(node)
    if kind is Add or kind is Mul:
        left, right = folded[id(node.left)], folded[id(node.right)]
        if type(left) is tuple:
            if type(right) is tuple:
                return PAIR_STEPS[kind](left, right)
            if not left[0]:  # 0 + x is x, 0 * x is 0
                return right if kind is Add else left
            if kind is Mul and left[0] == left[1]:
                return right
            left = _as_expr(node.left, left)
        elif type(right) is tuple:
            if not right[0]:  # 0 + x is x, 0 * x is 0
                return left if kind is Add else right
            if kind is Mul and right[0] == right[1]:
                return left
            right = _as_expr(node.right, right)
        return node if left is node.left and right is node.right else kind(left, right)
    if kind is Var:
        bound = bindings.get(node.name, node) if bindings else node
        return bound.value.as_integer_ratio() if type(bound) is Const else bound
    if kind is Const:
        return node.value.as_integer_ratio()
    arg = folded[id(node.arg)]
    if type(arg) is tuple:
        return PAIR_STEPS[kind](arg)
    if kind is not Abs and type(arg) is kind:  # Neg(Neg(x)), Inv(Inv(x))
        return arg.arg
    return node if arg is node.arg else kind(arg)


def fold_constants(e: Expr, bindings: Mapping[str, Expr | Pair] | None = None) -> Expr:
    """Bottom-up simplification that is sound for every valuation.

    Constant subtrees collapse (with totalized inversion); the only
    identities applied are x+0->x, x*1->x, x*0->0, Neg(Neg(x))->x and
    Inv(Inv(x))->x. Notably x/x is NOT rewritten to 1: its value depends
    on whether x is zero. A node whose children fold to themselves and
    that no rule rewrites is returned as it is, so `fold_constants(e) is e`
    tells that nothing changed.

    Bound variables are replaced on the way, in the same pass: with
    `bindings` mapping names to folded expressions, or to integer pairs
    (numerator, denominator > 0) in lowest terms for closed values, the
    result is what folding gives after each bound variable is replaced by
    its expression or its value.
    Each distinct node is folded once; to fold many roots with their
    shared nodes folded once, walk their `postorder` with `_fold_node`.
    Inside the walk a closed value is an integer pair, and it becomes a
    `Const` only under an open parent or at the root.
    """
    folded: dict[int, Expr | Pair] = {}
    for node in postorder([e]):
        folded[id(node)] = _fold_node(node, folded, bindings)
    return _as_expr(e, folded[id(e)])


def compare(a: _Node, b: _Node) -> int:
    """Total structural order on expressions and terms, for canonical forms and ==: -1, 0 or 1.

    Nodes order first by kind: the expressions Const, Var, Add, Mul, Neg,
    Inv, Abs, then the terms Eps, Delta, Entry, Test, Comp, Encap. Then
    constants order by numerator and denominator, variables by name,
    entries by channel and encapsulations by their sorted channels, and
    every node by its children, left before right. Spans and labels take
    no part. A pair of nodes found equal is not compared again, so shared
    subterms cost once.
    """
    equal: set[tuple[int, int]] = set()
    stack: list[tuple] = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is None:  # every child pair of the pair `y` compared equal
            equal.add(y)
            continue
        if x is y or (id(x), id(y)) in equal:
            continue
        kind, other = x._kind, y._kind
        if kind != other:
            return -1 if kind < other else 1
        p, q = x._own(), y._own()
        children = x._children
        if children is not None:
            stack.append((None, (id(x), id(y))))
            stack += zip(children(x), children(y))
        if p != q:
            return -1 if p < q else 1
    return 0


_by_compare = cmp_to_key(compare)
_KEY_TOKENS = 16  # the preorder tokens that `_prefix` lists


def _prefix(node: _Node) -> tuple:
    """A node's first 16 preorder tokens, each a node's kind and `_own()`: equal nodes give equal prefixes."""
    tokens: list = []
    stack = [node]
    while stack and len(tokens) < 2 * _KEY_TOKENS:
        x = stack.pop()
        tokens += (x._kind, x._own())
        children = x._children
        if children is not None:
            stack += children(x)
    return tuple(tokens)


def sort_key(node: _Node) -> tuple[tuple, object]:
    """A sort key that orders expressions and terms exactly as `compare` does.

    `compare` is lexicographic on the preorder of the nodes' tokens, and no
    preorder is a proper prefix of another. So the key's first part, the
    `_prefix` of 16 tokens, decides the order of any two nodes whose
    preorders differ there, and sorting compares those tuples in C; nodes
    whose first 16 tokens agree fall back to `compare`, by `cmp_to_key`.
    The walk stops after 16 tokens, so a shared subterm costs no more.
    """
    return _prefix(node), _by_compare(node)


# Pretty-printing precedence levels.
_ADD, _MUL, _UNARY, _ATOM = 10, 20, 30, 40
_LEVEL = {Var: _ATOM, Abs: _ATOM, Add: _ADD, Mul: _MUL, Inv: _MUL, Neg: _UNARY}


def _level(e: Expr) -> int:
    if type(e) is Const:
        return _UNARY if e.value < 0 else _ATOM
    return _LEVEL[type(e)]


def _const_text(value: Rational) -> str:
    decimal = decimal_repr(value)
    return decimal if decimal is not None else format_rational(value)


def pretty(e: Expr, names: Mapping[int, str] = {}) -> str:
    """Render an expression in the budget language's expression syntax.

    Reparsing the result of printing a parsed expression reproduces the
    same tree; programmatic trees (bare Inv, negative Const) still render
    as semantically equal text. The text is written out piece by piece,
    so its cost is linear in its length; a node met a second time reuses
    the text it was given the first time, bracketed as its context needs.

    `names` maps the id() of a node to a name to print in its place, never
    bracketed, as the budget language prints a def's body by the def's name.
    Each node is looked up in `names` as it is met, and `names` is never
    copied or iterated, so the cost stays linear in the text however many
    names it holds. A leaf is its name, or its own text, at once: nothing
    brackets a root.
    """
    kind = type(e)
    if kind is Var or kind is Const:
        name = names.get(id(e))
        if name is not None:
            return name
        return e.name if kind is Var else _const_text(e.value)
    parts: list[str] = []
    texts: dict[int, tuple[int, int] | str] = {}  # id(node) -> where its text lies in `parts`, then the text
    stack: list = [(e, 0)]  # (node, context), (id(node), start) for the end of a node, or text
    while stack:
        item = stack.pop()
        if type(item) is str:
            parts.append(item)
            continue
        node, context = item
        if type(node) is int:
            texts[node] = (context, len(parts))
            continue
        key = id(node)
        text = names.get(key)
        if text is not None:
            parts.append(text)
            continue
        kind = type(node)
        bracket = _level(node) < context
        text = texts.get(key)
        if text is not None:
            if type(text) is tuple:
                text = texts[key] = "".join(parts[text[0] : text[1]])
        elif kind is Const:
            text = _const_text(node.value)
        elif kind is Var:
            text = node.name
        if text is not None:
            parts.append(f"({text})" if bracket else text)
            continue
        if bracket:
            parts.append("(")
            stack.append(")")
        stack.append((key, len(parts)))
        if kind is Add and type(node.right) is Neg and id(node.right) not in names:
            pieces = ((node.left, _ADD), " - ", (node.right.arg, _ADD + 1))
        elif kind is Add:
            pieces = ((node.left, _ADD), " + ", (node.right, _ADD + 1))
        elif kind is Mul and type(node.right) is Inv and id(node.right) not in names:
            pieces = ((node.left, _MUL), " / ", (node.right.arg, _MUL + 1))
        elif kind is Mul:
            pieces = ((node.left, _MUL), " * ", (node.right, _MUL + 1))
        elif kind is Neg:
            pieces = ("-", (node.arg, _UNARY))
        elif kind is Inv:
            # No bare-inverse surface syntax; render through a division.
            pieces = ("1 / ", (node.arg, _MUL + 1))
        else:
            pieces = ("abs(", (node.arg, 0), ")")
        stack += reversed(pieces)
    return "".join(parts)
