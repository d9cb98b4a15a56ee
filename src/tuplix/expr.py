"""Symbolic rational expressions over named variables.

Expressions are immutable trees built from constants, variables, sums,
products, negation, totalized inversion and absolute value. Subtraction
and division are sugar: a - b is Add(a, Neg(b)), a / b is Mul(a, Inv(b)).
Evaluation is total for any fully bound valuation because the inverse of
zero is zero.
"""

from __future__ import annotations

import operator
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence, Union

from .meadow import Rational, decimal_repr, format_rational, minv

# Shared with the budget language: names are colon-separated word segments.
IDENT_PATTERN = r"[A-Za-z_]\w*(?::[A-Za-z_]\w*)*"
IDENTIFIER_RE = re.compile(IDENT_PATTERN + r"\Z")


def is_identifier(name: str) -> bool:
    return IDENTIFIER_RE.match(name) is not None


class UnboundVariableError(LookupError):
    """Raised when evaluation meets a variable the valuation does not bind."""

    def __init__(self, name: str):
        super().__init__(f"unbound variable: {name}")
        self.name = name


@dataclass(frozen=True)
class Const:
    value: Rational


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self):
        if not is_identifier(self.name):
            raise ValueError(f"invalid variable name: {self.name!r}")


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Inv:
    arg: "Expr"


@dataclass(frozen=True)
class Abs:
    arg: "Expr"


Expr = Union[Const, Var, Add, Mul, Neg, Inv, Abs]
Valuation = Mapping[str, Rational]

ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def const(value) -> Const:
    return Const(Fraction(value))


def var(name: str) -> Var:
    return Var(name)


def sub(a: Expr, b: Expr) -> Expr:
    return Add(a, Neg(b))


def div(a: Expr, b: Expr) -> Expr:
    return Mul(a, Inv(b))


def evaluate(e: Expr, valuation: Valuation) -> Rational:
    """Evaluate a fully bound expression. Never fails on division by zero."""
    match e:
        case Const(value):
            return value
        case Var(name):
            try:
                return valuation[name]
            except KeyError:
                raise UnboundVariableError(name) from None
        case Add(left, right):
            return evaluate(left, valuation) + evaluate(right, valuation)
        case Mul(left, right):
            return evaluate(left, valuation) * evaluate(right, valuation)
        case Neg(arg):
            return -evaluate(arg, valuation)
        case Inv(arg):
            return minv(evaluate(arg, valuation))
        case Abs(arg):
            return abs(evaluate(arg, valuation))
    raise TypeError(f"not an expression: {e!r}")


# Each operator node becomes one instruction applying its function to one
# slot (unary) or two (binary).
_OPS = {Add: operator.add, Mul: operator.mul, Neg: operator.neg, Inv: minv, Abs: abs}


@dataclass(frozen=True)
class SlotProgram:
    """A straight-line program that evaluates several expressions at once.

    Slots hold, in order, the constants, the values of the variables and
    the result of each instruction. An instruction `(op, a, b)` appends
    `op(slot a, slot b)`, or `op(slot a)` when `b` is -1; every distinct
    subterm of the roots has one slot, so shared work is done once.
    """

    constants: tuple[Rational, ...]
    variables: tuple[str, ...]
    instructions: tuple[tuple[Callable, int, int], ...]
    outputs: tuple[int, ...]  # the slot of each root

    def __call__(self, valuation: Valuation) -> list[Rational]:
        """The value of every root under a valuation binding all its variables."""
        slots = list(self.constants)
        for name in self.variables:
            try:
                slots.append(valuation[name])
            except KeyError:
                raise UnboundVariableError(name) from None
        append = slots.append
        for op, a, b in self.instructions:
            append(op(slots[a]) if b < 0 else op(slots[a], slots[b]))
        return [slots[i] for i in self.outputs]


def compile_exprs(roots: Sequence[Expr]) -> SlotProgram:
    """Compile expressions into one program that computes each distinct subterm once.

    Nodes are interned by their kind and their children's slots, never by
    the node itself, whose hash and equality recurse; the walk keeps its
    own stack, so any depth compiles.
    """
    order: list[Expr] = []  # distinct node objects, children before parents
    constants: dict[Rational, int] = {}
    variables: dict[str, int] = {}
    seen: set[int] = set()
    stack: list[tuple[Expr, bool]] = [(root, False) for root in reversed(roots)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        match node:
            case Const(value):
                constants.setdefault(value, len(constants))
            case Var(name):
                variables.setdefault(name, len(variables))
            case Add(left, right) | Mul(left, right):
                stack += ((right, False), (left, False))
            case Neg(arg) | Inv(arg) | Abs(arg):
                stack.append((arg, False))
            case _:
                raise TypeError(f"not an expression: {node!r}")
    first_op = len(constants) + len(variables)
    slot_of: dict[int, int] = {}  # id(node) -> slot
    interned: dict[tuple[Callable, int, int], int] = {}  # instruction -> slot
    for node in order:
        match node:
            case Const(value):
                slot = constants[value]
            case Var(name):
                slot = len(constants) + variables[name]
            case Add(left, right) | Mul(left, right):
                key = (_OPS[type(node)], slot_of[id(left)], slot_of[id(right)])
                slot = interned.setdefault(key, first_op + len(interned))
            case Neg(arg) | Inv(arg) | Abs(arg):
                key = (_OPS[type(node)], slot_of[id(arg)], -1)
                slot = interned.setdefault(key, first_op + len(interned))
        slot_of[id(node)] = slot
    return SlotProgram(
        tuple(constants),
        tuple(variables),
        tuple(interned),
        tuple(slot_of[id(root)] for root in roots),
    )


def zero_inversion_count(e: Expr, valuation: Valuation) -> int:
    """How many Inv nodes hit a zero argument under this valuation.

    Diagnostic only: such hits are well-defined (they yield 0), but a
    nonzero count can flag a formula leaning on that convention.
    """
    match e:
        case Const() | Var():
            return 0
        case Add(left, right) | Mul(left, right):
            return zero_inversion_count(left, valuation) + zero_inversion_count(
                right, valuation
            )
        case Neg(arg) | Abs(arg):
            return zero_inversion_count(arg, valuation)
        case Inv(arg):
            hit = 1 if evaluate(arg, valuation) == 0 else 0
            return hit + zero_inversion_count(arg, valuation)
    raise TypeError(f"not an expression: {e!r}")


def free_vars(e: Expr) -> frozenset[str]:
    names: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        match node:
            case Const():
                pass
            case Var(name):
                names.add(name)
            case Add(left, right) | Mul(left, right):
                stack.append(left)
                stack.append(right)
            case Neg(arg) | Inv(arg) | Abs(arg):
                stack.append(arg)
    return frozenset(names)


def substitute(e: Expr, name: str, replacement: Expr) -> Expr:
    return substitute_all(e, {name: replacement})


def substitute_all(e: Expr, bindings: Mapping[str, Expr]) -> Expr:
    """Replace every bound variable with its expression, in one pass."""
    if not bindings:
        return e
    match e:
        case Const():
            return e
        case Var(name):
            return bindings.get(name, e)
        case Add(left, right):
            return Add(substitute_all(left, bindings), substitute_all(right, bindings))
        case Mul(left, right):
            return Mul(substitute_all(left, bindings), substitute_all(right, bindings))
        case Neg(arg):
            return Neg(substitute_all(arg, bindings))
        case Inv(arg):
            return Inv(substitute_all(arg, bindings))
        case Abs(arg):
            return Abs(substitute_all(arg, bindings))
    raise TypeError(f"not an expression: {e!r}")


def fold_constants(e: Expr, bindings: Mapping[str, Expr] | None = None) -> Expr:
    """Bottom-up simplification that is sound for every valuation.

    Constant subtrees collapse (with totalized inversion); the only
    identities applied are x+0->x, x*1->x, x*0->0, Neg(Neg(x))->x and
    Inv(Inv(x))->x. Notably x/x is NOT rewritten to 1: its value depends
    on whether x is zero.

    Bound variables are replaced on the way, in the same pass: with
    `bindings` mapping names to folded expressions, the result equals
    fold_constants(substitute_all(e, bindings)).
    """
    match e:
        case Const():
            return e
        case Var(name):
            return bindings.get(name, e) if bindings else e
        case Add(left, right):
            left, right = fold_constants(left, bindings), fold_constants(right, bindings)
            if isinstance(left, Const) and isinstance(right, Const):
                return Const(left.value + right.value)
            if left == ZERO:
                return right
            if right == ZERO:
                return left
            return Add(left, right)
        case Mul(left, right):
            left, right = fold_constants(left, bindings), fold_constants(right, bindings)
            if isinstance(left, Const) and isinstance(right, Const):
                return Const(left.value * right.value)
            if left == ZERO or right == ZERO:
                return ZERO
            if left == ONE:
                return right
            if right == ONE:
                return left
            return Mul(left, right)
        case Neg(arg):
            arg = fold_constants(arg, bindings)
            if isinstance(arg, Const):
                return Const(-arg.value)
            if isinstance(arg, Neg):
                return arg.arg
            return Neg(arg)
        case Inv(arg):
            arg = fold_constants(arg, bindings)
            if isinstance(arg, Const):
                return Const(minv(arg.value))
            if isinstance(arg, Inv):
                return arg.arg
            return Inv(arg)
        case Abs(arg):
            arg = fold_constants(arg, bindings)
            if isinstance(arg, Const):
                return Const(abs(arg.value))
            return Abs(arg)
    raise TypeError(f"not an expression: {e!r}")


def random_rational(rng: random.Random) -> Rational:
    """Small random rational for probabilistic equivalence checks.

    Zero comes up with probability >= 1/4 so that the zero-sensitive
    corners of total division get exercised; otherwise numerators lie in
    [-8, 8] and denominators in [1, 8].
    """
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-8, 8), rng.randint(1, 8))


def random_expr(rng: random.Random, names: tuple[str, ...], size: int) -> Expr:
    """Random expression with at most `size` operator nodes over `names`."""
    if size <= 0:
        if names and rng.random() < 0.6:
            return Var(rng.choice(names))
        return Const(random_rational(rng))
    pick = rng.randrange(5)
    if pick == 0:
        split = rng.randint(0, size - 1)
        return Add(random_expr(rng, names, split), random_expr(rng, names, size - 1 - split))
    if pick == 1:
        split = rng.randint(0, size - 1)
        return Mul(random_expr(rng, names, split), random_expr(rng, names, size - 1 - split))
    if pick == 2:
        return Neg(random_expr(rng, names, size - 1))
    if pick == 3:
        return Inv(random_expr(rng, names, size - 1))
    return Abs(random_expr(rng, names, size - 1))


def random_valuation(rng: random.Random, names) -> dict[str, Rational]:
    return {name: random_rational(rng) for name in sorted(names)}


def equiv_prob(e1: Expr, e2: Expr, trials: int, seed: int) -> bool:
    """Probabilistic equivalence: equal values on `trials` random valuations.

    Deterministic for a given seed. A False answer is definitive (a
    counterexample was found); True only says no difference was sampled.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    names = sorted(free_vars(e1) | free_vars(e2))
    for _ in range(trials):
        valuation = {name: random_rational(rng) for name in names}
        if evaluate(e1, valuation) != evaluate(e2, valuation):
            return False
    return True


def sort_key(e: Expr):
    """Total structural order on expressions, used for canonical forms."""
    match e:
        case Const(value):
            return (0, value.numerator, value.denominator)
        case Var(name):
            return (1, name)
        case Add(left, right):
            return (2, sort_key(left), sort_key(right))
        case Mul(left, right):
            return (3, sort_key(left), sort_key(right))
        case Neg(arg):
            return (4, sort_key(arg))
        case Inv(arg):
            return (5, sort_key(arg))
        case Abs(arg):
            return (6, sort_key(arg))
    raise TypeError(f"not an expression: {e!r}")


# Pretty-printing precedence levels.
_ADD, _MUL, _UNARY, _ATOM = 10, 20, 30, 40


def _level(e: Expr) -> int:
    match e:
        case Const(value):
            return _UNARY if value < 0 else _ATOM
        case Var() | Abs():
            return _ATOM
        case Add():
            return _ADD
        case Mul() | Inv():
            return _MUL
        case Neg():
            return _UNARY
    raise TypeError(f"not an expression: {e!r}")


def _render(e: Expr, context: int) -> str:
    match e:
        case Const(value):
            text = decimal_repr(value)
            out = text if text is not None else format_rational(value)
        case Var(name):
            out = name
        case Add(left, Neg(arg)):
            out = f"{_render(left, _ADD)} - {_render(arg, _ADD + 1)}"
        case Add(left, right):
            out = f"{_render(left, _ADD)} + {_render(right, _ADD + 1)}"
        case Mul(left, Inv(arg)):
            out = f"{_render(left, _MUL)} / {_render(arg, _MUL + 1)}"
        case Mul(left, right):
            out = f"{_render(left, _MUL)} * {_render(right, _MUL + 1)}"
        case Neg(arg):
            out = f"-{_render(arg, _UNARY)}"
        case Inv(arg):
            # No bare-inverse surface syntax; render through a division.
            out = f"1 / {_render(arg, _MUL + 1)}"
        case Abs(arg):
            out = f"abs({_render(arg, 0)})"
        case _:
            raise TypeError(f"not an expression: {e!r}")
    if _level(e) < context:
        return f"({out})"
    return out


def pretty(e: Expr) -> str:
    """Render an expression in the budget language's expression syntax.

    Reparsing the result of printing a parsed expression reproduces the
    same tree; programmatic trees (bare Inv, negative Const) still render
    as semantically equal text.
    """
    return _render(e, 0)


def walk(e: Expr) -> Iterator[Expr]:
    """Yield every node of the expression tree, parents first."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        match node:
            case Add(left, right) | Mul(left, right):
                stack.append(right)
                stack.append(left)
            case Neg(arg) | Inv(arg) | Abs(arg):
                stack.append(arg)
            case _:
                pass
