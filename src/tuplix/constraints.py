"""Constraints expressed as budget test arguments.

Every constraint becomes a single expression that is zero exactly when
the constraint holds, built from the expression constructors alone, so
that Test(...) of it is void when the constraint holds and impossible
otherwise:

  p <= q   via |q - p| - (q - p), which is 0 iff q >= p
  p == q   via p - q
  and      via f1/f1 + ... + fn/fn, a sum of zero-or-one indicators
           that is 0 iff every argument is 0
"""

from __future__ import annotations

from functools import reduce

from .expr import Abs, Add, Expr, div, sub


def leq_expr(p: Expr, q: Expr) -> Expr:
    """Zero iff p <= q."""
    d = sub(q, p)
    return sub(Abs(d), d)


def conjunction_expr(args: list[Expr]) -> Expr:
    """Zero iff every argument is zero; a left-folded sum of indicators."""
    if not args:
        raise ValueError("conjunction of no constraints")
    return reduce(Add, (div(a, a) for a in args))
