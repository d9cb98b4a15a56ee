"""Exact rational arithmetic with a total multiplicative inverse.

Division never fails here: the inverse of zero is zero. That single
convention makes every operation total, so terms built on top of these
numbers can always be evaluated. The quotient x/x then acts as a zero
test: it is 0 when x is 0 and 1 otherwise.

A rational is a `Fraction` at the edges and an integer pair in lowest
terms inside every fold; the law suite checks the meadow laws on pairs.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd
from operator import floordiv

# Canonical representation: stdlib Fraction already stores lowest terms
# with a positive denominator, so equality is plain structural equality.
Rational = Fraction

ZERO = Fraction(0)

# One rational as an integer pair (numerator, denominator), in lowest terms
# with a positive denominator, the invariant `Fraction` keeps.
Pair = tuple[int, int]

# Many rationals at once, as a list of numerators and their positive
# denominators: one int that every row shares, or a list of one per row.
# Row i is numerators[i] over the shared int, or over denominators[i]. A
# column with a denominator per row is in lowest terms; one with a shared
# denominator need not be, though `expr` divides each one it computes by the
# gcd of its denominator and all its numerators.
Column = tuple[list[int], int | list[int]]

_RATIONAL_RE = re.compile(r"([+-]?)(\d+)(?:/(\d+)|\.(\d+))?\Z")


class DigitLimitError(ValueError):
    """An int past sys.get_int_max_str_digits() digits, which cannot be turned into text or back."""

    def __init__(self) -> None:
        super().__init__(f"a number has more than {sys.get_int_max_str_digits()} decimal digits")


def quoted(text: str) -> str:
    """The repr of a text cut to 40 characters and "...", so that an error stays one short line."""
    return repr(text if len(text) <= 40 else text[:40] + "...")


def minv(x: Rational) -> Rational:
    """Multiplicative inverse, totalized: minv(0) is 0."""
    if x == 0:
        return ZERO
    return 1 / x


def parse_rational(text: str) -> Rational:
    """Parse 'n', 'n/d' or an exact decimal, with an optional sign.

    The denominator must be nonzero: '1/0' is rejected here (written
    literals are author input, unlike computed divisions which totalize).
    An integer, decimal digits after at most one sign, as every literal of
    a program is, goes straight to `int`, which reads the same digits as
    the pattern's \\d; any other text is matched by the pattern.
    """
    digits = text[1:] if text[:1] == "-" or text[:1] == "+" else text
    if digits.isdecimal():
        try:
            return Fraction(int(text))  # Fraction(n) takes an int as it is, with no gcd
        except ValueError:
            raise DigitLimitError() from None
    return _parse_by_pattern(text)


def _parse_by_pattern(text: str) -> Rational:
    """`parse_rational` by the pattern alone, which reads every form of rational it takes."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational constant: {quoted(text)}")
    sign, intpart, den, decimals = m.groups()
    if den is not None and not den.strip("0"):
        raise ValueError("zero denominator in rational constant")
    try:
        # Fraction(n) takes an int as it is, with no gcd
        value = Fraction(int(intpart)) if den is None else Fraction(int(intpart), int(den))
        if decimals is not None:
            value += Fraction(int(decimals), 10 ** len(decimals))
    except ValueError:
        raise DigitLimitError() from None
    return -value if sign == "-" else value


def add_pairs(x: Pair, y: Pair) -> Pair:
    """x + y, reduced as `Fraction` adds: a sum over coprime denominators needs no gcd."""
    (a, b), (c, d) = x, y
    g = gcd(b, d)
    if g == 1:
        return a * d + b * c, b * d
    s = b // g
    t = a * (d // g) + c * s
    g = gcd(t, g)  # the only common factor the sum over s * d can have
    if g == 1:
        return t, s * d
    return t // g, s * (d // g)


def mul_pairs(x: Pair, y: Pair) -> Pair:
    """x * y, reduced as `Fraction` multiplies: by the gcds across, so no product is reduced."""
    (a, b), (c, d) = x, y
    g = gcd(a, d)
    if g > 1:
        a, d = a // g, d // g
    g = gcd(c, b)
    if g > 1:
        c, b = c // g, b // g
    return a * c, b * d


def minv_pair(x: Pair) -> Pair:
    """The totalized inverse of a pair: b/a becomes sign(a) * b / |a|, and 0/1 stays 0/1."""
    n, d = x
    return (d, n) if n > 0 else (-d, -n) if n else x


def lowest_terms(numerators: list[int], denominators: int | list[int]) -> tuple[list[int], list[int]]:
    """A column with each row divided through by its gcd, so in lowest terms: 0/d becomes 0/1.

    The result has a denominator per row; a shared one is spread over the
    rows. The lists are returned as they are when every row already is in
    lowest terms.
    """
    if type(denominators) is int:
        denominators = [denominators] * len(numerators)
    gcds = list(map(gcd, numerators, denominators))
    if gcds.count(1) == len(gcds):
        return numerators, denominators
    return list(map(floordiv, numerators, gcds)), list(map(floordiv, denominators, gcds))


def format_column(numerators: list[int], denominators: list[int]) -> list[str]:
    """The canonical text of each row of a column in lowest terms, as `format_rational` gives it."""
    try:
        if denominators.count(1) == len(denominators):
            return list(map(str, numerators))
        return [str(n) if d == 1 else f"{n}/{d}" for n, d in zip(numerators, denominators)]
    except ValueError:
        raise DigitLimitError() from None


def format_rational(x: Rational) -> str:
    """Canonical text form: 'n/d', or just 'n' when the denominator is 1."""
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise DigitLimitError() from None


def decimal_repr(x: Rational) -> str | None:
    """Exact decimal text for x, or None when none exists.

    Only denominators of the form 2^a * 5^b terminate.
    """
    den = x.denominator
    if den == 1:
        return format_rational(x)
    twos = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    places = max(twos, fives)
    scaled = abs(x.numerator) * 10**places // x.denominator
    try:
        digits = str(scaled).rjust(places + 1, "0")
    except ValueError:
        raise DigitLimitError() from None
    sign = "-" if x < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"
