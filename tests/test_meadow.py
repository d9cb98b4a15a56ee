import operator
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from tuplix.expr import PAIR_STEPS, Abs, Add, Inv, Mul, Neg
from tuplix.meadow import (
    ZERO,
    DigitLimitError,
    add_pairs,
    decimal_repr,
    format_column,
    format_rational,
    lowest_terms,
    minv,
    minv_pair,
    parse_rational,
    _parse_by_pattern,
)


def test_parse_rational_reduces():
    assert parse_rational("4/6") == Fraction(2, 3)
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("0/7") == ZERO
    assert parse_rational("5") == Fraction(5)


def test_parse_rational_rejects_zero_denominator():
    for text in ("1/0", "0/0", "-3/00"):
        with pytest.raises(ValueError, match="^zero denominator in rational constant$"):
            parse_rational(text)


def test_minv_totalizes_zero():
    assert minv(ZERO) == ZERO
    assert minv(Fraction(2, 3)) == Fraction(3, 2)
    assert minv(Fraction(-4)) == Fraction(-1, 4)


def random_fraction(rng):
    """Zero, a small value or a value of about 300 digits, each sign, the pair in lowest terms."""
    if rng.random() < 0.2:
        return Fraction(0)
    digits = rng.choice((1, 3, 300))
    return Fraction(rng.randint(-(10**digits), 10**digits), rng.randint(1, 10**digits))


def in_lowest_terms(pair):
    n, d = pair
    return d > 0 and gcd(n, d) == 1


def test_pair_arithmetic_agrees_with_fraction_in_lowest_terms():
    # each step of PAIR_STEPS, which the fold takes, against its kind's operation on Fraction
    on_fractions = {Add: operator.add, Mul: operator.mul, Neg: operator.neg, Inv: minv, Abs: abs}
    assert PAIR_STEPS.keys() == on_fractions.keys()
    rng = random.Random(11)
    for _ in range(2_000):
        x, y = random_fraction(rng), random_fraction(rng)
        p, q = x.as_integer_ratio(), y.as_integer_ratio()
        for kind, step in PAIR_STEPS.items():
            arity = step.__code__.co_argcount
            got, want = step(*(p, q)[:arity]), on_fractions[kind](*(x, y)[:arity])
            assert in_lowest_terms(got) and got == want.as_integer_ratio(), (kind, x, y, got)
    assert minv_pair((0, 1)) == (0, 1)
    assert add_pairs((1, 6), (-1, 6)) == (0, 1)  # a sum of zero over a shared denominator


def test_lowest_terms_divides_each_row_by_its_gcd():
    rng = random.Random(12)
    numerators, denominators = [0, 6, -10**300 * 4], [5, 4, 10**300 * 6]
    for _ in range(500):
        x, k = random_fraction(rng), rng.choice((1, 2, 3, 10**300))
        numerators.append(x.numerator * k)
        denominators.append(x.denominator * k)
    column = lowest_terms(numerators, denominators)
    assert all(map(in_lowest_terms, zip(*column)))
    assert list(map(Fraction, *column)) == list(map(Fraction, numerators, denominators))
    reduced = ([1, -2], [3, 1])
    assert lowest_terms(*reduced) == reduced  # returned as they are when already in lowest terms
    # one denominator that every row shares is spread over the rows
    shared = 10**300 * 6
    numerators = [0, -shared, 4, -(10**300) * 4, *(rng.randint(-(10**301), 10**301) for _ in range(200))]
    column = lowest_terms(numerators, shared)
    assert all(map(in_lowest_terms, zip(*column)))
    assert list(map(Fraction, *column)) == [Fraction(n, shared) for n in numerators]
    assert lowest_terms([1, -2], 3) == ([1, -2], [3, 3])


def test_format_column_writes_each_row_as_format_rational():
    rng = random.Random(14)
    values = [random_fraction(rng) for _ in range(300)]
    column = [v.numerator for v in values], [v.denominator for v in values]
    assert format_column(*column) == list(map(format_rational, values))
    integers = [Fraction(n) for n in (0, -7, 10**300)]
    assert format_column([0, -7, 10**300], [1, 1, 1]) == list(map(format_rational, integers))
    assert format_column([], []) == []


def test_parse_rational_accepts_fractions_and_decimals():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("+3") == Fraction(3)
    assert parse_rational("2/6") == Fraction(1, 3)
    assert parse_rational("-10/4") == Fraction(-5, 2)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("-1.5") == Fraction(-3, 2)
    assert parse_rational("0.0") == ZERO


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


def test_parse_rational_reads_an_integer_as_the_pattern_does():
    # integers skip the pattern; any text that they take and the pattern reads otherwise fails here
    limit = sys.get_int_max_str_digits()
    texts = ["", "+", "-", "--1", "+-1", "-+1", " 1", "1 ", "1\n", "1_000", "²", "1²", "٣", "+٣", "-٣٣",
             "00", "-007", "+0", "-0", "0x1", "1e3", "1.5", "-1/2", "+1/2", "١٢/٣", "1" * (limit + 1),
             "-" + "1" * (limit + 1), "+" + "9" * limit, "-" + "0" * (limit + 1), "1/" + "3" * (limit + 1)]
    rng = random.Random(13)
    for _ in range(20_000):
        digits = "".join(rng.choices("0123456789٣١²_ ", k=rng.randint(0, 5)))
        texts.append(rng.choice(["", "", "+", "-", "--", "+-", " "]) + digits + rng.choice(["", "", "\n", "/7", ".5"]))
    assert sum((text[1:] if text[:1] in ("+", "-") else text).isdecimal() for text in texts) > 1_000
    for text in texts:
        assert outcome(parse_rational, text) == outcome(_parse_by_pattern, text), text[:20]
    assert outcome(parse_rational, "-007") == Fraction(-7) and outcome(parse_rational, "+٣") == Fraction(3)
    for text in ("1" * (limit + 1), "-" + "1" * (limit + 1)):
        with pytest.raises(DigitLimitError):
            parse_rational(text)


def test_parse_rational_rejects_garbage():
    for bad in ("", "1/0", "1/-2", "x", "1.2.3", "1 / 2", "2e3", "--4", "1/", ".5"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_rational_round_trips():
    cases = [Fraction(0), Fraction(7), Fraction(-7), Fraction(2, 3), Fraction(-9, 4)]
    for x in cases:
        assert parse_rational(format_rational(x)) == x
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(-1, 3)) == "-1/3"


def test_decimal_repr_only_for_terminating_fractions():
    assert decimal_repr(Fraction(1, 4)) == "0.25"
    assert decimal_repr(Fraction(-3, 2)) == "-1.5"
    assert decimal_repr(Fraction(7)) == "7"
    assert decimal_repr(Fraction(1, 3)) is None
    assert decimal_repr(Fraction(1, 20)) == "0.05"
    assert parse_rational(decimal_repr(Fraction(9, 40))) == Fraction(9, 40)


def test_numbers_past_the_digit_limit_raise_a_plain_error():
    # the interpreter converts ints of at most this many digits to and from text
    limit = sys.get_int_max_str_digits()
    message = f"^a number has more than {limit} decimal digits$"
    at_limit = "9" * limit
    assert format_rational(parse_rational(at_limit)) == at_limit
    for text in ("1" * (limit + 1), f"1/{'3' * (limit + 1)}", f"0.{'5' * (limit + 1)}"):
        with pytest.raises(DigitLimitError, match=message):
            parse_rational(text)
    past = Fraction(10**limit)
    for x in (past, Fraction(1, 10**limit * 3), Fraction(10**limit * 3, 7)):
        with pytest.raises(DigitLimitError, match=message):
            format_rational(x)
        # in a column, whether every row is an integer or not
        with pytest.raises(DigitLimitError, match=message):
            format_column([x.numerator, 1], [x.denominator, 1])
    for x in (past, Fraction(10**limit + 1, 2), Fraction(1, 2**(4 * limit))):
        with pytest.raises(DigitLimitError, match=message):
            decimal_repr(x)
