"""The cost contract: a budget's cost grows with its size as written.

Each family maps a size n to the text of a budget, with the command to run
on it and a check of what the command prints. For n and 2n the command
must pass its check, and its best-of-3 time may grow at most GROWTH
times, above a floor that keeps noise in short runs from failing it.
"""

import gc
import re
import time
from fractions import Fraction

import pytest

from tuplix.cli import main

GROWTH = 3
FLOOR_S = 0.05


def open_tests(n):
    """n tests u_i <= v_i over 2n parameters, none of them bound."""
    params = "".join(f"param u{i}\nparam v{i}\n" for i in range(n))
    tests = "\n  | ".join(f"test(u{i} <= v{i})" for i in range(n))
    return f"{params}budget T = {tests}\n  | a(1)\n"


def check_open_tests(n, code, out):
    """Each test is left as one residual line, and nothing else is printed."""
    lines = out.splitlines()
    assert code == 0
    assert lines[:2] == ["status: ok", "residual tests:"] and len(lines) == 2 + n
    residual = [re.fullmatch(r"  abs\(v(\d+) - u\1\) - \(v\1 - u\1\)", line) for line in lines[2 : 2 + n]]
    assert sorted(int(match[1]) for match in residual) == list(range(n))


def flat_composition(n):
    """a(x + 0) | a(x + 1) | ... | a(x + n - 1), one composition of n entries."""
    return "param x\nbudget F = " + "\n  | ".join(f"a(x + {i})" for i in range(n)) + "\n"


def check_flat_composition(n, code, out):
    """At x = 1/3 the entries add up to n/3 + n(n - 1)/2."""
    assert code == 0
    assert out == f"status: ok\nentries:\n  a: {Fraction(n, 3) + n * (n - 1) // 2}\n"


def budget_chain(n):
    """B0 = test(x <= 5) | a(x), and each B_i composes B_i-1 with itself: 2^n copies of B0 by sharing."""
    budgets = [f"budget B{i} = B{i - 1} | B{i - 1}\n" for i in range(1, n + 1)]
    return "param x\nbudget B0 = test(x <= 5) | a(x)\n" + "".join(budgets)


def check_budget_chain(n, code, out):
    """At x = 6 the one test fails, and its violation is printed once."""
    assert code == 1
    assert out == f"status: null\nviolations:\n  {n}.bgt:2:13  x <= 5  value 2\n"


def nested_encapsulations(n):
    """enc{c_i}(c_i(x + i) | ... | c_i(-x - i)) n deep around out(x): each balance settles to 0."""
    body = "out(x)"
    for i in reversed(range(n)):
        body = f"enc{{c{i}}}(c{i}(x + {i}) | {body} | c{i}(-x - {i}))"
    return f"param x\nbudget N = {body}\n"


def check_nested_encapsulations(n, code, out):
    """Only out(x) is left, at x = 1/3."""
    assert code == 0
    assert out == "status: ok\nentries:\n  out: 1/3\n"


def def_chain(n):
    """d0 = x, and each d_i is d_i-1 + d_i-1: the body of d_n is 2^n copies of x by sharing."""
    defs = [f"def d{i} = d{i - 1} + d{i - 1}\n" for i in range(1, n + 1)]
    return "param x\ndef d0 = x\n" + "".join(defs) + f"budget D = a(d{n})\n"


def check_def_chain(n, code, out):
    """At x = 1/3 the amount is 2^n / 3, written out in full."""
    assert code == 0
    assert out == f"status: ok\nentries:\n  a: {Fraction(2**n, 3)}\n"


# family -> (text of size n, the command before the file, the check, n)
FAMILIES = {
    "many open tests": (open_tests, ["eval"], check_open_tests, 1000),
    "flat composition": (flat_composition, ["eval", "--set", "x=1/3"], check_flat_composition, 2000),
    "doubling budget chain": (budget_chain, ["eval", "--set", "x=6"], check_budget_chain, 200),
    # 2n brackets deep at most, below dsl.MAX_NESTING
    "nested enc": (nested_encapsulations, ["eval", "--set", "x=1/3"], check_nested_encapsulations, 100),
    "doubling def chain": (def_chain, ["eval", "--set", "x=1/3"], check_def_chain, 500),
}


def best_of_3(argv, capsys):
    """The least time of three runs of the command, with the output of the last."""
    times = []
    for _ in range(3):
        gc.collect()
        start = time.perf_counter()
        code = main(argv)
        times.append(time.perf_counter() - start)
        out = capsys.readouterr().out
    return min(times), code, out


@pytest.mark.parametrize("family", FAMILIES)
def test_cost_grows_with_the_budget_as_written(family, tmp_path, capsys):
    text, command, check, n = FAMILIES[family]
    times = []
    for size in (n, 2 * n):
        f = tmp_path / f"{size}.bgt"
        f.write_text(text(size))
        seconds, code, out = best_of_3([*command, str(f)], capsys)
        check(size, code, out)
        times.append(seconds)
    assert times[1] <= GROWTH * max(times[0], FLOOR_S), times
