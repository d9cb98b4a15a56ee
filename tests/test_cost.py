"""The cost contract: a budget's cost grows with its size as written.

Each family maps a size n to the text of a budget, with the command to run
on it and a check of what the command prints. For n and 2n the command
must pass its check, and its best-of-3 time may grow at most GROWTH
times, above a floor that keeps noise in short runs from failing it.
"""

import gc
import re
import time

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


# family -> (text of size n, the command before the file, the check, n)
FAMILIES = {
    "many open tests": (open_tests, ["eval"], check_open_tests, 1000),
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
