"""The cost contract: a budget's cost grows with its size as written.

Each family maps a size n to the text of a budget, a family in
BINDINGS also to the text of a bindings file, and a family in FLAGS
also to flags after the file, such as n --set flags or a sweep of n rows. Each run names a
family, a command to run on it and a check of what the command prints.
For n and 2n the command must pass its check on every run, and its
best-of-3 time may grow at most GROWTH times, above a floor that keeps
noise in short runs from failing it. A size is not run again once one of
its runs was short enough that more runs cannot change that verdict.
"""

import gc
import json
import re
import time
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest

from tuplix import algebra, bundled, dsl, expr, meadow
from tuplix.cli import main

GROWTH = 3
FLOOR_S = 0.05


def open_tests(n):
    """n tests u_i <= v_i over 2n parameters, none of them bound."""
    params = "".join(f"param u{i}\nparam v{i}\n" for i in range(n))
    tests = "\n  | ".join(f"test(u{i} <= v{i})" for i in range(n))
    return f"{params}budget T = {tests}\n  | a(1)\n"


def residual_open_tests(n, residual):
    """Each test is left as it is: nothing to solve, one residual test per pair u_i, v_i."""
    matches = [re.fullmatch(r"abs\(v(\d+) - u\1\) - \(v\1 - u\1\)", text) for text in residual]
    assert sorted(int(match[1]) for match in matches) == list(range(n))


def check_open_tests(n, code, out, err):
    """The residual tests are all that is printed."""
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert lines[:2] == ["status: ok", "residual tests:"] and len(lines) == 2 + n
    residual_open_tests(n, [line.removeprefix("  ") for line in lines[2:]])


def check_open_tests_json(n, code, out, err):
    """The same as JSON, without entries."""
    doc = json.loads(out)
    assert (code, err) == (0, "")
    assert doc == {"entries": None, "residual_tests": doc["residual_tests"], "status": "ok", "violations": []}
    residual_open_tests(n, doc["residual_tests"])


def flat_composition(n):
    """a(x + 0) | a(x + 1) | ... | a(x + n - 1), one composition of n entries."""
    return "param x\nbudget F = " + "\n  | ".join(f"a(x + {i})" for i in range(n)) + "\n"


# The value of a family at x: its entries, or None and its violations as (span, label, value).


def flat_value(n, x):
    """The entries add up to n x + n(n - 1)/2."""
    return {"a": n * x + n * (n - 1) // 2}, []


def budget_chain(n):
    """B0 = test(x <= 5) | a(x), and each B_i composes B_i-1 with itself: 2^n copies of B0 by sharing."""
    budgets = [f"budget B{i} = B{i - 1} | B{i - 1}\n" for i in range(1, n + 1)]
    return "param x\nbudget B0 = test(x <= 5) | a(x)\n" + "".join(budgets)


def chain_value(n, x):
    """2^n copies of a(x), or past x = 5 the one violation of the shared test, once."""
    if x > 5:
        return None, [(f"{n}.bgt:2:13", "x <= 5", 2 * (x - 5))]
    return {"a": 2**n * x}, []


def nested_encapsulations(n):
    """enc{c_i}(c_i(x + i) | ... | c_i(-x - i)) n deep around out(x): each balance settles to 0."""
    body = "out(x)"
    for i in reversed(range(n)):
        body = f"enc{{c{i}}}(c{i}(x + {i}) | {body} | c{i}(-x - {i}))"
    return f"param x\nbudget N = {body}\n"


def nested_value(n, x):
    """Only out(x) is left."""
    return {"out": x}, []


def def_chain(n):
    """d0 = x, and each d_i is d_i-1 + d_i-1: the body of d_n is 2^n copies of x by sharing."""
    defs = [f"def d{i} = d{i - 1} + d{i - 1}\n" for i in range(1, n + 1)]
    return "param x\ndef d0 = x\n" + "".join(defs) + f"budget D = a(d{n})\n"


def def_chain_value(n, x):
    """The amount is 2^n x, written out in full."""
    return {"a": 2**n * x}, []


def def_chain_under_a_test(n):
    """The doubling def chain in a test, with x free: its residual text writes out 2^n copies of x."""
    return def_chain(n).replace(f"budget D = a(d{n})", f"budget B = test(d{n} <= 5) | a(1)")


def check_residual_text_is_linear(n, code, out, err):
    """The one residual test, in at most 100 bytes per level of the chain: its length, not a clock."""
    assert (code, err) == (0, "") and out.startswith("status: ok\nresidual tests:\n  abs(5 - ")
    assert len(out) <= 100 * n, len(out)


def nested_brackets(n):
    """a((((x + 1) + 1) ... + 1)): n brackets deep, the entry's own among them."""
    amount = "x"
    for _ in range(n - 1):
        amount = f"({amount} + 1)"
    return f"param x\nbudget K = a({amount})\n"


def nested_brackets_value(n, x):
    """The amount is x + n - 1."""
    return {"a": x + n - 1}, []


def abs_chain(n):
    """d0 = x, and each d_i is abs(d_i-1) - d_i-1, which uses d_i-1 twice: 2^n paths by sharing."""
    defs = [f"def d{i} = abs(d{i - 1}) - d{i - 1}\n" for i in range(1, n + 1)]
    return "param x\ndef d0 = x\n" + "".join(defs) + f"budget A = a(d{n})\n"


def abs_chain_value(n, x):
    """Each step takes d to abs(d) - d: -2d for d < 0, else 0."""
    d = Fraction(x)
    for _ in range(n):
        d = abs(d) - d
    return {"a": d}, []


def many_params(n):
    """n params, each bound through --bindings, and their sum on one channel."""
    params = "".join(f"param p{i}\n" for i in range(n))
    return params + "budget P = a(" + " + ".join(f"p{i}" for i in range(n)) + ")\n"


def many_params_bindings(n):
    """p_i = i/7."""
    return "".join(f"p{i} = {i}/7\n" for i in range(n))


def many_params_flags(n):
    """p_i = i/7 again, each bound by a --set flag of its own."""
    return [item for i in range(n) for item in ("--set", f"p{i}={i}/7")]


def many_params_value(n, x):
    """The amount is n(n - 1)/14."""
    return {"a": Fraction(n * (n - 1), 14)}, []


def inverse_chain(n):
    """d0 = x, and each d_i is 1 / (d_i-1 + 1): n inverses, each of the sum before it."""
    defs = [f"def d{i} = 1 / (d{i - 1} + 1)\n" for i in range(1, n + 1)]
    return "param x\ndef d0 = x\n" + "".join(defs) + f"budget V = a(d{n})\n"


def inverse_chain_value(n, x):
    """The continued fraction 1 / (1 + 1 / (1 + ... 1 / (1 + x))), n deep."""
    d = Fraction(x)
    for _ in range(n):
        d = 1 / (d + 1)
    return {"a": d}, []


def cancelled_squares(n):
    """z = (x - 1)(x - 1) + 3/4, which is 1 at x = 1/2 and at x = 3/2, squared n times over."""
    defs = [f"def d{i} = d{i - 1} * d{i - 1}\n" for i in range(1, n + 1)]
    return "param x\ndef d0 = (x - 1) * (x - 1) + 3/4\n" + "".join(defs) + f"budget Q = a(d{n})\n"


CANCELLED_SWEEP = ["sweep", "--var", "x", "--from", "1/2", "--to", "3/2", "--step", "1"]


def check_cancelled_squares(n, code, out, err):
    """Both rows are ok, with amount 1."""
    assert (code, out, err) == (0, "x    status  a\n1/2  ok      1\n3/2  ok      1\n", "")


def alternating_chain(n):
    """d0 = x0, and each d_i is x_i - d_i-1, under a test that d_n is 0: each step negates the sum before it."""
    params = "".join(f"param x{i}\n" for i in range(n + 1))
    defs = [f"def d{i} = x{i} - d{i - 1}\n" for i in range(1, n + 1)]
    return params + "def d0 = x0\n" + "".join(defs) + f"budget S = test(d{n} == 0) | a(1)\n"


def check_alternating_chain(n, code, out, err):
    """The test, solved for x_n, is kept as it was written: x_n - (x_n-1 - (... - (x1 - x0)))."""
    text = "x1 - x0"
    for i in range(2, n + 1):
        text = f"x{i} - ({text})"
    assert (code, out, err) == (0, f"status: ok\nresidual tests:\n  {text}\n", "")


def abs_alternating_chain(n):
    """d0 = x, and each d_i is abs(x + i) - d_i-1: n atoms, and a negation of the sum before each."""
    defs = [f"def d{i} = abs(x + {i}) - d{i - 1}\n" for i in range(1, n + 1)]
    return "param x\ndef d0 = x\n" + "".join(defs) + f"budget A = a(d{n})\n"


def abs_alternating_value(n, x):
    d = Fraction(x)
    for i in range(1, n + 1):
        d = abs(x + i) - d
    return {"a": d}, []


def defs_under_tests(n):
    """n defs d_i = x + i, each under a test of its own that holds: each label prints its def by name."""
    defs = "".join(f"def d{i} = x + {i}\n" for i in range(n))
    tests = "\n  | ".join(f"test(d{i} + 1 <= d{i} + 2)" for i in range(n))
    return f"param x\n{defs}budget T = {tests}\n"


def defs_under_failing_tests(n):
    """The same n defs, each under a test of its own that fails: each violation writes its label and span."""
    defs = "".join(f"def d{i} = x + {i}\n" for i in range(n))
    tests = "\n  | ".join(f"test(d{i} + 2 <= d{i} + 1)" for i in range(n))
    return f"param x\n{defs}budget T = {tests}\n"


def defs_under_failing_tests_value(n, x):
    """Every test fails by 2, in source order: the first at column 12 of its line, each other at column 5."""
    return None, [(f"{n}.bgt:{n + 2 + i}:{5 if i else 12}", f"d{i} + 2 <= d{i} + 1", 2) for i in range(n)]


def defs_then_syntax_error(n):
    """n defs d_i = x + i, then a budget that ends in a dangling "|": a syntax error after every token."""
    defs = "".join(f"def d{i} = x + {i}\n" for i in range(n))
    return f"param x\n{defs}budget B = a(d{n - 1})\n  |"


def check_syntax_error(n, code, out, err):
    """The one error line, at the end of input just past the "|"."""
    assert (code, out, err) == (2, "", f"error: {n}.bgt:{n + 3}:4: expected a budget term, found 'end of input'\n")


def squaring_chain(n):
    """d0 = 3/7 and each d_i is d_i-1 squared, under a test that d_n is 0: (3/7)^(2^n) has 2^n times the digits."""
    defs = [f"def d{i} = d{i - 1} * d{i - 1}\n" for i in range(1, n + 1)]
    return "def d0 = 3/7\n" + "".join(defs) + f"budget Q = test(d{n} == 0)\n"


def check_squaring_chain(n, code, out, err):
    """The one violation, or past the interpreter's digit limit the refusal to print it."""
    value = Fraction(3, 7) ** (2**n)
    if value.denominator < 10**4300:
        assert (code, out, err) == (1, "", violation_line(f"{n}.bgt:{n + 2}:12", f"d{n} == 0", value) + "\n")
    else:
        assert (code, out, err) == (2, "", "error: a number has more than 4300 decimal digits\n")


# the bindings of the README's sweep of k over budget J: every parameter of J but k
README_SETS = [
    "--set", "cpec=1", "--set", "cpdg=10", "--set", "escf=1/5", "--set", "bbpp=8",
    "--set", "A:nec=30", "--set", "B:nec=20", "--set", "C:nec=10",
    "--set", "A:ndg=4", "--set", "B:ndg=1", "--set", "C:ndg=1",
]


def msc(n):
    """The shipped msc.bgt, the same at every size."""
    return bundled("msc.bgt").read_text(encoding="utf-8")


def readme_sweep_flags(n):
    """The README's sweep of k over J, from 0 to 1 in n rows."""
    return ["--budget", "J", "--var", "k", "--from", "0", "--to", "1", "--step", f"1/{n - 1}", *README_SETS]


def check_readme_sweep(n, code, out, err):
    """Row i is k = i / (n - 1), ok, with a = 52 - 4k and b = 24 + 4k, each column padded to its width."""
    table = [["k", "status", "a", "b", "c", "e", "in"]]
    for i in range(n):
        k = Fraction(i, n - 1)
        table.append([str(k), "ok", str(52 - 4 * k), str(24 + 4 * k), "20", "24", "-120"])
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = ("  ".join(map(str.ljust, row, widths)).rstrip() for row in table)
    assert (code, out, err) == (0, "\n".join(lines) + "\n", "")


def literal_digits(n):
    return ("918273645" * (n // 9 + 1))[:n]


def long_literal(n):
    """One integer literal of n digits; at 2n still within the interpreter's digit limit of 4,300."""
    return f"budget L = a({literal_digits(n)})\n"


def long_literal_value(n, x):
    """The literal itself."""
    return {"a": int(literal_digits(n))}, []


def exactly(text):
    """Exit 0, `text` on stdout and nothing on stderr, at every size."""

    def check(n, code, out, err):
        assert (code, out, err) == (0, text, "")

    return check


def violation_line(span, label, value):
    return f"{span}  {label}  value {value}"


def eval_text(value, x):
    """`eval` at x: the entries, or the violations and exit 1."""

    def check(n, code, out, err):
        entries, violations = value(n, x)
        if entries is None:
            lines = ["status: null", "violations:", *(f"  {violation_line(*v)}" for v in violations)]
        else:
            lines = ["status: ok", "entries:", *(f"  {ch}: {amount}" for ch, amount in entries.items())]
        assert (code, out, err) == (0 if violations == [] else 1, "\n".join(lines) + "\n", "")

    return check


def eval_json(value, x):
    """`eval --format json` at x: the same report as a JSON document."""

    def check(n, code, out, err):
        entries, violations = value(n, x)
        assert (code, err) == (0 if violations == [] else 1, "")
        assert json.loads(out) == {
            "entries": entries and {ch: str(amount) for ch, amount in entries.items()},
            "residual_tests": [],
            "status": "null" if entries is None else "ok",
            "violations": [{"span": span, "test": label, "value": str(v)} for span, label, v in violations],
        }

    return check


def check_at(value, x):
    """`check` at x: exit 0 and nothing printed, or exit 1 and a line per violation on stderr."""

    def check(n, code, out, err):
        _, violations = value(n, x)
        lines = "".join(violation_line(*v) + "\n" for v in violations)
        assert (code, out, err) == (0 if violations == [] else 1, "", lines)

    return check


def sweep_rows(value):
    """`sweep` of x over 4, 5 and 6: a row per value, each ok with its amounts or null."""

    def check(n, code, out, err):
        rows = {x: value(n, x)[0] for x in (4, 5, 6)}
        channels = next(entries for entries in rows.values() if entries)
        table = [["x", "status", *channels]]
        for x, entries in rows.items():
            cells = ["null", *["NULL"] * len(channels)] if entries is None else ["ok", *map(str, entries.values())]
            table.append([str(x), *cells])
        assert (code, err) == (0, "")
        assert [line.split() for line in out.splitlines()] == table

    return check


SWEEP = ["sweep", "--var", "x", "--from", "4", "--to", "6", "--step", "1"]


def evaluated_runs(family, value, x):
    """The runs of a family whose one parameter is x: eval as text and JSON, and check, at x."""
    bind, x = ["--set", x], Fraction(x.removeprefix("x="))
    return [
        (family, ["eval", *bind], eval_text(value, x)),
        (family, ["eval", "--format", "json", *bind], eval_json(value, x)),
        (family, ["check", *bind], check_at(value, x)),
    ]


def bound_runs(family, value, x):
    """The evaluated runs of a family at x, and a sweep."""
    return [*evaluated_runs(family, value, x), (family, SWEEP, sweep_rows(value))]


# family -> (text of size n, n)
FAMILIES = {
    "many open tests": (open_tests, 1000),
    "flat composition": (flat_composition, 2000),
    "doubling budget chain": (budget_chain, 200),
    # 2n brackets deep at most, below dsl.MAX_NESTING
    "nested enc": (nested_encapsulations, 100),
    "doubling def chain": (def_chain, 500),
    # 2.6 KB of residual text at n and 655 KB at 2n, until ROADMAP item 4 prints each def once
    "doubling def chain under a test": (def_chain_under_a_test, 8),
    # 2n brackets deep, exactly the limit
    "nested brackets": (nested_brackets, dsl.MAX_NESTING // 2),
    "abs chain": (abs_chain, 500),
    "many params": (many_params, 2000),
    "many set flags": (many_params, 2000),
    "long literal": (long_literal, 2000),
    "chain of inverses": (inverse_chain, 500),
    # a sweep that carried each column over the product of its denominators would square
    # 4/4 up to numbers of 2^(2n + 1) bits: small sizes, so that such a slip costs seconds
    # at 2n, not all the memory of the host
    "cancelled squares": (cancelled_squares, 12),
    # each label printed with all the defs before it: a copy of them per label would be quadratic
    "many defs under many tests": (defs_under_tests, 5000),
    # the same with every test failing: each label and span is written when its violation is reported
    "many defs under many failing tests": (defs_under_failing_tests, 5000),
    # an error places its token by listing where every token starts, once
    "syntax error after n defs": (defs_then_syntax_error, 5000),
    # a scaling that touched every coefficient would be quadratic in each chain
    "alternating chain under a test": (alternating_chain, 2000),
    "abs alternating chain": (abs_alternating_chain, 2000),
    # the digits double at each level: 0.05 s at 16 deep and 0.75 s at 18 on a 2-core Xeon
    "squaring chain": (squaring_chain, 9),
    # n rows
    "sweep points": (msc, 500),
}

# family -> the text of its bindings file at size n, passed with --bindings to every run of the family
BINDINGS = {"many params": many_params_bindings}

# family -> the flags of every run of the family at size n, after the file
FLAGS = {"many set flags": many_params_flags, "sweep points": readme_sweep_flags}

# (family, the command before the file, the check of its exit code, stdout and stderr)
RUNS = [
    ("many open tests", ["eval"], check_open_tests),
    ("many open tests", ["eval", "--format", "json"], check_open_tests_json),
    ("many open tests", ["eval", "--substitute-tests"], check_open_tests),
    *bound_runs("flat composition", flat_value, "x=1/3"),
    *bound_runs("doubling budget chain", chain_value, "x=6"),
    # unbound: the shared test stays open, and no substitution solves it
    ("doubling budget chain", ["eval", "--substitute-tests"],
     exactly("status: ok\nresidual tests:\n  abs(5 - x) - (5 - x)\n")),
    *bound_runs("nested enc", nested_value, "x=1/3"),
    # unbound: each balance x + i + (-x + -i) is linear, and substitution drops it
    ("nested enc", ["eval", "--substitute-tests"], exactly("status: ok\n")),
    *bound_runs("doubling def chain", def_chain_value, "x=1/3"),
    pytest.param("doubling def chain under a test", ["eval"], check_residual_text_is_linear, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP item 4: pretty writes a shared def out at each use")),
    *evaluated_runs("nested brackets", nested_brackets_value, "x=1/3"),
    *evaluated_runs("abs chain", abs_chain_value, "x=-1/3"),
    ("many params", ["eval"], eval_text(many_params_value, None)),
    ("many params", ["check"], check_at(many_params_value, None)),
    ("many set flags", ["eval"], eval_text(many_params_value, None)),
    ("many set flags", ["check"], check_at(many_params_value, None)),
    ("long literal", ["eval"], eval_text(long_literal_value, None)),
    ("long literal", ["check"], check_at(long_literal_value, None)),
    # as text only: JSON takes no other path through the inverses
    ("chain of inverses", ["eval", "--set", "x=1/3"], eval_text(inverse_chain_value, Fraction(1, 3))),
    ("chain of inverses", ["check", "--set", "x=1/3"], check_at(inverse_chain_value, Fraction(1, 3))),
    ("chain of inverses", SWEEP, sweep_rows(inverse_chain_value)),
    ("cancelled squares", CANCELLED_SWEEP, check_cancelled_squares),
    ("many defs under many tests", ["check", "--set", "x=0"], exactly("")),
    ("many defs under many failing tests", ["check", "--set", "x=0"], check_at(defs_under_failing_tests_value, 0)),
    ("syntax error after n defs", ["eval"], check_syntax_error),
    ("alternating chain under a test", ["eval", "--substitute-tests"], check_alternating_chain),
    ("abs alternating chain", SWEEP, sweep_rows(abs_alternating_value)),
    pytest.param("squaring chain", ["check"], check_squaring_chain, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="ROADMAP item 11: the size of exact numbers is not bounded")),
    ("sweep points", ["sweep"], check_readme_sweep),
]


def run_ids(runs):
    """A family's first run, its plain eval, is named by the family; each later run adds its command."""
    seen, ids = set(), []
    for run in runs:
        family, command, _ = getattr(run, "values", run)  # a run marked by pytest.param holds its values
        ids.append(f"{family}: {' '.join(command[:3])}" if family in seen else family)
        seen.add(family)
    return ids


@pytest.mark.parametrize("family, command, check", RUNS, ids=run_ids(RUNS))
def test_cost_grows_with_the_budget_as_written(family, command, check, tmp_path, capsys):
    text, n = FAMILIES[family]
    sizes = (n, 2 * n)
    arguments = {}
    for size in sizes:
        (tmp_path / f"{size}.bgt").write_text(text(size), encoding="utf-8")
        arguments[size] = [str(tmp_path / f"{size}.bgt")]
        if family in BINDINGS:
            (tmp_path / f"{size}.bindings").write_text(BINDINGS[family](size), encoding="utf-8")
            arguments[size] += ["--bindings", str(tmp_path / f"{size}.bindings")]
        arguments[size] += FLAGS[family](size) if family in FLAGS else []
    # At n the floor stands in for any time below it, and at 2n any time below GROWTH floors
    # passes, so a size stops once it has run that fast. The sizes take turns, so that a slow
    # spell of the host slows both.
    times = ([], [])
    for _ in range(3):
        for size, enough, spent in zip(sizes, (FLOOR_S, GROWTH * FLOOR_S), times):
            if spent and min(spent) <= enough:
                continue
            gc.collect()
            start = time.perf_counter()
            code = main([*command, *arguments[size]])
            spent.append(time.perf_counter() - start)
            check(size, code, *capsys.readouterr())
    assert min(times[1]) <= GROWTH * max(min(times[0]), FLOOR_S), times


def equalities(n):
    """n equalities u_i == v_i over 2n parameters, each solvable for u_i and none sharing a parameter."""
    params = "".join(f"param u{i}\nparam v{i}\n" for i in range(n))
    tests = "\n  | ".join(f"test(u{i} == v{i})" for i in range(n))
    return f"{params}budget E = {tests}\n  | a(1)\n"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 9: apply_test_substitution folds every entry and test again for each test it solves",
)
def test_substituting_independent_tests_folds_each_node_a_bounded_number_of_times(tmp_path, monkeypatch, capsys):
    # a count of fold steps, not a clock, so the breach shows the same on every run
    steps = []

    def counted(fold_node):
        def step(*args):
            steps.append(None)
            return fold_node(*args)

        return step

    for module in (expr, algebra):
        monkeypatch.setattr(module, "_fold_node", counted(module._fold_node))
    counts = []
    for n in (100, 200):
        f = tmp_path / f"{n}.bgt"
        f.write_text(equalities(n), encoding="utf-8")
        steps.clear()
        code = main(["eval", "--substitute-tests", str(f)])
        out = capsys.readouterr().out
        assert code == 0 and sorted(out.splitlines()[2:]) == sorted(f"  u{i} - v{i}" for i in range(n))
        counts.append(len(steps))
    assert counts[1] <= 2.5 * counts[0], counts


def integer_sweep_rows(n):
    """B = a(x) | b(2x + 1) at x = 0, ..., n - 1: the values stay integers."""
    table = [["x", "status", "a", "b"], *([str(x), "ok", str(x), str(2 * x + 1)] for x in range(n))]
    widths = [max(map(len, column)) for column in zip(*table)]
    return "".join("  ".join(map(str.ljust, row, widths)).rstrip() + "\n" for row in table)


# Rows that count work rather than time it: the calls of `meadow.gcd` and `meadow.floordiv`, which
# `add_pairs`, `mul_pairs` and `lowest_terms` reduce with, then of `expr.gcd` and `expr.floordiv`, which
# the column kernel reduces with (`expr._common`, `expr._inverse`). A step that changes no value, such
# as a form rescaled by 1 or a column divided by gcds that are all 1, fails these rows and no other.
WORK = [
    ("README sweep", msc(5), readme_sweep_flags(5), partial(check_readme_sweep, 5), (303, 10, 13, 15)),
    ("integer sweep", "param x\nbudget B = a(x) | b(2 * x + 1)\n",
     ["--var", "x", "--from", "0", "--to", "9", "--step", "1"], partial(exactly(integer_sweep_rows(10)), 10),
     (43, 0, 3, 0)),
]


@pytest.mark.parametrize("text, flags, check, calls", [run[1:] for run in WORK], ids=[run[0] for run in WORK])
def test_a_sweep_reduces_its_pairs_a_fixed_number_of_times(text, flags, check, calls, tmp_path, monkeypatch, capsys):
    counts = Counter()

    def counted(name, function):
        def call(*args):
            counts[name] += 1
            return function(*args)

        return call

    names = [(module, name) for module in (meadow, expr) for name in ("gcd", "floordiv")]
    for module, name in names:
        monkeypatch.setattr(module, name, counted((module, name), getattr(module, name)))
    f = tmp_path / "budget.bgt"
    f.write_text(text, encoding="utf-8")
    check(main(["sweep", str(f), *flags]), *capsys.readouterr())
    assert tuple(counts[key] for key in names) == calls
