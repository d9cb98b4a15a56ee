import argparse
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import tuplix
from case_study import PROGRAMS, consistent_scenario, straight_line
from tuplix import algebra, bundled, cli, dsl, expr, meadow
from tuplix.algebra import normalize
from tuplix.cli import main
from tuplix.dsl import MAX_NESTING, parse
from tuplix.expr import Const, LinearForms, free_vars, postorder

TRANSFER = str(bundled("transfer.bgt"))
MSC = str(bundled("msc.bgt"))

# a small economy for sweeping the joint budget J:
# income 60 from credits (cpec 1) + 60 from degrees (cpdg 10), fifth to the
# service center, basic budget 8 per program
S0 = {
    "cpec": "1",
    "cpdg": "10",
    "escf": "1/5",
    "A:nec": "30",
    "B:nec": "20",
    "C:nec": "10",
    "A:ndg": "4",
    "B:ndg": "1",
    "C:ndg": "1",
    "bbpp": "8",
}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def sets(d):
    out = []
    for name, value in d.items():
        out.extend(["--set", f"{name}={value}"])
    return out


def test_eval_transfer_text(capsys):
    code, out, _ = run(["eval", TRANSFER], capsys)
    assert code == 0
    assert "status: ok" in out
    assert "a: -30" in out
    assert "c: 30" in out


def test_eval_picks_last_budget_by_default(capsys):
    code, out, _ = run(["eval", TRANSFER, "--format", "json"], capsys)
    named = run(["eval", TRANSFER, "--budget", "Net", "--format", "json"], capsys)
    assert code == 0
    assert out == named[1]


def test_eval_json_is_byte_stable(capsys):
    first = run(["eval", TRANSFER, "--format", "json"], capsys)
    second = run(["eval", TRANSFER, "--format", "json"], capsys)
    assert first == second
    doc = json.loads(first[1])
    assert doc == {
        "entries": {"a": "-30", "c": "30"},
        "residual_tests": [],
        "status": "ok",
        "violations": [],
    }


GOLDEN_BGT = """\
param x
param y
budget Open = test(x <= y && x == 1) | a(x) | b(1/3)
budget Null = test(x <= 1) | delta | enc{b}(b(x) | a(1))
budget Pin = test(x == 2) | test(x <= 1) | a(x)
budget Twice = Null | Null
budget Count = enc{b}(b(x) | b(x) | b(-1)) | a(y)
"""

OPEN_TEST = "(abs(y - x) - (y - x)) / (abs(y - x) - (y - x)) + (x + -1) / (x + -1)"

NULL_VIOLATIONS = """\
golden.bgt:4:15  x <= 1  value 2
golden.bgt:4:30  delta  value 1
golden.bgt:4:38  enc{b}  value 2
"""


def violation_json(span, test, value):
    return (
        f'    {{\n      "span": "{span}",\n      "test": "{test}",\n'
        f'      "value": "{value}"\n    }}'
    )


def report_json(entries, residual_tests, status, violations):
    tests = "[]" if not residual_tests else "[\n" + ",\n".join(
        f'    "{t}"' for t in residual_tests
    ) + "\n  ]"
    listed = "[]" if not violations else "[\n" + ",\n".join(violations) + "\n  ]"
    return (
        f'{{\n  "entries": {entries},\n  "residual_tests": {tests},\n'
        f'  "status": "{status}",\n  "violations": {listed}\n}}\n'
    )


GOLDEN_REPORTS = [
    # residual tests, entries withheld
    (["eval", "--budget", "Open"], 0, f"status: ok\nresidual tests:\n  {OPEN_TEST}\n", ""),
    (["eval", "--budget", "Open", "--format", "json"], 0,
     report_json("null", [OPEN_TEST], "ok", []), ""),
    # a failed test, delta and an unbalanced enc, each at its place
    (["eval", "--budget", "Null", "--set", "x=2", "--set", "y=0"], 1,
     "status: null\nviolations:\n" + "".join(f"  {line}\n" for line in NULL_VIOLATIONS.splitlines()),
     ""),
    (["eval", "--budget", "Null", "--set", "x=2", "--set", "y=0", "--format", "json"], 1,
     report_json("null", [], "null", [
         violation_json("golden.bgt:4:15", "x <= 1", "2"),
         violation_json("golden.bgt:4:30", "delta", "1"),
         violation_json("golden.bgt:4:38", "enc{b}", "2"),
     ]), ""),
    (["check", "--budget", "Null", "--set", "x=2", "--set", "y=0"], 1, "", NULL_VIOLATIONS),
    # a shared budget reaches each failing test twice, and each violation prints once
    (["eval", "--budget", "Twice", "--set", "x=2", "--set", "y=0"], 1,
     "status: null\nviolations:\n" + "".join(f"  {line}\n" for line in NULL_VIOLATIONS.splitlines()),
     ""),
    (["eval", "--budget", "Twice", "--set", "x=2", "--set", "y=0", "--format", "json"], 1,
     report_json("null", [], "null", [
         violation_json("golden.bgt:4:15", "x <= 1", "2"),
         violation_json("golden.bgt:4:30", "delta", "1"),
         violation_json("golden.bgt:4:38", "enc{b}", "2"),
     ]), ""),
    (["check", "--budget", "Twice", "--set", "x=2", "--set", "y=0"], 1, "", NULL_VIOLATIONS),
    # the one node x counted twice in a balance prints as 2 * x
    (["eval", "--budget", "Count"], 0, "status: ok\nresidual tests:\n  -1 + 2 * x\n", ""),
    (["eval", "--budget", "Count", "--format", "json"], 0,
     report_json("null", ["-1 + 2 * x"], "ok", []), ""),
    # a test made by substitution has no place in the source
    (["eval", "--budget", "Pin", "--substitute-tests"], 1,
     "status: null\nviolations:\n  abs(1 - x) - (1 - x)  value 2\n", ""),
    (["eval", "--budget", "Pin", "--substitute-tests", "--format", "json"], 1,
     report_json("null", [], "null", [violation_json("", "abs(1 - x) - (1 - x)", "2")]), ""),
]


def test_eval_and_check_reports_are_byte_exact(tmp_path, capsys):
    f = tmp_path / "golden.bgt"
    f.write_text(GOLDEN_BGT, encoding="utf-8")
    for (command, *flags), code, out, err in GOLDEN_REPORTS:
        assert run([command, str(f), *flags], capsys) == (code, out, err), flags


def child_env():
    # the child must import the same tuplix as this process, installed or not
    src = str(Path(tuplix.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_child(argv):
    return subprocess.run(
        [sys.executable, "-m", "tuplix.cli", *argv], capture_output=True, encoding="utf-8", env=child_env()
    )


def test_eval_entry_point_runs_as_subprocess():
    proc = run_child(["eval", TRANSFER, "--format", "json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entries"] == {"a": "-30", "c": "30"}


def test_a_sweep_whose_reader_closes_the_pipe_early_exits_2_without_a_traceback(tmp_path):
    # 100,000 rows are far more than a pipe holds, so the sweep's write meets the closed pipe
    f = tmp_path / "sweep.bgt"
    f.write_text("param x\nbudget B = a(x) | b(2 * x + 1)\n", encoding="utf-8")
    argv = ["sweep", str(f), "--budget", "B", "--var", "x", "--from", "0", "--to", "99999", "--step", "1"]
    with subprocess.Popen([sys.executable, "-m", "tuplix.cli", *argv], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, encoding="utf-8", env=child_env()) as proc:
        assert proc.stdout.readline() == "x      status  a      b\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (2, "error: the output was closed before it was all written\n")


def test_eval_of_a_long_flat_composition(tmp_path, capsys):
    # 20,000 entries a(x + i) lie far past the interpreter's recursion limit
    n = 20_000
    f = tmp_path / "flat.bgt"
    entries = " | ".join(f"a(x + {i})" for i in range(n))
    f.write_text(f"param x\nbudget B = {entries}\n", encoding="utf-8")
    code, out, _ = run(["eval", str(f), "--set", "x=1/2"], capsys)
    assert code == 0
    assert out == f"status: ok\nentries:\n  a: {n // 2 + n * (n - 1) // 2}\n"
    assert run(["eval", str(f)], capsys)[:2] == (0, "status: ok\n")


def test_input_nested_too_deeply_exits_2(tmp_path):
    # a long sum is not nesting: every expression pass keeps its own stack
    long_sum = tmp_path / "sum.bgt"
    long_sum.write_text("param x\nbudget B = a(x" + " + 1" * 3000 + ")\n", encoding="utf-8")
    proc = run_child(["eval", str(long_sum), "--set", "x=1/2"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "status: ok\nentries:\n  a: 6001/2\n"
    # the parser refuses the first bracket past MAX_NESTING, before Python runs out of stack
    deep = tmp_path / "deep.bgt"
    deep.write_text("budget B = " + "enc{c}(" * 1500 + "c(1)" + ")" * 1500 + "\n", encoding="utf-8")
    proc = run_child(["eval", str(deep)])
    col = len("budget B = " + "enc{c}(" * MAX_NESTING + "enc{c}(")
    assert (proc.returncode, proc.stdout) == (2, "")
    message = f"brackets nested more than {MAX_NESTING} deep"
    assert proc.stderr == f"error: deep.bgt:1:{col}: {message}\n"


def doubling_chain(tmp_path, depth):
    """A program whose amount, d0 = x + 1 doubled `depth` times, is (x + 1) * 2^depth."""
    lines = ["param x", "def d0 = x + 1"]
    lines += [f"def d{i} = d{i - 1} + d{i - 1}" for i in range(1, depth + 1)]
    f = tmp_path / "doubling.bgt"
    f.write_text("\n".join(lines) + f"\nbudget B = a(d{depth})\n", encoding="utf-8")
    return f


def test_doubling_def_chain_costs_its_depth(tmp_path, capsys):
    # written out as a tree the amount would have about 2^202 nodes; parsed, it has 203
    f = doubling_chain(tmp_path, 200)
    amount = dict(normalize(parse(f.read_text(encoding="utf-8")).budgets["B"]).entries)["a"]
    assert len(postorder([amount])) == 203
    assert run(["eval", str(f), "--set", "x=1"], capsys) == (
        0, f"status: ok\nentries:\n  a: {2**201}\n", ""
    )
    assert run(["eval", str(f)], capsys) == (0, "status: ok\n", "")
    code, out, _ = run(
        ["sweep", str(f), "--var", "x", "--from", "0", "--to", "2", "--step", "1",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    assert [row["entries"] for row in json.loads(out)] == [
        {"a": str((x + 1) * 2**200)} for x in range(3)
    ]


def test_eval_of_a_100000_term_sum(tmp_path, capsys):
    n = 100_000
    f = tmp_path / "sum.bgt"
    f.write_text("param x\nbudget B = a(x" + " + 1" * (n - 1) + ")\n", encoding="utf-8")
    assert run(["eval", str(f), "--set", "x=1/2"], capsys) == (
        0, f"status: ok\nentries:\n  a: {2 * n - 1}/2\n", ""
    )
    assert run(["eval", str(f)], capsys) == (0, "status: ok\n", "")


def test_substitute_tests_through_a_5000_term_chain(tmp_path, capsys):
    # y = 2 solves x = y + 1 + ... + 1 to 5002, which breaks x <= 10
    n = 5000
    chain = "y" + " + 1" * n
    f = tmp_path / "pin.bgt"
    tests = f"test(x == {chain}) | test(y == 2) | test(x <= 10)"
    f.write_text(f"param x\nparam y\nbudget B = {tests} | a(x)\n", encoding="utf-8")
    residual = f"  x - ({chain})\n  y + -2\n  abs(10 - x) - (10 - x)\n"
    assert run(["eval", str(f)], capsys) == (0, f"status: ok\nresidual tests:\n{residual}", "")
    assert run(["eval", str(f), "--substitute-tests"], capsys) == (
        1, f"status: null\nviolations:\n  abs(10 - x) - (10 - x)  value {2 * (n + 2 - 10)}\n", ""
    )


def test_bundled_scenario_is_the_consistent_scenario_without_k():
    scenario = consistent_scenario(random.Random(1))
    path = bundled("scenario.bindings")
    assert cli.parse_bindings_text(path.read_text(encoding="utf-8"), path.name) == {
        name: value for name, value in scenario.items() if name != "k"
    }
    assert scenario["k"] == Fraction(424, 1495)


def test_substitute_tests_solves_the_one_parameter_left_free(capsys):
    # each staffing balance is affine in the free parameter, with the scenario's value as its root
    scenario = consistent_scenario(random.Random(1))
    total = parse(Path(MSC).read_text(encoding="utf-8")).budgets["Total"]
    solutions = {"k": "k + -424/1495", "bbpp": "bbpp + -358.8", "escf": "escf + -0.7"}
    for name, solved in solutions.items():
        bound = {other: value for other, value in scenario.items() if other != name}
        argv = ["eval", MSC, "--budget", "Total", *sets(bound), "--substitute-tests"]
        assert run(argv, capsys) == (0, f"status: ok\nresidual tests:\n  {solved}\n", ""), name
        c = algebra.apply_test_substitution(normalize(total, bound))
        assert [type(amount) for _, amount in c.entries] == [Const, Const]
        assert run(argv[:-1], capsys)[1].count("\n  ") >= 5  # without substitution, all stay open


def test_substitute_tests_makes_a_constant_nonzero_test_a_violation(tmp_path, capsys):
    # x - x + -1 is open as written, but its linear form is the constant -1: it fails everywhere
    f = tmp_path / "never.bgt"
    f.write_text("param x\nbudget B = test(x - x == 1) | a(x)\n", encoding="utf-8")
    assert run(["eval", str(f)], capsys) == (0, "status: ok\nresidual tests:\n  x - x + -1\n", "")
    assert run(["eval", str(f), "--substitute-tests"], capsys) == (
        1, "status: null\nviolations:\n  x - x + -1  value -1\n", ""
    )


def test_substitute_tests_solves_through_a_def_and_its_alias(tmp_path, capsys):
    # E holds its own copy of D's body, so D + E uses no node twice and stays linear in x;
    # D + D uses D's body twice, which makes it one atom of the test
    f = tmp_path / "alias.bgt"
    f.write_text("param x\ndef D = x + 1\ndef E = D\nbudget B = test(D + E == 4) | a(x)\n"
                 "budget T = test(D + D == 4) | a(x)\n", encoding="utf-8")
    argv = ["eval", str(f), "--substitute-tests", "--budget"]
    assert run([*argv, "B"], capsys) == (0, "status: ok\nresidual tests:\n  x + -1\n", "")
    assert run([*argv, "T"], capsys) == (
        0, "status: ok\nresidual tests:\n  x + 1 + (x + 1) + -4\n", ""
    )


def test_substitute_tests_solves_for_a_pivot_coefficient_of_1_minus_1_and_2(tmp_path, capsys):
    # x's coefficient is 1 in One, -1 in MinusOne and 2 in Two; with y bound, x is solved into a(x)
    text = ("param x\nparam y\nbudget One = test(x == y + 3) | a(x)\n"
            "budget MinusOne = test(3 - x == y) | a(x)\nbudget Two = test(2 * x == y + 3) | a(x)\n")
    f = tmp_path / "pivots.bgt"
    f.write_text(text, encoding="utf-8")
    cases = {"One": ("x - (y + 3)", 4), "MinusOne": ("x - (3 - y)", 2), "Two": ("x - -0.5 * -(y + 3)", 2)}
    for budget, (solved, x) in cases.items():
        argv = ["eval", str(f), "--budget", budget, "--substitute-tests"]
        assert run(argv, capsys) == (0, f"status: ok\nresidual tests:\n  {solved}\n", ""), budget
        assert run([*argv, "--set", "y=1"], capsys) == (0, f"status: ok\nresidual tests:\n  x + -{x}\n", "")
        c = algebra.apply_test_substitution(normalize(parse(text).budgets[budget], {"y": Fraction(1)}))
        assert c.entries == (("a", Const(Fraction(x))),), budget


def test_eval_partial_bindings_leave_residual(capsys):
    code, out, _ = run(["eval", MSC, "--budget", "Total", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["entries"] is None  # still open
    assert len(doc["residual_tests"]) == 6


def test_eval_reports_violation_with_span(capsys):
    bindings = dict(S0, bbpp="1000000")  # way past the one-third bound
    code, out, _ = run(
        ["eval", MSC, "--budget", "Total", "--format", "json", *sets(bindings)], capsys
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "null"
    assert doc["entries"] is None
    spans = [v["span"] for v in doc["violations"]]
    tests = [v["test"] for v in doc["violations"]]
    assert any(t.startswith("bbpp <=") for t in tests)
    assert all(s.startswith("msc.bgt:") for s in spans)


def test_eval_violation_singles_out_second_guard(capsys):
    bindings = dict(S0, k="3")  # k > DGC(1-escf)/(3 bbpp) = 2
    code, out, _ = run(["eval", MSC, "--budget", "J", "--format", "json", *sets(bindings)], capsys)
    assert code == 1
    doc = json.loads(out)
    assert len(doc["violations"]) == 1
    assert doc["violations"][0]["test"].startswith("k <=")
    assert doc["violations"][0]["value"] == "2"  # |2-3| - (2-3)


def test_eval_unknown_binding_rejected(capsys):
    code, _, err = run(["eval", TRANSFER, "--set", "nosuch=1"], capsys)
    assert code == 2
    assert "nosuch" in err


def test_eval_bad_rational_rejected(capsys):
    code, _, err = run(["eval", MSC, "--set", "bbpp=1/0"], capsys)
    assert code == 2
    assert "bbpp" in err


def test_eval_substitute_tests_reveals_contradiction(tmp_path, capsys):
    f = tmp_path / "pin.bgt"
    f.write_text("param x\nbudget B = test(x == 2) | test(x <= 1) | a(x)\n", encoding="utf-8")
    plain = run(["eval", str(f)], capsys)
    assert plain[0] == 0  # both tests open, nothing decided
    code, out, _ = run(["eval", str(f), "--substitute-tests"], capsys)
    assert code == 1
    assert "abs" in out  # the propagated bound is the failing test


def test_check_requires_all_params(capsys):
    code, _, err = run(["check", MSC, "--budget", "Total", *sets(S0)], capsys)
    assert code == 2
    assert "missing" in err
    assert "sscph" in err and "A:pmt" in err


def test_check_accepts_consistent_scenario(tmp_path, capsys):
    scenario = consistent_scenario(random.Random(5))
    lines = [f"{name} = {value}" for name, value in scenario.items()]
    f = tmp_path / "scenario.bindings"
    f.write_text("# scenario 5\n" + "\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(["check", MSC, "--budget", "Total", "--bindings", str(f)], capsys)
    assert (code, out, err) == (0, "", "")


def test_check_reports_broken_balance(tmp_path, capsys):
    scenario = consistent_scenario(random.Random(6))
    scenario["B:ssot"] += 1
    f = tmp_path / "scenario.bindings"
    f.write_text("\n".join(f"{n} = {v}" for n, v in scenario.items()) + "\n", encoding="utf-8")
    code, _, err = run(["check", MSC, "--budget", "Total", "--bindings", str(f)], capsys)
    assert code == 1
    assert "enc{b}" in err


def spy_text(monkeypatch):
    """Record each text the parser's labels and spans make: ("pretty", text) or ("span", text)."""
    made = []

    def recorded(kind, make):
        def call(*args):
            made.append((kind, make(*args)))
            return made[-1][1]

        return call

    monkeypatch.setattr(dsl, "pretty", recorded("pretty", dsl.pretty))
    monkeypatch.setattr(dsl._Origin, "span", recorded("span", dsl._Origin.span))
    return made


def test_a_call_that_reports_no_violation_writes_no_label_or_span(capsys, monkeypatch):
    made = spy_text(monkeypatch)
    argv = [MSC, "--budget", "Total", *sets(consistent_scenario(random.Random(5)))]
    assert run(["check", *argv], capsys) == (0, "", "")
    code, out, _ = run(["eval", *argv, "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["violations"] == []
    assert made == []


def test_a_check_writes_the_labels_and_spans_of_its_violations_alone(capsys, monkeypatch):
    made = spy_text(monkeypatch)
    flags = sets({"A:ndg": 0, "B:ndg": 0, "C:ndg": 0, "k": "1/3"})
    code, out, err = run(["check", MSC, "--budget", "Total", "--bindings", str(bundled("scenario.bindings")), *flags],
                         capsys)
    assert (code, out) == (1, "")
    assert err == ("msc.bgt:149:12  bbpp <= 1 / 3 * (1 - escf) * (ECC + DGC)  value 732/5\n"
                   "msc.bgt:150:12  k <= DGC * (1 - escf) / (3 * bbpp)  value 2/3\n")
    # two sides and a span for each of the two violated tests: J's third test and Total's enc{} make none
    assert made == [("pretty", "bbpp"), ("pretty", "1 / 3 * (1 - escf) * (ECC + DGC)"), ("span", "149:12"),
                    ("pretty", "k"), ("pretty", "DGC * (1 - escf) / (3 * bbpp)"), ("span", "150:12")]


def test_a_check_lexes_its_text_once_more_for_all_the_spans_it_reports(tmp_path, capsys, monkeypatch):
    # one findall to parse, then one finditer that places every token for the first span: the 4,999 spans
    # after it are looked up, so a check that lexed again per span would make 5,000 finditer calls
    pattern, calls = dsl._TOKEN_RE, []

    class Counted:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(pattern, name)

    monkeypatch.setattr(dsl, "_TOKEN_RE", Counted())
    f = tmp_path / "failing.bgt"
    f.write_text("param x\nbudget T = " + "\n  | ".join(["test(x + 2 <= x + 1)"] * 5000) + "\n", encoding="utf-8")
    code, out, err = run(["check", str(f), "--set", "x=0"], capsys)
    lines = err.splitlines()
    assert (code, out, len(lines)) == (1, "", 5000)
    assert lines[0] == "failing.bgt:2:12  x + 2 <= x + 1  value 2"
    assert lines[-1] == "failing.bgt:5001:5  x + 2 <= x + 1  value 2"
    assert calls == ["findall", "finditer"]


def report_scenarios():
    """Seeded msc scenarios, each (bindings, flags, whether check can read them)."""
    ok = consistent_scenario(random.Random(5))
    opened = {n: v for n, v in consistent_scenario(random.Random(7)).items() if n not in ("k", "bbpp")}
    broken = consistent_scenario(random.Random(6))
    broken["B:ssot"] += 1  # a broken balance
    # solving k from one balance contradicts another: a violation with no place in the source
    unsolvable = {n: v for n, v in consistent_scenario(random.Random(8)).items() if n != "k"}
    unsolvable["A:sset"] += 1
    return [(ok, [], True), (opened, [], False), (broken, [], True), (unsolvable, ["--substitute-tests"], False)]


def test_eval_text_eval_json_and_check_give_one_report(capsys):
    outcomes = []
    for bindings, flags, closed in report_scenarios():
        argv = [MSC, "--budget", "Total", *sets(bindings)]
        code, text, _ = run(["eval", *argv, *flags], capsys)
        json_code, json_out, _ = run(["eval", *argv, *flags, "--format", "json"], capsys)
        # the text is the text layout of the JSON document
        assert json_code == code and cli.render_text(json.loads(json_out)) == text
        # and check writes the text's violation lines without their indent
        violations = text.partition("violations:\n")[2]
        if closed:
            assert run(["check", *argv], capsys) == (code, "", violations.replace("\n  ", "\n")[2:])
        else:
            assert run(["check", *argv], capsys)[0] == 2
        outcomes.append((code, text.count("\n  "), violations.count("\n")))
    # (exit code, indented lines, violations): ok, open in k and bbpp, null and substituted
    assert outcomes == [(0, 2, 0), (0, 6, 0), (1, 1, 1), (1, 1, 1)]


def test_set_overrides_bindings_file(tmp_path, capsys):
    f = tmp_path / "s.bindings"
    f.write_text("".join(f"{n} = {v}\n" for n, v in S0.items()), encoding="utf-8")
    base = run(["eval", MSC, "--budget", "J", "--bindings", str(f), "--set", "k=0", "--format", "json"], capsys)
    override = run(
        ["eval", MSC, "--budget", "J", "--bindings", str(f), "--set", "bbpp=9", "--set", "k=0", "--format", "json"],
        capsys,
    )
    assert json.loads(base[1])["entries"]["a"] == "52"
    assert json.loads(override[1])["entries"]["a"] != "52"


def test_bindings_file_syntax_error_carries_line(tmp_path, capsys):
    f = tmp_path / "bad.bindings"
    f.write_text("bbpp = 8\nwhat even is this\n", encoding="utf-8")
    code, _, err = run(["eval", MSC, "--bindings", str(f)], capsys)
    assert code == 2
    assert "bad.bindings:2" in err


def test_program_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.bgt"
    f.write_bytes(b"param x\nbudget B = a(x) # caf\xe9\n")
    assert run(["eval", str(f), "--set", "x=1"], capsys) == (
        2, "", "error: bad.bgt:2: not valid UTF-8 (invalid continuation byte)\n"
    )


def test_bindings_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.bindings"
    f.write_bytes(b"bbpp = 8\n\xff\n")
    assert run(["eval", MSC, "--bindings", str(f)], capsys) == (
        2, "", "error: bad.bindings:2: not valid UTF-8 (invalid start byte)\n"
    )


def test_source_names_are_bare_file_names_whatever_the_path_is_like(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for name in ("msc.bgt", "scenario.bindings"):
        (tmp_path / "sub" / name).write_text(bundled(name).read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "sub" / "bad.bgt").write_bytes(b"param x\nbudget B = a(x) # caf\xe9\n")
    (tmp_path / "sub" / "bad.bindings").write_bytes(b"bbpp = 8\n\xff\n")
    program, bindings = ["./sub//msc.bgt", "--budget", "Total"], ["--bindings", "sub/./scenario.bindings"]
    code, out, _ = run(["eval", *program, "--format", "json", *bindings, "--set", "k=3"], capsys)
    spans = [v["span"] for v in json.loads(out)["violations"]]
    assert code == 1 and spans and all(re.fullmatch(r"msc\.bgt:\d+:\d+", s) for s in spans)
    code, out, err = run(["check", *program, *bindings, "--set", "k=3"], capsys)
    assert (code, out) == (1, "") and re.fullmatch(r"(msc\.bgt:\d+:\d+  .*  value \S+\n)+", err)
    assert run(["eval", "./sub//bad.bgt", "--set", "x=1"], capsys) == (
        2, "", "error: bad.bgt:2: not valid UTF-8 (invalid continuation byte)\n"
    )
    assert run(["eval", *program, "--bindings", "./sub//bad.bindings"], capsys) == (
        2, "", "error: bad.bindings:2: not valid UTF-8 (invalid start byte)\n"
    )
    # a path that cannot be read is named as it was typed
    assert run(["eval", "./x.bgt"], capsys) == (
        2, "", "error: [Errno 2] No such file or directory: './x.bgt'\n"
    )


# the interpreter converts ints of at most LIMIT digits to and from text
LIMIT = sys.get_int_max_str_digits()
PAST_THE_LIMIT = (2, "", f"error: a number has more than {LIMIT} decimal digits\n")


def squaring_chain(tmp_path):
    """A program whose last def squares x until, at x = 2, it is past the digit limit."""
    depth = 0
    while 2**depth * math.log10(2) <= LIMIT:
        depth += 1
    lines = ["param x", "def D0 = x"] + [f"def D{i} = D{i - 1} * D{i - 1}" for i in range(1, depth + 1)]
    f = tmp_path / "big.bgt"
    lines += [
        f"budget B = a(D{depth})",
        f"budget N = a(D{depth}) | test(x - 1)",  # null wherever x is not 1
        f"budget T = test(D{depth} == 0)",
    ]
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(f)


def test_numbers_past_the_digit_limit_exit_2(tmp_path, capsys):
    f = squaring_chain(tmp_path)
    for fmt in ("text", "json"):
        argv = ["eval", f, "--budget", "B", "--set", "x=2", "--format", fmt]
        assert run(argv, capsys) == PAST_THE_LIMIT
        argv = ["sweep", f, "--budget", "B", "--var", "x", "--from", "1", "--to", "2", "--step", "1",
                "--format", fmt]
        assert run(argv, capsys) == PAST_THE_LIMIT
    assert run(["check", f, "--budget", "T", "--set", "x=2"], capsys) == PAST_THE_LIMIT
    assert run(["eval", f, "--budget", "B", "--set", "x=1"], capsys) == (
        0, "status: ok\nentries:\n  a: 1\n", ""
    )
    literal = "1" * (LIMIT + 1)
    shown = f"x={literal}"[:40] + "..."
    assert run(["eval", f, "--set", f"x={literal}"], capsys) == (
        2, "", f"error: --set '{shown}': a number has more than {LIMIT} decimal digits\n"
    )
    program = tmp_path / "literal.bgt"
    program.write_text(f"param x\nbudget B = a(x + {literal})\n", encoding="utf-8")
    assert run(["eval", str(program)], capsys) == (
        2, "", f"error: literal.bgt:2:18: a number has more than {LIMIT} decimal digits\n"
    )


def test_sweep_writes_the_amounts_of_ok_rows_only(tmp_path, capsys):
    # at x = 2 the amount is past the digit limit, but test(x - 1) makes that row null
    f = squaring_chain(tmp_path)
    argv = ["sweep", f, "--budget", "N", "--var", "x", "--from", "1", "--to", "2", "--step", "1"]
    assert run(argv, capsys) == (0, "x  status  a\n1  ok      1\n2  null    NULL\n", "")
    rows = [{"entries": {"a": "1"}, "status": "ok", "value": "1"},
            {"entries": None, "status": "null", "value": "2"}]
    assert run([*argv, "--format", "json"], capsys) == (
        0, json.dumps(rows, sort_keys=True, indent=2) + "\n", ""
    )


def test_set_errors_quote_a_long_item_cut_short(capsys):
    long = "1" * (LIMIT + 1)
    reasons = {f"x={long}": "a number has more than", f"x{long}": "expects VAR=RATIONAL"}
    for item, reason in reasons.items():
        code, out, err = run(["eval", MSC, "--set", item], capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and len(err) < 120
        assert reason in err and "1" * 38 + "...'" in err
    assert run(["eval", MSC, "--set", "k=1/0"], capsys)[2] == (
        "error: --set 'k=1/0': zero denominator in rational constant\n"
    )


def test_errors_quote_a_long_value_cut_short(tmp_path, capsys):
    value = "1." * 2200
    (tmp_path / "value.bindings").write_text(f"x = {value}\n", encoding="utf-8")
    (tmp_path / "equals.bindings").write_text(f"x == {value}\n", encoding="utf-8")
    calls = [
        ["eval", MSC, "--set", f"x={value}"],
        ["eval", MSC, "--bindings", str(tmp_path / "value.bindings")],
        ["eval", MSC, "--bindings", str(tmp_path / "equals.bindings")],
        ["sweep", MSC, "--var", "k", "--from", value, "--to", "1", "--step", "1"],
    ]
    for argv in calls:
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        line = err.splitlines()[-1]  # a sweep's usage lines come first
        assert "error: " in line and line.endswith("...'")
        assert len(line.encode()) < 200


def test_errors_quote_a_long_name_cut_short(tmp_path, capsys):
    name = "N" * 5000
    programs = [
        f"budget B = a(1) | {name}\n",  # undeclared budget
        f"budget B = a({name})\n",  # undeclared identifier
        f"param {name}\nparam {name}\n",  # duplicate param
        f'param x "doc" "{name}"\n',  # a stray string after a param's doc
        f"budget B = a(1) {name}\n",  # a name after a complete budget
    ]
    calls = []
    for i, text in enumerate(programs):
        (tmp_path / f"p{i}.bgt").write_text(text, encoding="utf-8")
        calls.append(["eval", str(tmp_path / f"p{i}.bgt")])
    calls += [
        ["eval", MSC, "--budget", name],
        ["sweep", MSC, "--var", name, "--from", "0", "--to", "1", "--step", "1"],
    ]
    for argv in calls:
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "N" * 39 + "...'" in err and len(err.encode()) < 200


def test_a_byte_order_mark_starts_a_file(tmp_path, capsys):
    program, bindings = tmp_path / "bom.bgt", tmp_path / "bom.bindings"
    program.write_text("\ufeffparam x\nbudget B = a(x)\n", encoding="utf-8")
    bindings.write_text("\ufeffx = 1\n", encoding="utf-8")
    assert run(["eval", str(program), "--bindings", str(bindings)], capsys) == (
        0, "status: ok\nentries:\n  a: 1\n", ""
    )


def test_unknown_budget_lists_choices(capsys):
    code, _, err = run(["eval", TRANSFER, "--budget", "Zed"], capsys)
    assert code == 2
    assert "P" in err and "Net" in err


def test_parse_error_exits_2(tmp_path, capsys):
    f = tmp_path / "broken.bgt"
    f.write_text("budget B = a(\n", encoding="utf-8")
    code, _, err = run(["eval", str(f)], capsys)
    assert code == 2
    assert "broken.bgt" in err


def test_usage_error_exits_2(capsys, tmp_path):
    assert run([], capsys)[0] == 2
    assert run(["sweep", MSC, "--var", "k"], capsys)[0] == 2  # missing range
    only_params = tmp_path / "params.bgt"
    only_params.write_text("param x\n", encoding="utf-8")
    for argv, message in [
        (["axioms", "--trials", "0"], "error: --trials must be >= 1\n"),
        (["eval", str(only_params)], "error: the program declares no budgets\n"),
        (["eval", str(tmp_path / "missing.bgt")], None),  # the system's own message
        # a path with a NUL byte, which open() refuses with a ValueError, not an OSError
        (["eval", "\x00"], "error: embedded null byte in the path '\\x00'\n"),
        (["eval", MSC, "--bindings", "a\x00b"], "error: embedded null byte in the path 'a\\x00b'\n"),
    ]:
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        if message is None:
            assert err.startswith("error: ") and err.count("\n") == 1
        else:
            assert err == message


# --- sweeps ------------------------------------------------------------------


def sweep_j(capsys, var, lo, hi, step, extra=(), fmt="json"):
    bindings = {n: v for n, v in S0.items() if n != var}
    argv = [
        "sweep", MSC, "--budget", "J", "--var", var,
        "--from", lo, "--to", hi, "--step", step, "--format", fmt,
        *sets(bindings), *extra,
    ]
    return run(argv, capsys)


def test_sweep_k_across_the_unit_interval(capsys):
    code, out, _ = sweep_j(capsys, "k", "0", "1", "1/10")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 11
    assert [r["status"] for r in rows] == ["ok"] * 11
    # the a-channel carries 52 - 4k, so it falls by 2/5 per step
    assert [r["entries"]["a"] for r in rows] == [
        "52", "258/5", "256/5", "254/5", "252/5", "50",
        "248/5", "246/5", "244/5", "242/5", "48",
    ]
    assert [r["entries"]["b"] for r in rows] == [
        "24", "122/5", "124/5", "126/5", "128/5", "26",
        "132/5", "134/5", "136/5", "138/5", "28",
    ]
    assert all(r["entries"]["c"] == "20" for r in rows)
    assert all(r["entries"]["in"] == "-120" for r in rows)
    assert all(r["entries"]["e"] == "24" for r in rows)


def zero_degree_scenario():
    """A consistent msc valuation in which no program awards a degree.

    NDG = 0, so every program's degree share divides by zero and only has
    a value because 1/0 = 0. The k-guard then leaves k = 0 as the one
    consistent choice.
    """
    v = consistent_scenario(random.Random(5))
    for x in PROGRAMS:
        v[f"{x}:ndg"] = Fraction(0)
    ecc = sum(v[f"{x}:nec"] for x in PROGRAMS) * v["cpec"]
    v["bbpp"] = (1 - v["escf"]) * ecc / 6
    v["k"] = Fraction(0)
    for x in PROGRAMS:
        v[f"{x}:pmt"] = Fraction(0)
    leftover = straight_line(v).psi
    for x in PROGRAMS:
        v[f"{x}:pmt"] = leftover[x] / v["sscph"]
    assert straight_line(v).feasible
    return {name: str(value) for name, value in v.items()}


def assert_rows_match_evals(capsys, budget, var, bindings, rows):
    for row in rows:
        point = dict(bindings, **{var: row["value"]})
        _, single, _ = run(
            ["eval", MSC, "--budget", budget, "--format", "json", *sets(point)], capsys
        )
        doc = json.loads(single)
        assert (row["status"], row["entries"]) == (doc["status"], doc["entries"])


def test_sweep_rows_match_individual_evals(capsys):
    _, out, _ = sweep_j(capsys, "k", "0", "1", "1/4")
    rows = json.loads(out)
    assert len(rows) == 5
    assert_rows_match_evals(capsys, "J", "k", S0, rows)

    # from bbpp = 0, where the k-guards divide by 3 * bbpp = 0, across the bound
    _, out, _ = sweep_j(capsys, "bbpp", "0", "34", "17/4", extra=["--set", "k=1/2"])
    rows = json.loads(out)
    assert [r["status"] for r in rows] == ["null"] + ["ok"] * 7 + ["null"]
    assert_rows_match_evals(capsys, "J", "bbpp", dict(S0, k="1/2"), rows)

    scenario = zero_degree_scenario()
    others = {name: value for name, value in scenario.items() if name != "k"}
    _, out, _ = run(
        ["sweep", MSC, "--budget", "Total", "--var", "k", "--from", "0", "--to", "1",
         "--step", "1/4", "--format", "json", *sets(others)],
        capsys,
    )
    rows = json.loads(out)
    assert [r["status"] for r in rows] == ["ok", "null", "null", "null", "null"]
    assert_rows_match_evals(capsys, "Total", "k", others, rows)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """Each README shell block that is one `$ tuplix` command and its whole output.

    A backslash at the end of a line continues the command. A block that
    elides output with `...`, or runs a second command, is left out.
    """
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        command, *output = block.replace("\\\n", " ").splitlines(keepends=True)
        if command.startswith("$ tuplix ") and "..." not in block and not any(
            line.startswith("$") for line in output
        ):
            examples.append((shlex.split(command)[2:], "".join(output)))
    return examples


def test_readme_examples_run_as_written(capsys, monkeypatch):
    monkeypatch.chdir(README.parent)
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == ["eval", "eval", "check", "sweep"]
    for argv, output in examples:
        assert run(argv, capsys) == (0, output, "")


# S0 holds the bindings of the README's sweep example
README_SWEEP = [
    "sweep", MSC, "--budget", "J", "--var", "k", "--from", "0", "--to", "1", "--step", "1/4",
    *sets(S0),
]

README_SWEEP_JSON_ROW = """\
  {{
    "entries": {{
      "a": "{a}",
      "b": "{b}",
      "c": "20",
      "e": "24",
      "in": "-120"
    }},
    "status": "ok",
    "value": "{value}"
  }}"""


def test_readme_sweep_is_byte_stable(capsys):
    rows = [("0", 52, 24), ("1/4", 51, 25), ("1/2", 50, 26), ("3/4", 49, 27), ("1", 48, 28)]
    expected = ",\n".join(
        README_SWEEP_JSON_ROW.format(value=value, a=a, b=b) for value, a, b in rows
    )
    assert run([*README_SWEEP, "--format", "json"], capsys) == (0, f"[\n{expected}\n]\n", "")


def test_sweep_json_is_laid_out_as_json_dumps(tmp_path, capsys):
    # ok rows with and without entries, null rows, and a channel name that must be escaped
    f = tmp_path / "rows.bgt"
    f.write_text(
        "param x\nbudget A = a\u00e9(x) | b(1/3) | test(x * (x - 1))\nbudget E = test(x)\n", encoding="utf-8"
    )
    for budget in ("A", "E"):
        code, out, _ = run(
            ["sweep", str(f), "--budget", budget, "--var", "x", "--from", "-1", "--to", "2",
             "--step", "1/2", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert {row["status"] for row in rows} == {"ok", "null"}
        assert out == json.dumps(rows, sort_keys=True, indent=2) + "\n"
    assert '"a\\u00e9": "1"' in run(
        ["sweep", str(f), "--budget", "A", "--var", "x", "--from", "1", "--to", "1", "--step", "1",
         "--format", "json"],
        capsys,
    )[1]


def spy_compiles(monkeypatch):
    """Record every program that a sweep compiles and runs."""
    programs = []
    run_program = LinearForms.run

    def run_and_record(linear, ops, values):
        programs.append(linear)
        return run_program(linear, ops, values)

    monkeypatch.setattr(LinearForms, "run", run_and_record)
    return programs


def test_a_sweep_reduces_only_its_amount_columns(capsys, monkeypatch):
    # of J's two residual tests only the zero numerators are read, so only the open amounts a and
    # b, of 5 rows each, reach lowest_terms; c, e and in are constants, spread over the rows
    reduce = mock.Mock(wraps=meadow.lowest_terms)
    for module in (expr, algebra):
        monkeypatch.setattr(module, "lowest_terms", reduce, raising=False)
    programs = spy_compiles(monkeypatch)
    assert run(README_SWEEP, capsys)[0] == 0
    assert [len(program.forms) for program in programs] == [7]
    assert [len(call.args[0]) for call in reduce.call_args_list] == [5, 5]


def test_sweep_of_an_unmentioned_parameter_repeats_eval(capsys, monkeypatch):
    # budget J never mentions A:pmt, so its compiled program has no variable slot
    programs = spy_compiles(monkeypatch)
    code, out, _ = run(
        ["sweep", MSC, "--budget", "J", "--var", "A:pmt", "--from", "0", "--to", "2",
         "--step", "1", "--format", "json", *sets(dict(S0, k="1/2"))],
        capsys,
    )
    assert code == 0
    assert [tuple(program.variables) for program in programs] == [()]
    rows = json.loads(out)
    assert [r["value"] for r in rows] == ["0", "1", "2"]
    assert_rows_match_evals(capsys, "J", "A:pmt", dict(S0, k="1/2"), rows)


def test_sweep_of_a_null_form_compiles_nothing(capsys, monkeypatch):
    # bbpp = 40 breaks the first guard of J at every k
    programs = spy_compiles(monkeypatch)
    code, out, _ = sweep_j(capsys, "k", "0", "1", "1/2", extra=["--set", "bbpp=40"], fmt="text")
    assert code == 0
    assert programs == []
    # no row has entries, so the table has no channel columns
    assert out == "k    status\n0    null\n1/2  null\n1    null\n"


def test_sweep_of_a_residual_folded_to_constants(tmp_path, capsys, monkeypatch):
    # x * 0 folds away, so every row is the same constant form
    f = tmp_path / "folded.bgt"
    f.write_text("param x\nparam y\nbudget B = a(x * 0 + y) | b(2 * y) | test(0 * x)\n", encoding="utf-8")
    programs = spy_compiles(monkeypatch)
    code, out, _ = run(
        ["sweep", str(f), "--var", "x", "--from", "-1", "--to", "1", "--step", "1",
         "--set", "y=3"],
        capsys,
    )
    assert code == 0
    assert [(tuple(p.variables), tuple(p.instructions)) for p in programs] == [((), ())]
    assert out == "x   status  a  b\n-1  ok      3  6\n0   ok      3  6\n1   ok      3  6\n"


def test_sweep_programs_of_msc_collect_linear_forms(capsys, monkeypatch):
    # every amount of J and Total is affine in k, so a row costs a few Fraction steps
    programs = spy_compiles(monkeypatch)
    assert run(README_SWEEP, capsys)[0] == 0
    for seed in range(3):
        scenario = consistent_scenario(random.Random(seed))
        others = {name: value for name, value in scenario.items() if name != "k"}
        code, _, _ = run(
            ["sweep", MSC, "--budget", "Total", "--var", "k", "--from", "0", "--to", "1",
             "--step", "1/2", *sets(others)],
            capsys,
        )
        assert code == 0
    assert len(programs) == 4
    assert all(len(program.instructions) <= 16 for program in programs)


def test_sweep_of_a_doubling_product_chain(tmp_path, capsys, monkeypatch):
    # d200 is x to the power 2^200: one product per level, exact where x^2 = x
    lines = ["param x", "def d0 = x"]
    lines += [f"def d{i} = d{i - 1} * d{i - 1}" for i in range(1, 201)]
    f = tmp_path / "squaring.bgt"
    f.write_text("\n".join(lines) + "\nbudget B = a(d200) | b(d200 + d0)\n", encoding="utf-8")
    programs = spy_compiles(monkeypatch)
    code, out, _ = run(
        ["sweep", str(f), "--var", "x", "--from", "-1", "--to", "1", "--step", "1",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    assert [row["entries"] for row in json.loads(out)] == [
        {"a": "1", "b": "0"}, {"a": "0", "b": "0"}, {"a": "1", "b": "2"}
    ]
    assert len(programs[0].instructions) == 201  # 200 products and one sum


def test_sweep_of_a_long_flat_composition(tmp_path, capsys):
    # the summed amount of 3,000 entries a(x + i) is a 3,000-deep chain
    n = 3000
    f = tmp_path / "flat.bgt"
    entries = " | ".join(f"a(x + {i})" for i in range(n))
    f.write_text(f"param x\nbudget B = {entries}\n", encoding="utf-8")
    code, out, _ = run(
        ["sweep", str(f), "--var", "x", "--from", "0", "--to", "2", "--step", "1",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["entries"]["a"] for r in rows] == [str(n * x + 4_498_500) for x in range(3)]


def test_sweep_value_wins_over_a_bound_swept_variable(capsys):
    plain = sweep_j(capsys, "k", "0", "1", "1/4", fmt="text")
    also_set = sweep_j(capsys, "k", "0", "1", "1/4", extra=["--set", "k=5"], fmt="text")
    assert plain[0] == 0
    assert also_set == plain


def test_sweep_bbpp_crosses_the_bound(capsys):
    # with k = 1/2 all three guards tighten at bbpp = 32
    code, out, _ = sweep_j(capsys, "bbpp", "30", "34", "1", extra=["--set", "k=1/2"])
    assert code == 0
    rows = json.loads(out)
    assert [r["status"] for r in rows] == ["ok", "ok", "ok", "null", "null"]
    assert [r["entries"] is None for r in rows] == [False, False, False, True, True]


def test_sweep_text_table_marks_null_rows(capsys):
    code, out, _ = sweep_j(capsys, "bbpp", "31", "33", "1", extra=["--set", "k=1/2"], fmt="text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["bbpp", "status", "a", "b", "c", "e", "in"]
    # shares at bbpp=31, k=1/2: A gets 31 + 3/2*(2/3) + 3/2*(1/2) = 131/4
    assert lines[1].split() == ["31", "ok", "131/4", "127/4", "63/2", "24", "-120"]
    assert lines[3].split() == ["33", "null", "NULL", "NULL", "NULL", "NULL", "NULL"]


def test_sweep_of_a_compiled_form_whose_every_row_is_null(capsys, monkeypatch):
    # at k = 1/2 the guards of J fail from bbpp = 33 on; the form under the
    # other bindings is not null, so it is compiled, and no row has channels
    programs = spy_compiles(monkeypatch)
    code, out, _ = sweep_j(capsys, "bbpp", "33", "35", "1", extra=["--set", "k=1/2"], fmt="text")
    assert (code, len(programs)) == (0, 1)
    assert out == "bbpp  status\n33    null\n34    null\n35    null\n"
    code, out, _ = sweep_j(capsys, "bbpp", "33", "35", "1", extra=["--set", "k=1/2"])
    rows = [{"entries": None, "status": "null", "value": value} for value in ("33", "34", "35")]
    assert (code, out) == (0, json.dumps(rows, sort_keys=True, indent=2) + "\n")


def test_sweep_single_point(capsys):
    code, out, _ = sweep_j(capsys, "k", "1/2", "1/2", "1")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0] == {
        "value": "1/2",
        "status": "ok",
        "entries": {"a": "50", "b": "26", "c": "20", "e": "24", "in": "-120"},
    }


def test_sweep_json_of_a_budget_of_tests_alone(tmp_path, capsys):
    f = tmp_path / "tests.bgt"
    f.write_text("param k\nbudget B = test(k <= 1)\n", encoding="utf-8")
    argv = ["sweep", str(f), "--var", "k", "--from", "0", "--to", "2", "--step", "1", "--format", "json"]
    code, out, err = run(argv, capsys)
    rows = [{"entries": {}, "status": "ok", "value": "0"}, {"entries": {}, "status": "ok", "value": "1"}]
    rows.append({"entries": None, "status": "null", "value": "2"})
    assert (code, out, err) == (0, json.dumps(rows, sort_keys=True, indent=2) + "\n", "")


def test_sweep_values_are_numerators_over_one_denominator():
    assert cli._sweep_values(Fraction(0), Fraction(1), Fraction(1, 4)) == ([0, 1, 2, 3, 4], 4)
    assert cli._sweep_values(Fraction(-3, 2), Fraction(1), Fraction(5, 6)) == ([-9, -4, 1, 6], 6)
    # a single value too, in any terms: the kernel divides each step's column by its gcd
    assert cli._sweep_values(Fraction(1), Fraction(1), Fraction(1, 2)) == ([2], 2)


def test_sweep_takes_a_negative_fraction_after_an_equals_sign(capsys):
    # argparse reads "-3/2" after a space as an option, not a value, since it is neither a
    # negative int nor a negative decimal; after "=" it is the value
    bindings = sets({n: v for n, v in S0.items() if n != "k"})
    argv = ["sweep", MSC, "--budget", "J", "--var", "k", "--step", "1/2", *bindings]
    code, out, err = run([*argv, "--from=-3/2", "--to=-1/2"], capsys)
    assert (code, err) == (0, "")
    assert out == (
        "k     status  a     b     c     e     in\n"
        "-3/2  null    NULL  NULL  NULL  NULL  NULL\n"
        "-1    ok      56    20    20    24    -120\n"
        "-1/2  ok      54    22    20    24    -120\n"
    )
    code, out, err = run([*argv, "--from", "-3/2", "--to=-1/2"], capsys)
    assert (code, out) == (2, "")
    assert err.endswith("tuplix sweep: error: argument --from: expected one argument\n")


def test_sweep_requires_other_params_bound(capsys):
    code, _, err = run(
        ["sweep", MSC, "--budget", "J", "--var", "k", "--from", "0", "--to", "1", "--step", "1/2"],
        capsys,
    )
    assert code == 2
    assert "bbpp" in err


def budget_chain(tmp_path, depth):
    """B0 = a(x) | test(x <= 5), and each B{i} composes B{i - 1} with itself: 2^depth copies of B0."""
    lines = ["param x", "budget B0 = a(x) | test(x <= 5)"]
    lines += [f"budget B{i} = B{i - 1} | B{i - 1}" for i in range(1, depth + 1)]
    f = tmp_path / f"chain{depth}.bgt"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(f)


def timed(argv, capsys):
    start = time.perf_counter()
    result = run(argv, capsys)
    assert time.perf_counter() - start < 0.5, argv
    return result


def test_a_doubling_budget_chain_normalizes_each_budget_once(tmp_path, capsys):
    # written out as a tree B60 holds 2^60 copies of B0; each budget is normalized once
    f = budget_chain(tmp_path, 60)
    amount = 3 * 2**60
    assert timed(["eval", f, "--set", "x=3"], capsys) == (
        0, f"status: ok\nentries:\n  a: {amount}\n", ""
    )
    code, out, _ = timed(["eval", f, "--set", "x=3", "--format", "json"], capsys)
    assert (code, json.loads(out)["entries"]) == (0, {"a": str(amount)})
    assert timed(["check", f, "--set", "x=3"], capsys) == (0, "", "")
    assert timed(["eval", f, "--substitute-tests"], capsys)[0] == 0
    code, out, _ = timed(["sweep", f, "--var", "x", "--from", "0", "--to", "2", "--step", "1"], capsys)
    assert (code, out.splitlines()[1:]) == (0, [f"{x}  ok      {x * 2**60}" for x in range(3)])


def test_a_test_reached_by_many_paths_is_reported_once(tmp_path, capsys):
    # at depth 14 the test in B0 lies on 16,384 paths through the term, at depth 60 on 2^60
    for depth in (14, 60):
        f = budget_chain(tmp_path, depth)
        line = f"chain{depth}.bgt:2:20  x <= 5  value 4"
        assert timed(["eval", f, "--set", "x=7"], capsys) == (
            1, f"status: null\nviolations:\n  {line}\n", ""
        )
        assert timed(["check", f, "--set", "x=7"], capsys) == (1, "", f"{line}\n")


def test_sweep_checks_the_parameters_of_a_shared_budget_once(tmp_path, capsys):
    # B60 is B0 composed with itself 2^60 times as a tree, and 61 budgets as parsed
    lines = ["param x", "param y", "budget B0 = a(x) | a(y)"]
    lines += [f"budget B{i} = B{i - 1} | B{i - 1}" for i in range(1, 61)]
    f = tmp_path / "chain.bgt"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert free_vars(parse(f.read_text(encoding="utf-8")).budgets["B60"]) == {"x", "y"}
    start = time.perf_counter()
    result = run(["sweep", str(f), "--var", "x", "--from", "0", "--to", "1", "--step", "1"], capsys)
    assert time.perf_counter() - start < 0.5
    missing = "error: sweep requires every other parameter of the budget bound; missing: y\n"
    assert result == (2, "", missing)


def test_sweep_rejects_bad_ranges(capsys):
    code, _, err = sweep_j(capsys, "k", "1", "0", "1/10")
    assert code == 2
    code, _, err = sweep_j(capsys, "k", "0", "1", "0")
    assert code == 2


def test_sweep_counts_rows_before_building_them(capsys, monkeypatch):
    # the last row is the last step that stays inside the range
    code, out, _ = sweep_j(capsys, "k", "0", "1", "3/10")
    assert code == 0
    assert [r["value"] for r in json.loads(out)] == ["0", "3/10", "3/5", "9/10"]

    monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 4)
    assert sweep_j(capsys, "k", "0", "1", "3/10")[0] == 0
    code, out, err = sweep_j(capsys, "k", "0", "1", "1/4")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "5 rows" in err
    monkeypatch.undo()

    # 10^9 + 1 rows: refused from the count alone, without building them
    code, out, err = sweep_j(capsys, "k", "0", "1", "1/1000000000")
    assert (code, out) == (2, "")
    assert "1000000001 rows" in err


# --- axioms ------------------------------------------------------------------


def test_axioms_smoke(capsys):
    code, out, _ = run(["axioms", "--trials", "5", "--seed", "1"], capsys)
    assert code == 0
    again = run(["axioms", "--trials", "5", "--seed", "1"], capsys)
    assert (code, out) == (again[0], again[1])
    assert "all" in out and "passed" in out
    assert "comp-commutes" in out


def test_axioms_single_trial(capsys):
    code, out, _ = run(["axioms", "--trials", "1", "--seed", "3"], capsys)
    assert code == 0
    assert "1/1" in out


# --- many calls in one process -----------------------------------------------


def test_a_set_flag_does_not_outlive_its_call(tmp_path, capsys):
    f = tmp_path / "x.bgt"
    f.write_text("param x\nbudget B = a(x)\n", encoding="utf-8")
    bound = run(["eval", str(f), "--set", "x=1", "--format", "json"], capsys)
    assert json.loads(bound[1])["entries"] == {"a": "1"}
    unbound = run(["eval", str(f), "--format", "json"], capsys)
    assert json.loads(unbound[1])["entries"] is None  # x is left unbound
    assert run(["check", str(f)], capsys) == (
        2, "", "error: check requires every parameter bound; missing: x\n"
    )


def test_calls_in_one_process_are_independent(capsys):
    scenario = consistent_scenario(random.Random(5))
    broken = {**scenario, "B:ssot": scenario["B:ssot"] + 1}
    calls = [
        ["check", MSC, "--budget", "Total", *sets(scenario)],
        ["check", MSC, "--budget", "Total", *sets(broken)],
        ["eval", TRANSFER, "--format", "json"],
        ["eval", MSC, "--budget", "Total", "--bindings", str(bundled("scenario.bindings")),
         "--substitute-tests"],
        [*README_SWEEP, "--format", "json"],
        ["sweep", MSC, "--var", "k"],  # no range: a usage error
        ["--help"],
        ["eval", TRANSFER, "--budget", "Zed"],
    ]
    forward = [run(argv, capsys) for argv in calls]
    backward = [run(argv, capsys) for argv in reversed(calls)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [0, 1, 0, 0, 0, 2, 0, 2]
    assert len(calls[0]) == 4 + 2 * 55
    assert forward[5][2].startswith("usage: tuplix sweep ")
    assert forward[6][1].startswith("usage: tuplix ")


def test_the_argument_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(10):
        assert run(["eval", TRANSFER], capsys)[0] == 0
        assert run(["sweep", MSC, "--var", "k"], capsys)[0] == 2
    # at most the first call builds them: the top-level parser and one per command
    assert len(built) <= 5, built


# --- reading argv --------------------------------------------------------------

SCENARIO = str(bundled("scenario.bindings"))

# pieces of argv after a command: options in full, repeated and after "=", values that are
# negative or start with '-', abbreviations, unknown options, a second file, missing values,
# bad choices and bad rationals
SHARED_PIECES = [
    [TRANSFER], [MSC], [""], ["-"], ["-1"], ["extra"], ["--"], ["-h"], ["--help"], ["--unknown"],
    ["--unknown=1"], ["-x"], ["--budget", "Net"], ["--budget=P"], ["--budget", "-1"], ["--budget="],
    ["--budget"], ["--bud", "Net"], ["--set", "k=1/2"], ["--set=x=-1"], ["--set", "-k=1"], ["--set"],
    ["--se", "k=1"], ["--bindings", SCENARIO], ["--bindings=x.bindings"], ["--bind", SCENARIO],
]
FORMAT_PIECES = [
    ["--format", "json"], ["--format=text"], ["--format", "xml"], ["--form", "json"], ["--format"],
]
PIECES = {
    "eval": [
        *SHARED_PIECES, *FORMAT_PIECES,
        ["--substitute-tests"], ["--subst"], ["--substitute-tests=x"], ["--substitute-tests="],
    ],
    "check": SHARED_PIECES,
    "sweep": [
        *SHARED_PIECES, *FORMAT_PIECES, ["--var", "k"], ["--var=bbpp"], ["--va", "k"],
        ["--from", "0"], ["--from=-3/2"], ["--from", "-3/2"], ["--from", "-1"], ["--from", "1.1.1"],
        ["--fr", "0"], ["--to", "1"], ["--to=1/2"], ["--to", "1e3"], ["--step", "1/4"], ["--step=0.25"],
        ["--step", "1/0"],
    ],
    "axioms": [
        ["--trials", "1"], ["--trials=20"], ["--tri", "1"], ["--trials", "x"], ["--trials"],
        ["--seed", "3"], ["--seed=-1"], ["--seed", "-1"], ["--seed", "1_0"], ["--", "1"], ["-h"],
        ["--unknown"], ["extra"],
    ],
}
# the pieces of a call that reads, each kept or left out at random
VALID_PIECES = {
    "eval": [[TRANSFER]],
    "check": [[TRANSFER]],
    "sweep": [[MSC], ["--var", "k"], ["--from", "0"], ["--to", "1"], ["--step", "1/4"]],
    "axioms": [],
}


def seeded_argv(seed):
    """A command, most pieces of a valid call and a few other pieces, shuffled; now and then no command."""
    rng = random.Random(seed)
    command = rng.choice(list(PIECES))
    pieces = [piece for piece in VALID_PIECES[command] if rng.random() < 0.85]
    pieces += rng.choices(PIECES[command], k=rng.randrange(4))
    rng.shuffle(pieces)
    head = rng.choice([[command]] * 8 + [[], ["bogus"], ["--help"]])
    return [*head, *(token for piece in pieces for token in piece)]


def test_the_reader_reads_argv_as_argparse_does_or_leaves_it_to_argparse(capsys):
    # Either read_argv gives argparse's attributes, or it gives None and argparse reads argv;
    # where argparse then exits, with help or an error, main exits the same way with the same text.
    # Each version of Python brings its own argparse, and the reader must agree with each.
    parser = cli.build_arg_parser()
    outcomes = {"read": 0, "help or error from argparse": 0, "read by argparse alone": 0}
    for seed in range(1000):
        argv = seeded_argv(seed)
        try:
            expected = vars(parser.parse_args(argv))
        except SystemExit as exit_:
            expected = (int(exit_.code or 0), *capsys.readouterr())
        read = cli.read_argv(argv)
        if read is not None:
            assert vars(read) == expected, argv
            outcomes["read"] += 1
        elif isinstance(expected, tuple):
            assert run(argv, capsys) == expected, argv
            outcomes["help or error from argparse"] += 1
        else:  # an abbreviation, say
            outcomes["read by argparse alone"] += 1
    assert min(outcomes.values()) >= 50, outcomes


def test_the_readme_and_ci_calls_are_read_without_argparse(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(README.parent)
    built = []
    build = cli.build_arg_parser

    def counted():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "build_arg_parser", counted)
    # the calls of the installed-package step of the CI workflow, on files made as it makes them
    chain = tmp_path / "chain.bgt"
    doublings = "".join(f"budget B{i} = B{i - 1} | B{i - 1}\n" for i in range(1, 41))
    chain.write_text("param x\nbudget B0 = a(x)\n" + doublings, encoding="utf-8")
    unicode = tmp_path / "unicode.bgt"
    unicode.write_text("param xé\nparam A:y\nbudget B = in:x(xé + ٣) | out(A:y * 2)\n", encoding="utf-8")
    many = tmp_path / "many.bgt"
    many.write_text("".join(f"param p{i}\n" for i in range(4000)) + "budget P = a(p0)\n", encoding="utf-8")
    total = [MSC, "--budget", "Total", "--bindings", SCENARIO]
    bbpp_sweep = [
        "sweep", MSC, "--budget", "J", "--var", "bbpp", "--from=-1/2", "--to", "34", "--step", "1/2",
        "--set", "k=1/2", *sets({name: value for name, value in S0.items() if name != "bbpp"}),
    ]
    calls = [
        ["check", *total, "--set", "k=424/1495"],
        ["eval", *total, "--set", "k=424/1495", "--format", "json"],
        README_SWEEP,
        [*README_SWEEP, "--format", "json"],
        bbpp_sweep,
        [*bbpp_sweep, "--format", "json"],
        ["eval", *total, "--substitute-tests"],
        ["eval", str(chain), "--set", "x=1"],
        ["axioms", "--trials", "20", "--seed", "0"],
        ["eval", str(unicode), "--set", "xé=-2", "--set", "A:y=+1/2"],
        ["check", str(many), *(item for i in range(4000) for item in ("--set", f"p{i}={i}/7"))],
        *(argv for argv, _ in readme_examples()),
    ]
    for argv in calls:
        assert run(argv, capsys)[0] == 0, argv[:4]
    assert built == []
