"""Seeded inputs for the benchmark's workloads, and their reference checks.

A workload turns a seed into a *round*: a fixed list of requests that the
timed loop repeats whole, so every run does the same mix of work. A request
is one call of ``tuplix.cli.main`` (``argv``) or of ``tuplix.laws.run_law``
(``law``), together with what its output must show (``expect``). No
expectation comes from tuplix: the msc requests use the straight-line
oracle in ``tests/case_study.py``, the synthetic programs closed forms, and
a law must report zero failures.

The workloads, what each loads and bypasses, and its work unit:

  msc-cli    check and eval of the shipped msc.bgt with 55 --set flags, a
             third of the checks on a perturbed scenario, some evals
             partially bound. Every call re-reads and re-parses the file:
             dsl.parse and cli.collect_bindings take about half. Never
             reaches laws. Unit: one CLI call.
  msc-sweep  sweep of k over budget J (the README's 501 rows, and seeded
             scenarios with ok and NULL rows) and over Total. dsl runs once
             per call, algebra.normalize once per row: normalize, fold and
             substitute take nearly all the time. Unit: one sweep row.
  scale      eval of large synthetic programs: long compositions, doubling
             def chains, many open <= tests, deep enc{} nesting. Loads
             dsl.elaborate, normalize and the rendering of big residuals.
             Unit: one CLI call. An untimed probe evaluates compositions
             past today's recursion limit and reports the share that ends
             in RecursionError (all three at the seed).
  laws       run_law over every law with a fixed trial count: many tiny
             terms through denote_ground, evaluate and random generation;
             never parses. Unit: one law trial.

Which layer metric should move which end-to-end metric:

  dsl.parse, cli.collect_bindings, meadow.parse_rational
      -> latency_p50_ms, ops_per_s on msc-cli; not on msc-sweep or laws
  algebra.normalize (and repeat_ratio), expr.fold_constants,
  expr.substitute_all
      -> ops_per_s on msc-sweep, then scale; little on laws
  dsl.elaborate (and out_nodes)
      -> ops_per_s, peak_rss_mib on scale; not on msc-sweep
  algebra.denote_ground, expr.evaluate
      -> ops_per_s on laws; not on the CLI workloads
  algebra.normalize.residual_nodes, expr.pretty, cli.render.out_bytes
      -> latency_p90_ms on scale (open tests) and msc-cli; not on msc-sweep

Importing this module needs ``src`` and ``tests`` of the checkout on
``sys.path``.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import case_study as cs

ROOT = Path(__file__).resolve().parent.parent
MSC = ROOT / "src" / "tuplix" / "data" / "msc.bgt"

# Parameters of budget J, the bindings of the README's sweep example.
J_PARAMS = ("cpec", "cpdg", "escf", "bbpp", "A:nec", "B:nec", "C:nec", "A:ndg", "B:ndg", "C:ndg")
README_SWEEP = dict(
    zip(J_PARAMS, map(Fraction, (1, 10, "1/5", 8, 30, 20, 10, 4, 1, 1)))
)

# Sizes of the synthetic programs. Today a composition of about 985 entries
# (and an enc{} nesting of about 325) exceeds the default recursion limit;
# every size keeps at least 25% away from that, so which inputs fail repeats
# exactly. The probe sizes lie above it and run untimed. A round of 15
# requests puts the median and the 90th percentile of its latencies in the
# middle of one size's samples (nest-150 and open-tests-400 with today's
# code) rather than between two sizes.
FLAT_SIZES = (90, 180, 360, 540, 720)
CHAIN_DEPTHS = (9, 11, 13)
OPEN_TESTS = (100, 200, 400)
NEST_DEPTHS = (50, 100, 150, 200)
FLAT_PROBE_SIZES = (1250, 1500, 2000)

LAW_TRIALS = 200

_IDENT_RE = re.compile(r"[A-Za-z_]\w*(?::[A-Za-z_]\w*)*")
_VIOLATION_RE = re.compile(r"(?:\S+:\d+:\d+  )?(.+)  value (\S+)")


@dataclass
class Request:
    kind: str  # selects the check in CHECKS
    units: int  # work units the request completes
    expect: dict  # reference values
    argv: list[str] | None = None
    law: tuple[str, int, int] | None = None  # (law name, trials, seed)


@dataclass
class Outcome:
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    result: object = None  # the LawResult of a law request
    error: BaseException | None = None


@dataclass
class Inputs:
    round: list[Request]
    files: dict[str, str] = field(default_factory=dict)  # generated .bgt text by name
    probe: list[Request] = field(default_factory=list)  # run once, untimed


def fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def generate(workload: str, seed: int, workdir: Path) -> Inputs:
    """The workload's inputs for this seed; file arguments point into `workdir`."""
    make = {"msc-cli": _msc_cli, "msc-sweep": _msc_sweep, "scale": _scale, "laws": _laws}
    return make[workload](random.Random(f"{workload}:{seed}"), workdir)


def write_files(inputs: Inputs, workdir: Path) -> None:
    for name, text in inputs.files.items():
        (workdir / name).write_text(text)


def check(request: Request, outcome: Outcome) -> str | None:
    """None when the outcome matches the reference, else what differs."""
    if outcome.error is not None:
        return f"raised {type(outcome.error).__name__}"
    return CHECKS[request.kind](request.expect, outcome)


# --- msc-cli -----------------------------------------------------------------


def _set_flags(values: dict, names) -> list[str]:
    flags = []
    for name in names:
        flags += ["--set", f"{name}={fmt(values[name])}"]
    return flags


def _msc_cli(rng: random.Random, workdir: Path) -> Inputs:
    names = cs.param_names()
    total = ["--budget", "Total"]
    requests = []
    for i in range(6):
        v = cs.consistent_scenario(rng)
        if i % 3 == 2:
            v[f"{rng.choice(cs.PROGRAMS)}:{rng.choice(cs.PERTURBABLE)}"] += 1
        sl = cs.straight_line(v)
        expect = {
            "code": 0 if sl.feasible else 1,
            "balances": {x.lower(): fmt(sl.psi[x]) for x in cs.PROGRAMS if sl.psi[x] != 0},
            "guards": sorted(fmt(p) for p in sl.phi if p != 0),
        }
        argv = ["check", str(MSC), *total, *_set_flags(v, names)]
        requests.append(Request("check", 1, expect, argv))
    for _ in range(3):
        v = cs.consistent_scenario(rng)
        sl = cs.straight_line(v)
        expect = {
            "entries": {ch: fmt(amount) for ch, amount in sl.entries.items()},
            "residual_tests": [],
            "status": "ok",
            "violations": [],
        }
        argv = ["eval", str(MSC), *total, "--format", "json", *_set_flags(v, names)]
        requests.append(Request("eval-json", 1, expect, argv))
    # Which global stays open decides the residual tests' size, so the slots
    # fix it and the seed picks only the per-program parameter.
    for i, global_name in enumerate(("k", "bbpp", "k", "bbpp")):
        v = cs.consistent_scenario(rng)
        unbound = {global_name, f"{rng.choice(cs.PROGRAMS)}:{rng.choice(cs.PER_PROGRAM)}"}
        argv = ["eval", str(MSC), *total, *_set_flags(v, [n for n in names if n not in unbound])]
        if i >= 2:
            argv.append("--substitute-tests")
        requests.append(Request("eval-open", 1, {"unbound": sorted(unbound)}, argv))
    return Inputs(requests)


def _check_check(expect: dict, out: Outcome) -> str | None:
    if out.code != expect["code"] or out.stdout:
        return f"exit {out.code}, stdout {out.stdout[:40]!r}; expected exit {expect['code']}"
    balances, guards = {}, []
    for line in out.stderr.splitlines():
        m = _VIOLATION_RE.fullmatch(line)
        if m is None:
            return f"unexpected stderr line {line!r}"
        label, value = m.groups()
        if label.startswith("enc{"):
            balances[label[4:-1]] = value
        else:
            guards.append(value)
    if balances != expect["balances"] or sorted(guards) != expect["guards"]:
        return f"violations {balances} {guards}; expected {expect['balances']} {expect['guards']}"
    return None


def _check_eval_json(expect: dict, out: Outcome) -> str | None:
    if out.code != 0:
        return f"exit {out.code}"
    try:
        doc = json.loads(out.stdout)
    except ValueError:
        return f"not JSON: {out.stdout[:40]!r}"
    return None if doc == expect else f"report {doc}; expected {expect}"


def _check_eval_open(expect: dict, out: Outcome) -> str | None:
    lines = out.stdout.splitlines()
    if out.code != 0 or lines[:2] != ["status: ok", "residual tests:"]:
        return f"exit {out.code}, head {lines[:2]}; expected ok with residual tests"
    residual = lines[2:]
    if not residual or not all(line.startswith("  ") for line in residual):
        return f"residual section {residual[:2]}"
    names = {n for line in residual for n in _IDENT_RE.findall(line)} - {"abs"}
    stray = names - set(expect["unbound"])
    return f"bound parameters left in residual tests: {sorted(stray)}" if stray else None


# --- msc-sweep ---------------------------------------------------------------


def _grid(start: Fraction, stop: Fraction, step: Fraction) -> list[Fraction]:
    values = []
    while start <= stop:
        values.append(start)
        start += step
    return values


def _sweep_rows(budget: str, values: dict, grid: list[Fraction]) -> list[tuple]:
    """(k, status, entries or None) per grid point, from the straight-line oracle."""
    full = {name: Fraction(0) for name in cs.param_names()} | values
    rows = []
    for k in grid:
        sl = cs.straight_line(full | {"k": k})
        if budget == "J":
            ok = all(p == 0 for p in sl.phi)
            entries = sl.entries | {x.lower(): sl.staff[x] for x in cs.PROGRAMS}
        else:
            ok = sl.feasible
            entries = sl.entries
        rows.append((k, "ok" if ok else "null", {c: fmt(a) for c, a in entries.items()} if ok else None))
    return rows


def _sweep_request(budget: str, values: dict, names, step: Fraction, form: str) -> Request:
    """sweep --var k from 0 to 1 by `step`, every name in `names` bound."""
    grid = _grid(Fraction(0), Fraction(1), step)
    rows = _sweep_rows(budget, values, grid)
    if form == "json":
        expect = [{"entries": e, "status": s, "value": fmt(k)} for k, s, e in rows]
    else:
        channels = sorted({c for _, _, e in rows if e for c in e})
        expect = [["k", "status", *channels]]
        for k, status, entries in rows:
            expect.append([fmt(k), status, *(entries[c] if entries else "NULL" for c in channels)])
    argv = ["sweep", str(MSC), "--budget", budget, "--var", "k", "--from", "0", "--to", "1",
            "--step", fmt(step), "--format", form, *_set_flags(values, names)]
    return Request(f"sweep-{form}", len(grid), {"rows": expect}, argv)


def _mixed_j_scenario(rng: random.Random, grid) -> dict:
    """A scenario whose sweep of k over `grid` has at least 10% ok and 10% null rows."""
    for _ in range(1000):
        v = cs.consistent_scenario(rng)
        ok = sum(s == "ok" for _, s, _ in _sweep_rows("J", v, grid))
        if 0.1 <= ok / len(grid) <= 0.9:
            return v
    raise RuntimeError("no scenario with mixed ok and null rows")


def _msc_sweep(rng: random.Random, workdir: Path) -> Inputs:
    requests = [_sweep_request("J", README_SWEEP, J_PARAMS, Fraction(1, 500), "text")]
    step = Fraction(1, 200)
    for form in ("json", "json", "text"):
        v = _mixed_j_scenario(rng, _grid(Fraction(0), Fraction(1), step * 10))
        requests.append(_sweep_request("J", {n: v[n] for n in J_PARAMS}, J_PARAMS, step, form))
    v = cs.consistent_scenario(rng)
    names = [n for n in cs.param_names() if n != "k"]
    requests.append(_sweep_request("Total", {n: v[n] for n in names}, names, Fraction(1, 100), "text"))
    return Inputs(requests)


def _check_sweep_json(expect: dict, out: Outcome) -> str | None:
    if out.code != 0:
        return f"exit {out.code}"
    try:
        rows = json.loads(out.stdout)
    except ValueError:
        return f"not JSON: {out.stdout[:40]!r}"
    return _first_row_difference(rows, expect["rows"])


def _check_sweep_text(expect: dict, out: Outcome) -> str | None:
    if out.code != 0:
        return f"exit {out.code}"
    return _first_row_difference([line.split() for line in out.stdout.splitlines()], expect["rows"])


def _first_row_difference(rows: list, expected: list) -> str | None:
    if len(rows) != len(expected):
        return f"{len(rows)} rows; expected {len(expected)}"
    for row, want in zip(rows, expected):
        if row != want:
            return f"row {row}; expected {want}"
    return None


# --- scale -------------------------------------------------------------------


def _flat(rng: random.Random, n: int, workdir: Path, files: dict) -> Request:
    """a(x + c0) | a(x + c1) | ... : the amount on a is n*x + sum(c)."""
    # Offsets are never negative: "x - c" parses to one node more than "x + c",
    # and every seed must cost the same.
    offsets = [rng.randint(0, 999) for _ in range(n)]
    x = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
    name = f"flat-{n}.bgt"
    files[name] = "param x\nbudget F = " + "\n  | ".join(f"a(x + {c})" for c in offsets) + "\n"
    text = f"status: ok\nentries:\n  a: {fmt(n * x + sum(offsets))}\n"
    return Request("exact", 1, {"stdout": text}, ["eval", str(workdir / name), "--set", f"x={fmt(x)}"])


def _chain(rng: random.Random, depth: int, workdir: Path, files: dict) -> Request:
    """D0 = x + c, Di = D(i-1) * D(i-1): the amount is (x + c)^(2^depth)."""
    base = rng.choice((Fraction(2), Fraction(-2)))
    c = rng.randint(0, 99)
    lines = ["param x", f"def D0 = x + {c}"]
    lines += [f"def D{i} = D{i - 1} * D{i - 1}" for i in range(1, depth + 1)]
    lines.append(f"budget B = a(D{depth})")
    name = f"chain-{depth}.bgt"
    files[name] = "\n".join(lines) + "\n"
    text = f"status: ok\nentries:\n  a: {fmt(base ** (2**depth))}\n"
    return Request("exact", 1, {"stdout": text}, ["eval", str(workdir / name), "--set", f"x={fmt(base - c)}"])


def _open_tests(rng: random.Random, n: int, workdir: Path, files: dict) -> Request:
    """n tests u_i <= v_i; a quarter are bound (and hold), the rest stay residual."""
    closed = set(rng.sample(range(n), n // 4))
    order = rng.sample(range(n), n)
    params = "".join(f"param u{i}\nparam v{i}\n" for i in range(n))
    tests = "\n  | ".join(f"test(u{i} <= v{i})" for i in order)
    name = f"tests-{n}.bgt"
    files[name] = f"{params}budget T = {tests}\n  | a(1)\n"
    flags = []
    for i in sorted(closed):
        low = rng.randint(-50, 50)
        flags += ["--set", f"u{i}={low}", "--set", f"v{i}={low + rng.randint(0, 50)}"]
    expect = {"open": sorted(i for i in range(n) if i not in closed)}
    return Request("open-tests", 1, expect, ["eval", str(workdir / name), *flags])


def _nest(rng: random.Random, depth: int, workdir: Path, files: dict) -> Request:
    """enc{c_i}(c_i(x + k) | ... | c_i(-x - k)) around out(m * x): out carries m*x."""
    m = rng.randint(1, 9)
    x = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
    body = f"out({m} * x)"
    for i in reversed(range(depth)):
        k = rng.randint(0, 999)
        body = f"enc{{c{i}}}(c{i}(x + {k}) | {body} | c{i}(-x - {k}))"
    name = f"nest-{depth}.bgt"
    files[name] = f"param x\nbudget N = {body}\n"
    text = f"status: ok\nentries:\n  out: {fmt(m * x)}\n"
    return Request("exact", 1, {"stdout": text}, ["eval", str(workdir / name), "--set", f"x={fmt(x)}"])


def _scale(rng: random.Random, workdir: Path) -> Inputs:
    files: dict[str, str] = {}
    requests = [_flat(rng, n, workdir, files) for n in FLAT_SIZES]
    requests += [_chain(rng, d, workdir, files) for d in CHAIN_DEPTHS]
    requests += [_open_tests(rng, n, workdir, files) for n in OPEN_TESTS]
    requests += [_nest(rng, d, workdir, files) for d in NEST_DEPTHS]
    probe = [_flat(rng, n, workdir, files) for n in FLAT_PROBE_SIZES]
    return Inputs(requests, files, probe)


def _check_exact(expect: dict, out: Outcome) -> str | None:
    if out.code != 0 or out.stdout != expect["stdout"]:
        return f"exit {out.code}, stdout {out.stdout[:60]!r}; expected {expect['stdout'][:60]!r}"
    return None


def _check_open_tests(expect: dict, out: Outcome) -> str | None:
    lines = out.stdout.splitlines()
    if out.code != 0 or lines[:2] != ["status: ok", "residual tests:"]:
        return f"exit {out.code}, head {lines[:2]}; expected ok with residual tests"
    pairs = []
    for line in lines[2:]:
        names = set(_IDENT_RE.findall(line)) - {"abs"}
        i = min(names)[1:]
        if names != {f"u{i}", f"v{i}"}:
            return f"residual test {line.strip()!r} is not one u_i <= v_i"
        pairs.append(int(i))
    return None if sorted(pairs) == expect["open"] else f"open tests {len(pairs)}; expected {len(expect['open'])}"


# --- laws --------------------------------------------------------------------


def _laws(rng: random.Random, workdir: Path) -> Inputs:
    from tuplix.laws import all_laws

    base = rng.randrange(10**6)
    return Inputs([Request("law", LAW_TRIALS, {"failures": 0}, law=(law.name, LAW_TRIALS, base))
                   for law in all_laws()])


def _check_law(expect: dict, out: Outcome) -> str | None:
    r = out.result
    if r.trials != LAW_TRIALS or r.failures != expect["failures"]:
        return f"{r.failures} of {r.trials} trials failed; expected {expect['failures']}"
    return None


CHECKS = {
    "check": _check_check,
    "eval-json": _check_eval_json,
    "eval-open": _check_eval_open,
    "sweep-json": _check_sweep_json,
    "sweep-text": _check_sweep_text,
    "exact": _check_exact,
    "open-tests": _check_open_tests,
    "law": _check_law,
}
