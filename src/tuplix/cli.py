"""Command line interface.

Subcommands:

  eval    normalize a budget under (possibly partial) bindings
  check   require full bindings; exit 0 iff the budget balances
  sweep   evaluate a budget across a range of one parameter
  axioms  run the randomized law suite

Exit codes: 0 success, 1 the budget is impossible (or a law failed),
2 usage, parse or binding errors, nesting past 256 brackets, a number
past the interpreter's digit limit and output closed early among them.
Rationals cross the boundary as exact text ('n/d', or 'n' when the
denominator is 1), never as floats. `report` turns an eval or check
result into one document of text; `render_json` dumps it,
`render_text` lays it out, and check writes its violation lines.

COMMANDS declares each command and each of its options once. `main`
reads argv with `read_argv`, one pass over argv driven by that table;
help, and argv that the pass cannot read exactly, such as an
abbreviation, an unknown option or a refused value, go to the argparse
parser that `build_arg_parser` builds from the same table, imported and
built on first use. So every help text and usage error is argparse's own.
"""

from __future__ import annotations

import functools
import operator
import os
import re
import sys
from collections import namedtuple
from collections.abc import Iterable
from itertools import compress, repeat
from math import lcm
from types import SimpleNamespace

from .algebra import (
    CanonicalTuplix,
    Tuplix,
    apply_test_substitution,
    ground_columns,
    ground_of,
    normalize,
)
from .dsl import BudgetProgram, DslError, elaborate, parse
from .expr import IDENT_PATTERN, free_vars, pretty
from .meadow import (
    Column,
    DigitLimitError,
    Rational,
    format_column,
    format_rational,
    lowest_terms,
    parse_rational,
    quoted,
)

_BINDING_RE = re.compile(rf"({IDENT_PATTERN})\s*=\s*(\S+)\Z")


class CliError(Exception):
    """A usage-level problem; maps to exit code 2."""


def report(c: CanonicalTuplix, source: str) -> dict:
    """An eval or check result as README's JSON document; a span is '' where a test has no place."""
    entries = ground_of(c)  # sorted by channel
    return {
        "status": "null" if c.is_null else "ok",
        "entries": None if entries is None else {ch: format_rational(a) for ch, a in entries.items()},
        "residual_tests": [pretty(t) for t in c.tests],
        "violations": [{"span": "" if v.span is None else f"{source}:{v.span}", "test": v.label,
                        "value": format_rational(v.value)} for v in c.violations],
    }


def _violation_line(violation: dict) -> str:
    """A report's violation as 'file:line:col  test  value v', without the place when its span is ''."""
    where = f"{violation['span']}  " if violation["span"] else ""
    return f"{where}{violation['test']}  value {violation['value']}"


def render_text(doc: dict) -> str:
    """A report laid out as text: a section a key, each item on an indented line."""
    lines = [f"status: {doc['status']}"]
    if doc["entries"] is not None:
        lines.append("entries:")
        lines += [f"  {channel}: {amount}" for channel, amount in doc["entries"].items()]
    if doc["residual_tests"]:
        lines.append("residual tests:")
        lines += [f"  {test}" for test in doc["residual_tests"]]
    if doc["violations"]:
        lines.append("violations:")
        lines += [f"  {_violation_line(v)}" for v in doc["violations"]]
    return "\n".join(lines) + "\n"


def render_json(doc: dict) -> str:
    import json  # for JSON output alone

    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# --- bindings ---------------------------------------------------------------


def parse_bindings_text(text: str, origin: str) -> dict[str, Rational]:
    """Bindings files hold 'NAME = RATIONAL' lines, with # comments."""
    out: dict[str, Rational] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _BINDING_RE.match(line)
        if m is None:
            raise CliError(f"{origin}:{number}: expected 'NAME = RATIONAL', found {quoted(raw.strip())}")
        name, value = m.groups()
        try:
            out[name] = parse_rational(value)
        except ValueError as exc:
            raise CliError(f"{origin}:{number}: {exc}") from None
    return out


def _parse_set_flag(item: str) -> tuple[str, Rational]:
    m = _BINDING_RE.match(item.strip())
    if m is None:
        raise CliError(f"--set expects VAR=RATIONAL, found {quoted(item)}")
    name, value = m.groups()
    try:
        return name, parse_rational(value)
    except ValueError as exc:
        raise CliError(f"--set {quoted(item)}: {exc}") from None


def _read_text(path: str) -> str:
    """A file's text, decoded as UTF-8 after any byte-order mark.

    A file that cannot be read or decoded is a CliError.
    """
    try:
        with open(path, encoding="utf-8-sig") as file:
            return file.read()
    except OSError as exc:
        raise CliError(str(exc)) from None
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise CliError(f"{os.path.basename(path)}:{line}: not valid UTF-8 ({exc.reason})") from None
    except ValueError as exc:  # a NUL byte, which no path can hold
        raise CliError(f"{exc} in the path {quoted(path)}") from None


def collect_bindings(args: SimpleNamespace, program: BudgetProgram) -> dict[str, Rational]:
    """File bindings first, then --set pairs in order; the last value wins."""
    bindings: dict[str, Rational] = {}
    if args.bindings:
        bindings.update(parse_bindings_text(_read_text(args.bindings), os.path.basename(args.bindings)))
    for item in args.set or []:
        name, value = _parse_set_flag(item)
        bindings[name] = value
    unknown = sorted(bindings.keys() - program.params.keys())
    if unknown:
        raise CliError("unknown parameter(s) in bindings: " + ", ".join(unknown))
    return bindings


def _load(args: SimpleNamespace) -> tuple[str, BudgetProgram, Tuplix, dict[str, Rational]]:
    """The source name, program, chosen budget's term and bindings of a command.

    Fails, in this order, on a file that cannot be read, a parse error, an
    unknown budget name and bad bindings.
    """
    text = _read_text(args.file)
    source = os.path.basename(args.file)
    try:
        program = parse(text)
    except DslError as exc:
        raise CliError(f"{source}:{exc}") from None
    names = list(program.budgets)
    if not names:
        raise CliError("the program declares no budgets")
    budget = names[-1] if args.budget is None else args.budget
    if budget not in program.budgets:
        raise CliError(f"no budget named {quoted(budget)}; available: " + ", ".join(names))
    return source, program, elaborate(program, budget), collect_bindings(args, program)


# --- subcommands -------------------------------------------------------------


def cmd_eval(args: SimpleNamespace) -> int:
    source, _, term, bindings = _load(args)
    c = normalize(term, bindings)
    if args.substitute_tests and not c.is_null:
        c = apply_test_substitution(c)
    render = render_json if args.format == "json" else render_text
    sys.stdout.write(render(report(c, source)))
    return 1 if c.is_null else 0


def cmd_check(args: SimpleNamespace) -> int:
    source, program, term, bindings = _load(args)
    missing = sorted(program.params.keys() - bindings.keys())
    if missing:
        raise CliError("check requires every parameter bound; missing: " + ", ".join(missing))
    c = normalize(term, bindings)
    if not c.is_null:
        return 0
    sys.stderr.write("".join(_violation_line(v) + "\n" for v in report(c, source)["violations"]))
    return 1


# A sweep keeps every column, and then its whole output, in memory before it
# prints (about 0.8 KiB a row as text and as JSON for msc budget J,
# peak RSS over 100,000 rows on CPython 3.11, less the interpreter's 21 MiB),
# so longer ranges are refused before any row is built.
MAX_SWEEP_ROWS = 100_000


def _sweep_values(start: Rational, stop: Rational, step: Rational) -> Column:
    """The swept values start, start + step, ... up to stop, as numerators over one denominator."""
    if step <= 0:
        raise CliError("--step must be positive")
    if stop < start:
        raise CliError("--to must not be below --from")
    count = (stop - start) // step + 1
    if count > MAX_SWEEP_ROWS:
        raise CliError(
            f"the sweep would have {count} rows, more than the limit of {MAX_SWEEP_ROWS}; "
            "use a larger --step or a shorter range"
        )
    # value i is (a + i * b) / c, over the common denominator c of start and step
    c = lcm(start.denominator, step.denominator)
    a = start.numerator * (c // start.denominator)
    b = step.numerator * (c // step.denominator)
    return list(range(a, a + count * b, b)), c


def _at_ok_rows(ok: list[bool], ok_cells: Iterable[str], null_cell: str) -> list[str]:
    """One cell a row: the next of `ok_cells` at an ok row, and `null_cell` at a null one."""
    ok_cells = iter(ok_cells)
    return [next(ok_cells) if fine else null_cell for fine in ok]


def cmd_sweep(args: SimpleNamespace) -> int:
    _, program, term, bindings = _load(args)
    if args.var not in program.params:
        raise CliError(f"--var {quoted(args.var)} is not a parameter of the program")
    # the swept value wins over any --set or --bindings value for the same name
    fixed = {name: value for name, value in bindings.items() if name != args.var}
    needed = sorted(free_vars(term) - set(fixed) - {args.var})
    if needed:
        raise CliError(
            "sweep requires every other parameter of the budget bound; missing: "
            + ", ".join(needed)
        )
    column = _sweep_values(args.start, args.stop, args.step)
    values = format_column(*lowest_terms(*column))
    # Normalize and compile once; the program then runs once over all rows.
    c = normalize(term, fixed)
    ok, amounts = ground_columns(c, {args.var: column}, len(values))
    channels = [channel for channel, _ in c.entries] if any(ok) else []  # sorted; none if no row is ok
    # an amount is formatted only at the ok rows, and its column of ints is let go once it is
    amounts = [format_column([*compress(n, ok)], [*compress(d, ok)]) for n, d in amounts]
    if args.format == "json":
        import json  # for JSON output alone

        # each row laid out as json.dumps(rows, sort_keys=True, indent=2) would, with each
        # channel's key encoded once; the text of a rational needs no escape
        keys = [f'      {json.dumps(channel)}: "' for channel in channels]
        if keys:  # the entries of each ok row, in row order
            entries = iter(
                ["{\n" + '",\n'.join(map(operator.add, keys, row)) + '"\n    }' for row in zip(*amounts)]
            )
        else:
            entries = repeat("{}")
        del amounts  # every amount is in its row's entries now: let its column go
        rows = [
            f'  {{\n    "entries": {next(entries)},\n    "status": "ok",\n    "value": "{value}"\n  }}'
            if fine
            else f'  {{\n    "entries": null,\n    "status": "null",\n    "value": "{value}"\n  }}'
            for fine, value in zip(ok, values)
        ]
        del entries  # and every entries text is in its row
        # the document is joined once, and written without a copy made by concatenation
        sys.stdout.writelines(("[\n", ",\n".join(rows), "\n]\n"))
        return 0
    table = [
        [args.var, *values],
        ["status", *["ok" if fine else "null" for fine in ok]],
        *([channel, *_at_ok_rows(ok, texts, "NULL")] for channel, texts in zip(channels, amounts)),
    ]
    # each column padded to its width but the last, so that no line ends in blanks
    padded = [list(map(str.ljust, cells, repeat(max(map(len, cells))))) for cells in table[:-1]]
    sys.stdout.writelines(("\n".join(map("  ".join, zip(*padded, table[-1]))), "\n"))
    return 0


def cmd_axioms(args: SimpleNamespace) -> int:
    from .laws import all_laws, render_results, run_suite  # with `random`, for this command alone

    if args.trials < 1:
        raise CliError("--trials must be >= 1")
    results = run_suite(all_laws(), args.trials, args.seed)
    sys.stdout.write(render_results(results))
    return 0 if all(r.passed for r in results) else 1


# --- argument parsing -----------------------------------------------------------


def _rational_arg(text: str) -> Rational:
    """parse_rational as a converter of COMMANDS: argparse reports the reason it refuses a value."""
    try:
        return parse_rational(text)
    except ValueError as exc:
        import argparse  # only argparse reports a refused value, so it is loaded or about to be

        raise argparse.ArgumentTypeError(str(exc)) from None


class Argument(namedtuple("Argument", "dest flag action type choices required default metavar help",
                          defaults=(None, "store", None, None, None, None, None, None))):
    """One argument of a command, as argparse's add_argument takes it: a positional where `flag` is None.

    `action` is "store", "append" (the option repeats, each value appended
    to a list) or "store_true" (the option takes no value); `type` converts
    a value's text. A field left None is not passed to add_argument.
    """

    __slots__ = ()


_PROGRAM = (
    Argument("file", help="budget program (.bgt)"),
    Argument("budget", "--budget", metavar="NAME", help="budget to use (default: last declared)"),
    Argument("set", "--set", "append", metavar="VAR=RAT",
             help="bind one parameter (repeatable; overrides --bindings)"),
    Argument("bindings", "--bindings", metavar="FILE", help="file of NAME = RATIONAL lines"),
)
_FORMAT = Argument("format", "--format", choices=("text", "json"), default="text")

# Every command and its arguments, declared once, as name -> (line in the help, function that
# runs it, arguments in help order): read_argv reads argv from this table, and build_arg_parser
# builds argparse's parser from it.
COMMANDS = {
    "eval": ("normalize a budget under bindings", cmd_eval, (
        *_PROGRAM,
        _FORMAT,
        Argument("substitute_tests", "--substitute-tests", "store_true", default=False,
                 help="solve residual tests that are linear in a parameter into the amounts"),
    )),
    "check": ("exit 0 iff the fully bound budget balances", cmd_check, _PROGRAM),
    "sweep": ("evaluate across a range of one parameter", cmd_sweep, (
        *_PROGRAM,
        Argument("var", "--var", required=True, metavar="NAME", help="parameter to sweep"),
        Argument("start", "--from", type=_rational_arg, required=True, metavar="RAT"),
        Argument("stop", "--to", type=_rational_arg, required=True, metavar="RAT"),
        Argument("step", "--step", type=_rational_arg, required=True, metavar="RAT"),
        _FORMAT,
    )),
    "axioms": ("run the randomized law suite", cmd_axioms, (
        Argument("trials", "--trials", type=int, default=1000, metavar="N"),
        Argument("seed", "--seed", type=int, default=0, metavar="S"),
    )),
}


def read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What argparse would read from argv, read in one pass over it; None where argparse must read it.

    The pass reads a command, its positional, and options by their full
    names, as `--opt value` with a value that does not start with '-' or as
    `--opt=value`. Anything else gives None: help, an abbreviation, an
    unknown option, '--', a missing value or one that its converter or
    choices refuse, one positional too many or too few, a missing required
    option. argparse then reads argv itself, or prints its own help or error.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, run, arguments = COMMANDS[argv[0]]
    by_flag = {argument.flag: argument for argument in arguments}
    positionals = (argument for argument in arguments if argument.flag is None)
    values = {argument.dest: argument.default for argument in arguments}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            argument = next(positionals, None)
            if argument is None:
                return None
            values[argument.dest] = token
            continue
        flag, equals, value = token.partition("=")
        argument = by_flag.get(flag)
        if argument is None:
            return None
        if argument.action == "store_true":
            if equals:
                return None
            values[argument.dest] = True
            continue
        if not equals:
            value = next(tokens, "-")  # at the end of argv, "-" stands for the missing value
            if value.startswith("-"):
                return None
        if argument.type is not None:
            try:
                value = argument.type(value)
            except Exception:  # argparse runs the converter again, and reports or raises what it raises
                return None
        if argument.choices is not None and value not in argument.choices:
            return None
        if argument.action == "append":
            if values[argument.dest] is None:
                values[argument.dest] = []
            values[argument.dest].append(value)  # in place: a copy per value would be quadratic
        else:
            values[argument.dest] = value
    if any(values[argument.dest] is None for argument in arguments
           if argument.required or argument.flag is None):  # a positional is required
        return None
    return SimpleNamespace(command=argv[0], run=run, **values)


@functools.cache
def build_arg_parser() -> "argparse.ArgumentParser":
    """argparse's parser of COMMANDS, built on the first call and shared by all later ones.

    Each parse_args call fills a fresh Namespace, so one call's flags never
    reach the next; no option has a mutable default that a call could share.
    """
    import argparse  # for help and for the argv that read_argv leaves to argparse alone

    parser = argparse.ArgumentParser(
        prog="tuplix",
        description="Evaluate budget programs over exact rationals.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_, run, arguments) in COMMANDS.items():
        sub = commands.add_parser(name, help=help_)
        for argument in arguments:
            options = {field: value for field, value in argument._asdict().items() if value is not None}
            if argument.flag is None:  # a positional is named by its dest
                sub.add_argument(options.pop("dest"), **options)
            else:
                sub.add_argument(options.pop("flag"), **options)
        sub.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_argv(argv)
    if args is None:
        try:
            args = SimpleNamespace(**vars(build_arg_parser().parse_args(argv)))
        except SystemExit as exit_:
            return int(exit_.code or 0)
    try:
        return args.run(args)
    except (CliError, DigitLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # so the last flush cannot fail again
        from contextlib import suppress  # here, as few commands meet a closed pipe
        with suppress(BrokenPipeError):  # stderr may be the same closed pipe
            sys.stderr.write("error: the output was closed before it was all written\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
