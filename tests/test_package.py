import ast
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import tuplix
from tuplix import CanonicalTuplix
from tuplix.laws import Law, LawResult

SRC = Path(tuplix.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def names_in(node):
    """How often each name is used in a syntax tree, as a variable or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unused_definitions():
    """Top-level functions and classes, and methods, that no other code in the package names.

    A name is used when some code outside the definition itself refers to
    it; dunder methods, which the language calls, and the names in
    `tuplix.__all__` count as used.
    """
    modules = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in sorted(SRC.glob("*.py"))]
    used = sum(map(names_in, modules), Counter())
    found = []
    for module in modules:
        for top in module.body:
            if isinstance(top, ast.ClassDef):
                nodes = [top, *(item for item in top.body if isinstance(item, ast.FunctionDef))]
            elif isinstance(top, ast.FunctionDef):
                nodes = [top]
            else:
                continue
            for node in nodes:
                exported = node is top and node.name in tuplix.__all__
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not (exported or dunder) and used[node.name] <= names_in(node)[node.name]:
                    found.append(node.name if node is top else f"{top.name}.{node.name}")
    return found


def test_every_definition_is_used_by_the_package_or_exported():
    # helpers that only tests call belong in the tests
    assert unused_definitions() == []


def imported_names(tree):
    """The modules a syntax tree imports, and the names it imports from them, as (module, name)."""
    pairs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            pairs += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            pairs += [(node.module, alias.name) for alias in node.names]
    return pairs


def test_the_law_suite_alone_draws_random_values_and_imports_no_private_name():
    imports = {
        path.stem: imported_names(ast.parse(path.read_text(encoding="utf-8"))) for path in SRC.glob("*.py")
    }
    assert [stem for stem, pairs in imports.items() if any(m == "random" for m, _ in pairs)] == ["laws"]
    assert [name for _, name in imports["laws"] if name and name.startswith("_")] == []


def test_bundled_returns_a_shipped_file_and_refuses_an_unknown_name():
    assert tuplix.bundled("msc.bgt") == SRC / "data" / "msc.bgt"
    assert tuplix.bundled("msc.bgt").is_file()
    with pytest.raises(FileNotFoundError, match="no bundled file named 'nope.bgt'"):
        tuplix.bundled("nope.bgt")


def test_readme_library_example_gives_the_value_in_its_comment():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library\n\n```python\n", 1)[1].split("\n```\n", 1)[0]
    *body, last = block.splitlines()
    expression, comment = last.split("#", 1)
    namespace = {}
    exec("\n".join(body), namespace)
    assert repr(eval(expression, namespace)) == comment.strip()


def test_records_compare_hash_print_and_refuse_assignment_as_before():
    program = tuplix.parse("param x\nbudget B = test(x) | a(x)\n")
    null = tuplix.normalize(program.budgets["B"], {"x": Fraction(1)})
    violation = null.violations[0]
    quiet = CanonicalTuplix(True, (), ())  # the same result, without its explanation
    assert null == quiet and not (null != quiet) and hash(null) == hash(quiet)
    assert null != CanonicalTuplix(False, (), ()) and not (null == CanonicalTuplix(False, (), ()))
    law, result = Law("n", len), LawResult("n", 3, 1)
    assert (result.passed, LawResult("n", 3, 0).passed) == (False, True)
    for record, field in [(program, "params"), (null, "tests"), (violation, "label"), (law, "name"),
                          (result, "failures")]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert [repr(program), repr(null), repr(law), repr(result)] == [
        "BudgetProgram(params={'x': None}, budgets={'B': Comp(left=Test(arg=Var(name='x'), label='x', "
        "span='2:12'), right=Entry(channel='a', amount=Var(name='x')))})",
        "CanonicalTuplix(is_null=True, tests=(), entries=(), violations=(Violation(label='x', "
        "span='2:12', value=Fraction(1, 1)),))",
        "Law(name='n', check=<built-in function len>)",
        "LawResult(name='n', trials=3, failures=1)",
    ]


STDLIB_ONLY = """
import contextlib, io, sys
before = set(sys.modules)
from tuplix import cli, laws
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["axioms", "--trials", "1"])
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(code, *sorted(new - {"tuplix"} - sys.stdlib_module_names))
"""


def test_the_runtime_imports_the_standard_library_only():
    # in a fresh interpreter, so that modules the tests loaded do not hide an import
    proc = subprocess.run(
        [sys.executable, "-c", STDLIB_ONLY], capture_output=True, encoding="utf-8", cwd=SRC.parent
    )
    assert (proc.stdout, proc.stderr) == ("0\n", "")


DEFERRED_LAWS = """
import contextlib, io, os, sys
sys.path.insert(0, sys.argv[1])
msc, scenario = (os.path.join(sys.argv[2], name) for name in ("msc.bgt", "scenario.bindings"))
import tuplix.cli
deferred = {"dataclasses", "pathlib", "typing", "copy", "inspect", "random", "tuplix.laws",
            "argparse", "gettext", "shutil", "locale", "json"}
print(sorted(deferred & set(sys.modules)))
readme_sweep = "--var k --from 0 --to 1 --step 1/4 --set cpec=1 --set cpdg=10 --set escf=1/5 --set bbpp=8"
for argv in (
    ["eval", msc, "--budget", "Total", "--bindings", scenario],
    ["check", msc, "--budget", "Total", "--bindings", scenario, "--set", "k=424/1495"],
    ["sweep", msc, "--budget", "J", "--bindings", scenario, *readme_sweep.split()],
    ["axioms", "--trials", "1"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        code = tuplix.cli.main(argv)
    print(argv[0], code, sorted(deferred & set(sys.modules)))
"""


def test_only_the_axioms_command_imports_the_law_suite_and_random():
    # a cold eval, check or sweep loads only what it runs: never the laws, nor the modules that
    # records, paths and type aliases once needed, nor argparse (with what its help text loads)
    # and json, which help, argv that the one-pass reader leaves to argparse, and JSON output
    # load; -S keeps site from importing modules of its own
    proc = subprocess.run(
        [sys.executable, "-S", "-c", DEFERRED_LAWS, str(SRC.parent), str(SRC / "data")],
        capture_output=True,
        encoding="utf-8",
    )
    assert (proc.stdout, proc.stderr) == (
        "[]\neval 0 []\ncheck 0 []\nsweep 0 []\naxioms 0 ['random', 'tuplix.laws']\n", ""
    )
