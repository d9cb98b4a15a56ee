"""Budgets as algebraic terms over exact rationals.

A budget is a term built from entries ``a(p)`` (channel ``a`` carries the
rational amount ``p``), guard tests, composition, and encapsulation, with a
totalized inverse on the amounts so that every expression evaluates. The
package normalizes such terms, decides feasibility, and ships a small text
format (``.bgt``) plus a CLI around the same operations.

The package root holds the term and expression constructors, the pipeline
(``parse``, ``elaborate``, ``normalize``, ``ground_of``,
``apply_test_substitution``) with its oracle ``denote_ground``, and the
result types; every other name is imported from its own module.
"""

from .algebra import (
    DELTA,
    EPS,
    CanonicalTuplix,
    Comp,
    Delta,
    Encap,
    Entry,
    Eps,
    Test,
    Violation,
    apply_test_substitution,
    compose,
    denote_ground,
    encap,
    ground_of,
    normalize,
)
from .dsl import BudgetProgram, DslError, elaborate, parse
from .expr import Abs, Add, Const, Inv, Mul, Neg, Var

__version__ = "0.1.0"


def bundled(name: str) -> "pathlib.Path":
    """Path of a file shipped with the package, e.g. ``msc.bgt`` or ``scenario.bindings``."""
    import pathlib  # here, so that a command that reads no bundled file never imports it

    path = pathlib.Path(__file__).parent / "data" / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled file named {name!r}")
    return path


__all__ = [
    "Abs",
    "Add",
    "BudgetProgram",
    "CanonicalTuplix",
    "Comp",
    "Const",
    "DELTA",
    "Delta",
    "DslError",
    "EPS",
    "Encap",
    "Entry",
    "Eps",
    "Inv",
    "Mul",
    "Neg",
    "Test",
    "Var",
    "Violation",
    "apply_test_substitution",
    "bundled",
    "compose",
    "denote_ground",
    "elaborate",
    "encap",
    "ground_of",
    "normalize",
    "parse",
]
