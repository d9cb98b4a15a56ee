"""The budget description language (.bgt files).

A program is a sequence of declarations, each usable only after its
declaration:

  param NAME ["doc"]        an unbound rational parameter
  def NAME = expr           a named formula over params and earlier defs
  budget NAME = tuplix      a budget term

Budget syntax:

  tuplix  ::= primary { "|" primary }
  primary ::= "eps" | "delta"
            | IDENT "(" expr ")"            entry on channel IDENT
            | "test" "(" cond ")"
            | "enc" "{" IDENT {"," IDENT} "}" "(" tuplix ")"
            | IDENT                          reference to an earlier budget
            | "(" tuplix ")"
  cond    ::= relation { "&&" relation }
  relation::= expr [ ("<=" | "==") expr ]
  expr    ::= the usual +, -, *, / with unary minus and abs(...)

Numbers are exact: integers, fractions via the division operator, and
decimal literals like 0.25 (converted exactly). Identifiers may contain
colons (A:C1:sslt) and are otherwise opaque. Comments run from '#' to
the end of the line; newlines are insignificant. The keywords param,
def, budget, eps, delta, test, enc and abs are reserved. Only <= and ==
comparisons exist; strict inequality is deliberately unsupported.

The parser builds core terms (`algebra.Tuplix`) directly, in one pass
over the tokens: a reference to a def is the def's body, the same object
at every use, a condition becomes one test argument that is zero iff
every relation holds, and a budget reference returns the term already
built. Each test, delta and enc{} holds one `_Origin`, from which each
read makes a text that a violation reports (`algebra._Text`): the
position "line:col", and a test's label, its source text printed from
its relations as parsed, each def's body by the def's name. No node
changes once built, so a reported test keeps its relations. One symbol
table maps each name and literal to its node. The lexer is one `findall`
of the token pattern, and a token is its index into the list of token
texts, placed by `_Source` on request.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import namedtuple

from .algebra import (
    EPS,
    Comp,
    Delta,
    Encap,
    Entry,
    Test,
    Tuplix,
)
from .constraints import conjunction_expr, leq_expr
from .expr import (
    Abs,
    Add,
    Const,
    Expr,
    IDENT_PATTERN,
    Inv,
    Mul,
    Neg,
    Var,
    pretty,
    sub,
)
from .meadow import DigitLimitError, parse_rational, quoted

KEYWORDS = frozenset({"param", "def", "budget", "eps", "delta", "test", "enc", "abs"})


class DslError(Exception):
    """Any lexical, syntactic or scoping error, with its position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class BudgetProgram(namedtuple("BudgetProgram", "params budgets")):
    """A parsed program, in declaration order.

    `params` maps each parameter to its documentation string, or None;
    `budgets` maps each budget to its core term. Defs are already inlined
    in those terms, so a term's free variables are exactly the params it
    depends on.
    """

    __slots__ = ()


# --- lexer -------------------------------------------------------------------


# The blanks and comments before a token, and a token: an operator (the
# one-character ones first, as the commonest tokens; none of them starts a
# longer one), a name, a number or a string.
_SKIP = r"[ \t\r\n]*(?:\#[^\n]*[ \t\r\n]*)*"
_TOKEN = r"""[(){},|+\-*/]
          | IDENT
          | \d+(?:\.\d+)?
          | "[^"\n]*"
          | [<=>!]= | && | [=<>&]""".replace("IDENT", IDENT_PATTERN)

# One match skips the text before a token, then matches the token, or the
# empty token at the end of the text, and `findall` gives the token texts; a
# token's kind is told by its first character. If the text holds a character
# that starts no token, the last alternative takes the text from there to its
# end, the rest, so no match is made past the first such character, and the
# rest is the last token but one (the last is the empty token at the end). A
# rest never matches a whole token, as the first alternative would have taken
# it. Every place matches something, so no match gives back characters of a
# comment or backtracks into blanks, and none searches ahead.
_TOKEN_RE = re.compile(rf"{_SKIP} ({_TOKEN} | \Z | (?s:.+))", re.VERBOSE)


# --- parser ------------------------------------------------------------------

_COMPARISONS_UNSUPPORTED = {"<", ">", ">=", "!="}

# Brackets of any kind ("(", "abs(", "enc{...}(", "test(", an entry's "(")
# may nest this deep and no deeper. Each costs the parser at most three
# Python frames (a test's bracket five, but only once on any path), so it
# refuses deeper input with a DslError well before the interpreter's
# default limit of 1,000 frames.
MAX_NESTING = 256


def _is_name(token: str) -> bool:
    # Of the tokens the pattern matches, only a name starts with a character
    # that can start an identifier, a letter or "_"; a digit cannot.
    return token[:1].isidentifier()


class _Source:
    """A program's text, and where in it each token starts, listed on request.

    It keeps the text and none of its tokens, so a parsed program holds no
    more than its text until a token is placed. The first span or error
    asked for lexes the text once more and lists the offset of every token,
    one int each; a token's line and column are worked out over an index of
    the text's newlines, also listed on first use. Only an error and the
    span of a reported violation ask, so a program whose calls report
    nothing is lexed once.
    """

    __slots__ = ("text", "starts", "newlines")

    def __init__(self, text: str):
        self.text = text
        self.starts: list[int] | None = None  # the offset of each token, listed on first use
        self.newlines: list[int] | None = None  # offsets of the text's newlines, listed on first use

    def offset(self, index: int) -> int:
        """Where the text of token `index` starts."""
        if self.starts is None:
            self.starts = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
        return self.starts[index]

    def place(self, offset: int) -> tuple[int, int]:
        """The line and column, both from 1, of an offset into the text."""
        if self.newlines is None:
            self.newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self.newlines, offset)  # the newlines before the offset
        return line + 1, offset - (self.newlines[line - 1] if line else -1)


# A relation as written, for a test's label: (op, left, right), op "<=" or "==", or (None, expression, None)
Relation = tuple[str | None, Expr, Expr | None]


class _Origin:
    """Where a parsed test, delta or enc{} came from: the program's source and its keyword's token index.

    A test's also keeps its relations as parsed and the parser's map from
    id(def body) to the def's name, which grows after the test only with
    bodies built after it; none of these leads back to the parser.
    """

    __slots__ = ("source", "index", "relations", "names")

    def __init__(self, source: _Source, index: int, relations: list[Relation] | None = None, names: dict | None = None):
        self.source, self.index, self.relations, self.names = source, index, relations, names

    def span(self) -> str:
        """The "line:col" of the term's keyword."""
        return "{}:{}".format(*self.source.place(self.source.offset(self.index)))

    def label(self) -> str:
        """A test's source text: its relations printed as parsed, each def's body by the def's name."""
        return " && ".join(
            pretty(left, self.names) if op is None else f"{pretty(left, self.names)} {op} {pretty(right, self.names)}"
            for op, left, right in self.relations
        )


class _Parser:
    """A parser over the text's tokens, each token its index into `tokens`."""

    def __init__(self, text: str):
        self.source = _Source(text)
        self.tokens = _TOKEN_RE.findall(text)  # the last one is "", the end
        rest = self.tokens[-2] if len(self.tokens) > 1 else ""
        if rest and not re.fullmatch(_TOKEN, rest, re.VERBOSE):
            message = "unterminated string" if rest[0] == '"' else f"unexpected character {quoted(rest[0])}"
            raise DslError(message, *self.source.place(len(text) - len(rest)))
        self.pos = 0  # the index of the current token
        self.depth = 0  # brackets open at the current token
        # the symbol table: a name or literal -> its node at every use, a param's Var, def's body or Const
        self.values: dict[str, Expr] = {}
        self.params: dict[str, str | None] = {}  # param -> its doc, for BudgetProgram
        self.defs: dict[int, str] = {}  # id(body) -> its def's name, for the labels of tests
        self.budgets: dict[str, Tuplix] = {}

    # token helpers

    def error(self, message: str, index: int | None = None) -> DslError:
        source = self.source
        return DslError(message, *source.place(source.offset(self.pos if index is None else index)))

    def found(self) -> str:
        return quoted(self.tokens[self.pos] or "end of input")

    def expect_op(self, text: str) -> None:
        if self.tokens[self.pos] != text:
            raise self.error(f"expected {quoted(text)}, found {self.found()}")
        self.pos += 1

    def open_bracket(self) -> None:
        self.expect_op("(")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"brackets nested more than {MAX_NESTING} deep", self.pos - 1)

    def close_bracket(self) -> None:
        self.expect_op(")")
        self.depth -= 1

    def expect_name(self, what: str) -> str:
        text = self.tokens[self.pos]
        if not _is_name(text):
            raise self.error(f"expected {what}, found {self.found()}")
        if text in KEYWORDS:
            raise self.error(f"keyword {quoted(text)} cannot be used as {what}")
        self.pos += 1
        return text

    def declare(self, index: int) -> None:
        name = self.tokens[index]
        if name in self.values or name in self.budgets:
            seen = "param" if name in self.params else "def" if name in self.values else "budget"
            raise self.error(f"duplicate identifier {quoted(name)} (already a {seen})", index)

    # statements

    def parse_program(self) -> BudgetProgram:
        tokens = self.tokens
        while True:
            text = tokens[self.pos]
            if not text:
                break
            if text not in ("param", "def", "budget"):
                raise self.error(f"expected a param, def or budget declaration, found {quoted(text)}")
            self.pos += 1
            if text == "param":
                self.parse_param()
            elif text == "def":
                self.parse_def()
            else:
                self.parse_budget()
        return BudgetProgram(self.params, self.budgets)

    def parse_param(self) -> None:
        at = self.pos
        name = self.expect_name("a parameter name")
        doc = None
        if self.tokens[self.pos][:1] == '"':
            doc = self.tokens[self.pos][1:-1]
            self.pos += 1
        self.declare(at)
        self.params[name] = doc
        self.values[name] = Var(name)

    def parse_def(self) -> None:
        at = self.pos
        name = self.expect_name("a definition name")
        self.expect_op("=")
        body = self.parse_expr()
        if type(body) is Var or type(body) is Const or id(body) in self.defs:
            # a param's Var, an interned literal or an earlier def's body: a copy
            # of its own, rebuilt from its fields, prints as this def where named
            kind, fields = body.__reduce__()
            body = kind(*fields)
        self.declare(at)
        self.values[name] = body
        self.defs[id(body)] = name

    def parse_budget(self) -> None:
        at = self.pos
        name = self.expect_name("a budget name")
        self.expect_op("=")
        body = self.parse_tuplix()
        self.declare(at)
        self.budgets[name] = body

    # budget terms

    def parse_tuplix(self) -> Tuplix:
        term = self.parse_tuplix_primary()
        while self.tokens[self.pos] == "|":
            self.pos += 1
            term = Comp(term, self.parse_tuplix_primary())
        return term

    def parse_tuplix_primary(self) -> Tuplix:
        at = self.pos
        text = self.tokens[at]
        if text == "(":
            self.open_bracket()
            inner = self.parse_tuplix()
            self.close_bracket()
            return inner
        if not _is_name(text):
            raise self.error(f"expected a budget term, found {self.found()}")
        if text == "eps":
            self.pos += 1
            return EPS
        if text == "delta":
            self.pos += 1
            return Delta(span=_Origin(self.source, at))
        if text == "test":
            self.pos += 1
            self.open_bracket()
            arg, relations = self.parse_cond()
            self.close_bracket()
            origin = _Origin(self.source, at, relations, self.defs)
            return Test(arg, label=origin, span=origin)
        if text == "enc":
            self.pos += 1
            self.expect_op("{")
            channels = [self.expect_name("a channel name")]
            while self.tokens[self.pos] == ",":
                self.pos += 1
                channels.append(self.expect_name("a channel name"))
            self.expect_op("}")
            self.open_bracket()
            body = self.parse_tuplix()
            self.close_bracket()
            return Encap(frozenset(channels), body, span=_Origin(self.source, at))
        if text in KEYWORDS:
            raise self.error(f"keyword {quoted(text)} cannot start a budget term")
        self.pos += 1
        if self.tokens[self.pos] == "(":
            self.open_bracket()
            amount = self.parse_expr()
            self.close_bracket()
            return Entry(text, amount)
        term = self.budgets.get(text)
        if term is None:
            raise self.error(f"reference to undeclared budget {quoted(text)}", at)
        return term

    # conditions

    def parse_cond(self) -> tuple[Expr, list[Relation]]:
        """A test's argument, zero iff every relation holds, and its relations as written."""
        args, relations = [], []
        while True:
            arg, relation = self.parse_relation()
            args.append(arg)
            relations.append(relation)
            if self.tokens[self.pos] != "&&":
                break
            self.pos += 1
        arg = args[0] if len(args) == 1 else conjunction_expr(args)
        return arg, relations

    def parse_relation(self) -> tuple[Expr, Relation]:
        """A relation's argument, with defs inlined, and the relation as written."""
        left = self.parse_expr()
        op = self.tokens[self.pos]
        if op in _COMPARISONS_UNSUPPORTED:
            raise self.error(
                f"comparison {quoted(op)} is not supported; only <= and == exist"
            )
        if op != "<=" and op != "==":
            return left, (None, left, None)
        self.pos += 1
        right = self.parse_expr()
        return (leq_expr(left, right) if op == "<=" else sub(left, right)), (op, left, right)

    # expressions

    def parse_expr(self) -> Expr:
        tokens = self.tokens
        node = self.parse_term()
        while True:
            op = tokens[self.pos]
            if op == "+":
                self.pos += 1
                node = Add(node, self.parse_term())
            elif op == "-":
                self.pos += 1
                node = sub(node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        """Factors joined by * and /, each a primary under any number of unary minuses."""
        tokens = self.tokens
        node, op = None, "*"
        while True:
            minuses = 0
            while tokens[self.pos] == "-":
                self.pos += 1
                minuses += 1
            factor = self.parse_primary()
            for _ in range(minuses):
                factor = Neg(factor)
            node = factor if node is None else Mul(node, factor if op == "*" else Inv(factor))
            op = tokens[self.pos]
            if op != "*" and op != "/":
                return node
            self.pos += 1

    def parse_primary(self) -> Expr:
        """A number, a name, or a bracketed or abs(...) expression.

        A param is its Var. A def is its body, the same object at every
        reference. A literal is one Const for each of its texts. Each is one
        lookup in `values`, where a name (from a letter or "_") never meets
        a literal (from a digit).
        """
        text = self.tokens[self.pos]
        node = self.values.get(text)
        if node is not None:
            self.pos += 1
            return node
        if text[:1].isdecimal():  # the digits the token pattern's \d matches
            try:
                node = self.values[text] = Const(parse_rational(text))
            except DigitLimitError as exc:
                raise self.error(str(exc)) from None
            self.pos += 1
            return node
        if text == "abs":
            self.pos += 1
            self.open_bracket()
            inner = self.parse_expr()
            self.close_bracket()
            return Abs(inner)
        if text == "(":
            self.open_bracket()
            inner = self.parse_expr()
            self.close_bracket()
            return inner
        if text in KEYWORDS:
            raise self.error(f"keyword {quoted(text)} cannot appear in an expression")
        if _is_name(text):
            raise self.error(f"reference to undeclared identifier {quoted(text)}")
        raise self.error(f"expected an expression, found {self.found()}")


def parse(text: str) -> BudgetProgram:
    """Parse a program; raises DslError with line:col on any problem."""
    return _Parser(text).parse_program()


def elaborate(program: BudgetProgram, name: str) -> Tuplix:
    """The core term of a named budget, as the parser built it."""
    try:
        return program.budgets[name]
    except KeyError:
        raise ValueError(f"no budget named {quoted(name)}") from None
