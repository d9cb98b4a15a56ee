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
every relation holds, a budget reference returns the term already
built, and each test, delta and enc{} keeps its source position
"line:col" for violation reports. A test also keeps its source text,
printed from its argument with each def's body written as the def's
name. A token carries only its offset into the text; its line and
column are worked out, over an index of the text's newlines built on
first use, only for those positions and for errors.
"""

from __future__ import annotations

import copy
import re
from bisect import bisect_left
from dataclasses import dataclass

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


@dataclass(frozen=True)
class BudgetProgram:
    """A parsed program, in declaration order.

    `params` maps each parameter to its documentation string, or None;
    `budgets` maps each budget to its core term. Defs are already inlined
    in those terms, so a term's free variables are exactly the params it
    depends on.
    """

    params: dict[str, str | None]
    budgets: dict[str, Tuplix]


# --- lexer -------------------------------------------------------------------


# A token is a plain tuple (kind, text, offset): kind is one of ident, int,
# decimal, string, op and eof, and offset is where its text starts in the
# program. Whitespace and comments make no tokens, and a token's line:col
# is worked out from its offset only where one is reported (`_Parser.place`).
_Token = tuple[str, str, int]

# One match skips the whitespace before a comment or token, then matches
# it; the number of the group that matched gives its kind (`_KINDS`). The
# last two groups match the end of the text and any other character, so a
# match is found at every place past the last one, and none backtracks
# into the whitespace or scans ahead for a later match.
_TOKEN_RE = re.compile(
    r"""[ \t\r\n]*
      (?: (\#[^\n]*)
        | (IDENT)
        | (\d+\.\d+)
        | (\d+)
        | ("[^"\n]*")
        | (<=|==|&&|>=|!=|[(){},|=+\-*/<>&])
        | (\Z)
        | (.)
      )""".replace("IDENT", IDENT_PATTERN),
    re.VERBOSE,
)
_KINDS = (None, "comment", "ident", "decimal", "int", "string", "op", "eof", "error")
_COMMENT, _EOF = _KINDS.index("comment"), _KINDS.index("eof")


# --- parser ------------------------------------------------------------------

_COMPARISONS_UNSUPPORTED = {"<", ">", ">=", "!="}

# Brackets of any kind ("(", "abs(", "enc{...}(", "test(", an entry's "(")
# may nest this deep and no deeper. Each costs the parser at most three
# Python frames (a test's bracket five, but only once on any path), so it
# refuses deeper input with a DslError well before the interpreter's
# default limit of 1,000 frames.
MAX_NESTING = 256


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.newlines: list[int] | None = None  # offsets of the text's newlines, listed on first use
        self.tokens = self.tokenize()
        self.pos = 0
        self.depth = 0  # brackets open at the current token
        self.declared: dict[str, str] = {}  # name -> "param" | "def" | "budget"
        self.params: dict[str, str | None] = {}
        self.values: dict[str, Expr] = {}  # param -> its Var, def -> its body, the node at every reference
        self.defs: dict[int, str] = {}  # id(body) -> its def's name, for the labels of tests
        self.constants: dict[str, Const] = {}  # literal text -> its Const
        self.budgets: dict[str, Tuplix] = {}

    def tokenize(self) -> list[_Token]:
        """The tokens of the text, in one pass of the token pattern, ending with an eof token."""
        text = self.text
        tokens: list[_Token] = []
        append = tokens.append
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastindex
            if kind != _COMMENT:
                append((_KINDS[kind], m.group(kind), m.start(kind)))
                if kind >= _EOF:
                    break
        kind, char, pos = tokens[-1]
        if kind == "error":
            if char == '"':
                raise DslError("unterminated string", *self.place(pos))
            raise DslError(f"unexpected character {quoted(char)}", *self.place(pos))
        return tokens

    # positions

    def place(self, offset: int) -> tuple[int, int]:
        """The line and column, both from 1, of an offset into the text."""
        if self.newlines is None:
            self.newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self.newlines, offset)  # the newlines before the offset
        return line + 1, offset - (self.newlines[line - 1] if line else -1)

    def span(self, tok: _Token) -> str:
        line, col = self.place(tok[2])
        return f"{line}:{col}"

    # token helpers

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> DslError:
        return DslError(message, *self.place((tok or self.peek())[2]))

    def expect_op(self, text: str) -> _Token:
        if not self.at_op(text):
            shown = self.peek()[1] or "end of input"
            raise self.error(f"expected {quoted(text)}, found {quoted(shown)}")
        return self.advance()

    def open_bracket(self) -> None:
        tok = self.expect_op("(")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"brackets nested more than {MAX_NESTING} deep", tok)

    def close_bracket(self) -> None:
        self.expect_op(")")
        self.depth -= 1

    def at_op(self, text: str) -> bool:
        # no token of another kind has an operator's text
        return self.tokens[self.pos][1] == text

    def expect_name(self, what: str) -> _Token:
        kind, text, _ = self.peek()
        if kind != "ident":
            shown = text or "end of input"
            raise self.error(f"expected {what}, found {quoted(shown)}")
        if text in KEYWORDS:
            raise self.error(f"keyword {quoted(text)} cannot be used as {what}")
        return self.advance()

    def declare(self, tok: _Token, kind: str) -> None:
        name = tok[1]
        seen = self.declared.get(name)
        if seen is not None:
            raise self.error(f"duplicate identifier {quoted(name)} (already a {seen})", tok)
        self.declared[name] = kind

    # statements

    def parse_program(self) -> BudgetProgram:
        while True:
            kind, text, _ = self.peek()
            if kind == "eof":
                break
            if kind != "ident" or text not in ("param", "def", "budget"):
                raise self.error(f"expected a param, def or budget declaration, found {quoted(text)}")
            self.advance()
            if text == "param":
                self.parse_param()
            elif text == "def":
                self.parse_def()
            else:
                self.parse_budget()
        return BudgetProgram(self.params, self.budgets)

    def parse_param(self) -> None:
        name = self.expect_name("a parameter name")
        doc = None
        if self.peek()[0] == "string":
            doc = self.advance()[1][1:-1]
        self.declare(name, "param")
        self.params[name[1]] = doc
        self.values[name[1]] = Var(name[1])

    def parse_def(self) -> None:
        name = self.expect_name("a definition name")
        self.expect_op("=")
        body = self.parse_expr()
        if type(body) is Var or type(body) is Const or id(body) in self.defs:
            # a param's Var, an interned literal or an earlier def's body: a
            # copy of its own prints as this def only where this def is named
            body = copy.copy(body)
        self.declare(name, "def")
        self.values[name[1]] = body
        self.defs[id(body)] = name[1]

    def parse_budget(self) -> None:
        name = self.expect_name("a budget name")
        self.expect_op("=")
        body = self.parse_tuplix()
        self.declare(name, "budget")
        self.budgets[name[1]] = body

    # budget terms

    def parse_tuplix(self) -> Tuplix:
        term = self.parse_tuplix_primary()
        while self.at_op("|"):
            self.advance()
            term = Comp(term, self.parse_tuplix_primary())
        return term

    def parse_tuplix_primary(self) -> Tuplix:
        tok = self.peek()
        kind, text, _ = tok
        if text == "(":
            self.open_bracket()
            inner = self.parse_tuplix()
            self.close_bracket()
            return inner
        if kind != "ident":
            shown = text or "end of input"
            raise self.error(f"expected a budget term, found {quoted(shown)}")
        if text == "eps":
            self.advance()
            return EPS
        if text == "delta":
            self.advance()
            return Delta(span=self.span(tok))
        if text == "test":
            self.advance()
            self.open_bracket()
            arg, label = self.parse_cond()
            self.close_bracket()
            return Test(arg, label=label, span=self.span(tok))
        if text == "enc":
            self.advance()
            self.expect_op("{")
            channels = [self.expect_name("a channel name")[1]]
            while self.at_op(","):
                self.advance()
                channels.append(self.expect_name("a channel name")[1])
            self.expect_op("}")
            self.open_bracket()
            body = self.parse_tuplix()
            self.close_bracket()
            return Encap(frozenset(channels), body, span=self.span(tok))
        if text in KEYWORDS:
            raise self.error(f"keyword {quoted(text)} cannot start a budget term")
        self.advance()
        if self.at_op("("):
            self.open_bracket()
            amount = self.parse_expr()
            self.close_bracket()
            return Entry(text, amount)
        term = self.budgets.get(text)
        if term is None:
            raise self.error(f"reference to undeclared budget {quoted(text)}", tok)
        return term

    # conditions

    def parse_cond(self) -> tuple[Expr, str]:
        """A test's argument, zero iff every relation holds, and its label.

        The label is the source text of the relations, printed from the
        relations as parsed, each def's body by the def's name.
        """
        args, texts = [], []
        while True:
            arg, text = self.parse_relation()
            args.append(arg)
            texts.append(text)
            if not self.at_op("&&"):
                break
            self.advance()
        arg = args[0] if len(args) == 1 else conjunction_expr(args)
        return arg, " && ".join(texts)

    def parse_relation(self) -> tuple[Expr, str]:
        """A relation's argument, with defs inlined, and its source text, with defs named."""
        left = self.parse_expr()
        kind, op, _ = self.peek()
        if kind == "op" and op in _COMPARISONS_UNSUPPORTED:
            raise self.error(
                f"comparison {quoted(op)} is not supported; only <= and == exist"
            )
        if op != "<=" and op != "==":
            return left, pretty(left, self.defs)
        self.advance()
        right = self.parse_expr()
        text = f"{pretty(left, self.defs)} {op} {pretty(right, self.defs)}"
        return (leq_expr(left, right) if op == "<=" else sub(left, right)), text

    # expressions

    def parse_expr(self) -> Expr:
        tokens = self.tokens
        node = self.parse_term()
        while True:
            op = tokens[self.pos][1]
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
            while tokens[self.pos][1] == "-":
                self.pos += 1
                minuses += 1
            factor = self.parse_primary()
            for _ in range(minuses):
                factor = Neg(factor)
            node = factor if node is None else Mul(node, factor if op == "*" else Inv(factor))
            op = tokens[self.pos][1]
            if op != "*" and op != "/":
                return node
            self.pos += 1

    def parse_primary(self) -> Expr:
        """A number, a name, or a bracketed or abs(...) expression.

        A param is its Var. A def is its body, the same object at every
        reference.
        """
        tok = self.tokens[self.pos]
        kind, text, _ = tok
        if kind == "ident":
            node = self.values.get(text)
            if node is not None:
                self.pos += 1
                return node
            if text == "abs":
                self.pos += 1
                self.open_bracket()
                inner = self.parse_expr()
                self.close_bracket()
                return Abs(inner)
            if text in KEYWORDS:
                raise self.error(f"keyword {quoted(text)} cannot appear in an expression")
            raise self.error(f"reference to undeclared identifier {quoted(text)}", tok)
        if kind == "int" or kind == "decimal":
            node = self.constants.get(text)
            if node is None:
                try:
                    node = self.constants[text] = Const(parse_rational(text))
                except DigitLimitError as exc:
                    raise self.error(str(exc), tok) from None
            self.pos += 1
            return node
        if text == "(":
            self.open_bracket()
            inner = self.parse_expr()
            self.close_bracket()
            return inner
        shown = text or "end of input"
        raise self.error(f"expected an expression, found {quoted(shown)}")


def parse(text: str) -> BudgetProgram:
    """Parse a program; raises DslError with line:col on any problem."""
    return _Parser(text).parse_program()


def elaborate(program: BudgetProgram, name: str) -> Tuplix:
    """The core term of a named budget, as the parser built it."""
    try:
        return program.budgets[name]
    except KeyError:
        raise ValueError(f"no budget named {quoted(name)}") from None
