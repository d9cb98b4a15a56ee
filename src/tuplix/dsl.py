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

The parser builds core terms (`algebra.Tuplix`) directly, in one pass:
defs are inlined where they are used, a condition becomes one test
argument that is zero iff every relation holds, a budget reference
returns the term already built, and each test, delta and enc{} keeps
its source position "line:col" (a test also its source text, with defs
named) for violation reports.
"""

from __future__ import annotations

import re
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
    substitute_all,
)
from .meadow import parse_rational

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


@dataclass(frozen=True)
class _Token:
    kind: str  # ident, int, decimal, string, op, eof
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<newline>\n)
      | (?P<ident>IDENT)
      | (?P<decimal>\d+\.\d+)
      | (?P<int>\d+)
      | (?P<string>"[^"\n]*")
      | (?P<op><=|==|&&|>=|!=|[(){},|=+\-*/<>&])
    """.replace("IDENT", IDENT_PATTERN),
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            snippet = text[pos]
            if snippet == '"':
                raise DslError("unterminated string", line, col)
            raise DslError(f"unexpected character {snippet!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "newline":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                tokens.append(_Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


# --- parser ------------------------------------------------------------------

_COMPARISONS_UNSUPPORTED = {"<", ">", ">=", "!="}

# Brackets of any kind ("(", "abs(", "enc{...}(", "test(", an entry's "(")
# may nest this deep and no deeper. Each costs the parser at most three
# Python frames (a test's bracket five, but only once on any path), so it
# refuses deeper input with a DslError well before the interpreter's
# default limit of 1,000 frames.
MAX_NESTING = 256


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # brackets open at the current token
        self.declared: dict[str, str] = {}  # name -> "param" | "def" | "budget"
        self.params: dict[str, str | None] = {}
        self.inlined: dict[str, Expr] = {}  # def name -> body over params only
        self.budgets: dict[str, Tuplix] = {}

    # token helpers

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: _Token | None = None) -> DslError:
        tok = tok or self.peek()
        return DslError(message, tok.line, tok.col)

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            shown = tok.text or "end of input"
            raise self.error(f"expected {text!r}, found {shown!r}")
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
        tok = self.peek()
        return tok.kind == "op" and tok.text == text

    def expect_name(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "ident":
            shown = tok.text or "end of input"
            raise self.error(f"expected {what}, found {shown!r}")
        if tok.text in KEYWORDS:
            raise self.error(f"keyword {tok.text!r} cannot be used as {what}")
        return self.advance()

    def declare(self, tok: _Token, kind: str) -> None:
        seen = self.declared.get(tok.text)
        if seen is not None:
            raise self.error(f"duplicate identifier {tok.text!r} (already a {seen})", tok)
        self.declared[tok.text] = kind

    # statements

    def parse_program(self) -> BudgetProgram:
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind != "ident" or tok.text not in ("param", "def", "budget"):
                shown = tok.text or "end of input"
                raise self.error(f"expected a param, def or budget declaration, found {shown!r}")
            self.advance()
            if tok.text == "param":
                self.parse_param()
            elif tok.text == "def":
                self.parse_def()
            else:
                self.parse_budget()
        return BudgetProgram(self.params, self.budgets)

    def parse_param(self) -> None:
        name = self.expect_name("a parameter name")
        doc = None
        if self.peek().kind == "string":
            doc = self.advance().text[1:-1]
        self.declare(name, "param")
        self.params[name.text] = doc

    def parse_def(self) -> None:
        name = self.expect_name("a definition name")
        self.expect_op("=")
        body = self.parse_expr()
        self.declare(name, "def")
        self.inlined[name.text] = self.inline(body)

    def parse_budget(self) -> None:
        name = self.expect_name("a budget name")
        self.expect_op("=")
        body = self.parse_tuplix()
        self.declare(name, "budget")
        self.budgets[name.text] = body

    def inline(self, e: Expr) -> Expr:
        """Replace the defs declared so far by their bodies."""
        return substitute_all(e, self.inlined)

    # budget terms

    def parse_tuplix(self) -> Tuplix:
        term = self.parse_tuplix_primary()
        while self.at_op("|"):
            self.advance()
            term = Comp(term, self.parse_tuplix_primary())
        return term

    def parse_tuplix_primary(self) -> Tuplix:
        tok = self.peek()
        if self.at_op("("):
            self.open_bracket()
            inner = self.parse_tuplix()
            self.close_bracket()
            return inner
        if tok.kind != "ident":
            shown = tok.text or "end of input"
            raise self.error(f"expected a budget term, found {shown!r}")
        span = f"{tok.line}:{tok.col}"
        if tok.text == "eps":
            self.advance()
            return EPS
        if tok.text == "delta":
            self.advance()
            return Delta(span=span)
        if tok.text == "test":
            self.advance()
            self.open_bracket()
            arg, label = self.parse_cond()
            self.close_bracket()
            return Test(arg, label=label, span=span)
        if tok.text == "enc":
            self.advance()
            self.expect_op("{")
            channels = [self.expect_name("a channel name").text]
            while self.at_op(","):
                self.advance()
                channels.append(self.expect_name("a channel name").text)
            self.expect_op("}")
            self.open_bracket()
            body = self.parse_tuplix()
            self.close_bracket()
            return Encap(frozenset(channels), body, span=span)
        if tok.text in KEYWORDS:
            raise self.error(f"keyword {tok.text!r} cannot start a budget term")
        self.advance()
        if self.at_op("("):
            self.open_bracket()
            amount = self.parse_expr()
            self.close_bracket()
            return Entry(tok.text, self.inline(amount))
        if self.declared.get(tok.text) != "budget":
            raise self.error(f"reference to undeclared budget {tok.text!r}", tok)
        return self.budgets[tok.text]

    # conditions

    def parse_cond(self) -> tuple[Expr, str]:
        """A test's argument, zero iff every relation holds, and its label.

        The label is the source text of the relations, with defs named
        rather than inlined.
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
        left = self.parse_expr()
        tok = self.peek()
        if tok.kind == "op" and tok.text in _COMPARISONS_UNSUPPORTED:
            raise self.error(
                f"comparison {tok.text!r} is not supported; only <= and == exist"
            )
        if not (self.at_op("<=") or self.at_op("==")):
            return self.inline(left), pretty(left)
        self.advance()
        right = self.parse_expr()
        text = f"{pretty(left)} {tok.text} {pretty(right)}"
        if tok.text == "<=":
            return leq_expr(self.inline(left), self.inline(right)), text
        return sub(self.inline(left), self.inline(right)), text

    # expressions

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            if self.at_op("+"):
                self.advance()
                node = Add(node, self.parse_term())
            elif self.at_op("-"):
                self.advance()
                node = sub(node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Expr:
        """Factors joined by * and /, each a primary under any number of unary minuses."""
        node, op = None, "*"
        while True:
            minuses = 0
            while self.at_op("-"):
                self.advance()
                minuses += 1
            factor = self.parse_primary()
            for _ in range(minuses):
                factor = Neg(factor)
            node = factor if node is None else Mul(node, factor if op == "*" else Inv(factor))
            if not (self.at_op("*") or self.at_op("/")):
                return node
            op = self.advance().text

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("int", "decimal"):
            self.advance()
            return Const(parse_rational(tok.text))
        if self.at_op("("):
            self.open_bracket()
            inner = self.parse_expr()
            self.close_bracket()
            return inner
        if tok.kind == "ident":
            if tok.text == "abs":
                self.advance()
                self.open_bracket()
                inner = self.parse_expr()
                self.close_bracket()
                return Abs(inner)
            if tok.text in KEYWORDS:
                raise self.error(f"keyword {tok.text!r} cannot appear in an expression")
            if self.declared.get(tok.text) not in ("param", "def"):
                raise self.error(f"reference to undeclared identifier {tok.text!r}", tok)
            self.advance()
            return Var(tok.text)
        shown = tok.text or "end of input"
        raise self.error(f"expected an expression, found {shown!r}")


def parse(text: str) -> BudgetProgram:
    """Parse a program; raises DslError with line:col on any problem."""
    return _Parser(_tokenize(text)).parse_program()


def elaborate(program: BudgetProgram, name: str) -> Tuplix:
    """The core term of a named budget, as the parser built it."""
    try:
        return program.budgets[name]
    except KeyError:
        raise ValueError(f"no budget named {name!r}") from None
