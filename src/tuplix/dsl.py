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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Union

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
class Span:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# --- surface syntax trees ---------------------------------------------------


@dataclass(frozen=True)
class CondLeq:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class CondEq:
    left: Expr
    right: Expr


@dataclass(frozen=True)
class CondAnd:
    left: "Cond"
    right: "Cond"


@dataclass(frozen=True)
class CondExpr:
    expr: Expr


Cond = Union[CondLeq, CondEq, CondAnd, CondExpr]


@dataclass(frozen=True)
class SynEps:
    span: Span = field(compare=False)


@dataclass(frozen=True)
class SynDelta:
    span: Span = field(compare=False)


@dataclass(frozen=True)
class SynEntry:
    channel: str
    amount: Expr
    span: Span = field(compare=False)


@dataclass(frozen=True)
class SynTest:
    cond: Cond
    span: Span = field(compare=False)


@dataclass(frozen=True)
class SynComp:
    left: "TuplixSyntax"
    right: "TuplixSyntax"
    span: Span = field(compare=False)


@dataclass(frozen=True)
class SynEncap:
    channels: tuple[str, ...]
    body: "TuplixSyntax"
    span: Span = field(compare=False)


@dataclass(frozen=True)
class SynRef:
    name: str
    span: Span = field(compare=False)


TuplixSyntax = Union[SynEps, SynDelta, SynEntry, SynTest, SynComp, SynEncap, SynRef]


@dataclass(frozen=True)
class ParamDecl:
    name: str
    doc: str | None
    span: Span = field(compare=False)


@dataclass(frozen=True)
class DefDecl:
    name: str
    body: Expr
    span: Span = field(compare=False)


@dataclass(frozen=True)
class BudgetDecl:
    name: str
    body: TuplixSyntax
    span: Span = field(compare=False)


@dataclass(frozen=True)
class BudgetProgram:
    """A parsed program; identifiers are unique and declared before use."""

    params: tuple[ParamDecl, ...]
    defs: tuple[DefDecl, ...]
    budgets: tuple[BudgetDecl, ...]

    def param_names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def budget_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.budgets)


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


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.declared: dict[str, str] = {}  # name -> "param" | "def" | "budget"
        self.params: list[ParamDecl] = []
        self.defs: list[DefDecl] = []
        self.budgets: list[BudgetDecl] = []

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
                self.parse_param(tok)
            elif tok.text == "def":
                self.parse_def(tok)
            else:
                self.parse_budget(tok)
        return BudgetProgram(tuple(self.params), tuple(self.defs), tuple(self.budgets))

    def parse_param(self, kw: _Token) -> None:
        name = self.expect_name("a parameter name")
        doc = None
        if self.peek().kind == "string":
            doc = self.advance().text[1:-1]
        self.declare(name, "param")
        self.params.append(ParamDecl(name.text, doc, Span(kw.line, kw.col)))

    def parse_def(self, kw: _Token) -> None:
        name = self.expect_name("a definition name")
        self.expect_op("=")
        body = self.parse_expr()
        self.declare(name, "def")
        self.defs.append(DefDecl(name.text, body, Span(kw.line, kw.col)))

    def parse_budget(self, kw: _Token) -> None:
        name = self.expect_name("a budget name")
        self.expect_op("=")
        body = self.parse_tuplix()
        self.declare(name, "budget")
        self.budgets.append(BudgetDecl(name.text, body, Span(kw.line, kw.col)))

    # budget terms

    def parse_tuplix(self) -> TuplixSyntax:
        node = self.parse_tuplix_primary()
        while self.at_op("|"):
            op = self.advance()
            right = self.parse_tuplix_primary()
            node = SynComp(node, right, Span(op.line, op.col))
        return node

    def parse_tuplix_primary(self) -> TuplixSyntax:
        tok = self.peek()
        if self.at_op("("):
            self.advance()
            inner = self.parse_tuplix()
            self.expect_op(")")
            return inner
        if tok.kind != "ident":
            shown = tok.text or "end of input"
            raise self.error(f"expected a budget term, found {shown!r}")
        span = Span(tok.line, tok.col)
        if tok.text == "eps":
            self.advance()
            return SynEps(span)
        if tok.text == "delta":
            self.advance()
            return SynDelta(span)
        if tok.text == "test":
            self.advance()
            self.expect_op("(")
            cond = self.parse_cond()
            self.expect_op(")")
            return SynTest(cond, span)
        if tok.text == "enc":
            self.advance()
            self.expect_op("{")
            channels = [self.expect_name("a channel name").text]
            while self.at_op(","):
                self.advance()
                channels.append(self.expect_name("a channel name").text)
            self.expect_op("}")
            self.expect_op("(")
            body = self.parse_tuplix()
            self.expect_op(")")
            return SynEncap(tuple(channels), body, span)
        if tok.text in KEYWORDS:
            raise self.error(f"keyword {tok.text!r} cannot start a budget term")
        self.advance()
        if self.at_op("("):
            self.advance()
            amount = self.parse_expr()
            self.expect_op(")")
            return SynEntry(tok.text, amount, span)
        if self.declared.get(tok.text) != "budget":
            raise self.error(f"reference to undeclared budget {tok.text!r}", tok)
        return SynRef(tok.text, span)

    # conditions

    def parse_cond(self) -> Cond:
        node: Cond = self.parse_relation()
        while self.at_op("&&"):
            self.advance()
            node = CondAnd(node, self.parse_relation())
        return node

    def parse_relation(self) -> Cond:
        left = self.parse_expr()
        tok = self.peek()
        if tok.kind == "op" and tok.text in _COMPARISONS_UNSUPPORTED:
            raise self.error(
                f"comparison {tok.text!r} is not supported; only <= and == exist"
            )
        if self.at_op("<="):
            self.advance()
            return CondLeq(left, self.parse_expr())
        if self.at_op("=="):
            self.advance()
            return CondEq(left, self.parse_expr())
        return CondExpr(left)

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
        node = self.parse_factor()
        while True:
            if self.at_op("*"):
                self.advance()
                node = Mul(node, self.parse_factor())
            elif self.at_op("/"):
                self.advance()
                node = Mul(node, Inv(self.parse_factor()))
            else:
                return node

    def parse_factor(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind in ("int", "decimal"):
            self.advance()
            return Const(parse_rational(tok.text))
        if self.at_op("("):
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if tok.kind == "ident":
            if tok.text == "abs":
                self.advance()
                self.expect_op("(")
                inner = self.parse_expr()
                self.expect_op(")")
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


# --- elaboration ---------------------------------------------------------------


def _cond_atoms(cond: Cond) -> list[Cond]:
    if isinstance(cond, CondAnd):
        return _cond_atoms(cond.left) + _cond_atoms(cond.right)
    return [cond]


def _encode_atom(cond: Cond, inline) -> Expr:
    if isinstance(cond, CondLeq):
        return leq_expr(inline(cond.left), inline(cond.right))
    if isinstance(cond, CondEq):
        return sub(inline(cond.left), inline(cond.right))
    assert isinstance(cond, CondExpr)
    return inline(cond.expr)


def encode_cond(cond: Cond, inline) -> Expr:
    """Turn a condition into a single zero-iff-holds expression."""
    atoms = [_encode_atom(a, inline) for a in _cond_atoms(cond)]
    if len(atoms) == 1:
        return atoms[0]
    return conjunction_expr(atoms)


def elaborate(program: BudgetProgram, name: str) -> Tuplix:
    """Expand a named budget into a core term.

    Definitions are inlined by substitution, so the result's free
    variables are exactly the params it depends on; budget references
    splice in the referenced (already elaborated) term. Tests keep their
    source text and position for later violation reports.
    """
    inlined: dict[str, Expr] = {}
    for d in program.defs:
        inlined[d.name] = substitute_all(d.body, inlined)

    def inline(e: Expr) -> Expr:
        return substitute_all(e, inlined)

    def elab(syn: TuplixSyntax) -> Tuplix:
        match syn:
            case SynEps():
                return EPS
            case SynDelta(span):
                return Delta(span=str(span))
            case SynEntry(channel, amount):
                return Entry(channel, inline(amount))
            case SynTest(cond, span):
                return Test(encode_cond(cond, inline), label=pretty_cond(cond), span=str(span))
            case SynComp():
                # the parser leans `|` chains left; a loop down that spine keeps
                # long chains off the call stack
                rights = []
                while isinstance(syn, SynComp):
                    rights.append(syn.right)
                    syn = syn.left
                term = elab(syn)
                for right in reversed(rights):
                    term = Comp(term, elab(right))
                return term
            case SynEncap(channels, body, span):
                return Encap(frozenset(channels), elab(body), span=str(span))
            case SynRef(ref_name):
                return terms[ref_name]
        raise TypeError(f"not budget syntax: {syn!r}")

    terms: dict[str, Tuplix] = {}
    for b in program.budgets:
        terms[b.name] = elab(b.body)
        if b.name == name:
            return terms[b.name]
    raise ValueError(f"no budget named {name!r}")


def list_params(program: BudgetProgram) -> list[tuple[str, str | None]]:
    """Parameter names with their documentation, in declaration order."""
    return [(p.name, p.doc) for p in program.params]


# --- pretty-printing -----------------------------------------------------------


def pretty_cond(cond: Cond) -> str:
    if isinstance(cond, CondLeq):
        return f"{pretty(cond.left)} <= {pretty(cond.right)}"
    if isinstance(cond, CondEq):
        return f"{pretty(cond.left)} == {pretty(cond.right)}"
    if isinstance(cond, CondAnd):
        return f"{pretty_cond(cond.left)} && {pretty_cond(cond.right)}"
    return pretty(cond.expr)


def pretty_tuplix(syn: TuplixSyntax) -> str:
    def render(node: TuplixSyntax, nested: bool) -> str:
        match node:
            case SynEps():
                return "eps"
            case SynDelta():
                return "delta"
            case SynEntry(channel, amount):
                return f"{channel}({pretty(amount)})"
            case SynTest(cond):
                return f"test({pretty_cond(cond)})"
            case SynComp(left, right):
                text = f"{render(left, False)} | {render(right, True)}"
                return f"({text})" if nested else text
            case SynEncap(channels, body):
                return f"enc{{{', '.join(channels)}}}({render(body, False)})"
            case SynRef(name):
                return name
        raise TypeError(f"not budget syntax: {node!r}")

    return render(syn, False)


def pretty_program(program: BudgetProgram) -> str:
    """Render a program; reparsing yields a structurally equal program."""
    lines: list[str] = []
    for p in program.params:
        if p.doc is not None:
            lines.append(f'param {p.name} "{p.doc}"')
        else:
            lines.append(f"param {p.name}")
    if program.params and program.defs:
        lines.append("")
    for d in program.defs:
        lines.append(f"def {d.name} = {pretty(d.body)}")
    if program.budgets and (program.params or program.defs):
        lines.append("")
    for b in program.budgets:
        lines.append(f"budget {b.name} = {pretty_tuplix(b.body)}")
    return "\n".join(lines) + "\n"
