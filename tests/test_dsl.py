import gc
import random
import re
import sys
import time
from fractions import Fraction

import pytest

from tuplix import bundled, dsl
from tuplix.algebra import (
    CanonicalTuplix,
    Delta,
    Encap,
    Entry,
    Test,
    denote_ground,
    ground_of,
    normalize,
)
from tuplix.dsl import MAX_NESTING, DslError, _is_name, _Parser, _Source, elaborate, parse
from tuplix.expr import IDENT_PATTERN, Add, Const, Var, evaluate, free_vars, postorder
from tuplix.meadow import quoted

EMPTY = CanonicalTuplix(False, (), (), ())


def test_parse_minimal_program():
    prog = parse("budget B = a(3)\n")
    assert list(prog.budgets) == ["B"]
    term = elaborate(prog, "B")
    assert term == Entry("a", Const(Fraction(3)))


def test_params_defs_and_refs():
    prog = parse(
        """
        param price "per unit"
        param count
        def cost = price * count
        budget Buy = pay(cost) | test(cost <= 100)
        budget Wrap = enc{pay}(Buy | pay(-cost))
        """
    )
    assert prog.params == {"price": "per unit", "count": None}
    assert list(prog.params) == ["price", "count"]
    wrap = elaborate(prog, "Wrap")
    assert isinstance(wrap, Encap)
    assert wrap.channels == frozenset({"pay"})
    v = {"price": Fraction(5, 2), "count": Fraction(4)}
    assert ground_of(normalize(wrap, v)) == {}
    assert denote_ground(elaborate(prog, "Buy"), v) == {"pay": Fraction(10)}


def test_defs_inline_in_order():
    prog = parse(
        """
        param x
        def a = x + 1
        def b = a * a
        budget B = out(b)
        """
    )
    term = elaborate(prog, "B")
    assert free_vars(term) == {"x"}
    assert evaluate(term.amount, {"x": Fraction(2)}) == Fraction(9)


def test_division_is_totalized_in_programs():
    prog = parse("def x = 1/0\nbudget B = a(x)\n")
    c = normalize(elaborate(prog, "B"))
    assert ground_of(c) == {"a": Fraction(0)}


def test_entry_amount_defaults_missing():
    # eps and delta are terms of their own
    prog = parse("budget B = eps | delta\n")
    assert normalize(elaborate(prog, "B")).is_null


def test_test_label_and_span_travel_to_violations():
    prog = parse("param p\nbudget B = test(p <= 1)\n")
    c = normalize(elaborate(prog, "B"), {"p": Fraction(3)})
    assert c.is_null
    v = c.violations[0]
    assert v.label == "p <= 1"
    assert v.span == "2:12"
    assert v.value == Fraction(4)  # |q-p| - (q-p): twice the overshoot


def test_conjunction_in_guard():
    prog = parse("param p\nparam q\nbudget B = test(p <= q && q <= 2 * p)\n")
    ok = normalize(elaborate(prog, "B"), {"p": Fraction(1), "q": Fraction(2)})
    assert ok == EMPTY
    bad = normalize(elaborate(prog, "B"), {"p": Fraction(1), "q": Fraction(3)})
    assert bad.is_null
    assert bad.violations[0].label == "p <= q && q <= 2 * p"


def test_bare_expression_condition():
    prog = parse("param p\nbudget B = test(p - 1)\n")
    assert normalize(elaborate(prog, "B"), {"p": Fraction(1)}) == EMPTY
    assert normalize(elaborate(prog, "B"), {"p": Fraction(2)}).is_null


def test_decimal_and_fraction_literals():
    prog = parse("budget B = a(0.25 + 1/4)\n")
    assert ground_of(normalize(elaborate(prog, "B"))) == {"a": Fraction(1, 2)}


def test_unicode_decimal_digits_are_digits_only_as_the_token_pattern_reads_them():
    # the pattern's \d matches every Unicode decimal digit, and \w takes one into a name
    prog = parse("budget B = a(\u0663 + 1)\n")  # ARABIC-INDIC DIGIT THREE
    assert ground_of(normalize(elaborate(prog, "B"))) == {"a": Fraction(4)}
    assert str(err("budget B = b(x\u0663)\n")) == "1:14: reference to undeclared identifier 'x\u0663'"
    assert str(err("budget B = a(\u00b2)\n")) == "1:14: unexpected character '\u00b2'"  # SUPERSCRIPT TWO


def test_colon_identifiers():
    prog = parse('param A:C1:sslt "hours"\nbudget B = a(A:C1:sslt)\n')
    assert list(prog.params) == ["A:C1:sslt"]
    c = normalize(elaborate(prog, "B"), {"A:C1:sslt": Fraction(40)})
    assert ground_of(c) == {"a": Fraction(40)}


def test_operator_precedence_and_unary_minus():
    prog = parse("param x\nbudget B = a(-x * 2 + 3 * (x - 1) / 2)\n")
    amount = elaborate(prog, "B").amount
    assert evaluate(amount, {"x": Fraction(5)}) == Fraction(-4)


def test_unary_minus_runs_any_length():
    prog = parse("param x\nbudget B = a(" + "-" * 5001 + "x * 2)\n")
    c = normalize(elaborate(prog, "B"), {"x": Fraction(3)})
    assert ground_of(c) == {"a": Fraction(-6)}


def test_abs_in_programs():
    prog = parse("param x\nbudget B = a(abs(x - 2))\n")
    amount = elaborate(prog, "B").amount
    assert evaluate(amount, {"x": Fraction(0)}) == Fraction(2)
    assert evaluate(amount, {"x": Fraction(5)}) == Fraction(3)


# --- errors -----------------------------------------------------------------


def err(text):
    with pytest.raises(DslError) as info:
        parse(text)
    return info.value


def test_duplicate_declaration():
    # every (earlier, later) pair of kinds, placed at the later declaration's name
    declarations = {"param": ("param x", 7), "def": ("def x = 1", 5), "budget": ("budget x = eps", 8)}
    for earlier, (first, _) in declarations.items():
        for second, col in declarations.values():
            e = err(f"{first}\n{second}\n")
            assert str(e) == f"2:{col}: duplicate identifier 'x' (already a {earlier})"


def test_undeclared_identifier():
    e = err("budget B = a(y)\n")
    assert "undeclared identifier 'y'" in str(e)
    assert (e.line, e.col) == (1, 14)


def test_self_reference_is_undeclared():
    # a budget name only becomes visible after its declaration is complete
    e = err("budget B = B\n")
    assert "undeclared budget 'B'" in str(e)


def test_forward_reference_rejected():
    e = err("budget A = B\nbudget B = eps\n")
    assert "undeclared budget 'B'" in str(e)


def test_only_leq_and_eq_comparisons():
    e = err("param p\nbudget B = test(p < 1)\n")
    assert "only <= and == exist" in str(e)
    e = err("param p\nbudget B = test(p >= 1)\n")
    assert "only <= and == exist" in str(e)
    e = err("param p\nbudget B = test(p != 1)\n")
    assert "only <= and == exist" in str(e)


def test_keywords_are_reserved():
    e = err("param test\n")
    assert "keyword" in str(e)
    e = err("budget B = a(delta)\n")
    assert "keyword" in str(e)


def test_unterminated_string():
    e = err('param x "no closing\nbudget B = a(x)\n')
    assert "unterminated string" in str(e)


def test_unexpected_character():
    e = err("budget B = a(3) % 2\n")
    assert "unexpected character" in str(e)


def test_enc_requires_channels():
    e = err("budget B = enc{}(eps)\n")
    assert isinstance(e, DslError)


def test_error_str_carries_position():
    e = err("param x\nparam x\n")
    assert str(e).startswith("2:")


# --- lexer ---------------------------------------------------------------------


@pytest.mark.parametrize("closing", [")", '"'])
def test_a_last_line_comment_without_newline_is_skipped(closing):
    prog = parse(f"budget B = a(1)\n# a({closing}")
    assert list(prog.budgets) == ["B"]


@pytest.mark.parametrize(
    "text, where",
    [
        ("param x\r\nbudget B = a(x)\r\n  $", "3:3: unexpected character '$'"),
        ("param x\n\tbudget B = a(x) @\n", "2:18: unexpected character '@'"),
        ('param x\nparam y "doc', "2:9: unterminated string"),
        ("# one\n# two\n  # three\nbudget B = ?\n", "4:12: unexpected character '?'"),
        # the text from a character that starts no token to the end is one rest, told from a last
        # token by not matching a whole token, even when it ends in a quote or is one character
        ('param x "doc\n"', "1:9: unterminated string"),
        ('budget B = a(1) "', "1:17: unterminated string"),
        ("budget B = a(1) $", "1:17: unexpected character '$'"),
        ('param x "doc"\nbudget B = a(1) |', "2:18: expected a budget term, found 'end of input'"),
        ("budget B = a(1", "1:15: expected ')', found 'end of input'"),
        ("budget B = )", "1:12: expected a budget term, found ')'"),
        ("budget B = abs", "1:12: keyword 'abs' cannot start a budget term"),
    ],
)
def test_lexical_errors_count_lines_and_columns_past_whitespace(text, where):
    assert str(err(text)) == where


def test_a_lexical_error_past_a_long_run_of_blanks_is_found_in_linear_time():
    # A token pattern that can fail after skipping the blanks backtracks
    # through them, and then a search for the next match starts again at
    # each blank: 20,000 blanks took about 17 s that way on a 2-vCPU x86
    # host, and take under 1 ms when every place matches something.
    # Nor may a comment give characters back: a token read from inside one
    # would be an error of its own, here the ")" of the first comment line.
    blanks = " " * 20_000
    comments = "# a(1) | b)\n" * 20_000
    for text, where in [
        (f"budget B = a(1){blanks}$", "1:20016: unexpected character '$'"),
        (f'param x "{blanks}', "1:9: unterminated string"),
        (f"budget B = a(1)\n{comments}$", "20002:1: unexpected character '$'"),
    ]:
        start = time.perf_counter()
        assert str(err(text)) == where
        assert time.perf_counter() - start < 1


# The tokenizer of the parser before its lexer was one `findall`: a match
# object and a (kind, text, offset) tuple for each token, stopping at the
# end or at the first character that starts no token. It is the reference
# for the lexer.
ORACLE_RE = re.compile(
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
ORACLE_KINDS = (None, "comment", "name", "number", "number", "string", "op", "end", "error")


def oracle_tokens(text):
    """The (kind, text, offset) of every token up to the end token, or the str of the lexical DslError."""
    tokens = []
    for m in ORACLE_RE.finditer(text):
        kind = ORACLE_KINDS[m.lastindex]
        if kind != "comment":
            tokens.append((kind, m.group(m.lastindex), m.start(m.lastindex)))
            if kind in ("end", "error"):
                break
    kind, char, offset = tokens[-1]
    if kind == "error":
        line, col = text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)
        message = "unterminated string" if char == '"' else f"unexpected character {quoted(char)}"
        return f"{line}:{col}: {message}"
    return tokens


def kind_of(token):
    """A token's kind, told by its first character as the parser tells it."""
    if not token:
        return "end"
    if _is_name(token):
        return "name"
    if token[0].isdecimal():
        return "number"
    return "string" if token[0] == '"' else "op"


def lexed(text, rng):
    """What the lexer makes of a text, in the oracle's terms.

    The offsets are asked for in order, then all again in a shuffled
    order, of the same text's places and of a fresh one's, which lists the
    place of every token on the first it is asked for.
    """
    try:
        parser = _Parser(text)
    except DslError as exc:
        return str(exc)
    tokens = parser.tokens[: parser.tokens.index("") + 1]
    offsets = [parser.source.offset(i) for i in range(len(tokens))]
    fresh = _Source(text)
    for i in rng.sample(range(len(tokens)), len(tokens)):
        assert parser.source.offset(i) == offsets[i] == fresh.offset(i)
    return [(kind_of(token), token, offset) for token, offset in zip(tokens, offsets)]


# Pieces that a mutation inserts: comments, blanks, line ends, and the
# characters that start no token or start one only before another.
PIECES = ["# c)\n", "#", "\t", "\r\n", "\n", " ", "$", '"', '"x"', "!", "!=", "<", "<=", "\u0663", "\u00b2", "1.5", "x"]


def mutated(text, rng):
    """A text with one to four pieces inserted, spans deleted or spans copied elsewhere."""
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(text) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            text = text[:at] + rng.choice(PIECES) + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + rng.randint(1, 20):]
        else:
            start = rng.randrange(len(text) + 1)
            text = text[:at] + text[start : start + rng.randint(1, 40)] + text[at:]
    return text


def lexer_inputs():
    """The case study, a program of each `scale` family and of each family of tests/test_cost.py."""
    from test_cost import FAMILIES

    yield bundled("msc.bgt").read_text(encoding="utf-8")
    yield "param x\nbudget F = " + "\n  | ".join(f"a(x + {c})" for c in (5, 0, 999)) + "\n"
    yield "param x\ndef D0 = x + 7\n" + "".join(f"def D{i} = D{i - 1} * D{i - 1}\n" for i in (1, 2, 3)) + "budget B = a(D3)\n"
    for family, (text, _) in FAMILIES.items():
        yield text(12)


def test_the_lexer_gives_the_tokens_offsets_and_errors_of_the_reference():
    rng = random.Random(25)
    bases = list(lexer_inputs())
    for text in bases:
        tokens = oracle_tokens(text)
        assert isinstance(tokens, list) and lexed(text, rng) == tokens
    lexed_whole, errors = 0, set()
    for _ in range(2_500):
        base = rng.choice(bases)
        start = rng.randrange(len(base))
        text = mutated(base[start : start + rng.randint(1, 400)], rng)
        expected = oracle_tokens(text)
        assert lexed(text, rng) == expected, text
        if isinstance(expected, str):
            errors.add(expected.split(": ", 1)[1])
        else:
            lexed_whole += 1
    # many mutations lex to the end, and others meet each kind of error
    assert lexed_whole > 1_000
    assert {"unterminated string", *(f"unexpected character {c!r}" for c in "$!\u00b2")} <= errors


def test_a_test_span_is_counted_past_comments_and_a_tab():
    prog = parse("param p  # the price\n# one\n# two\nbudget B =\n\ttest(p <= 1)\n")
    c = normalize(elaborate(prog, "B"), {"p": Fraction(3)})
    assert [(v.label, v.span) for v in c.violations] == [("p <= 1", "5:2")]


# Each kind of bracket, opened `n` times around a body; every form closes them all.
NESTINGS = {
    "parens": lambda n: "a(" + "(" * (n - 1) + "x" + ")" * n,
    "abs": lambda n: "a(" + "abs(" * (n - 1) + "x" + ")" * n,
    "test": lambda n: "test(" + "(" * (n - 1) + "x" + ")" * n,
    "enc": lambda n: "enc{c}(" * (n - 1) + "c(x)" + ")" * (n - 1),
    "budget parens": lambda n: "(" * (n - 1) + "a(x)" + ")" * (n - 1),
    "mixed": lambda n: "enc{c}(" * (n // 2) + "c("
    + "".join(("abs(", "(")[i % 2] for i in range(n - n // 2 - 1))
    + "x" + ")" * (n - n // 2) + ")" * (n // 2),
}


@pytest.mark.parametrize("kind", NESTINGS)
def test_brackets_nest_up_to_the_limit(kind):
    program = "param x\nbudget B = {}\n"
    term = elaborate(parse(program.format(NESTINGS[kind](MAX_NESTING))), "B")
    assert free_vars(term) == {"x"}
    e = err(program.format(NESTINGS[kind](MAX_NESTING + 1)))
    assert e.message == f"brackets nested more than {MAX_NESTING} deep"
    assert e.line == 2


def test_literal_past_the_digit_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    for literal in ("1" * (limit + 1), "0." + "5" * (limit + 1)):
        e = err(f"param x\nbudget B = a(x + {literal})\n")
        assert (e.line, e.col) == (2, 18)
        assert e.message == f"a number has more than {limit} decimal digits"


def test_elaborate_unknown_budget():
    prog = parse("budget B = eps\n")
    with pytest.raises(ValueError) as info:
        elaborate(prog, "Nope")
    assert "Nope" in str(info.value)


# --- what the parser sets on the terms -----------------------------------------


PRICED = """param price "per unit"
param count
def cost = price * count
budget B = test(cost <= 100 && price == 2) | delta | enc{a}(a(1))
"""


def test_parser_labels_and_places_every_violation():
    prog = parse(PRICED)
    c = normalize(elaborate(prog, "B"), {"price": Fraction(3), "count": Fraction(50)})
    assert [(v.label, v.span) for v in c.violations] == [
        ("cost <= 100 && price == 2", "4:12"),
        ("delta", "4:46"),
        ("enc{a}", "4:54"),
    ]


def test_a_label_names_only_the_defs_declared_before_its_test():
    # the label is printed when the violation is reported, after D is declared, with a body equal
    # to the test's left side: only a def's own body prints as its name
    prog = parse("param x\nbudget B = test(x + 1 <= 0)\ndef D = x + 1\nbudget C = B | a(D)\n")
    c = normalize(elaborate(prog, "C"), {"x": Fraction(1)})
    assert [(v.label, v.span) for v in c.violations] == [("x + 1 <= 0", "2:12")]


def read_texts_twice(program):
    """Read the label and span of every test, and the span of every delta and enc{}, of a program twice."""
    for _ in range(2):
        for node in postorder(list(program.budgets.values())):
            if type(node) is Test:
                assert node.label and node.span
            elif type(node) in (Delta, Encap):
                assert node.span


def test_a_parsed_program_is_freed_by_reference_counting_alone():
    # a label or a span that held the parser would tie every parsed program into a cycle through the
    # parser's budgets, left to the cyclic collector
    texts = [
        bundled("msc.bgt").read_text(encoding="utf-8"),
        "param x\ndef D = x + 1\nbudget B = delta | enc{a}(a(D)) | test(x <= 0 && x == 1) | test(D)\n",
    ]
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            program = parse(text)
            read_texts_twice(program)
            del program
            assert gc.collect() == 0
        # nor is one whose violations were reported
        program = parse(texts[1])
        violations = normalize(program.budgets["B"], {"x": Fraction(1)}).violations
        assert [(v.label, v.span) for v in violations] == [
            ("delta", "3:12"), ("enc{a}", "3:20"), ("x <= 0 && x == 1", "3:35"), ("D", "3:60")]
        read_texts_twice(program)
        del program, violations
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_reported_test_keeps_its_one_origin_and_its_relations_as_parsed():
    # the label and the span are made from the origin on each read, and neither slot is written again
    prog = parse("param x\ndef D = x + 1\nbudget B = test(D <= 0 && x == 2)\n")
    test = prog.budgets["B"]
    [violation] = normalize(test, {"x": Fraction(1)}).violations
    assert (violation.label, violation.span) == ("D <= 0 && x == 2", "3:12")
    assert [(test.label, test.span) for _ in range(2)] == [(violation.label, violation.span)] * 2
    origin = Test._label.__get__(test)
    assert type(origin) is dsl._Origin and Test._span.__get__(test) is origin
    x = Var("x")
    assert origin.relations == [("<=", Add(x, Const(Fraction(1))), Const(Fraction(0))), ("==", x, Const(Fraction(2)))]


def test_parsed_terms_mention_only_params():
    prog = parse(PRICED)
    assert prog.params == {"price": "per unit", "count": None}
    assert free_vars(elaborate(prog, "B")) == {"price", "count"}


def test_budget_reference_reuses_the_built_term():
    prog = parse("param p\nbudget A = a(p) | test(p)\nbudget B = A | A\n")
    b = elaborate(prog, "B")
    assert b.left is elaborate(prog, "A") and b.right is b.left


def test_every_reference_to_a_def_is_its_body():
    prog = parse(
        "param x\ndef D = x + 1\ndef E = D * D\ndef F = D\n"
        "budget B = a(D) | enc{c}(c(D) | c(-E)) | test(D == F)\n"
    )
    b = elaborate(prog, "B")
    entry, enc, test = b.left.left, b.left.right, b.right
    body = entry.amount
    assert body == Add(Var("x"), Const(Fraction(1)))
    assert enc.body.left.amount is body
    square = enc.body.right.amount.arg  # c(-E) holds Neg(E)
    assert square.left is body and square.right is body
    d, f = test.arg.left, test.arg.right.arg  # D == F is D - F
    assert d is body
    assert f == body and f is not body  # the alias F holds its own copy of D's body
    assert test.label == "D == F"


@pytest.mark.parametrize(
    "defs, cond",
    [
        ("def D = x", "D + x <= 1"),
        ("def C = 5", "C == 5"),
        ("def D = x\ndef E = D\ndef F = (D)", "E <= F"),
        ("def N = -y", "x + N == 0"),
        ("def N = -y\ndef R = 1 / y", "x * R == 1 && x - N"),
    ],
)
def test_labels_name_each_def_where_it_is_referenced(defs, cond):
    prog = parse(f"param x\nparam y\n{defs}\nbudget B = test({cond})\n")
    assert elaborate(prog, "B").label == cond


# --- case study program shape ----------------------------------------------


def test_bundled_case_study_shape():
    prog = parse(bundled("msc.bgt").read_text(encoding="utf-8"))
    assert list(prog.budgets) == ["J", "A", "B", "C", "Total"]
    total = elaborate(prog, "Total")
    assert isinstance(total, Encap)
    assert total.channels == frozenset({"a", "b", "c"})
    assert free_vars(total) <= prog.params.keys()

    c = normalize(total)
    assert not c.is_null
    assert [ch for ch, _ in c.entries] == ["e", "in"]
    assert len(c.tests) == 6


def test_bundled_case_study_guards_label_their_violations():
    prog = parse(bundled("msc.bgt").read_text(encoding="utf-8"))
    v = {name: Fraction(1) for name in prog.params}
    v["bbpp"] = Fraction(10**6)  # breaks the basic-budget bound
    c = normalize(elaborate(prog, "J"), v)
    assert c.is_null
    assert any("bbpp <=" in viol.label for viol in c.violations)
