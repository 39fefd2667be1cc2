import hashlib
import random

import pytest
from hypothesis import given

from termbus.syntax import (
    ParseError,
    format_term,
    parse_clause,
    parse_goal,
    parse_term,
    parse_term_with_vars,
)
from termbus.terms import Atom, Compound, Int, Str, Var, deref, mk, mklist, variant

from termgen import gen_term, terms


def test_parse_shared_variables():
    t = parse_term("ok(f(X,X))")
    inner = t.args[0]
    assert deref(inner.args[0]) is deref(inner.args[1])
    assert deref(inner.args[0]).name == "X"


def test_parse_anonymous_vars_are_distinct():
    t = parse_term("f(_,_)")
    assert deref(t.args[0]) is not deref(t.args[1])
    assert deref(t.args[0]).name is None


def test_parse_list_notation():
    t = parse_term("[a,b|T]")
    assert t == Compound(
        ".", (Atom("a"), Compound(".", (Atom("b"), deref(t.args[1]).args[1])))
    )
    _, tail = t.args
    assert deref(deref(tail).args[1]).name == "T"
    assert parse_term("[]") == Atom("[]")
    assert parse_term("[1]") == mklist([Int(1)])


def test_parse_quoted_atom_and_string():
    assert parse_term("'hello world'") == Atom("hello world")
    assert parse_term("'it\\'s'") == Atom("it's")
    assert parse_term('"a\\nb"') == Str("a\nb")


def test_parse_negative_int():
    assert parse_term("-42") == Int(-42)
    assert parse_term("f(-1,2)") == mk("f", Int(-1), Int(2))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_term("f(")
    assert e.value.pos == 2
    with pytest.raises(ParseError):
        parse_term("f(a) junk")
    with pytest.raises(ParseError):
        parse_term("99999999999999999999999999")


def test_unknown_escape_rejected():
    with pytest.raises(ParseError):
        parse_term("'a\\qb'")


def test_parse_clause_forms():
    c = parse_clause("path(X,Y) :- edge(X,Z),path(Z,Y).")
    assert c.functor == ":-"
    body = c.args[1]
    assert body.functor == ","
    fact = parse_clause("edge(a,b).")
    assert fact == mk("edge", Atom("a"), Atom("b"))
    with pytest.raises(ParseError):
        parse_clause("edge(a,b)")  # missing stop


def test_conjunction_right_associated():
    g = parse_goal("a,b,c")
    assert g == Compound(",", (Atom("a"), Compound(",", (Atom("b"), Atom("c")))))


def test_address_terms():
    t = parse_term("main_linda_thread:linda_server@lm")
    assert t == Compound(
        ":",
        (Atom("main_linda_thread"), Compound("@", (Atom("linda_server"), Atom("lm")))),
    )
    assert parse_term("t:p") == Compound(":", (Atom("t"), Atom("p")))


def test_annotation_operators():
    g = parse_goal("edge(X,Y) ? query_thread:qs@h")
    assert g.functor == "?"
    assert g.args[0].functor == "edge"
    g2 = parse_goal("p(X)??srv:q@h")
    assert g2.functor == "??"


def test_comparison_operators():
    g = parse_goal("X < 3, Y >= 2, Z =< 1, W > 0, A = b")
    names = []
    while g.functor == ",":
        names.append(g.args[0].functor)
        g = deref(g.args[1])
    names.append(g.functor)
    assert names == ["<", ">=", "=<", ">", "="]


def test_format_examples():
    assert format_term(parse_term("f(a,[1,2|T],\"s\")")) == 'f(a,[1,2|T],"s")'
    assert format_term(Atom("two words")) == "'two words'"
    assert format_term(Atom("[]")) == "[]"
    assert format_term(Atom(".")) == "'.'"
    assert format_term(mk(",", Atom("a"), Atom("b"))) == "a,b"
    assert format_term(mk(",", Atom("a"), Atom("b"), Atom("c"))) == "','(a,b,c)"
    assert format_term(parse_clause("h :- a,b.")) == "h :- a,b"


def test_format_unnamed_vars_get_serials():
    u = Var()
    assert format_term(mk("f", u, u, Var())) == "f(_G1,_G1,_G2)"


def test_format_serial_skips_taken_names():
    named = Var("_G1")
    out = format_term(mk("f", named, Var()))
    assert out == "f(_G1,_G2)"


def test_format_sanitizes_unprintable_var_names():
    weird = Var("no good")
    assert format_term(mk("f", weird, weird)) == "f(_G1,_G1)"


def test_format_writes_bound_value():
    x = Var("X")
    x.ref = mk("g", Int(1))
    assert format_term(mk("f", x)) == "f(g(1))"
    x.ref = None


def test_nested_operators_parenthesized():
    t = parse_term("f((a,b),c)")
    assert deref(t.args[0]).functor == ","
    assert format_term(t) == "f((a,b),c)"
    t2 = parse_term("[(a,b)]")
    assert format_term(t2) == "[(a,b)]"


def test_parse_comments_and_whitespace():
    c = parse_clause("edge(a,b).  % the first edge")
    assert c == mk("edge", Atom("a"), Atom("b"))


def test_parse_term_with_vars_table():
    t, vs = parse_term_with_vars("f(X,Y,X)")
    assert set(vs) == {"X", "Y"}
    assert deref(t.args[0]) is vs["X"]


def roundtrip(t):
    text = format_term(t)
    back = parse_term(text)
    assert variant(t, back), f"{text!r} reparsed as {format_term(back)!r}"
    # canonical text is a fixed point
    assert format_term(back) == text


@given(terms())
def test_roundtrip_property(t):
    roundtrip(t)


def test_roundtrip_seeded_bulk():
    rng = random.Random(2024)
    for _ in range(500):
        roundtrip(gen_term(rng))


# ---------------------------------------------------------------------------
# writer golden text, recorded from the recursive writer this one replaced

A, B, C, D = Atom("a"), Atom("b"), Atom("c"), Atom("d")


def _bound(v, t):
    v.ref = t
    return v


def _golden_cases():
    u = Var()
    return [
        # nested infix priorities, ',' and ':-'
        (mk("=", mk("?", A, B), mk(",", C, D)), "a?b=(c,d)"),
        (mk("?", mk("=", A, B), C), "(a=b)?c"),
        (mk("=", mk("=", A, B), C), "(a=b)=c"),
        (mk("??", A, mk("?", B, C)), "a??(b?c)"),
        (mk(",", mk(",", A, B), C), "(a,b),c"),
        (mk(",", A, mk(",", B, C)), "a,b,c"),
        (mk(":-", Atom("h"), mk(",", A, mk(",", mk("<", Var("X"), Int(3)), C))),
         "h :- a,X<3,c"),
        (mk(":-", mk(":-", A, B), C), "(a :- b) :- c"),
        (mk(":-", A, mk(":-", B, C)), "a :- (b :- c)"),
        (mk("f", mk(",", A, B), mk(":-", A, B), mk("=", A, B), mk("?", A, B)),
         "f((a,b),(a :- b),a=b,a?b)"),
        (mk(",", mk(":-", A, B), mk("=<", A, mk(">=", B, C))), "(a :- b),a=<(b>=c)"),
        (mk("=", A, Int(-1)), "a=-1"),
        (mk(":-", A, Int(-7)), "a :- -7"),
        (mk(",", Int(-1), Int(-2)), "-1,-2"),
        # lists, partial lists and list-like compounds
        (mklist([A, B], tail=Var("T")), "[a,b|T]"),
        (mklist([A], tail=Atom("x")), "[a|x]"),
        (mklist([mk(",", A, B), mk("=", A, B), mklist([Int(1)]), Atom("[]")]),
         "[(a,b),a=b,[1],[]]"),
        (mklist([Int(-1), mk(":", A, B)], tail=mk("f", A)), "[-1,a:b|f(a)]"),
        (Compound(".", (A,)), "'.'(a)"),
        (Compound(".", (A, B, C)), "'.'(a,b,c)"),
        (mklist([A], tail=_bound(Var("L"), mklist([B], tail=_bound(Var("M"), Atom("[]"))))),
         "[a,b]"),
        # the '[]' functor against the '[]' atom
        (Compound("[]", (A,)), "'[]'(a)"),
        (Atom("[]"), "[]"),
        (mk("f", Atom("[]"), Compound("[]", (Atom("[]"), B))), "f([],'[]'([],b))"),
        # addresses with and without '@'
        (mk(":", A, mk("@", B, C)), "a:b@c"),
        (mk(":", A, B), "a:b"),
        (mk(":", Int(3), mk("@", Atom("proc"), Atom("host"))), "3:proc@host"),
        (mk("f", mk(":", A, mk("@", B, C)), mk(":", A, B)), "f(a:b@c,a:b)"),
        (mk("=", Var("X"), mk(":", A, B)), "X=a:b"),
        (mk(":", mk(":", A, B), C), "(a:b):c"),
        (mk(":", A, mk(":", B, C)), "a:(b:c)"),
        (mk("@", A, B), "'@'(a,b)"),
        (mk(":", A, mk("@", mk(",", B, C), D)), "a:(b,c)@d"),
        # ':' before a negative number is spaced so it does not read as ':-'
        (mk(":", A, Int(-1)), "a: -1"),
        (mk(":", Int(1), mk("@", Int(-1), Int(-2))), "1: -1@-2"),
        (mk(":", A, _bound(Var("N"), Int(-5))), "a: -5"),
        (mk(":", A, mk("@", _bound(Var("P"), Int(-3)), B)), "a: -3@b"),
        (mk(":", Int(-1), Int(0)), "-1:0"),
        (mklist([mk(":", A, Int(-1))]), "[a: -1]"),
        # quoted atoms and strings with escapes
        (Atom("it's"), "'it\\'s'"),
        (Atom("a\\b"), "'a\\\\b'"),
        (Atom("tab\there"), "'tab\\there'"),
        (Atom("line\nx\r"), "'line\\nx\\r'"),
        (Atom(""), "''"),
        (Atom("Hello"), "'Hello'"),
        (Atom("two words"), "'two words'"),
        (Atom("."), "'.'"),
        (Atom(","), "','"),
        (Atom("é"), "'é'"),
        (Str('say "hi"'), '"say \\"hi\\""'),
        (Str("line\nbreak\t\\ \r'"), '"line\\nbreak\\t\\\\ \\r\'"'),
        (Str(""), '""'),
        (Str("héllo"), '"héllo"'),
        (Compound("two words", (A,)), "'two words'(a)"),
        (Compound("it's", (Str("x"),)), "'it\\'s'(\"x\")"),
        (Compound(",", (A, B, C)), "','(a,b,c)"),
        (Compound("=", (A,)), "'='(a)"),
        (Compound("-", (Int(1), Int(2))), "'-'(1,2)"),
        # unnamed variables and names that are not variable-shaped
        (mk("f", u, u, Var()), "f(_G1,_G1,_G2)"),
        (mk("f", Var("_G1"), Var(), Var("_G3"), Var()), "f(_G1,_G2,_G3,_G4)"),
        (mk("g", Var("no good"), Var("1abc"), Var(""), Var("lower"), Var("_"), Var("_x")),
         "g(_G1,_G2,_G3,_G4,_,_x)"),
        (mklist([Var(), Var("A")], tail=Var()), "[_G1,A|_G2]"),
        (mk("h", _bound(Var("B"), mk("k", Var(), Var("C")))), "h(k(_G1,C))"),
        (mk("n", Int(2**63 - 1), Int(-(2**63)), Int(0)),
         "n(9223372036854775807,-9223372036854775808,0)"),
    ]


def test_writer_matches_golden_text():
    for t, text in _golden_cases():
        assert format_term(t) == text


def test_writer_matches_golden_digest_of_seeded_terms():
    # the digest covers format_term of termgen.gen_term's first 1000 terms
    # from random.Random(5); it changes if gen_term itself changes
    rng = random.Random(5)
    text = "\n".join(format_term(gen_term(rng)) for _ in range(1000))
    assert len(text) == 47857
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7ddc6584d0415be239a5b9f2e74a1fc5da5040e97b0182c7b2dc138c181b64c3"
    )


def test_writer_is_stack_safe():
    n = 100_000
    assert format_term(mklist([Int(i) for i in range(n)], tail=Var("T"))) == (
        "[" + ",".join(str(i) for i in range(n)) + "|T]"
    )
    deep = Atom("x")
    for _ in range(n):
        deep = mk("s", deep)
    assert format_term(deep) == "s(" * n + "x" + ")" * n
    left = Atom("a")
    for _ in range(n):
        left = mk("=", left, Int(-1))
    assert format_term(left) == "(" * (n - 1) + "a=-1" + ")=-1" * (n - 1)


def test_reader_is_stack_safe():
    n = 100_000
    assert parse_term("s(" * n + "x" + ")" * n) == _deep("s", n, Atom("x"))
    assert parse_term("(" * n + "x" + ")" * n) == Atom("x")
    assert parse_term("[" * n + "]" * n) == _deep(".", n - 1, Atom("[]"), Atom("[]"))
    t, vs = parse_term_with_vars("[" + ",".join(str(i) for i in range(n)) + "|T]")
    assert t == mklist([Int(i) for i in range(n)], tail=vs["T"])
    assert parse_goal(",".join(["a"] * n)) == _deep(",", n - 1, Atom("a"), Atom("a"), right=True)


def _deep(functor, n, leaf, *rest, right=False):
    """leaf under n nested functor(_, *rest); with right=True, rest comes first."""
    t = leaf
    for _ in range(n):
        t = mk(functor, *rest, t) if right else mk(functor, t, *rest)
    return t
