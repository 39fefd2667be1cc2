import pytest
from hypothesis import given, strategies as st

import termbus.address
from termbus.address import (
    CREATOR,
    SELF,
    Address,
    AddressError,
    address_to_term,
    format_address,
    match_address,
    parse_address,
    resolve,
    term_to_address,
)
from termbus.syntax import parse_term
from termbus.terms import Atom, Compound, Int, Var, resolve as tresolve, undo_to, unify_into


# the resolving thread's address and its creator's
CTX = (Address("worker", "proc_a", "hosta"), Address("main", "proc_a", "hosta"))


def test_parse_full_and_short_forms():
    a = parse_address("t:p@h")
    assert a == Address("t", "p", "h")
    assert parse_address("t:p") == Address("t", "p", None)
    assert parse_address("t") == Address("t", None, None)
    assert parse_address("17:p@h") == Address(17, "p", "h")
    assert parse_address("007:p@h") == Address(7, "p", "h")
    assert parse_address("T_1:P-2@H.3") == Address("T_1", "P-2", "H.3")


def test_parse_reserved_tokens():
    assert parse_address("self").thread is SELF
    assert parse_address("creator").thread is CREATOR


def test_parse_rejects_malformed():
    for bad in ["a:", ":b", "a@h", "a:b@", "a:b:c", "", "a b", "a:b@c@d", "a@b:c",
                "a:b:c@d", "-a:p@h", "t:p@-h", "t:p@h x", "é:p@h"]:
        with pytest.raises(AddressError):
            parse_address(bad)


def test_parse_memo_shares_results_and_stays_bounded():
    assert parse_address("t:p@h") is parse_address("t:p@h")
    for bad in ["a:", "a b"]:  # a refused text is refused every time
        for _ in range(2):
            with pytest.raises(AddressError):
                parse_address(bad)
    for i in range(termbus.address._PARSED_MAX + 10):
        assert parse_address(f"t{i}:p@h") == Address(f"t{i}", "p", "h")
    assert len(termbus.address._PARSED) <= termbus.address._PARSED_MAX
    assert len(termbus.address._SHARED) <= termbus.address._PARSED_MAX


def test_format_roundtrip():
    for text in ["t:p@h", "t:p", "t", "17:p@h", "a.b-c:p@host.example"]:
        assert format_address(parse_address(text)) == text


def test_resolve_fills_short_forms():
    assert resolve(parse_address("t"), *CTX) == Address("t", "proc_a", "hosta")
    assert resolve(parse_address("t:other"), *CTX) == Address("t", "other", "hosta")
    full = Address("t", "p", "h")
    assert resolve(full, *CTX) == full
    assert resolve(resolve(parse_address("t"), *CTX), *CTX) == resolve(
        parse_address("t"), *CTX
    )


def test_resolve_reserved():
    assert resolve(parse_address("self"), *CTX) == Address("worker", "proc_a", "hosta")
    assert resolve(parse_address("creator"), *CTX) == CTX[1]


def test_resolve_requires_concrete_thread():
    with pytest.raises(AddressError):
        resolve(Address(None, "p", "h"), *CTX)
    with pytest.raises(AddressError):
        resolve(Address(Var("T"), "p", "h"), *CTX)


def test_match_binds_slots():
    trail = []
    t = Var("T")
    pat = Address(t, "p", None)
    assert match_address(pat, Address("srv", "p", "h"), trail)
    assert tresolve(t) == Atom("srv")
    undo_to(trail, 0)
    assert t.ref is None


def test_match_whole_address_variable():
    trail = []
    a = Var("A")
    assert match_address(a, Address(3, "p", "h"), trail)
    assert term_to_address(tresolve(a)) == Address(3, "p", "h")
    undo_to(trail, 0)


def test_match_ground_mismatch():
    trail = []
    assert not match_address(
        Address("x", None, None), Address("y", "p", "h"), trail
    )
    assert match_address(None, Address("y", "p", "h"), trail)


def test_int_vs_symbol_thread_slots_differ():
    trail = []
    assert not match_address(Address(7, None, None), Address("7x", "p", "h"), trail)
    assert match_address(Address(7, None, None), Address(7, "p", "h"), trail)


# a pattern slot: a wildcard, one of two variables, a symbol, an id, or a
# digit string, which names no id; a qualified address's slots from the same
_PATTERN_SLOTS = st.sampled_from([None, "V0", "V1", "a", "p", "1", 1, 2])
_THREADS = st.sampled_from(["a", "p", "1", 1, 2])
_NAMES = st.sampled_from(["a", "p", "1"])


@given(st.tuples(_PATTERN_SLOTS, _PATTERN_SLOTS, _PATTERN_SLOTS), _THREADS, _NAMES, _NAMES)
def test_match_agrees_with_unifying_the_address_terms(slots, thread, process, host):
    ground = Address(thread, process, host)

    def run(match):
        pool = [Var("V0"), Var("V1")]
        parts = [pool[int(s[1])] if s in ("V0", "V1") else s for s in slots]
        trail = []
        ok = match(parts, trail)
        bound = [tresolve(v) if v.ref is not None else None for v in pool]
        undo_to(trail, 0)
        assert all(v.ref is None for v in pool)
        return ok, bound if ok else None

    def reference(parts, trail):
        # the pattern as the term ':'(T, '@'(P, H)), a wildcard as a fresh variable
        t, p, h = (
            Var() if x is None
            else x if isinstance(x, Var)
            else Int(x) if isinstance(x, int)
            else Atom(x)
            for x in parts
        )
        return unify_into(
            Compound(":", (t, Compound("@", (p, h)))), address_to_term(ground), trail
        )

    assert run(lambda parts, trail: match_address(Address(*parts), ground, trail)) == run(
        reference
    )


def test_address_term_embedding():
    a = Address("t", "p", "h")
    t = address_to_term(a)
    assert t == parse_term("t:p@h")
    assert term_to_address(t) == a
    assert term_to_address(parse_term("17:p@h")) == Address(17, "p", "h")
    assert term_to_address(Atom("t")) == Address("t", None, None)
    assert term_to_address(Int(4)) == Address(4, None, None)


def test_term_to_address_rejects_nonsense():
    with pytest.raises(AddressError):
        term_to_address(parse_term("f(a,b)"))
