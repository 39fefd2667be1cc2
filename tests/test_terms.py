import copy
import pickle
import random
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from termbus.terms import (
    Atom,
    Compound,
    Int,
    Str,
    Var,
    VarRegistry,
    could_unify,
    deref,
    fresh_copy,
    intern_named,
    list_parts,
    mk,
    mklist,
    name_unnamed,
    resolve,
    term_equal,
    undo_to,
    unify,
    unify_head,
    unify_into,
    variables,
    variant,
    INT_MAX,
)

from termgen import all_cells, gen_term, terms


def test_unify_binds_both_sides():
    x, y = Var("X"), Var("Y")
    sub = unify(mk("f", x, Atom("a")), mk("f", Atom("b"), y))
    assert sub is not None
    assert resolve(x) == Atom("b")
    assert resolve(y) == Atom("a")


def test_unify_message_pattern():
    t = Var("T")
    sub = unify(mk("ok", t), mk("ok", mk("point", Int(1), Int(2))))
    assert sub
    assert resolve(t) == mk("point", Int(1), Int(2))


def test_failed_unify_restores_bindings():
    x = Var("X")
    # first argument binds X, second argument clashes; X must come back unbound
    sub = unify(mk("f", x, Atom("b")), mk("f", Atom("a"), Atom("c")))
    assert sub is None
    assert x.ref is None


def test_var_var_aliasing():
    x, y = Var("X"), Var("Y")
    sub = unify(x, y)
    assert sub
    unify(y, Int(3))
    assert resolve(x) == Int(3)


def test_undo_returns_to_prior_state():
    x = Var("X")
    sub = unify(x, Atom("v"))
    assert x.ref == Atom("v")
    sub.undo()
    assert x.ref is None


def test_occurs_check_toggle():
    x = Var("X")
    assert unify(x, mk("f", x), occurs_check=True) is None
    assert x.ref is None
    sub = unify(x, mk("f", x))  # cyclic binding allowed by default
    assert sub
    sub.undo()


def test_unify_binds_left_to_right_depth_first():
    x, y, z = Var("X"), Var("Y"), Var("Z")
    sub = unify(mk("f", x, mk("g", y), z), mk("f", Int(1), mk("g", Int(2)), Int(3)))
    assert sub.bound_cells == (x, y, z)


def test_unify_is_stack_safe():
    n = 100_000
    xs = [Var() for _ in range(n)]
    sub = unify(mklist(xs), mklist([Int(i) for i in range(n)]))
    assert sub and resolve(xs[-1]) == Int(n - 1)
    sub.undo()
    assert all(x.ref is None for x in xs)
    leaf = Var("L")
    deep, deep_leaf = leaf, Atom("leaf")
    for _ in range(n):
        deep, deep_leaf = mk("s", deep), mk("s", deep_leaf)
    assert unify(leaf, deep, occurs_check=True) is None
    assert unify(deep, deep_leaf) and resolve(leaf) == Atom("leaf")


def test_atomic_clashes():
    assert unify(Atom("a"), Atom("b")) is None
    assert unify(Atom("1"), Int(1)) is None
    assert unify(Str("a"), Atom("a")) is None
    assert unify(Int(2), Int(2))


def test_compound_shape_clash():
    assert unify(mk("f", Int(1)), mk("f", Int(1), Int(2))) is None
    assert unify(mk("f", Int(1)), mk("g", Int(1))) is None


def test_int_range_enforced():
    with pytest.raises(ValueError):
        Int(2**63)
    with pytest.raises(ValueError):
        Int(-(2**63) - 1)
    Int(2**63 - 1)
    Int(-(2**63))


def test_compound_requires_args():
    with pytest.raises(ValueError):
        Compound("f", ())


# The value classes keep the meaning of the frozen dataclasses they replaced:
# the golden texts and hashes below are those the dataclasses gave.
VALUE_REPRS = [
    (Atom("a"), "Atom(name='a')"),
    (Atom("it's"), "Atom(name=\"it's\")"),
    (Int(-3), "Int(value=-3)"),
    (Int(INT_MAX), "Int(value=9223372036854775807)"),
    (Str('say "hi"'), "Str(value='say \"hi\"')"),
    (Str("h\u00e9"), "Str(value='h\u00e9')"),
    (Compound("f", (Atom("a"), Int(1))), "Compound(functor='f', args=(Atom(name='a'), Int(value=1)))"),
]


@pytest.mark.parametrize("t,text", VALUE_REPRS)
def test_value_repr_is_the_dataclass_text(t, text):
    assert repr(t) == text


@pytest.mark.parametrize("cls,field,v,w", [
    (Atom, "name", "a", "b"), (Int, "value", 1, 2), (Str, "value", "a", "b"),
])
def test_value_eq_and_hash_are_the_dataclass_ones(cls, field, v, w):
    assert cls(v) == cls(v) == cls(**{field: v}) and not cls(v) != cls(v)
    assert cls(v) != cls(w)
    assert hash(cls(v)) == hash((v,))
    assert getattr(cls(v), field) == v
    assert cls(v).__eq__(v) is NotImplemented and cls(v) != v
    assert len({cls(v), cls(v), cls(w)}) == 2


def test_values_of_different_classes_differ():
    assert Atom("a") != Str("a") and Atom("1") != Int(1) and Str("1") != Int(1)
    assert Atom("a").__eq__(Str("a")) is NotImplemented
    c = Compound("f", (Int(1), Atom("a")))
    assert c == Compound(functor="f", args=(Int(1), Atom("a"))) and c.arity == 2
    assert c != Compound("f", (Int(1), Str("a"))) and c != Atom("f")
    assert hash(c) == hash((("f", 2), Int(1), Atom("a")))


@pytest.mark.parametrize("t,field", [
    (Atom("a"), "name"), (Int(1), "value"), (Str("s"), "value"),
    (Compound("f", (Int(1),)), "functor"), (Compound("f", (Int(1),)), "args"),
])
def test_value_fields_are_immutable(t, field):
    before = getattr(t, field)
    with pytest.raises(AttributeError):
        setattr(t, field, before)
    with pytest.raises(AttributeError):
        delattr(t, field)
    with pytest.raises(AttributeError):
        t.other = 1
    assert getattr(t, field) is before


def test_values_copy_and_pickle():
    t = mk("f", Atom("a"), Int(-7), Str("s"), mklist([Int(1)]))
    for back in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert back == t and type(back.args[1]) is Int


def test_value_checks_stay():
    with pytest.raises(ValueError):
        Int(2**63)
    with pytest.raises(ValueError):
        Compound("f", ())


def test_cells_made_at_once_by_many_threads_get_distinct_ids():
    threads, each = 8, 20_000
    ids: list[list[int]] = [[] for _ in range(threads)]
    start = threading.Barrier(threads)

    def make(out):
        start.wait(10.0)
        out.extend(Var().id for _ in range(each))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        workers = [threading.Thread(target=make, args=(out,)) for out in ids]
        for w in workers:
            w.start()
        for w in workers:
            w.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    every = [i for out in ids for i in out]
    assert len(every) == threads * each
    assert len(set(every)) == len(every)


def test_variables_first_occurrence_order():
    x, y = Var("X"), Var("Y")
    t = mk("f", y, mk("g", x, y))
    assert variables(t) == [y, x]


def test_mklist_roundtrip():
    items = [Atom("a"), Int(1)]
    t = mklist(items)
    got, tail = list_parts(t)
    assert got == items and tail == Atom("[]")
    openended = mklist(items, tail=Var("T"))
    got, tail = list_parts(openended)
    assert got == items and isinstance(tail, Var)


class TestNaming:
    def test_name_unnamed_from_empty_registry(self):
        reg = VarRegistry()
        u = Var()
        t = mk("f", u, u)
        out = name_unnamed(t, reg)
        first, second = deref(out.args[0]), deref(out.args[1])
        assert first is second
        assert first.name == "_A1"
        assert reg.lookup("_A1") is first

    def test_name_unnamed_idempotent(self):
        reg = VarRegistry()
        t = mk("f", Var(), Var())
        once = name_unnamed(t, reg)
        names = [deref(a).name for a in once.args]
        again = name_unnamed(once, reg)
        assert [deref(a).name for a in again.args] == names
        assert names == ["_A1", "_A2"]

    def test_generated_names_skip_taken(self):
        reg = VarRegistry()
        reg.intern("_A1")
        t = name_unnamed(Var(), reg)
        assert t.name == "_A2"

    def test_adopts_already_named_vars(self):
        reg = VarRegistry()
        q = Var("Q")
        name_unnamed(mk("f", q), reg)
        assert reg.lookup("Q") is q

    def test_a_generated_name_is_never_a_later_named_variables(self):
        # the unnamed variable comes first, so it is named after the named
        # one has been adopted: _A1 is taken
        reg = VarRegistry()
        anon, named = Var(), Var("_A1")
        name_unnamed(mk("f", anon, named), reg)
        assert anon.name == "_A2"
        assert reg.lookup("_A1") is named and reg.lookup("_A2") is anon

    def test_intern_named_maps_to_registry_cells(self):
        reg = VarRegistry()
        incoming = mk("f", Var("X"), Var("X"))
        out = intern_named(incoming, reg)
        assert deref(out.args[0]) is reg.lookup("X")
        assert deref(out.args[0]) is deref(out.args[1])

    def test_binding_carries_across_interned_messages(self):
        # two messages reuse the name _A1; a binding made after the first
        # message must be visible when the second one is interned
        reg = VarRegistry()
        msg1 = intern_named(mk("query", Var("_A1")), reg)
        unify(msg1.args[0], Int(7))
        msg2 = intern_named(mk("also", Var("_A1")), reg)
        assert resolve(msg2.args[0]) == Int(7)

    def test_intern_leaves_unnamed_alone(self):
        reg = VarRegistry()
        u = Var()
        out = intern_named(mk("f", u), reg)
        assert deref(out.args[0]) is u

    def test_registry_lookup_stable_until_cleared(self):
        reg = VarRegistry()
        a = reg.intern("N")
        assert reg.intern("N") is a
        reg.clear()
        assert reg.intern("N") is not a


class TestFreshCopy:
    def test_disjoint_cells_preserved_sharing(self):
        x = Var("X")
        t = mk("f", x, x, Var())
        c = fresh_copy(t)
        assert variant(t, c)
        assert deref(c.args[0]) is deref(c.args[1])
        assert deref(c.args[0]) is not x
        assert deref(c.args[0]).name == "X"

    def test_follows_bindings(self):
        x = Var("X")
        unify(x, mk("g", Int(1)))
        c = fresh_copy(mk("f", x))
        x.ref = None
        assert term_equal(c, mk("f", mk("g", Int(1))))


# fresh_copy first scans a term for a variable cell, walking a list's spine
# in line; a list holding one anywhere is copied, and one holding none is
# its own copy.

def _list_with_one_var(where, v):
    heads = [Int(i) for i in range(50)]
    tail = Atom("[]")
    if where == "tail":
        tail = v
    elif where == "last head":
        heads[-1] = v
    else:
        heads[25] = mk("f", Atom("a"), mk("g", mklist([Int(1), v])))
    return mklist(heads, tail)


@pytest.mark.parametrize("where", ["tail", "last head", "nested head"])
def test_fresh_copy_copies_a_list_with_one_variable_in_the(where):
    v = Var("V")
    t = _list_with_one_var(where, v)
    c = fresh_copy(t)
    assert c is not t and variant(c, t)
    [w] = variables(c)
    assert w is not v and w.name == "V" and variables(t) == [v]


def test_fresh_copy_follows_a_bound_head_and_tail_of_a_list():
    x, rest = Var("X"), Var("R")
    x.ref = mk("p", Int(1))
    rest.ref = mklist([Atom("b")])
    t = mklist([Int(0), x, Atom("a")], tail=rest)
    c = fresh_copy(t)
    x.ref = rest.ref = None
    items, tail = list_parts(c)
    assert items == [Int(0), mk("p", Int(1)), Atom("a"), Atom("b")] and tail == Atom("[]")
    assert variables(c) == []


def test_fresh_copy_of_a_ground_list_is_the_list():
    t = mklist([Int(1), Atom("a"), Str("s"), mk("f", mklist([Int(2)])), mklist([])],
               tail=Atom("end"))
    assert fresh_copy(t) is t


def test_fresh_copy_scans_a_long_list_without_recursion():
    n = 100_000
    flat = mklist(mk("p", Int(i)) for i in range(n))
    nested = Atom("[]")
    for _ in range(n):  # each head the list before it
        nested = mklist([nested])
    assert fresh_copy(flat) is flat and fresh_copy(nested) is nested
    v = Var()
    heads = list_parts(flat)[0]
    items, tail = list_parts(fresh_copy(mklist(heads, tail=v)))
    assert items == heads and type(tail) is Var and tail is not v


def test_variant_examples():
    assert variant(mk("f", Var(), Var()), mk("f", Var(), Var()))
    a = Var()
    assert not variant(mk("f", a, a), mk("f", Var(), Var()))
    assert not variant(Atom("a"), Atom("b"))


# properties ----------------------------------------------------------------


@given(terms(), terms())
def test_failed_unify_is_stateless(a, b):
    cells = all_cells(a) + all_cells(b)
    before = [(c, c.ref) for c in cells]
    sub = unify(a, b)
    if sub is None:
        for c, ref in before:
            assert c.ref is ref
    else:
        sub.undo()
        for c, ref in before:
            assert c.ref is ref


def test_repr_is_the_dataclass_text():
    x = Var("X")
    assert repr(mk("f", Atom("a"))) == "Compound(functor='f', args=(Atom(name='a'),))"
    assert repr(mk("g", Int(1), Str("s"), x)) == (
        "Compound(functor='g', args=(Int(value=1), Str(value='s'), Var(X)))")
    assert unify(x, mk("f", x)) is not None  # no occurs check: a cyclic term
    assert repr(x) == "Var(X=Compound(functor='f', args=(Var(X=...),)))"
    assert repr(mk("h", x.ref, x.ref)) == (
        "Compound(functor='h', args=(Compound(functor='f', args=(Var(X=...),)), "
        "Compound(functor='f', args=(Var(X=...),))))")
    y = Var("Y")
    x.ref, y.ref = y, x  # a cycle of variables alone, which unification never makes
    assert repr(x) == "Var(X=Var(Y=Var(X=Var(Y=...))))"


def _rebuilt(t):
    """t with every compound a new object and every leaf the same one."""
    if type(t) is not Compound:
        return t
    return Compound(t.functor, tuple(_rebuilt(a) for a in t.args))


@given(terms(), terms(), st.data())
def test_compound_equality_is_term_equal_and_hashes_agree(a, b, data):
    # terms() binds no variable, so dereferencing changes nothing here
    pairs = [(a, b), (a, _rebuilt(a)), (b, data.draw(st.sampled_from([a, b])))]
    if type(a) is Compound:
        pairs.append((a, Compound(a.functor + "_", a.args)))
    for x, y in pairs:
        assert (x == y) == term_equal(x, y)
        assert (x != y) == (not term_equal(x, y))
        if x == y:
            assert hash(x) == hash(y)


@given(terms(), terms())
def test_unify_symmetric_up_to_renaming(a, b):
    # a unify without the occurs check may bind a cycle, which resolve never
    # finishes walking, so only draws that unify acyclically go on
    acyclic = unify(fresh_copy(a), fresh_copy(b), occurs_check=True) is not None
    assert acyclic == (unify(fresh_copy(b), fresh_copy(a), occurs_check=True) is not None)
    if not acyclic:
        return
    a2, b2 = fresh_copy(a), fresh_copy(b)
    left = unify(a, b)
    right = unify(b2, a2)
    assert (left is None) == (right is None)
    if left is not None:
        assert variant(resolve(a), resolve(a2))
        left.undo()
        right.undo()


@given(terms(), terms())
def test_could_unify_false_means_no_unifier(a, b):
    cells = all_cells(a) + all_cells(b)
    before = [c.ref for c in cells]
    if not could_unify(a, b):
        assert unify(fresh_copy(a), fresh_copy(b)) is None
    assert [c.ref for c in cells] == before  # nothing bound


def _generalise(t, draw):
    """t with some subterms replaced by fresh variables, so it unifies with t."""
    t = deref(t)
    if draw(st.booleans()):
        return Var()
    if isinstance(t, Compound):
        return Compound(t.functor, tuple(_generalise(a, draw) for a in t.args))
    return t


@given(terms(), st.data())
def test_could_unify_passes_a_generalisation(t, data):
    g = _generalise(t, data.draw)
    assert could_unify(g, t) and could_unify(t, g)


def test_could_unify_follows_bindings_and_rejects_clashes():
    x = Var("X")
    x.ref = Atom("a")
    assert could_unify(mk("f", x), mk("f", Atom("a")))
    assert not could_unify(mk("f", x), mk("f", Atom("b")))
    assert not could_unify(mk("f", Int(1)), mk("f", Str("1")))
    assert not could_unify(mk("f", Atom("a")), mk("f", Atom("a"), Atom("b")))
    assert not could_unify(mk("f", Atom("a")), mk("g", Atom("a")))
    # a repeated variable is not checked: True here, though unify fails
    y = Var("Y")
    assert could_unify(mk("f", y, y), mk("f", Atom("a"), Atom("b")))
    assert unify(mk("f", y, y), mk("f", Atom("a"), Atom("b"))) is None


def test_could_unify_is_stack_safe():
    n = 100_000
    items = [Int(i) for i in range(n)]
    xs = mklist(items)
    assert not could_unify(xs, mklist(items[:-1] + [Atom("tail")]))
    assert could_unify(xs, mklist(items[:-1] + [Var()]))
    deep, var_deep = Atom("leaf"), Var()
    for _ in range(n):
        deep, var_deep = mk("s", deep), mk("s", var_deep)
    assert could_unify(deep, var_deep)
    assert not could_unify(deep, mk("s", Atom("leaf")))


def test_copies_are_stack_safe():
    n = 100_000
    x = Var("X")
    xs = mklist([x] * n, tail=Var())
    copy = fresh_copy(xs)
    items, tail = list_parts(copy)
    assert len(items) == n and all(c is items[0] for c in items)
    assert items[0] is not x and items[0].name == "X" and type(tail) is Var
    reg = VarRegistry()
    items, tail = list_parts(intern_named(xs, reg))
    assert len(items) == n and all(c is reg.lookup("X") for c in items)
    deep = Var("Y")
    for _ in range(n):
        deep = mk("s", deep)
    for t in (fresh_copy(deep), intern_named(deep, reg)):
        for _ in range(n):
            assert t.functor == "s"
            t = t.args[0]
        assert type(t) is Var and t.name == "Y"


def test_copying_a_ground_list_holds_no_frame_per_cell():
    xs = mklist(Int(i) for i in range(100_000))
    tracemalloc.start()
    try:
        copied = fresh_copy(xs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert copied is xs
    assert peak < 16 * 1024


def _nested(n, leaf, shape):
    """A list of n integers ending in leaf, or leaf under n nested s/1."""
    if shape == "long":
        return mklist([Int(i) for i in range(n)], tail=leaf)
    t = leaf
    for _ in range(n):
        t = mk("s", t)
    return t


@pytest.mark.parametrize("shape", ["long", "deep"])
def test_walkers_are_stack_safe(shape):
    n = 100_000
    u = Var()
    t = _nested(n, u, shape)
    same = _nested(n, u, shape)
    assert t == same and hash(t) == hash(same)
    assert t != _nested(n, Var(), shape) and t != _nested(n, Atom("end"), shape)
    if shape == "long":
        opened = "".join(f"Compound(functor='.', args=(Int(value={i}), " for i in range(n))
        assert repr(t) == opened + repr(u) + "))" * n
    else:
        assert repr(t) == "Compound(functor='s', args=(" * n + repr(u) + ",))" * n
    assert variables(t) == [u]
    assert term_equal(t, _nested(n, u, shape))
    assert not term_equal(t, _nested(n, Var(), shape))
    assert variant(t, _nested(n, Var(), shape))
    assert not variant(t, _nested(n, Atom("end"), shape))
    reg = VarRegistry()
    assert name_unnamed(t, reg) is t
    assert u.name == "_A1" and reg.lookup("_A1") is u
    u.ref = Atom("end")
    try:
        snapshot = resolve(t)
    finally:
        u.ref = None
    assert variables(snapshot) == []
    assert term_equal(snapshot, _nested(n, Atom("end"), shape))


def _raw_compounds(t):
    """Every Compound object reachable from t, bindings followed."""
    out, stack = [], [t]
    while stack:
        x = stack.pop()
        if isinstance(x, Var):
            if x.ref is not None:
                stack.append(x.ref)
        elif isinstance(x, Compound):
            out.append(x)
            stack.extend(x.args)
    return out


def test_fresh_copy_shares_only_subterms_without_cells():
    ground = mk("g", mklist([Int(1), Atom("a")]))
    x = Var("X")
    x.ref = mk("h", Int(2))
    t = mk("f", ground, mk("k", x), mk("k", Var()))
    c = fresh_copy(t)
    assert c.args[0] is ground
    assert c.args[1] is not t.args[1] and c.args[1].args[0] is x.ref
    assert c.args[2] is not t.args[2]
    rng = random.Random(11)
    for _ in range(300):
        t = gen_term(rng)
        for v in all_cells(t)[::2]:
            v.ref = gen_term(rng, depth=2, var_pool=[])
        before = {id(x) for x in _raw_compounds(t)}
        c = fresh_copy(t)
        assert variant(resolve(t), c)
        for sub in _raw_compounds(c):
            if id(sub) in before:
                assert all_cells(sub) == []


def test_intern_named_keeps_unchanged_compounds():
    reg = VarRegistry()
    ground = mk("f", mk("g", Int(1)), Var())
    assert intern_named(ground, reg) is ground
    t = mk("f", mk("g", Int(1)), Var("N"))
    out = intern_named(t, reg)
    assert out is not t and out.args[0] is t.args[0]


# unify_head against its reference: unify a copy of the clause ------------


def _blur(t, draw, pool):
    """t with some subterms replaced by variables drawn from pool.  A pool
    variable may stand in several places, so two blurs of one term can
    clash, or unify only by binding a cycle, as well as unify."""
    t = deref(t)
    if draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(pool))
    if type(t) is Compound:
        return Compound(t.functor, tuple(_blur(a, draw, pool) for a in t.args))
    return t


def _check_unify_head(goal, head, body):
    """unify_head against unify_into(fresh_copy(head :- body), goal) with the
    occurs check: the same verdict, variant instances, no stored cell bound
    and every binding undone by the trail."""
    stored = all_cells(head) + all_cells(body)
    assert all(c.ref is None for c in stored)
    goal_cells = all_cells(goal)
    before = [c.ref for c in goal_cells]
    trail = []
    got = unify_head(goal, head, body, trail)
    assert all(c.ref is None for c in stored)
    mine = None if got is None else resolve(mk("r", goal, got))
    undo_to(trail, 0)
    assert [c.ref for c in goal_cells] == before
    copy = fresh_copy(mk(":-", head, body))
    trail = []
    if not unify_into(copy.args[0], goal, trail, occurs_check=True):
        assert mine is None
    else:
        assert mine is not None and variant(mine, resolve(mk("r", goal, copy.args[1])))
    undo_to(trail, 0)
    return mine is not None


@settings(max_examples=200, deadline=None)
@given(terms(), terms(), st.data())
def test_unify_head_agrees_with_unifying_a_copy_of_the_clause(t, other, data):
    g = Var("G")
    goal = _blur(data.draw(st.sampled_from([t, other])), data.draw, [g, Var(), Var("W")])
    if data.draw(st.booleans()):  # a goal cell bound before the match
        g.ref = _blur(other, data.draw, [Var("U"), Var()])
    # stored as assertz stores it: a copy, so it shares no cell with the goal
    x, y = Var("X"), Var()
    head = _blur(t, data.draw, [x, y, Var("Z")])
    body = mk("b", data.draw(st.sampled_from([x, y, head])), _blur(other, data.draw, [x, y]))
    head, body = fresh_copy(mk(":-", head, body)).args
    _check_unify_head(goal, head, body)
    _check_unify_head(goal, head, Atom("true"))
    # pairs that unify only by binding a cycle, through a later occurrence
    # of a clause variable or through a goal variable met twice
    for v in variables(head)[:1]:
        _check_unify_head(mk("c", goal, goal), fresh_copy(mk("c", v, head)), body)
    for w in variables(goal)[:1]:
        _check_unify_head(mk("c", goal, w), mk("c", head, head), body)


def test_unify_head_examples():
    x, y, z = Var("X"), Var("Y"), Var("Z")
    rule = (mk("path", x, y), mk(",", mk("edge", x, z), mk("path", z, y)))
    a, b = Var("A"), Var("B")
    assert _check_unify_head(mk("path", Atom("n0"), a), *rule)
    trail = []
    body = unify_head(mk("path", Atom("n0"), a), *rule, trail)
    assert trail == []  # a goal variable met by a clause variable is not bound
    assert body.args[0].args[0] == Atom("n0") and body.args[1].args[1] is a
    assert body.args[0].args[1] is body.args[1].args[0] is not z
    for goal, head, ok in [
        (mk("p", a, a), mk("p", x, mk("f", x)), False),  # needs a cycle
        (mk("p", a, a), mk("p", mk("f", x), x), False),
        (mk("p", a, mk("f", a)), mk("p", x, x), False),
        (mk("p", a, b, a), mk("p", x, mk("f", x), mk("g", y)), True),
        (mk("p", Atom("a"), Atom("b")), mk("p", x, x), False),
        (mk("p", a, a), mk("p", mk("f", x), mk("f", mk("f", x))), False),
        (mk("q", Int(1)), mk("q", Str("1")), False),
        (Atom("go"), Atom("go"), True),
        (mk("p", mklist([a, b, Int(3)])), mk("p", mklist([Int(1), x], tail=y)), True),
    ]:
        assert _check_unify_head(goal, head, mk("b", x, y)) is ok, (goal, head)


def test_unify_head_is_stack_safe():
    n = 100_000
    x = Var("X")
    head = mk("p", mklist([Int(i) for i in range(n)], tail=x), _nested(n, x, "deep"))
    goal_tail, v = Var(), Var()
    goal = mk("p", mklist([Int(i) for i in range(n)], tail=goal_tail), v)
    trail = []
    body = unify_head(goal, head, mk("b", x), trail)
    assert body is not None and deref(body.args[0]) is goal_tail
    assert term_equal(deref(v), _nested(n, goal_tail, "deep"))
    assert x.ref is None
    undo_to(trail, 0)
    assert v.ref is None and goal_tail.ref is None
    assert unify_head(mk("p", Atom("nil"), mk("s", goal_tail)), head, Atom("true"), []) is None


@given(terms())
def test_fresh_copy_is_variant(t):
    assert variant(t, fresh_copy(t))


@settings(max_examples=200)
@given(terms())
def test_name_unnamed_idempotent_property(t):
    reg = VarRegistry()
    once = name_unnamed(t, reg)
    snapshot = {v.id: v.name for v in variables(once)}
    twice = name_unnamed(once, reg)
    assert {v.id: v.name for v in variables(twice)} == snapshot


def test_unify_determinism_seeded():
    rng = random.Random(7)
    for _ in range(300):
        a, b = gen_term(rng), gen_term(rng)
        first = unify(fresh_copy(a), fresh_copy(b)) is not None
        second = unify(fresh_copy(a), fresh_copy(b)) is not None
        assert first == second
