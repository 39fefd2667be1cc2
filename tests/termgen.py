"""Random term generation shared by fuzz and property tests.

Two flavours: gen_term drives a seeded random.Random for cheap bulk fuzzing
with reproducible cases; terms() is a hypothesis strategy for shrinkable
property tests.  Both deliberately include operator functors, quotable atoms,
64-bit edge integers and shared variables, since those exercise the writer,
parser and codecs hardest.
"""

from __future__ import annotations

import random
import string

from hypothesis import strategies as st

from termbus.terms import Atom, Compound, Int, Str, Var, INT_MIN, INT_MAX

_PLAIN_ATOMS = ["a", "ab", "foo", "linda", "x9", "ok", "hello_world", "q_s"]
_UGLY_ATOMS = ["Hello", "two words", "it's", "a\\b", "tab\there", "", "[]", ".", ","]
_OP_FUNCTORS = [",", ":-", "=", "<", ">", ">=", "=<", "?", "??", ":", "@", "."]
_STRINGS = ["", "hi", 'say "hi"', "line\nbreak", "tab\tand\\slash", "héllo"]
_INTS = [0, 1, -1, 7, 42, -99, 12345678, INT_MIN, INT_MAX]


def gen_term(rng: random.Random, depth: int = 4, var_pool=None):
    if var_pool is None:
        var_pool = []
        for i in range(rng.randint(0, 3)):
            var_pool.append(Var(f"V{i}"))
        for _ in range(rng.randint(0, 2)):
            var_pool.append(Var())
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        kind = rng.randint(0, 3)
        if kind == 0:
            pool = _PLAIN_ATOMS if rng.random() < 0.7 else _UGLY_ATOMS
            return Atom(rng.choice(pool))
        if kind == 1:
            return Int(rng.choice(_INTS) if rng.random() < 0.5 else rng.randint(-10**6, 10**6))
        if kind == 2:
            return Str(rng.choice(_STRINGS))
        if var_pool:
            return rng.choice(var_pool)
        return Var()
    if roll < 0.55:
        # a proper list
        n = rng.randint(0, 3)
        t = Atom("[]")
        for _ in range(n):
            t = Compound(".", (gen_term(rng, depth - 1, var_pool), t))
        return t if n else Atom("[]")
    if roll < 0.65:
        functor = rng.choice(_OP_FUNCTORS)
        arity = 2 if rng.random() < 0.8 else rng.randint(1, 3)
        return Compound(functor, tuple(gen_term(rng, depth - 1, var_pool) for _ in range(arity)))
    functor = rng.choice(_PLAIN_ATOMS + _UGLY_ATOMS[:3])
    arity = rng.randint(1, 4)
    return Compound(functor, tuple(gen_term(rng, depth - 1, var_pool) for _ in range(arity)))


def _list_head(rng: random.Random, depth: int, var_pool):
    roll = rng.random()
    if roll < 0.4:
        # one-, two-, three- and ten-byte zigzag varints
        size = rng.choice((1, 2, 3, 10))
        if size == 10:
            n = rng.choice((INT_MIN, INT_MAX, rng.randint(2**62, INT_MAX)))
        else:
            lo, hi = (0, 63) if size == 1 else (2 ** (7 * size - 8), 2 ** (7 * size - 1) - 1)
            n = rng.randint(lo, hi)
        return Int(n if rng.random() < 0.5 else -n - 1)
    if roll < 0.55:
        return Atom(rng.choice(_PLAIN_ATOMS + _UGLY_ATOMS))
    if roll < 0.65:
        return Str(rng.choice(_STRINGS))
    if roll < 0.8:
        return rng.choice(var_pool)
    if depth <= 0:
        return Atom("[]")
    if roll < 0.9:
        return gen_list_term(rng, depth - 1, var_pool, rng.randint(0, 4))
    functor = rng.choice(_PLAIN_ATOMS + _OP_FUNCTORS)
    return Compound(functor, tuple(_list_head(rng, depth - 1, var_pool) for _ in range(rng.randint(1, 3))))


def gen_list_term(rng: random.Random, depth: int = 2, var_pool=None, length=None):
    """A list whose heads are integers of every varint size, atoms, strings,
    nested lists, compounds and variables shared across heads.  The tail is
    [], a variable, or a list behind one or more bound variables, and bound
    variables also sit between cells of the spine."""
    if var_pool is None:
        var_pool = [Var() for _ in range(rng.randint(1, 3))] + [Var("L")]
    if length is None:
        length = rng.choice((0, 1, 2, 3, rng.randint(4, 300)))
    roll = rng.random()
    if roll < 0.6 or depth <= 0:
        t = Atom("[]")
    elif roll < 0.8:
        t = rng.choice(var_pool + [Var()])
    else:
        t = Var()
        t.ref = gen_list_term(rng, depth - 1, var_pool, rng.randint(0, 4))
    for _ in range(length):
        if rng.random() < 0.02:
            bound = Var()
            bound.ref = t
            t = bound
        t = Compound(".", (_list_head(rng, depth, var_pool), t))
    return t


def all_cells(t):
    """Every Var object in the raw structure of t (no dereferencing)."""
    out = []
    seen = set()

    def walk(x):
        if isinstance(x, Var):
            if id(x) not in seen:
                seen.add(id(x))
                out.append(x)
                if x.ref is not None:
                    walk(x.ref)
        elif isinstance(x, Compound):
            for a in x.args:
                walk(a)

    walk(t)
    return out


# hypothesis strategy ------------------------------------------------------

_atom_names = st.one_of(
    st.sampled_from(_PLAIN_ATOMS + _UGLY_ATOMS),
    st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=6),
)


@st.composite
def terms(draw, max_depth: int = 4):
    pool_named = draw(st.integers(min_value=0, max_value=2))
    pool_unnamed = draw(st.integers(min_value=0, max_value=2))
    pool = [Var(f"V{i}") for i in range(pool_named)]
    pool += [Var() for _ in range(pool_unnamed)]

    def node(depth):
        leaf = st.one_of(
            st.builds(Atom, _atom_names),
            st.builds(Int, st.integers(min_value=INT_MIN, max_value=INT_MAX)),
            st.builds(Str, st.sampled_from(_STRINGS)),
            *([st.sampled_from(pool)] if pool else []),
        )
        if depth <= 0:
            return leaf
        compound = st.builds(
            lambda f, args: Compound(f, tuple(args)),
            st.one_of(_atom_names, st.sampled_from(_OP_FUNCTORS)),
            st.lists(node(depth - 1), min_size=1, max_size=3),
        )
        return st.one_of(leaf, compound)

    return draw(node(max_depth))
