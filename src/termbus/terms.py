"""First-order terms with destructive unification and per-thread variable naming.

A term is one of Atom, Int, Str, Var or Compound.  Lists are ordinary
compounds built from the functor ``'.'`` and the atom ``[]``; helpers at the
bottom of this module build and take them apart.

Atom, Int, Str and Compound are immutable values in ``__slots__`` classes,
so building one, as the codec does for every node it decodes, is one
allocation and one plain call.  Their ``==``, ``hash`` and ``repr`` are
those a frozen dataclass of the same fields would have: equal when of the
same class with equal fields, the hash of the tuple of fields, and
``Atom(name='a')``.

Variables are mutable binding cells.  Unification binds cells in place and
records every binding on a trail so that a failed attempt can be unwound,
leaving every cell exactly as it was.  That undo discipline is what the
mailbox matching operations and the clause store lean on.  Each cell gets a
process-wide id from one shared counter without a lock: the counter's step
is a single C call, which the GIL makes atomic, so cells made at once by
many threads still get distinct ids.

No walker recurses, so a term of any length or depth can be matched,
copied, compared, hashed, named and written.  unify_into and could_unify are
specialised loops of their own, because every receive runs them, and so is
unify_head, which matches a goal with a stored head without copying it.
Every other walker is one of three loops over an explicit stack: a
post-order rebuild (_rebuild: fresh_copy, intern_named, resolve and
unify_head's instances), a pre-order walk over
dereferenced subterms (_subterms: variables, name_unnamed, the occurs check
and the writer's name pass) and a pairwise walk (_pairwise: term_equal,
variant).  Compound's ``==``, ``hash`` and ``repr`` follow no binding, so
they are loops of their own.  fresh_copy, which every consumed remote
message runs, first scans the raw term for a variable cell (_holds_var),
a flat loop that opens no frame per node; a term without one is its own
copy and is not rebuilt.
"""

from __future__ import annotations

import itertools
from operator import is_
from typing import Callable, Iterator, Optional, Union

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

_next_cell_id = itertools.count(1).__next__  # atomic under the GIL


class Var:
    """A logic variable: a binding cell with a stable id and an optional name.

    Two occurrences of the same ``Var`` object are the same variable; the id
    exists for printing, serial assignment and registry bookkeeping.  ``ref``
    is the current binding (None while unbound).
    """

    __slots__ = ("id", "name", "ref")

    def __init__(self, name: Optional[str] = None):
        self.id = _next_cell_id()
        self.name = name
        self.ref: Optional[Term] = None

    def __repr__(self) -> str:
        return _term_repr(self)


class _Value:
    """The shared frame of the four term value classes: immutable slots.

    Assigning or deleting a field raises AttributeError.  Each class's
    __init__ writes its slots through the slot descriptors' own setters,
    so a term costs one allocation and a plain call to build.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class Atom(_Value):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set_name(self, name)

    def __eq__(self, other):
        if type(other) is not Atom:
            return NotImplemented
        return self.name == other.name

    def __hash__(self):
        return hash((self.name,))

    def __repr__(self) -> str:
        return f"Atom(name={self.name!r})"


class Int(_Value):
    __slots__ = ("value",)

    def __init__(self, value: int):
        if not INT_MIN <= value <= INT_MAX:
            raise ValueError(f"integer out of 64-bit range: {value}")
        _set_int(self, value)

    def __eq__(self, other):
        if type(other) is not Int:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"Int(value={self.value!r})"


class Str(_Value):
    __slots__ = ("value",)

    def __init__(self, value: str):
        _set_str(self, value)

    def __eq__(self, other):
        if type(other) is not Str:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"Str(value={self.value!r})"


class Compound(_Value):
    """A functor applied to one or more arguments.

    ``==``, ``hash`` and ``repr`` mean what a dataclass of the two fields
    would generate: no dereferencing, and a variable equals only itself.
    They are loops, so any depth is safe.
    """

    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: tuple):
        if not args:
            raise ValueError("zero-arity compound; use Atom instead")
        _set_functor(self, functor)
        _set_args(self, args)

    @property
    def arity(self) -> int:
        return len(self.args)

    def __eq__(self, other):
        if type(other) is not Compound:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            for x, y in zip(a.args, b.args):
                if x is y:
                    continue
                if type(x) is Compound and type(y) is Compound:
                    stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __hash__(self):
        # the pre-order sequence of functor/arity pairs and leaves fixes the term
        nodes = []
        stack = [self]
        while stack:
            x = stack.pop()
            if type(x) is Compound:
                nodes.append((x.functor, len(x.args)))
                stack.extend(reversed(x.args))
            else:
                nodes.append(x)
        return hash(tuple(nodes))

    def __repr__(self) -> str:
        return _term_repr(self)


_set_name = Atom.name.__set__
_set_int = Int.value.__set__
_set_str = Str.value.__set__
_set_functor = Compound.functor.__set__
_set_args = Compound.args.__set__


def _term_repr(t: Term) -> str:
    """The text the value and Var reprs would build by recursion, built
    in a loop.  As there, a compound met again inside its own text is
    written '...', so a cyclic binding ends.  A variable is cut the third
    time it is met inside its own text, which only a cycle of variables
    alone reaches."""
    out: list[str] = []
    open_texts: dict[int, int] = {}  # id -> how many of its texts are open
    stack: list = [t]
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
        elif type(x) is int:  # the id of a term whose text is complete
            open_texts[x] -= 1
        elif type(x) is Var:
            tag = x.name if x.name is not None else f"_G{x.id}"
            if x.ref is None:
                out.append(f"Var({tag})")
            elif open_texts.get(id(x), 0) == 2:
                out.append("...")
            else:
                open_texts[id(x)] = open_texts.get(id(x), 0) + 1
                out.append(f"Var({tag}=")
                stack += [id(x), ")", x.ref]
        elif type(x) is not Compound:
            out.append(repr(x))
        elif open_texts.get(id(x)):
            out.append("...")
        else:
            open_texts[id(x)] = 1
            out.append(f"Compound(functor={x.functor!r}, args=(")
            stack += [id(x), ",))" if len(x.args) == 1 else "))"]
            for i in range(len(x.args) - 1, 0, -1):
                stack += [x.args[i], ", "]
            stack.append(x.args[0])
    return "".join(out)


Term = Union[Atom, Int, Str, Var, Compound]

# ---------------------------------------------------------------------------
# dereference, the three traversals, inspection


def deref(t: Term) -> Term:
    """Follow variable bindings until an unbound Var or a non-Var is reached."""
    while isinstance(t, Var) and t.ref is not None:
        t = t.ref
    return t


def _subterms(t: Term) -> Iterator[Term]:
    """Every subterm of t, dereferenced, in pre-order, left to right."""
    stack = [t]
    while stack:
        x = stack.pop()
        while type(x) is Var and x.ref is not None:
            x = x.ref
        yield x
        if type(x) is Compound:
            stack.extend(reversed(x.args))


def _rebuild(t: Term, cells: dict, var: Optional[Callable[[Var], Term]] = None) -> Term:
    """t rebuilt bottom-up with each unbound variable v replaced by cells[v],
    entered first as var(v), or without var as a new cell named as v.

    Bound variables are followed.  A compound whose arguments all come back
    as the very objects it holds is kept, not rebuilt, so it is shared with
    the result.  So one holding a bound variable is always rebuilt, and one
    holding an unbound variable v is kept only when v maps to itself.
    """
    # compounds still collecting their arguments: [original, index of the
    # argument being rebuilt, the new arguments or None while all are same]
    open_: list[list] = []
    x = t
    while True:
        while type(x) is Var and x.ref is not None:
            x = x.ref
        if type(x) is Compound:
            open_.append([x, 0, None])
            x = x.args[0]
            continue
        if type(x) is Var:  # a term is never falsy
            x = cells.get(x) or cells.setdefault(x, Var(x.name) if var is None else var(x))
        while open_:
            frame = open_[-1]
            src, i, args = frame
            if args is not None:
                args.append(x)
            elif x is not src.args[i]:
                args = frame[2] = [*src.args[:i], x]
            i += 1
            if i < len(src.args):
                frame[1] = i
                x = src.args[i]
                break
            open_.pop()
            x = src if args is None else Compound(src.functor, tuple(args))
        else:
            return x


def _pairwise(a: Term, b: Term, same_vars: Callable[[Term, Term], bool]) -> bool:
    """True when a and b agree after dereferencing, position by position.

    Atomic terms compare by value and compounds by functor and arity;
    wherever either side is a variable, same_vars(x, y) decides.
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        while type(x) is Var and x.ref is not None:
            x = x.ref
        while type(y) is Var and y.ref is not None:
            y = y.ref
        if type(x) is Var or type(y) is Var:
            if not same_vars(x, y):
                return False
        elif type(x) is not type(y):
            return False
        elif type(x) is Compound:
            if x.functor != y.functor or len(x.args) != len(y.args):
                return False
            stack.extend(zip(reversed(x.args), reversed(y.args)))
        elif x != y:
            return False
    return True


def resolve(t: Term) -> Term:
    """Deep snapshot of t with every bound variable replaced by its value.

    Unbound variables are kept as the very same cells, so the result still
    shares them with the input.
    """
    return _rebuild(t, {}, lambda v: v)


def variables(t: Term) -> list[Var]:
    """Unbound variables of t in first-occurrence order (left to right)."""
    return list(dict.fromkeys(x for x in _subterms(t) if type(x) is Var))


def term_equal(a: Term, b: Term) -> bool:
    """Structural equality after dereferencing; variables compare by identity."""
    return _pairwise(a, b, is_)


def variant(a: Term, b: Term) -> bool:
    """True when a and b are equal up to a consistent renaming of variables."""
    fwd: dict[Var, Var] = {}
    rev: dict[Var, Var] = {}

    def same_vars(x: Term, y: Term) -> bool:
        return (
            type(x) is Var
            and type(y) is Var
            and fwd.setdefault(x, y) is y
            and rev.setdefault(y, x) is x
        )

    return _pairwise(a, b, same_vars)


# ---------------------------------------------------------------------------
# unification

Trail = list  # list[Var], in binding order


def undo_to(trail: Trail, mark: int) -> None:
    """Unbind every cell recorded past mark, restoring the pre-attempt state."""
    while len(trail) > mark:
        trail.pop().ref = None


def _occurs(v: Var, t: Term) -> bool:
    return type(t) is Compound and any(x is v for x in _subterms(t))


def unify_into(a: Term, b: Term, trail: Trail, occurs_check: bool = False) -> bool:
    """Destructively unify a and b, recording bindings on trail.

    Returns False on mismatch; the caller is responsible for unwinding the
    trail to its entry mark in that case.  By default no occurs-check is
    performed; pass occurs_check=True to reject cyclic bindings.  Argument
    pairs are unified left to right, depth first, from an explicit stack,
    so any length or depth is safe.
    """
    stack: list = []
    while True:
        while type(a) is Var and a.ref is not None:
            a = a.ref
        while type(b) is Var and b.ref is not None:
            b = b.ref
        if a is not b:
            if type(b) is Var and type(a) is not Var:
                a, b = b, a
            t = type(a)
            if t is Var:
                if occurs_check and _occurs(a, b):
                    return False
                a.ref = b
                trail.append(a)
            elif t is not type(b):
                return False
            elif t is Compound:
                if a.functor != b.functor or len(a.args) != len(b.args):
                    return False
                stack.extend(zip(reversed(a.args), reversed(b.args)))
            elif (a.name != b.name) if t is Atom else (a.value != b.value):
                return False
        if not stack:
            return True
        a, b = stack.pop()


def could_unify(a: Term, b: Term) -> bool:
    """Copy-free pre-test: False only when a and b cannot unify.

    A variable on either side (after dereferencing) matches anything, so the
    answer is False only on an atomic or functor/arity clash.  True is no
    promise: a repeated variable or a cell another match binds can still
    make the full unification fail.  Nothing is bound or copied, and the
    walk uses an explicit stack, so any depth is safe.

    This runs once per skipped message in a selective receive, hence the
    inlined dereferencing and field comparisons.  Every argument of a
    compound is compared before any of them is descended into, so a
    message tag in a first argument rejects at once.
    """
    stack = [((a,), (b,))]
    while stack:
        xs, ys = stack.pop()
        for x, y in zip(xs, ys):
            while type(x) is Var and x.ref is not None:
                x = x.ref
            while type(y) is Var and y.ref is not None:
                y = y.ref
            t = type(x)
            if x is y or t is Var or type(y) is Var:
                continue
            if t is not type(y):
                return False
            if t is Compound:
                if x.functor != y.functor or len(x.args) != len(y.args):
                    return False
                stack.append((x.args, y.args))
            elif (x.name != y.name) if t is Atom else (x.value != y.value):
                return False
    return True


class Substitution:
    """The bindings made by one successful match, with an undo handle.

    The bindings are already in effect on the cells themselves; this object
    records which cells were bound so the match can be rolled back.  It is
    always truthy, so ``unify(...) or fail`` style checks read naturally even
    for a match that bound nothing.
    """

    __slots__ = ("_trail",)

    def __init__(self, trail: Trail):
        self._trail = trail

    def __bool__(self) -> bool:
        return True

    @property
    def bound_cells(self) -> tuple:
        return tuple(self._trail)

    def __getitem__(self, v: Var) -> Term:
        return resolve(v)

    def undo(self) -> None:
        undo_to(self._trail, 0)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{v.name or '_G%d' % v.id}={resolve(v)!r}" for v in self._trail
        )
        return f"Substitution({inner})"


def unify(a: Term, b: Term, occurs_check: bool = False) -> Optional[Substitution]:
    """Unify two terms.  On success returns the bindings; on failure returns
    None with every cell restored to its prior state."""
    trail: Trail = []
    if unify_into(a, b, trail, occurs_check):
        return Substitution(trail)
    undo_to(trail, 0)
    return None


def unify_head(goal: Term, head: Term, body: Term, trail: Trail) -> Optional[Term]:
    """Unify goal with the stored clause head :- body, occurs check on, and
    return body as the match leaves it, or None (the caller unwinds trail).

    No stored cell is bound, so threads share stored clauses unlocked.  Each
    clause variable maps to the goal subterm it first meets; later ones unify
    with that.  A head compound meeting an unbound goal variable is built
    through the map, and the body likewise, with no call per variable.
    """
    seen: dict[Var, Term] = {}
    stack = [((head,), (goal,))]
    while stack:
        hs, gs = stack.pop()
        for h, g in zip(hs, gs):
            while type(g) is Var and g.ref is not None:
                g = g.ref
            t = type(h)
            if t is Var:
                first = seen.setdefault(h, g)
                if first is not g and not unify_into(first, g, trail, True):
                    return None
            elif type(g) is Var:
                built = _rebuild(h, seen) if t is Compound else h
                if built is not h and _occurs(g, built):
                    return None
                g.ref = built
                trail.append(g)
            elif t is not type(g):
                return None
            elif t is Compound:
                if h.functor != g.functor or len(h.args) != len(g.args):
                    return None
                stack.append((h.args, g.args))
            elif (h.name != g.name) if t is Atom else (h.value != g.value):
                return None
    return _rebuild(body, seen) if type(body) is Compound or type(body) is Var else body


# ---------------------------------------------------------------------------
# copying and naming

def _holds_var(t: Term) -> bool:
    """True when t holds a Var cell, bound or unbound.  The stack keeps the
    argument tuples still to scan, and a head's are scanned before its
    list's tail's, so a list of any length keeps a few of them."""
    stack = [(t,)]
    while stack:
        for x in reversed(stack.pop()):
            if type(x) is Compound:
                stack.append(x.args)
            elif type(x) is Var:
                return True
    return False


def fresh_copy(t: Term) -> Term:
    """Structural copy with every unbound variable replaced by a fresh cell.

    Bound variables are followed, so the copy has no binding connection to
    the original; sharing among the original's unbound variables is preserved
    in the copy, and names ride along.  A subterm holding no variable cell
    is shared with the original rather than copied.  So a term that holds
    no variable cell at all, bound or unbound, is its own copy: one flat
    scan finds that, before any rebuilding starts.
    """
    if not _holds_var(t):
        return t
    return _rebuild(t, {})


class VarRegistry:
    """Per-thread map from variable names to their binding cells.

    Looking up the same name always yields the same cell until the registry
    is cleared.  The registry also hands out generated names for anonymous
    variables; generated names use the reserved "_A<n>" shape and never
    collide with a name already present.
    """

    __slots__ = ("_cells", "_counter")

    GENERATED_PREFIX = "_A"

    def __init__(self):
        self._cells: dict[str, Var] = {}
        self._counter = 0

    def __len__(self) -> int:
        return len(self._cells)

    def lookup(self, name: str) -> Optional[Var]:
        return self._cells.get(name)

    def intern(self, name: str) -> Var:
        """The cell registered under name, creating a fresh one on first use."""
        c = self._cells.get(name)
        if c is None:
            c = Var(name)
            self._cells[name] = c
        return c

    def adopt(self, v: Var) -> None:
        """Record an already-named cell, first registration wins."""
        if v.name is None:
            raise ValueError("cannot adopt an unnamed variable")
        self._cells.setdefault(v.name, v)

    def generate_name(self) -> str:
        while True:
            self._counter += 1
            name = f"{self.GENERATED_PREFIX}{self._counter}"
            if name not in self._cells:
                return name

    def clear(self) -> None:
        self._cells.clear()
        self._counter = 0


def name_unnamed(t: Term, reg: VarRegistry) -> Term:
    """Give every unnamed unbound variable in t a freshly generated name.

    The name is written onto the cell itself (occurrences stay shared) and
    registered in reg, so a later reply that mentions the name is interned
    back to this very cell.  Named variables encountered on the way are
    adopted into the registry first, so no generated name equals one of
    theirs.  Applying the operation twice is the same as applying it once.
    """
    cells = variables(t)
    for v in cells:
        if v.name is not None:
            reg.adopt(v)
    for v in cells:
        if v.name is None:
            v.name = reg.generate_name()
            reg._cells[v.name] = v
    return t


def intern_named(t: Term, reg: VarRegistry) -> Term:
    """Rebuild t with every named variable replaced by reg's cell for that name.

    This is the receiving half of name remembering: messages from the same
    correspondent that reuse a variable name end up sharing one local cell,
    so a binding made after the first message is visible in the second.
    Unnamed variables are left as they are, and a compound none of whose
    arguments changed is kept rather than rebuilt.
    """
    return _rebuild(t, {}, lambda v: v if v.name is None else reg.intern(v.name))


# ---------------------------------------------------------------------------
# lists and small builders

NIL = Atom("[]")
CONS = "."


def mk(functor: str, *args: Term) -> Term:
    return Compound(functor, tuple(args)) if args else Atom(functor)


def mklist(items, tail: Term = NIL) -> Term:
    t = tail
    for x in reversed(list(items)):
        t = Compound(CONS, (x, t))
    return t


def list_parts(t: Term) -> tuple[list, Term]:
    """Split a cons chain into (elements, tail); tail is [] for proper lists."""
    items = []
    t = deref(t)
    while isinstance(t, Compound) and t.functor == CONS and t.arity == 2:
        items.append(t.args[0])
        t = deref(t.args[1])
    return items, t
