"""The leftmost-path index shared by mailboxes and the clause store.

index_key(t) follows first arguments down from t itself: each compound met
adds its functor and arity, and the path ends at the constant reached,
which adds its type and value.  So ``m(3, data)`` keys as
``("m", 2, Int, 3)`` and the atom ``ok`` as ``(Atom, "ok")``; a functor is a
string and never a type, so the flat tuple reads back one way only.  The
key is None when the path reaches an unbound variable.  Two terms whose
keys differ and are both non-None clash at the first step where the keys
differ, so they cannot unify; a constant's type is part of its key, so
``1``, ``'1'`` and ``"1"`` key apart.  Keys hold only strings, integers and
classes, so hashing and comparing them runs no Python code.

A KeyIndex files tuples whose first field is their seq under their key,
each key's list in seq order, with the None key a list of its own.  after()
merges the lists of a pattern's keys with the None list by seq: every
stored item that can unify with the pattern, in the order it was stored,
and nothing filed under another key.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain
from operator import itemgetter
from typing import Iterable, Optional

from .terms import Atom, Compound, Term, Var

seq_of = itemgetter(0)


def index_key(t: Term) -> Optional[tuple]:
    """The leftmost path of t, or None when it ends at an unbound variable."""
    path = []  # a list, since extending a tuple would copy it at each step
    while True:
        while type(t) is Var:
            if t.ref is None:
                return None
            t = t.ref
        if type(t) is Compound:
            args = t.args
            path += (t.functor, len(args))
            t = args[0]
        else:
            path += (Atom, t.name) if type(t) is Atom else (type(t), t.value)
            return tuple(path)


class KeyIndex:
    """(seq, ...) tuples by index key, each key's list in seq order."""

    __slots__ = ("_lists",)

    def __init__(self):
        self._lists: dict[Optional[tuple], list[tuple]] = {}

    def add(self, key: Optional[tuple], item: tuple) -> None:
        """File a (seq, ...) tuple; seq must exceed every seq filed before."""
        lst = self._lists.get(key)
        if lst is None:
            self._lists[key] = [item]
        else:
            lst.append(item)

    def remove(self, key: Optional[tuple], seq: int) -> None:
        lst = self._lists[key]
        # receives mostly take the oldest message of a key
        del lst[0 if lst[0][0] == seq else bisect_left(lst, seq, key=seq_of)]
        if not lst:
            del self._lists[key]

    def clear(self) -> None:
        self._lists.clear()

    def after(self, keys: Iterable[tuple], cursor: int = -1) -> list[tuple]:
        """The items filed under one of keys (distinct, none of them None) or
        under None whose seq is past cursor, in seq order, as a new list."""
        runs = []
        for key in (*keys, None):
            lst = self._lists.get(key)
            if lst and lst[-1][0] > cursor:
                runs.append(
                    lst[:] if lst[0][0] > cursor else lst[bisect_right(lst, cursor, key=seq_of):]
                )
        if len(runs) > 1:
            # sorting the joined runs merges them in C; heapq.merge's
            # Python-level loop costs several times more at these sizes
            return sorted(chain(*runs), key=seq_of)
        return runs[0] if runs else []
