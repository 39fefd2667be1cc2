"""The ordered, keyed store behind mailboxes and the clause store.

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

A KeyIndex is the ordered, keyed store behind a thread's mailbox and each
predicate of the clause store.  add() numbers each item itself, as
(seq, key, *fields), and keeps every item in seq order and each key's items
in seq order, the None key a list of its own.  after() reads the items past
a cursor: every one, or a pattern's keys merged by seq with the None list,
that is every stored item that can unify with the pattern, in the order it
was stored, and nothing filed under another key.  remove() takes an item by
its seq alone.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, count
from operator import itemgetter
from typing import Collection, Optional

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
    """(seq, key, *fields) items in seq order, and by key in seq order."""

    __slots__ = ("_items", "_lists", "_seqs")

    def __init__(self):
        self._items: list[tuple] = []
        self._lists: dict[Optional[tuple], list[tuple]] = {}
        self._seqs = count().__next__

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        """Every item in seq order, read in place: no add or remove meanwhile."""
        return iter(self._items)

    def add(self, key: Optional[tuple], *fields) -> None:
        """File (seq, key, *fields) under key, seq one past the last."""
        item = (self._seqs(), key) + fields
        self._items.append(item)
        lst = self._lists.get(key)
        if lst is None:
            self._lists[key] = [item]
        else:
            lst.append(item)

    def remove(self, seq: int) -> bool:
        """Take out the item numbered seq; False if none is stored."""
        items = self._items  # the head, the usual case, is taken unsearched
        i = 0 if items and items[0][0] == seq else bisect_left(items, seq, key=seq_of)
        if i == len(items) or items[i][0] != seq:
            return False
        key = items.pop(i)[1]
        lst = self._lists[key]
        del lst[0 if lst[0][0] == seq else bisect_left(lst, seq, key=seq_of)]
        if not lst:
            del self._lists[key]
        return True

    def after(
        self, keys: Collection[Optional[tuple]] = (None,), cursor: int = -1, first: bool = False
    ) -> list[tuple]:
        """The items past cursor that a pattern keyed by one of keys can
        match, in seq order, as a new list: every item when None is among
        keys (only the first with first), else those filed under one of keys
        (distinct) or under None.
        """
        if None in keys:
            items = self._items
            i = 0 if items and items[0][0] > cursor else bisect_right(items, cursor, key=seq_of)
            return items[i : i + 1] if first else items[i:]
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
