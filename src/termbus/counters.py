"""Named event counters, as nodes and routers keep them."""

from __future__ import annotations


class Counters:
    """A fixed set of named integer counters.

    Each counter has one writer at a time, and its owner serialises the
    adds to it: a router counts in its loop thread alone, and a node's link
    counts frames_out under its own lock and everything else in its loop
    thread.  So add() takes no lock.  add() bumps one counter; a negative
    step takes back a count made just before an operation that then failed.
    snapshot() reads every counter at once (one dict copy, which the GIL
    makes atomic), in the order the names were given.
    """

    __slots__ = ("_values",)

    def __init__(self, *names: str):
        self._values = dict.fromkeys(names, 0)

    def add(self, name: str, k: int = 1) -> None:
        self._values[name] += k

    def snapshot(self) -> dict[str, int]:
        return self._values.copy()
