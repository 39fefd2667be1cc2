"""Named event counters behind one lock, as nodes and routers keep them."""

from __future__ import annotations

import threading


class Counters:
    """A fixed set of named integer counters guarded by one lock.

    add() bumps one counter; a negative step takes back a count made just
    before an operation that then failed.  snapshot() reads every counter
    at once, in the order the names were given.
    """

    __slots__ = ("_lock", "_values")

    def __init__(self, *names: str):
        self._lock = threading.Lock()
        self._values = dict.fromkeys(names, 0)

    def add(self, name: str, k: int = 1) -> None:
        with self._lock:
            self._values[name] += k

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._values)
