"""Per-thread message buffers with unification-based selective receive.

Every thread owns exactly one mailbox: a single ordered buffer of envelopes.
Receiving never reorders the buffer; an operation either consumes exactly one
message or leaves the buffer untouched.  Matching an envelope is atomic
across its three components (payload, sender, reply-to): either all three
unify with the caller's patterns, or every binding made along the way is
undone.

The buffer.  It is one keyindex.KeyIndex, which numbers the messages in
arrival order and files each under the leftmost path of its payload
(keyindex.index_key), computed once when it is posted and kept in the
buffered item with its owned flag; a payload whose path ends at a variable
is filed under None.  A receive that may skip messages (recv_search, peek,
message_choice) and whose every alternative has a message pattern with a
non-None key reads only those keys' messages and the None ones, merged in
arrival order: any other message clashes with every pattern, so skipping it
unread changes no outcome.  Every other receive reads the whole buffer, and
recv_first only its first message.

Payload views.  Every candidate's payload is first compared with the
pattern by a copy-free test (``could_unify``), then its sender and reply-to
are matched; only one that passes all three is copied and unified, so a
message skipped on any of them costs no copy, and the registry learns no
name from it.  With ``remember_names`` set, and the sender's flag set too,
the payload is rebuilt against the receiving thread's variable registry, so
a name reused across messages resolves to one local cell and bindings carry
over.  Otherwise the payload must stay disjoint from everything else.  A
payload posted as owned (the sending node's private copy, which nothing
else refers to) is unified in place by a consuming receive: the trail undoes
a failed match or a rejected guard, and a consumed message leaves the buffer
with its bindings.  Any other payload, and every payload a peek looks at, is
matched as a fresh copy, so the buffered term is never bound.

Concurrency contract: any thread may post; only the owning thread receives,
peeks or commits, so at most one thread waits: an owner with nothing to
take parks on the mailbox's one park lock, which the next post or close
releases, and a wait that timed out as a post released it takes it back.
The internal lock covers buffer mutation and the parked flag only, so
guard tests run without holding it.  recv_first, recv_search and
peek take ``timeout`` (default BLOCK) and ``remember_names`` (default off)
as keywords.  Timeouts: BLOCK suspends indefinitely, POLL never suspends,
a float bounds the total suspension of the call in seconds (for iterating
operations, of the whole enumeration).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Union

from .address import Address, match_address
from .codec import Envelope
from .keyindex import KeyIndex, index_key
from .terms import (
    Substitution,
    Term,
    Var,
    VarRegistry,
    could_unify,
    fresh_copy,
    intern_named,
    undo_to,
    unify_into,
)

BLOCK = "block"
POLL = "poll"
Timeout = Union[float, int, str]

FromPattern = Union[Address, Var, None]


class MailboxClosed(Exception):
    """The owning node is shutting down; blocked receives are abandoned."""


class StaleReferenceError(Exception):
    """commit() was handed a reference to a message no longer buffered."""


@dataclass(frozen=True)
class MessageRef:
    seq: int


@dataclass
class Guard:
    """One alternative of a message_choice.

    test, when given, decides acceptance after a successful match; a False
    result undoes the bindings and the scan moves on.  body runs after the
    message is consumed and its return value becomes the choice's result.
    Tests and bodies must not receive from the same mailbox.
    """

    message: Term
    from_: FromPattern = None
    reply: FromPattern = None
    test: Optional[Callable[[], bool]] = None
    body: Optional[Callable[[], Any]] = None


# a receive's alternative as the scan reads it: message, sender, reply-to, test
_Alt = tuple[Term, FromPattern, FromPattern, Optional[Callable[[], bool]]]


class Mailbox:
    def __init__(self):
        self.registry = VarRegistry()
        self._lock = threading.Lock()
        self._park = threading.Lock()  # held, but while a post wakes the owner
        self._park.acquire()
        self._parked = False  # the owner waits on _park
        # (seq, key, env, owned): the payload's index key, and whether the
        # payload may be bound in place, both fixed when it is posted
        self._index = KeyIndex()
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def post(self, env: Envelope, owned: bool = False) -> None:
        """Append an envelope and wake the owner.  Any thread may call this.

        owned says that nothing else refers to env.payload's variable cells,
        so a consuming receive may bind them in place instead of copying.
        Posts to a closed mailbox are dropped; the sender was already told
        everything it is entitled to know by the local delivery rules.
        """
        key = index_key(env.payload)
        with self._lock:
            if self._closed:
                return
            self._index.add(key, env, owned)
            if self._parked:
                self._parked = False
                self._park.release()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._index = KeyIndex()
            if self._parked:
                self._parked = False
                self._park.release()

    # -- internals ---------------------------------------------------------

    def _match_env(
        self,
        env: Envelope,
        msg_pat: Term,
        from_pat: FromPattern,
        reply_pat: FromPattern,
        remember: bool,
        trail: list,
        in_place: bool = False,
    ) -> bool:
        if not (
            could_unify(msg_pat, env.payload)
            and (from_pat is None or match_address(from_pat, env.sender, trail))
            and (reply_pat is None or match_address(reply_pat, env.reply_to, trail))
        ):
            return False
        # name identity applies only when the sender asked for it too; a
        # sender that did not remember its names never means them as shared
        if remember and env.flags.remember_names:
            payload = intern_named(env.payload, self.registry)
        elif in_place:
            payload = env.payload
        else:
            payload = fresh_copy(env.payload)
        return unify_into(msg_pat, payload, trail)

    def _scan(
        self,
        alts: tuple[_Alt, ...],
        remember: bool,
        timeout: Timeout,
        head_only: bool = False,
        consuming: bool = False,
    ) -> Iterator[tuple[int, Envelope, int, list]]:
        """The one scan loop behind every receive.

        Yields (seq, env, i, trail) per buffered message, oldest first, that
        some alternative accepts, i being the first of them, in listed
        order, whose patterns match and whose test passes.  Its bindings
        stay in effect while the consumer holds the yield and are undone
        when the scan resumes.  At the end of the buffer the scan parks per
        timeout, then examines only newer arrivals; it ends when the timeout
        is spent, or with head_only after the first message.  When every
        alternative's message pattern has a key (and not head_only) only
        the messages filed under those keys or under None are read.
        consuming lets an owned payload be matched in place: the caller
        removes the first message yielded.
        """
        keys = (None,) if head_only else {}  # the alternatives' distinct keys
        for alt in () if head_only else alts:
            keys[index_key(alt[0])] = None
        deadline = None
        cursor = -1
        while True:
            with self._lock:
                while True:
                    if self._closed:
                        raise MailboxClosed()
                    batch = self._index.after(keys, cursor, head_only)
                    if batch:
                        break
                    if timeout == POLL:
                        return
                    wait = -1  # no bound
                    if timeout != BLOCK:
                        deadline = deadline or time.monotonic() + float(timeout)
                        wait = deadline - time.monotonic()
                        if wait <= 0:
                            return
                    self._parked = True
                    self._lock.release()
                    try:
                        woken = self._park.acquire(True, wait)
                    finally:
                        self._lock.acquire()
                    if not woken and not self._parked:  # a post released it late
                        self._park.acquire()
                    self._parked = False
            for seq, _, env, owned in batch:
                cursor = seq
                in_place = consuming and owned
                for i, (message, from_, reply, test) in enumerate(alts):
                    trail: list = []
                    if self._match_env(
                        env, message, from_, reply, remember, trail, in_place
                    ) and (test is None or test()):
                        break
                    undo_to(trail, 0)
                else:
                    continue
                yield seq, env, i, trail
                undo_to(trail, 0)
                break  # the consumer may have changed the buffer: look again
            if head_only:
                return

    def _consume(
        self, alts: tuple[_Alt, ...], remember: bool, timeout: Timeout, head_only: bool = False
    ) -> Optional[tuple[Envelope, int, list]]:
        """Remove the scan's first hit and keep its bindings: (env, index of
        the alternative that took it, trail), or None."""
        for seq, env, i, trail in self._scan(alts, remember, timeout, head_only, True):
            with self._lock:
                self._index.remove(seq)
            return env, i, trail
        return None

    # -- receive operations -------------------------------------------------

    def recv_first(
        self, msg_pat: Term, from_pat: FromPattern = None, reply_pat: FromPattern = None,
        *, timeout: Timeout = BLOCK, remember_names: bool = False,
    ) -> Optional[Substitution]:
        """Match the head of the buffer, or fail leaving it in place.

        Blocks (per timeout) only while the buffer is empty: once a first
        message exists the outcome depends on that message alone.
        """
        hit = self._consume(((msg_pat, from_pat, reply_pat, None),), remember_names, timeout, True)
        return None if hit is None else Substitution(hit[2])

    def recv_search(
        self, msg_pat: Term, from_pat: FromPattern = None, reply_pat: FromPattern = None,
        *, timeout: Timeout = BLOCK, remember_names: bool = False,
    ) -> Optional[Substitution]:
        """Consume the oldest matching message, skipping non-matching ones.

        When the scan reaches the end of the buffer the call suspends; only
        newly arrived messages are examined after that.
        """
        hit = self._consume(((msg_pat, from_pat, reply_pat, None),), remember_names, timeout)
        return None if hit is None else Substitution(hit[2])

    def peek(
        self, msg_pat: Term, from_pat: FromPattern = None, reply_pat: FromPattern = None,
        *, timeout: Timeout = BLOCK, remember_names: bool = False,
    ) -> Iterator[tuple[MessageRef, Substitution]]:
        """Enumerate matches in buffer order without consuming anything.

        Bindings from each yielded match are undone when the iteration
        resumes, so abandoning the iteration keeps the last bindings (pair
        with commit() to consume the chosen message).
        """
        for seq, _, _, trail in self._scan(
            ((msg_pat, from_pat, reply_pat, None),), remember_names, timeout
        ):
            yield MessageRef(seq), Substitution(trail)

    def commit(self, ref: MessageRef) -> None:
        """Remove a peeked message from the buffer."""
        with self._lock:
            removed = self._index.remove(ref.seq)
        if not removed:
            raise StaleReferenceError(f"message {ref.seq} is no longer buffered")

    def message_choice(self, guards: list[Guard], timeout=None) -> Any:
        """Message-major selective receive over several guarded alternatives.

        For each buffered message in arrival order, the guards are tried in
        their listed order; the first guard whose patterns unify and whose
        test passes consumes that message.  Arrival order dominates: a later
        guard fires on an earlier message before an earlier guard fires on a
        later one.  After the scan reaches the end of the buffer the call
        suspends, examining only new arrivals; ``timeout=(seconds, body)``
        bounds that suspension, measured from the moment the first scan was
        exhausted, and runs body() as the alternative.

        Name remembering is always on here, as in every high-level receive.
        """
        secs, alt = (BLOCK, None) if timeout is None else timeout
        hit = self._consume(tuple((g.message, g.from_, g.reply, g.test) for g in guards),
                            True, secs)
        if hit is None:
            return alt() if callable(alt) else alt
        _, i, trail = hit
        g = guards[i]
        return g.body() if g.body is not None else Substitution(trail)
