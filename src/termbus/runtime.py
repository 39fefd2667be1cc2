"""The per-process node: threads, symbolic names, clause store, send/receive.

A Node hosts any number of threads.  Each thread has an integer id, an
optional symbolic name, its own mailbox and its own variable registry; it
is live exactly while its handle is in the node's thread table, and its
handle keeps its creator's.  The handle is the only context a send or a
receive resolves against: ``self`` is the handle's own address object and
``creator`` its creator's, as they are now, symbol included, and a short
form takes the thread's process and host.
Threads map one-to-one onto host threads; mutual exclusion against other
threads' clause-store activity is available through critical() rather than
through scheduler control.

Sending is location-transparent.  A destination inside this node is handed
a deep copy of the payload directly (no frames, no sockets), posted as
owned so that its receive need not copy it again; anything else is encoded
into a wire frame and pushed to the configured router, which owns all
further delivery concerns.  Local sends to unknown threads fail loudly;
remote delivery problems are asynchronous by design and never surface at
the send call.  The link to the router runs on the router's own connection
loop (router.ConnLoop): a sending thread writes its frame in one
non-blocking send and returns, and waits only while the registered link's
write queue holds WRITE_BOUND bytes, the rule the router applies to its
producers.

The clause store is the node-wide shared state: assertion-ordered clauses
per functor/arity, each numbered when it is asserted.
thread_wait() re-runs a query after every change, under the same node lock
that assert/retract and critical() take, so a retract inside a waiting
query is atomic with the decision that it succeeded.

Each predicate is hashed on the leftmost path of its heads (keyindex,
the key mailboxes file messages under), so a lookup, retract or resolution
step visits only the clauses that share the pattern's key, merged in
assertion order with the clauses whose path ends at a variable.  A pattern
whose own path ends at a variable gets the whole predicate.  Each candidate's
head is matched in place (terms.unify_head), and no clause is copied.

Services run on Node.serve, which answers each request at its envelope's
own reply-to.  A request carries R, a fresh integer of its sender's node
(Node.request), and its answer is reply(R, X) (Node.answer), which the
client awaits with one receive keyed on R (Node.await_reply).
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Iterator, Optional

from .address import CREATOR, SELF, Address, parse_address, resolve, term_to_address
from .codec import (
    _FLAGS,
    CodecError,
    Envelope,
    encode_envelope,
    decode_envelope,
    is_register_ack,
    make_register,
)
from .router import WRITE_BOUND, ConnLoop, Holds, _Conn, endpoint_addr
from .counters import Counters
from .keyindex import KeyIndex, index_key
from .mailbox import BLOCK, Guard, Mailbox, MailboxClosed, MessageRef, Timeout
from .syntax import format_term
from .terms import (
    Atom,
    Compound,
    Int,
    Str,
    Substitution,
    Term,
    Var,
    deref,
    fresh_copy,
    name_unnamed,
    undo_to,
    unify_head,
)

log = logging.getLogger("termbus.node")

TRUE = Atom("true")
_NO_CLAUSES = KeyIndex()  # an undefined predicate's clauses; never added to
_entry = itemgetter(2)  # (head, body) of a stored clause's (seq, key, entry)
CONNECT_TIMEOUT = 5.0  # how long start() waits for the first registration
RECONNECT_MIN = 0.05  # the router link's reconnect backoff doubles between these
RECONNECT_MAX = 1.0


class TermbusError(Exception):
    """Base of the errors a node raises to its caller."""


class ThreadExit(Exception):
    """Raised by exit_thread(); unwinds the thread through its cleanup hooks."""


class NodeShutdown(Exception):
    pass


class NotAttachedError(TermbusError):
    pass


class UnknownThreadError(TermbusError):
    pass


class DuplicateSymbolError(TermbusError):
    pass


class RouterUnavailableError(TermbusError):
    pass


class ClauseError(TermbusError):
    pass


@dataclass(frozen=True)
class NodeConfig:
    process: str
    host: str = "local"
    router: Optional[str] = None  # "ip:port" of this host's router


class ThreadHandle:
    __slots__ = (
        "id",
        "symbol",
        "address",
        "label",
        "mailbox",
        "creator",
        "hooks",
        "pythread",
    )

    def __init__(self, tid: int, address: Address):
        self.id = tid
        self.symbol: Optional[str] = None
        self.address = address  # the sender of its messages, rebuilt with its symbol
        self.label: Optional[str] = None
        self.mailbox = Mailbox()
        self.creator: Optional[ThreadHandle] = None  # its address is read when used
        self.hooks: list[Callable[[], None]] = []
        self.pythread: Optional[threading.Thread] = None

    @property
    def registry(self):
        return self.mailbox.registry


class ClauseDB:
    """Assertion-ordered clauses per functor/arity, hashed on the leftmost path.

    Each predicate's clauses are one keyindex.KeyIndex of
    (seq, key, (head, body)), numbered in assertion order and filed under
    their head's index_key(), the key a mailbox files messages under;
    clauses whose key is None have a list of their own.  A pattern with a
    key gets the clauses sharing it merged by seq with the None list, so
    assertion order holds and one clause such as p(X) adds itself, not the
    whole predicate; a pattern whose own key is None gets every clause.
    lookup and clauses, which resolution calls once a goal, copy the
    candidates under the lock, a snapshot no later change alters; they and
    retract match each head in place with unify_head, which binds no stored
    cell and copies no head.

    Every method holds the node lock; mutations wake thread_wait's waiters.
    retract and lookup match heads only, with the occurs check, so no
    pattern binds a cycle.
    """

    def __init__(self, lock: threading.RLock):
        self._lock = lock
        self._cond = threading.Condition(lock)
        self._preds: dict[tuple[str, int], KeyIndex] = {}

    @staticmethod
    def split_clause(clause: Term) -> tuple[Term, Term]:
        c = deref(clause)
        if isinstance(c, Compound) and c.functor == ":-" and c.arity == 2:
            return deref(c.args[0]), c.args[1]
        return c, TRUE

    @staticmethod
    def key_of(head: Term) -> tuple[str, int]:
        head = deref(head)
        if isinstance(head, Compound):
            return (head.functor, head.arity)
        if isinstance(head, Atom):
            return (head.name, 0)
        raise ClauseError(f"clause head must be an atom or compound: {head!r}")

    def assertz(self, clause: Term) -> None:
        head, body = self.split_clause(clause)
        pred_key = self.key_of(head)
        entry = fresh_copy(Compound(":-", (head, body))).args
        key = index_key(entry[0])
        with self._lock:
            pred = self._preds.get(pred_key)
            if pred is None:
                pred = self._preds[pred_key] = KeyIndex()
            pred.add(key, entry)
            self._cond.notify_all()

    def retract(self, head_pat: Term) -> Optional[Substitution]:
        """Remove the first clause whose head unifies; bindings stay made."""
        pat = deref(head_pat)
        pred_key = self.key_of(pat)
        with self._lock:
            pred = self._preds.get(pred_key)
            for seq, _, (head, _) in (() if pred is None else pred.after((index_key(pat),))):
                trail: list = []
                if unify_head(pat, head, TRUE, trail) is not None:
                    pred.remove(seq)
                    if not pred:
                        del self._preds[pred_key]
                    self._cond.notify_all()
                    return Substitution(trail)
                undo_to(trail, 0)
            return None

    def lookup(self, head_pat: Term) -> Iterator[Substitution]:
        """Enumerate matching clauses; bindings undone as iteration advances."""
        pat = deref(head_pat)
        pred_key = self.key_of(pat)
        with self._lock:  # only the snapshot: matching binds no stored cell
            snapshot = self._preds.get(pred_key, _NO_CLAUSES).after((index_key(pat),))
        for _, _, (head, _) in snapshot:
            trail: list = []
            if unify_head(pat, head, TRUE, trail) is not None:
                yield Substitution(trail)
            undo_to(trail, 0)

    def clauses(self, head_pat: Term) -> list:
        """(head, body) of the clauses head_pat may match, in assertion order.

        These are the index candidates, not yet tried, in a new list taken
        under the node lock; the stored terms are shared and must never be
        bound, so a caller matches one with unify_head.  Empty for a defined
        predicate with no candidate as for an undefined one (see defines()).
        """
        pat = head_pat  # key_of and index_key follow a bound variable
        pred_key = (pat.functor, len(pat.args)) if type(pat) is Compound else self.key_of(pat)
        key = index_key(pat)
        with self._lock:  # a pattern with no key reads every clause in place
            pred = self._preds.get(pred_key, _NO_CLAUSES)
            return list(map(_entry, pred if key is None else pred.after((key,))))

    def defines(self, key: tuple[str, int]) -> bool:
        """True while the predicate name/arity has at least one clause."""
        with self._lock:
            return key in self._preds

    def size(self) -> int:
        with self._lock:
            return sum(map(len, self._preds.values()))


def reply(ref: Term, x: Term) -> Term:  # every service's answer x to its request ref
    return Compound("reply", (ref, x))


class Node:
    def __init__(self, config: NodeConfig):
        self.config = config
        self.process = config.process
        self.host = config.host
        self._lock = threading.RLock()  # the critical()/clause-store lock
        self.db = ClauseDB(self._lock)
        self._tables = threading.Lock()
        self._threads: dict[int, ThreadHandle] = {}
        self._symbols: dict[str, int] = {}
        self._next_tid = 0
        self._tl = threading.local()
        self._refs = itertools.count(1)  # numbers this node's requests
        self._counters = Counters("frames_out", "frames_in", "bad_frames", "dropped")
        self._undelivered = Holds(self._counters, "drop_unknown_target to=%s", 128)
        self.closing = False
        self._link = _RouterLink(self, config.router) if config.router else None

    # -- lifecycle -----------------------------------------------------------

    def start(self, wait: bool = True) -> "Node":
        if self._link:
            self._link.start()
            if wait and not self._link.ready.wait(CONNECT_TIMEOUT):
                self._link.stop()
                raise RouterUnavailableError(
                    f"no registration with router at {self.config.router}"
                )
        return self

    def shutdown(self) -> None:
        self.closing = True
        if self._link:
            self._link.stop()
        with self._tables:
            handles = list(self._threads.values())
        for h in handles:
            h.mailbox.close()
        with self._lock:
            self.db._cond.notify_all()

    # -- threads -------------------------------------------------------------

    def attach(self, symbol: Optional[str] = None) -> ThreadHandle:
        """Adopt the calling host thread as a node thread (idempotent).

        An attached top-level thread is its own creator.
        """
        h = getattr(self._tl, "handle", None)
        if h is None:
            h = self._new_handle()
            h.creator = h
            h.pythread = threading.current_thread()
            self._tl.handle = h
        if symbol is not None:
            self.set_symbol(symbol)
        return h

    def _new_handle(self) -> ThreadHandle:
        with self._tables:
            self._next_tid += 1
            h = ThreadHandle(self._next_tid, Address(self._next_tid, self.process, self.host))
            self._threads[h.id] = h
            for env in self._undelivered.take(h.id):
                h.mailbox.post(env)
            return h

    def fork(
        self,
        goal: Callable[[], Any],
        symbol: Optional[str] = None,
        label: Optional[str] = None,
    ) -> ThreadHandle:
        """Spawn a node thread running goal().

        The handle (and its mailbox) exists before the goal starts, so a
        message sent right after fork returns cannot be lost.  Cleanup hooks
        run in LIFO order whether the goal returns, fails or exits.
        """
        parent = getattr(self._tl, "handle", None)
        h = self._new_handle()
        h.label = label
        h.creator = parent or h
        if symbol is not None:
            self._bind_symbol(symbol, h)

        def runner():
            self._tl.handle = h
            try:
                goal()
            except (ThreadExit, NodeShutdown):
                pass
            except Exception:
                if not self.closing:
                    log.exception("event=thread_failed id=%d label=%s", h.id, h.label)
            finally:
                self._retire(h)

        t = threading.Thread(
            target=runner, daemon=True, name=f"{self.process}-t{h.id}"
        )
        h.pythread = t
        t.start()
        return h

    def _retire(self, h: ThreadHandle) -> None:
        for hook in reversed(h.hooks):
            try:
                hook()
            except Exception:
                if not self.closing:
                    log.exception("event=cleanup_hook_failed id=%d", h.id)
        with self._tables:  # no longer live: no send finds it from here on
            self._threads.pop(h.id, None)
            if h.symbol is not None and self._symbols.get(h.symbol) == h.id:
                del self._symbols[h.symbol]
        h.mailbox.close()

    def current(self) -> ThreadHandle:
        h = getattr(self._tl, "handle", None)
        if h is None:
            raise NotAttachedError("calling thread is not attached to this node")
        return h

    def my_id(self) -> int:
        return self.current().id

    def set_symbol(self, name: str, thread: Optional[ThreadHandle] = None) -> None:
        h = thread if thread is not None else self.current()
        self._bind_symbol(name, h)

    def _bind_symbol(self, name: str, h: ThreadHandle) -> None:
        with self._tables:
            holder = self._symbols.get(name)
            if holder is not None and holder != h.id:
                raise DuplicateSymbolError(f"symbol {name!r} already names thread {holder}")
            if h.symbol is not None and h.symbol != name:
                self._symbols.pop(h.symbol, None)
            self._symbols[name] = h.id
            h.symbol = name
            h.address = Address(name, self.process, self.host)
            # flushing inside the lock keeps held frames ahead of any frame
            # delivered directly once the name is visible
            for env in self._undelivered.take(name):
                h.mailbox.post(env)

    def on_exit(self, hook: Callable[[], None]) -> None:
        self.current().hooks.append(hook)

    def exit_thread(self):
        raise ThreadExit()

    def live_threads(self, label: Optional[str] = None) -> int:
        with self._tables:
            return sum(1 for h in self._threads.values() if label is None or h.label == label)

    # -- addressing ----------------------------------------------------------

    def self_address(self) -> Address:
        return self.current().address

    def _as_address(self, a) -> Address:
        if isinstance(a, Address):
            return a
        if isinstance(a, str):
            return parse_address(a)
        if isinstance(a, int):
            return Address(thread=a)
        if isinstance(a, ThreadHandle):
            return a.address
        return term_to_address(deref(a))  # an address term, or AddressError

    def _find_handle(self, thread_part) -> Optional[ThreadHandle]:
        # callers hold self._tables
        if isinstance(thread_part, str):
            thread_part = self._symbols.get(thread_part)
        return self._threads.get(thread_part)

    def _lookup_local(self, thread_part) -> ThreadHandle:
        with self._tables:
            h = self._find_handle(thread_part)
            if h is None:
                raise UnknownThreadError(f"no live thread {thread_part!r} in {self.process}")
            return h

    # -- send ----------------------------------------------------------------

    def send(
        self,
        msg: Term,
        to,
        reply_to=None,
        *,
        encoded: bool = True,
        remember_names: bool = True,
    ) -> None:
        """Send msg to a symbolic address (the high-level defaults).

        remember_names gives every anonymous variable in msg a generated name
        registered with this thread, so replies can mention it; encoded picks
        the binary body codec for remote hops.  Pass both as False for the
        raw low-level behaviour.
        """
        h = self.current()
        sender = h.address
        dest = self._qualified(to, h)
        reply = sender if reply_to is None else self._qualified(reply_to, h)
        payload = msg
        if remember_names:
            payload = name_unnamed(payload, h.mailbox.registry)
        flags = _FLAGS[(1 if encoded else 0) | (2 if remember_names else 0)]
        if dest.process == self.process and dest.host == self.host:
            target = self._lookup_local(dest.thread)
            target.mailbox.post(
                Envelope(fresh_copy(payload), dest, sender, reply, flags), owned=True
            )
            return
        if self._link is None:
            raise RouterUnavailableError(
                f"destination {dest} is remote and no router is configured"
            )
        self._link.send_frame(encode_envelope(Envelope(payload, dest, sender, reply, flags)))

    def _qualified(self, a, h: Optional[ThreadHandle] = None) -> Address:
        """a as a qualified address: self, creator and a short form resolve
        against the calling thread's handle h and its creator's."""
        if type(a) is not Address:
            a = self._as_address(a)
        if a.qualified():
            return a
        h = h or self.current()
        return resolve(a, h.address, h.creator.address)

    # -- receive (current thread's mailbox, name remembering on) -------------

    def _pat(self, p, h: Optional[ThreadHandle] = None):
        """An address pattern: text is parsed, and self or creator resolves
        as a send resolves it, to the very address."""
        if p is None:
            return None
        if isinstance(p, str):
            p = parse_address(p)
        if isinstance(p, Address) and (p.thread is SELF or p.thread is CREATOR):
            return self._qualified(p, h)
        return p

    def recv_first(
        self, msg_pat, from_=None, reply=None, timeout: Timeout = BLOCK,
        remember_names: bool = True,
    ):
        h = self.current()
        return h.mailbox.recv_first(msg_pat, self._pat(from_, h), self._pat(reply, h),
                              timeout=timeout, remember_names=remember_names)

    def recv_search(
        self, msg_pat, from_=None, reply=None, timeout: Timeout = BLOCK,
        remember_names: bool = True,
    ):
        h = self.current()
        return h.mailbox.recv_search(msg_pat, self._pat(from_, h), self._pat(reply, h),
                               timeout=timeout, remember_names=remember_names)

    def peek(
        self, msg_pat, from_=None, reply=None, timeout: Timeout = "poll",
        remember_names: bool = True,
    ):
        h = self.current()
        return h.mailbox.peek(msg_pat, self._pat(from_, h), self._pat(reply, h),
                              timeout=timeout, remember_names=remember_names)

    def commit(self, ref: MessageRef) -> None:
        self.current().mailbox.commit(ref)

    def message_choice(self, guards: list[Guard], timeout=None):
        guards = [
            Guard(g.message, self._pat(g.from_), self._pat(g.reply), g.test, g.body)
            for g in guards
        ]
        return self.current().mailbox.message_choice(guards, timeout)

    def serve(self, handle: Callable[[Term, Address], Optional[Term]], from_=None) -> None:
        """The serving loop: answer the calling thread's messages in arrival order.

        Each message is consumed and passed to handle(request, client),
        client being the message's own reply-to, and what that returns,
        unless None, is sent to client without name memory.  With from_
        given, from_'s messages are taken first, and another sender's only
        when none of from_'s is buffered.  A message whose handling raises,
        and one from another sender, is consumed, logged as one
        event=request_failed line without a traceback, and not answered.
        Only a closed mailbox, a node shutdown or exit_thread() ends the loop.
        """
        mailbox = self.current().mailbox
        from_ = self._pat(from_)
        while True:
            request = Var()
            env = None
            try:
                wait = BLOCK if from_ is None or not len(mailbox) else "poll"
                hit = mailbox._consume(((request, from_, None, None),), True, wait)
                if hit is None:  # none is from_'s, so the oldest is another's
                    env = mailbox._consume(((request, None, None, None),), True, "poll", True)[0]
                    raise TermbusError(f"sent by {env.sender}")
                env = hit[0]
                answer = handle(deref(request), env.reply_to)
                if answer is not None:
                    self.send(answer, env.reply_to, remember_names=False)
            except (MailboxClosed, NodeShutdown, ThreadExit):
                raise
            except Exception as e:
                log.warning("event=request_failed at=%s client=%s err=%s: %s",
                            self.self_address(), env and env.reply_to,
                            type(e).__name__, e)

    def answer(self, ref: Term, work: Callable[[], Optional[Term]]) -> Optional[Term]:
        """reply(ref, X), X what work() returns, or None when that is None.
        When work raises, X is error(Type, Message), so a fault while serving
        a request reaches its client, and the traceback is logged."""
        try:
            x = work()
        except (MailboxClosed, NodeShutdown, ThreadExit):
            raise
        except Exception as e:
            log.warning("event=request_failed at=%s err=%s: %s",
                        self.self_address(), type(e).__name__, e, exc_info=True)
            x = Compound("error", (Atom(type(e).__name__), Str(str(e))))
        return None if x is None else reply(ref, x)

    def request(self, to, op: str, *args: Term) -> Int:
        """Send the request op(R, *args) to `to` without name memory and
        return R, a fresh integer of this node that its reply names."""
        ref = Int(next(self._refs))
        self.send(Compound(op, (ref, *args)), to, remember_names=False)
        return ref

    def await_reply(self, ref: Int, from_, timeout: Timeout = BLOCK,
                    error: type = TermbusError) -> Optional[Term]:
        """X of the reply(ref, X) that from_ sends, or None when none comes
        within timeout; an error(Type, Message) reply raises error.  One
        receive keyed on ref: no other request's reply is looked at."""
        x = Var()
        if self.recv_search(reply(ref, x), from_=from_, timeout=timeout) is None:
            return None
        x = deref(x)
        if type(x) is Compound and x.functor == "error" and x.arity == 2:
            raise error(f"{from_} failed: {format_term(x.args[0])}: {format_term(x.args[1])}")
        return x

    # -- clause store ---------------------------------------------------------

    def assert_clause(self, clause: Term) -> None:
        self.db.assertz(clause)

    def retract_clause(self, head_pat: Term) -> Optional[Substitution]:
        return self.db.retract(head_pat)

    def clause_lookup(self, head_pat: Term) -> Iterator[Substitution]:
        return self.db.lookup(head_pat)

    def thread_wait(self, query: Callable[[], Any], timeout: Optional[float] = None):
        """Re-run query after every clause-store change until it is truthy.

        The query runs under the node lock, so a retract inside it is atomic
        with the success decision: of several waiters racing for one fact,
        exactly one sees it.  timeout bounds the total time suspended.
        """

        def ready():
            if self.closing:
                raise NodeShutdown()
            return query()

        with self._lock:
            result = self.db._cond.wait_for(ready, timeout)
        if not result:
            raise TimeoutError("thread_wait timed out")
        return result

    def critical(self, body: Optional[Callable[[], Any]] = None):
        """Node-wide mutual exclusion (re-entrant).

        Use as a context manager or pass a callable.  No other thread's
        clause-store mutation or critical section interleaves with the body.
        The body must not block on a mailbox receive.
        """
        if body is None:
            return self._lock
        with self._lock:
            return body()

    # -- stats ----------------------------------------------------------------

    def stats(self) -> dict:
        return self._counters.snapshot()

    # inbound from the router link
    def _deliver_inbound(self, env: Envelope) -> None:
        self._counters.add("frames_in")
        to = env.to.thread
        with self._tables:
            target = self._find_handle(to)
            if target is None:
                if isinstance(to, int) and to <= self._next_tid:
                    # ids are never reused, so this thread is gone for good
                    self._counters.add("dropped")
                    log.debug("event=drop_exited_target to=%s from=%s", env.to, env.sender)
                    return
                # its thread may not exist yet: a flushed backlog can outrun its start
                self._undelivered.put(to, env)
                return
        target.mailbox.post(env)


class _RouterLink(ConnLoop):
    """The node's connection to its host's router, on a ConnLoop of its own.

    The loop dials, sends REGISTER and reads the acknowledgement from the
    same receive buffer as every later frame.  A dial that fails, or is not
    acknowledged within DIAL_TIMEOUT, is retried at the next tick, whose
    period doubles from RECONNECT_MIN to RECONNECT_MAX while dials fail.
    Frames sent while the link is down wait in the outbox, a Holds of one
    key, and are queued ahead of any newer frame before the link is
    published, so one sender's order survives a router restart.
    ``frames_out`` counts the frames the socket has taken whole, under the
    link's lock; a failed link's unsent frames go back to the outbox.  The
    other counts are made in the loop thread, or by a sender under the lock
    while the link is down and delivers nothing.
    """

    TICK = RECONNECT_MIN  # the backoff: doubled by each failed dial
    WRITTEN = "frames_out"

    def __init__(self, node: Node, endpoint: str):
        super().__init__(node._counters)
        self.node = node
        self.addr = endpoint_addr(endpoint)
        self.ready = threading.Event()
        self._lock = threading.RLock()  # guards _conn, _outbox and _conn's queue
        self._cond = threading.Condition(self._lock)  # signals a drained queue
        self._conn: Optional[_Conn] = None  # set while registered
        self._outbox = Holds(node._counters, "outbox_overflow process=%s")

    def start(self) -> None:
        self._start(f"{self.node.process}-pump")

    def send_frame(self, frame: bytes) -> None:
        """Write frame in one non-blocking send if the queue is empty and
        leave what the socket does not take to the loop.  While the link is
        registered and its queue holds WRITE_BOUND bytes, wait first: the
        rule the router applies to its producers."""
        with self._lock:
            while (c := self._conn) is not None and c.wbytes >= WRITE_BOUND:
                self._cond.wait()
            if c is None:
                self._outbox.put(self.node.process, frame)
            elif self._queue(c, frame):  # the socket did not take all of it
                self._wake()

    def _flush(self, c: _Conn) -> None:
        with self._lock:
            super()._flush(c)
            self._cond.notify_all()

    def _tick(self) -> None:
        for c in list(self._conns):
            if c.dial_deadline is not None and time.monotonic() > c.dial_deadline:
                self._close(c)
        if self._conns:
            return
        c = self._dial(self.addr)
        if c is None:
            self.TICK = min(self.TICK * 2, RECONNECT_MAX)
            return
        self._queue(c, encode_envelope(make_register(self.node.process, self.node.host)))

    def _inbound(self, c: _Conn, frames: list[bytes]) -> None:
        for frame in frames:
            if c is not self._conn:  # the acknowledgement of REGISTER
                if not is_register_ack(decode_envelope(frame)):
                    raise CodecError("registration not acknowledged")
                self._registered(c)
                continue
            try:
                env = decode_envelope(frame)
            except Exception as e:
                log.warning("event=drop_malformed_frame err=%s", e)
                self._counters.add("bad_frames")
                continue
            if not env.flags.control:
                self.node._deliver_inbound(env)

    def _registered(self, c: _Conn) -> None:
        c.dial_deadline = None
        with self._lock:  # the frames buffered while the link was down go first
            self._queue(c, *self._outbox.take(self.node.process))
            self._conn = c
        self.TICK = RECONNECT_MIN
        self.ready.set()
        log.info("event=registered process=%s router=%s:%d", self.node.process, *self.addr)

    def _closed(self, c: _Conn) -> None:
        if c is not self._conn:  # a dial that failed
            self.TICK = min(self.TICK * 2, RECONNECT_MAX)
            return
        with self._lock:  # a sender waiting on the queue goes to the outbox
            self._conn = None
            for frame in c.wbuf:  # the outbox is empty while the link is up
                self._outbox.put(self.node.process, frame)
            self._cond.notify_all()
