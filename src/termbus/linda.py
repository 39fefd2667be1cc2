"""Tuple-space service: a coordination protocol over the message runtime.

One server thread (symbol ``main_linda_thread``) accepts ``connect``
requests and forks a private handler per client.  Every message in the
protocol is sent without name memory: each operation is a self-contained
exchange, and a variable name reused across two operations must not make
them share a cell.  The handler answers that
client's operations over a store shared by every handler in the server
process, so a blocking removal in one session is released by an insert from
any other.

Wire protocol, all handler replies addressed to the requesting client:

    connect                ->  connected          (from the new handler)
    out(T)                 ->  inserted
    in(T)    blocking      ->  ok(T')             removes the matched tuple
    rd(T)    blocking      ->  ok(T')             leaves the tuple in place
    inp(T)   non-blocking  ->  ok(T') | fail
    rdp(T)   non-blocking  ->  ok(T') | fail
    disconnect             ->  (handler exits)

T' is T instantiated by the match.  Blocking operations suspend the handler
on the store's change signal; the client simply sees a delayed reply.

The accept loop and every handler run on ``Node.serve``: the accept loop
takes every message and answers a connect's reply-to, a handler takes only
its client's messages.  An unknown or raising request, and any message to
the accept loop other than connect, is consumed and logged as
``event=request_failed`` and gets no reply; the loop goes on serving.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Union

from .address import Address, term_to_address
from .mailbox import BLOCK, Guard, Timeout
from .runtime import Node
from .terms import Atom, Compound, Substitution, Term, Var, deref, mk

log = logging.getLogger("termbus.linda")

SERVER_SYMBOL = "main_linda_thread"
_WRAP = "tuple"  # store entries are tuple(T) clauses, one per out()


class LindaError(Exception):
    pass


# --------------------------------------------------------------------------
# server

def serve(node: Node) -> None:
    """Run the accept loop; fork this as a thread goal on the server node."""
    node.set_symbol(SERVER_SYMBOL)
    log.info("event=linda_up process=%s", node.process)
    node.serve(lambda request, client: _accept(node, request, client))


def _accept(node: Node, request: Term, client: Address) -> None:
    """Fork a handler for client on connect; anything else raises, so that
    it is logged and never answered."""
    if request != Atom("connect"):
        raise LindaError(f"not a connect request: {request!r}")
    node.fork(lambda: _handle(node, client), label="linda_handler")


def _handle(node: Node, client: Address) -> None:
    node.send(Atom("connected"), client, remember_names=False)
    node.serve(lambda request, _: _operate(node, request, client), from_=client)


def _operate(node: Node, r: Term, client: Address) -> Term:
    """Carry out client's request r and return its reply; disconnect ends
    the handler thread."""
    if r == Atom("disconnect"):
        log.info("event=client_left client=%s", client)
        node.exit_thread()
    op = r.functor if type(r) is Compound and r.arity == 1 else None
    if op not in ("out", "in", "rd", "inp", "rdp"):
        raise LindaError(f"unknown request {r!r}")
    pat = mk(_WRAP, r.args[0])
    if op == "out":
        node.assert_clause(pat)
        return Atom("inserted")
    if op in ("in", "inp"):
        found = lambda: node.retract_clause(pat)
    else:
        found = lambda: next(node.clause_lookup(pat), None)
    if op in ("in", "rd"):
        node.thread_wait(found)
    elif not found():
        return Atom("fail")
    return mk("ok", r.args[0])


# --------------------------------------------------------------------------
# client

@dataclass
class LindaSession:
    """One thread's connection to a tuple-space server.

    Methods follow the protocol above; the blocking calls accept the usual
    timeout forms.  A timed-out blocking call abandons its reply, which then
    sits in the mailbox ahead of later replies: treat the session as dead.
    """

    node: Node
    handler: Address

    def out(self, t: Term, timeout: Timeout = BLOCK) -> None:
        self.node.send(mk("out", t), self.handler, remember_names=False)
        if self.node.recv_search(
            Atom("inserted"), from_=self.handler, timeout=timeout
        ) is None:
            raise LindaError("no insert acknowledgement")

    def _blocking(self, op: str, pattern: Term, timeout: Timeout):
        self.node.send(mk(op, pattern), self.handler, remember_names=False)
        return self.node.recv_search(
            mk("ok", pattern), from_=self.handler, timeout=timeout
        )

    def in_(self, pattern: Term, timeout: Timeout = BLOCK) -> Optional[Substitution]:
        """Remove a matching tuple, instantiating pattern; None on timeout."""
        return self._blocking("in", pattern, timeout)

    def rd(self, pattern: Term, timeout: Timeout = BLOCK) -> Optional[Substitution]:
        """Read a matching tuple without removing it; None on timeout."""
        return self._blocking("rd", pattern, timeout)

    def _probing(self, op: str, pattern: Term, timeout: Timeout) -> bool:
        self.node.send(mk(op, pattern), self.handler, remember_names=False)
        return self.node.message_choice(
            [
                Guard(mk("ok", pattern), from_=self.handler, body=lambda: True),
                Guard(Atom("fail"), from_=self.handler, body=lambda: False),
            ],
            timeout=(timeout, _timed_out) if isinstance(timeout, (int, float)) else None,
        )

    def inp(self, pattern: Term, timeout: Timeout = BLOCK) -> bool:
        """Try to remove a matching tuple right now."""
        return self._probing("inp", pattern, timeout)

    def rdp(self, pattern: Term, timeout: Timeout = BLOCK) -> bool:
        """Try to read a matching tuple right now."""
        return self._probing("rdp", pattern, timeout)

    def disconnect(self) -> None:
        self.node.send(Atom("disconnect"), self.handler, remember_names=False)


def _timed_out():
    raise LindaError("no reply from tuple-space handler")


def connect(
    node: Node, server: Union[str, Address], timeout: Timeout = 5.0
) -> LindaSession:
    """Open a session: ask the server for a handler and await its greeting."""
    node.send(Atom("connect"), server, remember_names=False)
    who = Var()
    if node.recv_search(Atom("connected"), from_=who, timeout=timeout) is None:
        raise LindaError(f"no answer from tuple-space server {server}")
    return LindaSession(node, term_to_address(deref(who)))
