"""Tuple-space service: a coordination protocol over the message runtime.

One server thread (symbol ``main_linda_thread``) accepts ``connect``
requests and forks a private handler per client.  Every message in the
protocol is sent without name memory: each operation is a self-contained
exchange, and a variable name reused across two operations must not make
them share a cell.  The handler answers that client's operations over a
store shared by every handler in the server process, so a blocking removal
in one session is released by an insert from any other.

Wire protocol.  Each request but disconnect carries R, a fresh integer of
the client's node, and every answer to it is reply(R, X) (runtime's
Node.request, Node.answer, Node.await_reply), addressed to the client:

    connect(R)                 ->  reply(R, connected)   from the new handler
    out(R, T)                  ->  reply(R, inserted)
    in(R, T)    blocking       ->  reply(R, ok(T'))      removes the matched tuple
    rd(R, T)    blocking       ->  reply(R, ok(T'))      leaves the tuple in place
    inp(R, T)   non-blocking   ->  reply(R, ok(T')) | reply(R, fail)
    rdp(R, T)   non-blocking   ->  reply(R, ok(T')) | reply(R, fail)
    disconnect                 ->  (handler exits)

T' is T instantiated by the match.  Blocking operations suspend the handler
on the store's change signal; the client simply sees a delayed reply.  An
operation that raises is answered with reply(R, error(Type, Message)),
which the client raises as LindaError.  A client awaits each reply with one
receive keyed on R, so a reply whose call timed out answers no later call.

The accept loop and every handler run on ``Node.serve``: the accept loop
takes every message and forks a handler for a connect, a handler takes its
client's messages and consumes another sender's once none of its client's
is buffered.  An unknown request, a message from another sender, and any
message to the accept loop other than connect, is consumed and logged as
``event=request_failed`` and gets no reply; the loop goes on serving.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Union

from .address import Address
from .mailbox import BLOCK, Timeout
from .runtime import Node
from .terms import Atom, Compound, Substitution, Term, Var, mk, unify_into

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
    if type(request) is not Compound or request.functor != "connect" or request.arity != 1:
        raise LindaError(f"not a connect request: {request!r}")
    node.fork(lambda: _handle(node, request.args[0], client), label="linda_handler")


def _handle(node: Node, ref: Term, client: Address) -> None:
    node.send(node.answer(ref, lambda: Atom("connected")), client, remember_names=False)
    node.serve(lambda request, _: _operate(node, request, client), from_=client)


def _operate(node: Node, r: Term, client: Address) -> Term:
    """Carry out client's request r and return its reply; disconnect ends
    the handler thread."""
    if type(r) is Atom and r.name == "disconnect":
        log.info("event=client_left client=%s", client)
        node.exit_thread()
    op = r.functor if type(r) is Compound and r.arity == 2 else None
    if op not in ("out", "in", "rd", "inp", "rdp"):
        raise LindaError(f"unknown request {r!r}")
    return node.answer(r.args[0], lambda: _perform(node, op, mk(_WRAP, r.args[1])))


def _perform(node: Node, op: str, pat: Term) -> Term:
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
    return mk("ok", pat.args[0])


# --------------------------------------------------------------------------
# client

@dataclass
class LindaSession:
    """One thread's connection to a tuple-space server.

    Methods follow the protocol above; the blocking calls accept the usual
    timeout forms, and a call that timed out leaves the session usable.
    """

    node: Node
    handler: Address

    def _call(self, op: str, t: Term, timeout: Timeout) -> Optional[Term]:
        """X of the handler's reply(R, X) to op(R, t); None on timeout."""
        ref = self.node.request(self.handler, op, t)
        return self.node.await_reply(ref, self.handler, timeout, LindaError)

    def out(self, t: Term, timeout: Timeout = BLOCK) -> None:
        if self._call("out", t, timeout) is None:
            raise LindaError("no insert acknowledgement")

    def _blocking(self, op: str, pattern: Term, timeout: Timeout):
        found = self._call(op, pattern, timeout)
        return None if found is None else _bind(pattern, found)

    def in_(self, pattern: Term, timeout: Timeout = BLOCK) -> Optional[Substitution]:
        """Remove a matching tuple, instantiating pattern; None on timeout."""
        return self._blocking("in", pattern, timeout)

    def rd(self, pattern: Term, timeout: Timeout = BLOCK) -> Optional[Substitution]:
        """Read a matching tuple without removing it; None on timeout."""
        return self._blocking("rd", pattern, timeout)

    def _probing(self, op: str, pattern: Term, timeout: Timeout) -> bool:
        found = self._call(op, pattern, timeout if isinstance(timeout, (int, float)) else BLOCK)
        if found is None:
            raise LindaError("no reply from tuple-space handler")
        if type(found) is Atom and found.name == "fail":
            return False
        return _bind(pattern, found) is not None

    def inp(self, pattern: Term, timeout: Timeout = BLOCK) -> bool:
        """Try to remove a matching tuple right now."""
        return self._probing("inp", pattern, timeout)

    def rdp(self, pattern: Term, timeout: Timeout = BLOCK) -> bool:
        """Try to read a matching tuple right now."""
        return self._probing("rdp", pattern, timeout)

    def disconnect(self) -> None:
        self.node.send(Atom("disconnect"), self.handler, remember_names=False)


def _bind(pattern: Term, found: Term) -> Substitution:
    """pattern unified with T' of the reply ok(T'); None if they clash."""
    trail: list = []
    return Substitution(trail) if unify_into(pattern, found.args[0], trail) else None


def connect(
    node: Node, server: Union[str, Address], timeout: Timeout = 5.0
) -> LindaSession:
    """Open a session: ask the server for a handler and await its greeting."""
    who = Var()
    if node.await_reply(node.request(server, "connect"), who, timeout, LindaError) is None:
        raise LindaError(f"no answer from tuple-space server {server}")
    return LindaSession(node, node._as_address(who))
