"""Distributed query service: clause resolution behind a message protocol.

A serving node runs :func:`query_server_main` on a thread that names itself
``query_thread``.  Clients ask it to prove goals against the node's clause
store, either all at once or one answer at a time.  Each request carries R,
a fresh integer of the client's node, and every answer to it is reply(R, X):

    all_of(R, G)     ->  reply(R, answer_list(L))  L = every solution of G
    stream_of(R, G)  ->  reply(R, generator(A))    A = a fresh generator
    (from A)             reply(R, answer(G'))      one solution, then A
    next ->  A           waits for next/finish before searching on
    finish -> A          stops the generator early
    (from A)             reply(R, fail)            no (further) solution; A gone

A request whose handling raises is answered, by the server for all_of and
stream_of or by the generator mid-stream, with reply(R, error(Type,
Message)), which query_all and AnswerStream raise as RemoteError, a
QueryError; a stream that gets one is closed.  A client awaits each reply
with one receive keyed on R, so a reply whose caller timed out answers no
later request; the generator of an open that timed out is finished by the
next kill_orphans after its reply came.  The server runs on ``Node.serve``:
a message that is neither all_of nor stream_of is consumed and logged as
``event=request_failed``, never answered, so no server answers another's
reply; a generator reply among them has its generator finished first.

Replies go to the ``reply_to`` of the request, not its sender, so a query can
be placed on behalf of a third thread.  Every send in the protocol switches
name memory off, because each exchange is self-contained (namelessness
rules out cross-request capture when many clients reuse the same
source-level names).

Goals may carry remote annotations ``G ? Server`` and ``G ?? Server``; the
resolver delegates those subgoals to the named server, so a clause store can
spread over several nodes.  Abandoning a ``??`` stream midway leaves the
remote generator alive; the bookkeeping facts planted by
:class:`AnswerStream` let :func:`kill_orphans` chase such generators down a
whole delegation chain (every generator thread re-runs it on exit, so one
finish fans out to everything the abandoned query started).
"""

from __future__ import annotations

import logging
import operator
from typing import Iterator, Optional, Union

from .address import Address, AddressError, address_to_term
from .mailbox import BLOCK, Timeout
from .runtime import ClauseDB, ClauseError, Node, TermbusError, reply
from .syntax import format_term, parse_clause
from .terms import (
    Atom,
    Compound,
    Int,
    Substitution,
    Term,
    Var,
    VarRegistry,
    deref,
    fresh_copy,
    list_parts,
    mk,
    mklist,
    name_unnamed,
    resolve,
    undo_to,
    unify,
    unify_head,
    unify_into,
)

log = logging.getLogger("termbus.query")

SERVER_SYMBOL = "query_thread"
GENERATOR_LABEL = "ans_gen"

_NEXT, _FINISH, _FAIL = Atom("next"), Atom("finish"), Atom("fail")
_COMPARE = {"<": operator.lt, ">": operator.gt, ">=": operator.ge, "=<": operator.le}


class QueryError(Exception):
    pass


class RemoteTimeout(QueryError):
    """A remote server did not reply within the configured window."""


class RemoteError(QueryError):
    """A remote server answered the request with an error reply."""


# --------------------------------------------------------------------------
# resolution engine

def solve(node: Node, goal: Term, timeout: Optional[float] = None) -> Iterator[Substitution]:
    """Prove goal against the node's clause store, one solution per step.

    Depth-first, left to right, clauses in assertion order.  While a
    solution is current the goal term itself is instantiated; advancing the
    iterator undoes those bindings before searching on, and abandoning it
    keeps the last ones made.  Builtins: true, =, integer or atom
    comparison.  ``G ? S`` and ``G ?? S`` ship the subgoal to server S.
    A predicate with no clauses logs a diagnostic and produces no solutions,
    so a serving loop survives bad queries; a defined one with no matching
    clause simply fails.  ``=`` and heads unify with the occurs check.
    timeout bounds each remote exchange.

    The search is one loop over the goals left, as nested ``(goal, rest)``
    pairs, and a stack of choicepoints: a goal, its candidates (the list
    ClauseDB.clauses took when it was reached, which no later change
    alters, or a remote goal's answers), the index of the next one, the
    trail length then and the goals after it.  So no conjunction or
    recursion uses the Python stack.  The last candidate pops its
    choicepoint before it is tried, so a goal with one leaves none.
    unify_head matches each head in place and builds only a match's body.
    """
    trail: list = []
    goals = (goal, None)
    choices: list = []
    while True:
        if goals is None:
            yield Substitution(trail)
        else:
            g, rest = goals
            while type(g) is Var and g.ref is not None:
                g = g.ref
            f = g.functor if type(g) is Compound and len(g.args) == 2 else None
            if f == ",":
                goals = (g.args[0], (g.args[1], rest))
                continue
            if f == "=":
                proved = unify_into(g.args[0], g.args[1], trail, occurs_check=True)
            elif f in _COMPARE:
                proved = _compare(f, g.args[0], g.args[1])
            else:
                proved = type(g) is Atom and g.name == "true"
                if not proved and (candidates := _candidates(node, g, f, timeout)):
                    choices.append([g, candidates, 0, len(trail), rest])
            if proved:
                goals = rest
                continue
        # backtrack: the newest choicepoint's next candidate; the last one
        # pops its choicepoint before it is tried
        while choices:
            choice = choices[-1]
            g, candidates, i, mark, rest = choice
            while len(trail) > mark:
                trail.pop().ref = None
            if type(candidates) is not list:  # a remote goal's answers
                if next(candidates, None) is not None:
                    goals = rest
                    break
                choices.pop()
                continue
            if i + 1 == len(candidates):
                choices.pop()
            choice[2] = i + 1
            body = unify_head(g, *candidates[i], trail)
            if body is not None:
                goals = (body, rest)
                break
        else:
            undo_to(trail, 0)
            return


def _compare(op: str, a: Term, b: Term) -> bool:
    a, b = deref(a), deref(b)
    if type(a) is Int and type(b) is Int:
        return _COMPARE[op](a.value, b.value)
    if type(a) is Atom and type(b) is Atom:
        return _COMPARE[op](a.name, b.name)
    log.warning("event=bad_comparison op=%s left=%s right=%s",
                op, type(a).__name__, type(b).__name__)
    return False


def _candidates(node: Node, g: Term, f: Optional[str], timeout: Optional[float]):
    """g's candidate clauses, or a remote goal's answers, for a goal that is
    no builtin; f is g's functor when g is a compound of arity 2."""
    if f == "?" or f == "??":
        remote = query_all if f == "?" else query_stream
        return iter(remote(node, g.args[0], g.args[1], timeout=timeout))
    # diagnostics name the predicate or the type, never the goal's text:
    # a deep goal would make a long log line
    try:
        matched = node.db.clauses(g)
    except ClauseError:
        if type(g) is Var:
            log.warning("event=unbound_goal")
        else:
            log.warning("event=uncallable_goal type=%s", type(g).__name__)
        return None
    if not matched and not node.db.defines(key := ClauseDB.key_of(g)):
        log.warning("event=unknown_predicate pred=%s/%d", *key)
    return matched


def find_all(node: Node, goal: Term, timeout: Optional[float] = None) -> list:
    """Every solution of goal as an instantiated copy, in solve order."""
    name_unnamed(goal, VarRegistry())  # not the thread's: a server's would grow
    return [fresh_copy(goal) for _ in solve(node, goal, timeout=timeout)]


def load_clause_file(node: Node, path) -> int:
    """Assert every clause in a text file, one per line, final stop required.

    Blank lines and % comment lines are skipped.  Returns the clause count.
    """
    n = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            node.assert_clause(parse_clause(line))
            n += 1
    return n


# --------------------------------------------------------------------------
# server side

def query_server_main(node: Node) -> None:
    """Serving loop; run it as (or fork it on) a thread of the serving node.

    It runs on Node.serve, so each reply goes to its request's reply-to.
    all_of is answered inline: collect every solution, reply with the list,
    then sweep this thread's own remote streams (solving may have opened
    some on other servers, and the answers are already safely collected).
    stream_of gets a fresh generator thread whose address goes back to the
    client; all further traffic for that query bypasses this loop.  A
    request that raises is answered with an error reply and swept all the
    same.  Any other message is consumed and logged, never answered.
    """
    node.set_symbol(SERVER_SYMBOL)
    log.info("event=query_server_up process=%s", node.process)
    node.serve(lambda request, client: _serve_request(node, request, client))


def _serve_request(node: Node, request: Term, client: Address) -> Term:
    op = request.functor if type(request) is Compound and request.arity == 2 else None
    if op == "all_of":
        ref, call = request.args
        try:
            return node.answer(ref, lambda: mk("answer_list", mklist(find_all(node, call))))
        finally:
            kill_orphans(node)
    if op == "stream_of":
        ref, call = request.args

        def start():
            h = node.fork(ans_gen(node, ref, call, client), label=GENERATOR_LABEL)
            return mk("generator", address_to_term(h.address))

        return node.answer(ref, start)
    gen = Var()
    if unify(request, reply(Var(), mk("generator", gen))) is not None:
        _finish(node, gen)  # a stream this thread opened timed out before its reply came
    # raised, not answered: only a request names the reply its client awaits
    raise QueryError(f"not a query request: {request!r}")


def ans_gen(node: Node, ref: Term, call: Term, client: Address):
    """Thread goal: search call and feed solutions to client on demand, each
    as reply(ref, answer(G')).

    Sends the first answer unprompted, then waits for next or finish from
    the client between solutions: one receive, built once per stream and
    taken as Node.serve takes a request, so other messages stay buffered.
    An answer goes out as call stands: a remote send encodes it and a local
    one posts a copy, so the client holds a snapshot either way.  Exhaustion
    is reported with fail, and a search that raises with an error reply.
    The exit hook sweeps remote streams this search opened, on every exit
    path, which is what propagates a finish down a delegation chain.
    """
    def search():
        name_unnamed(call, VarRegistry())
        consume = node.current().mailbox._consume
        words = ((_NEXT, client, None, None), (_FINISH, client, None, None))
        for _ in solve(node, call):
            node.send(reply(ref, Compound("answer", (call,))), client, remember_names=False)
            if consume(words, False, BLOCK)[1]:  # the second word: finish
                return None
        return _FAIL

    def run():
        node.on_exit(lambda: kill_orphans(node))
        msg = node.answer(ref, search)
        if msg is not None:
            node.send(msg, client, remember_names=False)

    return run


def kill_orphans(node: Node) -> None:
    """Finish every generator this thread opened and no longer reads: those
    of its remote-stream facts, which are retracted, and those named by a
    buffered generator reply, whose open timed out.

    The receivers run their own sweep on exit, so one call here reaches
    every generator the abandoned query started, however deep.  Sends to
    generators that already exited are absorbed by the delivery drop rule,
    which makes repeated sweeps harmless.
    """
    me = Int(node.my_id())
    while True:
        gen = Var()
        if (node.recv_search(reply(Var(), mk("generator", gen)), timeout="poll") is None
                and node.retract_clause(mk("remote_thread", me, gen)) is None):
            return
        _finish(node, gen)


def _finish(node: Node, gen: Union[Address, Term]) -> None:
    """Send finish to the generator at gen, an address or an address term,
    dropping its answer if one is buffered here."""
    try:
        to = node._as_address(gen)
        node.recv_search(reply(Var(), Var()), from_=to, timeout="poll")
        node.send(_FINISH, to, remember_names=False)
    except (TermbusError, AddressError) as e:
        log.debug("event=orphan_gone err=%s", e)


# --------------------------------------------------------------------------
# client side

def query_all(
    node: Node,
    call: Term,
    server: Union[Address, Term, str],
    timeout: Optional[float] = None,
) -> Iterator[Substitution]:
    """Ask server for every solution of call at once, then replay them.

    Yields one Substitution per answer, unifying call against the answers
    in server order; bindings are undone between steps and kept on
    abandonment.  The reply is awaited by the request's reference, so
    neither another request's reply nor one that arrives after its caller
    timed out can be taken for it.
    """
    dest = node._qualified(server)
    answers = _await(node, node.request(dest, "all_of", call), dest, timeout, "answer_list")
    items, _ = list_parts(answers.args[0])
    for item in items:
        trail: list = []
        if unify_into(call, item, trail):
            yield Substitution(trail)
        undo_to(trail, 0)


def _await(node: Node, ref: Int, source: Address, timeout: Optional[Timeout],
           what: str) -> Term:
    """X of source's reply(ref, X): RemoteTimeout when it does not come
    within timeout (None waits for good), RemoteError when X is an error."""
    x = node.await_reply(ref, source, BLOCK if timeout is None else timeout, RemoteError)
    if x is None:
        raise RemoteTimeout(f"no {what} from {source} within {timeout}s")
    return x


class AnswerStream:
    """A demand-driven remote solution stream (the one-at-a-time call).

    Construction is eager: the request goes out, the generator address comes
    back, and a remote_thread fact records the live stream in this node's
    clause store.  Each pull then costs one round trip.  The fact goes away
    when the stream ends cleanly (fail received) or is finished explicitly;
    a stream dropped midway leaves it for kill_orphans, which is how an
    enclosing query's cleanup finds the generator later.

    A stream belongs to the thread that opened it.
    """

    def __init__(
        self,
        node: Node,
        call: Term,
        server: Union[Address, Term, str],
        timeout: Optional[float] = None,
    ):
        self.node = node
        self.call = call
        self.timeout: Timeout = BLOCK if timeout is None else timeout
        dest = node._qualified(server)
        self._ref = node.request(dest, "stream_of", call)
        opened = _await(node, self._ref, dest, self.timeout, "generator address")
        self.generator = node._as_address(opened.args[0])
        self._fact = mk("remote_thread", Int(node.my_id()), opened.args[0])
        node.assert_clause(self._fact)
        self._trail: list = []
        self._started = False
        self._done = False

    def pull(self) -> Optional[Substitution]:
        """Demand one answer; None once the stream is exhausted.

        The previous answer's bindings are undone first, matching the
        iteration discipline everywhere else.
        """
        if self._done:
            return None
        undo_to(self._trail, 0)
        if self._started:
            self.node.send(_NEXT, self.generator, remember_names=False)
        self._started = True
        try:
            got = _await(self.node, self._ref, self.generator, self.timeout, "answer")
        except RemoteError:
            self._done = True  # the generator exits after reporting its fault
            self._forget()
            raise
        if type(got) is Atom and got.name == "fail":
            self._done = True
            self._forget()
            return None
        if not unify_into(self.call, deref(got.args[0]), self._trail):
            raise QueryError(
                f"answer {format_term(resolve(got.args[0]))} is not an instance of the query"
            )
        return Substitution(self._trail)

    def finish(self) -> None:
        """Stop the remote generator now.  The stream is dead afterwards."""
        if not self._done:
            self._done = True
            _finish(self.node, self.generator)
            self._forget()  # we ended it, so it is known-terminated, not orphaned

    def _forget(self) -> None:
        self.node.retract_clause(self._fact)

    @property
    def closed(self) -> bool:
        return self._done

    def __iter__(self) -> Iterator[Substitution]:
        while True:
            sub = self.pull()
            if sub is None:
                return
            yield sub


def query_stream(
    node: Node,
    call: Term,
    server: Union[Address, Term, str],
    timeout: Optional[float] = None,
) -> AnswerStream:
    """Open a one-at-a-time stream for call on server.  See AnswerStream."""
    return AnswerStream(node, call, server, timeout=timeout)
