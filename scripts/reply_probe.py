"""Replay calls that time out, then check that no late reply answers a later call.

Three scenarios, each on one node whose server and client are two threads
of it (no router):

- query_all: a ``path(n0, X)`` query over a chain of N edges, timed out at
  0.01 s; once its late answer_list has arrived, ``edge(b, X)`` must
  answer ``[c]``;
- streams: 20 ``query_stream`` opens of ``path(n0, X)`` timed out at
  0.0001 s, then one ``kill_orphans``: no generator may stay live and no
  reply of a finished generator may stay in the client's mailbox; then the
  next stream, for ``edge(n3, Y)``, must answer ``[n4]``;
- linda: an ``in_`` timed out at 0.01 s, which a tuple another session puts
  satisfies late; then ``out(job(2))`` and ``rd(job(N))`` on the first
  session must read ``N = 2``.

It prints what it sees and exits 1 on a wrong answer, on a live generator
or on a leftover reply.

Run it as ``PYTHONPATH=src python scripts/reply_probe.py [--n 3000]``.
"""

import argparse
import logging
import sys
import time

from termbus import linda, query
from termbus.query import QueryError, RemoteTimeout, kill_orphans, query_all, query_stream
from termbus.runtime import Node, NodeConfig
from termbus.syntax import format_term, parse_clause, parse_term
from termbus.terms import Atom, Var, deref, mk


def settle(read, timeout: float = 60.0):
    """read() once it returns the same value twice 0.2 s apart."""
    deadline = time.monotonic() + timeout
    last = read()
    while time.monotonic() < deadline:
        time.sleep(0.2)
        now = read()
        if now == last:
            return now
        last = now
    raise TimeoutError("the mailbox never settled")


def query_node(n: int) -> Node:
    node = Node(NodeConfig(process="probe", host="probe")).start()
    node.attach("client")
    clauses = [f"edge(n{i}, n{i + 1})." for i in range(n)] + [
        "edge(a, b).", "edge(b, c).",
        "path(X, Y) :- edge(X, Y).", "path(X, Y) :- edge(X, Z), path(Z, Y).",
    ]
    for text in clauses:
        node.assert_clause(parse_clause(text))
    node.fork(lambda: query.query_server_main(node), symbol=query.SERVER_SYMBOL,
              label="query_main")
    return node


def answers(node: Node, goal, var, **kw) -> list:
    return [format_term(deref(var)) for _ in query_all(node, goal, query.SERVER_SYMBOL, **kw)]


def check_query_all(n: int) -> bool:
    node = query_node(n)
    mailbox = node.current().mailbox
    try:
        try:
            got = answers(node, mk("path", Atom("n0"), Var()), Var(), timeout=0.01)
            print(f"query_all  path(n0, X) over {n} edges answered in time ({len(got)} answers)")
        except RemoteTimeout:
            print(f"query_all  path(n0, X) over {n} edges timed out at 0.01 s")
        late = settle(lambda: len(mailbox))
        x = Var()
        got = answers(node, mk("edge", Atom("b"), x), x, timeout=30.0)
        print(f"query_all  {late} late reply buffered; then edge(b, X) -> {got}")
        return got == ["c"]
    finally:
        node.shutdown()


def check_streams(n: int) -> bool:
    node = query_node(n)
    mailbox = node.current().mailbox
    try:
        timed_out = 0
        for _ in range(20):
            try:
                query_stream(node, mk("path", Atom("n0"), Var()), query.SERVER_SYMBOL,
                             timeout=0.0001)
            except RemoteTimeout:
                timed_out += 1
        buffered = settle(lambda: (len(mailbox), node.live_threads(query.GENERATOR_LABEL)))
        print(f"streams    {timed_out} of 20 opens timed out; buffered, live: {buffered}")
        kill_orphans(node)
        deadline = time.monotonic() + 5.0
        while node.live_threads(query.GENERATOR_LABEL) and time.monotonic() < deadline:
            time.sleep(0.01)
        live = node.live_threads(query.GENERATOR_LABEL)
        left = []
        while (msg := node.recv_search(Var(), timeout="poll")) is not None:
            left.append(msg)
        print(f"streams    after one sweep: {live} generators live, {len(left)} replies left")
        ok = live == 0 and not left
        y = Var()
        try:
            s = query_stream(node, mk("edge", Atom("n3"), y), query.SERVER_SYMBOL, timeout=5.0)
            got = [format_term(deref(y)) for _ in s]
        except QueryError as e:
            got = [f"QueryError: {e}"]
        print(f"streams    the next stream edge(n3, Y) -> {got}")
        return ok and got == ["n4"]
    finally:
        node.shutdown()


def check_linda() -> bool:
    node = Node(NodeConfig(process="space", host="probe")).start()
    node.attach("client")
    node.fork(lambda: linda.serve(node), symbol=linda.SERVER_SYMBOL, label="linda_main")
    try:
        s = linda.connect(node, linda.SERVER_SYMBOL)
        other = linda.connect(node, linda.SERVER_SYMBOL)
        timed_out = s.in_(parse_term("job(X)"), timeout=0.01) is None
        other.out(parse_term("job(1)"), timeout=5.0)
        s.out(parse_term("job(2)"), timeout=5.0)
        n = Var()
        s.rd(mk("job", n), timeout=5.0)
        got = format_term(deref(n))
        print(f"linda      in_ timed out: {timed_out}; then out(job(2)), rd(job(N)) -> N = {got}")
        return got == "2"
    finally:
        node.shutdown()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, default=3000, help="edges in the chain")
    args = ap.parse_args(argv)
    logging.basicConfig(level=logging.ERROR)
    failed = [name for name, check in (("query_all", lambda: check_query_all(args.n)),
                                       ("streams", lambda: check_streams(args.n)),
                                       ("linda", check_linda))
              if not check()]
    for name in failed:
        print(f"{name}: a late reply answered a later call, or was left behind",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
