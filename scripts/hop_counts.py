"""Print the network cost of one message for the three process placements.

A message between threads of one node never touches a socket.  Between two
processes on the same host it crosses the router once (sender to router,
router to receiver: 2 data frames).  Across hosts it also crosses the peer
link (3 frames).  The counts are exact, not averages, and an invariant:
the script exits 1 when any placement costs other than 0, 2 or 3 frames.

Run it as ``PYTHONPATH=src python scripts/hop_counts.py``.
"""

import sys

from termbus.router import Router, RouterConfig
from termbus.runtime import Node, NodeConfig
from termbus.syntax import parse_term
from termbus.terms import Atom


def frames(*counted) -> int:
    return sum(c.stats()["frames_out"] for c in counted)


def same_node() -> int:
    n = Node(NodeConfig(process="solo", host="here")).start()
    n.attach("main")
    try:
        def echo():
            n.recv_search(Atom("ping"), timeout=5.0)
            n.send(Atom("pong"), "creator")

        n.fork(echo, symbol="peer")
        before = frames(n)
        n.send(Atom("ping"), "peer")
        assert n.recv_search(Atom("pong"), timeout=5.0)
        return frames(n) - before
    finally:
        n.shutdown()


def same_host() -> int:
    r = Router(RouterConfig(host="hostA")).start()
    a = Node(NodeConfig(process="alfa", host="hostA", router=r.endpoint())).start()
    b = Node(NodeConfig(process="beta", host="hostA", router=r.endpoint())).start()
    a.attach("main")
    b.attach("main")
    try:
        before = frames(a, b, r)
        a.send(parse_term("ping"), "main:beta@hostA")
        assert b.recv_search(parse_term("ping"), timeout=5.0)
        return frames(a, b, r) - before
    finally:
        b.shutdown()
        a.shutdown()
        r.stop()


def cross_host() -> int:
    rb = Router(RouterConfig(host="hostB")).start()
    ra = Router(RouterConfig(host="hostA", peers={"hostB": rb.endpoint()})).start()
    a = Node(NodeConfig(process="alfa", host="hostA", router=ra.endpoint())).start()
    b = Node(NodeConfig(process="beta", host="hostB", router=rb.endpoint())).start()
    a.attach("main")
    b.attach("main")
    try:
        before = frames(a, b, ra, rb)
        a.send(parse_term("ping"), "main:beta@hostB")
        assert b.recv_search(parse_term("ping"), timeout=5.0)
        return frames(a, b, ra, rb) - before
    finally:
        b.shutdown()
        a.shutdown()
        ra.stop()
        rb.stop()


def main() -> int:
    rows = [
        ("same node (thread to thread)", 0, same_node()),
        ("same host (one router)", 2, same_host()),
        ("cross host (two routers)", 3, cross_host()),
    ]
    width = max(len(name) for name, _, _ in rows)
    print(f"{'placement':<{width}}  data frames")
    for name, _, count in rows:
        print(f"{name:<{width}}  {count:>11}")
    wrong = [f"{name}: {count}, expected {want}" for name, want, count in rows if count != want]
    for line in wrong:
        print(f"hop count broken: {line}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
