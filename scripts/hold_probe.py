"""Flood each store of held frames with keys nobody will claim.

Three floods of N frames each, every frame under a key of its own:

- router: a node sends N frames to N processes that never register, so
  the router holds them in its pending store;
- node: N envelopes reach a node for N thread symbols nobody binds, so the
  node holds them in its undelivered store;
- outbox: a node whose router is down sends N frames, so its link holds
  them in its outbox (one key: the frames go out in order when it is up).

For each store it prints the frames sent, held and dropped and the keys
held.  It exits 1 if a store holds more than router.HOLD_TOTAL frames, or
if a flood's frames do not add up at quiescence: for the router
frames_in == frames_out + queued + dropped, and for the others every frame
sent is held or dropped.

Run it as ``PYTHONPATH=src python scripts/hold_probe.py [--n 100000]``.
"""

import argparse
import logging
import socket
import sys
import time

from termbus.address import Address
from termbus.codec import Envelope, Flags
from termbus.router import HOLD_TOTAL, Router, RouterConfig
from termbus.runtime import Node, NodeConfig
from termbus.terms import Int, mk


def settle(read, timeout: float = 120.0):
    """read() once it returns the same value twice 0.2 s apart."""
    deadline = time.monotonic() + timeout
    last = read()
    while time.monotonic() < deadline:
        time.sleep(0.2)
        now = read()
        if now == last:
            return now
        last = now
    raise TimeoutError("the store never settled")


def router_flood(n: int) -> tuple[int, int, int, bool]:
    r = Router(RouterConfig(host="probe")).start()
    a = Node(NodeConfig(process="flooder", host="probe", router=r.endpoint())).start()
    a.attach("main")
    try:
        for i in range(n):
            a.send(mk("m", Int(i)), f"main:p{i}@probe", remember_names=False)
        s = settle(r.stats)
        balanced = s["frames_in"] == n == s["frames_out"] + s["queued"] + s["dropped"]
        return s["queued"], s["dropped"], len(r._pending.queues), balanced
    finally:
        a.shutdown()
        r.stop()


def node_flood(n: int) -> tuple[int, int, int, bool]:
    node = Node(NodeConfig(process="target", host="probe"))
    me = Address("main", "sender", "probe")
    for i in range(n):
        to = Address(f"s{i}", "target", "probe")
        node._deliver_inbound(Envelope(mk("m", Int(i)), to, me, me, Flags()))
    held, s = len(node._undelivered), node.stats()
    node.shutdown()
    balanced = s["frames_in"] == n == held + s["dropped"]
    return held, s["dropped"], len(node._undelivered.queues), balanced


def outbox_flood(n: int) -> tuple[int, int, int, bool]:
    with socket.socket() as s:  # a port nobody listens on
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    a = Node(NodeConfig(process="cutoff", host="probe", router=f"127.0.0.1:{port}"))
    a.start(wait=False)
    a.attach("main")
    try:
        for i in range(n):
            a.send(mk("m", Int(i)), "main:far@elsewhere", remember_names=False)
        outbox, s = a._link._outbox, a.stats()
        balanced = s["frames_out"] == 0 and len(outbox) + s["dropped"] == n
        return len(outbox), s["dropped"], len(outbox.queues), balanced
    finally:
        a.shutdown()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, default=100_000, help="frames per flood")
    args = ap.parse_args(argv)
    logging.basicConfig(level=logging.ERROR)  # one warning a drop would swamp the table
    print(f"{'store':<8} {'sent':>8} {'held':>8} {'dropped':>8} {'keys':>8}"
          f"  (total {HOLD_TOTAL})")
    failed = False
    for name, flood in (("router", router_flood), ("node", node_flood),
                        ("outbox", outbox_flood)):
        held, dropped, keys, balanced = flood(args.n)
        print(f"{name:<8} {args.n:>8} {held:>8} {dropped:>8} {keys:>8}")
        if held > HOLD_TOTAL:
            print(f"{name}: holds {held} frames, over its total", file=sys.stderr)
            failed = True
        if not balanced:
            print(f"{name}: the frames do not add up", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
