"""Print what one remote message exchange costs, thread by thread.

One process runs every router and node as threads, on loopback, pinned to
one CPU.  --mode picks the exchange:

- miss (the default): a router, a Linda server node and a client node.  The
  client connects, checks that an ``inp`` of a stored tuple finds it, and
  makes warm ``inp`` misses in a closed loop.  The threads are the client's
  main thread and link pump, the router's loop, and the server's link pump
  and handler; the server's accept loop is left out, since a miss never
  reaches it.
- pull: two peered routers, a query server node behind one and a client
  node behind the other.  The client opens one query stream over the
  facts item(0), item(1), ... and pulls its answers in a closed loop, each
  pull a ``next`` to the generator and an answer back, three frames a
  message.  The threads are the client's main thread and link pump, both
  routers' loops, and the server's link pump and generator thread; the
  server's serving loop is left out, since a pull never reaches it.

Either way it makes --n warm exchanges twice over, each time on a network
of its own:

- timed: every thread's CPU clock (``time.pthread_getcpuclockid``) is read
  before and after the exchanges;
- profiled: a ``cProfile.Profile`` enabled inside each thread's ``run``
  (the client's main thread around the exchanges alone) counts the calls
  that thread makes; the Python-level ones are the entries not written
  ``~`` by pstats, that is, those with a code object.

It prints CPU microseconds, Python-level calls and all calls per exchange,
for each thread and in total.  The call counts repeat exactly between runs
on one Python version; the CPU figures do not, as the shared CPU's speed
drifts.  So beside each CPU figure it prints one divided by the CPU's
slowness (``perfbench/calib.py``'s ``slowness()``: 1.0 at reference speed),
the mean of a reading taken before and one after the timed exchanges.  It
exits 1 when a miss is answered with anything but fail, or a pull with
anything but the next fact, and when a --max-py-calls bound is passed (see
pycalls.py).

Run it as ``PYTHONPATH=src python scripts/path_probe.py [--mode pull] [--n 2000]
[--max-py-calls total=130]``.
"""

import argparse
import cProfile
import logging
import os
import sys
import threading
import time

import pycalls
from termbus import linda
from termbus.query import SERVER_SYMBOL, query_server_main, query_stream
from termbus.router import Router, RouterConfig
from termbus.runtime import Node, NodeConfig
from termbus.terms import Atom, Int, Var, deref, mk

WARM = 200  # exchanges before the measured ones
QUIET = 0.05  # seconds to let every thread block before a reading

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
from calib import slowness  # noqa: E402  (read only: the benchmark's CPU speed reading)


class Network:
    """Routers and nodes in this process.  A subclass builds them in
    __init__(n) and says what one exchange is: check() makes an untimed one
    whose answer is known, exchanges(n) makes n, and each returns False on a
    wrong answer; close() tears the network down.

    ROLES maps a thread's name to what the report calls it; the server
    thread that answers is found by its ident and reported as SERVING.
    """

    ROLES: dict[str, str] = {}
    SERVING = ""
    WHAT = ""

    def threads(self) -> dict[str, threading.Thread]:
        found = {}
        for t in threading.enumerate():
            name = self.SERVING if t.ident == self.serving else self.ROLES.get(t.name)
            if name is not None:
                found[name] = t
        return found


class LindaMisses(Network):
    """A router, a Linda server node and a client node."""

    ROLES = {
        "MainThread": "client main",
        "client-pump": "client pump",
        "router-probe": "router",
        "space-pump": "server pump",
    }
    SERVING = "server handler"
    WHAT = "inp misses, router, server and client"

    def __init__(self, n: int):
        self.router = Router(RouterConfig(host="probe")).start()
        endpoint = self.router.endpoint()
        self.server = Node(NodeConfig("space", "probe", endpoint)).start()
        self.server.fork(lambda: linda.serve(self.server), symbol=linda.SERVER_SYMBOL)
        self.client = Node(NodeConfig("client", "probe", endpoint)).start()
        self.client.attach("main")
        self.session = linda.connect(self.client, f"{linda.SERVER_SYMBOL}:space@probe")
        self.serving = self.server._threads[int(self.session.handler.thread)].pythread.ident

    def check(self) -> bool:
        self.session.out(mk("task", Int(0), Atom("x")), timeout=5.0)
        return bool(self.session.inp(mk("task", Int(0), Var()), timeout=5.0))

    def exchanges(self, n: int) -> bool:
        """n inp misses; False once one is answered with other than fail."""
        for _ in range(n):
            if self.session.inp(mk("task", Int(-1), Var()), timeout=5.0):
                return False
        return True

    def close(self):
        self.session.disconnect()
        self.client.shutdown()
        self.server.shutdown()
        self.router.stop()


class StreamPulls(Network):
    """Two peered routers, a query server node and a client node; one stream."""

    ROLES = {
        "MainThread": "client main",
        "client-pump": "client pump",
        "router-hosta": "router a",
        "router-hostb": "router b",
        "qserver-pump": "server pump",
    }
    SERVING = "generator"
    WHAT = "query-stream pulls, two routers, server and client"

    def __init__(self, n: int):
        b_peers: dict[str, str] = {}  # filled in once router a has its port
        self.router_b = Router(RouterConfig(host="hostb", peers=b_peers)).start()
        self.router_a = Router(RouterConfig(
            host="hosta", peers={"hostb": self.router_b.endpoint()})).start()
        b_peers["hosta"] = self.router_a.endpoint()
        self.server = Node(NodeConfig("qserver", "hostb", self.router_b.endpoint())).start()
        for k in range(1 + WARM + n):  # one answer more than check and exchanges take
            self.server.assert_clause(mk("item", Int(k)))
        self.server.fork(lambda: query_server_main(self.server), symbol=SERVER_SYMBOL)
        self.client = Node(NodeConfig("client", "hosta", self.router_a.endpoint())).start()
        self.client.attach("main")
        self.x = Var()
        self.stream = query_stream(self.client, mk("item", self.x),
                                   f"{SERVER_SYMBOL}:qserver@hostb", timeout=5.0)
        self.serving = self.server._threads[int(self.stream.generator.thread)].pythread.ident
        self.next = 0  # the fact the next pull must bind

    def exchanges(self, n: int) -> bool:
        """n pulls; False once one binds other than the next fact."""
        for _ in range(n):
            if self.stream.pull() is None or deref(self.x) != Int(self.next):
                return False
            self.next += 1
        return True

    def check(self) -> bool:
        return self.exchanges(1)

    def close(self):
        self.stream.finish()
        self.client.shutdown()
        self.server.shutdown()
        self.router_a.stop()
        self.router_b.stop()


MODES = {"miss": LindaMisses, "pull": StreamPulls}


def readings(read, threads: dict) -> dict:
    time.sleep(QUIET)
    return {name: read(t) for name, t in threads.items()}


def timed(make, n: int) -> tuple[bool, dict, float]:
    """CPU µs per exchange by thread, and the CPU's mean slowness."""
    net = make(n)
    try:
        ok = net.check() and net.exchanges(WARM)
        threads = net.threads()
        clock = lambda t: time.clock_gettime(time.pthread_getcpuclockid(t.ident))
        slow = slowness()  # the main thread's clock is read after this
        before = readings(clock, threads)
        ok = ok and net.exchanges(n)
        after = readings(clock, threads)
        slow = (slow + slowness()) / 2
        return ok, {k: (after[k] - before[k]) * 1e6 / n for k in threads}, slow
    finally:
        net.close()


def profiled(make, n: int) -> tuple[bool, dict]:
    """(Python-level, all) calls per exchange by thread."""
    profiles: dict[int, cProfile.Profile] = {}
    run = threading.Thread.run

    def profiled_run(self):
        prof = profiles[threading.get_ident()] = cProfile.Profile()
        prof.enable()
        try:
            run(self)
        finally:
            prof.disable()

    threading.Thread.run = profiled_run
    try:
        net = make(n)
    finally:
        threading.Thread.run = run
    try:
        ok = net.check() and net.exchanges(WARM)
        threads = net.threads()
        main = profiles[threading.get_ident()] = cProfile.Profile()
        count = lambda t: pycalls.calls(profiles[t.ident])
        before = readings(count, threads)
        main.enable()
        ok = ok and net.exchanges(n)
        main.disable()
        after = readings(count, threads)
        return ok, {k: tuple((a - b) / n for a, b in zip(after[k], before[k])) for k in threads}
    finally:
        net.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--mode", choices=sorted(MODES), default="miss",
                    help="the exchange measured (default miss)")
    ap.add_argument("--n", type=int, default=2000, help="measured exchanges per pass")
    pycalls.add_option(ap, "a thread as printed, or total")
    args = ap.parse_args(argv)
    logging.basicConfig(level=logging.ERROR)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    make = MODES[args.mode]
    ok_cpu, cpu, slow = timed(make, args.n)
    ok_calls, counts = profiled(make, args.n)
    counts["total"] = tuple(map(sum, zip(*counts.values())))
    cpu["total"] = sum(cpu.values())
    print(f"{args.n} warm {make.WHAT} as threads on one CPU, slowness {slow:.2f}")
    print(f"{'thread':<16}{'cpu_us':>9}{'ref_us':>9}{'py_calls':>10}{'calls':>8}")
    for name in (*make.ROLES.values(), make.SERVING, "total"):
        py, every = counts[name]
        print(f"{name:<16}{cpu[name]:>9.1f}{cpu[name] / slow:>9.1f}{py:>10.0f}{every:>8.0f}")
    within = pycalls.within({name: c[0] for name, c in counts.items()}, args.max_py_calls)
    if not (ok_cpu and ok_calls):
        print(f"a {args.mode} got a wrong answer", file=sys.stderr)
        return 1
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
