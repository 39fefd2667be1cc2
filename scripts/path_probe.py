"""Print what one remote Linda miss costs, thread by thread.

One process runs a router, a Linda server node and a client node as
threads, on loopback, pinned to one CPU.  The client connects, checks that
an ``inp`` of a stored tuple finds it, and then makes --n warm ``inp``
misses in a closed loop, twice over, each time on a network of its own:

- timed: every thread's CPU clock (``time.pthread_getcpuclockid``) is read
  before and after the misses;
- profiled: a ``cProfile.Profile`` enabled inside each thread's ``run``
  (the client's main thread around the misses alone) counts the calls
  that thread makes; the Python-level ones are the entries not written
  ``~`` by pstats, that is, those with a code object.

It prints CPU microseconds, Python-level calls and all calls per miss, for
each thread and in total; the threads are the client's main thread and
link pump, the router's loop, and the server's link pump and handler.  The
call counts repeat exactly between runs on one Python version; the CPU
figures do not.  It exits 1 when a miss is answered with anything but fail.

Run it as ``PYTHONPATH=src python scripts/path_probe.py [--n 2000]``.
"""

import argparse
import cProfile
import logging
import os
import sys
import threading
import time
import types

from termbus import linda
from termbus.router import Router, RouterConfig
from termbus.runtime import Node, NodeConfig
from termbus.terms import Atom, Int, Var, mk

WARM = 200  # misses before the measured ones
QUIET = 0.05  # seconds to let every thread block before a reading

# thread name -> what the report calls it; the server's handler is found by
# its ident, and its accept loop is left out, since a miss never reaches it
ROLES = {
    "MainThread": "client main",
    "client-pump": "client pump",
    "router-probe": "router",
    "space-pump": "server pump",
}
HANDLER = "server handler"


def calls(prof: cProfile.Profile) -> tuple[int, int]:
    """(Python-level, all) calls prof has counted so far."""
    py = every = 0
    for entry in prof.getstats():
        every += entry.callcount
        if isinstance(entry.code, types.CodeType):
            py += entry.callcount
    return py, every


class Network:
    """A router, a Linda server node and a client node in this process."""

    def __init__(self):
        self.router = Router(RouterConfig(host="probe")).start()
        endpoint = self.router.endpoint()
        self.server = Node(NodeConfig("space", "probe", endpoint)).start()
        self.server.fork(lambda: linda.serve(self.server), symbol=linda.SERVER_SYMBOL)
        self.client = Node(NodeConfig("client", "probe", endpoint)).start()
        self.client.attach("main")
        self.session = linda.connect(self.client, f"{linda.SERVER_SYMBOL}:space@probe")
        self.handler = self.server._threads[int(self.session.handler.thread)].pythread.ident

    def threads(self) -> dict[str, threading.Thread]:
        found = {}
        for t in threading.enumerate():
            name = HANDLER if t.ident == self.handler else ROLES.get(t.name)
            if name is not None:
                found[name] = t
        return found

    def misses(self, n: int) -> bool:
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


def readings(read, threads: dict) -> dict:
    time.sleep(QUIET)
    return {name: read(t) for name, t in threads.items()}


def timed(n: int) -> tuple[bool, dict]:
    """CPU µs per miss by thread."""
    net = Network()
    try:
        net.session.out(mk("task", Int(0), Atom("x")), timeout=5.0)
        ok = net.session.inp(mk("task", Int(0), Var()), timeout=5.0) and net.misses(WARM)
        threads = net.threads()
        clock = lambda t: time.clock_gettime(time.pthread_getcpuclockid(t.ident))
        before = readings(clock, threads)
        ok = ok and net.misses(n)
        after = readings(clock, threads)
        return ok, {k: (after[k] - before[k]) * 1e6 / n for k in threads}
    finally:
        net.close()


def profiled(n: int) -> tuple[bool, dict]:
    """(Python-level, all) calls per miss by thread."""
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
        net = Network()
    finally:
        threading.Thread.run = run
    try:
        ok = net.misses(WARM)
        threads = net.threads()
        main = profiles[threading.get_ident()] = cProfile.Profile()
        count = lambda t: calls(profiles[t.ident])
        before = readings(count, threads)
        main.enable()
        ok = ok and net.misses(n)
        main.disable()
        after = readings(count, threads)
        return ok, {k: tuple((a - b) / n for a, b in zip(after[k], before[k])) for k in threads}
    finally:
        net.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, default=2000, help="measured misses per pass")
    args = ap.parse_args(argv)
    logging.basicConfig(level=logging.ERROR)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    ok_cpu, cpu = timed(args.n)
    ok_calls, counts = profiled(args.n)
    print(f"{args.n} warm inp misses, router, server and client as threads on one CPU")
    print(f"{'thread':<16}{'cpu_us':>9}{'py_calls':>10}{'calls':>8}")
    for name in (*ROLES.values(), HANDLER):
        py, every = counts[name]
        print(f"{name:<16}{cpu[name]:>9.1f}{py:>10.0f}{every:>8.0f}")
    total_py = sum(c[0] for c in counts.values())
    total = sum(c[1] for c in counts.values())
    print(f"{'total':<16}{sum(cpu.values()):>9.1f}{total_py:>10.0f}{total:>8.0f}")
    if not (ok_cpu and ok_calls):
        print("a miss was answered with other than fail", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
