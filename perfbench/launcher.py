"""Child-process entry: one router or server of a workload's network.

Usage: python3 perfbench/launcher.py '<json spec>'

The spec names a role (router, echo, linda, query) and its settings.  The
process builds that role from the public termbus API the way the command-line
entry points do, prints one JSON line when it is ready, then answers commands
on standard input, one per line, each with one JSON line:

    stats    counters of the node or router, process CPU, live generator
             threads and, when traced, the layer counters
    codec    both body codecs over the data frames this process sent last
    stop     shut down and exit (end of input does the same)

With "trace" set in the spec the layer wrappers are installed before any
termbus object exists.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from calib import cpu_seconds  # noqa: E402
from tracing import Tracer, install  # noqa: E402

from termbus import linda, query  # noqa: E402
from termbus.address import term_to_address  # noqa: E402
from termbus.router import Router, RouterConfig  # noqa: E402
from termbus.runtime import Node, NodeConfig  # noqa: E402
from termbus.syntax import parse_clause  # noqa: E402
from termbus.terms import Atom, Compound, Int, Var, deref, mk  # noqa: E402

QUEUE_SAMPLE_S = 0.005


def echo_loop(node: Node, wrong: bool) -> None:
    """Reply to each message with the message itself (or, for the benchmark's
    own tests, with a wrong one)."""
    while True:
        msg, who = Var(), Var()
        node.recv_first(msg, from_=who, remember_names=False)
        reply = deref(msg)
        if wrong:
            reply = Compound("wrong", (reply,))
        node.send(reply, term_to_address(deref(who)), remember_names=False)


def sink_loop(node: Node) -> None:
    """Count one-way messages until done, then report the count to the sender."""
    count = 0
    while True:
        msg, who = Var(), Var()
        node.recv_first(msg, from_=who, remember_names=False)
        m = deref(msg)
        if isinstance(m, Atom) and m.name == "done":
            node.send(mk("counted", Int(count)), term_to_address(deref(who)),
                      remember_names=False)
            count = 0
        else:
            count += 1


class Role:
    def __init__(self, spec: dict):
        self.spec = spec
        self.router = None
        self.node = None
        self.queued_max = 0
        self.closing = False

    def start(self) -> dict:
        s = self.spec
        role = s["role"]
        if role == "router":
            self.router = Router(RouterConfig(
                host=s["host"], bind=s["bind"], peers=s.get("peers", {})
            )).start()
            if s.get("trace"):
                threading.Thread(target=self._sample_queue, daemon=True).start()
            return {"endpoint": self.router.endpoint()}
        node = self.node = Node(NodeConfig(
            process=s["process"], host=s["host"], router=s["router"]
        )).start()
        node.attach()
        if role == "echo":
            wrong = bool(s.get("wrong_echo"))
            node.fork(lambda: echo_loop(node, wrong), symbol="echo")
            node.fork(lambda: sink_loop(node), symbol="sink")
        elif role == "linda":
            node.fork(lambda: linda.serve(node), symbol=linda.SERVER_SYMBOL)
        elif role == "query":
            for text in s.get("clauses", []):
                node.assert_clause(parse_clause(text))
            node.fork(lambda: query.query_server_main(node), symbol=query.SERVER_SYMBOL)
        else:
            raise ValueError(f"unknown role {role!r}")
        return {"process": s["process"]}

    def _sample_queue(self) -> None:
        while not self.closing:
            self.queued_max = max(self.queued_max, self.router.queued())
            time.sleep(QUEUE_SAMPLE_S)

    def stats(self, tracer) -> dict:
        out = {"role": self.spec["role"], "cpu_s": cpu_seconds()}
        if self.router is not None:
            out["stats"] = self.router.stats()
            out["queued_max"] = self.queued_max
        else:
            out["stats"] = self.node.stats()
            out["live_ans_gen"] = self.node.live_threads(query.GENERATOR_LABEL)
        if tracer is not None:
            out["trace"] = tracer.snapshot()
        return out

    def stop(self) -> None:
        self.closing = True
        if self.node is not None:
            self.node.shutdown()
        if self.router is not None:
            self.router.stop()


def main(argv) -> int:
    spec = json.loads(argv[1])
    tracer = install(Tracer()) if spec.get("trace") else None
    role = Role(spec)
    reply = role.start()
    reply["ready"] = True
    print(json.dumps(reply), flush=True)
    try:
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "stats":
                print(json.dumps(role.stats(tracer)), flush=True)
            elif cmd == "codec":
                result = tracer.codec_comparison() if tracer is not None else {}
                print(json.dumps(result), flush=True)
            elif cmd == "stop":
                break
    finally:
        role.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
