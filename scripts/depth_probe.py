"""Push a deep and a long term through each layer and time every step.

The deep term is N nested s/1 around an atom; the long one is the list of
the integers 0..N-1.  Each goes through, in order:

- write: format_term;
- parse: parse_term of that text, which must give the term back;
- eq, hash, repr: == and hash against a copy built apart, then repr;
- binary, text: encode_envelope and decode_envelope with each body codec;
- hop: one send with encoded=False through a router to a second process.

Then find_all(path(n0, X)) runs over an N-edge chain and must answer
n1..nN in order.

It prints the milliseconds each step took, and exits 1 on any exception or
wrong result.  N beyond the interpreter's recursion limit (1000) shows that
no layer recurses.

Run it as ``PYTHONPATH=src python scripts/depth_probe.py [--n 10000]``.
"""

import argparse
import sys
import time
import traceback

from termbus.address import Address
from termbus.codec import Envelope, Flags, decode_envelope, encode_envelope
from termbus.query import find_all
from termbus.router import Router, RouterConfig
from termbus.runtime import Node, NodeConfig
from termbus.syntax import format_term, parse_clause, parse_term
from termbus.terms import Atom, Int, Var, deref, mk, mklist

HOST = "probe"
SENDER = Address("main", "proc_a", HOST)
RECEIVER = Address("main", "proc_b", HOST)


class WrongResult(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise WrongResult(what)


def deep(n: int):
    t = Atom("leaf")
    for _ in range(n):
        t = mk("s", t)
    return t


def long(n: int):
    return mklist(Int(i) for i in range(n))


def step(name: str, fn):
    """fn's result, after printing how long fn took."""
    t0 = time.perf_counter()
    out = fn()
    print(f"  {name:<8} {(time.perf_counter() - t0) * 1e3:>10.1f} ms", flush=True)
    return out


def through_layers(build, n: int, a: Node, b: Node) -> None:
    t = build(n)
    text = step("write", lambda: format_term(t))
    check(step("parse", lambda: parse_term(text)) == t, "parse_term(format_term(t)) is not t")
    twin = build(n)
    check(step("eq", lambda: t == twin), "t == an equal copy is False")
    check(step("hash", lambda: hash(t) == hash(twin)), "equal terms hash apart")
    check(step("repr", lambda: repr(t)).startswith("Compound("), "repr is not a Compound's")
    for codec, binary in (("binary", True), ("text", False)):
        env = Envelope(mk("probe", t), RECEIVER, SENDER, SENDER, Flags(encoded=binary))
        back = step(codec, lambda: decode_envelope(encode_envelope(env)))
        check(back.payload == env.payload, f"the {codec} codec does not give the body back")

    def hop():
        a.send(mk("probe", t), "main:proc_b@" + HOST, encoded=False)
        got = Var()
        check(b.recv_first(mk("probe", got), timeout=60.0) is not None, "the hop lost it")
        return deref(got)

    check(step("hop", hop) == t, "the hop changed it")


def chain(n: int) -> None:
    node = Node(NodeConfig(process="solver", host=HOST)).start()
    try:
        node.attach("main")
        for i in range(n):
            node.assert_clause(mk("edge", Atom(f"n{i}"), Atom(f"n{i + 1}")))
        node.assert_clause(parse_clause("path(X, Y) :- edge(X, Y)."))
        node.assert_clause(parse_clause("path(X, Y) :- edge(X, Z), path(Z, Y)."))
        got = step("find_all", lambda: find_all(node, mk("path", Atom("n0"), Var())))
        check([deref(g.args[1]) for g in got] == [Atom(f"n{i}") for i in range(1, n + 1)],
              "find_all(path(n0, X)) is not n1..nN in order")
    finally:
        node.shutdown()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--n", type=int, default=10_000,
                    help="depth, length and chain size (default 10000)")
    args = ap.parse_args(argv)
    router = Router(RouterConfig(host=HOST)).start()
    nodes = []
    try:
        for process in ("proc_a", "proc_b"):
            node = Node(NodeConfig(process=process, host=HOST, router=router.endpoint()))
            nodes.append(node.start())
            node.attach("main")
        for shape, build in (("deep", deep), ("long", long)):
            print(f"{shape} term, N = {args.n}")
            through_layers(build, args.n, *nodes)
        print(f"path over a chain, N = {args.n}")
        chain(args.n)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        for node in nodes:
            node.shutdown()
        router.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
