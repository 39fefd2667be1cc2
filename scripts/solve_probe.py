"""Print what resolution and clause lookup cost, in milliseconds.

Two jobs, each run in one process against one node's clause store:

- query: find_all(path(n0, X)) over a 40-edge chain, asserted in a seeded
  shuffled order with the two path/2 rules, plus the first 10 answers of
  path(n5, Y), the in-process half of the query_cross_host benchmark;
- lookup: first matches over 200 tuple(task(K, oN, L)) facts with 16
  owners, the Linda server's store: by key (K bound), by owner (oN bound)
  and a miss by key, each over --calls patterns.

It prints the least time of --rounds rounds: for the query the whole job,
for a lookup one call.  Beside each time it prints the Python-level calls
of one profiled pass besides the timed ones (the query job once, each
lookup kind over --calls patterns, per call): those counted by a
``cProfile.Profile`` that have a code object, the entries pstats does not
write ``~`` (see pycalls.py).  The counts
repeat exactly between runs on one Python version; the times do not.  It
checks every answer, and exits 1 on a wrong one.  ``--max-py-calls
ROW=N``, repeatable, bounds the count of the row ROW (query, key, owner or
miss) and exits 1 when it reads more.

Run it as ``PYTHONPATH=src python scripts/solve_probe.py [--rounds 60]
[--max-py-calls query=1609]``.
"""

import argparse
import itertools
import random
import sys
import time

import pycalls
from termbus.query import find_all, solve
from termbus.runtime import Node, NodeConfig
from termbus.syntax import parse_clause
from termbus.terms import Atom, Int, Var, deref, mk

EDGES = 40
ANSWERS = 10
TUPLES = 200
OWNERS = 16


class WrongResult(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise WrongResult(what)


def best_ms(job, rounds: int) -> float:
    """The least wall milliseconds job() took over rounds calls."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        job()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def query(node: Node) -> None:
    got = find_all(node, mk("path", Atom("n0"), Var()))
    check([deref(g.args[1]) for g in got] == [Atom(f"n{i}") for i in range(1, EDGES + 1)],
          "find_all(path(n0, X)) is not n1..n40 in order")
    y = Var()
    ys = [deref(y) for _ in itertools.islice(solve(node, mk("path", Atom("n5"), y)), ANSWERS)]
    check(ys == [Atom(f"n{i}") for i in range(6, 6 + ANSWERS)],
          "path(n5, Y) does not answer n6..n15 in order")


def task(key, owner, load):
    return mk("tuple", mk("task", key, owner, load))


def patterns(kind: str, keys: list) -> list:
    if kind == "key":
        return [task(Int(k), Var(), Var()) for k in keys]
    if kind == "owner":
        return [task(Var(), Atom(f"o{k % OWNERS}"), Var()) for k in keys]
    return [task(Int(TUPLES + k), Var(), Var()) for k in keys]


def first_matches(node: Node, pats: list) -> list:
    return [next(node.clause_lookup(p), None) for p in pats]


def check_matches(kind: str, keys: list, pats: list, subs: list) -> None:
    """Check each first match of kind, then undo its bindings."""
    for k, p, sub in zip(keys, pats, subs):
        key, owner, load = (deref(a) for a in deref(p).args[0].args)
        if kind == "miss":
            check(sub is None, f"a miss found {key}")
            continue
        check(sub is not None, f"no tuple found by {kind} for {k}")
        if kind == "key":
            check(key == Int(k), f"a lookup by key {k} found {key}")
        else:
            # the first tuple of an owner is the one with the least key
            check(key == Int(k % OWNERS), f"owner o{k % OWNERS} first found {key}")
        check(owner == Atom(f"o{key.value % OWNERS}") and load == Int(key.value % 7),
              f"tuple {key} came back as ({owner}, {load})")
        sub.undo()


def lookups(node: Node, kind: str, calls: int, rounds: int,
            seed: int) -> tuple[float, float]:
    """The least milliseconds a first-match lookup of kind took over rounds
    rounds of calls lookups, and the Python-level calls one made in a
    profiled round before them, whose keys depend on seed and calls alone."""
    rng = random.Random(seed)
    keys = [rng.randrange(TUPLES) for _ in range(calls)]
    pats = patterns(kind, keys)
    subs: list = []
    counted = pycalls.py_calls(lambda: subs.extend(first_matches(node, pats)))
    check_matches(kind, keys, pats, subs)
    best = float("inf")
    for _ in range(rounds):
        keys = [rng.randrange(TUPLES) for _ in range(calls)]
        pats = patterns(kind, keys)
        t0 = time.perf_counter()
        subs = first_matches(node, pats)
        best = min(best, time.perf_counter() - t0)
        check_matches(kind, keys, pats, subs)
    return best / calls * 1e3, counted / calls


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rounds", type=int, default=60, help="rounds, best kept (default 60)")
    ap.add_argument("--calls", type=int, default=200,
                    help="lookups per round (default 200)")
    ap.add_argument("--seed", type=int, default=1)
    pycalls.add_option(ap, "query, key, owner or miss")
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    node = Node(NodeConfig(process="solver", host="probe")).start()
    counts = {}
    try:
        node.attach("main")
        order = list(range(EDGES))
        rng.shuffle(order)
        for i in order:
            node.assert_clause(mk("edge", Atom(f"n{i}"), Atom(f"n{i + 1}")))
        node.assert_clause(parse_clause("path(X, Y) :- edge(X, Y)."))
        node.assert_clause(parse_clause("path(X, Y) :- edge(X, Z), path(Z, Y)."))
        for k in range(TUPLES):
            node.assert_clause(task(Int(k), Atom(f"o{k % OWNERS}"), Int(k % 7)))
        ms = best_ms(lambda: query(node), args.rounds)
        counts["query"] = pycalls.py_calls(lambda: query(node))
        print(f"query    {ms:>9.3f} ms {counts['query']:>8} py_calls"
              f"  (find_all over {EDGES} edges + {ANSWERS} answers)")
        for kind in ("key", "owner", "miss"):
            ms, counts[kind] = lookups(node, kind, args.calls, args.rounds, args.seed)
            print(f"{kind:<8} {ms:>9.4f} ms {counts[kind]:>8.1f} py_calls"
                  f"  (one lookup over {TUPLES} tuples)")
    except WrongResult as e:
        print(f"wrong result: {e}", file=sys.stderr)
        return 1
    finally:
        node.shutdown()
    return 0 if pycalls.within(counts, args.max_py_calls) else 1


if __name__ == "__main__":
    sys.exit(main())
