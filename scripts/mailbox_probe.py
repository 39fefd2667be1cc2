"""Print the cost of one selective receive against the depth of the mailbox.

One mailbox is filled with D messages m(K, p(K, data)), K = 0..D-1, posted
in a shuffled order, and then emptied in K order twice over:

- keyed: the pattern m(K, P) has a leftmost path that ends at the constant
  K, so the receive reads only the messages filed under that key;
- unkeyed: the pattern m(F, p(K, _)) names the same message, but its path
  ends at the variable F, so the receive tests every older message it skips.

Each receive checks the message it got by the K it bound (P's tag, or F).
A third round, drain, posts the D messages in K order and takes each with
the pattern _, as a serving loop drains a burst: every receive takes the
oldest message, so whatever this column grows by with D is the cost of the
buffer itself.

One untimed pass of the three rounds, at the first depth listed, runs
before the timed ones, so that depth does not carry first-use costs.  For
each depth it prints the mean microseconds per receive of each round.
It exits 1 if any receive returns a message other than the one asked for.

Run it as ``PYTHONPATH=src python scripts/mailbox_probe.py [--depths 16,256,4096]``.
"""

import argparse
import random
import sys
import time

from termbus.address import parse_address
from termbus.codec import Envelope, Flags
from termbus.mailbox import POLL, Mailbox
from termbus.terms import Int, Var, deref, mk, mklist

ME = parse_address("probe:mailbox@here")


class WrongMessage(Exception):
    pass


def message(k: int):
    return mk("m", Int(k), mk("p", Int(k), mklist(Int(i) for i in range(8))))


def keyed(k: int):
    p = Var()
    return mk("m", Int(k), p), lambda: deref(deref(p).args[0])


def unkeyed(k: int):
    first = Var()
    return mk("m", first, mk("p", Int(k), Var())), lambda: deref(first)


def round_us(depth: int, pattern, rng: random.Random) -> float:
    """Mean µs per receive that empties one full mailbox in K order."""
    box = Mailbox()
    for k in rng.sample(range(depth), depth):
        box.post(Envelope(message(k), ME, ME, ME, Flags(remember_names=False)))
    elapsed = 0.0
    for k in range(depth):
        pat, got = pattern(k)
        t0 = time.perf_counter()
        ok = box.recv_search(pat, timeout=POLL)
        elapsed += time.perf_counter() - t0
        if not ok or got() != Int(k):
            raise WrongMessage(f"depth {depth}: asked for {k}, got {ok and got()}")
    if len(box):
        raise WrongMessage(f"depth {depth}: {len(box)} messages left over")
    return elapsed / depth * 1e6


def drain_us(depth: int) -> float:
    """Mean µs per receive of _ that empties a mailbox filled in K order."""
    box = Mailbox()
    for k in range(depth):
        box.post(Envelope(message(k), ME, ME, ME, Flags(remember_names=False)))
    elapsed = 0.0
    for k in range(depth):
        got = Var()
        t0 = time.perf_counter()
        ok = box.recv_search(got, timeout=POLL)
        elapsed += time.perf_counter() - t0
        if not ok or deref(got).args[0] != Int(k):
            raise WrongMessage(f"drain {depth}: expected {k} next, got {ok and deref(got)}")
    return elapsed / depth * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--depths", default="16,256,4096",
                    help="comma-separated mailbox depths (default 16,256,4096)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    depths = [int(d) for d in args.depths.split(",")]
    print(f"{'depth':>6} {'keyed_us':>10} {'unkeyed_us':>11} {'drain_us':>9}")
    try:
        warm = random.Random(args.seed)  # the timed rounds keep their own shuffles
        for pattern in (keyed, unkeyed):
            round_us(depths[0], pattern, warm)
        drain_us(depths[0])
        for depth in depths:
            k_us = round_us(depth, keyed, rng)
            u_us = round_us(depth, unkeyed, rng)
            print(f"{depth:>6} {k_us:>10.1f} {u_us:>11.1f} {drain_us(depth):>9.1f}")
    except WrongMessage as e:
        print(f"wrong message: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
