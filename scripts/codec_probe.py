"""Print what the binary body codec costs, in CPU µs per payload.

Three payloads, those the rpc_same_host benchmark rotates:

- atom:   the atom ping;
- job/4:  job(7, grind, [0..9], X), with X an unbound variable;
- list N: a proper list of N seeded integers, one row per size.

For each it encodes a binary-bodied envelope with encode_envelope, decodes
the frame with decode_envelope and copies the decoded payload with
fresh_copy, and prints the frame size and the CPU time of each step per
call: the best of --rounds rounds of --calls calls.  It exits 1 if a decoded
payload is not a variant of the one encoded, or if encoding the decoded
envelope again does not give back the very same frame.

Run it as ``PYTHONPATH=src python scripts/codec_probe.py [--sizes 16,256,4096]``.
"""

import argparse
import random
import sys
import time

from termbus.address import parse_address
from termbus.codec import Envelope, Flags, decode_envelope, encode_envelope
from termbus.terms import Atom, Int, Var, fresh_copy, mk, mklist, variant

TO = parse_address("echo:echo_proc@hosta")
FROM = parse_address("main:client@hosta")


def payloads(sizes, rng: random.Random):
    yield "atom", Atom("ping")
    yield "job/4", mk("job", Int(7), Atom("grind"), mklist(Int(k) for k in range(10)), Var())
    for n in sizes:
        yield f"list {n}", mklist(Int(rng.randrange(-10**6, 10**6)) for _ in range(n))


def cpu_us(fn, arg, calls: int, rounds: int) -> float:
    """The least CPU µs per call of fn(arg) over rounds of calls."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.process_time()
        for _ in range(calls):
            fn(arg)
        best = min(best, time.process_time() - t0)
    return best / calls * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sizes", default="16,256,4096",
                    help="comma-separated list lengths (default 16,256,4096)")
    ap.add_argument("--calls", type=int, default=200, help="calls per round (default 200)")
    ap.add_argument("--rounds", type=int, default=5, help="rounds, best kept (default 5)")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    sizes = [int(n) for n in args.sizes.split(",")]
    print(f"{'payload':>10} {'bytes':>7} {'encode_us':>10} {'decode_us':>10} {'fresh_copy_us':>14}")
    for name, term in payloads(sizes, random.Random(args.seed)):
        env = Envelope(term, TO, FROM, flags=Flags(encoded=True))
        frame = encode_envelope(env)
        back = decode_envelope(frame)
        decoded = back.payload
        if not variant(decoded, term):
            print(f"{name}: the decoded payload is not a variant of the encoded one",
                  file=sys.stderr)
            return 1
        if encode_envelope(back) != frame:
            print(f"{name}: the decoded envelope does not encode to the same frame",
                  file=sys.stderr)
            return 1
        enc = cpu_us(encode_envelope, env, args.calls, args.rounds)
        dec = cpu_us(decode_envelope, frame, args.calls, args.rounds)
        copy = cpu_us(fresh_copy, decoded, args.calls, args.rounds)
        print(f"{name:>10} {len(frame):>7} {enc:>10.1f} {dec:>10.1f} {copy:>14.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
