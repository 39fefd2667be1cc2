"""Python-level call counts for the probes, and the bounds CI sets on them.

A Python-level call is an entry of a ``cProfile.Profile`` that has a code
object, one that pstats does not write ``~``.  These counts repeat exactly
between runs on one Python version, where CPU times do not, so a probe
can check them against bounds: ``--max-py-calls ROW=N``, repeatable, fails
the run when the row ROW of its report reads more than N.
"""

import argparse
import cProfile
import sys
import types


def calls(prof: cProfile.Profile) -> tuple[int, int]:
    """(Python-level, all) calls prof has counted so far."""
    py = every = 0
    for entry in prof.getstats():
        every += entry.callcount
        if isinstance(entry.code, types.CodeType):
            py += entry.callcount
    return py, every


def py_calls(job, repeat: int = 1) -> int:
    """The Python-level calls that repeat calls of job() make, job's own
    calls included."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        for _ in range(repeat):
            job()
    finally:
        prof.disable()
    return calls(prof)[0]


def add_option(ap: argparse.ArgumentParser, rows: str) -> None:
    ap.add_argument("--max-py-calls", action="append", default=[], type=_bound,
                    metavar="ROW=N", help=f"exit 1 when row ROW ({rows}) reads more "
                    "than N Python-level calls; repeatable")


def _bound(spec: str) -> tuple[str, int]:
    row, _, n = spec.rpartition("=")
    if not row or not n.isdigit():
        raise argparse.ArgumentTypeError(f"want ROW=N, got {spec!r}")
    return row, int(n)


def within(counts: dict, bounds: list) -> bool:
    """True when every count, rounded as printed, is within its bound; a
    line on standard error names each that is not, and each bound that
    names no row."""
    ok = True
    for row, n in bounds:
        if row not in counts:
            print(f"no row {row!r} to bound", file=sys.stderr)
        elif round(counts[row]) > n:
            print(f"{row}: {counts[row]:.0f} Python-level calls, over the bound {n}",
                  file=sys.stderr)
        else:
            continue
        ok = False
    return ok
