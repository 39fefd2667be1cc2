"""Print what one remote message costs a node, in CPU microseconds.

Four jobs, each run warm in one process against nodes whose router link is
a stub that keeps the last frame written, so no socket and no child process
is involved.  The messages have the shape of a linda_mix operation: a client
thread main:client@hosta talks to handler 7:linda_server@hostb.

- request: Node.request of rd(R, task(K, o3, L)) to the handler, which
  resolves both addresses and encodes the frame;
- decode: decode_envelope of the handler's reply frame,
  reply(R, ok(task(K, o3, 40))), in full;
- reply: posting that decoded reply to the client's mailbox and taking it
  back with Node.await_reply(R, from_=handler);
- serve: one Node.serve turn of the decoded rd request on a thread of the
  handler's node, whose answer goes out through that node's stub link.

It prints the least thread CPU time per call over --rounds rounds of
--calls calls each (a serve round is timed as a whole; each turn's handler
posts the next request, so a turn includes one post and the mailbox holds
one message).  Beside each time it prints the Python-level calls per call,
the job's own call included, counted in one more round run under a profiler
(see pycalls.py); these repeat exactly between runs on one Python version.
It checks every reply taken, that decoding a frame twice gives the
identical destination object, and that serve hands its handler the decoded
request's own reply-to object, and exits 1 when any of them fails or when a
``--max-py-calls ROW=N`` bound (ROW one of request, decode, reply, serve) is
passed.

Run it as ``PYTHONPATH=src python scripts/message_probe.py [--calls 2000]
[--max-py-calls serve=37]``.
"""

import argparse
import sys
import time

import pycalls
from termbus.address import parse_address
from termbus.codec import Envelope, Flags, decode_envelope, encode_envelope
from termbus.runtime import Node, NodeConfig, ThreadExit, reply
from termbus.terms import Atom, Int, Var, mk

HANDLER = parse_address("7:linda_server@hostb")


class WrongResult(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise WrongResult(what)


class StubLink:
    """Stands in for the router link: keeps the last frame sent."""

    frame = b""

    def send_frame(self, frame: bytes) -> None:
        self.frame = frame


def best_us(job, calls: int, rounds: int) -> float:
    """The least thread CPU microseconds per call of job over rounds rounds."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.thread_time()
        for _ in range(calls):
            job()
        best = min(best, time.thread_time() - t0)
    return best / calls * 1e6


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--calls", type=int, default=2000)
    p.add_argument("--rounds", type=int, default=5)
    pycalls.add_option(p, "request, decode, reply or serve")
    args = p.parse_args(argv)

    node = Node(NodeConfig("client", "hosta"))
    node._link = link = StubLink()
    node.attach("main")
    me = node.self_address()
    task = mk("task", Int(12), Atom("o3"), Int(40))
    frame = encode_envelope(
        Envelope(reply(Int(1), mk("ok", task)), me, HANDLER, flags=Flags(encoded=True))
    )

    def request():
        node.request(HANDLER, "rd", mk("task", Var(), Atom("o3"), Var()))

    def decode():
        decode_envelope(frame)

    env = decode_envelope(frame)
    mailbox = node.current().mailbox

    def post_and_await():
        mailbox.post(env)
        got = node.await_reply(Int(1), HANDLER, timeout="poll")
        check(got == mk("ok", task), f"await_reply took {got!r}")

    server = Node(NodeConfig(HANDLER.process, HANDLER.host))
    server._link = StubLink()
    handler = server.attach()
    clients = []

    def handle(request, client):
        if request == Atom("stop"):
            server.exit_thread()
        clients.append(client)
        handler.mailbox.post(sent if len(clients) % args.calls else stop)
        return reply(request.args[0], mk("ok", task))

    def serve_round():
        handler.mailbox.post(sent)
        t0 = time.thread_time()
        try:
            server.serve(handle)
        except ThreadExit:
            pass
        return (time.thread_time() - t0) / args.calls * 1e6

    try:
        request()
        sent = decode_envelope(link.frame)
        stop = Envelope(Atom("stop"), sent.to, me, me)
        check(sent.to == HANDLER and sent.sender == me, f"request went {sent.sender} -> {sent.to}")
        jobs = {"request": request, "decode": decode, "reply": post_and_await}
        rows = {name: best_us(job, args.calls, args.rounds) for name, job in jobs.items()}
        rows["serve"] = min(serve_round() for _ in range(args.rounds))
        counts = {name: pycalls.py_calls(job, args.calls) / args.calls for name, job in jobs.items()}
        counts["serve"] = pycalls.py_calls(serve_round) / args.calls
        for name, us in rows.items():
            print(f"{name:<8} {us:8.2f} us/call {counts[name]:8.1f} py_calls")
        check(decode_envelope(frame).to is decode_envelope(frame).to,
              "decoding one frame twice gives two destination objects")
        answered = decode_envelope(server._link.frame)
        check(answered.to == me and answered.payload.args[1] == mk("ok", task),
              f"serve answered {answered.payload!r} to {answered.to}")
        check(all(c is sent.reply_to for c in clients),
              "serve handed its handler another object than the request's reply-to")
    except WrongResult as e:
        print(f"FAIL: {e}", file=sys.stderr)
        return 1
    print("all replies right; decoded addresses are shared; serve answers the reply-to")
    return 0 if pycalls.within(counts, args.max_py_calls) else 1


if __name__ == "__main__":
    sys.exit(main())
