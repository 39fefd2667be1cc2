"""The four workloads: inputs from a seed, a network, a closed loop, checks.

Every workload runs one request at a time from the client's main thread
(closed loop).  Each one stresses a different set of layers:

node_selective    two threads of one node; a selective receive skips, on
                  average, a quarter of a shuffled block of 256 messages, so
                  the work is mailbox scanning and term copies; 0 frames.
rpc_same_host     echo round trips through one router, payloads rotating
                  from an atom to a 256-element list, then a one-way stream;
                  the work is codec, router and node link; 2 frames a message.
linda_mix         out / in by key / rd by owner / inp miss against a store
                  of 200 tuples; the work is clause-store scans in the
                  server; 2 frames a message.
query_cross_host  all_of over a 40-edge chain and a 10-answer stream through
                  two routers; the work is resolution, generator threads and
                  the peer link; 3 frames a message.

The frame cost per placement is the one scripts/hop_counts.py prints; every
workload checks it exactly against the node and router counters.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from calib import cpu_ticks, slowness
from network import BenchError, Network, free_port

from termbus import linda
from termbus.linda import LindaError
from termbus.query import QueryError, query_all, query_stream
from termbus.terms import NIL, Atom, Int, Var, deref, list_parts, mk, mklist, variant

perf_counter = time.perf_counter

RECV_TIMEOUT_S = 10.0
READY_TIMEOUT_S = 10.0
DRAIN_TIMEOUT_S = 5.0
SPEED_EVERY_S = 0.25
ONEWAY_SHARE = 0.3      # rpc_same_host: share of the run spent streaming one-way
PROBE_FROM = 64         # rpc_same_host: first list length the capacity probe sends


@dataclass(frozen=True)
class Sizes:
    depth: int = 256            # node_selective: shuffled block
    payloads: int = 64          # node_selective: distinct payload terms
    rpc_list: int = 256         # rpc_same_host: largest rotating payload
    oneway_batch: int = 500     # rpc_same_host: one-way messages per count
    probe_cap: int = 8192       # rpc_same_host: largest capacity probe
    store: int = 200            # linda_mix: steady tuple count
    owners: int = 8             # linda_mix: distinct owners
    chain: int = 40             # query_cross_host: edges in the chain
    pulls: int = 10             # query_cross_host: answers pulled per stream
    setups: int = 5             # fewest set-ups per run; setup_s is their median


FULL = Sizes()
TINY = Sizes(depth=16, payloads=8, rpc_list=16, oneway_batch=20, probe_cap=128,
             store=20, owners=4, chain=12, pulls=3, setups=1)


@dataclass
class Outcome:
    """What one measured phase did, and what its checks found.

    During the primary phase the CPU's slowness is sampled about every
    SPEED_EVERY_S seconds, between two ops; the time spent sampling is left
    out of elapsed and cpu_s.
    """

    ops: int = 0
    elapsed: float = 0.0          # wall time of the primary phase
    stolen: float = 0.0           # share of it the host took from the pinned CPU
    slowness: float = 1.0         # mean CPU slowness over it
    sampling_s: float = 0.0       # time spent sampling the slowness
    lat_ms: list = field(default_factory=list)
    kinds: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    messages: int = 0             # messages carried between begin and end
    extra: dict = field(default_factory=dict)
    snaps: dict = field(default_factory=dict)

    def begin(self, seconds: float) -> float:
        """Start the primary phase's clock; returns its deadline."""
        self._speeds = [slowness()]
        self._ticks = cpu_ticks()
        self._t0 = perf_counter()
        self._next_speed = self._t0 + SPEED_EVERY_S
        return self._t0 + seconds

    def end(self, now: float) -> None:
        self.elapsed = now - self._t0 - self.sampling_s
        (stolen0, total0), (stolen1, total1) = self._ticks, cpu_ticks()
        self.stolen = (stolen1 - stolen0) / (total1 - total0) if total1 > total0 else 0.0
        self._speeds.append(slowness())
        self.slowness = sum(self._speeds) / len(self._speeds)

    def sample(self, t0: float, t1: float, kind: str | None = None, op: bool = True) -> None:
        """Record one latency: an op's when op is set, and under kind when given."""
        ms = (t1 - t0) * 1e3
        if op:
            self.lat_ms.append(ms)
        if kind is not None:
            self.kinds.setdefault(kind, []).append(ms)
        if t1 >= self._next_speed:
            self._speeds.append(slowness())
            now = perf_counter()
            self.sampling_s += now - t1
            self._next_speed = now + SPEED_EVERY_S

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)
        return ok

    def abort(self, what: str) -> None:
        """An operation got no answer; the session is unusable after it."""
        self.check(False, what)


class Workload:
    name = ""
    frames_per_msg = 0

    def __init__(self, seed: int, sizes: Sizes = FULL, wrong_echo: bool = False):
        self.seed = seed
        self.sizes = sizes
        self.wrong_echo = wrong_echo

    def setup(self, net: Network) -> None:
        """Everything before the first measured op, timed as setup_s: the
        seeded inputs are made afresh, so every set-up makes the same ones,
        then the network is started."""
        self.rng = random.Random(f"{self.name}/{self.seed}")
        self.make_inputs()
        self.start(net)

    def make_inputs(self) -> None:
        """Build the terms the workload sends from self.rng."""
        raise NotImplementedError

    def start(self, net: Network) -> None:
        raise NotImplementedError

    def measure(self, net: Network, seconds: float, out: Outcome) -> None:
        raise NotImplementedError

    def settle(self, net: Network, out: Outcome) -> None:
        """Wait until the last message of the phase has been forwarded."""

    def after(self, net: Network, out: Outcome) -> None:
        """Checks that run once the counters have been read (untraced only)."""


# --------------------------------------------------------------------------

class NodeSelective(Workload):
    name = "node_selective"
    frames_per_msg = 0

    def make_inputs(self):
        r, sizes = self.rng, self.sizes
        self.payloads = [
            mk("data", Atom("p"), mklist(Int(r.randrange(1000)) for _ in range(r.randint(4, 12))))
            for _ in range(sizes.payloads)
        ]
        self.orders = [r.sample(range(sizes.depth), sizes.depth) for _ in range(16)]

    def start(self, net):
        node = net.client("solo", "here", None)
        depth, payloads, orders = self.sizes.depth, self.payloads, self.orders

        def producer():
            node.send(Atom("ready"), "main", remember_names=False)
            for k in itertools.count():
                node.recv_search(Atom("more"), remember_names=False)
                for i in orders[k % len(orders)]:
                    seq = k * depth + i
                    node.send(mk("m", Int(seq), payloads[seq % len(payloads)]), "main",
                              remember_names=False)

        node.fork(producer, symbol="producer")
        if node.recv_search(Atom("ready"), timeout=READY_TIMEOUT_S, remember_names=False) is None:
            raise BenchError("producer thread did not start")

    def measure(self, net, seconds, out):
        node = net.node
        depth, payloads = self.sizes.depth, self.payloads
        requested = 2  # keep one block queued behind the one being read
        for _ in range(requested):
            node.send(Atom("more"), "producer", remember_names=False)
        deadline = out.begin(seconds)
        while True:
            p = Var()
            t0 = perf_counter()
            got = node.recv_search(mk("m", Int(out.ops), p), timeout=RECV_TIMEOUT_S,
                                   remember_names=False)
            t1 = perf_counter()
            if got is None:
                out.abort(f"message {out.ops} never arrived")
                break
            out.sample(t0, t1)
            out.check(variant(deref(p), payloads[out.ops % len(payloads)]),
                      f"message {out.ops} has the wrong payload")
            out.ops += 1
            if out.ops % depth == 0:
                if t1 >= deadline:
                    break
                node.send(Atom("more"), "producer", remember_names=False)
                requested += 1
        out.end(t1)
        out.messages += requested * (1 + depth)


# --------------------------------------------------------------------------

ECHO = "echo:echo_proc@hosta"
SINK = "sink:echo_proc@hosta"


def _int_list(rng: random.Random, n: int):
    values = [rng.randrange(-10**6, 10**6) for _ in range(n)]
    return values, mklist(Int(v) for v in values)


def _is_int_list(t, values) -> bool:
    """Iterative comparison, so a long reply cannot exhaust the stack here."""
    items, tail = list_parts(t)
    return deref(tail) == NIL and [deref(x) for x in items] == [Int(v) for v in values]


class RpcSameHost(Workload):
    name = "rpc_same_host"
    frames_per_msg = 2

    def make_inputs(self):
        self.lists = [_int_list(self.rng, self.sizes.rpc_list)[1] for _ in range(8)]

    def payload(self, i: int):
        kind = i % 3
        if kind == 0:
            return Atom("ping")
        if kind == 1:
            return mk("job", Int(i), Atom("grind"), mklist(Int(k) for k in range(10)), Var())
        return self.lists[(i // 3) % len(self.lists)]

    @staticmethod
    def round_trip(node, payload, timeout):
        reply = Var()
        node.send(payload, ECHO, remember_names=False)
        if node.recv_search(reply, from_=ECHO, timeout=timeout, remember_names=False) is None:
            return None
        return deref(reply)

    def start(self, net):
        router = net.spawn({"role": "router", "host": "hosta", "bind": "127.0.0.1:0"})
        endpoint = router.info["endpoint"]
        net.spawn({"role": "echo", "process": "echo_proc", "host": "hosta",
                   "router": endpoint, "wrong_echo": self.wrong_echo})
        node = net.client("client", "hosta", endpoint)
        if self.round_trip(node, Atom("hello"), READY_TIMEOUT_S) is None:
            raise BenchError("echo process does not answer")

    def measure(self, net, seconds, out):
        node = net.node
        deadline = out.begin(seconds * (1.0 - ONEWAY_SHARE))
        while True:
            payload = self.payload(out.ops)
            t0 = perf_counter()
            reply = self.round_trip(node, payload, RECV_TIMEOUT_S)
            t1 = perf_counter()
            if reply is None:
                out.abort(f"round trip {out.ops} got no echo")
                return
            out.sample(t0, t1)
            out.check(variant(reply, payload), f"echo {out.ops} is not a variant of the request")
            out.ops += 1
            out.messages += 2
            if t1 >= deadline:
                break
        out.end(t1)
        out.snaps["ops_end"] = net.snapshot()

        batch = self.sizes.oneway_batch
        sent = 0
        t2 = perf_counter()
        stream_end = t2 + seconds * ONEWAY_SHARE
        while True:
            for k in range(batch):
                node.send(mk("m", Int(k)), SINK, remember_names=False)
            node.send(Atom("done"), SINK, remember_names=False)
            n = Var()
            if node.recv_search(mk("counted", n), from_=SINK, timeout=RECV_TIMEOUT_S,
                                remember_names=False) is None:
                out.abort("sink never reported its count")
                return
            out.check(deref(n) == Int(batch), f"sink counted {deref(n)} of {batch}")
            sent += batch
            out.messages += batch + 2
            if perf_counter() >= stream_end:
                break
        out.extra["oneway_msg_per_s"] = sent / (perf_counter() - t2)
        out.extra["oneway_samples"] = sent

    def after(self, net, out):
        """Capacity probe: the longest list that survives a round trip."""
        node = net.node
        size, best = PROBE_FROM, 0
        while size <= self.sizes.probe_cap:
            values, lst = _int_list(self.rng, size)
            try:
                reply = self.round_trip(node, lst, 1.0 + size * 1e-4)
            except RecursionError:
                reply = None
            if reply is None:
                break
            if not out.check(_is_int_list(reply, values), f"probe of {size} came back wrong"):
                break
            best = size
            size *= 2
        out.extra["max_list_len"] = best


# --------------------------------------------------------------------------

LINDA_SERVER = f"{linda.SERVER_SYMBOL}:linda_server@hosta"


def _task(key, owner, load):
    return mk("task", key, owner, load)


class LindaMix(Workload):
    name = "linda_mix"
    frames_per_msg = 2
    KINDS = ("out", "in", "rd", "inp")

    def make_inputs(self):
        r, sizes = self.rng, self.sizes
        self.initial = [(i, r.randrange(sizes.owners), r.randrange(1000))
                        for i in range(sizes.store)]

    def start(self, net):
        router = net.spawn({"role": "router", "host": "hosta", "bind": "127.0.0.1:0"})
        endpoint = router.info["endpoint"]
        net.spawn({"role": "linda", "process": "linda_server", "host": "hosta",
                   "router": endpoint})
        node = net.client("client", "hosta", endpoint)
        self.session = linda.connect(node, LINDA_SERVER, timeout=READY_TIMEOUT_S)
        self.model = {}
        for key, owner, load in self.initial:
            self.session.out(_task(Int(key), Atom(f"o{owner}"), Int(load)),
                             timeout=READY_TIMEOUT_S)
            self.model[key] = (owner, load)

    def _op(self, kind, state) -> bool:
        s, model, live, r = self.session, self.model, state["live"], self.rng
        if kind == "out":
            key, owner, load = state["next_id"], r.randrange(self.sizes.owners), r.randrange(1000)
            state["next_id"] += 1
            s.out(_task(Int(key), Atom(f"o{owner}"), Int(load)), timeout=RECV_TIMEOUT_S)
            model[key] = (owner, load)
            live.append(key)
            return True
        if kind == "in":
            idx = r.randrange(len(live))
            key = live[idx]
            live[idx] = live[-1]
            live.pop()
            owner, load = model.pop(key)
            o, l = Var(), Var()
            if s.in_(_task(Int(key), o, l), timeout=RECV_TIMEOUT_S) is None:
                raise LindaError(f"in of key {key} got no reply")
            return deref(o) == Atom(f"o{owner}") and deref(l) == Int(load)
        if kind == "rd":
            owner = model[live[r.randrange(len(live))]][0]
            k, l = Var(), Var()
            if s.rd(_task(k, Atom(f"o{owner}"), l), timeout=RECV_TIMEOUT_S) is None:
                raise LindaError(f"rd of owner {owner} got no reply")
            k, l = deref(k), deref(l)
            return (isinstance(k, Int) and isinstance(l, Int)
                    and model.get(k.value) == (owner, l.value))
        key = state["missing"]
        state["missing"] -= 1
        return s.inp(_task(Int(key), Var(), Var()), timeout=RECV_TIMEOUT_S) is False

    def measure(self, net, seconds, out):
        state = {"live": list(self.model), "next_id": self.sizes.store, "missing": -1}
        deadline = out.begin(seconds)
        t1 = perf_counter()
        while t1 < deadline:
            for kind in self.KINDS:
                t0 = perf_counter()
                try:
                    ok = self._op(kind, state)
                except LindaError as e:
                    out.abort(str(e))
                    return
                t1 = perf_counter()
                out.sample(t0, t1, kind)
                out.check(ok, f"{kind} returned a wrong tuple")
                out.ops += 1
                out.messages += 2
        out.end(t1)


# --------------------------------------------------------------------------

QUERY_SERVER = "query_thread:qserver@hostb"


class QueryCrossHost(Workload):
    name = "query_cross_host"
    frames_per_msg = 3

    def make_inputs(self):
        order = list(range(self.sizes.chain))
        self.rng.shuffle(order)
        self.clauses = [f"edge(n{i}, n{i + 1})." for i in order] + [
            "path(X, Y) :- edge(X, Y).",
            "path(X, Y) :- edge(X, Z), path(Z, Y).",
        ]

    def start(self, net):
        port_a = free_port()
        port_b = free_port()
        while port_b == port_a:
            port_b = free_port()
        a, b = f"127.0.0.1:{port_a}", f"127.0.0.1:{port_b}"
        net.spawn({"role": "router", "host": "hostb", "bind": b, "peers": {"hosta": a}})
        net.spawn({"role": "router", "host": "hosta", "bind": a, "peers": {"hostb": b}})
        net.spawn({"role": "query", "process": "qserver", "host": "hostb", "router": b,
                   "clauses": self.clauses})
        node = net.client("client", "hosta", a)
        x = Var()
        if len(list(query_all(node, mk("edge", Atom("n0"), x), QUERY_SERVER,
                              timeout=READY_TIMEOUT_S))) != 1:
            raise BenchError("query server does not answer")

    def measure(self, net, seconds, out):
        node = net.node
        chain, pulls = self.sizes.chain, self.sizes.pulls
        every = [Atom(f"n{i}") for i in range(1, chain + 1)]
        deadline = out.begin(seconds)
        t1 = perf_counter()
        while t1 < deadline:
            x = Var()
            t0 = perf_counter()
            try:
                answers = [deref(x) for _ in query_all(node, mk("path", Atom("n0"), x),
                                                       QUERY_SERVER, timeout=RECV_TIMEOUT_S)]
                out.sample(t0, perf_counter(), "all_of", op=False)
                out.check(answers == every, f"all_of answers are not n1..n{chain} in solve order")
                out.ops += len(answers)

                start = self.rng.randint(0, chain - pulls)
                y = Var()
                stream = query_stream(node, mk("path", Atom(f"n{start}"), y), QUERY_SERVER,
                                      timeout=RECV_TIMEOUT_S)
                got = []
                for _ in range(pulls):
                    t0 = perf_counter()
                    sub = stream.pull()
                    t1 = perf_counter()
                    out.sample(t0, t1)
                    got.append(deref(y) if sub is not None else None)
                stream.finish()
            except QueryError as e:
                out.abort(f"query got no reply: {e}")
                return
            want = [Atom(f"n{start + j}") for j in range(1, pulls + 1)]
            out.check(got == want, "stream answers are not the solve-order prefix")
            out.ops += pulls
            # all_of, answer_list, stream_of, query_thread_is, answers, nexts, finish
            out.messages += 4 + 2 * pulls
        out.end(t1)

    def settle(self, net, out):
        """Every generator must be gone after finish; that also means the last
        finish has crossed both routers."""
        server = net.by_role("query")
        deadline = perf_counter() + DRAIN_TIMEOUT_S
        live = server.ask("stats")["live_ans_gen"]
        while live and perf_counter() < deadline:
            time.sleep(0.01)
            live = server.ask("stats")["live_ans_gen"]
        out.extra["ans_gen_live_end"] = live
        out.check(live == 0, f"{live} answer generators still live after finish")


WORKLOADS = {w.name: w for w in (NodeSelective, RpcSameHost, LindaMix, QueryCrossHost)}
