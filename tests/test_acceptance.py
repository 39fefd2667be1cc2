"""Whole-system checks with fixed budgets.

Each class pins one behavior bar: exact frame counts per placement, tuple
operations landing inside the brute-force schedule set, blocking receive
semantics, distributed queries agreeing with a single-store oracle, orphan
sweep quiescence, store-and-forward ordering, codec round-trips and the
receive-choice scan and timeout contract.  Tolerances are stated inline and
are not to be loosened.
"""

import random
import threading
import time

import pytest

from termbus import linda, query
from termbus.codec import decode_term_binary, encode_term_binary
from termbus.mailbox import Guard
from termbus.query import query_all, query_stream
from termbus.router import Router, RouterConfig
from termbus.runtime import Node, NodeConfig
from termbus.syntax import (
    format_term,
    parse_clause,
    parse_goal,
    parse_goal_with_vars,
    parse_term,
    parse_term_with_vars,
)
from termbus.terms import Atom, Int, Var, deref, mk, undo_to, unify, unify_into, variant

from lindaoracle import outcomes
from netutil import data_frames_out, free_port, wait_until
from queryoracle import canon, oracle_answers, to_data
from termgen import all_cells, gen_term


def drain(node, pattern, count, timeout=5.0):
    got = []
    for _ in range(count):
        t, vs = parse_term_with_vars(pattern)
        assert node.recv_search(t, timeout=timeout)
        got.append({k: format_term(deref(v)) for k, v in vs.items()})
    return got


# ---------------------------------------------------------------------------
# frame counts by placement: 0 in-node, 2 via one router, 3 via two


class TestHopCounts:
    def test_zero_two_and_three_frames_by_placement(self):
        t0 = time.monotonic()

        solo = Node(NodeConfig(process="solo", host="hop_host"))
        solo.attach("main")
        try:
            def echo():
                solo.recv_search(Atom("ping"), timeout=5.0)
                solo.send(Atom("pong"), "creator")

            solo.fork(echo, symbol="peer")
            before = data_frames_out(solo)
            solo.send(Atom("ping"), "peer")
            assert solo.recv_search(Atom("pong"), timeout=5.0)
            assert data_frames_out(solo) - before == 0
        finally:
            solo.shutdown()

        r = Router(RouterConfig(host="hop_host")).start()
        a = Node(NodeConfig(process="pa", host="hop_host", router=r.endpoint())).start()
        b = Node(NodeConfig(process="pb", host="hop_host", router=r.endpoint())).start()
        a.attach("main")
        b.attach("main")
        try:
            before = data_frames_out(a, b, r)
            a.send(Atom("ping"), "main:pb@hop_host")
            assert b.recv_search(Atom("ping"), timeout=5.0)
            assert data_frames_out(a, b, r) - before == 2
        finally:
            b.shutdown()
            a.shutdown()
            r.stop()

        r2 = Router(RouterConfig(host="hop_far")).start()
        r1 = Router(RouterConfig(host="hop_near",
                                 peers={"hop_far": r2.endpoint()})).start()
        c = Node(NodeConfig(process="pc", host="hop_near", router=r1.endpoint())).start()
        d = Node(NodeConfig(process="pd", host="hop_far", router=r2.endpoint())).start()
        c.attach("main")
        d.attach("main")
        try:
            before = data_frames_out(c, d, r1, r2)
            c.send(Atom("ping"), "main:pd@hop_far")
            assert d.recv_search(Atom("ping"), timeout=5.0)
            assert data_frames_out(c, d, r1, r2) - before == 3
        finally:
            d.shutdown()
            c.shutdown()
            r1.stop()
            r2.stop()

        assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# tuple-space runs land inside the brute-force schedule set

SCRIPTS = [
    [[("out", ("job", "1")), ("rdp", ("job", "*")),
      ("inp", ("job", "*")), ("inp", ("job", "*"))]],
    [[("out", ("t", "1")), ("out", ("t", "2"))],
     [("in", ("t", "*")), ("in", ("t", "*"))]],
    [[("out", ("m", "1")), ("in", ("m", "*"))],
     [("out", ("m", "2")), ("in", ("m", "*"))]],
    [[("out", ("k", "7"))],
     [("rd", ("k", "*")), ("in", ("k", "*"))]],
    [[("out", ("w", "1")), ("out", ("w", "2"))],
     [("in", ("w", "*"))],
     [("in", ("w", "*"))]],
    [[("out", ("p", "1")), ("inp", ("p", "*"))],
     [("rdp", ("p", "*")), ("rdp", ("p", "*"))]],
    [[("out", ("j", "1")), ("out", ("j", "2"))],
     [("in", ("j", "1"))],
     [("in", ("j", "2"))]],
    [[("out", ("a", "1")), ("in", ("b", "*"))],
     [("out", ("b", "1")), ("in", ("a", "*"))]],
    [[("rd", ("g", "*")), ("inp", ("g", "*"))],
     [("out", ("g", "5"))]],
    [[("out", ("x", "1")), ("rd", ("y", "*"))],
     [("out", ("y", "2")), ("in", ("x", "*"))],
     [("rdp", ("x", "*")), ("rdp", ("y", "*"))]],
]


def build_tuple(spec):
    functor, *args = spec
    parts = [Var() if a == "*" else (Int(int(a)) if a.lstrip("-").isdigit()
                                     else Atom(a)) for a in args]
    return mk(functor, *parts)


def run_script(script, seed):
    """One concurrent execution; returns per-client result tuples."""
    node = Node(NodeConfig(process="sched", host="host_l"))
    node.attach()
    node.fork(lambda: linda.serve(node), symbol=linda.SERVER_SYMBOL)
    rng = random.Random(seed)
    delays = [[rng.random() * 0.002 for _ in ops] for ops in script]
    results = [[None] * len(ops) for ops in script]
    start = threading.Barrier(len(script) + 1)

    def client(ci, ops):
        s = linda.connect(node, linda.SERVER_SYMBOL)
        start.wait(10.0)
        for oi, (op, spec) in enumerate(ops):
            time.sleep(delays[ci][oi])
            pattern = build_tuple(spec)
            if op == "out":
                s.out(pattern, timeout=10.0)
                results[ci][oi] = "ok"
            elif op in ("in", "rd"):
                got = (s.in_ if op == "in" else s.rd)(pattern, timeout=10.0)
                results[ci][oi] = format_term(deref(pattern)) if got else "TIMEOUT"
            else:
                hit = (s.inp if op == "inp" else s.rdp)(pattern, timeout=10.0)
                results[ci][oi] = format_term(deref(pattern)) if hit else "no"
        s.disconnect()

    handles = [node.fork(lambda ci=ci, ops=ops: client(ci, ops), label="sched_client")
               for ci, ops in enumerate(script)]
    start.wait(10.0)
    for h in handles:
        h.pythread.join(15.0)
    node.shutdown()
    return tuple(tuple(r) for r in results)


class TestLindaSchedules:
    def test_scripts_stay_inside_stated_bounds(self):
        assert len(SCRIPTS) == 10
        for script in SCRIPTS:
            assert len(script) <= 3
            assert sum(len(ops) for ops in script) <= 6

    def test_fifty_runs_per_script_match_some_schedule(self):
        t0 = time.monotonic()
        for si, script in enumerate(SCRIPTS):
            allowed = outcomes(script)
            for run in range(50):
                got = run_script(script, seed=9200 + 100 * si + run)
                assert got in allowed, f"script {si} run {run}: {got!r} unreachable"
        assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# blocking in: issued first, returns after the out, correctly instantiated


class TestBlockingIn:
    @pytest.fixture
    def space(self):
        n = Node(NodeConfig(process="blk", host="host_b"))
        n.attach("tester")
        n.fork(lambda: linda.serve(n), symbol=linda.SERVER_SYMBOL)
        yield n
        n.shutdown()

    def test_in_before_out_hundred_of_hundred(self, space):
        feeder = linda.connect(space, linda.SERVER_SYMBOL)
        for k in range(100):
            got = {}
            entered = threading.Event()

            def waiter(k=k, got=got, entered=entered):
                s = linda.connect(space, linda.SERVER_SYMBOL)
                t, vs = parse_term_with_vars(f"pkt({k}, P)")
                entered.set()
                if s.in_(t, timeout=10.0):
                    got["P"] = format_term(deref(vs["P"]))
                s.disconnect()

            h = space.fork(waiter)
            assert entered.wait(5.0)
            time.sleep(0.002)  # the in request is on its way first
            feeder.out(parse_term(f"pkt({k}, payload_{k})"), timeout=10.0)
            h.pythread.join(10.0)
            assert got.get("P") == f"payload_{k}", f"trial {k}"
        feeder.disconnect()

    def test_one_out_wakes_exactly_one_of_two_waiters(self, space):
        results = [None, None]
        started = [threading.Event(), threading.Event()]

        def waiter(i):
            s = linda.connect(space, linda.SERVER_SYMBOL)
            t, vs = parse_term_with_vars("solo(V)")
            started[i].set()
            s.in_(t)  # no timeout: stays blocked until a tuple arrives
            results[i] = format_term(deref(vs["V"]))
            s.disconnect()

        h1 = space.fork(lambda: waiter(0))
        h2 = space.fork(lambda: waiter(1))
        assert started[0].wait(5.0) and started[1].wait(5.0)
        time.sleep(0.05)
        feeder = linda.connect(space, linda.SERVER_SYMBOL)
        feeder.out(parse_term("solo(first)"))
        time.sleep(1.0)
        winners = [x for x in results if x is not None]
        assert winners == ["first"], f"expected exactly one winner, got {results}"
        feeder.out(parse_term("solo(second)"))  # release the loser
        h1.pythread.join(10.0)
        h2.pythread.join(10.0)
        assert sorted(x for x in results if x) == ["first", "second"]
        feeder.disconnect()


# ---------------------------------------------------------------------------
# distributed queries agree with the single-store oracle on the union db

E1 = ["edge(a, b).", "edge(a, c).", "edge(b, d).",
      "edge(c, d).", "edge(b, e).", "edge(d, f)."]
E2 = ["e2(e, f).", "e2(c, f).", "e2(f, g).", "e2(e, g).", "e2(g, h)."]
E3 = ["e3(d, h).", "e3(h, i).", "e3(g, i).", "e3(i, j).", "e3(f, j)."]
RULES = ["path(X, Y) :- edge(X, Y).",
         "path(X, Y) :- edge(X, Z), path(Z, Y)."]
GLUE = ["edge(X, Y) :- e2(X, Y) ? query_thread:qs2@host_a.",
        "edge(X, Y) :- e3(X, Y) ? query_thread:qs3@host_a."]
UNION = (E1 + [t.replace("e2", "edge") for t in E2]
         + [t.replace("e3", "edge") for t in E3] + RULES)


class TestDistributedQueries:
    def test_split_network_matches_union_oracle(self):
        t0 = time.monotonic()
        assert len(E1 + GLUE + RULES) + len(E2) + len(E3) == 20
        r = Router(RouterConfig(host="host_a")).start()
        nodes = []

        def serving(process, clauses):
            n = Node(NodeConfig(process=process, host="host_a",
                                router=r.endpoint())).start()
            n.attach()
            for c in clauses:
                n.assert_clause(parse_clause(c))
            n.fork(lambda: query.query_server_main(n), symbol=query.SERVER_SYMBOL)
            nodes.append(n)
            return n

        serving("qs1", E1 + GLUE + RULES)
        serving("qs2", E2)
        serving("qs3", E3)
        serving("qs_u", UNION)
        client = Node(NodeConfig(process="shell", host="host_a",
                                 router=r.endpoint())).start()
        client.attach()
        nodes.append(client)
        try:
            want = oracle_answers(UNION, "path(X, Y)")

            g = parse_goal("path(X, Y)")
            got = [canon(to_data(g))
                   for _ in query_all(client, g, "query_thread:qs1@host_a",
                                      timeout=20.0)]
            assert sorted(got) == sorted(want)  # multiset equality

            g2 = parse_goal("path(X, Y)")
            s = query_stream(client, g2, "query_thread:qs_u@host_a", timeout=20.0)
            streamed = []
            while s.pull() is not None:
                streamed.append(canon(to_data(g2)))
            assert streamed == want  # ordered equality, fully drained
        finally:
            for n in reversed(nodes):
                n.shutdown()
            r.stop()
        assert time.monotonic() - t0 < 30.0


# ---------------------------------------------------------------------------
# abandoned stream chains are swept to quiescence, trial after trial


class TestOrphanSweep:
    def test_twenty_abandoned_chains_quiesce_within_five_seconds(self):
        r = Router(RouterConfig(host="host_g")).start()
        nodes = []

        def serving(process, clauses):
            n = Node(NodeConfig(process=process, host="host_g",
                                router=r.endpoint())).start()
            n.attach()
            for c in clauses:
                n.assert_clause(parse_clause(c))
            n.fork(lambda: query.query_server_main(n), symbol=query.SERVER_SYMBOL)
            nodes.append(n)
            return n

        top = serving("qt", ["top(X) :- mid(X) ?? query_thread:qm@host_g."])
        mid = serving("qm", ["mid(X) :- leaf(X) ?? query_thread:ql@host_g."])
        leaf = serving("ql", ["leaf(1).", "leaf(2).", "leaf(3)."])
        client = Node(NodeConfig(process="shell", host="host_g",
                                 router=r.endpoint())).start()
        client.attach()
        nodes.append(client)

        def orphan_facts(n):
            return sum(1 for _ in n.clause_lookup(mk("remote_thread", Var(), Var())))

        try:
            for trial in range(20):
                pulled = []

                def worker():
                    client.on_exit(lambda: query.kill_orphans(client))
                    g, _ = parse_goal_with_vars("top(N)")
                    s = query_stream(client, g, "query_thread:qt@host_g",
                                     timeout=10.0)
                    pulled.append(s.pull() is not None)
                    # walks away mid-stream; the exit hook does the sweep

                client.fork(worker, label="fickle").pythread.join(10.0)
                assert pulled == [True], f"trial {trial}: no answer pulled"
                wait_until(
                    lambda: sum(n.live_threads(label=query.GENERATOR_LABEL)
                                for n in (top, mid, leaf)) == 0,
                    timeout=5.0, msg=f"trial {trial}: generators swept",
                )
                wait_until(
                    lambda: sum(orphan_facts(n) for n in nodes) == 0,
                    timeout=5.0, msg=f"trial {trial}: orphan facts retracted",
                )
        finally:
            for n in reversed(nodes):
                n.shutdown()
            r.stop()


# ---------------------------------------------------------------------------
# store-and-forward: nothing lost, order kept, across restart and proxy


class TestStoreAndForward:
    def test_ten_messages_survive_process_restart_in_order(self):
        r = Router(RouterConfig(host="host_s")).start()
        a = Node(NodeConfig(process="pa", host="host_s", router=r.endpoint())).start()
        a.attach("main")
        svc = Node(NodeConfig(process="svc", host="host_s", router=r.endpoint())).start()
        svc.attach("main")
        try:
            a.send(parse_term("warm"), "main:svc@host_s")
            assert svc.recv_search(parse_term("warm"), timeout=5.0)
            svc.shutdown()
            wait_until(lambda: "svc" not in r._live,
                       msg="router noticed the drop")
            for i in range(10):
                a.send(parse_term(f"item({i})"), "main:svc@host_s")
            wait_until(lambda: r.queued() == 10, msg="backlog held")
            svc2 = Node(NodeConfig(process="svc", host="host_s",
                                   router=r.endpoint())).start()
            svc2.attach("main")
            got = drain(svc2, "item(I)", 10)
            assert [g["I"] for g in got] == [str(i) for i in range(10)]
            svc2.shutdown()
        finally:
            a.shutdown()
            r.stop()

    def test_five_messages_cross_a_proxy_to_a_late_host(self):
        port_c = free_port()
        rb = Router(RouterConfig(host="host_pb",
                                 peers={"host_pc": f"127.0.0.1:{port_c}"},
                                 proxies={"host_pc": "host_pb"})).start()
        ra = Router(RouterConfig(host="host_pa",
                                 peers={"host_pc": f"127.0.0.1:{port_c}",
                                        "host_pb": rb.endpoint()},
                                 proxies={"host_pc": "host_pb"})).start()
        a = Node(NodeConfig(process="pa", host="host_pa", router=ra.endpoint())).start()
        a.attach("main")
        rc = None
        c = None
        try:
            for i in range(5):
                a.send(parse_term(f"held({i})"), "main:pc@host_pc")
            wait_until(lambda: rb.queued() == 5, msg="proxy held the frames")
            rc = Router(RouterConfig(host="host_pc",
                                     bind=f"127.0.0.1:{port_c}")).start()
            c = Node(NodeConfig(process="pc", host="host_pc",
                                router=rc.endpoint())).start()
            c.attach("main")
            got = drain(c, "held(I)", 5)
            assert [g["I"] for g in got] == [str(i) for i in range(5)]
        finally:
            if c is not None:
                c.shutdown()
            a.shutdown()
            ra.stop()
            rb.stop()
            if rc is not None:
                rc.stop()


# ---------------------------------------------------------------------------
# codec round-trips, unification restore, name memory across messages


class TestTermAndCodecProperties:
    def test_binary_round_trip_thousand_cases(self):
        rng = random.Random(420815)
        for case in range(1000):
            t = gen_term(rng)
            back = decode_term_binary(encode_term_binary(t))
            assert variant(t, back), f"case {case}: {format_term(t)}"

    def test_text_round_trip_thousand_cases(self):
        rng = random.Random(420816)
        for case in range(1000):
            t = gen_term(rng)
            back = parse_term(format_term(t))
            assert variant(t, back), f"case {case}: {format_term(t)}"

    def test_failed_unification_restores_state(self):
        rng = random.Random(420817)
        failures = 0
        for case in range(1000):
            a, b = gen_term(rng), gen_term(rng)
            before_a, before_b = format_term(a), format_term(b)
            trail = []
            if not unify_into(a, b, trail):
                failures += 1
            undo_to(trail, 0)
            assert all(cell.ref is None for cell in all_cells(a) + all_cells(b))
            assert format_term(a) == before_a and format_term(b) == before_b
        assert failures >= 100  # the sample must actually exercise mismatches

    def test_shared_name_binds_across_messages_or_stays_fresh(self):
        node = Node(NodeConfig(process="mem", host="host_m"))
        node.attach("main")
        try:
            node.send(parse_term("offer(X, left)"), "main", remember_names=True)
            node.send(parse_term("offer(X, right)"), "main", remember_names=True)
            t1, v1 = parse_term_with_vars("offer(A, left)")
            assert node.recv_search(t1, timeout=2.0)
            assert unify(deref(v1["A"]), Atom("priced"))
            t2, v2 = parse_term_with_vars("offer(B, right)")
            assert node.recv_search(t2, timeout=2.0)
            # same name, same cell: the earlier binding shows through
            assert format_term(deref(v2["B"])) == "priced"

            node.send(parse_term("fresh(Y, one)"), "main", remember_names=False)
            node.send(parse_term("fresh(Y, two)"), "main", remember_names=False)
            u1, w1 = parse_term_with_vars("fresh(C, one)")
            assert node.recv_search(u1, timeout=2.0)
            assert unify(deref(w1["C"]), Atom("taken"))
            u2, w2 = parse_term_with_vars("fresh(D, two)")
            assert node.recv_search(u2, timeout=2.0)
            got = deref(w2["D"])
            assert isinstance(got, Var) and got.ref is None  # disjoint variable
        finally:
            node.shutdown()


# ---------------------------------------------------------------------------
# receive choice: buffer order dominates guard order; timeout window


class TestMessageChoiceContract:
    @pytest.fixture
    def node(self):
        n = Node(NodeConfig(process="mc", host="host_c"))
        n.attach("main")
        yield n
        n.shutdown()

    def test_earlier_message_beats_earlier_guard_hundred_times(self, node):
        for i in range(100):
            node.send(mk("beta", Int(i)), "main")
            node.send(mk("alfa", Int(i)), "main")
            got = node.message_choice(
                [
                    Guard(mk("alfa", Var()), body=lambda: "alfa"),
                    Guard(mk("beta", Var()), body=lambda: "beta"),
                ],
                timeout=(2.0, lambda: "timeout"),
            )
            assert got == "beta", f"iteration {i}: guard order won over arrival order"
            assert node.recv_first(mk("alfa", Var()), timeout=2.0)  # leftover

    def test_timeout_fires_inside_the_stated_window(self, node):
        for t_limit in (0.1, 0.5, 1.0):
            t0 = time.monotonic()
            got = node.message_choice(
                [Guard(Atom("never_sent"), body=lambda: "message")],
                timeout=(t_limit, lambda: "fired"),
            )
            elapsed = time.monotonic() - t0
            assert got == "fired"
            assert t_limit <= elapsed <= 1.2 * t_limit + 0.05, (
                f"T={t_limit}: fired after {elapsed:.4f}s"
            )
