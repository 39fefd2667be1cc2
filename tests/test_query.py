"""Query protocol: local resolution, the serving loop, streams, orphan GC."""

import logging
import random
import sys
import threading
import time

import pytest

from termbus import query
from termbus.address import Address
from termbus.codec import _FLAGS, Envelope, encode_envelope
from termbus.query import (
    QueryError,
    RemoteTimeout,
    find_all,
    kill_orphans,
    query_all,
    query_server_main,
    query_stream,
    solve,
)
from termbus.router import Router, RouterConfig
from termbus.runtime import Node, NodeConfig, TermbusError
from termbus.syntax import format_term, parse_clause, parse_goal, parse_goal_with_vars
from termbus.terms import (
    Atom,
    Int,
    Var,
    VarRegistry,
    deref,
    fresh_copy,
    list_parts,
    mk,
    mklist,
    name_unnamed,
    resolve,
)

from netutil import wait_until
from queryoracle import canon, oracle_answers, to_data

EDGE_DB = [
    "edge(a, b).",
    "edge(b, c).",
    "path(X, Y) :- edge(X, Y).",
    "path(X, Y) :- edge(X, Z), path(Z, Y).",
]


# n0 -> n1 -> ... -> n10000, one clause per edge
CHAIN_DB = [f"edge(n{i}, n{i + 1})." for i in range(10_000)] + EDGE_DB[2:]
CHAIN_ANSWERS = [Atom(f"n{i}") for i in range(1, 10_001)]


# answers that hold structure built by the search, and unbound variables
SNAPSHOT_DB = EDGE_DB + [
    "pair(X, p(X, Y), Y) :- edge(X, Y).",
    "hole(1, Q).",
    "hole(2, Q).",
    "hole(3, f(Q, Q)).",
    "hole(4, g(_)).",
]


def fill(node, texts):
    for t in texts:
        node.assert_clause(parse_clause(t))


def engine_answers(node, goal_text):
    g = parse_goal(goal_text)
    return [canon(to_data(g)) for _ in solve(node, g)]


def orphan_count(node):
    return sum(1 for _ in node.clause_lookup(mk("remote_thread", Var(), Var())))


def buffered(h):
    """The payloads a thread's mailbox holds, as text, oldest first."""
    return [format_term(item[2].payload) for item in h.mailbox._index.after()]


def pulls_are_snapshots(node, server):
    """A term held from one pull is unchanged by the next, and a variable a
    solution leaves unbound arrives as a fresh one on each pull."""
    g, vs = parse_goal_with_vars("pair(A, P, B)")
    s = query_stream(node, g, server, timeout=5.0)
    assert s.pull()
    held = deref(vs["P"])
    assert s.pull()
    assert format_term(held) == "p(a,b)"
    assert format_term(deref(vs["P"])) == "p(b,c)"
    s.finish()
    g, vs = parse_goal_with_vars("hole(N, H)")
    s = query_stream(node, g, server, timeout=5.0)
    holes = []
    for _ in range(2):
        assert s.pull()
        holes.append(deref(vs["H"]))
    s.finish()
    assert all(type(h) is Var and h.ref is None for h in holes)
    assert holes[0] is not holes[1] and vs["H"] not in holes


@pytest.fixture
def local():
    n = Node(NodeConfig(process="qlocal", host="hostq")).start()
    n.attach("tester")
    fill(n, EDGE_DB)
    yield n
    n.shutdown()


@pytest.fixture
def served():
    """One serving node; the test thread plays the client."""
    n = Node(NodeConfig(process="query_server", host="hostq")).start()
    n.attach("client")
    fill(n, EDGE_DB)
    n.fork(lambda: query_server_main(n),
           symbol=query.SERVER_SYMBOL, label="query_main")
    yield n
    n.shutdown()


class TestSolve:
    def test_true_has_one_empty_solution(self, local):
        assert len(list(solve(local, Atom("true")))) == 1

    def test_unknown_predicate_fails_with_diagnostic(self, local, caplog):
        with caplog.at_level(logging.WARNING, logger="termbus.query"):
            assert list(solve(local, parse_goal("nosuch(3)"))) == []
        assert "unknown_predicate" in caplog.text

    def test_uncallable_goal_fails(self, local):
        assert list(solve(local, Int(7))) == []

    def test_hand_checked_path_answers(self, local):
        # path(a, C) against the edge chain: C = b by the base clause,
        # then C = c through the recursive one
        got = engine_answers(local, "path(a, C)")
        assert got == [
            ("f", "path", (("a", "a"), ("a", "b"))),
            ("f", "path", (("a", "a"), ("a", "c"))),
        ]
        assert got == oracle_answers(EDGE_DB, "path(a, C)")

    def test_agrees_with_oracle_on_edge_db(self, local):
        for goal in [
            "edge(X, Y)",
            "edge(X, b)",
            "path(X, Y)",
            "path(a, X), path(X, Y)",
            "edge(a, X), edge(X, Z)",
            "path(c, X)",
        ]:
            assert engine_answers(local, goal) == oracle_answers(EDGE_DB, goal), goal

    def test_equality_and_comparison_builtins(self, local):
        assert len(list(solve(local, parse_goal("X = 3, X < 5")))) == 1
        assert list(solve(local, parse_goal("3 =< 2"))) == []
        assert len(list(solve(local, parse_goal("a < b")))) == 1
        assert len(list(solve(local, parse_goal("edge(a, X), X = b")))) == 1

    def test_bindings_follow_the_iteration(self, local):
        g, vs = parse_goal_with_vars("edge(a, X)")
        it = solve(local, g)
        assert next(it)
        assert format_term(deref(vs["X"])) == "b"
        assert next(it, None) is None  # exhausted: bindings rolled back
        assert isinstance(deref(vs["X"]), Var)

    def test_failed_goals_and_clauses_leave_no_binding(self, local):
        fill(local, ["q(a, b).", "q(Z, Z)."])
        for text in ["X = 3, X < 2", "X = 3", "X = f(Y, 2), X = f(1, 3)"]:
            g, vs = parse_goal_with_vars(text)
            list(solve(local, g))
            assert all(isinstance(deref(v), Var) for v in vs.values()), text
        # q(a, b) binds X to a before it fails on b; q(Z, Z) must not see it
        g, vs = parse_goal_with_vars("q(X, X)")
        answers = [deref(vs["X"]) for _ in solve(local, g)]
        assert len(answers) == 1 and isinstance(answers[0], Var)

    def test_abandonment_keeps_last_bindings(self, local):
        g, vs = parse_goal_with_vars("path(a, X)")
        it = solve(local, g)
        assert next(it)
        b1 = format_term(deref(vs["X"]))
        del it
        assert format_term(deref(vs["X"])) == b1 == "b"

    def test_a_goal_keeps_the_candidates_it_was_reached_with(self, local):
        fill(local, ["p(1).", "p(2).", "p(3).", "p(4)."])
        x = Var()
        it = solve(local, mk("p", x))
        assert next(it) and deref(x) == Int(1)
        local.assert_clause(mk("p", Int(9)))
        assert local.retract_clause(mk("p", Int(3)))
        assert [deref(x).value for _ in it] == [2, 3, 4]
        y = Var()
        assert [deref(y).value for _ in solve(local, mk("p", y))] == [1, 2, 4, 9]

    def test_random_dag_dbs_agree_with_oracle(self):
        rng = random.Random(20260815)
        atoms = ["a", "b", "c", "d", "e"]
        goals = ["p(X, Y)", "q(a, X)", "q(X, e)", "q(X, Y)", "p(a, X), q(X, Y)"]
        for case in range(25):
            links = set()
            for _ in range(rng.randint(4, 8)):
                i = rng.randrange(len(atoms) - 1)
                links.add((atoms[i], atoms[rng.randrange(i + 1, len(atoms))]))
            db = [f"p({x}, {y})." for (x, y) in sorted(links)]
            db += ["q(X, Y) :- p(X, Y).", "q(X, Y) :- p(X, Z), q(Z, Y)."]
            n = Node(NodeConfig(process=f"rnd{case}", host="hostq")).start()
            try:
                fill(n, db)
                for goal in goals:
                    assert engine_answers(n, goal) == oracle_answers(db, goal), (
                        case, goal, db,
                    )
            finally:
                n.shutdown()


class TestFindAll:
    def test_snapshots_every_solution(self, local):
        out = [format_term(t) for t in find_all(local, parse_goal("edge(a, X)"))]
        assert out == ["edge(a,b)"]

    def test_empty_for_no_solutions(self, local):
        assert find_all(local, parse_goal("nosuch(_)")) == []

    def test_a_10000_edge_chain_answers_in_order(self):
        n = Node(NodeConfig(process="qchain", host="hostq")).start()
        try:
            n.attach("tester")
            fill(n, CHAIN_DB)
            got = find_all(n, mk("path", Atom("n0"), Var()))
            assert [deref(t.args[1]) for t in got] == CHAIN_ANSWERS
        finally:
            n.shutdown()

    def test_a_chain_answer_is_at_most_two_hops_from_its_value(self):
        n = Node(NodeConfig(process="qhops", host="hostq")).start()
        try:
            n.attach("tester")
            fill(n, CHAIN_DB[:1000] + EDGE_DB[2:])
            x, count = Var(), 0
            for _ in solve(n, mk("path", Atom("n0"), x)):
                count += 1
                t, hops = x, 0
                while type(t) is Var and t.ref is not None:
                    t, hops = t.ref, hops + 1
                assert t == Atom(f"n{count}") and hops <= 2
            assert count == 1000
        finally:
            n.shutdown()

    def test_an_unbound_answer_shows_the_query_variable(self, local):
        local.assert_clause(parse_clause("free(Q)."))
        out = [format_term(t) for t in find_all(local, parse_goal("free(A)"))]
        assert out == ["free(A)"]

    def test_two_threads_resolving_the_same_clauses_get_the_oracle_answers(self, local):
        db = EDGE_DB + ["edge(c, d).", "edge(b, d).", "pair(X, p(X, Y), Y) :- edge(X, Y)."]
        fill(local, db[len(EDGE_DB):])
        goals = ["path(X, Y)", "path(a, X), path(X, Y)", "pair(a, P, Q)", "pair(X, p(Y, d), Z)"]
        want = [oracle_answers(db, g) for g in goals]
        start, faults = threading.Barrier(2), []

        def resolve_over_and_over():
            start.wait()
            for _ in range(40):
                got = [engine_answers(local, g) for g in goals]
                if got != want:
                    faults.append(got)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-resolution
        try:
            threads = [threading.Thread(target=resolve_over_and_over) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert faults == []


class TestServing:
    def test_a_thousand_all_of_requests_leave_the_server_registry_as_it_was(self, served):
        server = served._lookup_local(query.SERVER_SYMBOL)
        before = len(server.registry)
        for _ in range(1000):
            answers = list(query_all(served, parse_goal("path(a, _)"), query.SERVER_SYMBOL,
                                     timeout=5.0))
            assert len(answers) == 2
        assert len(server.registry) == before

    def test_query_all_round_trip(self, served):
        g, vs = parse_goal_with_vars("edge(a, X)")
        names = []
        for _ in query_all(served, g, query.SERVER_SYMBOL):
            names.append(format_term(deref(vs["X"])))
        assert names == ["b"]

    def test_raw_answer_list_shape(self, served):
        served.send(mk("all_of", Int(7), parse_goal("edge(a, X)")),
                    query.SERVER_SYMBOL, remember_names=False)
        body = Var()
        assert served.recv_search(mk("reply", Int(7), mk("answer_list", body)),
                                  from_=query.SERVER_SYMBOL, timeout=5.0)
        assert canon(to_data(body)) == canon(to_data(
            parse_goal("'.'(edge(a, b), [])")
        ))

    def test_zero_solutions_give_empty_replay(self, served):
        assert list(query_all(served, parse_goal("nosuch(_)"),
                              query.SERVER_SYMBOL)) == []

    def test_unbound_goal_gives_empty_replay(self, served):
        assert list(query_all(served, Var(), query.SERVER_SYMBOL)) == []

    def test_a_goal_that_would_bind_a_cycle_fails_and_the_server_answers_on(self, served):
        served.assert_clause(parse_clause("same(X, X)."))
        for text in ("X = f(X)", "same(Y, f(Y))"):
            assert list(query_all(served, parse_goal(text), query.SERVER_SYMBOL,
                                  timeout=5.0)) == []
        g, vs = parse_goal_with_vars("edge(a, Y)")
        names = [format_term(deref(vs["Y"]))
                 for _ in query_all(served, g, query.SERVER_SYMBOL, timeout=5.0)]
        assert names == ["b"]

    def test_server_survives_a_request_that_raises(self, served, monkeypatch, caplog):
        failures = []

        def find_all_failing_once(node, call):
            if not failures:
                failures.append(call)
                raise ValueError("solver fault")
            return find_all(node, call)

        monkeypatch.setattr(query, "find_all", find_all_failing_once)
        ref = served.request(query.SERVER_SYMBOL, "all_of", parse_goal("edge(a, X)"))
        g, vs = parse_goal_with_vars("edge(b, X)")
        with caplog.at_level(logging.WARNING, logger="termbus.query"):
            names = [format_term(deref(vs["X"]))
                     for _ in query_all(served, g, query.SERVER_SYMBOL, timeout=5.0)]
        assert names == ["c"]
        assert len(failures) == 1
        assert "event=request_failed" in caplog.text
        assert served.live_threads(label="query_main") == 1
        # the failed request was answered too, with its error
        with pytest.raises(TermbusError, match="solver fault"):
            served.await_reply(ref, query.SERVER_SYMBOL, timeout="poll")

    def test_a_request_that_raises_gets_an_error_reply(self, served, monkeypatch):
        real = query.find_all

        def find_all_failing_once(node, call):
            monkeypatch.setattr(query, "find_all", real)
            raise ValueError("solver fault")

        monkeypatch.setattr(query, "find_all", find_all_failing_once)
        g, vs = parse_goal_with_vars("edge(a, X)")
        t0 = time.monotonic()
        with pytest.raises(QueryError, match="ValueError.*solver fault"):
            list(query_all(served, g, query.SERVER_SYMBOL, timeout=3.0))
        assert time.monotonic() - t0 < 1.0
        assert deref(vs["X"]) is vs["X"]
        names = [format_term(deref(vs["X"]))
                 for _ in query_all(served, g, query.SERVER_SYMBOL, timeout=5.0)]
        assert names == ["b"]
        assert served.live_threads(label="query_main") == 1

    def test_a_stream_whose_search_raises_gets_an_error_reply(self, served, monkeypatch):
        def failing_solve(node, goal, timeout=None):
            raise ValueError("solver fault")
            yield

        monkeypatch.setattr(query, "solve", failing_solve)
        s = query_stream(served, parse_goal("edge(a, X)"), query.SERVER_SYMBOL, timeout=5.0)
        with pytest.raises(QueryError, match="solver fault"):
            s.pull()
        assert s.closed and s.pull() is None
        assert orphan_count(served) == 0  # a failed generator is no orphan
        wait_until(lambda: served.live_threads(label=query.GENERATOR_LABEL) == 0,
                   msg="failed generator exits")

    def test_reply_goes_to_the_reply_to_thread(self, served):
        # a query placed on behalf of a third thread: answers land there
        seen = []

        def collector():
            body = Var()
            served.recv_search(mk("reply", Int(1), mk("answer_list", body)), timeout=5.0)
            seen.append(format_term(resolve(body)))

        h = served.fork(collector, label="collector")
        served.send(mk("all_of", Int(1), parse_goal("edge(b, X)")),
                    query.SERVER_SYMBOL, reply_to=h.id, remember_names=False)
        wait_until(lambda: seen, msg="answer_list reached the third thread")
        assert seen == ["[edge(b,c)]"]

    def test_stream_generator_is_a_fresh_thread(self, served):
        s = query_stream(served, parse_goal("edge(X, Y)"), query.SERVER_SYMBOL)
        assert isinstance(s.generator.thread, int)
        assert served.live_threads(label=query.GENERATOR_LABEL) == 1
        s.finish()

    def test_stream_drains_in_solve_order_and_forgets(self, served):
        g, vs = parse_goal_with_vars("path(a, C)")
        s = query_stream(served, g, query.SERVER_SYMBOL)
        names = [format_term(deref(vs["C"])) for _ in s]
        assert names == ["b", "c"]
        assert s.pull() is None  # stays exhausted
        assert orphan_count(served) == 0
        wait_until(lambda: served.live_threads(label=query.GENERATOR_LABEL) == 0,
                   msg="generator exits after fail")

    def test_scripted_stream_message_sequence(self, served):
        # two answers then exhaustion: answer, answer, fail, each naming the open
        served.send(mk("stream_of", Int(5), parse_goal("path(a, C)")),
                    query.SERVER_SYMBOL, remember_names=False)
        who = Var()
        assert served.recv_search(mk("reply", Int(5), mk("generator", who)),
                                  from_=query.SERVER_SYMBOL, timeout=5.0)
        from termbus.address import term_to_address
        gen = term_to_address(deref(who))
        seq = []
        for _ in range(2):
            got = Var()
            assert served.recv_search(mk("reply", Int(5), mk("answer", got)),
                                      from_=gen, timeout=5.0)
            seq.append(format_term(resolve(got)))
            served.send(Atom("next"), gen, remember_names=False)
        assert served.recv_search(mk("reply", Int(5), Atom("fail")), from_=gen, timeout=5.0)
        assert seq == ["path(a,b)", "path(a,c)"]

    def test_stream_over_zero_solutions_ends_at_once(self, served):
        s = query_stream(served, parse_goal("nosuch(_)"), query.SERVER_SYMBOL)
        assert s.pull() is None
        assert orphan_count(served) == 0

    def test_finish_stops_the_generator_quietly(self, served):
        g = parse_goal("path(a, C)")
        s = query_stream(served, g, query.SERVER_SYMBOL)
        assert s.pull()
        s.finish()
        wait_until(lambda: served.live_threads(label=query.GENERATOR_LABEL) == 0,
                   msg="finish kills the generator")
        assert orphan_count(served) == 0
        # no stray second answer or fail arrives afterwards
        time.sleep(0.05)
        assert served.recv_search(mk("reply", Var(), Var()), timeout="poll") is None

    def test_abandoned_stream_waits_for_kill_orphans(self, served):
        s = query_stream(served, parse_goal("path(a, C)"), query.SERVER_SYMBOL)
        assert s.pull()
        del s  # walk away mid-stream: generator and fact must survive
        time.sleep(0.05)
        assert orphan_count(served) == 1
        assert served.live_threads(label=query.GENERATOR_LABEL) == 1
        kill_orphans(served)
        assert orphan_count(served) == 0
        wait_until(lambda: served.live_threads(label=query.GENERATOR_LABEL) == 0,
                   msg="swept generator exits")

    def test_a_flood_of_strays_is_consumed_and_the_next_request_answered(self, served, caplog):
        server = served._lookup_local(query.SERVER_SYMBOL)
        with caplog.at_level(logging.WARNING):
            for i in range(5000):
                served.send(mk("reply", Int(i), mk("answer_list", mklist([]))),
                            query.SERVER_SYMBOL, remember_names=False)
            wait_until(lambda: len(server.mailbox) == 0, timeout=60.0,
                       msg="the strays consumed")
            g, vs = parse_goal_with_vars("edge(a, X)")
            names = [format_term(deref(vs["X"]))
                     for _ in query_all(served, g, query.SERVER_SYMBOL, timeout=5.0)]
        assert names == ["b"]
        failed = [r for r in caplog.records if "event=request_failed" in r.getMessage()]
        assert len(failed) == 5000
        assert all(r.exc_info is None for r in failed)  # no traceback per stray
        # none was answered
        assert served.recv_search(Var(), from_=query.SERVER_SYMBOL, timeout="poll") is None

    def test_query_all_timeout_raises(self, served):
        mute = served.fork(lambda: time.sleep(5), label="mute")
        with pytest.raises(RemoteTimeout):
            list(query_all(served, parse_goal("edge(a, X)"),
                           Address(mute.id, None, None), timeout=0.2))

    def test_a_reply_that_came_after_its_timeout_answers_no_later_query(self, served,
                                                                          monkeypatch):
        real = query.find_all

        def slow_find_all(node, call):
            monkeypatch.setattr(query, "find_all", real)
            time.sleep(0.3)
            return real(node, call)

        monkeypatch.setattr(query, "find_all", slow_find_all)
        with pytest.raises(RemoteTimeout):
            list(query_all(served, parse_goal("edge(a, X)"), query.SERVER_SYMBOL,
                           timeout=0.05))
        mailbox = served.current().mailbox
        wait_until(lambda: len(mailbox) == 1, msg="the late answer_list arrived")
        g, vs = parse_goal_with_vars("edge(b, X)")
        names = [format_term(deref(vs["X"]))
                 for _ in query_all(served, g, query.SERVER_SYMBOL, timeout=5.0)]
        assert names == ["c"]

    @staticmethod
    def time_out_opens(served, monkeypatch, n=20):
        """n opens of path(a, C) that time out: the server waits 5 ms before
        it forks each generator.  Returns once every late reply and every
        generator's first answer has arrived."""
        real = query.ans_gen

        def slow_ans_gen(*args):
            time.sleep(0.005)
            return real(*args)

        monkeypatch.setattr(query, "ans_gen", slow_ans_gen)
        for _ in range(n):
            with pytest.raises(RemoteTimeout):
                query_stream(served, parse_goal("path(a, C)"), query.SERVER_SYMBOL,
                             timeout=0.0001)
        mailbox = served.current().mailbox
        wait_until(lambda: len(mailbox) == 2 * n, msg="the late replies arrived")
        assert served.live_threads(label=query.GENERATOR_LABEL) == n

    def test_one_sweep_finishes_the_generators_of_opens_that_timed_out(self, served,
                                                                         monkeypatch):
        self.time_out_opens(served, monkeypatch)
        kill_orphans(served)
        wait_until(lambda: served.live_threads(label=query.GENERATOR_LABEL) == 0,
                   msg="every generator finished")
        assert len(served.current().mailbox) == 0  # and none of their replies left

    def test_a_sweep_before_the_late_reply_leaves_its_generator_to_the_next(self, served,
                                                                           monkeypatch):
        real = query.ans_gen

        def slow_ans_gen(*args):
            time.sleep(0.2)
            return real(*args)

        monkeypatch.setattr(query, "ans_gen", slow_ans_gen)
        with pytest.raises(RemoteTimeout):
            query_stream(served, parse_goal("path(a, C)"), query.SERVER_SYMBOL,
                         timeout=0.0001)
        kill_orphans(served)  # at once: the reply is still on its way
        mailbox = served.current().mailbox
        wait_until(lambda: len(mailbox) == 2, msg="the late reply and first answer arrived")
        assert served.live_threads(label=query.GENERATOR_LABEL) == 1
        kill_orphans(served)
        wait_until(lambda: served.live_threads(label=query.GENERATOR_LABEL) == 0,
                   msg="the next sweep finished the generator")
        assert len(mailbox) == 0

    def test_the_server_finishes_the_generator_of_a_late_open_reply(self, served, caplog):
        server = served._lookup_local(query.SERVER_SYMBOL)
        with caplog.at_level(logging.WARNING):
            # an open whose reply goes to the server loop itself, as a
            # timed-out open's reply reaches a thread that awaits it no more
            served.send(mk("stream_of", Int(1), parse_goal("path(a, C)")),
                        query.SERVER_SYMBOL, reply_to=query.SERVER_SYMBOL,
                        remember_names=False)
            wait_until(lambda: "event=request_failed" in caplog.text
                       and served.live_threads(label=query.GENERATOR_LABEL) == 0
                       and len(server.mailbox) == 0,
                       msg="the reply consumed and its generator finished")
        assert served.recv_search(Var(), from_=query.SERVER_SYMBOL, timeout="poll") is None

    def test_after_opens_that_timed_out_a_stream_answers_its_own_query(self, served,
                                                                         monkeypatch):
        self.time_out_opens(served, monkeypatch)
        g, vs = parse_goal_with_vars("edge(b, Y)")
        s = query_stream(served, g, query.SERVER_SYMBOL, timeout=5.0)
        assert [format_term(deref(vs["Y"])) for _ in s] == ["c"]
        kill_orphans(served)

    def test_query_stream_timeout_raises(self, served):
        mute = served.fork(lambda: time.sleep(5), label="mute")
        with pytest.raises(RemoteTimeout):
            query_stream(served, parse_goal("edge(a, X)"),
                         Address(mute.id, None, None), timeout=0.2)


class FrameRecorder:
    """A router link that keeps the frames its node writes."""

    def __init__(self):
        self.frames = []

    def send_frame(self, frame):
        self.frames.append(frame)

    def stop(self):
        pass


class TestStreamAnswers:
    def test_a_held_answer_survives_the_next_pull(self, served):
        fill(served, SNAPSHOT_DB[len(EDGE_DB):])
        pulls_are_snapshots(served, query.SERVER_SYMBOL)

    def test_an_answer_frame_is_the_one_a_copied_answer_makes(self):
        n = Node(NodeConfig(process="qframes", host="hostq")).start()
        link = n._link = FrameRecorder()
        try:
            n.attach("tester")
            fill(n, SNAPSHOT_DB)
            client = Address("main", "qclient", "hostr")  # a thread of another process
            goal, ref = "pair(A, P, B), hole(N, H)", Int(7)
            gen = n.fork(query.ans_gen(n, ref, parse_goal(goal), client),
                         label=query.GENERATOR_LABEL)
            call = name_unnamed(parse_goal(goal), VarRegistry())
            want = [mk("answer", fresh_copy(call)) for _ in solve(n, call)] + [Atom("fail")]
            want = [encode_envelope(Envelope(mk("reply", ref, x), client, gen.address,
                                             gen.address, _FLAGS[1])) for x in want]
            for sent in range(1, len(want)):
                wait_until(lambda: len(link.frames) == sent, msg=f"answer {sent}")
                gen.mailbox.post(Envelope(Atom("next"), gen.address, client, client, _FLAGS[1]))
            wait_until(lambda: len(link.frames) == len(want), msg="fail")
            assert len(want) == 9 and link.frames == want
        finally:
            n.shutdown()

    def test_a_client_message_that_is_no_word_stays_buffered(self, served):
        s = query_stream(served, parse_goal("edge(X, Y)"), query.SERVER_SYMBOL, timeout=5.0)
        assert s.pull()
        gen = served._lookup_local(s.generator.thread)
        served.send(Atom("hello"), s.generator, remember_names=False)
        assert s.pull() and format_term(resolve(s.call)) == "edge(b,c)"
        assert buffered(gen) == ["hello"]
        assert s.pull() is None

    def test_a_next_from_a_third_thread_is_not_the_clients(self, served):
        s = query_stream(served, parse_goal("edge(X, Y)"), query.SERVER_SYMBOL, timeout=5.0)
        assert s.pull()
        gen = served._lookup_local(s.generator.thread)
        third = served.fork(lambda: served.send(Atom("next"), s.generator,
                                                remember_names=False))
        third.pythread.join(5.0)
        time.sleep(0.2)  # time enough for a generator that took it to answer
        assert buffered(gen) == ["next"]
        assert len(served.current().mailbox) == 0
        assert s.pull() and format_term(resolve(s.call)) == "edge(b,c)"
        assert buffered(gen) == ["next"]
        s.finish()


@pytest.fixture
def network():
    """Router plus as many serving nodes as a test asks for."""
    r = Router(RouterConfig(host="hostq")).start()
    started = [r]

    def serving(process, db, serve=True):
        n = Node(NodeConfig(process=process, host="hostq", router=r.endpoint()))
        n.start()
        n.attach("client")
        fill(n, db)
        if serve:
            n.fork(lambda: query_server_main(n),
                   symbol=query.SERVER_SYMBOL, label="query_main")
        started.append(n)
        return n

    yield serving
    for s in reversed(started):
        if isinstance(s, Router):
            s.stop()
        else:
            s.shutdown()


class TestDistributed:
    def test_a_held_answer_survives_the_next_pull_across_a_router(self, network):
        network("qs_snap", SNAPSHOT_DB)
        client = network("qc_snap", [], serve=False)
        pulls_are_snapshots(client, "query_thread:qs_snap@hostq")

    def test_remote_all_annotation(self, network):
        a = network("qs_a", ["far(X) :- thing(X) ? query_thread:qs_b@hostq.",
                             "twice(X, Y) :- thing(X) ? query_thread:qs_b@hostq, Y = X."])
        network("qs_b", ["thing(1).", "thing(2)."])
        g, vs = parse_goal_with_vars("far(N)")
        got = [format_term(deref(vs["N"]))
               for _ in query_all(a, g, query.SERVER_SYMBOL, timeout=10.0)]
        assert got == ["1", "2"]
        # backtracking into the remote answers undoes the binding made after them
        g = parse_goal("twice(N, M)")
        got = [format_term(resolve(g)) for _ in solve(a, g, timeout=10.0)]
        assert got == ["twice(1,1)", "twice(2,2)"]

    def test_a_long_request_does_not_wedge_the_server(self, network):
        server = "query_thread:qs_long@hostq"
        network("qs_long", EDGE_DB)
        client = network("qc_long", [], serve=False)
        # a 600-element list, longer than a recursive term copy could go
        client.send(mk("all_of", Int(1), mklist(Int(i) for i in range(600))), server,
                    remember_names=False)
        answers = Var()
        assert client.recv_search(mk("reply", Int(1), mk("answer_list", answers)),
                                  from_=server, timeout=5.0, remember_names=False)
        assert deref(answers) == Atom("[]")
        g, vs = parse_goal_with_vars("edge(a, X)")
        got = [format_term(deref(vs["X"]))
               for _ in query_all(client, g, server, timeout=5.0)]
        assert got == ["b"]

    def test_a_deep_unknown_goal_gets_an_empty_answer(self, network, caplog):
        server = "query_thread:qs_deep@hostq"
        network("qs_deep", EDGE_DB)
        client = network("qc_deep", [], serve=False)
        goal = Atom("x")
        for _ in range(600):
            goal = mk("nosuch", goal)
        with caplog.at_level(logging.WARNING, logger="termbus.query"):
            assert list(query_all(client, goal, server, timeout=5.0)) == []
        assert "event=unknown_predicate pred=nosuch/1" in caplog.text
        assert "event=request_failed" not in caplog.text
        g, vs = parse_goal_with_vars("edge(b, X)")
        got = [format_term(deref(vs["X"]))
               for _ in query_all(client, g, server, timeout=5.0)]
        assert got == ["c"]

    def test_an_all_of_over_a_2000_element_list_is_answered(self, network):
        server = "query_thread:qs_list@hostq"
        network("qs_list", EDGE_DB + ["same(X, X)."])
        client = network("qc_list", [], serve=False)
        y = Var()
        goal = mk("same", mklist(Int(i) for i in range(2000)), y)
        got = [list_parts(resolve(y))[0]
               for _ in query_all(client, goal, server, timeout=10.0)]
        assert len(got) == 1 and got[0] == [Int(i) for i in range(2000)]
        g, vs = parse_goal_with_vars("edge(a, X)")
        got = [format_term(deref(vs["X"]))
               for _ in query_all(client, g, server, timeout=5.0)]
        assert got == ["b"]

    def test_a_1200_deep_unknown_goal_gets_an_empty_answer(self, network, caplog):
        server = "query_thread:qs_deeper@hostq"
        network("qs_deeper", EDGE_DB)
        client = network("qc_deeper", [], serve=False)
        goal = Atom("[]")
        for _ in range(1200):
            goal = mk("nosuch", goal)
        with caplog.at_level(logging.WARNING, logger="termbus.query"):
            assert list(query_all(client, goal, server, timeout=5.0)) == []
        assert "event=request_failed" not in caplog.text
        g, vs = parse_goal_with_vars("edge(b, X)")
        got = [format_term(deref(vs["X"]))
               for _ in query_all(client, g, server, timeout=5.0)]
        assert got == ["c"]

    def test_all_of_over_a_10000_edge_chain(self, network):
        server = "query_thread:qs_chain@hostq"
        network("qs_chain", CHAIN_DB)
        client = network("qc_chain", [], serve=False)
        x = Var()
        got = [deref(x) for _ in query_all(client, mk("path", Atom("n0"), x), server,
                                           timeout=60.0)]
        assert got == CHAIN_ANSWERS

    def test_split_db_matches_union_oracle(self, network):
        a = network("qs_a", [
            "edge(a, b).",
            "edge(b, c) :- true ? query_thread:qs_b@hostq.",
            "path(X, Y) :- edge(X, Y).",
            "path(X, Y) :- edge(X, Z), path(Z, Y).",
        ])
        network("qs_b", ["true."])  # placeholder process; see union below
        union = EDGE_DB
        g = parse_goal("path(X, Y)")
        got = sorted(canon(to_data(g)) for _ in query_all(a, g, query.SERVER_SYMBOL,
                                                          timeout=10.0))
        assert got == sorted(oracle_answers(union, "path(X, Y)"))

    def test_stream_chain_finish_propagates(self, network):
        a = network("qs_a", ["top(X) :- mid(X) ?? query_thread:qs_b@hostq."])
        b = network("qs_b", ["mid(X) :- leaf(X) ?? query_thread:qs_c@hostq."])
        c = network("qs_c", ["leaf(1).", "leaf(2).", "leaf(3)."])
        g, vs = parse_goal_with_vars("top(N)")
        s = query_stream(a, g, query.SERVER_SYMBOL, timeout=10.0)
        assert s.pull()
        assert format_term(deref(vs["N"])) == "1"
        s.finish()
        for n in (a, b, c):
            wait_until(
                lambda n=n: n.live_threads(label=query.GENERATOR_LABEL) == 0,
                timeout=5.0, msg=f"generators on {n.process} swept",
            )
            wait_until(lambda n=n: orphan_count(n) == 0, timeout=5.0,
                       msg=f"facts on {n.process} retracted")

    def test_a_stray_reply_between_two_servers_is_answered_by_neither(self, network, caplog):
        a = network("qs_a", [])
        b = network("qs_b", [])
        client = network("shell", [], serve=False)
        a_server = a._lookup_local(query.SERVER_SYMBOL)
        b_server = b._lookup_local(query.SERVER_SYMBOL)
        with caplog.at_level(logging.WARNING):
            # a reply at A whose reply-to is B's server: answering it with
            # an error would start an exchange of errors
            client.send(mk("reply", Int(1), mk("answer_list", mklist([]))),
                        "query_thread:qs_a@hostq",
                        reply_to="query_thread:qs_b@hostq", remember_names=False)
            wait_until(lambda: a.stats()["frames_in"] == 1 and len(a_server.mailbox) == 0,
                       msg="the stray consumed at A")
            time.sleep(0.3)
        failed = [r for r in caplog.records if "event=request_failed" in r.getMessage()]
        assert len(failed) == 1
        assert b.stats()["frames_in"] == 0
        assert len(b_server.mailbox) == 0
        assert a.stats()["frames_out"] == 0

    def test_two_servers_replies_do_not_cross(self, network, caplog):
        a = network("qs_a", ["item(left)."])
        b = network("qs_b", ["item(right)."])
        client = network("shell", [], serve=False)
        # a reply from A is already waiting when the B call starts; the
        # B call must leave it alone
        with caplog.at_level(logging.WARNING):
            ref = client.request("query_thread:qs_a@hostq", "all_of", parse_goal("item(X)"))
            g, vs = parse_goal_with_vars("item(Y)")
            got_b = [format_term(deref(vs["Y"]))
                     for _ in query_all(client, g, "query_thread:qs_b@hostq",
                                        timeout=10.0)]
            assert got_b == ["right"]
            body = client.await_reply(ref, "query_thread:qs_a@hostq", timeout=5.0)
            assert format_term(body) == "answer_list([item(left)])"
            time.sleep(0.3)
        # one request in and one reply out at each server: no error went between them
        for server in (a, b):
            assert (server.stats()["frames_in"], server.stats()["frames_out"]) == (1, 1)
        assert "event=request_failed" not in caplog.text
