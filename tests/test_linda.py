"""Tuple-space protocol: sessions, matching, blocking and removal rules."""

import logging
import threading
import time

import pytest

from termbus import linda
from termbus.router import Router, RouterConfig
from termbus.runtime import Node, NodeConfig
from termbus.syntax import format_term, parse_term, parse_term_with_vars
from termbus.terms import Int, Var, deref, mk, mklist

from netutil import wait_until


@pytest.fixture
def space():
    """A server node with the accept loop running, plus client attachment."""
    n = Node(NodeConfig(process="space", host="hostL"))
    n.attach("tester")
    # symbol bound before the thread starts, so connects cannot outrun it
    n.fork(lambda: linda.serve(n), symbol=linda.SERVER_SYMBOL, label="linda_main")
    yield n
    n.shutdown()


def session(node):
    return linda.connect(node, linda.SERVER_SYMBOL)


class TestSessionLifecycle:
    def test_connect_yields_private_handler(self, space):
        s1 = session(space)
        s2 = session(space)
        assert s1.handler != s2.handler

    def test_disconnect_stops_handler(self, space):
        s = session(space)
        wait_until(lambda: space.live_threads(label="linda_handler") == 1,
                   msg="handler up")
        s.disconnect()
        wait_until(lambda: space.live_threads(label="linda_handler") == 0,
                   msg="handler gone")


class TestFaults:
    def test_handler_survives_an_operation_that_raises(self, space, monkeypatch, caplog):
        s = session(space)
        real = space.assert_clause
        failures = []

        def assert_failing_once(clause):
            if not failures:
                failures.append(clause)
                raise ValueError("store fault")
            return real(clause)

        monkeypatch.setattr(space, "assert_clause", assert_failing_once)
        with caplog.at_level(logging.WARNING):
            # the failing out is answered with an error, raised here
            with pytest.raises(linda.LindaError, match="store fault"):
                s.out(parse_term("job(1)"), timeout=5.0)
            s.out(parse_term("job(2)"), timeout=5.0)
            t, vs = parse_term_with_vars("job(N)")
            assert s.in_(t, timeout=5.0)
        assert format_term(deref(vs["N"])) == "2"
        assert len(failures) == 1
        assert "event=request_failed" in caplog.text
        assert space.live_threads(label="linda_handler") == 1

    def test_an_operation_that_raises_is_answered_within_a_second(self, space, monkeypatch):
        s = session(space)

        def failing(clause):
            raise ValueError("store fault")

        monkeypatch.setattr(space, "assert_clause", failing)
        t0 = time.monotonic()
        with pytest.raises(linda.LindaError, match="ValueError.*store fault"):
            s.out(parse_term("job(1)"), timeout=5.0)
        assert time.monotonic() - t0 < 1.0
        monkeypatch.undo()
        s.out(parse_term("job(2)"), timeout=5.0)  # the handler serves on
        assert s.rdp(parse_term("job(2)"), timeout=5.0)

    def test_a_reply_that_came_after_its_timeout_answers_no_later_call(self, space):
        s, other = session(space), session(space)
        assert s.in_(parse_term("job(X)"), timeout=0.05) is None
        other.out(parse_term("job(1)"), timeout=5.0)  # the timed-out in takes it
        s.out(parse_term("job(2)"), timeout=5.0)
        t, vs = parse_term_with_vars("job(N)")
        assert s.rd(t, timeout=5.0)
        assert format_term(deref(vs["N"])) == "2"

    def test_a_greeting_that_came_after_its_timeout_binds_no_later_session(self, space):
        with pytest.raises(linda.LindaError):
            linda.connect(space, linda.SERVER_SYMBOL, timeout="poll")
        mailbox = space.current().mailbox
        wait_until(lambda: len(mailbox) == 1, msg="the late greeting arrived")
        s = session(space)
        handlers = [h.id for h in space._threads.values() if h.label == "linda_handler"]
        assert len(handlers) == 2
        assert s.handler.thread == max(handlers)  # the one forked for this connect
        s.out(parse_term("job(1)"), timeout=5.0)
        assert s.rdp(parse_term("job(1)"), timeout=5.0)

    def test_an_unknown_request_is_consumed_and_logged(self, space, caplog):
        s = session(space)
        with caplog.at_level(logging.WARNING, logger="termbus.linda"):
            space.send(parse_term("frobnicate(1)"), s.handler, remember_names=False)
            s.out(parse_term("job(1)"), timeout=5.0)
        assert "event=request_failed" in caplog.text
        handler = space._lookup_local(s.handler.thread)
        assert len(handler.mailbox) == 0

    def test_a_flood_of_strays_at_the_accept_loop_is_consumed(self, space, caplog):
        accept = space._lookup_local(linda.SERVER_SYMBOL)
        with caplog.at_level(logging.WARNING):
            for i in range(5000):
                space.send(mk("frobnicate", Int(i)), linda.SERVER_SYMBOL,
                           remember_names=False)
            wait_until(lambda: len(accept.mailbox) == 0, timeout=60.0,
                       msg="the strays consumed")
            s = session(space)
            s.out(parse_term("job(1)"), timeout=5.0)
        failed = [r for r in caplog.records if "event=request_failed" in r.getMessage()]
        assert len(failed) == 5000
        assert all(r.exc_info is None for r in failed)  # no traceback per stray
        assert space.live_threads(label="linda_handler") == 1
        # no stray was answered: the one reply from the accept side is connected
        assert space.recv_search(Var(), timeout="poll") is None

    def test_a_handler_answers_its_client_and_ignores_other_senders(self, space, caplog):
        s = session(space)
        handler = space._lookup_local(s.handler.thread)
        answers = []

        def intruder():
            space.send(mk("out", Int(1), parse_term("stolen")), s.handler,
                       remember_names=False)
            answers.append(space.recv_search(Var(), timeout=0.5))

        with caplog.at_level(logging.WARNING):
            h = space.fork(intruder)
            wait_until(lambda: len(handler.mailbox) == 1, msg="the other sender's out buffered")
            s.out(parse_term("job(1)"), timeout=5.0)
            assert s.rdp(parse_term("job(1)"), timeout=5.0)
            h.pythread.join(5.0)
        assert s.rdp(parse_term("stolen"), timeout=5.0) is False  # never executed
        assert answers == [None]  # nor answered
        assert len(handler.mailbox) == 0  # but consumed
        failed = [r for r in caplog.records if "event=request_failed" in r.getMessage()]
        assert len(failed) == 1 and f"sent by {h.id}:" in failed[0].getMessage()

    def test_a_pattern_that_would_bind_a_cycle_does_not_match(self, space):
        s = session(space)
        s.out(parse_term("t(Y, Y)"), timeout=5.0)
        assert s.inp(parse_term("t(X, f(X))"), timeout=5.0) is False
        assert s.rdp(parse_term("t(X, f(X))"), timeout=5.0) is False
        s.out(parse_term("done"), timeout=5.0)
        assert s.inp(parse_term("t(a, a)"), timeout=5.0)


class TestOperations:
    def test_out_then_rd_leaves_tuple(self, space):
        s = session(space)
        s.out(parse_term("stock(widget, 7)"))
        t, vs = parse_term_with_vars("stock(widget, N)")
        assert s.rd(t)
        assert format_term(deref(vs["N"])) == "7"
        # still there
        assert s.rdp(parse_term("stock(widget, 7)"))

    def test_in_removes_tuple(self, space):
        s = session(space)
        s.out(parse_term("stock(widget, 7)"))
        t, vs = parse_term_with_vars("stock(W, N)")
        assert s.in_(t)
        assert format_term(deref(vs["W"])) == "widget"
        assert not s.rdp(parse_term("stock(A, B)"))

    def test_inp_rdp_report_absence(self, space):
        s = session(space)
        assert s.inp(parse_term("nothing(here)")) is False
        assert s.rdp(parse_term("nothing(here)")) is False

    def test_pattern_selects_among_tuples(self, space):
        s = session(space)
        s.out(parse_term("pair(a, 1)"))
        s.out(parse_term("pair(b, 2)"))
        t, vs = parse_term_with_vars("pair(b, X)")
        assert s.in_(t)
        assert format_term(deref(vs["X"])) == "2"
        assert s.rdp(parse_term("pair(a, 1)"))
        assert not s.rdp(parse_term("pair(b, Y)"))

    def test_first_out_wins_among_equals(self, space):
        s = session(space)
        for i in range(3):
            s.out(parse_term(f"queue(job, {i})"))
        order = []
        for _ in range(3):
            t, vs = parse_term_with_vars("queue(job, I)")
            s.in_(t)
            order.append(format_term(deref(vs["I"])))
        assert order == ["0", "1", "2"]

    def test_tuple_with_variables_stored_open(self, space):
        # an open tuple matches any instantiation when read back
        s = session(space)
        s.out(parse_term("rule(X, X)"))
        assert s.rdp(parse_term("rule(3, 3)"))
        assert not s.rdp(parse_term("rule(3, 4)"))

    def test_long_tuples_are_stored_and_matched(self, space):
        # longer than a recursive copy or unification could go
        s = session(space)
        items = mklist(Int(i) for i in range(2000))
        s.out(mk("big", items))
        assert s.rdp(mk("big", items))
        assert s.in_(mk("big", items), timeout=5.0)
        assert not s.inp(mk("big", Var()))


class TestBlocking:
    # every waiter runs on its own OS thread, so it must attach to the node
    # and open its own session: handler replies go to the connecting thread

    def test_in_blocks_until_out(self, space):
        s_feed = session(space)
        got = []

        def waiter():
            space.attach()
            s = session(space)
            t, vs = parse_term_with_vars("token(K)")
            s.in_(t)
            got.append(format_term(deref(vs["K"])))

        th = threading.Thread(target=waiter)
        th.start()
        time.sleep(0.15)
        assert got == []  # still blocked
        s_feed.out(parse_term("token(go)"))
        th.join(5)
        assert got == ["go"]

    def test_rd_blocks_until_out(self, space):
        s_feed = session(space)
        got = []

        def waiter():
            space.attach()
            s = session(space)
            got.append(bool(s.rd(parse_term("flag"))))

        th = threading.Thread(target=waiter)
        th.start()
        time.sleep(0.1)
        s_feed.out(parse_term("flag"))
        th.join(5)
        assert got == [True]
        assert s_feed.rdp(parse_term("flag"))  # rd left it

    def test_two_waiters_one_tuple_exactly_one_wins(self, space):
        winners = []
        lock = threading.Lock()
        started = threading.Barrier(3)

        def waiter(k):
            space.attach()
            s = session(space)
            started.wait()
            if s.in_(parse_term("prize"), timeout=3.0):
                with lock:
                    winners.append(k)

        ths = [threading.Thread(target=waiter, args=(k,)) for k in (1, 2)]
        for t in ths:
            t.start()
        started.wait()
        time.sleep(0.2)
        feeder = session(space)
        feeder.out(parse_term("prize"))
        time.sleep(1.0)
        with lock:
            assert len(winners) == 1
        for t in ths:
            t.join(5)
        with lock:
            assert len(winners) == 1


class TestIsolationAndRemote:
    def test_interleaved_sessions_do_not_cross_replies(self, space):
        s1 = session(space)
        s2 = session(space)
        s1.out(parse_term("mine(1)"))
        s2.out(parse_term("yours(2)"))
        t1, v1 = parse_term_with_vars("mine(A)")
        t2, v2 = parse_term_with_vars("yours(B)")
        assert s2.in_(t2)
        assert s1.in_(t1)
        assert format_term(deref(v1["A"])) == "1"
        assert format_term(deref(v2["B"])) == "2"

    def test_remote_client_through_router(self):
        r = Router(RouterConfig(host="hostL")).start()
        server = Node(
            NodeConfig(process="space", host="hostL", router=r.endpoint())
        ).start()
        client = Node(
            NodeConfig(process="shell", host="hostL", router=r.endpoint())
        ).start()
        try:
            server.attach()
            server.fork(lambda: linda.serve(server),
                        symbol=linda.SERVER_SYMBOL, label="linda_main")
            client.attach("repl")
            s = linda.connect(client, f"{linda.SERVER_SYMBOL}:space@hostL")
            s.out(parse_term("greeting(hello)"))
            t, vs = parse_term_with_vars("greeting(W)")
            assert s.in_(t, timeout=5.0)
            assert format_term(deref(vs["W"])) == "hello"
            s.disconnect()
        finally:
            client.shutdown()
            server.shutdown()
            r.stop()
