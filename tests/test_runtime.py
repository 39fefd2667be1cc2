"""Node behaviour: threads, symbols, local send, the clause store, waiting."""

import logging
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import termbus.runtime
from termbus import linda
from termbus.address import Address
from termbus.codec import Envelope, Flags
from termbus.mailbox import Guard, MailboxClosed
from termbus.query import find_all, solve
from termbus.runtime import (
    ClauseDB,
    DuplicateSymbolError,
    Node,
    NodeConfig,
    NotAttachedError,
    RouterUnavailableError,
    ThreadExit,
    UnknownThreadError,
)
from termbus.syntax import format_term, parse_clause, parse_term, parse_term_with_vars
from termbus.terms import (
    Atom, Compound, Int, Str, Var, deref, fresh_copy, list_parts, mk, mklist, unify,
)

from netutil import wait_until


@pytest.fixture
def node():
    n = Node(NodeConfig(process="shell", host="hostA"))
    n.attach("main")
    yield n
    n.shutdown()


def spawn(node, fn, **kw):
    """fork() and return the handle; test goals signal via plain lists."""
    return node.fork(fn, **kw)


class TestThreads:
    def test_attach_is_idempotent(self, node):
        h1 = node.attach()
        h2 = node.attach()
        assert h1 is h2

    def test_unattached_caller_rejected(self, node):
        errs = []

        def outsider():
            try:
                node.my_id()
            except NotAttachedError:
                errs.append("no")

        t = threading.Thread(target=outsider)
        t.start()
        t.join()
        assert errs == ["no"]

    def test_fork_ids_are_fresh(self, node):
        seen = []
        done = threading.Event()

        def goal():
            seen.append(node.my_id())
            done.set()

        h = node.fork(goal)
        assert done.wait(2)
        assert seen == [h.id]
        assert h.id != node.my_id()

    def test_symbol_names_thread(self, node):
        ready = threading.Event()
        node.fork(lambda: ready.wait(2), symbol="worker")
        node.send(parse_term("hi"), "worker")
        ready.set()

    def test_duplicate_symbol_rejected(self, node):
        with pytest.raises(DuplicateSymbolError):
            node.set_symbol("main", node.fork(lambda: time.sleep(0.2)))

    def test_symbol_freed_on_exit(self, node):
        h = node.fork(lambda: None, symbol="transient")
        h.pythread.join(2)
        time.sleep(0.05)
        with pytest.raises(UnknownThreadError):
            node.send(parse_term("hi"), "transient")

    def test_send_before_goal_starts_is_not_lost(self, node):
        # the mailbox must exist the moment fork returns
        got = []
        gate = threading.Event()

        def goal():
            gate.wait(2)
            got.append(node.recv_first(parse_term("early")))

        h = node.fork(goal)
        node.send(parse_term("early"), h.id)
        gate.set()
        h.pythread.join(2)
        assert got and got[0]

    def test_exit_thread_unwinds(self, node):
        trace = []

        def goal():
            trace.append("in")
            node.exit_thread()
            trace.append("unreached")

        h = node.fork(goal)
        h.pythread.join(2)
        assert trace == ["in"]

    def test_cleanup_hooks_run_lifo(self, node):
        order = []

        def goal():
            node.on_exit(lambda: order.append("first_registered"))
            node.on_exit(lambda: order.append("second_registered"))

        h = node.fork(goal)
        h.pythread.join(2)
        assert order == ["second_registered", "first_registered"]

    def test_hooks_run_on_exit_thread_and_on_error(self, node):
        order = []

        def exits():
            node.on_exit(lambda: order.append("exited"))
            node.exit_thread()

        def crashes():
            node.on_exit(lambda: order.append("crashed"))
            raise ValueError("boom")

        node.fork(exits).pythread.join(2)
        node.fork(crashes).pythread.join(2)
        assert sorted(order) == ["crashed", "exited"]

    def test_live_threads_by_label(self, node):
        gate = threading.Event()
        for _ in range(3):
            node.fork(lambda: gate.wait(2), label="drone")
        node.fork(lambda: gate.wait(2), label="queen")
        time.sleep(0.05)
        assert node.live_threads(label="drone") == 3
        assert node.live_threads(label="queen") == 1
        gate.set()


class TestLocalSend:
    def test_roundtrip_binds_pattern(self, node):
        def echo():
            t, vs = parse_term_with_vars("ask(Q)")
            s = node.recv_first(t, from_=None)
            node.send(parse_term(f"answer({format_term(deref(vs['Q']))})"), "main")

        node.fork(echo, symbol="echo")
        node.send(parse_term("ask(41)"), "echo")
        t, vs = parse_term_with_vars("answer(A)")
        assert node.recv_search(t, timeout=2.0)
        assert format_term(deref(vs["A"])) == "41"

    def test_sender_stamped_with_symbol(self, node):
        node.send(parse_term("m"), "main")
        w = Var()
        node.recv_first(parse_term("m"), from_=w, timeout=2.0)
        assert format_term(deref(w)) == "main:shell@hostA"

    def test_sender_stamped_with_id_when_unnamed(self, node):
        out = []

        def anon():
            node.send(parse_term("m"), "main")
            out.append(node.my_id())

        node.fork(anon)
        w = Var()
        node.recv_search(parse_term("m"), from_=w, timeout=2.0)
        assert format_term(deref(w)) == f"{out[0]}:shell@hostA"

    def test_a_short_form_resolves_to_one_shared_address(self, node, monkeypatch):
        # a short form naming the caller is its handle's address; any other
        # short form is one qualified address shared between resolutions
        h = node.current()
        assert node._qualified("main") is h.address
        assert node._qualified("producer") is node._qualified("producer")
        posted = []
        monkeypatch.setattr(h.mailbox, "post", lambda env, owned=False: posted.append(env))
        node.send(Atom("x"), "main")
        assert posted[0].to is h.address

    def test_send_to_unknown_thread_raises(self, node):
        with pytest.raises(UnknownThreadError):
            node.send(parse_term("m"), "nobody_home")

    def test_send_to_remote_without_router_raises(self, node):
        with pytest.raises(RouterUnavailableError):
            node.send(parse_term("m"), "svc:other@hostB")

    def test_local_send_uses_no_frames(self, node):
        before = node.stats()
        for _ in range(20):
            node.send(parse_term("m"), "main")
        for _ in range(20):
            node.recv_first(parse_term("m"), timeout=2.0)
        after = node.stats()
        assert after == before == {
            "frames_out": 0, "frames_in": 0, "bad_frames": 0, "dropped": 0,
        }

    def test_default_send_of_a_long_list(self, node):
        # name remembering walks the whole message on both sides
        n = 100_000
        node.send(mk("big", mklist([Int(i) for i in range(n)], tail=Var())), "main")
        got = Var()
        assert node.recv_first(mk("big", got), timeout=10.0)
        items, tail = list_parts(deref(got))
        assert len(items) == n and items[-1] == Int(n - 1)
        assert type(tail) is Var and tail.name == "_A1"

    def test_local_copies_are_separate(self, node):
        # receiver binding must not leak back into the sender's term
        t, vs = parse_term_with_vars("cell(X)")
        node.send(t, "main", remember_names=False)
        r, rvs = parse_term_with_vars("cell(Y)")
        node.recv_first(r, timeout=2.0)
        # bind the received copy
        from termbus.terms import unify

        assert unify(deref(rvs["Y"]), parse_term("bound"))
        assert deref(vs["X"]) is vs["X"]

    def test_name_memory_across_local_messages(self, node):
        # main sends offer(X); worker replies accept(X) using the name it saw;
        # main's receive reunites the reply with its own registry cell
        def broker():
            t, vs = parse_term_with_vars("offer(P)")
            node.recv_first(t)
            name = format_term(deref(vs["P"]))
            node.send(parse_term(f"accept({name})"), "main")

        node.fork(broker, symbol="broker")
        q, qvs = parse_term_with_vars("offer(Price)")
        node.send(q, "broker")
        a, avs = parse_term_with_vars("accept(W)")
        assert node.recv_search(a, timeout=2.0)
        assert deref(avs["W"]) is deref(qvs["Price"])

    def test_reply_to_creator(self, node):
        # a forked thread's creator address points back at the forker
        def child():
            node.send(parse_term("made_by_you"), node.current().creator)

        node.fork(child)
        assert node.recv_search(parse_term("made_by_you"), timeout=2.0)

    def test_reserved_tokens_in_a_receive_pattern_name_the_caller_and_its_creator(self, node):
        # "self" and "creator" resolve as a send resolves them: against the
        # receiving thread, here a child whose creator is main
        got = []

        def child():
            node.send(Atom("ok"), "self")
            node.send(Atom("ok"), "main")
            got.append(node.recv_search(Atom("ok"), from_="creator", timeout=2.0) is not None)
            got.append(node.recv_search(Atom("ok"), from_="self", timeout=0.2) is not None)
            got.append(node.recv_search(Atom("ok"), reply="creator", timeout=0.2) is not None)
            node.send(Atom("done"), "creator")

        node.send(Atom("ok"), node.fork(child, symbol="kid"))
        assert node.recv_search(Atom("done"), timeout=2.0)
        assert got == [True, True, False]
        assert node.recv_search(Atom("ok"), from_="self", timeout=0.2) is None
        assert node.recv_search(Atom("ok"), from_="kid:shell@hostA", timeout=0.2)

    def test_creator_names_a_top_level_thread_as_it_now_sends(self, node):
        # the fixture's thread took the symbol main after it was attached
        node.send(Atom("ok"), "self")
        assert node.recv_search(Atom("ok"), from_="creator", timeout=2.0)

    def test_creator_names_a_parent_by_the_symbol_it_took_after_the_fork(self, node):
        go = threading.Event()
        got = []

        def child():
            go.wait(5.0)
            got.append(node.recv_search(Atom("ok"), from_="creator", timeout=2.0) is not None)

        def parent():
            kid = node.fork(child)
            node.set_symbol("late")
            node.send(Atom("ok"), kid)
            go.set()
            kid.pythread.join(5.0)

        node.fork(parent).pythread.join(10.0)
        assert got == [True]

    def test_self_and_creator_resolve_to_the_handles_own_address_objects(
        self, node, monkeypatch
    ):
        # one shared object per address: in a destination, a reply-to and a
        # receive pattern, self is the handle's address and creator its creator's
        h = node.current()
        posted = []
        monkeypatch.setattr(h.mailbox, "post", lambda env, owned=False: posted.append(env))
        node.send(Atom("x"), "self")
        node.send(Atom("y"), "main", reply_to="self")
        assert posted[0].to is h.address
        assert posted[1].reply_to is h.address
        assert node._pat("self") is h.address
        assert node._qualified("creator") is h.creator.address
        got = []

        def child():
            me = node.current()
            got.append(node._qualified("creator") is me.creator.address is h.address)
            got.append(node._pat("creator") is h.address and node._pat("self") is me.address)

        node.fork(child).pythread.join(5.0)
        assert got == [True, True]

    def test_message_choice_through_node(self, node):
        node.send(parse_term("b"), "main")
        node.send(parse_term("a"), "main")
        r = node.message_choice(
            [
                Guard(parse_term("a"), body=lambda: "a"),
                Guard(parse_term("b"), body=lambda: "b"),
            ]
        )
        assert r == "b"


class TestClauseStore:
    def test_assert_lookup_retract(self, node):
        node.assert_clause(parse_term("fact(1)"))
        node.assert_clause(parse_term("fact(2)"))
        t, vs = parse_term_with_vars("fact(N)")
        seen = []
        for s in node.clause_lookup(t):
            seen.append(format_term(deref(vs["N"])))
        assert seen == ["1", "2"]
        assert node.retract_clause(parse_term("fact(1)"))
        assert node.retract_clause(parse_term("fact(1)")) is None
        assert node.db.size() == 1

    def test_lookup_bindings_live_until_advance(self, node):
        node.assert_clause(parse_term("fact(7)"))
        t, vs = parse_term_with_vars("fact(N)")
        it = node.clause_lookup(t)
        next(it)
        assert format_term(deref(vs["N"])) == "7"

    def test_retract_binds_pattern(self, node):
        node.assert_clause(parse_term("job(build, urgent)"))
        t, vs = parse_term_with_vars("job(What, How)")
        assert node.retract_clause(t)
        assert format_term(deref(vs["What"])) == "build"

    def test_rule_heads_match_lookup(self, node):
        node.assert_clause(parse_term("bigger(X, Y) :- X > Y"))
        t, vs = parse_term_with_vars("bigger(A, B)")
        assert list(node.clause_lookup(t))  # lookup is by head only
        # stored copy is renamed apart from the source clause
        assert deref(vs["A"]) is vs["A"]

    def test_stored_clause_is_a_copy(self, node):
        t, vs = parse_term_with_vars("holds(V)")
        node.assert_clause(t)
        from termbus.terms import unify

        unify(vs["V"], parse_term("mutated"))
        q, qvs = parse_term_with_vars("holds(W)")
        next(node.clause_lookup(q))
        assert deref(qvs["W"]) is not None
        assert format_term(deref(qvs["W"])) != "mutated"

    def test_thread_wait_sees_later_assert(self, node):
        got = []

        def waiter():
            t, vs = parse_term_with_vars("token(K)")
            node.thread_wait(lambda: node.retract_clause(t))
            got.append(format_term(deref(vs["K"])))

        h = node.fork(waiter)
        time.sleep(0.05)
        node.assert_clause(parse_term("token(99)"))
        h.pythread.join(2)
        assert got == ["99"]

    def test_two_waiters_one_token_exactly_one_wins(self, node):
        wins = []
        lock = threading.Lock()

        def waiter(k):
            def goal():
                try:
                    node.thread_wait(
                        lambda: node.retract_clause(parse_term("prize(P)")),
                        timeout=1.0,
                    )
                    with lock:
                        wins.append(k)
                except TimeoutError:
                    pass

            return goal

        hs = [node.fork(waiter(k)) for k in range(2)]
        time.sleep(0.05)
        node.assert_clause(parse_term("prize(gold)"))
        for h in hs:
            h.pythread.join(3)
        assert len(wins) == 1

    def test_thread_wait_timeout(self, node):
        t0 = time.monotonic()
        with pytest.raises(TimeoutError):
            node.thread_wait(lambda: None, timeout=0.15)
        assert 0.15 <= time.monotonic() - t0 < 0.7

    def test_critical_excludes_interleaving(self, node):
        # two increment loops over one shared fact stay sequential
        rounds = 300

        def bump():
            t, vs = parse_term_with_vars("counter(N)")
            with node.critical():
                node.retract_clause(t)
                n = deref(vs["N"]).value
                node.assert_clause(parse_term(f"counter({n + 1})"))

        node.assert_clause(parse_term("counter(0)"))

        def run():
            for _ in range(rounds):
                bump()

        ts = [node.fork(run) for _ in range(2)]
        for h in ts:
            h.pythread.join(10)
        t, vs = parse_term_with_vars("counter(N)")
        next(node.clause_lookup(t))
        assert deref(vs["N"]).value == 2 * rounds

    def test_critical_callable_form(self, node):
        assert node.critical(lambda: "ran") == "ran"


# -- the clause index against a naive ordered list -----------------------------

# same text as Atom, Int and Str, so a key that confused them would show
_LEAVES = [Atom("1"), Int(1), Str("1"), Atom("a"), Int(2), None]  # None: a variable
_PATH_FUNCTORS = [("task", 3), ("f", 1), ("g", 2)]


def _leaf(x):
    return Var() if x is None else x


@st.composite
def first_args(draw):
    """A first argument whose leftmost path is 0-3 compounds long and ends at
    a constant or a variable, with constants or variables off the path."""
    t = _leaf(draw(st.sampled_from(_LEAVES)))
    for _ in range(draw(st.integers(0, 3))):
        name, arity = draw(st.sampled_from(_PATH_FUNCTORS))
        rest = [_leaf(draw(st.sampled_from(_LEAVES))) for _ in range(arity - 1)]
        t = Compound(name, (t, *rest))
    return t


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["assertz", "retract", "lookup", "clauses"]),
        st.sampled_from(["p", "tuple"]),
        first_args(),
    ),
    max_size=40,
)


class NaiveStore:
    """Reference: one list in assertion order, every clause copied and tried."""

    def __init__(self):
        self.clauses = []  # (id, head)

    def matching(self, pat):
        ids = []
        for i, head in self.clauses:
            sub = unify(pat, fresh_copy(head))
            if sub:
                ids.append(i)
                sub.undo()
        return ids

    def retract(self, pat):
        ids = self.matching(pat)
        if not ids:
            return None
        self.clauses = [(i, h) for i, h in self.clauses if i != ids[0]]
        return ids[0]


def _head_id(head):
    return deref(deref(head).args[1]).value


def _left_path(t):
    """Reference leftmost path: [(name, arity) of each compound ..., constant],
    or None when it ends at a variable."""
    t = deref(t)
    if isinstance(t, Var):
        return None
    if isinstance(t, Compound):
        rest = _left_path(t.args[0])
        return None if rest is None else [(type(t), t.functor, t.arity)] + rest
    return [t]


class TestClauseIndex:
    @settings(max_examples=150, deadline=None)
    @given(_OPS)
    def test_index_agrees_with_a_naive_ordered_list(self, ops):
        db, ref = ClauseDB(threading.RLock()), NaiveStore()

        def check_retract(pat):
            want = ref.retract(pat)
            sub = db.retract(pat)
            assert (None if sub is None else deref(pat.args[1]).value) == want

        for n, (op, pred, first) in enumerate(ops):
            if op == "assertz":
                head = Compound(pred, (first, Int(n)))
                db.assertz(head)
                ref.clauses.append((n, fresh_copy(head)))
                continue
            pat = Compound(pred, (first, Var()))
            if op == "retract":
                check_retract(pat)
            elif op == "lookup":
                want = ref.matching(pat)
                assert [deref(pat.args[1]).value for _ in db.lookup(pat)] == want
            else:
                got = [_head_id(h) for h, _ in db.clauses(pat)]
                same_pred = [(i, _left_path(h.args[0])) for i, h in ref.clauses
                             if h.functor == pred]
                key = _left_path(first)
                if key is None:
                    assert got == [i for i, _ in same_pred]
                else:  # the pattern's key merged with the unkeyed clauses
                    assert got == [i for i, k in same_pred if k is None or k == key]
                want = ref.matching(pat)
                assert [i for i in got if i in want] == want  # no match is missed
            assert db.size() == len(ref.clauses)
            assert db.defines((pred, 2)) == any(h.functor == pred for _, h in ref.clauses)
        # drain with keyed patterns: a clause whose first argument is a
        # variable goes first whenever it was asserted earlier
        while ref.clauses:
            check_retract(fresh_copy(ref.clauses[-1][1]))
            assert db.size() == len(ref.clauses)

    def test_retracting_the_unkeyed_clause_restores_keyed_candidates(self):
        db = ClauseDB(threading.RLock())
        for text in ["p(X)", "p(a)", "p(b)"]:
            db.assertz(parse_term(text))
        assert len(db.clauses(parse_term("p(a)"))) == 2  # p(X) and p(a), not p(b)
        t, vs = parse_term_with_vars("p(b)")
        assert db.retract(t)
        assert [format_term(h) for h, _ in db.clauses(parse_term("p(b)"))] == ["p(b)"]
        assert len(db.clauses(parse_term("p(Y)"))) == 2

    def test_atom_int_and_str_of_one_text_key_apart(self):
        db = ClauseDB(threading.RLock())
        for first in [Int(1), Str("1"), Atom("1")]:
            db.assertz(mk("tuple", mk("task", first, Var())))
        for first in [Int(1), Str("1"), Atom("1")]:
            got = db.clauses(mk("tuple", mk("task", first, Var())))
            assert [deref(h.args[0]).args[0] for h, _ in got] == [first]

    def test_one_unkeyed_clause_adds_itself_not_the_predicate(self):
        db = ClauseDB(threading.RLock())
        db.assertz(parse_term("p(X)"))
        for i in range(1000):
            db.assertz(mk("p", Atom(f"k{i}")))
        got = db.clauses(mk("p", Atom("k500")))
        assert [format_term(h) for h, _ in got] == ["p(X)", "p(k500)"]

    def test_keyed_and_unkeyed_clauses_come_back_in_assertion_order(self):
        db = ClauseDB(threading.RLock())
        for text in ["p(a, 1)", "p(X, 2)", "p(a, 3)", "p(b, 4)"]:
            db.assertz(parse_term(text))
        t, vs = parse_term_with_vars("p(a, N)")
        assert [format_term(deref(vs["N"])) for _ in db.lookup(t)] == ["1", "2", "3"]
        assert len(db.clauses(t)) == 3

    def test_a_keyed_pattern_gets_one_edge_of_a_thousand(self, node):
        for i in range(1000):
            node.assert_clause(mk("edge", Atom(f"n{i}"), Atom(f"n{i + 1}")))
        got = node.db.clauses(mk("edge", Atom("n500"), Var()))
        assert [format_term(h) for h, _ in got] == ["edge(n500,n501)"]

    def test_linda_in_by_key_copies_one_tuple(self, node, monkeypatch):
        for k in range(2000):
            node.assert_clause(mk("tuple", mk("task", Int(k), Atom("o1"), Int(k % 7))))
        node.fork(lambda: linda.serve(node), symbol=linda.SERVER_SYMBOL)
        s = linda.connect(node, linda.SERVER_SYMBOL)
        tried = []
        real = termbus.runtime.unify_head

        def counting(goal, head, body, trail):
            if getattr(head, "functor", None) == "tuple":  # a stored tuple, no other clause
                tried.append(head)
            return real(goal, head, body, trail)

        monkeypatch.setattr(termbus.runtime, "unify_head", counting)
        t, vs = parse_term_with_vars("task(1500, Owner, Load)")
        assert s.in_(t, timeout=5.0)
        assert format_term(deref(vs["Load"])) == str(1500 % 7)
        assert len(tried) == 1
        assert node.db.size() == 1999

    def test_path_resolution_visits_at_most_two_clauses_a_step(self, node, monkeypatch):
        for i in range(200):
            node.assert_clause(parse_clause(f"edge(n{i}, n{i + 1})."))
        node.assert_clause(parse_clause("path(X, Y) :- edge(X, Y)."))
        node.assert_clause(parse_clause("path(X, Y) :- edge(X, Z), path(Z, Y)."))
        sizes = []
        real = node.db.clauses

        def sized(pat):
            got = real(pat)
            sizes.append(len(got))
            return got

        monkeypatch.setattr(node.db, "clauses", sized)
        answers = find_all(node, parse_term("path(n0, X)"))
        assert len(answers) == 200
        assert sizes and max(sizes) <= 2

    def test_a_defined_predicate_without_a_match_fails_quietly(self, node, caplog):
        node.assert_clause(parse_term("edge(n0, n1)"))
        with caplog.at_level(logging.WARNING, logger="termbus.query"):
            assert list(solve(node, parse_term("edge(n99, X)"))) == []
            assert "unknown_predicate" not in caplog.text
            assert list(solve(node, parse_term("vertex(n99)"))) == []
        assert "event=unknown_predicate pred=vertex/1" in caplog.text


class TestBoundedState:
    def test_finished_threads_leave_no_handle(self, node):
        for _ in range(20):
            batch = [node.fork(lambda: None) for _ in range(100)]
            for h in batch:
                h.pythread.join(timeout=5)
                assert not h.pythread.is_alive()
        stay = threading.Event()
        live = node.fork(stay.wait)
        try:
            with node._tables:
                assert list(node._threads.values()) == [node.current(), live]
        finally:
            stay.set()

    def test_frames_for_exited_threads_are_dropped_and_counted(self, node):
        gone = [node.fork(lambda: None) for _ in range(5)]
        for h in gone:
            h.pythread.join(timeout=5)
        me = node.self_address()
        for i in range(500):
            to = Address(gone[i % 5].id, node.process, node.host)
            node._deliver_inbound(Envelope(Atom("finish"), to, me, me, Flags()))
        assert not node._undelivered.queues
        assert node.stats()["dropped"] == 500
        # an id not yet allocated still waits for its thread
        to = Address(node._next_tid + 1, node.process, node.host)
        node._deliver_inbound(Envelope(Atom("early"), to, me, me, Flags()))
        got = []
        node.fork(lambda: got.append(node.recv_first(Atom("early"), timeout=2.0)))
        wait_until(lambda: got, msg="held frame delivered")
        assert got[0] and node.stats()["dropped"] == 500

    def test_overflowing_an_unbound_symbol_is_counted(self, node):
        me = node.self_address()
        to = Address("later", node.process, node.host)
        for i in range(130):
            node._deliver_inbound(Envelope(mk("m", Int(i)), to, me, me, Flags()))
        assert list(node._undelivered.queues) == ["later"] and len(node._undelivered) == 128
        assert node.stats()["dropped"] == 2


def failed_requests(caplog):
    return [r for r in caplog.records if "event=request_failed" in r.getMessage()]


class TestServe:
    """Node.serve: the one serving loop behind the tuple space and the query server."""

    @staticmethod
    def serving(node, handle, from_=None):
        h = node.fork(lambda: node.serve(handle, from_=from_), label="server")
        return h, Address(h.id, node.process, node.host)

    def test_each_answer_goes_to_its_requests_reply_to(self, node):
        _, server = self.serving(node, lambda r, _: mk("echo", r))
        got = []
        echo_b = parse_term("echo(b)")
        other = node.fork(lambda: got.append(node.recv_search(echo_b, timeout=5.0)))
        node.send(parse_term("a"), server, remember_names=False)
        node.send(parse_term("b"), server, reply_to=other.id, remember_names=False)
        assert node.recv_search(parse_term("echo(a)"), from_=server, timeout=5.0)
        wait_until(lambda: got, msg="the reply-to thread answered")
        assert got[0]

    def test_the_client_is_the_requests_own_reply_to(self, node):
        clients = []
        _, server = self.serving(node, lambda r, client: clients.append(client) or r)
        node.send(Atom("a"), server, remember_names=False)
        assert node.recv_search(Atom("a"), from_=server, timeout=5.0)
        assert clients[0] is node.current().address

    def test_a_request_that_raises_is_consumed_and_logged_once(self, node, caplog):
        def handle(r, client):
            if r == Atom("bad"):
                raise ValueError("bad request")
            return Atom("done")

        h, server = self.serving(node, handle)
        with caplog.at_level(logging.WARNING):
            for _ in range(100):
                node.send(Atom("bad"), server, remember_names=False)
            node.send(Atom("good"), server, remember_names=False)
            assert node.recv_search(Atom("done"), from_=server, timeout=5.0)
        assert len(h.mailbox) == 0
        assert node.recv_search(Var(), from_=server, timeout="poll") is None
        failed = failed_requests(caplog)
        assert len(failed) == 100
        assert all(r.exc_info is None for r in failed)  # no traceback per message
        assert "ValueError: bad request" in failed[0].getMessage()

    def test_none_is_no_answer(self, node):
        seen = []
        _, server = self.serving(node, lambda r, _: seen.append(r))
        node.send(Atom("note"), server, remember_names=False)
        wait_until(lambda: seen, msg="request handled")
        assert seen == [Atom("note")]
        assert node.recv_search(Var(), timeout=0.1) is None

    def test_from_takes_only_that_senders_messages(self, node, caplog):
        me = node.self_address()
        seen = []
        h, server = self.serving(node, lambda r, _: seen.append(r) or mk("for", r), from_=me)
        with caplog.at_level(logging.WARNING):
            intruder = node.fork(lambda: node.send(Atom("intruder"), server,
                                                   remember_names=False))
            intruder.pythread.join(5.0)
            node.send(Atom("mine"), server, remember_names=False)
            assert node.recv_search(parse_term("for(mine)"), from_=server, timeout=5.0)
            # the other sender's message is consumed once none of from_'s is left
            wait_until(lambda: len(h.mailbox) == 0, msg="the intruder consumed")
        assert seen == [Atom("mine")]  # never handled
        failed = failed_requests(caplog)
        assert len(failed) == 1 and f"sent by {intruder.id}:" in failed[0].getMessage()
        assert node.recv_search(Var(), from_=server, timeout=0.1) is None  # nor answered

    def test_exit_thread_in_handle_ends_the_loop(self, node):
        h, server = self.serving(node, lambda r, _: node.exit_thread())
        node.send(Atom("stop"), server, remember_names=False)
        h.pythread.join(5.0)
        assert not h.pythread.is_alive()
        assert node.live_threads(label="server") == 0


class TestShutdown:
    def test_shutdown_wakes_blocked_receivers(self):
        n = Node(NodeConfig(process="shy", host="hostA"))
        n.attach()
        woke = []

        def goal():
            try:
                n.recv_search(parse_term("never"))
            except (MailboxClosed,):
                woke.append("recv")

        def waiter():
            try:
                n.thread_wait(lambda: None)
            except Exception:
                woke.append("wait")

        h1 = n.fork(goal)
        h2 = n.fork(waiter)
        time.sleep(0.1)
        n.shutdown()
        h1.pythread.join(2)
        h2.pythread.join(2)
        assert sorted(woke) == ["recv", "wait"]
