"""Selective receive on a single mailbox: ordering, retention, suspension."""

import random
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

import termbus.mailbox
from termbus.address import Address, parse_address
from termbus.codec import Envelope, Flags
from termbus.mailbox import (
    BLOCK,
    POLL,
    Guard,
    Mailbox,
    MailboxClosed,
    StaleReferenceError,
)
from termbus.syntax import format_term, parse_term, parse_term_with_vars
from termbus.terms import (
    Atom, Int, Str, Var, deref, fresh_copy, list_parts, mk, mklist, resolve, undo_to,
    unify_into, variant,
)

from termgen import terms

ALICE = parse_address("alice:shell@hostA")
BOB = parse_address("bob:shell@hostB")
ME = parse_address("me:shell@hostA")


def env(text, sender=ALICE, reply=None, remember=True):
    return Envelope(
        parse_term(text), ME, sender, reply, Flags(remember_names=remember)
    )


def payloads(box):
    return [format_term(item[2].payload) for item in box._index.after()]




class TestRecvFirst:
    def test_consumes_matching_head(self):
        box = Mailbox()
        box.post(env("job(1)"))
        box.post(env("job(2)"))
        t, vs = parse_term_with_vars("job(N)")
        s = box.recv_first(t, timeout=POLL)
        assert s
        assert format_term(vs["N"]) == "1"
        assert payloads(box) == ["job(2)"]

    def test_non_matching_head_fails_and_stays(self):
        box = Mailbox()
        box.post(env("noise"))
        box.post(env("job(1)"))
        assert box.recv_first(parse_term("job(N)"), timeout=POLL) is None
        assert payloads(box) == ["noise", "job(1)"]

    def test_blocks_only_while_empty(self):
        # a non-matching head must fail the call, not suspend it
        box = Mailbox()
        box.post(env("noise"))
        t0 = time.monotonic()
        assert box.recv_first(parse_term("job(N)")) is None
        assert time.monotonic() - t0 < 0.5

    def test_wakes_on_first_arrival(self):
        box = Mailbox()
        got = []

        def waiter():
            got.append(box.recv_first(parse_term("ping")))

        th = threading.Thread(target=waiter)
        th.start()
        time.sleep(0.05)
        box.post(env("ping"))
        th.join(timeout=2)
        assert not th.is_alive() and got[0]

    def test_sender_filter(self):
        box = Mailbox()
        box.post(env("m", sender=BOB))
        assert box.recv_first(parse_term("m"), from_pat=ALICE, timeout=POLL) is None
        assert box.recv_first(parse_term("m"), from_pat=BOB, timeout=POLL)


class TestRecvSearch:
    def test_skips_and_retains(self):
        box = Mailbox()
        for text in ["a", "b", "job(1)", "c", "job(2)"]:
            box.post(env(text))
        s = box.recv_search(parse_term("job(N)"), timeout=POLL)
        assert s
        assert payloads(box) == ["a", "b", "c", "job(2)"]

    def test_oldest_match_wins(self):
        box = Mailbox()
        box.post(env("job(first)"))
        box.post(env("job(second)"))
        t, vs = parse_term_with_vars("job(W)")
        box.recv_search(t, timeout=POLL)
        assert format_term(vs["W"]) == "first"

    def test_timeout_returns_none(self):
        box = Mailbox()
        box.post(env("noise"))
        t0 = time.monotonic()
        s = box.recv_search(parse_term("job(N)"), timeout=0.15)
        waited = time.monotonic() - t0
        assert s is None
        assert 0.15 <= waited < 0.6

    def test_late_arrival_wakes(self):
        box = Mailbox()
        box.post(env("noise"))
        result = []

        def waiter():
            result.append(box.recv_search(parse_term("job(N)")))

        th = threading.Thread(target=waiter)
        th.start()
        time.sleep(0.05)
        box.post(env("job(9)"))
        th.join(timeout=2)
        assert not th.is_alive() and result[0]
        assert payloads(box) == ["noise"]

    def test_sender_var_binds(self):
        box = Mailbox()
        box.post(env("m", sender=BOB))
        w = Var()
        assert box.recv_search(parse_term("m"), from_pat=w, timeout=POLL)
        assert format_term(deref(w)) == "bob:shell@hostB"

    def test_reply_filter_defaults_to_sender(self):
        box = Mailbox()
        box.post(env("m", sender=BOB))
        assert box.recv_search(parse_term("m"), reply_pat=BOB, timeout=POLL)

    def test_reply_distinct_from_sender(self):
        box = Mailbox()
        box.post(env("m", sender=BOB, reply=ALICE))
        box.post(env("m", sender=BOB, reply=BOB))
        w = Var()
        assert box.recv_search(parse_term("m"), reply_pat=ALICE, timeout=POLL)
        assert payloads(box) == ["m"]

    def test_pattern_vars_reusable_after_failure(self):
        box = Mailbox()
        box.post(env("job(1)"))
        t, vs = parse_term_with_vars("task(N)")
        assert box.recv_search(t, timeout=POLL) is None
        assert deref(vs["N"]) is vs["N"]  # still unbound


class TestPeekCommit:
    def test_peek_does_not_consume(self):
        box = Mailbox()
        box.post(env("job(1)"))
        box.post(env("job(2)"))
        t, vs = parse_term_with_vars("job(N)")
        got = []
        for ref, s in box.peek(t, timeout=POLL):
            got.append(format_term(deref(vs["N"])))
        assert got == ["1", "2"]
        assert payloads(box) == ["job(1)", "job(2)"]

    def test_bindings_undone_between_yields_kept_on_abandon(self):
        box = Mailbox()
        box.post(env("job(1)"))
        box.post(env("job(2)"))
        t, vs = parse_term_with_vars("job(N)")
        it = box.peek(t)
        next(it)
        assert format_term(deref(vs["N"])) == "1"
        next(it)
        assert format_term(deref(vs["N"])) == "2"
        del it  # abandon: the current match's bindings persist
        assert format_term(deref(vs["N"])) == "2"

    def test_commit_removes_peeked(self):
        box = Mailbox()
        box.post(env("a"))
        box.post(env("b"))
        for ref, s in box.peek(parse_term("b")):
            box.commit(ref)
            break
        assert payloads(box) == ["a"]

    def test_commit_twice_is_stale(self):
        box = Mailbox()
        box.post(env("a"))
        ref = next(box.peek(parse_term("a")))[0]
        box.commit(ref)
        with pytest.raises(StaleReferenceError):
            box.commit(ref)

    def test_peek_sees_messages_posted_during_iteration(self):
        box = Mailbox()
        box.post(env("job(1)"))
        t, vs = parse_term_with_vars("job(N)")
        it = box.peek(t)
        next(it)
        box.post(env("job(2)"))
        next(it)
        assert format_term(deref(vs["N"])) == "2"


class TestMessageChoice:
    def test_arrival_order_dominates_guard_order(self):
        box = Mailbox()
        box.post(env("beta"))
        box.post(env("alpha"))
        fired = box.message_choice(
            [
                Guard(parse_term("alpha"), body=lambda: "alpha"),
                Guard(parse_term("beta"), body=lambda: "beta"),
            ]
        )
        assert fired == "beta"  # older message wins though its guard is listed second

    def test_guard_order_breaks_ties_on_one_message(self):
        box = Mailbox()
        box.post(env("m(1)"))
        fired = box.message_choice(
            [
                Guard(parse_term("m(N)"), body=lambda: "general"),
                Guard(parse_term("m(1)"), body=lambda: "specific"),
            ]
        )
        assert fired == "general"

    def test_test_rejection_moves_on(self):
        box = Mailbox()
        box.post(env("m(1)"))
        box.post(env("m(2)"))
        t, vs = parse_term_with_vars("m(N)")

        def is_even():
            return deref(vs["N"]).value % 2 == 0

        box.message_choice([Guard(t, test=is_even, body=lambda: None)])
        assert payloads(box) == ["m(1)"]
        assert format_term(deref(vs["N"])) == "2"

    def test_rejected_binding_is_undone(self):
        box = Mailbox()
        box.post(env("m(1)"))
        t, vs = parse_term_with_vars("m(N)")
        r = box.message_choice(
            [Guard(t, test=lambda: False, body=lambda: "x")],
            timeout=(0.05, lambda: "timed_out"),
        )
        assert r == "timed_out"
        assert deref(vs["N"]) is vs["N"]
        assert payloads(box) == ["m(1)"]

    def test_message_removed_before_body_runs(self):
        box = Mailbox()
        box.post(env("m"))
        box.message_choice([Guard(parse_term("m"), body=lambda: len(box))])
        # body saw the buffer already empty
        assert len(box) == 0

    def test_timeout_alternative_runs(self):
        box = Mailbox()
        t0 = time.monotonic()
        r = box.message_choice(
            [Guard(parse_term("never"), body=lambda: "msg")],
            timeout=(0.2, lambda: "alt"),
        )
        waited = time.monotonic() - t0
        assert r == "alt"
        assert 0.2 <= waited < 0.7

    def test_timeout_anchored_at_first_exhaustion(self):
        # matching traffic that keeps failing the test must not reset the clock
        box = Mailbox()
        stop = threading.Event()

        def chatter():
            while not stop.is_set():
                box.post(env("m(0)"))
                time.sleep(0.02)

        th = threading.Thread(target=chatter, daemon=True)
        th.start()
        t0 = time.monotonic()
        r = box.message_choice(
            [Guard(parse_term("m(N)"), test=lambda: False, body=lambda: "x")],
            timeout=(0.25, lambda: "alt"),
        )
        stop.set()
        th.join()
        waited = time.monotonic() - t0
        assert r == "alt"
        assert 0.25 <= waited < 0.8

    def test_from_filter_per_guard(self):
        box = Mailbox()
        box.post(env("m", sender=BOB))
        box.post(env("m", sender=ALICE))
        r = box.message_choice(
            [
                Guard(parse_term("m"), from_=ALICE, body=lambda: "from_alice"),
                Guard(parse_term("m"), from_=BOB, body=lambda: "from_bob"),
            ]
        )
        assert r == "from_bob"

    def test_suspends_until_match(self):
        box = Mailbox()
        box.post(env("noise"))
        out = []

        def chooser():
            out.append(
                box.message_choice([Guard(parse_term("go"), body=lambda: "went")])
            )

        th = threading.Thread(target=chooser)
        th.start()
        time.sleep(0.05)
        box.post(env("go"))
        th.join(timeout=2)
        assert out == ["went"]
        assert payloads(box) == ["noise"]


class TestNameMemory:
    def test_remembered_var_identity_across_messages(self):
        # two messages mention the same named variable; with remembering on,
        # both receives resolve it to one registry cell
        box = Mailbox()
        box.post(env("offer(Price)"))
        box.post(env("accept(Price)"))
        a, avs = parse_term_with_vars("offer(P)")
        assert box.recv_search(a, timeout=POLL, remember_names=True)
        cell = deref(avs["P"])
        b, bvs = parse_term_with_vars("accept(Q)")
        assert box.recv_search(b, timeout=POLL, remember_names=True)
        assert deref(bvs["Q"]) is cell

    def test_without_remembering_vars_are_separated(self):
        box = Mailbox()
        box.post(env("offer(Price)"))
        box.post(env("accept(Price)"))
        a, avs = parse_term_with_vars("offer(P)")
        assert box.recv_search(a, timeout=POLL)
        b, bvs = parse_term_with_vars("accept(Q)")
        assert box.recv_search(b, timeout=POLL)
        assert deref(avs["P"]) is not deref(bvs["Q"])

    def test_sender_without_flag_defeats_interning(self):
        # name identity needs both sides: an unflagged send stays separated
        box = Mailbox()
        box.post(env("offer(Price)", remember=False))
        box.post(env("accept(Price)", remember=False))
        a, avs = parse_term_with_vars("offer(P)")
        assert box.recv_search(a, timeout=POLL, remember_names=True)
        b, bvs = parse_term_with_vars("accept(Q)")
        assert box.recv_search(b, timeout=POLL, remember_names=True)
        assert deref(avs["P"]) is not deref(bvs["Q"])

    def test_message_choice_always_remembers(self):
        box = Mailbox()
        box.post(env("offer(Price)"))
        box.post(env("accept(Price)"))
        cells = []
        t1, v1 = parse_term_with_vars("offer(P)")
        t2, v2 = parse_term_with_vars("accept(Q)")
        box.message_choice([Guard(t1, body=lambda: cells.append(deref(v1["P"])))])
        box.message_choice([Guard(t2, body=lambda: cells.append(deref(v2["Q"])))])
        assert cells[0] is cells[1]


class TestCopyOnlyTheWinner:
    """A skipped message is rejected without being copied or interned."""

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        real = getattr(termbus.mailbox, name)

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(termbus.mailbox, name, counting)
        return calls

    def test_recv_search_copies_only_the_match(self, monkeypatch):
        copies = self.count_calls(monkeypatch, "fresh_copy")
        box = Mailbox()
        for i in range(100):
            box.post(env(f"m({i}, data(p, [1, 2, 3]))"))
        box.post(env("m(100, data(p, [4]))"))
        t, vs = parse_term_with_vars("m(100, P)")
        assert box.recv_search(t, timeout=POLL)
        assert format_term(deref(vs["P"])) == "data(p,[4])"
        assert len(copies) == 1
        assert len(box) == 100

    def test_message_choice_interns_only_the_match(self, monkeypatch):
        interned = self.count_calls(monkeypatch, "intern_named")
        box = Mailbox()
        for text in ["a(X)", "b(Y)", "c(Z)", "d(1)", "e(2)"]:
            box.post(env(text))
        r = box.message_choice(
            [
                Guard(parse_term("x(N)"), body=lambda: "x"),
                Guard(parse_term("y(N)"), body=lambda: "y"),
                Guard(parse_term("d(N)"), body=lambda: "d"),
            ]
        )
        assert r == "d"
        assert len(interned) == 1
        assert payloads(box) == ["a(X)", "b(Y)", "c(Z)", "e(2)"]

    def test_rejected_message_leaves_the_registry_alone(self):
        box = Mailbox()
        box.post(env("offer(Price, Qty)"))
        assert box.recv_search(parse_term("accept(P)"), timeout=POLL, remember_names=True) is None
        assert len(box.registry) == 0
        assert box.recv_search(parse_term("offer(P, Q)"), timeout=POLL, remember_names=True)
        assert box.registry.lookup("Price") is not None

    def test_a_message_from_another_sender_is_rejected_before_a_copy(self, monkeypatch):
        copies = self.count_calls(monkeypatch, "fresh_copy")
        box = Mailbox()
        for i in range(1000):
            box.post(env(f"m({i}, X)", sender=BOB, remember=False))
        assert box.recv_search(Var(), ALICE, None, timeout=POLL) is None
        assert len(copies) == 0
        box.post(env("m(1000, X)", remember=False))
        assert box.recv_search(Var(), ALICE, None, timeout=POLL)
        assert len(copies) == 1
        assert len(box) == 1000

    def test_a_message_to_another_reply_to_teaches_the_registry_nothing(self):
        box = Mailbox()
        box.post(env("offer(Price, Qty)", reply=BOB))
        assert box.recv_search(Var(), None, ALICE, timeout=POLL, remember_names=True) is None
        assert len(box.registry) == 0
        assert box.recv_search(Var(), None, BOB, timeout=POLL, remember_names=True)
        assert box.registry.lookup("Price") is not None


class TestLongPayloads:
    def test_a_long_list_is_received_and_consumed(self):
        # longer than a recursive copy or intern could go
        items = mklist([Var("X")] * 100_000)
        for remember in (False, True):
            box = Mailbox()
            box.post(Envelope(mk("m", items), ME, ALICE, None, Flags(remember_names=remember)))
            box.post(env("next"))
            got = Var()
            assert box.recv_first(mk("m", got), timeout=POLL, remember_names=remember)
            assert len(list_parts(deref(got))[0]) == 100_000
            assert box.recv_first(parse_term("next"), timeout=POLL, remember_names=remember)


class TestClose:
    def test_close_wakes_blocked_receiver(self):
        box = Mailbox()
        errs = []

        def waiter():
            try:
                box.recv_search(parse_term("never"))
            except MailboxClosed:
                errs.append("closed")

        th = threading.Thread(target=waiter)
        th.start()
        time.sleep(0.05)
        box.close()
        th.join(timeout=2)
        assert errs == ["closed"]

    def test_post_after_close_dropped(self):
        box = Mailbox()
        box.close()
        box.post(env("m"))
        assert len(box) == 0

    def test_choice_raises_on_close(self):
        box = Mailbox()
        out = []

        def chooser():
            try:
                box.message_choice([Guard(parse_term("never"), body=lambda: 1)])
            except MailboxClosed:
                out.append("closed")

        th = threading.Thread(target=chooser)
        th.start()
        time.sleep(0.05)
        box.close()
        th.join(timeout=2)
        assert out == ["closed"]


def test_concurrent_posts_preserved_in_order_per_sender():
    # ten posters, sequenced payloads; consumption sees every sender's
    # messages in its own send order and loses none
    box = Mailbox()
    n_senders, n_each = 10, 50

    def poster(k):
        me = parse_address(f"s{k}:shell@hostA")
        for i in range(n_each):
            box.post(env(f"m({k},{i})", sender=me))

    threads = [threading.Thread(target=poster, args=(k,)) for k in range(n_senders)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(box) == n_senders * n_each
    seen: dict[int, list[int]] = {k: [] for k in range(n_senders)}
    while len(box):
        t, vs = parse_term_with_vars("m(K,I)")
        box.recv_first(t, timeout=POLL)
        seen[deref(vs["K"]).value].append(deref(vs["I"]).value)
    for k in range(n_senders):
        assert seen[k] == list(range(n_each))


def test_the_owner_wakes_for_each_post_across_racing_timeouts():
    # the owner alternates a 1 ms receive with a blocking one while a poster
    # posts at jittered times, some close to the timeout
    box = Mailbox()
    n, timeout = 400, 0.001
    rng = random.Random(23)
    delays = [rng.choice((0.0, 0.0002, 0.0008, 0.001, 0.0012, 0.003)) for _ in range(n)]
    posted: dict[int, float] = {}

    def poster():
        for i, delay in enumerate(delays):
            time.sleep(delay)
            posted[i] = time.monotonic()
            box.post(env(f"m({i})"))

    watchdog = threading.Timer(60.0, box.close)  # a lost wake-up fails, not hangs
    watchdog.start()
    th = threading.Thread(target=poster)
    th.start()
    got, early, late_blocks = [], [], []
    try:
        while len(got) < n:
            k = Var()
            timed = len(got) % 2 == 0
            t0 = time.monotonic()
            hit = box.recv_search(mk("m", k), timeout=timeout if timed else BLOCK)
            if hit is None:
                if time.monotonic() - t0 < timeout:
                    early.append(time.monotonic() - t0)
                # the post this timeout may have raced must not wake a later
                # wait for nothing: this one blocks until the next post
                k = Var()
                box.recv_search(mk("m", k))
                if time.monotonic() < posted[deref(k).value]:
                    late_blocks.append(deref(k).value)
            got.append(deref(k).value)
    finally:
        watchdog.cancel()
        th.join(10.0)
    assert not th.is_alive()
    assert got == list(range(n))  # each message once, in order
    assert early == []  # no timed receive gave up before its timeout
    assert late_blocks == []  # a blocking receive returned only what was posted
    assert len(box) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["job(1)", "job(2)", "other", "noise(x)"]), max_size=12))
def test_recv_search_takes_oldest_and_keeps_rest(texts):
    box = Mailbox()
    for tx in texts:
        box.post(env(tx))
    t, vs = parse_term_with_vars("job(N)")
    s = box.recv_search(t, timeout=POLL)
    matches = [tx for tx in texts if tx.startswith("job")]
    if not matches:
        assert s is None
        assert payloads(box) == texts
    else:
        assert s
        first = matches[0]
        assert f"job({format_term(deref(vs['N']))})" == first
        expected = list(texts)
        expected.remove(first)
        assert payloads(box) == expected


class TestOwnedPayloads:
    """A consuming receive binds an owned payload in place; nothing else does."""

    @staticmethod
    def post_owned(box, text):
        t, vs = parse_term_with_vars(text)
        box.post(Envelope(t, ME, ALICE, None, Flags(remember_names=False)), owned=True)
        return vs

    def test_consuming_an_owned_payload_makes_no_copy(self, monkeypatch):
        copies = TestCopyOnlyTheWinner.count_calls(monkeypatch, "fresh_copy")
        box = Mailbox()
        vs = self.post_owned(box, "offer(X, 3)")
        box.post(env("offer(Y, 4)", remember=False))
        for n, want in ((3, 0), (4, 1)):
            assert box.recv_search(parse_term(f"offer(a, {n})"), timeout=POLL)
            assert len(copies) == want
        assert deref(vs["X"]) == parse_term("a")  # the consumed cell itself

    def test_a_failed_guard_test_leaves_the_buffered_payload_unbound(self):
        box = Mailbox()
        vs = self.post_owned(box, "offer(X)")
        seen = []

        def reject():
            seen.append(format_term(deref(vs["X"])))
            return False

        r = box.message_choice([Guard(parse_term("offer(a)"), test=reject)],
                               timeout=(POLL, lambda: "none"))
        assert r == "none"
        assert seen == ["a"]  # matched in place, then undone
        assert deref(vs["X"]) is vs["X"]
        assert len(box) == 1

    def test_an_abandoned_peek_leaves_the_buffered_payload_unbound(self):
        box = Mailbox()
        vs = self.post_owned(box, "offer(X)")
        ref, _ = next(box.peek(parse_term("offer(a)"), timeout=POLL))
        assert deref(vs["X"]) is vs["X"]
        box.commit(ref)
        assert len(box) == 0


# -- the keyed index against a linear scan -----------------------------------

# same text as Atom, Int and Str, so a key that confused them would show
_KEYS = [Int(1), Str("1"), Atom("1"), Atom("a"), Int(2)]
_SHAPES = ["keyed", "deep", "var_first", "bare_var", "const"]


@st.composite
def shaped(draw):
    """(shape, constant, second argument): data for one payload or pattern.

    keyed m(K, A) and deep m(f(K), A) have a key; var_first m(V, A) and
    bare_var V end at a variable; const is the constant K alone."""
    shape = draw(st.sampled_from(_SHAPES))
    arg = draw(st.one_of(st.none(), terms(max_depth=2)))
    return shape, draw(st.sampled_from(_KEYS)), arg


def build(spec):
    """A fresh term for spec, plus the variable X in it that a guard test reads."""
    shape, k, arg = spec
    x = Var("X")
    a = x if arg is None else mk("w", x, fresh_copy(arg))
    if shape == "keyed":
        return mk("m", k, a), x
    if shape == "deep":
        return mk("m", mk("f", k), a), x
    if shape == "var_first":
        return mk("m", Var(), a), x
    if shape == "bare_var":
        return x, x
    return k, x  # x stays unbound: a rejecting test never fires


class Reference:
    """The buffer as a plain list, every entry copied and tried in order."""

    def __init__(self, specs):
        self.items = [build(s)[0] for s in specs]

    def hits(self, guards):
        """(message index, guard index, resolved pattern) for each message
        some guard accepts, the first such guard, in buffer order."""
        out = []
        for i, item in enumerate(self.items):
            for gi, (pat, var, reject) in enumerate(guards):
                trail = []
                if unify_into(pat, fresh_copy(item), trail) and not (
                    reject and type(deref(var)) is Int
                ):
                    out.append((i, gi, resolve(pat)))
                    undo_to(trail, 0)
                    break
                undo_to(trail, 0)
        return out


def filled(specs, owned_mask):
    box = Mailbox()
    for spec, owned in zip(specs, owned_mask):
        box.post(Envelope(build(spec)[0], ME, ALICE, None, Flags(remember_names=False)),
                 owned=owned)
    return box


_BUFFERS = st.lists(st.tuples(shaped(), st.booleans()), max_size=10)


class TestKeyedIndexAgreesWithALinearScan:
    @settings(max_examples=150, deadline=None)
    @given(_BUFFERS, shaped())
    def test_recv_search_and_peek(self, buffer, pspec):
        specs = [s for s, _ in buffer]
        hits = Reference(specs).hits([(*build(pspec), False)])
        box = filled(specs, [o for _, o in buffer])
        pat, _ = build(pspec)
        peeked = [(r.seq, resolve(pat)) for r, _ in box.peek(pat, timeout=POLL)]
        assert [seq for seq, _ in peeked] == [i for i, _, _ in hits]
        assert all(variant(a, b) for (_, a), (_, _, b) in zip(peeked, hits))
        got = box.recv_search(pat, timeout=POLL)
        if not hits:
            assert got is None and len(box) == len(specs)
        else:
            i, _, want = hits[0]
            assert got and variant(resolve(pat), want)
            assert [item[0] for item in box._index.after()] == [j for j in range(len(specs)) if j != i]

    @settings(max_examples=150, deadline=None)
    @given(_BUFFERS, st.lists(st.tuples(shaped(), st.booleans()), min_size=1, max_size=3))
    def test_message_choice(self, buffer, gspecs):
        specs = [s for s, _ in buffer]
        hits = Reference(specs).hits([(*build(s), reject) for s, reject in gspecs])
        box = filled(specs, [o for _, o in buffer])
        pats, guards = [], []
        for gi, (s, reject) in enumerate(gspecs):
            pat, var = build(s)
            pats.append(pat)
            test = (lambda v=var: type(deref(v)) is not Int) if reject else None
            guards.append(Guard(pat, test=test, body=lambda gi=gi: gi))
        r = box.message_choice(guards, timeout=(POLL, lambda: None))
        if not hits:
            assert r is None and len(box) == len(specs)
        else:
            i, gi, want = hits[0]
            assert r == gi and variant(resolve(pats[gi]), want)
            assert [item[0] for item in box._index.after()] == [j for j in range(len(specs)) if j != i]


def test_a_blocked_keyed_search_takes_the_first_matching_arrival():
    box = Mailbox()
    box.post(env("m(1, early)"))
    got = []
    t, vs = parse_term_with_vars("m(3, P)")
    th = threading.Thread(target=lambda: got.append(box.recv_search(t, timeout=2.0)))
    th.start()
    time.sleep(0.05)
    for text in ["n(V)", "m(2, x)", "m(3, first)", "m(V, y)", "m(3, second)"]:
        box.post(env(text))
    th.join(timeout=3)
    assert not th.is_alive() and got[0]
    assert format_term(deref(vs["P"])) == "first"
    assert payloads(box) == ["m(1,early)", "n(V)", "m(2,x)", "m(V,y)", "m(3,second)"]
