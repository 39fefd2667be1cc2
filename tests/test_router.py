"""Routing daemon: registration, store-and-forward, peering, proxy holding."""

import logging
import socket
import struct
import sys
import threading
import time

import pytest

import termbus.router
import termbus.runtime
from termbus.address import Address
from termbus.codec import (
    Envelope,
    Flags,
    cut_frames,
    decode_envelope,
    encode_envelope,
    encode_varint,
    is_register_ack,
    make_register,
    make_register_ack,
    split_frames,
)
from termbus.counters import Counters
from termbus.router import READ, WRITE_BOUND, ConnLoop, Router, RouterConfig, _Conn
from termbus.runtime import Node, NodeConfig, RouterUnavailableError
from termbus.syntax import format_term, parse_term, parse_term_with_vars
from termbus.terms import Atom, Int, Str, Var, deref, list_parts, mk, mklist

from netutil import data_frames_out, free_port, read_frame, wait_until


@pytest.fixture
def stack():
    """Track routers and nodes so every test tears its network down."""
    started = []

    def router(host, **kw):
        r = Router(RouterConfig(host=host, **kw)).start()
        started.append(r)
        return r

    def node(process, host, router_, symbol="main", wait=True):
        endpoint = router_ if isinstance(router_, str) else router_.endpoint()
        n = Node(NodeConfig(process=process, host=host, router=endpoint))
        n.start(wait=wait)
        n.attach(symbol)
        started.append(n)
        return n

    yield router, node
    for s in reversed(started):
        if isinstance(s, Router):
            s.stop()
        else:
            s.shutdown()


def drain(node, pattern, count, timeout=5.0):
    out = []
    for _ in range(count):
        t, vs = parse_term_with_vars(pattern)
        assert node.recv_search(t, timeout=timeout)
        out.append({k: format_term(deref(v)) for k, v in vs.items()})
    return out


class TestSameHost:
    def test_two_processes_roundtrip(self, stack):
        router, node = stack
        r = router("hostA")
        a = node("proc_a", "hostA", r)
        b = node("proc_b", "hostA", r)
        a.send(parse_term("greet(hello)"), "main:proc_b@hostA")
        t, vs = parse_term_with_vars("greet(W)")
        assert b.recv_search(t, timeout=5.0)
        assert format_term(deref(vs["W"])) == "hello"

    def test_remote_send_costs_two_frames(self, stack):
        router, node = stack
        r = router("hostA")
        a = node("proc_a", "hostA", r)
        b = node("proc_b", "hostA", r)
        before = data_frames_out(a, b, r)
        a.send(parse_term("ping"), "main:proc_b@hostA")
        assert b.recv_search(parse_term("ping"), timeout=5.0)
        assert data_frames_out(a, b, r) - before == 2

    def test_sender_address_survives_the_hop(self, stack):
        router, node = stack
        r = router("hostA")
        a = node("proc_a", "hostA", r)
        b = node("proc_b", "hostA", r)
        a.send(parse_term("ping"), "main:proc_b@hostA")
        from termbus.terms import Var

        w = Var()
        assert b.recv_search(parse_term("ping"), from_=w, timeout=5.0)
        assert format_term(deref(w)) == "main:proc_a@hostA"

    def test_raw_text_body_crosses_too(self, stack):
        router, node = stack
        r = router("hostA")
        a = node("proc_a", "hostA", r)
        b = node("proc_b", "hostA", r)
        a.send(parse_term("quoted('odd atom')"), "main:proc_b@hostA", encoded=False)
        t, vs = parse_term_with_vars("quoted(A)")
        assert b.recv_search(t, timeout=5.0)
        assert format_term(deref(vs["A"])) == "'odd atom'"


    def _long_list_crosses(self, stack, n, encoded):
        router, node = stack
        r = router("hostA")
        a = node("proc_a", "hostA", r)
        b = node("proc_b", "hostA", r)
        # the default send names the tail variable, so the receiver interns it
        a.send(mk("big", mklist([Int(i) for i in range(n)], tail=Var())),
               "main:proc_b@hostA", encoded=encoded)
        got = Var()
        assert b.recv_first(mk("big", got), timeout=30.0)
        items, tail = list_parts(deref(got))
        assert len(items) == n and items[-1] == Int(n - 1)
        assert type(tail) is Var and tail.name == "_A1"

    @pytest.mark.parametrize("depth", [200, 100_000])
    def test_a_deep_nest_crosses_as_a_text_body(self, stack, depth):
        router, node = stack
        r = router("hostA")
        a = node("proc_a", "hostA", r)
        b = node("proc_b", "hostA", r)
        nest = Atom("leaf")
        for _ in range(depth):
            nest = mk("s", nest)
        a.send(mk("deep", nest), "main:proc_b@hostA", encoded=False)
        got = Var()
        assert b.recv_first(mk("deep", got), timeout=30.0)
        assert deref(got) == nest
        assert b.stats()["bad_frames"] == 0

    def test_default_send_of_a_long_list_crosses(self, stack):
        self._long_list_crosses(stack, 100_000, encoded=True)

    def test_a_long_list_crosses_as_a_text_body(self, stack):
        self._long_list_crosses(stack, 10_000, encoded=False)

    def test_stats_keys(self, stack):
        router, _ = stack
        assert list(router("hostA").stats()) == [
            "frames_in", "frames_out", "ctl_in", "ctl_out", "dropped", "bad_frames", "queued",
        ]

class TestStoreAndForward:
    def test_frames_wait_for_first_registration(self, stack):
        router, node = stack
        r = router("hostA")
        a = node("proc_a", "hostA", r)
        for i in range(10):
            a.send(parse_term(f"item({i})"), "main:late_proc@hostA")
        wait_until(lambda: r.queued() == 10, msg="frames queued")
        late = node("late_proc", "hostA", r)
        got = drain(late, "item(I)", 10)
        assert [g["I"] for g in got] == [str(i) for i in range(10)]

    def test_restart_receives_backlog_in_order(self, stack):
        router, node = stack
        r = router("hostA")
        a = node("proc_a", "hostA", r)
        svc = node("svc", "hostA", r)
        a.send(parse_term("item(0)"), "main:svc@hostA")
        assert svc.recv_search(parse_term("item(0)"), timeout=5.0)
        svc.shutdown()
        wait_until(
            lambda: "svc" not in r._live, msg="router noticed the drop"
        )
        for i in range(1, 11):
            a.send(parse_term(f"item({i})"), "main:svc@hostA")
        wait_until(lambda: r.queued() == 10, msg="backlog held")
        svc2 = node("svc", "hostA", r)
        got = drain(svc2, "item(I)", 10)
        assert [g["I"] for g in got] == [str(i) for i in range(1, 11)]

    def test_overflow_drops_oldest(self, stack):
        router, node = stack
        r = router("hostA", queue_bound=3)
        a = node("proc_a", "hostA", r)
        for i in range(5):
            a.send(parse_term(f"item({i})"), "main:late_proc@hostA")
        wait_until(lambda: r.stats()["dropped"] == 2, msg="two oldest dropped")
        assert r.queued() == 3
        late = node("late_proc", "hostA", r)
        got = drain(late, "item(I)", 3)
        assert [g["I"] for g in got] == ["2", "3", "4"]

    def test_a_flood_of_drops_is_counted_in_full_and_logged_in_summary(self, caplog):
        counters = Counters("dropped")
        holds = termbus.router.Holds(counters, "queue_overflow name=%s", bound=10)
        caplog.set_level(logging.WARNING, logger="termbus.router")
        t0 = time.monotonic()
        for i in range(10_010):
            holds.put("late", i)
        elapsed = time.monotonic() - t0
        assert counters.snapshot()["dropped"] == 10_000 and len(holds) == 10
        lines = [m for m in caplog.messages if "event=queue_overflow" in m]
        assert 1 <= len(lines) <= 1 + elapsed / termbus.router.DROP_LOG_INTERVAL
        assert lines[0] == "event=queue_overflow name=late dropped=1"

    def test_node_outbox_rides_out_router_restart(self, stack):
        router, node = stack
        port = free_port()
        a = node("proc_a", "hostA", f"127.0.0.1:{port}", wait=False)
        a.send(parse_term("early(1)"), "main:proc_b@hostA")
        a.send(parse_term("early(2)"), "main:proc_b@hostA")
        r = router("hostA", bind=f"127.0.0.1:{port}")
        b = node("proc_b", "hostA", r)
        got = drain(b, "early(I)", 2)
        assert [g["I"] for g in got] == ["1", "2"]


    def test_router_restart_keeps_one_senders_order(self, stack):
        # a thread streams frames while its router restarts; the frames the
        # node buffered while the link was down must reach the new router
        # before any frame the thread writes after reconnection
        router, node = stack
        port = free_port()
        r = router("hostA", bind=f"127.0.0.1:{port}", queue_bound=100_000)
        a = node("proc_a", "hostA", r)
        b = node("proc_b", "hostA", r)
        limit, sent, got = [10**9], [0], []
        sender_done, receiver_done = threading.Event(), threading.Event()

        def sender():
            while sent[0] < limit[0]:
                a.send(mk("m", Int(sent[0])), "sink:proc_b@hostA", remember_names=False)
                sent[0] += 1
                if sent[0] % 100 == 0:
                    time.sleep(0.002)
            sender_done.set()

        def receiver():
            # runs until the stream has ended and stayed quiet for 0.5 s
            while True:
                x = Var()
                if b.recv_first(mk("m", x), timeout=0.5, remember_names=False):
                    got.append(deref(x).value)
                elif sender_done.is_set():
                    break
            receiver_done.set()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # more thread switches, more interleavings
        try:
            a.fork(sender)
            b.fork(receiver, symbol="sink")
            wait_until(lambda: len(got) > 500, msg="stream flowing")
            r.stop()
            time.sleep(0.5)
            router("hostA", bind=f"127.0.0.1:{port}", queue_bound=100_000)
            limit[0] = sent[0] + 8000
            assert receiver_done.wait(60.0)
        finally:
            sys.setswitchinterval(switch)
        inversions = sum(1 for x, y in zip(got, got[1:]) if y < x)
        assert inversions == 0
        assert got[-1] == limit[0] - 1

class TestCrossRouter:
    def test_delivery_and_three_frame_cost(self, stack):
        router, node = stack
        rb = router("hostB")
        ra = router("hostA", peers={"hostB": rb.endpoint()})
        a = node("proc_a", "hostA", ra)
        b = node("proc_b", "hostB", rb)
        before = data_frames_out(a, b, ra, rb)
        a.send(parse_term("hop(count)"), "main:proc_b@hostB")
        assert b.recv_search(parse_term("hop(count)"), timeout=5.0)
        assert data_frames_out(a, b, ra, rb) - before == 3

    def test_two_way_traffic(self, stack):
        router, node = stack
        port_a, port_b = free_port(), free_port()
        ra = router(
            "hostA", bind=f"127.0.0.1:{port_a}", peers={"hostB": f"127.0.0.1:{port_b}"}
        )
        rb = router(
            "hostB", bind=f"127.0.0.1:{port_b}", peers={"hostA": f"127.0.0.1:{port_a}"}
        )
        a = node("proc_a", "hostA", ra)
        b = node("proc_b", "hostB", rb)

        a.send(parse_term("ask(6)"), "main:proc_b@hostB")
        t, vs = parse_term_with_vars("ask(N)")
        assert b.recv_search(t, timeout=5.0)
        n = int(format_term(deref(vs["N"])))
        b.send(parse_term(f"reply({n * 7})"), "main:proc_a@hostA")
        t2, vs2 = parse_term_with_vars("reply(M)")
        assert a.recv_search(t2, timeout=5.0)
        assert format_term(deref(vs2["M"])) == "42"

    def test_unreachable_host_without_proxy_is_dropped(self, stack):
        router, node = stack
        ra = router("hostA", peers={"hostX": f"127.0.0.1:{free_port()}"})
        a = node("proc_a", "hostA", ra)
        a.send(parse_term("void"), "main:proc_x@hostX")
        wait_until(lambda: ra.stats()["dropped"] == 1, msg="frame dropped")
        s = ra.stats()
        assert s["frames_in"] == s["frames_out"] + s["queued"] + s["dropped"]

    def test_idle_link_is_closed_and_redialled(self, stack, monkeypatch):
        monkeypatch.setattr(termbus.router, "PEER_IDLE", 0.2)
        router, node = stack
        rb = router("hostB")
        ra = router("hostA", peers={"hostB": rb.endpoint()})
        a = node("proc_a", "hostA", ra)
        b = node("proc_b", "hostB", rb)
        a.send(parse_term("first"), "main:proc_b@hostB")
        assert b.recv_search(parse_term("first"), timeout=5.0)
        wait_until(lambda: not ra._peers, msg="idle link closed")
        a.send(parse_term("second"), "main:proc_b@hostB")
        assert b.recv_search(parse_term("second"), timeout=5.0)


class TestProxy:
    def test_proxy_holds_and_drains_in_order(self, stack):
        router, node = stack
        port_c = free_port()
        # hostB's router answers for the (initially dead) hostC
        rb = router(
            "hostB",
            peers={"hostC": f"127.0.0.1:{port_c}"},
            proxies={"hostC": "hostB"},
        )
        ra = router(
            "hostA",
            peers={"hostC": f"127.0.0.1:{port_c}", "hostB": rb.endpoint()},
            proxies={"hostC": "hostB"},
        )
        a = node("proc_a", "hostA", ra)
        for i in range(5):
            a.send(parse_term(f"held({i})"), "main:proc_c@hostC")
        wait_until(lambda: rb.queued() == 5, msg="proxy held the frames")
        rc = router("hostC", bind=f"127.0.0.1:{port_c}")
        c = node("proc_c", "hostC", rc)
        got = drain(c, "held(I)", 5)
        assert [g["I"] for g in got] == [str(i) for i in range(5)]
        wait_until(lambda: rb.queued() == 0, msg="proxy drained")

    def test_a_dial_that_never_answers_ends_in_the_hold_queue(self, stack):
        # a listener whose backlog is full leaves further dials unanswered
        ls = socket.socket()
        ls.bind(("127.0.0.1", 0))
        ls.listen(0)
        fill = [socket.socket() for _ in range(4)]
        for s in fill:
            s.setblocking(False)
            s.connect_ex(ls.getsockname())
        router, node = stack
        port = ls.getsockname()[1]
        ra = router("hostA", peers={"hostX": f"127.0.0.1:{port}"}, proxies={"hostX": "hostA"})
        a = node("proc_a", "hostA", ra)
        try:
            a.send(parse_term("late"), "main:proc_x@hostX")
            wait_until(lambda: ra.queued() == 1, msg="frame held after the dial timed out")
            s = ra.stats()
            assert s["frames_in"] == 1 and s["frames_out"] == 0 and s["dropped"] == 0
        finally:
            for s in fill + [ls]:
                s.close()

    def test_direct_route_used_when_peer_is_up(self, stack):
        router, node = stack
        rc = router("hostC")
        rb = router("hostB", peers={"hostC": rc.endpoint()}, proxies={"hostC": "hostB"})
        ra = router(
            "hostA",
            peers={"hostC": rc.endpoint(), "hostB": rb.endpoint()},
            proxies={"hostC": "hostB"},
        )
        a = node("proc_a", "hostA", ra)
        c = node("proc_c", "hostC", rc)
        a.send(parse_term("direct"), "main:proc_c@hostC")
        assert c.recv_search(parse_term("direct"), timeout=5.0)
        assert rb.stats()["frames_in"] == 0  # proxy never involved


class TestStats:
    def test_conservation_after_mixed_traffic(self, stack):
        router, node = stack
        r = router("hostA", queue_bound=2)
        a = node("proc_a", "hostA", r)
        b = node("proc_b", "hostA", r)
        for i in range(4):
            a.send(parse_term(f"live({i})"), "main:proc_b@hostA")
        for i in range(4):
            assert b.recv_search(parse_term(f"live({i})"), timeout=5.0)
        for i in range(4):  # overflows bound of 2
            a.send(parse_term(f"dead({i})"), "main:ghost@hostA")
        a.send(parse_term("gone"), "main:x@hostNowhere")
        wait_until(
            lambda: r.stats()["frames_in"] == 9, msg="router saw all nine frames"
        )
        wait_until(lambda: r.stats()["dropped"] == 3, msg="drops settled")
        s = r.stats()
        assert s["frames_in"] == s["frames_out"] + s["queued"] + s["dropped"]
        assert s["queued"] == 2

    def test_control_frames_not_in_data_counters(self, stack):
        router, node = stack
        r = router("hostA")
        node("proc_a", "hostA", r)
        node("proc_b", "hostA", r)
        s = r.stats()
        assert s["ctl_in"] == 2 and s["ctl_out"] == 2
        assert s["frames_in"] == 0 and s["frames_out"] == 0


def connect(r, timeout=10.0):
    s = socket.create_connection(("127.0.0.1", r.port))
    s.settimeout(timeout)
    return s


def raw_process(r, name):
    """A bare socket registered with the router as process name."""
    s = connect(r)
    s.sendall(encode_envelope(make_register(name, r.host)))
    assert read_frame(s) is not None  # the acknowledgement
    return s


def raw_frame(to, sender, body=b"\x01\x01a", version=0x01, flags=0x01):
    """A frame built by hand, so its header may be anything."""
    inner = bytes([version, flags])
    for text in (to, sender, sender):
        raw = text.encode()
        inner += encode_varint(len(raw)) + raw
    inner += body
    return struct.pack(">I", len(inner)) + inner


class TestRelay:
    """The router reads a data frame's header only and relays its bytes."""

    def test_long_list_body_is_relayed_byte_for_byte(self, stack):
        router, _ = stack
        r = router("hostA")
        sink = raw_process(r, "sink")
        frame = encode_envelope(Envelope(
            mklist(Int(i) for i in range(100_000)),
            Address("main", "sink", "hostA"),
            Address("main", "src", "hostA"),
            flags=Flags(encoded=True),
        ))
        src = connect(r)
        try:
            src.sendall(frame)
            assert read_frame(sink) == frame
        finally:
            src.close()
            sink.close()

    def test_bad_body_is_relayed_and_dropped_at_the_node(self, stack, caplog):
        caplog.set_level(logging.WARNING, logger="termbus.node")
        router, node = stack
        r = router("hostA")
        b = node("proc_b", "hostA", r)
        src = connect(r)
        try:
            src.sendall(raw_frame("main:proc_b@hostA", "main:src@hostA", body=b"\x09junk"))
            src.sendall(raw_frame("main:proc_b@hostA", "main:src@hostA", body=b"\x01\x04next"))
            assert b.recv_search(parse_term("next"), timeout=5.0)
        finally:
            src.close()
        assert r.stats()["frames_out"] == 2
        assert r.stats()["bad_frames"] == 0
        assert b.stats()["bad_frames"] == 1 and b.stats()["frames_in"] == 1
        assert any("event=drop_malformed_frame" in m for m in caplog.messages)

    def test_bad_header_is_dropped_and_the_connection_keeps_routing(self, stack):
        router, _ = stack
        r = router("hostA")
        sink = raw_process(r, "sink")
        good = raw_frame("main:sink@hostA", "main:src@hostA")
        src = connect(r)
        try:
            src.sendall(raw_frame("main:sink@hostA", "main:src@hostA", version=0x02))
            src.sendall(raw_frame("main", "main:src@hostA"))
            src.sendall(raw_frame("main:sink@hostA", "main:src"))
            src.sendall(good)
            assert read_frame(sink) == good
        finally:
            src.close()
            sink.close()
        s = r.stats()
        assert s["frames_in"] == 1 and s["frames_out"] == 1
        assert s["bad_frames"] == 3 and s["dropped"] == 0


class TestConnections:
    def test_node_link_disables_nagle(self, stack):
        router, node = stack
        a = node("proc_a", "hostA", router("hostA"))
        assert a._link._conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_node_shutdown_ends_a_write_blocked_by_its_router(self):
        # a router that acknowledges the registration and then never reads
        ls = socket.create_server(("127.0.0.1", 0))
        conns = []

        def fake_router():
            c, _ = ls.accept()
            conns.append(c)
            read_frame(c)
            c.sendall(encode_envelope(make_register_ack("proc_a", "hostA")))

        threading.Thread(target=fake_router, daemon=True).start()
        a = Node(NodeConfig(process="proc_a", host="hostA",
                            router=f"127.0.0.1:{ls.getsockname()[1]}")).start()
        sent = [0]

        def stream():
            a.attach()
            for i in range(100):
                a.send(mk("m", Int(i), Str("x" * 150_000)), "main:proc_b@hostA")
                sent[0] = i + 1

        streamer = threading.Thread(target=stream, daemon=True)
        streamer.start()
        try:
            quiet(lambda: sent[0])
            assert sent[0] < 100, "the writes never blocked"
            closer = threading.Thread(target=a.shutdown, daemon=True)
            closer.start()
            closer.join(1.0)
            assert not closer.is_alive()
            streamer.join(5.0)
            assert not streamer.is_alive()
            # the frame whose write failed went back to the outbox
            assert a.stats()["frames_out"] + len(a._link._outbox) == 100
        finally:
            for c in conns + [ls]:
                c.close()
            a.shutdown()

    def test_one_thread_and_no_state_per_connection(self, stack):
        router, _ = stack
        r = router("hostPrune")

        def router_threads():
            return sum(t.name.startswith("router-hostPrune") for t in threading.enumerate())

        assert router_threads() == 1
        live = [raw_process(r, f"p{i}") for i in range(50)]
        assert router_threads() == 1
        for s in live:
            s.close()
        wait_until(lambda: not r._conns, msg="finished connections forgotten")
        s = raw_process(r, "last")
        try:
            assert router_threads() == 1 and len(r._conns) == 1
        finally:
            s.close()


def data_frame(to, seq, pad=0):
    """An encoded data frame m(seq, Pad) from main:src@hostA, pad bytes long."""
    return encode_envelope(Envelope(
        mk("m", Int(seq), Str("x" * pad)),
        Address("main", to, "hostA"),
        Address("main", "src", "hostA"),
        flags=Flags(encoded=True),
    ))


def frame_seq(frame):
    return deref(decode_envelope(frame).payload).args[0].value


def quiet(counter, still=0.3, timeout=10.0):
    """Wait until counter() holds one value for still seconds."""
    deadline = time.monotonic() + timeout
    last, since = counter(), time.monotonic()
    while time.monotonic() < deadline:
        time.sleep(0.02)
        now = counter()
        if now != last:
            last, since = now, time.monotonic()
        elif time.monotonic() - since >= still:
            return now
    raise AssertionError("counter never settled")


class TestSlowConsumer:
    """A registered consumer that stops reading pauses its producer only."""

    FRAMES, PAD = 120, 150_000

    @pytest.fixture
    def stalled(self, stack):
        """A router whose consumer 'slow' never reads while 'src' streams
        FRAMES frames of PAD bytes to it, until the router pauses src."""
        router, _ = stack
        r = router("hostA")
        slow = raw_process(r, "slow")
        src = connect(r)
        sent = [0]

        def stream():
            try:
                for i in range(self.FRAMES):
                    src.sendall(data_frame("slow", i, self.PAD))
                    sent[0] = i + 1
            except OSError:
                pass

        t = threading.Thread(target=stream, daemon=True)
        t.start()
        quiet(lambda: sent[0])
        assert sent[0] < self.FRAMES, "the stream never stalled"
        try:
            yield r, slow, sent, t
        finally:
            slow.close()
            src.close()
            t.join(10.0)

    def test_the_paused_producer_resumes_when_the_consumer_reads(self, stalled):
        r, slow, sent, streamer = stalled
        got = [frame_seq(read_frame(slow)) for _ in range(self.FRAMES)]
        assert got == list(range(self.FRAMES))
        streamer.join(10.0)
        assert sent[0] == self.FRAMES
        s = r.stats()
        assert s["frames_in"] == s["frames_out"] == self.FRAMES and s["dropped"] == 0

    def test_stop_returns_while_a_consumer_stalls(self, stalled):
        r, _, _, _ = stalled
        stopper = threading.Thread(target=r.stop, daemon=True)
        stopper.start()
        stopper.join(1.0)
        assert not stopper.is_alive()

    def test_reregistration_is_acknowledged_and_gets_the_backlog(self, stalled):
        r, _, sent, streamer = stalled
        fresh = connect(r, timeout=1.0)
        try:
            fresh.sendall(encode_envelope(make_register("slow", r.host)))
            assert is_register_ack(decode_envelope(read_frame(fresh)))
            fresh.settimeout(10.0)
            got = [frame_seq(read_frame(fresh))]
            while got[-1] != self.FRAMES - 1:
                got.append(frame_seq(read_frame(fresh)))
        finally:
            fresh.close()
        assert got == sorted(set(got))
        streamer.join(10.0)
        assert sent[0] == self.FRAMES

    def test_other_traffic_flows_while_a_producer_is_paused(self, stalled):
        r, _, _, _ = stalled
        fast = raw_process(r, "fast")
        other = connect(r)
        try:
            other.sendall(data_frame("fast", 7))
            fast.settimeout(1.0)
            assert frame_seq(read_frame(fast)) == 7
        finally:
            fast.close()
            other.close()
        assert r.stats()["dropped"] == 0


class _StingySocket:
    """A socket that takes at most `take` bytes of each send and records
    how many bytes each send was handed."""

    def __init__(self, take):
        self.take, self.handed, self.got = take, [], bytearray()

    def send(self, data):
        self.handed.append(len(data))
        n = min(len(data), self.take)
        self.got += bytes(data[:n])
        return n


def test_a_long_write_queue_drains_in_linear_work():
    """Each send is handed a bounded prefix of the queue, not all of it."""
    frames = [bytes([i % 251]) * 1024 for i in range(2048)]  # 2 MB of 1 KB frames
    sock = _StingySocket(take=4500)
    loop = ConnLoop(Counters("bad_frames"))
    c = _Conn(sock)
    loop._queue(c, *frames)  # the queue was empty: its first send is made at once
    done = len(frames) - len(c.wbuf)
    while c.wbuf:
        done += loop._send(c)
    moved = len(sock.got)
    assert done == len(frames) and c.wbytes == 0 and c.sent == 0
    assert sock.got == b"".join(frames)  # every byte, in frame order
    assert sum(sock.handed) <= 2 * moved


class _WrittenLoop(ConnLoop):
    WRITTEN = "frames_out"


class _FullSocket:
    def send(self, data):
        raise BlockingIOError


class TestLoneFrameWrite:
    """A lone frame that finds its queue empty is written with one send and
    touches the queue only if the socket leaves part of it."""

    def loop(self):
        return _WrittenLoop(Counters("bad_frames", "frames_out"))

    def test_a_frame_taken_whole_never_enters_the_queue(self):
        loop, sock, frame = self.loop(), _StingySocket(take=1 << 20), data_frame("sink", 1)
        c = _Conn(sock)
        assert loop._queue(c, frame) is False  # nothing left for the loop
        assert sock.handed == [len(frame)] and sock.got == frame
        assert not c.wbuf and c.wbytes == 0 and c.sent == 0 and c not in loop._dirty
        assert loop._counters.snapshot()["frames_out"] == 1

    def test_a_frame_taken_in_part_leaves_exactly_the_remainder_queued(self):
        loop, sock, frame = self.loop(), _StingySocket(take=10), data_frame("sink", 1, pad=50)
        c = _Conn(sock)
        assert loop._queue(c, frame) is True  # the loop sends the rest
        assert list(c.wbuf) == [frame] and c.sent == 10 and c.wbytes == len(frame)
        assert c in loop._dirty and sock.handed == [len(frame)]
        assert loop._counters.snapshot()["frames_out"] == 0  # taken back
        sock.take = 1 << 20
        assert loop._send(c) == 1
        assert sock.handed[1] == len(frame) - 10 and sock.got == frame
        assert not c.wbuf and c.wbytes == 0 and c.sent == 0
        assert loop._counters.snapshot()["frames_out"] == 1

    def test_a_frame_a_full_socket_refuses_is_queued_whole(self):
        loop, frame = self.loop(), data_frame("sink", 1)
        c = _Conn(_FullSocket())
        assert loop._queue(c, frame) is True
        assert list(c.wbuf) == [frame] and c.sent == 0 and c.wbytes == len(frame)
        assert loop._counters.snapshot()["frames_out"] == 0

    def test_a_frame_behind_a_queued_one_waits_its_turn(self):
        loop, sock = self.loop(), _StingySocket(take=10)
        c = _Conn(sock)
        first, second = data_frame("sink", 1, pad=50), data_frame("sink", 2)
        loop._queue(c, first)
        assert loop._queue(c, second) is False  # the loop is already sending c
        assert list(c.wbuf) == [first, second] and len(sock.handed) == 1


class TestOneLoopReads:
    """Through the router's own loop: a read of exactly one whole frame goes
    to _inbound as received, and any other read is cut by cut_frames.  Either
    way every good frame is routed once and in order, and a malformed one
    counts in bad_frames."""

    @pytest.fixture
    def hop(self, monkeypatch):
        r = Router(RouterConfig(host="hostA"))  # not started: the test drives _serve
        src, feed = socket.socketpair()
        sink, out = socket.socketpair()
        for s in (src, sink, out):
            s.setblocking(False)
        c, dest = _Conn(src), _Conn(sink)
        r._conns.update((c, dest))
        r._live["sink"] = dest
        cuts = []

        def cut(buf):
            cuts.append(bytes(buf))
            return cut_frames(buf)

        monkeypatch.setattr(termbus.router, "cut_frames", cut)

        def read(data):
            """One read of data by the loop; the seqs it routed to sink."""
            feed.sendall(data)
            r._serve(c, READ)
            got = b""
            try:
                while chunk := out.recv(1 << 16):
                    got += chunk
            except BlockingIOError:
                pass
            return [frame_seq(f) for f in split_frames(got)]

        yield r, c, read, cuts
        for s in (src, feed, sink, out):
            s.close()

    def test_exactly_one_frame_skips_the_receive_buffer(self, hop):
        r, c, read, cuts = hop
        assert [read(data_frame("sink", i)) for i in range(3)] == [[0], [1], [2]]
        assert cuts == [] and not c.rbuf
        s = r.stats()
        assert s["frames_in"] == s["frames_out"] == 3 and s["bad_frames"] == 0

    def test_one_frame_split_over_two_reads(self, hop):
        r, c, read, cuts = hop
        frame = data_frame("sink", 7, pad=30)
        assert read(frame[:9]) == [] and c.rbuf == frame[:9]
        assert read(frame[9:]) == [7] and not c.rbuf
        assert read(data_frame("sink", 8)) == [8] and len(cuts) == 2

    def test_two_frames_and_part_of_a_third(self, hop):
        r, c, read, cuts = hop
        frames = [data_frame("sink", i, pad=i) for i in range(3)]
        assert read(frames[0] + frames[1] + frames[2][:5]) == [0, 1]
        assert c.rbuf == frames[2][:5]
        assert read(frames[2][5:]) == [2] and not c.rbuf
        assert r.stats()["frames_out"] == 3 and r.stats()["bad_frames"] == 0

    def test_a_good_frame_then_a_malformed_one(self, hop):
        r, c, read, cuts = hop
        bad = raw_frame("main:sink@hostA", "main:src")  # an unqualified sender
        assert read(data_frame("sink", 0) + bad) == [0]
        assert r.stats()["bad_frames"] == 1
        assert read(bad) == [] and r.stats()["bad_frames"] == 2  # alone in its read
        assert read(data_frame("sink", 1)) == [1]
        s = r.stats()
        assert s["frames_in"] == s["frames_out"] == 2 and c in r._conns and not c.rbuf


class TestFramingFaults:
    """A connection that breaks framing is closed alone and counted."""

    def _fault_closes_only_its_connection(self, r, breaks):
        sink = raw_process(r, "sink")
        bad, good = connect(r), connect(r)
        try:
            breaks(bad)
            wait_until(lambda: r.stats()["bad_frames"] == 1, msg="fault counted")
            if bad.fileno() != -1:
                assert bad.recv(1) == b""  # the router closed it
            good.sendall(data_frame("sink", 1))
            assert frame_seq(read_frame(sink)) == 1
        finally:
            for s in (sink, bad, good):
                s.close()
        assert r.stats()["bad_frames"] == 1

    def test_oversized_length_prefix(self, stack):
        router, _ = stack
        self._fault_closes_only_its_connection(
            router("hostA"), lambda s: s.sendall(struct.pack(">I", 100 << 20) + b"\x01")
        )

    def test_close_in_mid_frame(self, stack):
        router, _ = stack

        def half_then_close(s):
            s.sendall(data_frame("sink", 0)[:10])
            s.close()

        self._fault_closes_only_its_connection(router("hostA"), half_then_close)


class TestNodeLink:
    """A node's link to its router runs on the router's connection loop."""

    def test_shutdown_ends_the_link_thread(self, stack):
        router, node = stack
        a = node("proc_a", "hostA", router("hostA"))
        a.shutdown()
        assert not a._link._thread.is_alive()

    def test_shutdown_ends_the_link_thread_while_it_redials(self):
        a = Node(NodeConfig(process="proc_a", host="hostA",
                            router=f"127.0.0.1:{free_port()}")).start(wait=False)
        time.sleep(0.2)  # a few refused dials
        a.shutdown()
        assert not a._link._thread.is_alive()

    def test_a_failed_start_ends_the_link_thread(self, monkeypatch):
        monkeypatch.setattr(termbus.runtime, "CONNECT_TIMEOUT", 0.2)
        a = Node(NodeConfig(process="proc_dead", host="hostA",
                            router=f"127.0.0.1:{free_port()}"))
        with pytest.raises(RouterUnavailableError):
            a.start()
        assert not any(t.name == "proc_dead-pump" and t.is_alive()
                       for t in threading.enumerate())

    def test_concurrent_senders_keep_their_order_through_a_full_queue(self, stack):
        # more sending threads than cores stream large frames through one
        # link, so frames go out both from the senders and from the loop
        router, node = stack
        r = router("hostA")
        a = node("proc_a", "hostA", r)
        b = node("proc_b", "hostA", r)
        threads, frames, pad = 4, 150, "x" * 20_000
        got = {t: [] for t in range(threads)}

        def stream(t):
            for i in range(frames):
                a.send(mk("m", Int(t), Int(i), Str(pad)), "main:proc_b@hostA",
                       remember_names=False)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in range(threads):
                a.fork(lambda t=t: stream(t))
            for _ in range(threads * frames):
                t, i = Var(), Var()
                assert b.recv_first(mk("m", t, i, Var()), timeout=10.0, remember_names=False)
                got[deref(t).value].append(deref(i).value)
        finally:
            sys.setswitchinterval(switch)
        assert all(got[t] == list(range(frames)) for t in range(threads))
        assert a.stats()["frames_out"] == threads * frames and not a._link._outbox

    def test_a_send_returns_once_its_frame_is_queued(self):
        # a router that acknowledges the registration and then never reads
        ls = socket.create_server(("127.0.0.1", 0))
        conns = []

        def fake_router():
            c, _ = ls.accept()
            conns.append(c)
            read_frame(c)
            c.sendall(encode_envelope(make_register_ack("proc_a", "hostA")))

        threading.Thread(target=fake_router, daemon=True).start()
        a = Node(NodeConfig(process="proc_a", host="hostA",
                            router=f"127.0.0.1:{ls.getsockname()[1]}")).start()
        link, returned = a._link, [0]

        def stream():
            a.attach()
            for i in range(100):
                a.send(mk("m", Int(i), Str("x" * 150_000)), "main:proc_b@hostA")
                returned[0] = i + 1

        streamer = threading.Thread(target=stream, daemon=True)
        streamer.start()
        try:
            quiet(lambda: returned[0])
            assert returned[0] < 100, "the sends never waited"
            # the frames of the sends that returned are in the socket or in
            # the write queue, and the next send waits on a full queue
            assert a.stats()["frames_out"] < returned[0]
            queue = link._conn.wbuf
            assert a.stats()["frames_out"] + len(queue) == returned[0]
            assert WRITE_BOUND <= link._conn.wbytes < WRITE_BOUND + len(queue[-1])
            closer = threading.Thread(target=a.shutdown, daemon=True)
            closer.start()
            closer.join(1.0)
            assert not closer.is_alive()
            streamer.join(5.0)
            assert not streamer.is_alive()
            assert a.stats()["frames_out"] + len(link._outbox) == 100
            # frames_out counts the frames the socket took whole
            conns[0].settimeout(10.0)
            received = bytearray()
            while data := conns[0].recv(1 << 20):
                received += data
            assert len(cut_frames(received)) == a.stats()["frames_out"]
        finally:
            for c in conns + [ls]:
                c.close()
            a.shutdown()
