"""Store-and-forward routing daemon for one host.

Every process on a host keeps one duplex connection to the host's router,
which it names in a REGISTER control frame.  The router acknowledges and
from then on forwards every data frame addressed to that process down that
connection.  Frames for a process that is not connected wait in a bounded
per-process queue, oldest dropped on overflow, until it (re)registers.
Frames for another host go over a lazily dialled link to that host's
router.  When it cannot be reached they go to the host's proxy router (a
router that is itself the proxy holds them and redials) or are dropped.

One thread runs a selectors loop over every socket, and no socket blocks.
The frames queued for one socket go out in one send.  A frame that finds a
write queue at WRITE_BOUND bytes is still queued, but its producer is not
read again until that queue drains: a slow consumer pauses its producers,
loses nothing and delays no other connection.  A data frame counts in
``frames_out`` once queued; if its connection dies first, the count is taken
back and the frame is routed again, so at quiescence frames_in ==
frames_out + queued + dropped.

Frames are relayed as received, never re-encoded, so a hop keeps the wire
bytes.  The router reads only a data frame's header (length, version, flags
and the three addresses); a bad body travels on and surfaces at the
receiving node.  Only control frames are decoded in full.  A frame with a
bad header is dropped; a length prefix over MAX_FRAME, a close in mid-frame
or any other failure while serving a connection closes that connection
alone.  Each counts in ``bad_frames``.
"""

from __future__ import annotations

import errno
import logging
import selectors
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .codec import (
    CodecError,
    Envelope,
    RECV_SIZE,
    TruncatedFrameError,
    cut_frames,
    decode_envelope,
    encode_envelope,
    make_register_ack,
    hard_close,
    register_payload_name,
)
from .counters import Counters

log = logging.getLogger("termbus.router")

WRITE_BOUND = 256 * 1024  # queued bytes at which a connection pauses producers
DIAL_TIMEOUT = 0.25
REDIAL_INTERVAL = 0.1  # also the period of dial and idle checks
PEER_IDLE = 30.0
READ, WRITE = selectors.EVENT_READ, selectors.EVENT_WRITE


@dataclass(frozen=True)
class RouterConfig:
    host: str
    bind: str = "127.0.0.1:0"
    peers: dict[str, str] = field(default_factory=dict)  # host label -> "ip:port"
    proxies: dict[str, str] = field(default_factory=dict)  # dest host -> proxy host
    queue_bound: int = 512


@dataclass(eq=False, slots=True)
class _Conn:
    """One socket on the loop: a process, a peer router, or a link we dialled."""

    sock: socket.socket
    peer: Optional[str] = None  # host label, on a link this router dialled
    dial_deadline: Optional[float] = None  # set until the dial answers
    rbuf: bytearray = field(default_factory=bytearray)  # a frame still arriving
    wbuf: deque[bytes] = field(default_factory=deque)
    wbytes: int = 0
    sent: int = 0  # bytes of wbuf[0] already written
    paused: bool = False  # not read until a full write queue drains
    waiters: list[_Conn] = field(default_factory=list)  # producers paused on wbuf
    events: int = 0  # selector interest; 0 while unregistered
    last_used: float = field(default_factory=time.monotonic)


@dataclass(eq=False)
class _Registration:
    """One local process: its live connection, or its waiting frames."""

    conn: Optional[_Conn] = None
    pending: deque[bytes] = field(default_factory=deque)

    @property
    def sock(self) -> Optional[socket.socket]:
        return self.conn.sock if self.conn else None


class Router:
    def __init__(self, config: RouterConfig):
        self.config = config
        self.host = config.host
        self._lsock: Optional[socket.socket] = None
        self.port: Optional[int] = None
        self._regs: dict[str, _Registration] = {}
        self._peers: dict[str, _Conn] = {}  # links this router dialled
        self._held: dict[str, deque[bytes]] = {}
        self._conns: set[_Conn] = set()  # the live connections
        self._dirty: set[_Conn] = set()  # frames queued since their last send
        self._sel = selectors.DefaultSelector()
        self._wake_r, self._wake_w = socket.socketpair()
        self._thread: Optional[threading.Thread] = None
        self._counters = Counters(
            "frames_in", "frames_out", "ctl_in", "ctl_out", "dropped", "bad_frames", "queued"
        )
        self.closing = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Router":
        ip, _, port = self.config.bind.rpartition(":")
        self._lsock = socket.create_server((ip or "127.0.0.1", int(port)), backlog=64)
        self._lsock.setblocking(False)
        self.port = self._lsock.getsockname()[1]
        self._sel.register(self._lsock, READ)
        self._sel.register(self._wake_r, READ)
        self._thread = threading.Thread(
            target=self._run, daemon=True, name=f"router-{self.host}"
        )
        self._thread.start()
        log.info("event=router_up host=%s port=%d", self.host, self.port)
        return self

    def stop(self) -> None:
        """End the loop; every socket is closed when this returns."""
        self.closing = True
        try:
            self._wake_w.send(b"\0")
        except OSError:  # the loop saw closing first and closed the socket
            pass
        if self._thread is not None:
            self._thread.join()

    def endpoint(self) -> str:
        return f"127.0.0.1:{self.port}"

    def queued(self) -> int:
        return self._counters.snapshot()["queued"]

    def stats(self) -> dict:
        return self._counters.snapshot()

    # -- the loop ---------------------------------------------------------------

    def _run(self) -> None:
        tick = time.monotonic() + REDIAL_INTERVAL
        try:
            while not self.closing:
                for key, mask in self._sel.select(max(0.0, tick - time.monotonic())):
                    if key.data is not None:
                        self._serve(key.data, mask)
                    elif key.fileobj is self._lsock:
                        self._accept()
                    # else the wake-up socket: the loop condition reads closing
                while self._dirty:
                    self._serve(self._dirty.pop(), WRITE)
                if time.monotonic() >= tick:
                    self._tick()
                    tick = time.monotonic() + REDIAL_INTERVAL
        finally:
            for c in self._conns:
                hard_close(c.sock)
            hard_close(self._lsock)
            self._sel.close()
            self._wake_r.close()
            self._wake_w.close()

    def _serve(self, c: _Conn, mask: int) -> None:
        """Write and read c; a failure closes c alone and counts in bad_frames."""
        try:
            if mask & WRITE:
                self._flush(c)
            if mask & READ and c in self._conns:  # an earlier event may have closed c
                self._read(c)
        except Exception as e:
            log.warning("event=conn_failed err=%r", e, exc_info=not isinstance(e, CodecError))
            self._counters.add("bad_frames")
            self._close(c)

    def _accept(self) -> None:
        try:
            sock, _ = self._lsock.accept()
        except OSError:
            return
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        c = _Conn(sock)
        self._conns.add(c)
        self._update(c)

    def _update(self, c: _Conn) -> None:
        """Match c's selector interest to its state."""
        want = (0 if c.paused else READ) | (WRITE if c.wbuf else 0)
        if want != c.events:
            if c.events:
                self._sel.unregister(c.sock)
            if want:
                self._sel.register(c.sock, want, c)
            c.events = want

    def _read(self, c: _Conn) -> None:
        """Route every complete frame one recv brings in, from a process or a
        peer router alike; a frame with a bad header is dropped."""
        try:
            data = c.sock.recv(RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:  # reset: the same as a close
            data = b""
        if not data:
            if c.rbuf:
                raise TruncatedFrameError("connection closed mid-frame")
            self._close(c)
            return
        c.rbuf += data
        for frame in cut_frames(c.rbuf):
            try:
                env = decode_envelope(frame, body=False)
            except Exception as e:
                log.warning("event=bad_frame err=%s", e)
                self._counters.add("bad_frames")
                continue
            if not env.flags.control:
                self._counters.add("frames_in")
                self._route(frame, env, c)
                continue
            self._counters.add("ctl_in")
            name = register_payload_name(env)
            if name is not None:
                self._register(name, c)

    def _push(self, c: _Conn, frame: bytes, src: Optional[_Conn] = None,
              counter: str = "frames_out") -> None:
        """Queue and count frame; a producer that finds c's queue full pauses."""
        if src is not None and not src.paused and c.wbytes >= WRITE_BOUND:
            src.paused = True
            c.waiters.append(src)
            self._update(src)
        self._counters.add(counter)
        c.wbuf.append(frame)
        c.wbytes += len(frame)
        c.last_used = time.monotonic()
        self._dirty.add(c)

    def _flush(self, c: _Conn) -> None:
        """Write as much of c's queue as the socket takes, in one send."""
        if c not in self._conns or not c.wbuf:
            return
        data = c.wbuf[0] if len(c.wbuf) == 1 else b"".join(c.wbuf)
        try:
            n = c.sent + c.sock.send(memoryview(data)[c.sent:] if c.sent else data)
        except BlockingIOError:  # the socket is full, or a dial is under way
            n = c.sent
        except OSError:
            self._close(c)
            return
        while c.wbuf and n >= len(c.wbuf[0]):
            n -= len(c.wbuf[0])
            c.wbytes -= len(c.wbuf.popleft())
        c.sent = n
        self._update(c)
        if c.waiters and c.wbytes < WRITE_BOUND:
            self._unpause(c)

    def _unpause(self, c: _Conn) -> None:
        for p in c.waiters:
            p.paused = False
            if p in self._conns:
                self._update(p)
        c.waiters.clear()

    def _close(self, c: _Conn) -> None:
        """Forget c: its producers resume and its unsent frames are routed again."""
        if c not in self._conns:
            return
        self._conns.remove(c)
        if c.events:
            self._sel.unregister(c.sock)
        hard_close(c.sock)
        for name, reg in self._regs.items():
            if reg.conn is c:
                reg.conn = None
                log.info("event=process_down name=%s", name)
        self._peers.pop(c.peer, None)
        self._unpause(c)
        for frame in c.wbuf:
            env = decode_envelope(frame, body=False)
            self._counters.add("ctl_out" if env.flags.control else "frames_out", -1)
            if env.flags.control:
                continue
            if c.peer is None:
                self._route(frame, env)
            elif env.to.host == c.peer:
                self._to_host(c.peer, frame, direct=False)
            else:  # proxied through c to another host: the proxy is down too
                self._drop("drop_unreachable host=%s", env.to.host)

    # -- routing ------------------------------------------------------------------

    def _reg_for(self, name: str) -> _Registration:
        reg = self._regs.get(name)
        if reg is None:
            reg = self._regs[name] = _Registration()
        return reg

    def _register(self, name: str, c: _Conn) -> None:
        reg = self._reg_for(name)
        if reg.conn is not None and reg.conn is not c:
            self._close(reg.conn)  # its unsent frames go back to reg.pending
        reg.conn = c
        self._push(c, encode_envelope(make_register_ack(name, self.host)), counter="ctl_out")
        log.info("event=registered name=%s pending=%d", name, len(reg.pending))
        self._counters.add("queued", -len(reg.pending))
        while reg.pending:
            self._push(c, reg.pending.popleft())

    def _route(self, frame: bytes, env: Envelope, src: Optional[_Conn] = None) -> None:
        if env.to.host != self.host:
            self._to_host(env.to.host, frame, src)
            return
        reg = self._reg_for(env.to.process)
        if reg.conn is not None:
            self._push(reg.conn, frame, src)
        else:
            self._enqueue(reg.pending, frame, "queue_overflow name=%s", env.to.process)

    def _to_host(self, label: str, frame: bytes, src: Optional[_Conn] = None,
                 direct: bool = True) -> None:
        """Send frame to label's router or, when that cannot be reached (not
        direct: its link failed), to label's proxy; the proxy itself holds
        the frame.  With no way on, the frame is dropped."""
        proxy = self.config.proxies.get(label)
        if proxy == self.host and self._held.get(label):
            direct = False  # frames already held for label must not be overtaken
        link = self._link(label) if direct else None
        if link is None and proxy not in (None, label, self.host):
            link = self._link(proxy)
        if link is not None:
            self._push(link, frame, src)
        elif proxy == self.host:
            held = self._held.setdefault(label, deque())
            self._enqueue(held, frame, "hold_overflow host=%s", label)
        else:
            self._drop("drop_unreachable host=%s", label)

    def _enqueue(self, q: deque[bytes], frame: bytes, event: str, who: str) -> None:
        """Store frame; past queue_bound the oldest stored frame is dropped."""
        q.append(frame)
        if len(q) > self.config.queue_bound:
            q.popleft()
            self._drop(event, who)
        else:
            self._counters.add("queued")

    def _drop(self, event: str, *args) -> None:
        self._counters.add("dropped")
        log.warning("event=" + event, *args)

    def _link(self, label: str) -> Optional[_Conn]:
        """The link to label's router, dialled if need be; None if it cannot be."""
        link = self._peers.get(label)
        if link is not None or label not in self.config.peers:
            return link
        ip, _, port = self.config.peers[label].rpartition(":")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if sock.connect_ex((ip or "127.0.0.1", int(port))) not in (0, errno.EINPROGRESS):
            sock.close()
            return None
        link = _Conn(sock, peer=label, dial_deadline=time.monotonic() + DIAL_TIMEOUT)
        self._peers[label] = link
        self._conns.add(link)
        self._update(link)
        return link

    def _tick(self) -> None:
        """End late dials and idle links; send held frames, redialling for them."""
        now = time.monotonic()
        for link in list(self._peers.values()):
            if link.dial_deadline is not None:
                try:
                    link.sock.getpeername()  # raises until the dial answers
                    link.dial_deadline = None
                except OSError:
                    if now > link.dial_deadline:
                        self._close(link)
            elif not link.wbuf and now - link.last_used > PEER_IDLE:
                self._close(link)
        for label, held in self._held.items():
            link = self._link(label) if held else None
            if link is not None and link.dial_deadline is None:
                self._counters.add("queued", -len(held))
                while held:
                    self._push(link, held.popleft())
