"""Store-and-forward routing daemon for one host, and its connection loop.

Every process on a host keeps one duplex connection to the host's router,
which it names in a REGISTER control frame.  The router acknowledges and
from then on forwards every data frame addressed to that process down that
connection.  Frames for a process that is not connected wait until it
(re)registers.  Frames for another host go over a lazily dialled link to
that host's router.  When it cannot be reached they go to the host's proxy
router (a router that is itself the proxy holds them and redials) or are
dropped.  Held frames wait in a Holds (below), as a node's do.

One ConnLoop (below) serves every connection of the router from one
thread; each node's link to its router (runtime._RouterLink) runs one too.
The loop owns the write queues: ConnLoop._queue appends every frame that
either owner sends, and sends at once what finds its queue empty, a lone
frame in one send.  A read of exactly one whole frame, with nothing
buffered, goes to the owner as received, without the receive buffer.
A data frame counts in ``frames_out`` once queued; if its connection dies
first, the count is taken back and the frame is routed again, so at
quiescence frames_in == frames_out + queued + dropped.

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
import select
import socket
import struct
import threading
import time
from collections import OrderedDict, deque
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
    register_payload_name,
)
from .counters import Counters

log = logging.getLogger("termbus.router")

WRITE_BOUND = 256 * 1024  # queued bytes at which a connection pauses producers
SEND_CHUNK = 8 * 1024  # bytes of queued frames joined for one send
DIAL_TIMEOUT = 0.25
REDIAL_INTERVAL = 0.1  # also the period of dial and idle checks
PEER_IDLE = 30.0
HOLD_TOTAL = 1 << 16  # frames one Holds keeps over all its keys
DROP_LOG_INTERVAL = 1.0  # least seconds between two drop lines of one Holds
READ, WRITE = select.POLLIN, select.POLLOUT
_length = struct.Struct(">I").unpack_from  # a frame's length prefix


def endpoint_addr(endpoint: str) -> tuple[str, int]:
    """The socket address of "ip:port"; an empty ip means 127.0.0.1."""
    ip, _, port = endpoint.rpartition(":")
    return ip or "127.0.0.1", int(port)


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
    peer: Optional[str] = None  # host label, on a link a router dialled
    dial_deadline: Optional[float] = None  # set until the dial answers
    rbuf: bytearray = field(default_factory=bytearray)  # a frame still arriving
    wbuf: deque[bytes] = field(default_factory=deque)
    wbytes: int = 0
    sent: int = 0  # bytes of wbuf[0] already written
    paused: bool = False  # not read until a full write queue drains
    waiters: list[_Conn] = field(default_factory=list)  # producers paused on wbuf
    events: int = 0  # poll interest; 0 while unregistered
    last_used: float = field(default_factory=time.monotonic)


class ConnLoop:
    """One thread's poll loop over non-blocking sockets.

    Each connection has a receive buffer cut by codec.cut_frames (a read of
    one whole frame skips it) and a write queue whose frames go out joined,
    up to SEND_CHUNK bytes a send; _queue alone appends to a queue, and
    sends at once frames that find it empty, so they cost the loop a turn
    only if the socket does not take them whole.  A frame that finds a
    queue at WRITE_BOUND bytes is still queued, but its producer is not read
    again until that queue drains: a slow consumer pauses its producers,
    loses nothing and delays no other connection.  Dials do not block.  The
    owner says what a connection's frames mean (_inbound), what a closed one
    leaves behind (_closed), what the tick every TICK seconds does (_tick)
    and, if it listens, how it accepts (_accept).
    """

    TICK = 0.1
    WRITTEN: Optional[str] = None  # counts frames written whole, before the write

    def __init__(self, counters: Counters):
        self._counters = counters  # holds bad_frames
        self._conns: set[_Conn] = set()  # the live connections
        self._dirty: set[_Conn] = set()  # frames queued since their last send
        self._thread: Optional[threading.Thread] = None
        self.closing = False

    def _start(self, name: str, *listeners: socket.socket) -> None:
        self._poll = select.poll()
        self._fds: dict[int, object] = {}  # a _Conn, the wake-up socket or a listener
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)
        for s in (self._wake_r, *listeners):
            self._poll.register(s, READ)
            self._fds[s.fileno()] = s
        self._thread = threading.Thread(target=self._run, daemon=True, name=name)
        self._thread.start()

    def stop(self) -> None:
        """End the loop; every socket is closed when this returns."""
        self.closing = True
        if self._thread is not None:
            self._wake()
            self._thread.join()

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except OSError:  # a wake-up is pending, or the loop has ended
            pass

    def _run(self) -> None:
        now = tick = time.monotonic()  # the clock is read once a turn
        try:
            while not self.closing:
                for fd, mask in self._poll.poll((tick - now) * 1e3 if tick > now else 0):
                    c = self._fds.get(fd)  # None once closed by an earlier event
                    if type(c) is _Conn:
                        self._serve(c, mask)
                    elif c is self._wake_r:
                        self._wake_r.recv(RECV_SIZE)
                    elif c is not None:
                        self._accept()
                now = time.monotonic()
                if now >= tick:
                    self._tick()
                    tick = now + self.TICK
                while self._dirty:
                    self._serve(self._dirty.pop(), WRITE)
        finally:
            for c in list(self._conns):
                self._close(c)
            for s in self._fds.values():  # the wake-up socket and the listeners
                s.close()
            self._wake_w.close()

    def _serve(self, c: _Conn, mask: int) -> None:
        """Write c, then read it into _inbound; a failure closes c alone and
        counts in bad_frames."""
        try:
            if mask & WRITE:
                self._flush(c)
            if mask & ~WRITE and c in self._conns:  # readable, hung up or failed
                try:
                    data = c.sock.recv(RECV_SIZE)
                except BlockingIOError:
                    return
                except OSError:  # reset: the same as a close
                    data = b""
                if not c.rbuf and len(data) > 4 and _length(data)[0] == len(data) - 4:
                    self._inbound(c, [data])  # one whole frame: the usual read
                elif data:
                    c.rbuf += data
                    self._inbound(c, cut_frames(c.rbuf))
                elif c.rbuf:
                    raise TruncatedFrameError("connection closed mid-frame")
                else:
                    self._close(c)
        except Exception as e:
            log.warning("event=conn_failed err=%r", e, exc_info=not isinstance(e, CodecError))
            self._counters.add("bad_frames")
            self._close(c)

    def _update(self, c: _Conn) -> None:
        """Match c's poll interest to its state."""
        want = (0 if c.paused else READ) | (WRITE if c.wbuf else 0)
        if want != c.events:
            fd = c.sock.fileno()
            if want:
                self._poll.register(fd, want)
                self._fds[fd] = c
            else:
                self._poll.unregister(fd)
                del self._fds[fd]
            c.events = want

    def _queue(self, c: _Conn, *frames: bytes) -> bool:
        """Append frames to c's write queue and, when it was empty and c is not dialling,
        send them at once: a lone frame in one send, which touches the queue only if the
        socket leaves part of it.  The loop sends what is left; True says it was not
        sending this queue, so a caller in another thread wakes it."""
        fresh = not c.wbuf and c.dial_deadline is None
        if fresh and len(frames) == 1:
            if self.WRITTEN:  # counted before the write, as _send does
                self._counters.add(self.WRITTEN)
            try:
                n = c.sock.send(frames[0])
            except OSError:  # full, or failed: the loop's _send tells which
                n = 0
            if n == len(frames[0]):
                return False
            if self.WRITTEN:
                self._counters.add(self.WRITTEN, -1)
            c.sent = n
        c.wbuf.extend(frames)
        c.wbytes += sum(map(len, frames))
        if fresh and len(frames) != 1 and self._send(c) == len(frames):
            return False
        self._dirty.add(c)
        return fresh

    def _send(self, c: _Conn) -> int:
        """Write c's queue until it is empty or the socket takes less than it
        is handed; the number of frames now written whole, or -1 if the
        connection failed before any was.  Each send is handed the frames
        that fit in SEND_CHUNK bytes, joined, or the first frame alone, so
        a long queue is copied once, not once per send.  WRITTEN counts the
        frames handed to a connected socket, taking back what it did not."""
        whole = len(c.wbuf) if self.WRITTEN and c.dial_deadline is None else 0
        if whole:
            self._counters.add(self.WRITTEN, whole)
        done = 0
        while c.wbuf:
            data = c.wbuf[0]
            if len(c.wbuf) > 1 and len(data) - c.sent < SEND_CHUNK:
                chunk, size = [], -c.sent
                for frame in c.wbuf:
                    size += len(frame)
                    if size > SEND_CHUNK:
                        break
                    chunk.append(frame)
                data = b"".join(chunk)
            try:
                n = c.sent + c.sock.send(memoryview(data)[c.sent:] if c.sent else data)
            except BlockingIOError:  # the socket is full, or a dial is under way
                break
            except OSError:
                done = done or -1
                break
            taken_all = n == len(data)
            while c.wbuf and n >= len(c.wbuf[0]):
                n -= len(c.wbuf[0])
                c.wbytes -= len(c.wbuf.popleft())
                done += 1
            c.sent = n
            if not taken_all:
                break
        if done < whole:
            self._counters.add(self.WRITTEN, max(done, 0) - whole)
        return done

    def _flush(self, c: _Conn) -> None:
        """_send, then wait for the socket to take the rest; resume c's
        producers once its queue is under WRITE_BOUND."""
        if c not in self._conns:
            return
        if c.wbuf and self._send(c) < 0:
            self._close(c)
            return
        self._update(c)
        if c.waiters and c.wbytes < WRITE_BOUND:
            self._unpause(c)

    def _unpause(self, c: _Conn) -> None:
        for p in c.waiters:
            p.paused = False
            if p in self._conns:
                self._update(p)
        c.waiters.clear()

    def _dial(self, addr: tuple[str, int], peer: Optional[str] = None) -> Optional[_Conn]:
        """A connection to addr that is still being made; None if it failed at once."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if sock.connect_ex(addr) not in (0, errno.EINPROGRESS):
            sock.close()
            return None
        c = _Conn(sock, peer=peer, dial_deadline=time.monotonic() + DIAL_TIMEOUT)
        self._conns.add(c)
        self._update(c)
        return c

    def _close(self, c: _Conn) -> None:
        """Forget c; _closed says what becomes of its unsent frames, before
        its socket closes."""
        if c not in self._conns:
            return
        self._conns.remove(c)
        if c.events:
            self._poll.unregister(c.sock)
            del self._fds[c.sock.fileno()]
        self._unpause(c)
        self._closed(c)
        c.sock.close()


class Holds:
    """Held frames in FIFO queues by key, oldest dropped first: past bound
    in one queue, or past HOLD_TOTAL in all from the key held longest.  An
    emptied key is forgotten.  Each drop counts in ``dropped`` at once; a
    flood of them logs event, with the key dropped from and the drops since
    the last line, at most once per DROP_LOG_INTERVAL.  The owner serialises
    every call."""

    def __init__(self, counters: Counters, event: str, bound: int = HOLD_TOTAL):
        self.queues: OrderedDict[object, deque] = OrderedDict()  # longest held first
        self._frames = 0
        self._counters = counters
        self._event = "event=" + event + " dropped=%d"
        self._bound = bound
        self._unlogged = 0  # drops since the last line
        self._log_after = float("-inf")

    def __len__(self) -> int:
        return self._frames

    def put(self, key, frame) -> None:
        q = self.queues.setdefault(key, deque())
        q.append(frame)
        if len(q) <= self._bound:
            if self._frames < HOLD_TOTAL:
                self._frames += 1
                return
            key = next(iter(self.queues))  # O(1) in an OrderedDict, not in a dict
            q = self.queues[key]
        q.popleft()  # one frame in, one out: the total stands
        if not q:
            del self.queues[key]
        self._counters.add("dropped")
        self._unlogged += 1
        now = time.monotonic()
        if now >= self._log_after:
            log.warning(self._event, key, self._unlogged)
            self._unlogged = 0
            self._log_after = now + DROP_LOG_INTERVAL

    def take(self, key) -> deque:
        q = self.queues.pop(key, ())
        self._frames -= len(q)
        return q


class Router(ConnLoop):
    TICK = REDIAL_INTERVAL

    def __init__(self, config: RouterConfig):
        super().__init__(Counters(
            "frames_in", "frames_out", "ctl_in", "ctl_out", "dropped", "bad_frames"
        ))
        self.config = config
        self.host = config.host
        self._lsock: Optional[socket.socket] = None
        self.port: Optional[int] = None
        self._live: dict[str, _Conn] = {}  # process -> its registered connection
        self._pending = Holds(self._counters, "queue_overflow name=%s", config.queue_bound)
        self._held = Holds(self._counters, "hold_overflow host=%s", config.queue_bound)
        self._peers: dict[str, _Conn] = {}  # links this router dialled

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Router":
        self._lsock = socket.create_server(endpoint_addr(self.config.bind), backlog=64)
        self._lsock.setblocking(False)
        self.port = self._lsock.getsockname()[1]
        self._start(f"router-{self.host}", self._lsock)
        log.info("event=router_up host=%s port=%d", self.host, self.port)
        return self

    def endpoint(self) -> str:
        return f"127.0.0.1:{self.port}"

    def queued(self) -> int:
        return len(self._pending) + len(self._held)

    def stats(self) -> dict:
        return {**self._counters.snapshot(), "queued": self.queued()}

    # -- connections ------------------------------------------------------------

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

    def _inbound(self, c: _Conn, frames: list[bytes]) -> None:
        """Route the frames of a process or a peer router alike; a frame with
        a bad header is dropped."""
        for frame in frames:
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
        if c.peer is not None:  # only a peer link is closed when idle
            c.last_used = time.monotonic()
        self._queue(c, frame)

    def _closed(self, c: _Conn) -> None:
        """Its unsent frames are routed again, unless the router is stopping."""
        for name in [n for n, live in self._live.items() if live is c]:
            del self._live[name]
            log.info("event=process_down name=%s", name)
        self._peers.pop(c.peer, None)
        if self.closing:
            return
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

    def _register(self, name: str, c: _Conn) -> None:
        old = self._live.get(name)
        if old is not None and old is not c:
            self._close(old)  # its unsent frames go back to name's pending queue
        self._live[name] = c
        pending = self._pending.take(name)
        self._push(c, encode_envelope(make_register_ack(name, self.host)), counter="ctl_out")
        log.info("event=registered name=%s pending=%d", name, len(pending))
        for frame in pending:
            self._push(c, frame)

    def _route(self, frame: bytes, env: Envelope, src: Optional[_Conn] = None) -> None:
        if env.to.host != self.host:
            self._to_host(env.to.host, frame, src)
            return
        conn = self._live.get(env.to.process)
        if conn is not None:
            self._push(conn, frame, src)
        else:
            self._pending.put(env.to.process, frame)

    def _to_host(self, label: str, frame: bytes, src: Optional[_Conn] = None,
                 direct: bool = True) -> None:
        """Send frame to label's router or, when that cannot be reached (not
        direct: its link failed), to label's proxy; the proxy itself holds
        the frame.  With no way on, the frame is dropped."""
        proxy = self.config.proxies.get(label)
        if proxy == self.host and label in self._held.queues:
            direct = False  # frames already held for label must not be overtaken
        link = self._link(label) if direct else None
        if link is None and proxy not in (None, label, self.host):
            link = self._link(proxy)
        if link is not None:
            self._push(link, frame, src)
        elif proxy == self.host:
            self._held.put(label, frame)
        else:
            self._drop("drop_unreachable host=%s", label)

    def _drop(self, event: str, *args) -> None:
        self._counters.add("dropped")
        log.warning("event=" + event, *args)

    def _link(self, label: str) -> Optional[_Conn]:
        """The link to label's router, dialled if need be; None if it cannot be."""
        link = self._peers.get(label)
        if link is not None or label not in self.config.peers:
            return link
        link = self._dial(endpoint_addr(self.config.peers[label]), peer=label)
        if link is not None:
            self._peers[label] = link
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
        for label in list(self._held.queues):
            link = self._link(label)
            if link is not None and link.dial_deadline is None:
                for frame in self._held.take(label):
                    self._push(link, frame)
