"""Store-and-forward routing daemon for one host.

Every process on a host keeps a single duplex connection to the host's
router.  A process announces itself with a control frame naming its process;
the router acknowledges and from then on forwards every data frame addressed
to that process down the same connection.  Frames for a process that is not
currently connected wait in a bounded per-process queue and are flushed, in
arrival order, right after the process (re)registers.  Oldest frames are
dropped on overflow.

Frames addressed to another host go over a lazily dialled, cached link to
that host's router.  When the peer cannot be reached the frame is handed to
the proxy router configured for that host, if any; a router that is itself
the designated proxy holds such frames and redials the dead host in the
background, draining the hold queue in order once it answers.  With no proxy
configured undeliverable frames are dropped (and counted).

Frames are relayed as received, never re-encoded, so a router hop preserves
wire bytes exactly.  The router reads only a data frame's header (length,
version, flags and the three addresses) and drops a frame whose header is
bad (counted in ``bad_frames``); it never decodes a data body, so a bad body
travels on and surfaces at the receiving node, which drops it there and
counts it in its own ``bad_frames``.  Only control frames, which carry
the registering process name in their body, are decoded in full.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .codec import (
    Envelope,
    decode_envelope,
    encode_envelope,
    make_register_ack,
    hard_close,
    read_frame,
    register_payload_name,
)
from .counters import Counters

log = logging.getLogger("termbus.router")


@dataclass(frozen=True)
class RouterConfig:
    host: str
    bind: str = "127.0.0.1:0"
    peers: dict[str, str] = field(default_factory=dict)  # host label -> "ip:port"
    proxies: dict[str, str] = field(default_factory=dict)  # dest host -> proxy host
    queue_bound: int = 512
    dial_timeout: float = 0.25
    redial_interval: float = 0.1
    peer_idle: float = 30.0


class _Registration:
    """One local process: its live connection, or its waiting frames."""

    __slots__ = ("name", "sock", "pending", "lock")

    def __init__(self, name: str):
        self.name = name
        self.sock: Optional[socket.socket] = None
        self.pending: deque[bytes] = deque()
        self.lock = threading.Lock()


class _PeerLink:
    __slots__ = ("sock", "lock", "last_used")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.lock = threading.Lock()
        self.last_used = time.monotonic()


class Router:
    def __init__(self, config: RouterConfig):
        self.config = config
        self.host = config.host
        self._lsock: Optional[socket.socket] = None
        self.port: Optional[int] = None
        self._regs: dict[str, _Registration] = {}
        self._regs_lock = threading.Lock()
        self._peers: dict[str, _PeerLink] = {}
        self._peers_lock = threading.Lock()
        self._held: dict[str, deque[bytes]] = {}
        self._held_lock = threading.Lock()
        self._counters = Counters(
            "frames_in", "frames_out", "ctl_in", "ctl_out", "dropped", "bad_frames"
        )
        self.closing = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "Router":
        ip, _, port = self.config.bind.rpartition(":")
        ls = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        ls.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        ls.bind((ip or "127.0.0.1", int(port)))
        ls.listen(64)
        self._lsock = ls
        self.port = ls.getsockname()[1]
        self._spawn(self._accept_loop, "accept")
        self._spawn(self._housekeeping, "keep")
        log.info("event=router_up host=%s port=%d", self.host, self.port)
        return self

    def stop(self) -> None:
        self.closing = True
        if self._lsock:
            try:
                self._lsock.close()
            except OSError:
                pass
        with self._regs_lock:
            regs = list(self._regs.values())
        for r in regs:
            with r.lock:
                sock, r.sock = r.sock, None
            hard_close(sock)
        with self._peers_lock:
            peers, self._peers = list(self._peers.values()), {}
        for p in peers:
            hard_close(p.sock)

    def endpoint(self) -> str:
        return f"127.0.0.1:{self.port}"

    def _spawn(self, fn, tag: str) -> None:
        t = threading.Thread(target=fn, daemon=True, name=f"router-{self.host}-{tag}")
        t.start()

    # -- stats ----------------------------------------------------------------

    def queued(self) -> int:
        with self._regs_lock:
            n = sum(len(r.pending) for r in self._regs.values())
        with self._held_lock:
            n += sum(len(q) for q in self._held.values())
        return n

    def stats(self) -> dict:
        s = self._counters.snapshot()
        s["queued"] = self.queued()
        return s

    # -- inbound connections ---------------------------------------------------

    def _accept_loop(self) -> None:
        while not self.closing:
            try:
                conn, _ = self._lsock.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._spawn(lambda c=conn: self._serve(c), "conn")

    def _serve(self, conn: socket.socket) -> None:
        """Read frames off one connection until it dies.

        The same loop serves processes and peer routers; only a REGISTER
        frame distinguishes the former.
        """
        registered: list[str] = []
        try:
            while not self.closing:
                frame = read_frame(conn)
                if frame is None:
                    break
                try:
                    env = decode_envelope(frame, body=False)
                except Exception as e:
                    log.warning("event=bad_frame err=%s", e)
                    self._counters.add("bad_frames")
                    continue
                if env.flags.control:
                    self._counters.add("ctl_in")
                    name = register_payload_name(env)
                    if name is not None:
                        self._register(name, conn)
                        registered.append(name)
                    continue
                self._counters.add("frames_in")
                self._route(frame, env)
        except OSError:
            pass
        finally:
            for name in registered:
                reg = self._reg_for(name)
                with reg.lock:
                    if reg.sock is conn:
                        reg.sock = None
                        log.info("event=process_down name=%s", name)
            hard_close(conn)

    def _reg_for(self, name: str) -> _Registration:
        with self._regs_lock:
            reg = self._regs.get(name)
            if reg is None:
                reg = _Registration(name)
                self._regs[name] = reg
            return reg

    def _register(self, name: str, conn: socket.socket) -> None:
        reg = self._reg_for(name)
        ack = encode_envelope(make_register_ack(name, self.host))
        with reg.lock:
            if reg.sock is not None and reg.sock is not conn:
                hard_close(reg.sock)
            reg.sock = conn
            self._counters.add("ctl_out")
            try:
                conn.sendall(ack)
            except OSError:
                self._counters.add("ctl_out", -1)
                reg.sock = None
                return
            log.info(
                "event=registered name=%s pending=%d", name, len(reg.pending)
            )
            while reg.pending:
                frame = reg.pending.popleft()
                # counted before the write so the count is never behind a
                # delivery the destination has already observed
                self._counters.add("frames_out")
                try:
                    conn.sendall(frame)
                except OSError:
                    self._counters.add("frames_out", -1)
                    reg.pending.appendleft(frame)
                    reg.sock = None
                    return

    # -- routing ----------------------------------------------------------------

    def _route(self, frame: bytes, env: Envelope) -> None:
        dest = env.to
        if dest.host == self.host or dest.host is None:
            self._to_process(dest.process, frame)
        else:
            self._to_host(dest.host, frame)

    def _to_process(self, name: Optional[str], frame: bytes) -> None:
        if name is None:
            self._counters.add("dropped")
            log.warning("event=drop_no_process")
            return
        reg = self._reg_for(name)
        with reg.lock:
            if reg.sock is not None:
                self._counters.add("frames_out")
                try:
                    reg.sock.sendall(frame)
                    return
                except OSError:
                    self._counters.add("frames_out", -1)
                    reg.sock = None
            reg.pending.append(frame)
            if len(reg.pending) > self.config.queue_bound:
                reg.pending.popleft()
                self._counters.add("dropped")
                log.warning("event=queue_overflow name=%s", name)

    def _to_host(self, label: str, frame: bytes) -> None:
        proxy = self.config.proxies.get(label)
        if proxy == self.host:
            # we are the designated proxy; frames already held for this host
            # must not be overtaken by a fresh one
            with self._held_lock:
                backlog = bool(self._held.get(label))
            if backlog:
                self._hold(label, frame)
                return
        if self._send_peer(label, frame):
            return
        if proxy == self.host:
            self._hold(label, frame)
            return
        if proxy is not None and proxy != label:
            if self._send_peer(proxy, frame):
                return
        self._counters.add("dropped")
        log.warning("event=drop_unreachable host=%s", label)

    def _hold(self, label: str, frame: bytes) -> None:
        with self._held_lock:
            q = self._held.setdefault(label, deque())
            q.append(frame)
            if len(q) > self.config.queue_bound:
                q.popleft()
                self._counters.add("dropped")
                log.warning("event=hold_overflow host=%s", label)

    # -- peer links ---------------------------------------------------------------

    def _send_peer(self, label: str, frame: bytes) -> bool:
        link = self._peer_link(label)
        if link is None:
            return False
        with link.lock:
            self._counters.add("frames_out")
            try:
                link.sock.sendall(frame)
            except OSError:
                self._counters.add("frames_out", -1)
                self._drop_peer(label, link)
                return False
            link.last_used = time.monotonic()
        return True

    def _peer_link(self, label: str) -> Optional[_PeerLink]:
        with self._peers_lock:
            link = self._peers.get(label)
        if link is not None:
            return link
        endpoint = self.config.peers.get(label)
        if endpoint is None:
            return None
        ip, _, port = endpoint.rpartition(":")
        try:
            sock = socket.create_connection(
                (ip or "127.0.0.1", int(port)), timeout=self.config.dial_timeout
            )
        except OSError:
            return None
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        link = _PeerLink(sock)
        with self._peers_lock:
            existing = self._peers.get(label)
            if existing is not None:
                hard_close(sock)
                return existing
            self._peers[label] = link
        return link

    def _drop_peer(self, label: str, link: _PeerLink) -> None:
        with self._peers_lock:
            if self._peers.get(label) is link:
                del self._peers[label]
        hard_close(link.sock)

    # -- background upkeep -----------------------------------------------------------

    def _housekeeping(self) -> None:
        """Redial hosts with held frames; reap idle peer links."""
        while not self.closing:
            time.sleep(self.config.redial_interval)
            with self._held_lock:
                labels = [l for l, q in self._held.items() if q]
            for label in labels:
                while True:
                    with self._held_lock:
                        q = self._held.get(label)
                        if not q:
                            break
                        frame = q[0]
                    if not self._send_peer(label, frame):
                        break
                    with self._held_lock:
                        q = self._held.get(label)
                        if q and q[0] == frame:
                            q.popleft()
            now = time.monotonic()
            stale = []
            with self._peers_lock:
                for label, link in self._peers.items():
                    if now - link.last_used > self.config.peer_idle:
                        stale.append((label, link))
            for label, link in stale:
                self._drop_peer(label, link)
