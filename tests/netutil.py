"""Shared helpers for tests that stand up routers and nodes on localhost."""

import socket
import struct
import time

from termbus.codec import cut_frames


def free_port() -> int:
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def wait_until(pred, timeout=5.0, interval=0.01, msg="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {msg}")


def data_frames_out(*counted) -> int:
    """Total data frames written to sockets by the given nodes and routers."""
    return sum(c.stats()["frames_out"] for c in counted)


def read_frame(sock):
    """The next frame a blocking socket receives, or None if it closes first.

    No byte past that frame is read, so the next call starts at the next
    frame: the reads ask for the rest of the length prefix, then for the
    rest of the frame, until cut_frames finds it complete.
    """
    buf = bytearray()
    while not (frames := cut_frames(buf)):
        want = 4 if len(buf) < 4 else 4 + struct.unpack_from(">I", buf)[0]
        data = sock.recv(want - len(buf))
        if not data:
            return None
        buf += data
    return frames[0]
