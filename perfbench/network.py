"""Child processes and the client node of one workload's network.

Every router and server runs in its own child process started from
launcher.py, so the client's figures are not those of one interpreter lock
shared by everybody.  A Network owns its children and the client node and
stops and reaps all of them on close, on success and on failure alike.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import subprocess
import sys
import threading

from calib import cpu_seconds

from termbus.runtime import Node, NodeConfig

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")
READY_TIMEOUT_S = 30.0
ASK_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 5.0


class BenchError(Exception):
    """The network could not be built or stopped answering the benchmark."""


def free_port() -> int:
    """A port picked by binding port 0, for routers that must know each other."""
    s = socket.socket()
    try:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]
    finally:
        s.close()


class Child:
    """One launcher process, spoken to by JSON lines over its stdin/stdout."""

    def __init__(self, spec: dict, log):
        self.spec = spec
        self.proc = subprocess.Popen(
            [sys.executable, LAUNCHER, json.dumps(spec)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.info = self.expect(READY_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def expect(self, timeout: float = ASK_TIMEOUT_S) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchError(f"{self.spec['role']} gave no answer in {timeout}s") from None
        if line is None:
            raise BenchError(f"{self.spec['role']} exited with {self.proc.wait()}")
        return json.loads(line)

    def ask(self, command: str) -> dict:
        try:
            self.proc.stdin.write(command + "\n")
            self.proc.stdin.flush()
        except OSError as e:
            raise BenchError(f"{self.spec['role']} is gone: {e}") from None
        return self.expect()

    def stop(self) -> None:
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=STOP_TIMEOUT_S)
        self.proc.stdout.close()


class Network:
    def __init__(self, trace: bool, log, tracer=None):
        self.trace = trace
        self.log = log
        self.tracer = tracer
        self.children: list[Child] = []
        self.node: Node | None = None

    def spawn(self, spec: dict) -> Child:
        child = Child(dict(spec, trace=self.trace), self.log)
        self.children.append(child)
        return child

    def client(self, process: str, host: str, router: str | None) -> Node:
        self.node = Node(NodeConfig(process=process, host=host, router=router))
        self.node.start()
        self.node.attach("main")
        return self.node

    def by_role(self, role: str) -> Child:
        return next(c for c in self.children if c.spec["role"] == role)

    def snapshot(self) -> list[dict]:
        """Counters and CPU of every process, the client first."""
        own = {"role": "client", "cpu_s": cpu_seconds(), "stats": self.node.stats()}
        if self.tracer is not None:
            own["trace"] = self.tracer.snapshot()
        return [own] + [c.ask("stats") for c in self.children]

    def close(self) -> None:
        try:
            if self.node is not None:
                self.node.shutdown()
        finally:
            while self.children:
                self.children.pop().stop()
