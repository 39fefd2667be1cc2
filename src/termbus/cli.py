"""Operator entry points: router daemon, servers, linda one-shot, query REPL.

Every launch setting resolves as flag > environment > config file > default.
Environment variables: QP_ROUTER (router endpoint), QP_HOST (host label),
QP_PROCESS (process name).  The config file, named with --config, holds
key=value lines and # comments; keys match the long flag names with
underscores (router, host, process, listen, db, server, timeout,
queue_bound) and peer / proxy_for may repeat.

Logs go to standard error as "LEVEL component event=..." lines with payload
terms in canonical text; command output meant for the user goes to standard
out.  A router prints its bound endpoint on startup so scripts can launch it
on port 0 and read the port back.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional, TextIO

from . import linda as linda_protocol
from . import query as query_protocol
from .address import AddressError
from .query import AnswerStream, QueryError, load_clause_file, query_all
from .router import Router, RouterConfig
from .runtime import Node, NodeConfig, TermbusError
from .syntax import ParseError, format_term, parse_goal_with_vars, parse_term
from .terms import deref

ENV_ROUTER = "QP_ROUTER"
ENV_HOST = "QP_HOST"
ENV_PROCESS = "QP_PROCESS"

log = logging.getLogger("termbus.cli")


@dataclass
class LaunchConfig:
    """Resolved settings for one launched role."""

    role: str
    process: Optional[str] = None
    host: str = "local"
    router: Optional[str] = None
    listen: str = "127.0.0.1:0"
    peers: dict = field(default_factory=dict)
    proxies: dict = field(default_factory=dict)
    queue_bound: int = 512
    db: Optional[str] = None
    server: Optional[str] = None
    timeout: Optional[float] = None
    op: Optional[str] = None
    tuple_text: Optional[str] = None


def read_config_file(path: str) -> dict:
    """key=value lines to a dict of lists (later lines append)."""
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            out.setdefault(key.strip(), []).append(value.strip())
    return out


def _split_pair(text: str, flag: str) -> tuple:
    if "=" not in text:
        raise ValueError(f"{flag} takes label=value, got {text!r}")
    a, _, b = text.partition("=")
    return a.strip(), b.strip()


def _parser_for(role: str) -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog=role, description=_DESCRIPTIONS[role])
    p.add_argument("--config", metavar="FILE", help="key=value settings file")
    if role == "router":
        p.add_argument("--host", help="host label this router serves")
        p.add_argument("--listen", metavar="HOST:PORT", help="bind endpoint (port 0 picks)")
        p.add_argument("--peer", action="append", default=[], metavar="LABEL=ENDPOINT",
                       help="peer router for a host label (repeatable)")
        p.add_argument("--proxy-for", action="append", default=[], metavar="LABEL=PROXY",
                       help="proxy designation for an intermittent host (repeatable)")
        p.add_argument("--queue-bound", type=int, help="held-frame cap per destination")
        return p
    p.add_argument("-A", dest="process", metavar="NAME", help="process name")
    p.add_argument("--host", help="host label")
    p.add_argument("--router", metavar="ENDPOINT", help="router to register with")
    if role == "query-server":
        p.add_argument("--db", metavar="FILE", help="clause file, one clause per line")
    if role == "linda":
        p.add_argument("op", choices=["out", "in", "rd", "inp", "rdp"])
        p.add_argument("tuple_text", metavar="TUPLE", help="tuple in canonical text")
        p.add_argument("--server", metavar="ADDR",
                       help="tuple-space address (default main_linda_thread:linda_server@<host>)")
        p.add_argument("--timeout", type=float, help="seconds to wait for replies")
    if role == "query":
        p.add_argument("--server", metavar="ADDR", help="query server, thread:proc@host")
        p.add_argument("--timeout", type=float, help="seconds to wait for answers")
    return p


_DESCRIPTIONS = {
    "router": "run a message router for one host label",
    "linda-server": "serve a tuple space",
    "linda": "run one tuple-space operation and print the result",
    "query-server": "serve queries over a clause file",
    "query": "interactive query shell (all/stream/next/finish/quit)",
}


def build_config(role: str, argv=None, environ=None) -> LaunchConfig:
    """Merge flags, environment and config file into a LaunchConfig.

    Raises SystemExit(2) through argparse for usage errors, including
    options that are still missing after all three sources are merged.
    """
    env = os.environ if environ is None else environ
    parser = _parser_for(role)
    ns = parser.parse_args(argv)
    try:
        cfg = read_config_file(ns.config) if ns.config else {}
    except (OSError, ValueError) as e:
        parser.error(f"config file: {e}")

    def pick(flag_value, env_key: Optional[str], file_key: str, default=None):
        if flag_value is not None:
            return flag_value
        if env_key and env.get(env_key):
            return env[env_key]
        if file_key in cfg:
            return cfg[file_key][-1]
        return default

    conf = LaunchConfig(role=role)
    conf.host = pick(ns.host, ENV_HOST, "host", "local")
    if role == "router":
        if ns.host is None and not env.get(ENV_HOST) and "host" not in cfg:
            parser.error("a host label is required (--host)")
        conf.listen = pick(ns.listen, None, "listen", "127.0.0.1:0")
        qb = pick(ns.queue_bound, None, "queue_bound")
        conf.queue_bound = int(qb) if qb is not None else 512
        try:
            pairs = [_split_pair(x, "--peer") for x in ns.peer or cfg.get("peer", [])]
            conf.peers = dict(pairs)
            pairs = [_split_pair(x, "--proxy-for")
                     for x in ns.proxy_for or cfg.get("proxy_for", [])]
            conf.proxies = dict(pairs)
        except ValueError as e:
            parser.error(str(e))
        return conf

    conf.router = pick(ns.router, ENV_ROUTER, "router")
    conf.process = pick(ns.process, ENV_PROCESS, "process")
    if role in ("linda-server", "query-server") and conf.process is None:
        parser.error("a process name is required (-A)")
    if role == "query-server":
        conf.db = pick(ns.db, None, "db")
    if role in ("linda", "query"):
        if conf.process is None:
            conf.process = "linda_shell" if role == "linda" else "query_shell"
        conf.server = pick(ns.server, None, "server")
        t = pick(ns.timeout, None, "timeout")
        conf.timeout = float(t) if t is not None else None
    if role == "linda":
        conf.op = ns.op
        conf.tuple_text = ns.tuple_text
        if conf.server is None:
            conf.server = f"{linda_protocol.SERVER_SYMBOL}:linda_server@{conf.host}"
    if role == "query" and conf.server is None:
        parser.error("a server address is required (--server)")
    return conf


def _setup_logging() -> None:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s %(message)s",
    )


def _run_node(conf: LaunchConfig, body: Callable[[Node], Optional[int]]) -> int:
    """Start conf's node, run body(node) on the calling thread and shut the
    node down on every path.  body's result is the exit status, None meaning
    0; an interrupt ends the role with 0."""
    try:
        node = Node(NodeConfig(process=conf.process, host=conf.host, router=conf.router))
        node.start()
    except TermbusError as e:
        print(f"cannot start node: {e}", file=sys.stderr)
        return 1
    node.attach()
    try:
        return body(node) or 0
    except KeyboardInterrupt:
        return 0
    finally:
        node.shutdown()


# --------------------------------------------------------------------------
# server roles

def router_main(argv=None) -> int:
    conf = build_config("router", argv)
    _setup_logging()
    r = Router(
        RouterConfig(host=conf.host, bind=conf.listen, peers=conf.peers,
                     proxies=conf.proxies, queue_bound=conf.queue_bound)
    ).start()
    print(f"router {conf.host} listening on {r.endpoint()}", flush=True)
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        r.stop()
    return 0


def linda_server_main(argv=None) -> int:
    conf = build_config("linda-server", argv)
    _setup_logging()

    def body(node: Node) -> None:
        print(f"linda server {conf.process}@{conf.host} up", flush=True)
        linda_protocol.serve(node)

    return _run_node(conf, body)


def query_server_main(argv=None) -> int:
    conf = build_config("query-server", argv)
    _setup_logging()

    def body(node: Node) -> Optional[int]:
        loaded = 0
        if conf.db:
            try:
                loaded = load_clause_file(node, conf.db)
            except OSError as e:
                print(f"cannot read clause file: {e}", file=sys.stderr)
                return 1
            except ParseError as e:
                print(f"clause file {conf.db}: {e}", file=sys.stderr)
                return 1
        print(f"query server {conf.process}@{conf.host} serving {loaded} clauses",
              flush=True)
        query_protocol.query_server_main(node)
        return None

    return _run_node(conf, body)


# --------------------------------------------------------------------------
# client roles

def linda_main(argv=None) -> int:
    conf = build_config("linda", argv)
    _setup_logging()
    try:
        pattern = parse_term(conf.tuple_text)
    except ParseError as e:
        print(f"tuple: {e}", file=sys.stderr)
        return 1
    return _run_node(conf, lambda node: _linda_op(node, conf, pattern))


def _linda_op(node: Node, conf: LaunchConfig, pattern) -> int:
    """Run conf's one tuple operation on pattern; the exit status."""
    wait = conf.timeout if conf.timeout is not None else 10.0
    try:
        s = linda_protocol.connect(node, conf.server, timeout=wait)
        try:  # the handler serves this session alone: it ends on every path
            if conf.op == "out":
                s.out(pattern, timeout=wait)
                print("inserted")
            elif conf.op in ("in", "rd"):
                got = (s.in_ if conf.op == "in" else s.rd)(pattern, timeout=wait)
                if got is None:
                    print("timed out", file=sys.stderr)
                    return 1
                print(format_term(deref(pattern)))
            else:
                ok = (s.inp if conf.op == "inp" else s.rdp)(pattern, timeout=wait)
                print(format_term(deref(pattern)) if ok else "no match")
        finally:
            s.disconnect()
    except (linda_protocol.LindaError, TermbusError, AddressError) as e:
        print(f"linda: {e}", file=sys.stderr)
        return 1
    return 0


def repl_loop(node: Node, server, timeout: Optional[float] = None,
              infile: Optional[TextIO] = None, out: Optional[TextIO] = None) -> None:
    """Read commands, print answers: all G, stream G, next, finish, quit.

    Bindings print one per line as ``Name = term`` with a blank line between
    solutions; a solution binding nothing prints ``true`` and an empty
    answer set prints ``no``.  Any exit path, including end of input,
    finishes the open stream first so no generator is left orphaned.
    """
    infile = sys.stdin if infile is None else infile
    out = sys.stdout if out is None else out
    interactive = infile is sys.stdin and sys.stdin.isatty()
    stream: Optional[AnswerStream] = None
    stream_vars: dict = {}

    def show(vs) -> None:
        lines = [f"{name} = {format_term(deref(v))}"
                 for name, v in vs.items() if not name.startswith("_")]
        out.write("\n".join(lines) + "\n" if lines else "true\n")

    try:
        while True:
            if interactive:
                out.write("?- ")
                out.flush()
            raw = infile.readline()
            if not raw:
                break
            line = raw.strip()
            if not line:
                continue
            cmd, _, rest = line.partition(" ")
            rest = rest.strip()
            try:
                if cmd == "quit":
                    break
                elif cmd == "all":
                    g, vs = parse_goal_with_vars(rest)
                    count = 0
                    for _ in query_all(node, g, server, timeout=timeout):
                        if count:
                            out.write("\n")
                        show(vs)
                        count += 1
                    if count == 0:
                        out.write("no\n")
                elif cmd == "stream":
                    if stream is not None:
                        stream.finish()
                    g, stream_vars = parse_goal_with_vars(rest)
                    stream = query_protocol.query_stream(node, g, server,
                                                         timeout=timeout)
                elif cmd == "next":
                    if stream is None:
                        out.write("no open stream\n")
                    elif stream.pull() is None:
                        out.write("no\n")
                        stream = None
                    else:
                        show(stream_vars)
                elif cmd == "finish":
                    if stream is None:
                        out.write("no open stream\n")
                    else:
                        stream.finish()
                        stream = None
                        out.write("stream closed\n")
                else:
                    out.write(f"unknown command: {cmd}\n")
            except ParseError as e:
                out.write(f"parse error: {e}\n")
            except (QueryError, TermbusError, AddressError) as e:
                out.write(f"error: {e}\n")
            out.flush()
    finally:
        if stream is not None:
            stream.finish()


def query_main(argv=None) -> int:
    conf = build_config("query", argv)
    _setup_logging()
    return _run_node(conf, lambda node: repl_loop(node, conf.server, timeout=conf.timeout))
