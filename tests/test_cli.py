"""Launch config precedence, the REPL contract, and subprocess smoke runs."""

import io
import os
import signal
import subprocess
import sys
import time

import pytest

from termbus import linda, query
from termbus.cli import LaunchConfig, _linda_op, build_config, read_config_file, repl_loop
from termbus.runtime import Node, NodeConfig
from termbus.syntax import parse_clause, parse_term
from termbus.terms import Var, mk

from netutil import wait_until


class TestLaunchConfig:
    def test_flag_beats_env_beats_file(self, tmp_path):
        f = tmp_path / "conf"
        f.write_text("process=from_file\nrouter=file:1\n")
        env = {"QP_PROCESS": "from_env"}
        both = build_config(
            "query-server", ["-A", "from_flag", "--config", str(f)], environ=env
        )
        assert both.process == "from_flag"
        no_flag = build_config("query-server", ["--config", str(f)], environ=env)
        assert no_flag.process == "from_env"
        no_env = build_config("query-server", ["--config", str(f)], environ={})
        assert no_env.process == "from_file"
        assert no_env.router == "file:1"

    def test_flags_and_file_build_identical_configs(self, tmp_path):
        f = tmp_path / "conf"
        f.write_text(
            "host=hub\nlisten=127.0.0.1:7711\npeer=far=10.0.0.9:7700\n"
            "proxy_for=far=hub\nqueue_bound=64\n"
        )
        from_flags = build_config(
            "router",
            ["--host", "hub", "--listen", "127.0.0.1:7711",
             "--peer", "far=10.0.0.9:7700", "--proxy-for", "far=hub",
             "--queue-bound", "64"],
            environ={},
        )
        from_file = build_config("router", ["--config", str(f)], environ={})
        assert from_flags == from_file

    def test_server_roles_require_process_name(self):
        with pytest.raises(SystemExit):
            build_config("linda-server", [], environ={})
        with pytest.raises(SystemExit):
            build_config("query-server", [], environ={})

    def test_query_requires_server_address(self):
        with pytest.raises(SystemExit):
            build_config("query", [], environ={})

    def test_router_requires_host(self):
        with pytest.raises(SystemExit):
            build_config("router", [], environ={})

    def test_env_fills_router_and_host(self):
        conf = build_config(
            "linda-server", ["-A", "linda_server"],
            environ={"QP_ROUTER": "127.0.0.1:7400", "QP_HOST": "hub"},
        )
        assert conf.router == "127.0.0.1:7400"
        assert conf.host == "hub"

    def test_client_roles_have_default_process(self):
        conf = build_config("query", ["--server", "t:p@h"], environ={})
        assert conf.process == "query_shell"

    def test_malformed_config_file_is_a_usage_error(self, tmp_path):
        f = tmp_path / "conf"
        f.write_text("not a pair\n")
        with pytest.raises(SystemExit):
            build_config("router", ["--config", str(f)], environ={})

    def test_config_file_comments_and_repeats(self, tmp_path):
        f = tmp_path / "conf"
        f.write_text("# a comment\npeer=x=1:1\npeer=y=2:2\nhost=hub\n")
        cfg = read_config_file(str(f))
        assert cfg["peer"] == ["x=1:1", "y=2:2"]
        assert cfg["host"] == ["hub"]


EDGE_DB = [
    "edge(a, b).",
    "edge(b, c).",
    "path(X, Y) :- edge(X, Y).",
    "path(X, Y) :- edge(X, Z), path(Z, Y).",
]


@pytest.fixture
def served():
    n = Node(NodeConfig(process="query_server", host="hostq")).start()
    n.attach("repl")
    for c in EDGE_DB:
        n.assert_clause(parse_clause(c))
    n.fork(lambda: query.query_server_main(n),
           symbol=query.SERVER_SYMBOL, label="query_main")
    yield n
    n.shutdown()


def run_repl(node, text):
    out = io.StringIO()
    repl_loop(node, query.SERVER_SYMBOL, timeout=10.0,
              infile=io.StringIO(text), out=out)
    return out.getvalue()


class TestReplLoop:
    def test_all_prints_bindings(self, served):
        assert run_repl(served, "all edge(a, X)\nquit\n") == "X = b\n"

    def test_blank_line_between_solutions(self, served):
        got = run_repl(served, "all edge(X, Y)\nquit\n")
        assert got == "X = a\nY = b\n\nX = b\nY = c\n"

    def test_ground_hit_prints_true(self, served):
        assert run_repl(served, "all edge(a, b)\nquit\n") == "true\n"

    def test_no_solutions_prints_no(self, served):
        assert run_repl(served, "all nosuch(1)\nquit\n") == "no\n"

    def test_stream_next_finish_transcript(self, served):
        got = run_repl(served, "stream path(a, C)\nnext\nfinish\nquit\n")
        assert got == "C = b\nstream closed\n"
        wait_until(lambda: served.live_threads(label=query.GENERATOR_LABEL) == 0,
                   msg="generator finished")

    def test_stream_drained_to_no(self, served):
        got = run_repl(served, "stream edge(a, X)\nnext\nnext\nquit\n")
        assert got == "X = b\nno\n"

    def test_next_without_stream_is_an_error_line(self, served):
        got = run_repl(served, "next\nquit\n")
        assert got == "no open stream\n"

    def test_parse_error_echoes_and_continues(self, served):
        got = run_repl(served, "all edge(a,\nall edge(a, X)\nquit\n")
        lines = got.splitlines()
        assert lines[0].startswith("parse error:")
        assert lines[1] == "X = b"

    def test_quit_finishes_open_stream(self, served):
        run_repl(served, "stream path(a, C)\nnext\nquit\n")
        wait_until(lambda: served.live_threads(label=query.GENERATOR_LABEL) == 0,
                   msg="stream finished on quit")
        assert sum(1 for _ in served.clause_lookup(
            mk("remote_thread", Var(), Var()))) == 0

    def test_eof_finishes_open_stream_too(self, served):
        run_repl(served, "stream path(a, C)\n")
        wait_until(lambda: served.live_threads(label=query.GENERATOR_LABEL) == 0,
                   msg="stream finished on eof")

    def test_unknown_command_reported(self, served):
        got = run_repl(served, "frobnicate\nquit\n")
        assert got == "unknown command: frobnicate\n"


class TestLindaOneShot:
    def test_a_timed_out_in_leaves_no_handler_behind(self, capsys):
        n = Node(NodeConfig(process="linda_server", host="hosta"))
        n.attach("shell")
        n.fork(lambda: linda.serve(n), symbol=linda.SERVER_SYMBOL)
        try:
            conf = build_config("linda", ["--server", linda.SERVER_SYMBOL, "--timeout", "0.2",
                                          "in", "job(N)"], environ={})
            assert _linda_op(n, conf, parse_term(conf.tuple_text)) == 1
            assert "timed out" in capsys.readouterr().err
            other = linda.connect(n, linda.SERVER_SYMBOL)
            other.out(parse_term("job(1)"))
            # the timed-out call's handler takes job(1), then its session's disconnect
            wait_until(lambda: n.live_threads(label="linda_handler") == 1,
                       msg="the one-shot's handler gone")
            other.disconnect()
            wait_until(lambda: n.live_threads(label="linda_handler") == 0,
                       msg="every handler gone")
        finally:
            n.shutdown()


# --------------------------------------------------------------------------
# whole programs talking over a real router

def spawn(args):
    return subprocess.Popen(
        [sys.executable, "-m", "termbus", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, bufsize=1,
    )


def stop(proc):
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout:
        proc.stdout.close()
    if proc.stderr:
        proc.stderr.close()


@pytest.fixture
def hub_router():
    proc = spawn(["router", "--host", "hub"])
    line = proc.stdout.readline()
    assert "listening on" in line, line
    yield line.strip().rsplit(" ", 1)[-1]
    stop(proc)


class TestEndToEnd:
    def test_query_repl_smoke(self, hub_router, tmp_path):
        db = tmp_path / "facts.qp"
        db.write_text("".join(c + "\n" for c in EDGE_DB))
        server = spawn(["query-server", "-A", "query_server", "--host", "hub",
                        "--router", hub_router, "--db", str(db)])
        try:
            assert "serving 4 clauses" in server.stdout.readline()
            client = subprocess.run(
                [sys.executable, "-m", "termbus", "query",
                 "--server", "query_thread:query_server@hub",
                 "--router", hub_router, "--host", "hub", "--timeout", "10"],
                input="all edge(a, X)\nquit\n",
                capture_output=True, text=True, timeout=30,
            )
            assert client.returncode == 0, client.stderr
            assert "X = b" in client.stdout
        finally:
            stop(server)

    def test_linda_one_shots_with_env_vars(self, hub_router):
        server = spawn(["linda-server", "-A", "linda_server", "--host", "hub",
                        "--router", hub_router])
        try:
            assert "up" in server.stdout.readline()
            env = {**os.environ, "QP_ROUTER": hub_router, "QP_HOST": "hub"}

            def one_shot(*args):
                return subprocess.run(
                    [sys.executable, "-m", "termbus", "linda", *args],
                    capture_output=True, text=True, timeout=30, env=env,
                )

            put = one_shot("out", "job(42)")
            assert put.returncode == 0, put.stderr
            assert put.stdout.strip() == "inserted"
            got = one_shot("rd", "job(N)")
            assert got.returncode == 0, got.stderr
            assert got.stdout.strip() == "job(42)"
            missing = one_shot("inp", "nothing(_)")
            assert missing.returncode == 0
            assert missing.stdout.strip() == "no match"
        finally:
            stop(server)

    def test_missing_db_file_fails_distinctly(self, hub_router):
        r = subprocess.run(
            [sys.executable, "-m", "termbus", "query-server", "-A", "qs",
             "--host", "hub", "--router", hub_router, "--db", "/nope/missing.qp"],
            capture_output=True, text=True, timeout=30,
        )
        assert r.returncode == 1
        assert "cannot read clause file" in r.stderr

    def test_unknown_flag_fails_with_usage(self):
        r = subprocess.run(
            [sys.executable, "-m", "termbus", "router", "--bogus"],
            capture_output=True, text=True, timeout=30,
        )
        assert r.returncode == 2
        assert "usage" in r.stderr
