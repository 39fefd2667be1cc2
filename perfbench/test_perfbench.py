"""Tests of the benchmark itself, in its tiny-size mode.

Run with:  python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
from network import BenchError, Network  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

import termbus.mailbox  # noqa: E402
import termbus.terms  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def no_children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def log(tmp_path):
    with open(tmp_path / "children.log", "w") as fh:
        yield fh


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_passes_every_check(workload, log):
    rec = run.run(workload, seed=3, seconds=0.3, trace=False, sizes=TINY, log=log)
    assert rec["correct"], rec["failures"]
    assert rec["attempted"] > 0 and rec["failed"] == 0
    assert set(rec["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in rec["metrics"].values())
    frames = rec["extra"]["frames_per_msg"][0]
    assert frames == WORKLOADS[workload].frames_per_msg
    assert no_children_left()


def test_capacity_probe_records_the_list_limit(log):
    rec = run.run("rpc_same_host", seed=3, seconds=0.3, trace=False, sizes=TINY, log=log)
    assert rec["extra"]["max_list_len"][0] == TINY.probe_cap


def test_wrong_echo_is_counted_in_error_rate(log):
    rec = run.run("rpc_same_host", seed=3, seconds=0.3, trace=False, sizes=TINY,
                  wrong_echo=True, log=log)
    assert not rec["correct"]
    assert rec["failed"] > 0
    assert rec["extra"]["error_rate"][0] == rec["failed"] / rec["attempted"]
    assert any("not a variant" in f for f in rec["failures"])
    assert no_children_left()


def test_traced_run_reports_every_layer_and_restores_the_package(log):
    copy = termbus.terms.fresh_copy
    rec = run.run("rpc_same_host", seed=3, seconds=0.6, trace=True, sizes=TINY, log=log)
    assert rec["correct"], rec["failures"]
    assert set(rec["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    m = {name: value for name, (value, _) in rec["metrics"].items()}
    assert m["frames_per_msg"] == 2
    assert m["codec.decode_envelope.calls_per_op"] == 4  # client, router twice, echo
    assert m["mailbox.copies_per_recv"] == 1
    assert m["codec.binary.bytes_per_frame"] > 0 and m["codec.text.bytes_per_frame"] > 0
    assert termbus.mailbox.fresh_copy is copy
    assert no_children_left()


def test_traced_query_run_counts_the_clause_scans_of_resolution(log):
    rec = run.run("query_cross_host", seed=3, seconds=0.6, trace=True, sizes=TINY, log=log)
    assert rec["correct"], rec["failures"]
    m = {name: value for name, (value, _) in rec["metrics"].items()}
    assert m["runtime.clause_scan.clauses_per_call"] > 0
    assert m["runtime.clause_scan.us_per_call"] > 0
    assert m["query.ans_gen_live_end"] == 0
    assert no_children_left()


def test_failed_setup_reaps_its_children(log):
    net = Network(False, log)
    with pytest.raises(BenchError):
        net.spawn({"role": "no_such_role"})
    net.close()
    assert no_children_left()


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rpc_same_host", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
