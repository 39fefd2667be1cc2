"""termbus benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload rpc_same_host --seed 1 --seconds 25 --trace 0

A run pins itself and every process it starts to one CPU, and takes the time
the host stole from that CPU out of the wall time it reports (calib.py).
--trace 0 sets the workload's network up several times (setup_s is the
median), measures it for --seconds in a closed loop and reports the
end-to-end metrics.  --trace 1 measures half the time untraced and half with
the layer wrappers of tracing.py installed in every process, and reports the
per-layer metrics plus the tracing overhead.  The human-readable report goes
to standard output, a full run record to perfbench/results/, and the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--workload all runs the four workloads one after another, each printing its
own report and result line.  Exit status: 0 when every output check passed,
1 when one failed, 2 when the network could not be built (no result is
printed for that workload then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from calib import calibrate, cpu_ticks, pinned

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_MIN_S = 0.5   # set up again until this much set-up time is measured,
SETUP_MAX = 400     # so that a set-up of a fraction of a millisecond still gives a steady median


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "termbus")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def steady(out) -> dict:
    """ops/s, op latencies and CPU per op at reference speed (see calib.py):
    the time the host stole from the CPU is taken out, and what is left is
    divided by the CPU's mean slowness."""
    scale = (1.0 - out.stolen) / out.slowness
    secs = out.elapsed * scale
    cpu = cpu_delta(out.snaps["begin"], out.snaps["ops_end"]) - out.sampling_s
    return {
        "ops_per_s": out.ops / secs if secs else 0.0,
        "lat_ms": [ms * scale for ms in out.lat_ms],
        "cpu_ms_per_op": cpu * 1e3 / out.slowness / out.ops if out.ops else 0.0,
    }


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


# --------------------------------------------------------------------------
# one measured phase

def measure(wl, net, seconds: float, probe: bool):
    from workloads import Outcome

    out = Outcome()
    out.snaps["begin"] = net.snapshot()
    wl.measure(net, seconds, out)
    wl.settle(net, out)
    out.snaps["end"] = net.snapshot()
    out.snaps.setdefault("ops_end", out.snaps["end"])
    frames = sum(p["stats"]["frames_out"] for p in out.snaps["end"]) - sum(
        p["stats"]["frames_out"] for p in out.snaps["begin"])
    out.extra["data_frames"] = frames
    out.extra["frames_per_msg"] = frames / out.messages if out.messages else 0.0
    out.check(frames == wl.frames_per_msg * out.messages,
              f"{frames} data frames for {out.messages} messages, "
              f"expected {wl.frames_per_msg} each")
    if probe:
        wl.after(net, out)
    return out


def build(wl, trace: bool, log, tracer=None):
    """Set the network up; returns it and the set-up time less stolen time."""
    from network import Network

    net = Network(trace, log, tracer)
    (stolen0, total0), t0 = cpu_ticks(), time.perf_counter()
    try:
        wl.setup(net)
    except BaseException:
        net.close()
        raise
    wall = time.perf_counter() - t0
    (stolen1, total1) = cpu_ticks()
    stolen = (stolen1 - stolen0) / (total1 - total0) if total1 > total0 else 0.0
    return net, wall * (1.0 - stolen)


def cpu_delta(begin, end, roles=None) -> float:
    return sum(e["cpu_s"] - b["cpu_s"] for b, e in zip(begin, end)
               if roles is None or e["role"] in roles)


def stat_delta(begin, end, key, roles) -> int:
    return sum(e["stats"][key] - b["stats"][key] for b, e in zip(begin, end)
               if e["role"] in roles)


# --------------------------------------------------------------------------
# end-to-end run

def end_to_end(wl, seconds: float, log) -> tuple[dict, object, dict]:
    # setup_s is not divided by the CPU's slowness: set-up starts processes
    # and threads, and the slowness loop did not track it (see README.md)
    setups = []
    while True:
        net, secs = build(wl, False, log)
        setups.append(secs)
        if len(setups) >= wl.sizes.setups and (
                sum(setups) >= SETUP_MIN_S or len(setups) >= SETUP_MAX):
            break
        net.close()
    setup_s = statistics.median(setups)
    try:
        out = measure(wl, net, seconds, probe=True)
    finally:
        net.close()

    st = steady(out)
    lat = st["lat_ms"]
    p50 = statistics.median(lat) if lat else 0.0
    p99, beyond = percentile(lat, 0.99) if lat else (0.0, 0)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (st["ops_per_s"], "1/s"),
        "op_p50_ms": (p50, "ms"),
        "cpu_ms_per_op": (st["cpu_ms_per_op"], "ms"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "ops_per_s": f"{out.ops} ops in {out.elapsed:.2f} s, {out.stolen:.1%} stolen, "
                     f"CPU slowness {out.slowness:.3f}",
        "op_p50_ms": f"n={len(lat)}",
        "op_p99_ms": f"n={len(lat)}, {beyond} samples beyond",
        "cpu_ms_per_op": "client plus every child process",
        "stolen": "share of the measured time the host took from the pinned CPU",
        "slowness": "mean CPU slowness over the measured time, 1 is reference speed",
        "raw_ops_per_s": "wall time as measured, no correction",
        "raw_op_p50_ms": "wall time as measured, no correction",
    }
    extra = {
        "op_p99_ms": (p99, "ms"),
        "stolen": (out.stolen, "ratio"),
        "slowness": (out.slowness, "ratio"),
        "raw_ops_per_s": (out.ops / out.elapsed if out.elapsed else 0.0, "1/s"),
        "raw_op_p50_ms": (statistics.median(out.lat_ms) if out.lat_ms else 0.0, "ms"),
        "error_rate": (out.failed / out.attempted if out.attempted else 0.0, "ratio"),
        "frames_per_msg": (out.extra["frames_per_msg"], "count"),
    }
    if "oneway_msg_per_s" in out.extra:
        extra["oneway_msg_per_s"] = (out.extra["oneway_msg_per_s"], "1/s")
    if "max_list_len" in out.extra:
        extra["max_list_len"] = (out.extra["max_list_len"], "count")
    if out.kinds.get("all_of"):
        extra["all_of_p50_ms"] = (statistics.median(out.kinds["all_of"]), "ms")
    notes.update({
        "error_rate": f"{out.failed} of {out.attempted} checks failed",
        "frames_per_msg": f"{out.extra['data_frames']} frames / {out.messages} messages, "
                          f"expected {wl.frames_per_msg}",
        "oneway_msg_per_s": f"n={out.extra.get('oneway_samples', 0)} messages",
        "all_of_p50_ms": f"n={len(out.kinds.get('all_of', []))}",
    })
    return {"metrics": metrics, "extra": extra, "notes": notes}, out, {"setups_s": setups}


# --------------------------------------------------------------------------
# traced run

def _delta_trace(begin, end, roles=None) -> dict:
    out: dict[str, list] = {}
    for b, e in zip(begin, end):
        if roles is not None and e["role"] not in roles:
            continue
        before = b.get("trace", {})
        for key, rec in e.get("trace", {}).items():
            base = before.get(key, [0, 0.0, 0.0, 0])
            tot = out.setdefault(key, [0, 0.0, 0.0, 0])
            for i in range(4):
                tot[i] += rec[i] - base[i]
    return out


def _agg(tr: dict, key: str) -> list:
    tot = [0, 0.0, 0.0, 0]
    for k, rec in tr.items():
        if k == key or k.startswith(key + "|"):
            for i in range(4):
                tot[i] += rec[i]
    return tot


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def per_layer(wl, seconds: float, log) -> tuple[dict, list]:
    from tracing import Tracer, install

    half = seconds / 2
    net, _ = build(wl, False, log)
    try:
        plain = measure(wl, net, half, probe=False)
    finally:
        net.close()

    tracer = install(Tracer())
    try:
        net, _ = build(wl, True, log, tracer)
        try:
            traced = measure(wl, net, half, probe=False)
            codecs = [tracer.codec_comparison()] + [c.ask("codec") for c in net.children]
        finally:
            net.close()
    finally:
        tracer.uninstall()

    b, e, end = traced.snaps["begin"], traced.snaps["ops_end"], traced.snaps["end"]
    tr = _delta_trace(b, e)
    ops = traced.ops
    us = 1e6

    def per_call(rec):
        return _ratio(rec[1], rec[0]) * us

    fc = _agg(tr, "fresh_copy")
    enc, dec = _agg(tr, "encode_envelope"), _agg(tr, "decode_envelope")
    recv, match = _agg(tr, "recv"), _agg(tr, "match_env")
    hits = match[0] - match[3]
    mailbox_copies = _agg(tr, "fresh_copy|mailbox")[0] + _agg(tr, "intern_named|mailbox")[0]
    lookup, retract = _agg(tr, "clause_lookup"), _agg(tr, "clause_retract")
    scan = _agg(tr, "clause_scan")
    solve = _agg(tr, "solve")
    router_tr = _delta_trace(b, e, {"router"})
    routers = {"router"}
    m = {
        "terms.fresh_copy.calls_per_op": (_ratio(fc[0], ops), "count"),
        "terms.fresh_copy.us_per_call": (per_call(fc), "us"),
        "terms.unify_into.us_per_call": (per_call(_agg(tr, "unify_into")), "us"),
        "codec.encode_envelope.us_per_call": (per_call(enc), "us"),
        "codec.decode_envelope.us_per_call": (per_call(dec), "us"),
        "codec.decode_envelope.calls_per_op": (_ratio(dec[0], ops), "count"),
        "codec.bytes_per_frame": (_ratio(enc[3], enc[0]), "B"),
    }
    for label in ("binary", "text"):
        frames = sum(c[label]["frames"] for c in codecs if c)
        m[f"codec.{label}.bytes_per_frame"] = (
            _ratio(sum(c[label]["bytes"] for c in codecs if c), frames), "B")
        m[f"codec.{label}.encode_us_per_frame"] = (
            _ratio(sum(c[label]["encode_s"] for c in codecs if c), frames) * us, "us")
        m[f"codec.{label}.decode_us_per_frame"] = (
            _ratio(sum(c[label]["decode_s"] for c in codecs if c), frames) * us, "us")
    m.update({
        "mailbox.recv.busy_us_per_call": (_ratio(recv[2], recv[0]) * us, "us"),
        "mailbox.recv.wait_us_per_call": (_ratio(recv[1] - recv[2], recv[0]) * us, "us"),
        "mailbox.copies_per_recv": (_ratio(mailbox_copies, hits), "count"),
        "mailbox.us_per_skip": (_ratio(match[2], match[3]) * us, "us"),
        "runtime.send.us_per_call": (per_call(_agg(tr, "send")), "us"),
        "runtime.clause_lookup.copies_per_call": (
            _ratio(_agg(tr, "fresh_copy|runtime|lookup")[0], lookup[0]), "count"),
        "runtime.clause_retract.copies_per_call": (
            _ratio(_agg(tr, "fresh_copy|runtime|retract")[0], retract[0]), "count"),
        "runtime.clause_lookup.us_per_call": (per_call(lookup), "us"),
        "runtime.clause_retract.us_per_call": (per_call(retract), "us"),
        "runtime.clause_assert.us_per_call": (per_call(_agg(tr, "clause_assert")), "us"),
        "runtime.clause_scan.us_per_call": (per_call(scan), "us"),
        "runtime.clause_scan.clauses_per_call": (_ratio(scan[3], scan[0]), "count"),
        "frames_per_msg": (traced.extra["frames_per_msg"], "count"),
        "router.decode_us_per_frame": (per_call(_agg(router_tr, "decode_envelope|router")), "us"),
        "router.cpu_ms_per_op": (_ratio(cpu_delta(b, e, routers) * 1e3, ops), "ms"),
        "router.frames_per_op": (_ratio(stat_delta(b, e, "frames_out", routers), ops), "count"),
        "router.dropped": (stat_delta(b, end, "dropped", routers), "count"),
        "router.queued_max": (max([p.get("queued_max", 0) for p in end] + [0]), "count"),
    })
    for kind in ("out", "in", "rd", "inp"):
        lat = traced.kinds.get(kind)
        m[f"linda.{kind}_p50_ms"] = (statistics.median(lat) if lat else 0.0, "ms")
    m.update({
        "linda.server_cpu_ms_per_op": (_ratio(cpu_delta(b, e, {"linda"}) * 1e3, ops), "ms"),
        "query.solve.us_per_answer": (_ratio(solve[1], solve[3]) * us, "us"),
        "query.copies_per_answer": (_ratio(_agg(tr, "fresh_copy|query")[0], solve[3]), "count"),
        "query.ans_gen_live_end": (traced.extra.get("ans_gen_live_end", 0), "count"),
    })
    plain_rate = steady(plain)["ops_per_s"]
    traced_rate = steady(traced)["ops_per_s"]
    m.update({
        "trace.untraced_ops_per_s": (plain_rate, "1/s"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.overhead_ops_per_s": (traced_rate - plain_rate, "1/s"),
    })
    return {"metrics": m, "extra": {}, "notes": {}}, [plain, traced]


# --------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
        wrong_echo: bool = False, log=None) -> dict:
    """Run one workload and return the full run record."""
    from workloads import FULL, WORKLOADS

    wl = WORKLOADS[workload](seed, sizes or FULL, wrong_echo)
    with pinned() as cpu:
        record = {
            "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
            "commit": commit(), "src_digest": src_digest(),
            "python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "calib_s": calibrate(),
        }
        if trace:
            result, outcomes = per_layer(wl, seconds, log)
        else:
            result, out, more = end_to_end(wl, seconds, log)
            outcomes = [out]
            record.update(more)
    record.update(result)
    record["attempted"] = sum(o.attempted for o in outcomes)
    record["failed"] = sum(o.failed for o in outcomes)
    record["failures"] = [f for o in outcomes for f in o.failures]
    record["correct"] = record["failed"] == 0
    return record


def report(record: dict) -> None:
    print(f"# termbus benchmark  workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print(f"# commit={record['commit']} src={record['src_digest']} "
          f"python={record['python']} nproc={record['nproc']} cpu={record['cpu']} "
          f"calib_s={record['calib_s']:.4f}")
    notes = record["notes"]
    for group in ("metrics", "extra"):
        for name, (value, unit) in record[group].items():
            note = notes.get(name, "")
            print(f"{name:40s} {value:14.6g} {unit:6s} {note}")
    for f in record["failures"]:
        print(f"FAILED: {f}")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    from network import BenchError

    stem = f"{workload}-seed{seed}-trace{trace}"
    with open(os.path.join(RESULTS, stem + ".log"), "w") as log:
        try:
            record = run(workload, seed, seconds, bool(trace), log=log)
        except BenchError as e:
            print(f"benchmark network failed: {e}", file=sys.stderr)
            return 2
    with open(os.path.join(RESULTS, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }), flush=True)
    return 0 if record["correct"] else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "termbus", "runtime.py")):
        print(f"termbus sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not set(names) <= set(WORKLOADS):
        print(f"unknown workload {args.workload!r}; one of {list(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    return max(run_one(name, args.seed, args.seconds, args.trace) for name in names)


if __name__ == "__main__":
    sys.exit(main())
