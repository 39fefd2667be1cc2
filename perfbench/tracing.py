"""Per-layer tracing, installed from outside the termbus package.

The layers are the termbus modules.  A Tracer replaces selected functions and
methods with timing wrappers for the life of one traced run and puts the
originals back afterwards; nothing under ``src/`` knows about it.  A
module-level function is patched in every termbus module that holds a
binding to it (``termbus.mailbox.fresh_copy`` and ``termbus.runtime.fresh_copy``
are two bindings of one function), so the binding a call went through also
names the calling layer.  Recursive functions that call themselves through
their module global (``unify_into``) are left alone in their home module, so
only calls that cross a module boundary are counted.

Counters are cumulative per process and kept per thread, so wrappers never
contend on a lock.  ``snapshot()`` sums them; the benchmark reads a snapshot
before and after the measured phase and reports the difference.  A record is
``[calls, seconds, cpu_seconds, aux]`` where ``aux`` is a per-wrapper count
(bytes for encode, failures for a match, answers for solve).
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time
from collections import deque

SAMPLE_FRAMES = 64

perf_counter = time.perf_counter
thread_time = time.thread_time


def termbus_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "termbus" or name.startswith("termbus."))
    ]


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._threads: list[dict] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []
        self.frames: deque[bytes] = deque(maxlen=SAMPLE_FRAMES)
        self.originals: dict[str, object] = {}

    # -- counters ------------------------------------------------------------

    def _acc(self) -> dict:
        d = getattr(self._local, "d", None)
        if d is None:
            d = {}
            self._local.d = d
            self._local.excl = [0.0, 0.0]
            with self._lock:
                self._threads.append(d)
        return d

    def add(self, key: str, secs: float = 0.0, cpu: float = 0.0, aux: int = 0, calls: int = 1):
        d = self._acc()
        rec = d.get(key)
        if rec is None:
            rec = d[key] = [0, 0.0, 0.0, 0]
        rec[0] += calls
        rec[1] += secs
        rec[2] += cpu
        rec[3] += aux

    def snapshot(self) -> dict:
        with self._lock:
            threads = list(self._threads)
        out: dict[str, list] = {}
        for d in threads:
            for key, rec in d.copy().items():
                tot = out.setdefault(key, [0, 0.0, 0.0, 0])
                for i in range(4):
                    tot[i] += rec[i]
        return out

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, home: str, name: str, make, skip_home: bool = False) -> None:
        """Replace every termbus binding of termbus.<home>.<name>.

        make(original, binding_module_short_name) returns the wrapper.
        """
        original = getattr(sys.modules["termbus." + home], name)
        self.originals[name] = original
        for mod in termbus_modules():
            if skip_home and _short(mod) == home:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, make(original, _short(mod)))

    def patch_method(self, cls, name: str, make) -> None:
        original = cls.__dict__[name]
        self._set(cls, name, make(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- wrapper factories ---------------------------------------------------

    def timed(self, prefix: str):
        """Wall time per call, keyed by prefix and, for a function, its binding."""

        def make(fn, binding=None):
            key = prefix if binding is None else f"{prefix}|{binding}"

            def wrapper(*a, **kw):
                t0 = perf_counter()
                try:
                    return fn(*a, **kw)
                finally:
                    self.add(key, perf_counter() - t0)

            return wrapper

        return make

    def sized(self, key: str):
        """Wall time per call; aux counts the items the call returned."""

        def make(fn):
            def wrapper(*a, **kw):
                t0 = perf_counter()
                items = fn(*a, **kw)
                self.add(key, perf_counter() - t0, aux=len(items))
                return items

            return wrapper

        return make

    def copy_counter(self, prefix: str):
        """Timed, keyed by binding module and calling function."""

        def make(fn, binding):
            def wrapper(*a, **kw):
                caller = sys._getframe(1).f_code.co_name
                t0 = perf_counter()
                try:
                    return fn(*a, **kw)
                finally:
                    self.add(f"{prefix}|{binding}|{caller}", perf_counter() - t0)

            return wrapper

        return make

    def encode_counter(self):
        def make(fn, binding):
            key = f"encode_envelope|{binding}"

            def wrapper(env, *a, **kw):
                t0 = perf_counter()
                frame = fn(env, *a, **kw)
                self.add(key, perf_counter() - t0, aux=len(frame))
                if not env.flags.control:
                    self.frames.append(frame)
                return frame

            return wrapper

        return make

    def match_counter(self):
        """Mailbox._match_env: aux counts misses; cpu holds the time of misses."""

        def make(fn):
            def wrapper(*a, **kw):
                t0 = perf_counter()
                ok = fn(*a, **kw)
                dt = perf_counter() - t0
                if ok:
                    self.add("match_env", dt)
                else:
                    self.add("match_env", dt, cpu=dt, aux=1)
                return ok

            return wrapper

        return make

    def recv_timer(self, key: str, guard_cls=None):
        """Wall and thread-CPU time of one receive, minus guard bodies it ran."""

        def make(fn):
            def wrap_body(body):
                def run():
                    w0, c0 = perf_counter(), thread_time()
                    try:
                        return body()
                    finally:
                        excl = self._local.excl
                        excl[0] += perf_counter() - w0
                        excl[1] += thread_time() - c0

                return run

            def wrapper(mailbox, *a, **kw):
                self._acc()
                if guard_cls is not None:
                    guards = [
                        guard_cls(g.message, g.from_, g.reply, g.test,
                                  wrap_body(g.body) if g.body is not None else None)
                        for g in a[0]
                    ]
                    a = (guards,) + a[1:]
                excl = self._local.excl
                e_w, e_c = excl
                w0, c0 = perf_counter(), thread_time()
                try:
                    return fn(mailbox, *a, **kw)
                finally:
                    wall = perf_counter() - w0 - (excl[0] - e_w)
                    cpu = thread_time() - c0 - (excl[1] - e_c)
                    self.add(key, wall, cpu)

            return wrapper

        return make

    def generator_timer(self, key: str):
        """Time spent inside a generator's steps; aux counts items yielded."""

        def make(fn, binding=None):
            def wrapper(*a, **kw):
                t0 = perf_counter()
                it = fn(*a, **kw)
                self.add(key, perf_counter() - t0)

                def steps():
                    try:
                        while True:
                            t = perf_counter()
                            try:
                                item = next(it)
                            except StopIteration:
                                self.add(key, perf_counter() - t, calls=0)
                                return
                            self.add(key, perf_counter() - t, aux=1, calls=0)
                            yield item
                    finally:
                        it.close()

                return steps()

            return wrapper

        return make

    # -- codec comparison ----------------------------------------------------

    def codec_comparison(self) -> dict:
        """Both body codecs over the data frames this process sent last.

        Runs the original functions, outside any measured phase.
        """
        from termbus.codec import Flags, decode_envelope, encode_envelope

        encode = self.originals.get("encode_envelope", encode_envelope)
        decode = self.originals.get("decode_envelope", decode_envelope)
        out = {}
        for label, binary in (("binary", True), ("text", False)):
            rec = {"frames": 0, "bytes": 0, "encode_s": 0.0, "decode_s": 0.0, "errors": 0}
            for frame in list(self.frames):
                env = decode(frame)
                env = dataclasses.replace(
                    env, flags=Flags(encoded=binary, remember_names=env.flags.remember_names)
                )
                try:
                    t0 = perf_counter()
                    data = encode(env)
                    t1 = perf_counter()
                    decode(data)
                    t2 = perf_counter()
                except Exception:
                    rec["errors"] += 1
                    continue
                rec["frames"] += 1
                rec["bytes"] += len(data)
                rec["encode_s"] += t1 - t0
                rec["decode_s"] += t2 - t1
            out[label] = rec
        return out


def install(tracer: Tracer) -> Tracer:
    """Install every layer wrapper the benchmark reads."""
    import termbus.address  # noqa: F401  (bindings must exist before patching)
    import termbus.codec
    import termbus.linda  # noqa: F401
    import termbus.mailbox
    import termbus.query
    import termbus.router  # noqa: F401
    import termbus.runtime
    import termbus.terms  # noqa: F401

    t = tracer
    t.patch_function("terms", "fresh_copy", t.copy_counter("fresh_copy"))
    t.patch_function("terms", "intern_named", t.copy_counter("intern_named"))
    t.patch_function("terms", "unify_into", t.timed("unify_into"), skip_home=True)
    t.patch_function("codec", "encode_envelope", t.encode_counter())
    t.patch_function("codec", "decode_envelope", t.timed("decode_envelope"))
    t.patch_function("query", "solve", t.generator_timer("solve"))

    mb = termbus.mailbox.Mailbox
    t.patch_method(mb, "recv_first", t.recv_timer("recv|recv_first"))
    t.patch_method(mb, "recv_search", t.recv_timer("recv|recv_search"))
    t.patch_method(
        mb, "message_choice", t.recv_timer("recv|message_choice", termbus.mailbox.Guard)
    )
    t.patch_method(mb, "_match_env", t.match_counter())

    rt = termbus.runtime
    t.patch_method(rt.Node, "send", t.timed("send"))
    t.patch_method(rt.ClauseDB, "assertz", t.timed("clause_assert"))
    t.patch_method(rt.ClauseDB, "retract", t.timed("clause_retract"))
    t.patch_method(rt.ClauseDB, "lookup", t.generator_timer("clause_lookup"))
    t.patch_method(rt.ClauseDB, "clauses", t.sized("clause_scan"))
    return t
