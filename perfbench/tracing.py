"""Per-layer tracing for the traced benchmark run, installed from outside.

:class:`LayerTracer` patches the public entry points of each layer of
``repro`` (see :data:`LAYER_CALLS`) with thin wrappers and restores
them on exit; nothing under ``src/`` carries tracing code.  Each
wrapper opens a *frame* on the calling thread's stack, so a layer's
self CPU is the thread CPU spent between entering and leaving its
frames minus what nested frames of other layers took.  Nested calls
into the layer already on top of the stack run straight through: a
layer's ``calls`` counts calls *into* it from another layer.

Two clocks are attributed side by side:

- **CPU**: ``time.thread_time`` per frame.  Rank threads share one
  interpreter lock, so a layer's CPU saving turns into wall time about
  one for one.
- **virtual**: every change of a rank's :class:`~repro.mpi.comm.Clock`
  (``SimComm.advance``, the jump across each collective, ``recv`` and
  ``sync_time``) is charged to the innermost open frame on that
  thread, or to ``unattributed`` when none is open.

Page- and phase-grained calls are also recorded as Chrome
``trace_event`` spans; per-record calls (an emit, one ``allocate``)
are only counted and timed, because a span per record would cost more
than the call itself.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable

import repro.core.job as core_job
import repro.core.kmvcontainer as core_kmvcontainer
from repro.core.batch import is_batch_kernel
from repro.core.codec import Codec
from repro.core.job import MapContext, Mimir, ReduceContext
from repro.core.kmvcontainer import KMVContainer
from repro.core.kvcontainer import KVContainer
from repro.core.records import KVLayout
from repro.core.shuffle import Shuffler
from repro.memory.tracker import MemoryTracker
from repro.mpi.comm import SimComm
from repro.obs.registry import MetricShard
from repro.storage.base import StorageBackend

#: Layer names, in report order.  Each is a module (or package) of
#: ``repro``; ``apps`` is the job function and the callbacks it passes.
LAYERS = ("apps", "core.job", "core.shuffle", "core.convert",
          "core.kvcontainer", "core.kmvcontainer", "core.records",
          "core.codec", "mpi", "memory", "storage", "io.readers", "obs")
UNATTRIBUTED = "unattributed"

APPS = LAYERS.index("apps")
MPI = LAYERS.index("mpi")
JOB = LAYERS.index("core.job")

#: Wrapper kinds: a plain call, or a call returning an iterator whose
#: every ``next`` is one call into the layer.
CALL, ITER = "call", "iter"
#: Grains: ``SPAN`` calls are page/phase-sized and become trace spans;
#: ``COUNT`` calls are per record and are only counted and timed.
SPAN, COUNT = True, False

#: The mapping of layers to the public functions the tracer wraps:
#: ``(layer, owner, attribute, kind, grain)``.  Module-level functions
#: are patched where their caller looks them up (``core.job`` imports
#: the convert and reader generators by name).
LAYER_CALLS = [
    ("core.job", MapContext, "emit", CALL, COUNT),
    ("core.job", MapContext, "emit_run", CALL, SPAN),
    ("core.job", MapContext, "emit_pairs", CALL, SPAN),
    ("core.job", MapContext, "emit_batch", CALL, SPAN),
    ("core.job", ReduceContext, "emit", CALL, COUNT),
    ("core.shuffle", Shuffler, "exchange", CALL, SPAN),
    ("core.convert", core_job, "iter_grouped", ITER, COUNT),
    ("core.convert", core_job, "iter_grouped_batches", ITER, SPAN),
    ("core.kvcontainer", KVContainer, "batches", ITER, SPAN),
    ("core.kvcontainer", KVContainer, "_consume_batches", ITER, SPAN),
    ("core.kvcontainer", KVContainer, "extend_encoded", CALL, SPAN),
    ("core.kvcontainer", KVContainer, "extend_pairs", CALL, SPAN),
    ("core.kmvcontainer", KMVContainer, "batches", ITER, SPAN),
    ("core.kmvcontainer", KMVContainer, "consume_batches", ITER, SPAN),
    ("core.kmvcontainer", KMVContainer, "records", ITER, COUNT),
    ("core.kmvcontainer", KMVContainer, "consume", ITER, COUNT),
    ("core.kmvcontainer", core_kmvcontainer, "iter_kmv_buffer", ITER, COUNT),
    ("core.records", KVLayout, "scan", CALL, SPAN),
    ("core.codec", Codec, "encode_frame", CALL, SPAN),
    ("core.codec", Codec, "decode_frame", CALL, SPAN),
    *[("mpi", SimComm, name, CALL, SPAN) for name in (
        "barrier", "allreduce", "allsum", "allmax", "all_true", "any_true",
        "scan", "exscan", "allgather", "bcast", "alltoallv", "send",
        "recv")],
    ("memory", MemoryTracker, "allocate", CALL, COUNT),
    ("memory", MemoryTracker, "free", CALL, COUNT),
    *[("storage", StorageBackend, name, CALL, SPAN)
      for name in ("read", "write", "write_at", "append")],
    *[("io.readers", core_job, name, ITER, SPAN) for name in (
        "iter_text_chunks", "iter_binary_chunks", "iter_text_chunks_multi",
        "iter_binary_chunks_multi")],
    ("obs", MetricShard, "inc", CALL, COUNT),
    ("obs", MetricShard, "observe", CALL, COUNT),
]

#: Extra counters of some wrapped calls: ``(args, result) -> (name,
#: value)`` pairs, added up per run.  Storage calls are ``(backend,
#: comm, path, ...)``; ``spill/`` paths also count as spill traffic.
COUNTERS = {
    (Codec, "encode_frame"): lambda args, out: (
        ("core.codec.encodes", 1), ("core.codec.bytes_in", len(args[1])),
        ("core.codec.bytes_out", len(out))),
    (Codec, "decode_frame"): lambda args, out: (("core.codec.decodes", 1),),
    (StorageBackend, "read"):
        lambda args, out: _storage_bytes("read", args[2], len(out)),
    (StorageBackend, "write"):
        lambda args, out: _storage_bytes("written", args[2], len(args[3])),
    (StorageBackend, "append"):
        lambda args, out: _storage_bytes("written", args[2], len(args[3])),
    (StorageBackend, "write_at"):
        lambda args, out: _storage_bytes("written", args[2], len(args[4])),
    (MemoryTracker, "allocate"): lambda args, out: (("memory.allocs", 1),),
}

#: ``Mimir`` drivers (``core.job``).  Their callback arguments are
#: wrapped as ``apps``: the positional callable is the main callback, a
#: span per call when the driver hands it whole chunks (file maps) or it
#: is a batch kernel, and ``combine_fn`` is per record.  The
#: ``partitioner`` is left alone: it runs inside every emit, so its time
#: stays in ``core.job``'s emit dispatch rather than doubling the
#: tracing cost of each emit.
DRIVERS = {
    "map_text_file": SPAN, "map_binary_file": SPAN,
    "map_text_files": SPAN, "map_binary_files": SPAN,
    "map_items": COUNT, "map_kvs": COUNT,
    "reduce": COUNT, "partial_reduce": COUNT,
}

#: ``SimComm`` methods that move a rank's virtual clock.
CLOCK_CALLS = ("advance", "_run", "recv", "sync_time")


class _ThreadState:
    """One thread's frame stack and accumulators (written by it alone)."""

    __slots__ = ("stack", "calls", "cpu", "virtual", "wait", "events",
                 "extra", "rank", "leaked")

    def __init__(self):
        #: Open frames: ``[layer, cpu_start, child_cpu, wall_start, span]``.
        self.stack: list[list[Any]] = []
        self.calls = [0] * len(LAYERS)
        self.cpu = [0.0] * len(LAYERS)
        #: Virtual seconds per layer; the extra last slot is unattributed.
        self.virtual = [0.0] * (len(LAYERS) + 1)
        self.wait = 0.0
        #: Chrome span edges: ``(ph, name, layer, perf_counter)``.
        self.events: list[tuple[str, str, int, float]] = []
        self.extra: dict[str, float] = {}
        self.rank: int | None = None
        self.leaked = 0


class _TracedIter:
    """An iterator whose every ``next`` is one traced call into a layer."""

    __slots__ = ("_tracer", "_layer", "_span", "_it")

    def __init__(self, tracer: "LayerTracer", layer: int, span: str | None,
                 it):
        self._tracer = tracer
        self._layer = layer
        self._span = span
        self._it = it

    def __iter__(self) -> "_TracedIter":
        return self

    def __next__(self):
        return self._tracer._call(self._layer, self._span, self._it.__next__)

    def close(self) -> None:
        # ``yield from`` closes its sub-iterator; a generator's cleanup
        # (freeing pages, deleting spill files) is the layer's work.
        close = getattr(self._it, "close", None)
        if close is not None:
            self._tracer._call(self._layer, None, close)


class LayerTracer:
    """Patches every layer of ``repro`` for one traced job run.

    Use as a context manager around ``cluster.run(tracer.job(fn))``;
    the patches are process-global, so only one tracer may be active.
    """

    def __init__(self):
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._t0 = time.perf_counter()
        #: Final virtual clock of every rank, read as its job returns.
        self.rank_clocks: dict[int, float] = {}

    # -------------------------------------------------------- frames

    def _state(self) -> _ThreadState:
        try:
            return self._tls.state
        except AttributeError:
            state = self._tls.state = _ThreadState()
            with self._lock:
                self._states.append(state)
            return state

    def _call(self, layer: int, span: str | None, fn: Callable, *args,
              **kwargs):
        """Run ``fn`` inside a frame of ``layer`` on this thread."""
        st = self._state()
        stack = st.stack
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        wall = time.perf_counter()
        stack.append([layer, time.thread_time(), 0.0, wall, span])
        if span is not None:
            st.events.append(("B", span, layer, wall))
        try:
            return fn(*args, **kwargs)
        finally:
            cpu_end = time.thread_time()
            _, cpu_start, child, wall, span = stack.pop()
            elapsed = cpu_end - cpu_start
            st.cpu[layer] += elapsed - child
            st.calls[layer] += 1
            if stack:
                stack[-1][2] += elapsed
            if span is not None or layer == MPI:
                wall_end = time.perf_counter()
                if span is not None:
                    st.events.append(("E", span, layer, wall_end))
                if layer == MPI:
                    st.wait += (wall_end - wall) - elapsed

    def _charge(self, seconds: float) -> None:
        st = self._state()
        layer = st.stack[-1][0] if st.stack else len(LAYERS)
        st.virtual[layer] += seconds

    def _add(self, pairs) -> None:
        extra = self._state().extra
        for name, value in pairs:
            extra[name] = extra.get(name, 0) + value

    # ------------------------------------------------------ wrappers

    def _span_name(self, layer: int, fn: Callable) -> str:
        return f"{LAYERS[layer]}:{fn.__qualname__}"

    def traced(self, layer: int, fn: Callable, kind: str = CALL,
               grain: bool = SPAN, count: Callable | None = None
               ) -> Callable:
        """``fn`` wrapped as a call (or iterator) into ``layer``.

        ``count(args, result)`` gives extra counters of every call (see
        :data:`COUNTERS`); only plain calls take one.
        """
        span = self._span_name(layer, fn) if grain else None
        call = self._call
        add = self._add
        if kind == ITER:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return _TracedIter(self, layer, span, fn(*args, **kwargs))
        elif grain == SPAN:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = call(layer, span, fn, *args, **kwargs)
                if count is not None:
                    add(count(args, result))
                return result
        else:
            wrapper = self._per_record(layer, fn, count)
        return wrapper

    def _per_record(self, layer: int, fn: Callable,
                    count: Callable | None) -> Callable:
        """:meth:`_call` without spans or wall time, inlined: the
        wrapper of calls made once per record, where its own cost
        matters most."""
        tls = self._tls
        state = self._state
        thread_time = time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                st = tls.state
            except AttributeError:
                st = state()
            stack = st.stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, thread_time(), 0.0]
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = thread_time() - frame[1]
                    stack.pop()
                    st.cpu[layer] += elapsed - frame[2]
                    st.calls[layer] += 1
                    if stack:
                        stack[-1][2] += elapsed
            if count is not None:
                extra = st.extra
                for name, value in count(args, result):
                    extra[name] = extra.get(name, 0) + value
            return result
        return wrapper

    def _driver(self, fn: Callable, main_grain: bool) -> Callable:
        """A ``Mimir`` driver whose callbacks are traced as ``apps``."""
        span = self._span_name(JOB, fn)

        def app(callback: Callable, grain: bool) -> Callable:
            # functools.wraps copies ``is_batch_kernel`` onto the wrapper.
            grain = grain or is_batch_kernel(callback)
            return self.traced(APPS, callback, CALL, grain)

        @functools.wraps(fn)
        def wrapper(mimir, *args, **kwargs):
            # The one positional callable of every driver is its main
            # callback; the rest are keyword-only.
            args = [app(arg, main_grain) if callable(arg) else arg
                    for arg in args]
            if callable(kwargs.get("combine_fn")):
                kwargs["combine_fn"] = app(kwargs["combine_fn"], COUNT)
            return self._call(JOB, span, fn, mimir, *args, **kwargs)
        return wrapper

    def _clock_hook(self, fn: Callable) -> Callable:
        """``fn`` (a ``SimComm`` method) charging its clock change."""
        charge = self._charge

        @functools.wraps(fn)
        def wrapper(comm, *args, **kwargs):
            before = comm.clock.time
            try:
                return fn(comm, *args, **kwargs)
            finally:
                charge(comm.clock.time - before)
        return wrapper

    def job(self, fn: Callable) -> Callable:
        """The rank entry point ``fn(env, *args)`` traced as ``apps``."""
        span = f"apps:{getattr(fn, '__name__', 'job')}"

        def traced_job(env, *args):
            st = self._state()
            st.rank = env.comm.rank
            try:
                return self._call(APPS, span, fn, env, *args)
            finally:
                self.rank_clocks[env.comm.rank] = env.comm.clock.time
                st.leaked += len(st.stack)
        return traced_job

    # ------------------------------------------------------- install

    def _patch(self, owner: Any, name: str, make: Callable) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def __enter__(self) -> "LayerTracer":
        # Clock hooks first, so the mpi wrapper around ``recv`` encloses
        # the hook and the jump is charged inside the mpi frame.
        for name in CLOCK_CALLS:
            self._patch(SimComm, name, self._clock_hook)
        for layer, owner, name, kind, grain in LAYER_CALLS:
            self._patch(owner, name, lambda fn, layer=layer, kind=kind,
                        grain=grain, count=COUNTERS.get((owner, name)):
                        self.traced(LAYERS.index(layer), fn, kind, grain,
                                    count))
        for name, grain in DRIVERS.items():
            self._patch(Mimir, name,
                        lambda fn, grain=grain: self._driver(fn, grain))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -------------------------------------------------------- report

    def report(self, process_cpu: float) -> dict[str, Any]:
        """Per-layer totals over every thread of the traced run.

        ``process_cpu`` is the process CPU time of the run; what the
        layers do not account for (the launching thread, thread start)
        is ``unattributed``.  Raises ``AssertionError`` if the frames
        did not balance or the clocks do not add up.
        """
        states = list(self._states)
        if any(st.leaked for st in states):
            raise AssertionError("frames left open when a rank returned")
        calls = [sum(st.calls[i] for st in states) for i in range(len(LAYERS))]
        cpu = [sum(st.cpu[i] for st in states) for i in range(len(LAYERS))]
        virtual = [sum(st.virtual[i] for st in states)
                   for i in range(len(LAYERS) + 1)]
        extra: dict[str, float] = {}
        for st in states:
            for name, value in st.extra.items():
                extra[name] = extra.get(name, 0) + value

        unattributed_cpu = process_cpu - sum(cpu)
        if unattributed_cpu < -max(0.01, 0.01 * process_cpu):
            raise AssertionError(
                f"layers account for {sum(cpu):.4f} s of CPU but the "
                f"process used only {process_cpu:.4f} s")
        cpu_total = sum(cpu) + max(0.0, unattributed_cpu)
        virtual_total = sum(virtual)
        clock_total = sum(self.rank_clocks.values())
        if abs(virtual_total - clock_total) > 1e-9 * max(1.0, clock_total):
            raise AssertionError(
                f"virtual charges sum to {virtual_total!r} s but the rank "
                f"clocks to {clock_total!r} s")

        layers = {}
        for i, name in enumerate(LAYERS):
            layers[name] = {
                "calls": calls[i],
                "self_cpu_s": cpu[i],
                "cpu_share": cpu[i] / cpu_total,
                "virtual_share": virtual[i] / virtual_total,
            }
        layers[UNATTRIBUTED] = {
            "cpu_share": max(0.0, unattributed_cpu) / cpu_total,
            "virtual_share": virtual[-1] / virtual_total,
        }
        for kind in ("cpu_share", "virtual_share"):
            total = sum(entry[kind] for entry in layers.values())
            if abs(total - 1.0) > 1e-9:
                raise AssertionError(f"{kind} sums to {total!r}, not 1")
        return {"layers": layers, "extra": extra,
                "mpi_wait_s": sum(st.wait for st in states)}

    def chrome_trace(self, process_name: str) -> dict[str, Any]:
        """The run's spans as a Chrome ``trace_event`` object."""
        meta = [{"name": "process_name", "ph": "M", "ts": 0.0, "pid": 0,
                 "tid": 0, "args": {"name": process_name}}]
        events = []
        for index, st in enumerate(self._states):
            if not st.events:
                continue
            tid = st.rank if st.rank is not None else 1000 + index
            label = f"rank {st.rank}" if st.rank is not None \
                else f"thread {index}"
            meta.append({"name": "thread_name", "ph": "M", "ts": 0.0,
                         "pid": 0, "tid": tid, "args": {"name": label}})
            for ph, name, layer, wall in st.events:
                events.append({"name": name, "cat": LAYERS[layer], "ph": ph,
                               "ts": (wall - self._t0) * 1e6, "pid": 0,
                               "tid": tid})
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def _storage_bytes(direction: str, path: str, nbytes: int):
    """Storage counters for one access; ``spill/`` paths also count
    as spill traffic."""
    yield f"storage.bytes_{direction}", nbytes
    if path.startswith("spill/"):
        yield f"storage.spill_bytes_{direction}", nbytes
