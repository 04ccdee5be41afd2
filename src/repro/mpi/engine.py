"""The collective engine shared by all rank threads of one world.

Every collective operation funnels through :meth:`CollectiveEngine.collective`:
ranks deposit their operation name, payload, and virtual clock, meet at
a barrier, one thread computes the exchange result and the synchronised
clock, and a second barrier releases the slots for the next operation.
Mismatched collectives are detected (rather than deadlocking) and a
failing rank aborts the whole world so no bystander hangs.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.mpi.costmodel import NetworkModel
from repro.mpi.errors import (
    CollectiveMismatchError,
    DeadlockError,
    WorldAbortedError,
)

#: Nominal payload size charged for object-valued control-plane
#: collectives (allreduce/bcast/allgather of flags and counters).
_CONTROL_BYTES = 64


class Mailbox:
    """Tagged point-to-point message queues between ranks.

    ``put``/``take`` implement MPI's matched send/recv: messages of one
    ``(source, dest, tag)`` channel are delivered in send order; sends
    are buffered (non-blocking), receives block until a message
    arrives or the world aborts.
    """

    def __init__(self, abort_check):
        import queue

        self._queues: dict[tuple[int, int, int], "queue.Queue"] = {}
        self._lock = threading.Lock()
        self._abort_check = abort_check
        self._queue_cls = queue.Queue
        self._empty_exc = queue.Empty

    def _channel(self, source: int, dest: int, tag: int):
        key = (source, dest, tag)
        with self._lock:
            chan = self._queues.get(key)
            if chan is None:
                chan = self._queues[key] = self._queue_cls()
            return chan

    def put(self, source: int, dest: int, tag: int, payload: Any,
            arrival_clock: float) -> None:
        self._channel(source, dest, tag).put((payload, arrival_clock))

    def take(self, source: int, dest: int, tag: int,
             timeout: float = 60.0) -> tuple[Any, float]:
        chan = self._channel(source, dest, tag)
        import time

        deadline = time.monotonic() + timeout
        while True:
            try:
                return chan.get(timeout=0.05)
            except self._empty_exc:
                if self._abort_check():
                    raise WorldAbortedError(
                        "world aborted while waiting for a message") from None
                if time.monotonic() > deadline:
                    raise WorldAbortedError(
                        f"rank {dest}: recv(source={source}, tag={tag}) "
                        f"timed out after {timeout}s") from None


class CollectiveEngine:
    """Sequences collective operations for ``nprocs`` rank threads."""

    def __init__(self, nprocs: int, network: NetworkModel,
                 nnodes: int | None = None):
        if nprocs <= 0:
            raise ValueError(f"nprocs must be positive, got {nprocs}")
        if nnodes is not None and nnodes <= 0:
            raise ValueError(f"nnodes must be positive, got {nnodes}")
        self.nprocs = nprocs
        self.nnodes = nnodes or nprocs
        self.network = network
        self._ops: list[str | None] = [None] * nprocs
        self._payloads: list[Any] = [None] * nprocs
        self._clocks: list[float] = [0.0] * nprocs
        self._results: list[Any] = [None] * nprocs
        self._reduce_fn: Callable[[Any, Any], Any] | None = None
        self._root = 0
        self._new_clock = 0.0
        self._error: BaseException | None = None
        self._finished: set[int] = set()
        self._aborted = False
        self._abort_reason: BaseException | None = None
        self._lock = threading.Lock()
        self._enter = threading.Barrier(nprocs, action=self._compute)
        self._exit = threading.Barrier(nprocs)
        self.mailbox = Mailbox(lambda: self._aborted)

    # ------------------------------------------------------------------ API

    def collective(self, op: str, rank: int, payload: Any, clock: float, *,
                   reduce_fn: Callable[[Any, Any], Any] | None = None,
                   root: int = 0) -> tuple[Any, float]:
        """Run one collective; returns ``(result, synchronised_clock)``."""
        with self._lock:
            if self._aborted:
                raise WorldAbortedError("world already aborted")
            if self._finished:
                reason = DeadlockError(
                    f"rank {rank} entered {op!r} after rank(s) "
                    f"{sorted(self._finished)} already returned")
                self._do_abort(reason)
                raise reason
        self._ops[rank] = op
        self._payloads[rank] = payload
        self._clocks[rank] = clock
        if reduce_fn is not None:
            self._reduce_fn = reduce_fn
        if root:
            self._root = root
        self._wait(self._enter)
        result = self._results[rank]
        new_clock = self._new_clock
        error = self._error
        self._wait(self._exit)
        if error is not None:
            raise error
        return result, new_clock

    def rank_done(self, rank: int) -> None:
        """A rank function returned; abort if others are mid-collective."""
        with self._lock:
            self._finished.add(rank)
            waiting = self._enter.n_waiting > 0 or self._exit.n_waiting > 0
            if waiting and not self._aborted:
                # The waiting collective can never complete.
                self._do_abort(DeadlockError(
                    f"rank {rank} returned while other ranks wait in a "
                    f"collective"))

    def abort(self) -> None:
        """Break both barriers so every blocked rank unwinds (failure path)."""
        with self._lock:
            self._do_abort(None)

    def _do_abort(self, reason: BaseException | None) -> None:
        """Must hold ``self._lock``."""
        if not self._aborted:
            self._aborted = True
            self._abort_reason = reason
        self._enter.abort()
        self._exit.abort()

    # ------------------------------------------------------------ internals

    def _wait(self, barrier: threading.Barrier) -> None:
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            reason = self._abort_reason
            if reason is not None:
                # The abort is itself the root cause (deadlock), not a
                # side effect of another rank's failure.
                raise reason from None
            raise WorldAbortedError("world aborted during a collective") from None

    def _compute(self) -> None:
        """Barrier action: runs in exactly one thread per operation."""
        self._error = None
        ops = {op for op in self._ops if op is not None}
        if len(ops) != 1:
            self._error = CollectiveMismatchError(
                {r: op or "<none>" for r, op in enumerate(self._ops)})
            self._results = [None] * self.nprocs
            self._new_clock = max(self._clocks)
            return
        op = next(iter(ops))
        start = max(self._clocks)
        try:
            cost = self._dispatch(op)
        except Exception as exc:  # defensive: surface, don't break barrier
            self._error = exc
            self._results = [None] * self.nprocs
            cost = 0.0
        self._new_clock = start + cost
        self._ops = [None] * self.nprocs

    def _dispatch(self, op: str) -> float:
        p = self.nprocs
        net = self.network
        if op == "barrier":
            self._results = [None] * p
            return net.barrier_cost(p, self.nnodes)
        if op == "allreduce":
            fn = self._reduce_fn
            if fn is None:
                raise ValueError("allreduce requires a reduce function")
            acc = self._payloads[0]
            for value in self._payloads[1:]:
                acc = fn(acc, value)
            self._results = [acc] * p
            self._reduce_fn = None
            return net.allreduce_cost(p, _CONTROL_BYTES, self.nnodes)
        if op == "allgather":
            gathered = list(self._payloads)
            self._results = [gathered] * p
            return net.allgather_cost(p, _CONTROL_BYTES, self.nnodes)
        if op == "bcast":
            value = self._payloads[self._root]
            self._results = [value] * p
            self._root = 0
            return net.bcast_cost(p, _CONTROL_BYTES, self.nnodes)
        if op == "scan":
            fn = self._reduce_fn
            if fn is None:
                raise ValueError("scan requires a reduce function")
            results = []
            acc = None
            for value in self._payloads:
                acc = value if acc is None else fn(acc, value)
                results.append(acc)
            self._results = results
            self._reduce_fn = None
            return net.allreduce_cost(p, _CONTROL_BYTES, self.nnodes)
        if op == "alltoallv":
            sends: Sequence[Sequence[bytes]] = self._payloads
            for r, parts in enumerate(sends):
                if len(parts) != p:
                    raise ValueError(
                        f"rank {r} passed {len(parts)} alltoallv parts, "
                        f"expected {p}")
            self._results = [
                [bytes(sends[src][dst]) for src in range(p)]
                for dst in range(p)
            ]
            max_send = max(sum(len(part) for part in parts) for parts in sends)
            return net.alltoallv_cost(p, max_send, self.nnodes)
        raise ValueError(f"unknown collective {op!r}")
