"""Columnar batch views over packed KV runs.

The per-record iterators (`KVContainer.records()` and friends)
materialise two ``bytes`` objects per record and cross several Python
frames per record - the dominant cost of every core benchmark.  A
:class:`KVBatch` is the columnar alternative: one arena (the packed
page or chunk, untouched) plus ``array('Q')`` offset columns produced
by :meth:`~repro.core.records.KVLayout.scan`.  Fields are read as
``memoryview`` slices of the arena, so iterating a whole page
allocates no per-record objects until the caller explicitly asks for
``bytes``.

Kernels opt into whole-batch processing with the
:func:`batch_kernel` decorator.  The drivers only ever call batch
kernels: :class:`Dispatch` is the one adapter that runs a plain
per-record callback as one, so user code never has to change.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.records import KVLayout, take_bytes


def _numpy(column) -> np.ndarray:
    """An ``array('Q')`` offset column as an int64 numpy view (no
    copy; offsets are far below 2**63)."""
    return np.frombuffer(column, np.int64)


def batch_kernel(fn):
    """Mark a callable as accepting whole batches instead of records.

    A batch map kernel is called as ``fn(ctx, batch)`` per input chunk
    or :class:`KVBatch`; a batch reduce kernel as ``fn(ctx, groups)``
    per page of ``(key, values)`` groups; a batch partial-reduce
    kernel as ``fn(bucket, batch)``.
    """
    fn.is_batch_kernel = True
    return fn


def is_batch_kernel(fn) -> bool:
    return bool(getattr(fn, "is_batch_kernel", False))


def each_pair(fn):
    """``fn(ctx, key, value)`` (a map) run over every record of a
    :class:`KVBatch`."""

    def kernel(ctx, batch) -> None:
        for key, value in batch.pairs_bytes():
            fn(ctx, key, value)
    return kernel


def each_group(fn):
    """``fn(ctx, key, values)`` (a reduce) run over every group of a
    page of ``(key, values)`` groups."""

    def kernel(ctx, groups) -> None:
        for key, values in groups:
            fn(ctx, key, values)
    return kernel


def each_fold(fn):
    """``fn(key, a, b)`` (a partial-reduce fold) folding every record
    of a :class:`KVBatch` into a bucket, in record order."""

    def kernel(bucket, batch) -> None:
        get, put = bucket.get, bucket.set
        for key, value in batch.pairs_bytes():
            old = get(key)
            put(key, value if old is None else fn(key, old, value))
    return kernel


class Dispatch:
    """A user callback as the drivers call it: one batch at a time.

    A kernel marked with :func:`batch_kernel` is called once per batch;
    a plain callback is run by ``per_record(fn)`` (:func:`each_pair`,
    :func:`each_group` or :func:`each_fold`), which calls it once per
    record or group.  ``calls`` counts the framework ops: one per
    record or group handed to a plain callback (a fold inserts the
    first record of a key without calling ``fn``, yet that is still one
    dispatch), one per batch for a marked kernel.
    ``batch_records``/``batch_pages`` count what went through a marked
    kernel (the ``core.batch.*`` metrics).
    """

    __slots__ = ("_run", "_batched", "calls", "batch_records",
                 "batch_pages")

    def __init__(self, fn, per_record):
        self._batched = is_batch_kernel(fn)
        self._run = fn if self._batched else per_record(fn)
        self.calls = 0
        self.batch_records = 0
        self.batch_pages = 0

    def __call__(self, ctx, batch) -> None:
        self._run(ctx, batch)
        if self._batched:
            self.calls += 1
            self.batch_records += len(batch)
            self.batch_pages += 1
        else:
            self.calls += len(batch)


class KVBatch:
    """One packed run of KV records plus its offset columns.

    A batch is a *view*: it borrows the underlying buffer (typically a
    live container page), so it is only valid until the producing
    iterator advances.  ``arena`` covers exactly the scanned records.
    """

    __slots__ = ("arena", "roff", "koff", "kend", "voff", "vend")

    def __init__(self, buf, layout: KVLayout, end: int | None = None):
        roff, koff, kend, voff, vend = layout.scan(buf, end)
        self.arena = memoryview(buf)[: roff[-1]]
        self.roff = roff
        self.koff = koff
        self.kend = kend
        self.voff = voff
        self.vend = vend

    def __len__(self) -> int:
        return len(self.koff)

    @property
    def nbytes(self) -> int:
        """Encoded bytes covered by this batch (headers included)."""
        return self.roff[-1] if len(self.roff) else 0

    @property
    def payload_bytes(self) -> int:
        """Key plus value bytes, headers excluded - what the
        per-record paths charge compute for, kept chargeable here
        without touching any record."""
        koff, kend, voff, vend = map(_numpy, (self.koff, self.kend,
                                               self.voff, self.vend))
        return int(kend.sum() - koff.sum() + vend.sum() - voff.sum())

    def key_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, lengths)`` of the keys, as int64 numpy arrays."""
        koff = _numpy(self.koff)
        return koff, _numpy(self.kend) - koff

    def value_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, lengths)`` of the values, as int64 numpy arrays."""
        voff = _numpy(self.voff)
        return voff, _numpy(self.vend) - voff

    # ------------------------------------------------------- zero-copy

    def keys(self) -> Iterator[memoryview]:
        """Key fields as arena slices (no per-record allocation)."""
        arena = self.arena
        for start, stop in zip(self.koff, self.kend):
            yield arena[start:stop]

    def record(self, i: int) -> memoryview:
        """The complete encoded record ``i`` (headers included)."""
        return self.arena[self.roff[i] : self.roff[i + 1]]

    # ----------------------------------------------- materialised views

    def key_bytes(self, i: int) -> bytes:
        return bytes(self.arena[self.koff[i] : self.kend[i]])

    def value_bytes(self, i: int) -> bytes:
        return bytes(self.arena[self.voff[i] : self.vend[i]])

    def keys_bytes(self) -> list[bytes]:
        """Keys as ``bytes`` (hashable/orderable), in record order,
        built without a Python frame per key."""
        return take_bytes(np.frombuffer(self.arena, np.uint8),
                          *self.key_spans())

    def values_bytes(self) -> list[bytes]:
        """Values as ``bytes``, in record order (see :meth:`keys_bytes`)."""
        return take_bytes(np.frombuffer(self.arena, np.uint8),
                          *self.value_spans())

    def pairs_bytes(self) -> Iterator[tuple[bytes, bytes]]:
        """``(key, value)`` as ``bytes``: the compatibility iterator.

        Yields exactly what :meth:`KVLayout.iter_records` would for the
        same buffer, but from precomputed offsets in a single frame.
        """
        arena = self.arena
        for ks, ke, vs, ve in zip(self.koff, self.kend,
                                  self.voff, self.vend):
            yield bytes(arena[ks:ke]), bytes(arena[vs:ve])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KVBatch(nrecords={len(self)}, nbytes={self.nbytes})"
