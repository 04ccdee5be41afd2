"""Interleaved map + aggregate: Mimir's implicit shuffle.

The send buffer is one statically allocated block divided into ``p``
equal partitions, one per destination rank.  The user-defined map
callback inserts KVs *directly* into the partition chosen by hashing
the key - there is no staging copy (paper Section III-B).  When a
partition fills, the map phase is suspended and all ranks run one
``MPI_Alltoallv`` round; received records flow into the output KVC and
the map resumes.  Because each sender contributes at most one partition
(``comm_buffer_size / p`` bytes) per destination per round, the total
received per round can never exceed one send buffer - so the receive
buffer is the same size as the send buffer, never larger (the paper's
"unexpected side benefit").

Termination: ranks that exhaust their input keep participating in
exchange rounds with empty partitions; after every round an allreduce
of done-flags decides whether the aggregate phase is over.
"""

from __future__ import annotations

import zlib
from itertools import chain, repeat
from operator import itemgetter
from typing import Callable

import numpy as np

from repro.cluster import RankEnv
from repro.core.batch import KVBatch
from repro.core.codec import get_codec, note_encode
from repro.core.config import MimirConfig
from repro.core.errors import RecordTooLargeError
from repro.core.kvcontainer import KVContainer
from repro.core.records import _U32, _U32x2, CSTRING, VARIABLE, KVLayout


def default_partitioner(key: bytes, nprocs: int) -> int:
    """Stable key-to-rank hash (crc32: deterministic across processes)."""
    return zlib.crc32(key) % nprocs


#: Records per numpy step of the bulk emits: large enough to amortise
#: the per-step calls, small enough that the per-record columns stay a
#: few pages in size.
EMIT_BLOCK = 2048


def _field_sizes(hint, lengths):
    """Encoded bytes of each field of the given lengths under ``hint``."""
    if hint is VARIABLE:
        return lengths + 4
    if hint == CSTRING:
        return lengths + 1
    return np.full(len(lengths), hint, np.int64)


def _first(mask) -> int:
    """Index of the first true entry of ``mask``, or its length."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if len(hits) else len(mask)


def _first_invalid(hint, fields, lengths) -> int:
    """Index of the first field the layout would refuse to encode (a
    NUL inside a NUL-terminated field, a wrong fixed length), or the
    field count."""
    if hint is VARIABLE:
        return len(fields)
    if hint == CSTRING:
        at = b"".join(fields).find(b"\0")
        if at < 0:
            return len(fields)
        return int(np.searchsorted(np.cumsum(lengths), at, "right"))
    return _first(lengths != hint)


class Shuffler:
    """One map/aggregate phase's communication state for one rank."""

    def __init__(self, env: RankEnv, config: MimirConfig,
                 out_kvc: KVContainer,
                 partitioner: Callable[[bytes, int], int] | None = None,
                 trace=None):
        self.env = env
        self.config = config
        self.out_kvc = out_kvc
        self.trace = trace
        self.layout: KVLayout = out_kvc.layout
        self.partitioner = partitioner or default_partitioner
        self.nprocs = env.comm.size
        self.part_size = config.partition_size(self.nprocs)

        # Statically allocated, equally sized send and receive buffers.
        env.tracker.allocate(config.comm_buffer_size, "send_buffer")
        env.tracker.allocate(config.comm_buffer_size, "recv_buffer")
        self._send = bytearray(config.comm_buffer_size)
        self._fill = [0] * self.nprocs  # bytes used per partition
        self.codec = get_codec(config.codec, self.layout)
        self.rounds = 0
        self.records_sent = 0
        self.bytes_sent = 0
        #: Framework dispatches performed (one per emit call, whether
        #: that call carried one record or a whole batch); charged by
        #: the driver through :meth:`RankEnv.charge_ops`.
        self.ops = 0
        #: Records and calls that arrived through the batch emits.
        self.batch_records = 0
        self.batch_calls = 0
        self._closed = False

    # -------------------------------------------------------------- emit

    def emit(self, key: bytes, value: bytes) -> None:
        """Insert one KV directly into its destination partition.

        Zero staging copy: the record is encoded in place inside the
        send-buffer partition (paper Section III-B).
        """
        n = self.layout.encoded_size(key, value)
        dest = self.partitioner(key, self.nprocs)
        if n > self.part_size:
            raise RecordTooLargeError(n, self.part_size,
                                      "send-buffer partition")
        if self._fill[dest] + n > self.part_size:
            self.exchange(done=False)
        base = dest * self.part_size + self._fill[dest]
        self.layout.encode_into(self._send, base, key, value)
        self._fill[dest] += n
        self.records_sent += 1
        self.bytes_sent += n
        self.ops += 1

    # -------------------------------------------------------- batch emits
    #
    # One framework dispatch (one ``ops``) per *call* instead of per
    # record.  Partition fills, exchange trigger points, and the
    # resulting byte streams are identical to repeated single emits.

    def emit_run(self, keys, value: bytes) -> int:
        """Emit ``(key, value)`` for every key of a batch, same value;
        returns the number of records taken."""
        keys = keys if isinstance(keys, list) else list(keys)
        return self._note_batch(self._emit_columns(keys, None, value))

    def emit_pairs(self, pairs, *, taken=None) -> int:
        """Emit ``(key, value)`` pairs in one framework dispatch;
        returns the number of records taken.

        ``taken(n)``, if given, is called with the number of pairs
        consumed so far just before each mid-run exchange (and before
        a failing record raises), which is where a lazy iterator would
        have been advanced to: a caller draining a memory-accounted
        source releases it there, keeping its tracker timeline that of
        a record-at-a-time drain.
        """
        pairs = pairs if isinstance(pairs, list) else list(pairs)
        keys = list(map(itemgetter(0), pairs))
        values = list(map(itemgetter(1), pairs))
        return self._note_batch(self._emit_columns(keys, values, None,
                                                   taken))

    def _note_batch(self, count: int) -> int:
        self.records_sent += count
        self.ops += 1
        self.batch_records += count
        self.batch_calls += 1
        return count

    def _emit_columns(self, keys: list, values: list | None,
                      value: bytes | None, taken=None) -> int:
        """Bulk insert of a run, :data:`EMIT_BLOCK` records at a time so
        the per-record columns stay small; returns the record count."""
        n = len(keys)
        nbytes = 0
        for lo in range(0, n, EMIT_BLOCK):
            hi = min(n, lo + EMIT_BLOCK)
            nbytes += self._emit_block(
                keys[lo:hi], None if values is None else values[lo:hi],
                value, None if taken is None else
                (lambda k, lo=lo: taken(lo + k)))
        # Counted once the whole run is in, as a record-at-a-time loop
        # over the run would.
        self.bytes_sent += nbytes
        return n

    def _emit_block(self, keys: list, values: list | None,
                    value: bytes | None, taken) -> int:
        """Bulk insert of ``keys[i]`` with ``values[i]`` (or the one
        ``value``); returns the bytes written.

        Lengths, destinations and record sizes are computed for the
        whole block at once.  Each stretch of records that fits before
        the next exchange is found with integer arithmetic on per-
        destination running sizes, and each destination's share of it
        is encoded with one ``b"".join``.  The first record that is too
        large or invalid for the layout goes through :meth:`emit` after
        the records before it, so it raises exactly where a
        record-at-a-time loop would (and before any counter moves).
        """
        n = len(keys)
        layout = self.layout
        klens = np.fromiter(map(len, keys), np.int64, n)
        sizes = _field_sizes(layout.key_len, klens)
        if values is None:
            vlens = None
            sizes += layout.field_size(layout.val_len, value)
            value_bad = n if _first_invalid(layout.val_len, [value],
                                            np.array([len(value)])) else 0
        else:
            vlens = np.fromiter(map(len, values), np.int64, n)
            sizes += _field_sizes(layout.val_len, vlens)
            value_bad = _first_invalid(layout.val_len, values, vlens)
        bad = min(_first(sizes > self.part_size),
                  _first_invalid(layout.key_len, keys, klens), value_bad)
        nprocs = self.nprocs
        head = keys[:bad] if bad < n else keys
        if self.partitioner is default_partitioner:
            dests = np.fromiter(map(zlib.crc32, head), np.int64, bad)
            dests %= nprocs
            placed = bad
        else:
            dests = np.fromiter(
                map(self.partitioner, head, repeat(nprocs, bad)),
                np.int64, bad)
            placed = _first((dests < 0) | (dests >= nprocs))
        nbytes = self._place(keys, values, value, klens, vlens, sizes,
                             dests[:placed], taken)
        if placed < n:
            if taken is not None:
                taken(placed + 1)
            if placed < bad:
                raise ValueError(
                    f"partitioner sent key {keys[placed]!r} to rank "
                    f"{dests[placed]}, outside 0..{nprocs - 1}")
            self.emit(keys[bad], value if values is None else values[bad])
        return nbytes

    def _place(self, keys, values, value, klens, vlens, sizes, dests,
               taken) -> int:
        """Write the first ``len(dests)`` records into their partitions,
        running an exchange wherever the record-at-a-time path would;
        returns the bytes written."""
        count = len(dests)
        if not count:
            return 0
        nprocs = self.nprocs
        part_size = self.part_size
        fill = self._fill
        send = self._send
        order = np.argsort(dests, kind="stable")
        bounds = np.searchsorted(dests[order], np.arange(nprocs + 1))
        # Per destination: its records' run positions and running byte
        # totals (with a leading 0), in run order.
        positions = [order[bounds[d] : bounds[d + 1]] for d in range(nprocs)]
        running = []
        for pos in positions:
            cum = np.zeros(len(pos) + 1, np.int64)
            np.cumsum(sizes[pos], out=cum[1:])
            running.append(cum)
        done = [0] * nprocs   # records of each destination placed
        while True:
            # The first record that no longer fits its partition ends
            # the stretch; every destination's records before it fit.
            stop = count
            for d in range(nprocs):
                cum = running[d]
                k = int(np.searchsorted(
                    cum, cum[done[d]] + part_size - fill[d], "right")) - 1
                if k < len(positions[d]):
                    stop = min(stop, int(positions[d][k]))
            for d in range(nprocs):
                j = done[d]
                k = int(np.searchsorted(positions[d], stop))
                if k == j:
                    continue
                blob = self._encode_run(positions[d][j:k], keys, values,
                                        value, klens, vlens)
                base = d * part_size + fill[d]
                send[base : base + len(blob)] = blob
                fill[d] += len(blob)
                done[d] = k
            if stop == count:
                return int(sizes[:count].sum())
            if taken is not None:
                taken(stop + 1)
            self.exchange(done=False)

    def _encode_run(self, pos, keys, values, value, klens, vlens) -> bytes:
        """The records at run positions ``pos``, encoded back to back:
        one column per piece (headers, key, NUL, value, NUL) built at C
        speed, interleaved by ``zip`` and joined once."""
        layout = self.layout
        kl, vl = layout.key_len, layout.val_len
        idx = pos.tolist()
        nrec = len(idx)
        if values is None:
            value_col = repeat(value, nrec)
            vlen_col = repeat(len(value), nrec)
        else:
            value_col = map(values.__getitem__, idx)
            vlen_col = vlens[pos].tolist()
        columns = []
        if kl is VARIABLE and vl is VARIABLE:
            columns.append(map(_U32x2.pack, klens[pos].tolist(), vlen_col))
        elif kl is VARIABLE:
            columns.append(map(_U32.pack, klens[pos].tolist()))
        columns.append(map(keys.__getitem__, idx))
        if kl == CSTRING:
            columns.append(repeat(b"\0", nrec))
        if vl is VARIABLE and kl is not VARIABLE:
            columns.append(map(_U32.pack, vlen_col))
        columns.append(value_col)
        if vl == CSTRING:
            columns.append(repeat(b"\0", nrec))
        return b"".join(chain.from_iterable(zip(*columns)))

    def emit_batch(self, batch: KVBatch, dests=None) -> None:
        """Route every record of a :class:`KVBatch` in one dispatch.

        Records are copied as arena slices straight into their
        partitions - no per-record encode, no per-record bytes objects.
        ``dests(batch)``, if given, yields each record's destination
        rank in record order; by default the partitioner places each
        key slice (the default crc32 partitioner hashes it in place).
        """
        if dests is None:
            ranks = map(self.partitioner, batch.keys(), repeat(self.nprocs))
        else:
            ranks = dests(batch)
        arena = batch.arena
        roff = batch.roff
        part_size = self.part_size
        fill = self._fill
        for i, dest in enumerate(ranks):
            start, stop = roff[i], roff[i + 1]
            n = stop - start
            if n > part_size:
                raise RecordTooLargeError(n, part_size,
                                          "send-buffer partition")
            if fill[dest] + n > part_size:
                # Partition full: suspend map, run one aggregate round.
                self.exchange(done=False)
            base = dest * part_size + fill[dest]
            self._send[base : base + n] = arena[start:stop]
            fill[dest] += n
            self.records_sent += 1
            self.bytes_sent += n
        self.ops += 1
        self.batch_records += len(batch)
        self.batch_calls += 1

    # ---------------------------------------------------------- exchange

    def exchange(self, done: bool) -> bool:
        """One aggregate round; returns True when all ranks are done."""
        sends = []
        total = 0
        send_view = memoryview(self._send)
        for dest in range(self.nprocs):
            base = dest * self.part_size
            # Zero-copy: each part is a view over the live send buffer.
            # The collective engine materialises it inside the enter
            # barrier, so no joined per-rank byte string is built here.
            part = send_view[base : base + self._fill[dest]]
            total += self._fill[dest]
            if self.codec is not None and self._fill[dest]:
                frame = self.codec.encode_frame(bytes(part))
                note_encode(self.env.metrics, self._fill[dest], len(frame))
                self.env.charge_compute(self._fill[dest])
                part = frame
            sends.append(part)
        received = self.env.comm.alltoallv(sends)
        # Clear in place: the batch emits hold a local alias to this
        # list across mid-batch exchanges, so rebinding would leave
        # them counting against stale fills.
        for dest in range(self.nprocs):
            self._fill[dest] = 0
        self.rounds += 1

        recv_total = 0
        for part in received:
            if part:
                if self.codec is not None:
                    part = self.codec.decode_frame(part)
                    self.env.charge_compute(len(part))
                self.out_kvc.extend_encoded(part)
                recv_total += len(part)
        # Copying out of the send buffer and into the KVC is local work.
        self.env.charge_compute(total + recv_total)
        if self.trace is not None:
            self.trace.emit(self.env, "exchange",
                            f"round {self.rounds}",
                            sent=total, received=recv_total, done=done)
        return self.env.comm.all_true(done)

    def finish(self) -> None:
        """Input exhausted: drain and keep joining rounds until all done."""
        while not self.exchange(done=True):
            pass
        self.close()

    def close(self) -> None:
        """Free the communication buffers."""
        if not self._closed:
            self.env.tracker.free(self.config.comm_buffer_size, "send_buffer")
            self.env.tracker.free(self.config.comm_buffer_size, "recv_buffer")
            self._send = bytearray(0)
            self._closed = True
