"""The KMV container (KMVC): grouped ``<key, [values...]>`` records.

Functionally identical to the KVC but for merged records.  Supports the
two-pass conversion algorithm of the paper: pass one *reserves* an
exactly sized slot per unique key (sizes gathered in a hash bucket),
pass two *fills* values into their slots as the source KVC is consumed.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator

import numpy as np

from repro.core.batch import KVBatch
from repro.core.records import (
    CSTRING,
    VARIABLE,
    KVLayout,
    _field_stepper,
    _u32_at,
    gather,
    take_bytes,
)
from repro.memory.pages import Page, PagePool
from repro.memory.tracker import MemoryTracker

_U32 = struct.Struct("<I")


def encode_kmv_record(layout: KVLayout, key: bytes,
                      values: list[bytes]) -> bytes:
    """Encode one complete KMV record (used by the MR-MPI baseline).

    Layout: key field (per ``layout.key_len``), u32 value count, then
    each value (per ``layout.val_len``).
    """
    parts = []
    if layout.key_len is VARIABLE:
        parts.append(_U32.pack(len(key)))
    parts.append(key)
    if layout.key_len == CSTRING:
        parts.append(b"\0")
    parts.append(_U32.pack(len(values)))
    for value in values:
        if layout.val_len is VARIABLE:
            parts.append(_U32.pack(len(value)))
        parts.append(value)
        if layout.val_len == CSTRING:
            parts.append(b"\0")
    return b"".join(parts)


def iter_kmv_buffer(layout: KVLayout,
                    buf: bytes) -> Iterator[tuple[bytes, list[bytes]]]:
    """Decode a packed run of KMV records."""
    yield from decode_kmv_groups(layout, buf)


#: Values located and materialised per numpy step of the KMV decode.
VALUE_BLOCK = 4096


class _NotUniform(Exception):
    """A record's values are not all as long as its first one."""


def decode_kmv_groups(layout: KVLayout, buf,
                      end: int | None = None,
                      ) -> list[tuple[bytes, list[bytes]]]:
    """Decode ``buf[:end]``, a packed run of KMV records, into
    ``(key, values)`` groups.

    A Python loop walks the records only; the values are located and
    materialised in numpy, :data:`VALUE_BLOCK` values per step.
    Variable-length values are first assumed to share their record's
    first length, which a vectorised check of every length header
    confirms; a run where that fails is walked value by value instead.
    """
    if end is None:
        end = len(buf)
    data = np.frombuffer(buf, np.uint8, count=end)
    try:
        keys, counts, values = _kmv_decode(layout, buf, data, exact=False)
    except (_NotUniform, ValueError, struct.error):
        # Only the optimistic walk over variable-length values can be
        # wrong about the layout; the exact walk raises real faults.
        if layout.val_len is not VARIABLE:
            raise
        keys, counts, values = _kmv_decode(layout, buf, data, exact=True)
    bounds = list(accumulate(counts, initial=0))
    return list(zip(keys, map(values.__getitem__,
                              map(slice, bounds, bounds[1:]))))


def _kmv_decode(layout: KVLayout, buf, data, exact: bool):
    """``(keys, counts, values)`` of a KMV run.  Stepping through the
    values in blocks bounds the numpy temporaries, which would
    otherwise grow with a hot key's jumbo record."""
    keys, counts, locate = _kmv_columns(layout, buf, data, exact)
    total = sum(counts)
    values: list[bytes] = []
    for lo in range(0, total, VALUE_BLOCK):
        values += take_bytes(data, *locate(lo, min(total, lo + VALUE_BLOCK)))
    return keys, counts, values


def _kmv_columns(layout: KVLayout, buf, data, exact: bool):
    """``(keys, counts, locate)`` of a KMV run: keys as ``bytes``,
    counts as a list, and ``locate(lo, hi)`` giving the numpy
    ``(starts, lengths)`` of values ``lo..hi`` (in record order)."""
    end = len(data)
    kl, vl = layout.key_len, layout.val_len
    # NUL-terminated values end at consecutive NULs after their count.
    nuls = np.flatnonzero(data == 0).tolist() if vl == CSTRING else None
    step_key = _field_stepper(kl, buf, end)
    key_hdr = 4 if kl is VARIABLE else 0
    key_nul = 1 if kl == CSTRING else 0
    unpack = _U32.unpack_from
    key_starts: list[int] = []
    key_stops: list[int] = []
    counts: list[int] = []
    firsts: list[int] = []   # offset of each record's first value field
    widths: list[int] = []   # per record: fixed stride or first NUL index
    starts: list[int] = []   # exact walk only: every value's offset
    lengths: list[int] = []
    pos = 0
    while pos < end:
        stop = step_key(pos)
        key_starts.append(pos + key_hdr)
        key_stops.append(stop - key_nul)
        (nvalues,) = unpack(buf, stop)
        pos = stop + 4
        counts.append(nvalues)
        firsts.append(pos)
        if vl == CSTRING:
            i = bisect_left(nuls, pos)
            if i + nvalues > len(nuls):
                at = nuls[-1] + 1 if i < len(nuls) else pos
                raise ValueError(f"unterminated NUL string at offset {at}")
            widths.append(i)
            if nvalues:
                pos = nuls[i + nvalues - 1] + 1
        elif vl is not VARIABLE:
            widths.append(vl)
            pos += nvalues * vl
            if pos > end:
                at = firsts[-1] + (end - firsts[-1]) // vl * vl
                raise ValueError(f"truncated fixed field at offset {at}")
        elif exact:
            for _ in range(nvalues):
                if pos + 4 > end:
                    raise ValueError(
                        f"truncated length header at offset {pos}")
                (n,) = unpack(buf, pos)
                if pos + 4 + n > end:
                    raise ValueError(f"truncated field at offset {pos}")
                starts.append(pos + 4)
                lengths.append(n)
                pos += 4 + n
        elif nvalues:
            if pos + 4 > end:
                raise _NotUniform
            width = 4 + unpack(buf, pos)[0]
            widths.append(width)
            pos += nvalues * width
            if pos > end:
                raise _NotUniform
        else:
            widths.append(4)
    key_at = np.array(key_starts, np.int64)
    keys = take_bytes(data, key_at, np.array(key_stops, np.int64) - key_at)
    if vl is VARIABLE and exact:
        starts_a = np.array(starts, np.int64)
        lengths_a = np.array(lengths, np.int64)
        return (keys, counts,
                lambda lo, hi: (starts_a[lo:hi], lengths_a[lo:hi]))
    counts_a = np.array(counts, np.int64)
    record_end = np.cumsum(counts_a)   # one past each record's values
    firsts_a = np.array(firsts, np.int64)
    widths_a = np.array(widths, np.int64)
    nul_at = np.array(nuls, np.int64) if vl == CSTRING else None

    def locate(lo: int, hi: int):
        """``(starts, lengths)`` of values ``lo..hi`` of the run."""
        value = np.arange(lo, hi)
        record = np.searchsorted(record_end, value, "right")
        index = value - (record_end[record] - counts_a[record])
        first = firsts_a[record]
        width = widths_a[record]
        if vl == CSTRING:
            stops = nul_at[width + index]
            begins = np.where(index == 0, first,
                              nul_at[width + index - 1] + 1)
            return begins, stops - begins
        offsets = first + width * index
        if vl is not VARIABLE:
            return offsets, width
        length = width - 4
        if not np.array_equal(_u32_at(data, offsets), length):
            raise _NotUniform
        return offsets + 4, length

    return keys, counts, locate


@dataclass
class _Slot:
    """Fill cursor for one reserved KMV record."""

    page: Page
    cursor: int
    remaining: int


class KMVContainer:
    """Key-multivalue records in pool pages, built by reserve/fill."""

    def __init__(self, tracker: MemoryTracker, layout: KVLayout | None = None,
                 page_size: int = 64 * 1024, tag: str = "kmvc"):
        self.layout = layout or KVLayout()
        self.pool = PagePool(tracker, page_size, tag=tag)
        self.pages: list[Page] = []
        #: Charged capacity per page: page_size for pool pages, a
        #: multiple of it for jumbo pages holding one oversized KMV.
        self._charges: dict[int, int] = {}
        self.nrecords = 0
        self.nbytes = 0
        self.tag = tag
        self._slots: list[_Slot] = []

    # ------------------------------------------------------------- sizing

    def _value_extra(self) -> int:
        """Per-value encoding overhead beyond the raw bytes."""
        if self.layout.val_len is VARIABLE:
            return 4
        if self.layout.val_len == CSTRING:
            return 1
        return 0

    def record_size(self, key: bytes, nvalues: int,
                    total_value_bytes: int) -> int:
        """Exact encoded size of a KMV record."""
        key_part = self.layout.field_size(self.layout.key_len, key)
        return key_part + 4 + total_value_bytes + nvalues * self._value_extra()

    # ------------------------------------------------------------ reserve

    def reserve(self, key: bytes, nvalues: int,
                total_value_bytes: int) -> int:
        """Reserve a slot for one unique key; returns the slot id.

        The key and the value count are written immediately; values are
        filled later with :meth:`append_value` in any interleaving.
        """
        if nvalues <= 0:
            raise ValueError(f"nvalues must be positive, got {nvalues}")
        size = self.record_size(key, nvalues, total_value_bytes)
        if size > self.pool.page_size:
            # A single KMV larger than one page (heavy skew: one very
            # frequent key).  Allocate a dedicated "jumbo" buffer in
            # whole page units - buffers are always fixed-size multiples
            # to stay fragmentation-safe.
            unit = self.pool.page_size
            charged = ((size + unit - 1) // unit) * unit
            self.pool.tracker.allocate(charged, self.tag)
            page = Page(charged, self.tag)
            self.pages.append(page)
            self._charges[id(page)] = charged
        elif not self.pages or self.pages[-1].remaining < size:
            self.pages.append(self.pool.acquire())
        page = self.pages[-1]
        cursor = page.used
        page.used += size  # pre-claim the whole record

        # Write the key part and the value count header.
        if self.layout.key_len is VARIABLE:
            page.data[cursor : cursor + 4] = _U32.pack(len(key))
            cursor += 4
        page.data[cursor : cursor + len(key)] = key
        cursor += len(key)
        if self.layout.key_len == CSTRING:
            page.data[cursor] = 0
            cursor += 1
        page.data[cursor : cursor + 4] = _U32.pack(nvalues)
        cursor += 4

        self._slots.append(_Slot(page, cursor, nvalues))
        self.nrecords += 1
        self.nbytes += size
        return len(self._slots) - 1

    def append_value(self, slot_id: int, value: bytes) -> None:
        """Fill the next value of a reserved record."""
        slot = self._slots[slot_id]
        if slot.remaining <= 0:
            raise ValueError(f"slot {slot_id} already holds all its values")
        page, cursor = slot.page, slot.cursor
        hint = self.layout.val_len
        if hint is VARIABLE:
            page.data[cursor : cursor + 4] = _U32.pack(len(value))
            cursor += 4
        elif hint == CSTRING:
            if b"\0" in value:
                raise ValueError("NUL byte in NUL-terminated value")
        elif len(value) != hint:
            raise ValueError(
                f"value is {len(value)} bytes, layout fixes {hint}")
        page.data[cursor : cursor + len(value)] = value
        cursor += len(value)
        if hint == CSTRING:
            page.data[cursor] = 0
            cursor += 1
        slot.cursor = cursor
        slot.remaining -= 1

    def fill_batch(self, batch: KVBatch, slot_ids) -> None:
        """Fill every value of a :class:`KVBatch` into its slot:
        record ``i``'s value goes to slot ``slot_ids[i]`` (numpy).

        Equivalent to :meth:`append_value` record by record, but the
        values are stable-sorted by slot, encoded with one numpy gather
        and written with one slice per (slot, batch) group.  The batch
        must have been scanned with this container's layout, whose
        scan already guarantees every value is well formed.
        """
        count = len(batch)
        if not count:
            return
        order = np.argsort(slot_ids, kind="stable")
        ranked = slot_ids[order]
        voff, vlen = batch.value_spans()
        starts, lengths = voff[order], vlen[order]
        hint = self.layout.val_len
        if hint == CSTRING:
            lengths = lengths + 1      # the value's NUL comes with it
        elif hint is VARIABLE and self.layout.key_len is VARIABLE:
            # The value length sits in the record's 8-byte header, just
            # before the key: gather it, then the value.
            header = batch.key_spans()[0][order] - 4
            starts = np.stack((header, starts), 1).ravel()
            lengths = np.stack((np.full(count, 4), lengths), 1).ravel()
        elif hint is VARIABLE:
            starts = starts - 4        # u32 length right before the value
            lengths = lengths + 4
        encoded = gather(np.frombuffer(batch.arena, np.uint8), starts,
                         lengths)
        # Byte offset of each record in ``encoded``, then the record
        # and byte bounds of each (slot, batch) group.
        offsets = np.zeros(count + 1, np.int64)
        np.cumsum(lengths.reshape(count, -1).sum(1), out=offsets[1:])
        cuts = np.flatnonzero(ranked[1:] != ranked[:-1]) + 1
        firsts = np.concatenate(([0], cuts))
        lasts = np.concatenate((cuts, [count]))
        view = memoryview(encoded)
        slots = self._slots
        for slot_id, lo, hi, nvalues in zip(ranked[firsts].tolist(),
                                            offsets[firsts].tolist(),
                                            offsets[lasts].tolist(),
                                            (lasts - firsts).tolist()):
            slot = slots[slot_id]
            if slot.remaining < nvalues:
                raise ValueError(
                    f"slot {slot_id} already holds all its values")
            cursor = slot.cursor
            slot.page.data[cursor : cursor + hi - lo] = view[lo:hi]
            slot.cursor = cursor + hi - lo
            slot.remaining -= nvalues

    def finish_fill(self) -> None:
        """Assert every reserved slot was completely filled."""
        unfilled = sum(1 for s in self._slots if s.remaining)
        if unfilled:
            raise ValueError(f"{unfilled} KMV slot(s) not completely filled")
        self._slots.clear()

    # ------------------------------------------------------------ iterate
    #
    # Every iterator is a flattening of the page-at-a-time decode, so
    # pages are decoded by one path and released at the same points.

    def batches(self) -> Iterator[list[tuple[bytes, list[bytes]]]]:
        """Non-destructive iteration, one group-list per page."""
        for page in self.pages:
            yield decode_kmv_groups(self.layout, page.data, page.used)

    def records(self) -> Iterator[tuple[bytes, list[bytes]]]:
        """Non-destructive iteration over ``(key, values)``."""
        for groups in self.batches():
            yield from groups

    def consume_batches(self) -> Iterator[list[tuple[bytes, list[bytes]]]]:
        """Destructive iteration, one group-list per page; each page is
        released once the consumer moves past its groups."""
        while self.pages:
            page = self.pages.pop(0)
            try:
                yield decode_kmv_groups(self.layout, page.data, page.used)
            finally:
                self._release_page(page)
        self.nrecords = 0
        self.nbytes = 0

    def consume(self) -> Iterator[tuple[bytes, list[bytes]]]:
        """Destructive iteration freeing pages as they are read."""
        for groups in self.consume_batches():
            yield from groups

    # ------------------------------------------------------------- manage

    def _release_page(self, page: Page) -> None:
        charged = self._charges.pop(id(page), None)
        if charged is None:
            self.pool.release(page)
        else:
            self.pool.tracker.free(charged, self.tag)

    def free(self) -> None:
        while self.pages:
            self._release_page(self.pages.pop())
        self.nrecords = 0
        self.nbytes = 0
        self._slots.clear()

    @property
    def memory_bytes(self) -> int:
        jumbo = sum(self._charges.values())
        normal = (len(self.pages) - len(self._charges)) * self.pool.page_size
        return normal + jumbo

    @property
    def npages(self) -> int:
        return len(self.pages)

    def __len__(self) -> int:
        return self.nrecords
