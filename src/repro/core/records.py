"""KV record encoding, including the paper's KV-hint layouts.

The general layout stores every key and value as a variable-length byte
sequence behind an 8-byte header (two little-endian u32 lengths).  The
KV-hint optimization (paper Section III-C3) lets the application declare
that the key and/or value length is constant for the whole job, or that
it is a NUL-terminated string (``CSTRING``, the paper's special value
-1): in both cases the corresponding 4-byte length header is omitted,
saving ~26 % of KV bytes for WordCount-like workloads.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np

#: Length hint: the field is variable-length and carries a u32 header.
VARIABLE = None
#: Length hint: the field is a NUL-terminated byte string (no header,
#: one trailing NUL byte).  The paper reserves -1 for this.
CSTRING = -1

_U32 = struct.Struct("<I")
_U32x2 = struct.Struct("<II")
_U64 = struct.Struct("<Q")


def pack_u64(value: int) -> bytes:
    """Encode an integer value the way the benchmarks store counts."""
    return _U64.pack(value)


def unpack_u64(data: bytes | memoryview) -> int:
    return _U64.unpack_from(data)[0]


def _column(values, shift: int = 0) -> array:
    """``values + shift`` (numpy) as an ``array('Q')`` offset column,
    written in place: Python-level consumers index it without
    numpy-scalar overhead, and no numpy temporary is made."""
    column = array("Q", (0,)) * len(values)
    np.add(values, shift, out=np.frombuffer(column, np.int64))
    return column


def _u32_at(data, offsets):
    """Little-endian u32s read at arbitrary byte ``offsets`` of a uint8
    array, one byte lane at a time (no alignment needed)."""
    value = data[offsets].astype(np.int64)
    for lane in (1, 2, 3):
        value |= data[offsets + lane].astype(np.int64) << (8 * lane)
    return value


#: Output bytes per numpy gather step in :func:`gather`: each step's
#: index arrays cost 8 bytes per byte moved, so this bounds them.
GATHER_BYTES = 8192


def gather(data, starts, lengths) -> np.ndarray:
    """``data[s:s + n]`` for every ``(s, n)`` of the numpy columns
    ``starts``/``lengths``, concatenated into one uint8 array."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    out = np.empty(total, np.uint8)
    shift = starts - (ends - lengths)   # source minus output offset
    cuts = np.searchsorted(
        ends, np.arange(GATHER_BYTES, total, GATHER_BYTES)).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(ends)]):
        if lo == hi:   # a slice longer than one step spans several cuts
            continue
        first = int(ends[lo] - lengths[lo])
        last = int(ends[hi - 1])
        index = np.repeat(shift[lo:hi], lengths[lo:hi])
        index += np.arange(first, last)
        out[first:last] = data[index]
    return out


def take_bytes(data, starts, lengths) -> list:
    """``[bytes(data[s:s + n]) for s, n in zip(starts, lengths)]`` for
    a uint8 array and numpy ``starts``/``lengths``, without a Python
    frame per slice: the slices are gathered ordered by length, and
    each run of one length becomes ``bytes`` objects through the
    ``tolist`` of a void view."""
    count = len(starts)
    if not count:
        return []
    order = np.argsort(lengths, kind="stable")
    ranked = lengths[order]
    flat = gather(data, starts[order], ranked)
    cuts = (np.flatnonzero(ranked[1:] != ranked[:-1]) + 1).tolist()
    pieces = []
    offset = 0
    for lo, hi in zip([0, *cuts], [*cuts, count]):
        length = int(ranked[lo])
        if length:
            block = flat[offset : offset + (hi - lo) * length]
            pieces.append(block.view(f"V{length}").tolist())
        else:
            pieces.append([b""] * (hi - lo))
        offset += (hi - lo) * length
    if not cuts:
        return pieces[0]
    out = np.empty(count, object)
    out[order] = list(chain.from_iterable(pieces))
    return out.tolist()


def _field_stepper(hint, buf, end: int):
    """``offset -> next_offset`` over one field of the given hint,
    raising the truncation errors of :meth:`KVLayout.decode`."""
    if hint is VARIABLE:
        unpack = _U32.unpack_from

        def step(offset: int) -> int:
            if offset + 4 > end:
                raise ValueError(f"truncated length header at offset {offset}")
            stop = offset + 4 + unpack(buf, offset)[0]
            if stop > end:
                raise ValueError(f"truncated field at offset {offset}")
            return stop
    elif hint == CSTRING:
        # ``find`` stops at the first NUL: a numpy pass would list every
        # NUL of the buffer, most of them inside the other field.
        find = (buf if hasattr(buf, "find") else bytes(buf)).find

        def step(offset: int) -> int:
            stop = find(b"\0", offset, end)
            if stop < 0:
                raise ValueError(
                    f"unterminated NUL string at offset {offset}")
            return stop + 1
    else:
        def step(offset: int) -> int:
            if offset + hint > end:
                raise ValueError(f"truncated fixed field at offset {offset}")
            return offset + hint
    return step


def _check_hint(hint: int | None, name: str) -> None:
    if hint is None or hint == CSTRING:
        return
    if not isinstance(hint, int) or isinstance(hint, bool) or hint <= 0:
        raise ValueError(
            f"{name} hint must be VARIABLE (None), CSTRING (-1), or a "
            f"positive length, got {hint!r}")


@dataclass(frozen=True)
class KVLayout:
    """Encoding rules for one KV stream.

    ``key_len`` / ``val_len``: ``VARIABLE`` (u32 header), ``CSTRING``
    (NUL-terminated, no header), or a positive fixed byte length (no
    header).
    """

    key_len: int | None = VARIABLE
    val_len: int | None = VARIABLE

    def __post_init__(self):
        _check_hint(self.key_len, "key_len")
        _check_hint(self.val_len, "val_len")

    # ------------------------------------------------------------- sizing

    @property
    def header_size(self) -> int:
        """Bytes of length headers per record under this layout."""
        return (4 if self.key_len is VARIABLE else 0) + \
               (4 if self.val_len is VARIABLE else 0)

    def field_size(self, hint: int | None, data: bytes) -> int:
        if hint is VARIABLE:
            return 4 + len(data)
        if hint == CSTRING:
            return len(data) + 1
        return hint

    def encoded_size(self, key: bytes, value: bytes) -> int:
        """Exact encoded byte count of one record."""
        return self.field_size(self.key_len, key) + \
            self.field_size(self.val_len, value)

    # ----------------------------------------------------------- encoding

    def _check_field(self, hint: int | None, data: bytes, name: str) -> None:
        if hint == CSTRING:
            if b"\0" in data:
                raise ValueError(
                    f"{name} contains a NUL byte but the layout declares "
                    f"it NUL-terminated")
        elif hint is not VARIABLE and len(data) != hint:
            raise ValueError(
                f"{name} is {len(data)} bytes but the layout fixes it at "
                f"{hint} bytes")

    def encode(self, key: bytes, value: bytes) -> bytes:
        """Encode one record."""
        self._check_field(self.key_len, key, "key")
        self._check_field(self.val_len, value, "value")
        klen_hdr = self.key_len is VARIABLE
        vlen_hdr = self.val_len is VARIABLE
        if klen_hdr and vlen_hdr:
            return _U32x2.pack(len(key), len(value)) + key + value
        parts = []
        if klen_hdr:
            parts.append(_U32.pack(len(key)))
        parts.append(key)
        if self.key_len == CSTRING:
            parts.append(b"\0")
        if vlen_hdr:
            parts.append(_U32.pack(len(value)))
        parts.append(value)
        if self.val_len == CSTRING:
            parts.append(b"\0")
        return b"".join(parts)

    def encode_into(self, buf: bytearray, offset: int, key: bytes,
                    value: bytes) -> int:
        """Encode one record directly at ``buf[offset:]``; returns the
        new offset.

        The zero-staging-copy path used by the shuffle: the map
        callback's record materialises straight inside the send-buffer
        partition, which is the design point the paper's Section III-B
        makes against MR-MPI's extra copies.  The caller guarantees
        capacity (``encoded_size`` bytes).
        """
        self._check_field(self.key_len, key, "key")
        self._check_field(self.val_len, value, "value")
        if self.key_len is VARIABLE and self.val_len is VARIABLE:
            _U32x2.pack_into(buf, offset, len(key), len(value))
            offset += 8
            buf[offset : offset + len(key)] = key
            offset += len(key)
            buf[offset : offset + len(value)] = value
            return offset + len(value)
        if self.key_len is VARIABLE:
            _U32.pack_into(buf, offset, len(key))
            offset += 4
        buf[offset : offset + len(key)] = key
        offset += len(key)
        if self.key_len == CSTRING:
            buf[offset] = 0
            offset += 1
        if self.val_len is VARIABLE:
            _U32.pack_into(buf, offset, len(value))
            offset += 4
        buf[offset : offset + len(value)] = value
        offset += len(value)
        if self.val_len == CSTRING:
            buf[offset] = 0
            offset += 1
        return offset

    # ----------------------------------------------------------- decoding

    def _decode_field(self, hint: int | None, buf: bytes,
                      offset: int) -> tuple[bytes, int]:
        if hint is VARIABLE:
            if offset + 4 > len(buf):
                raise ValueError(f"truncated length header at offset {offset}")
            (n,) = _U32.unpack_from(buf, offset)
            start = offset + 4
            if start + n > len(buf):
                raise ValueError(f"truncated field at offset {offset}")
            return bytes(buf[start : start + n]), start + n
        if hint == CSTRING:
            end = buf.find(b"\0", offset)
            if end < 0:
                raise ValueError(
                    f"unterminated NUL string at offset {offset}")
            return bytes(buf[offset:end]), end + 1
        if offset + hint > len(buf):
            raise ValueError(f"truncated fixed field at offset {offset}")
        return bytes(buf[offset : offset + hint]), offset + hint

    def decode(self, buf: bytes, offset: int = 0) -> tuple[bytes, bytes, int]:
        """Decode one record; returns ``(key, value, next_offset)``."""
        if self.key_len is VARIABLE and self.val_len is VARIABLE:
            # The paper's layout: one 8-byte header (both lengths)
            # before the actual data.
            if offset + 8 > len(buf):
                raise ValueError(f"truncated record header at offset {offset}")
            klen, vlen = _U32x2.unpack_from(buf, offset)
            start = offset + 8
            end = start + klen + vlen
            if end > len(buf):
                raise ValueError(f"truncated record at offset {offset}")
            return (bytes(buf[start : start + klen]),
                    bytes(buf[start + klen : end]), end)
        key, offset = self._decode_field(self.key_len, buf, offset)
        value, offset = self._decode_field(self.val_len, buf, offset)
        return key, value, offset

    def scan(self, buf, end: int | None = None):
        """Column-scan a packed run of records into offset arrays.

        Returns ``(roff, koff, kend, voff, vend)``: five ``array('Q')``
        columns where record ``i`` occupies ``buf[roff[i]:roff[i+1]]``,
        its key is ``buf[koff[i]:kend[i]]`` and its value
        ``buf[voff[i]:vend[i]]``.  ``roff`` has one extra trailing entry
        (the scan end), so it doubles as the record-boundary table the
        bulk-copy paths split on.  No per-record bytes objects are
        created.  ``buf`` is any byte buffer (``bytes``, ``bytearray``,
        ``memoryview``; a memoryview is copied only when a field is
        NUL-terminated); pass ``end`` to scan a valid prefix.

        The sequential walk only records where each record (and, off the
        default layout, its value field) starts; the other columns are
        derived from those with numpy.
        """
        if end is None:
            end = len(buf)
        kl, vl = self.key_len, self.val_len
        if isinstance(kl, int) and kl > 0 and isinstance(vl, int) and vl > 0:
            # Fixed/fixed: pure arithmetic, arrays built at C speed.
            rec = kl + vl
            if end % rec:
                raise ValueError(
                    f"buffer length {end} is not a multiple of the fixed "
                    f"record size {rec}")
            return (array("Q", range(0, end + 1, rec)),
                    array("Q", range(0, end, rec)),
                    array("Q", range(kl, end + 1, rec)),
                    array("Q", range(kl, end + 1, rec)),
                    array("Q", range(rec, end + 1, rec)))
        data = np.frombuffer(buf, np.uint8, count=end)
        if kl is VARIABLE and vl is VARIABLE:
            # The default layout: walk the 8-byte headers for record
            # starts only; the key lengths come from one numpy gather.
            starts = array("q")
            append = starts.append
            unpack = _U32x2.unpack_from
            offset = 0
            try:
                while offset < end:
                    klen, vlen = unpack(buf, offset)
                    append(offset)
                    offset += 8 + klen + vlen
            except struct.error:   # a header running off the buffer
                raise ValueError(
                    f"truncated record header at offset {offset}") from None
            if offset > end:
                # Bounds are checked once, after the walk: a header read
                # past ``end`` (but inside ``buf``) only moves the last
                # start beyond it.
                last = starts[-1]
                what = "record header" if last + 8 > end else "record"
                raise ValueError(f"truncated {what} at offset {last}")
            roff = np.frombuffer(starts, np.int64)
            mid = _u32_at(data, roff)
            mid += roff
            mid += 8
        else:
            step_key = _field_stepper(kl, buf, end)
            step_value = _field_stepper(vl, buf, end)
            starts = array("q")
            mids = array("q")
            offset = 0
            while offset < end:
                starts.append(offset)
                offset = step_key(offset)
                mids.append(offset)
                offset = step_value(offset)
            roff = np.frombuffer(starts, np.int64)
            mid = np.frombuffer(mids, np.int64)
        # Header bytes before the key and before the value; the default
        # layout keeps both lengths in one 8-byte header up front.
        key_hdr = self.header_size if kl is VARIABLE else 0
        val_hdr = 4 if vl is VARIABLE and kl is not VARIABLE else 0
        nul = 1 if vl == CSTRING else 0
        rcol = _column(roff)
        rcol.append(end)
        vcol = _column(roff[1:], -nul)
        if len(roff):
            vcol.append(end - nul)
        return (rcol, _column(roff, key_hdr),
                _column(mid, -1 if kl == CSTRING else 0),
                _column(mid, val_hdr), vcol)

    def iter_records(self, buf: bytes | memoryview) -> Iterator[tuple[bytes, bytes]]:
        """Yield every record of a packed buffer."""
        if isinstance(buf, memoryview):
            buf = bytes(buf)
        offset = 0
        end = len(buf)
        while offset < end:
            key, value, offset = self.decode(buf, offset)
            yield key, value

    def count_records(self, buf: bytes | memoryview) -> int:
        return sum(1 for _ in self.iter_records(buf))


#: The default layout: both fields variable (8-byte header per record).
DEFAULT_LAYOUT = KVLayout()
