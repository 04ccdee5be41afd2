"""The columnar aggregate->convert path against record-at-a-time oracles.

Each oracle below is the record-at-a-time form of a columnar kernel:
the offset scan, the two-pass KV->KMV convert, the KMV decode and the
shuffle's bulk emits.  Hypothesis drives both forms over all nine
key/value layout-hint pairs and requires identical columns, errors,
KMV page bytes, tracker timelines, compute charges, group order,
partition bytes, exchange points and counters.
"""

from __future__ import annotations

import struct
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CSTRING, VARIABLE, KVContainer, KVLayout, MimirConfig
from repro.core.bucket import AccountedBucket
from repro.core.combiner import Combiner
from repro.core.convert import convert_to_kmv
from repro.core.errors import RecordTooLargeError
from repro.core import kmvcontainer
from repro.core.kmvcontainer import (
    KMVContainer,
    decode_kmv_groups,
    encode_kmv_record,
)
from repro.core.shuffle import Shuffler, default_partitioner
from repro.memory import MemoryTracker

HINTS = (VARIABLE, CSTRING, 3)
LAYOUTS = [KVLayout(k, v if v != 3 else 2) for k in HINTS for v in HINTS]
_U32 = struct.Struct("<I")


# ----------------------------------------------------------- oracles

def ref_scan(layout: KVLayout, buf, end=None):
    """The record-at-a-time offset scan."""
    buf = bytes(buf)
    end = len(buf) if end is None else end
    cols = [array("Q") for _ in range(5)]
    roff, koff, kend, voff, vend = cols
    kl, vl = layout.key_len, layout.val_len
    if isinstance(kl, int) and kl > 0 and isinstance(vl, int) and vl > 0:
        if end % (kl + vl):
            raise ValueError(
                f"buffer length {end} is not a multiple of the fixed "
                f"record size {kl + vl}")
    offset = 0
    if kl is VARIABLE and vl is VARIABLE:
        while offset < end:
            if offset + 8 > end:
                raise ValueError(
                    f"truncated record header at offset {offset}")
            klen, vlen = struct.unpack_from("<II", buf, offset)
            if offset + 8 + klen + vlen > end:
                raise ValueError(f"truncated record at offset {offset}")
            roff.append(offset)
            koff.append(offset + 8)
            kend.append(offset + 8 + klen)
            voff.append(offset + 8 + klen)
            vend.append(offset + 8 + klen + vlen)
            offset += 8 + klen + vlen
    else:
        while offset < end:
            roff.append(offset)
            ks, ke, offset = _ref_field(kl, buf, offset, end)
            vs, ve, offset = _ref_field(vl, buf, offset, end)
            koff.append(ks)
            kend.append(ke)
            voff.append(vs)
            vend.append(ve)
    roff.append(end)
    return tuple(cols)


def _ref_field(hint, buf, offset, end):
    if hint is VARIABLE:
        if offset + 4 > end:
            raise ValueError(f"truncated length header at offset {offset}")
        (n,) = _U32.unpack_from(buf, offset)
        if offset + 4 + n > end:
            raise ValueError(f"truncated field at offset {offset}")
        return offset + 4, offset + 4 + n, offset + 4 + n
    if hint == CSTRING:
        stop = buf.find(b"\0", offset, end)
        if stop < 0:
            raise ValueError(f"unterminated NUL string at offset {offset}")
        return offset, stop, stop + 1
    if offset + hint > end:
        raise ValueError(f"truncated fixed field at offset {offset}")
    return offset, offset + hint, offset + hint


def ref_decode_kmv(layout: KVLayout, buf):
    """The value-at-a-time KMV decode."""
    buf = bytes(buf)
    groups = []
    offset = 0
    while offset < len(buf):
        key, offset = layout._decode_field(layout.key_len, buf, offset)
        (nvalues,) = _U32.unpack_from(buf, offset)
        offset += 4
        values = []
        for _ in range(nvalues):
            value, offset = layout._decode_field(layout.val_len, buf, offset)
            values.append(value)
        groups.append((key, values))
    return groups


def ref_convert(env, kvc: KVContainer, config: MimirConfig) -> KMVContainer:
    """The record-at-a-time two-pass convert."""
    tracker = env.tracker
    overhead = config.bucket_entry_overhead + 16
    sizes: dict[bytes, list[int]] = {}
    accounted = 0
    scanned = 0
    for key, value in kvc.records():
        entry = sizes.get(key)
        if entry is None:
            tracker.allocate(len(key) + overhead, "convert_bucket")
            accounted += len(key) + overhead
            sizes[key] = [1, len(value)]
        else:
            entry[0] += 1
            entry[1] += len(value)
        scanned += len(key) + len(value)
    kmvc = KMVContainer(tracker, kvc.layout, config.page_size, tag="kmvc")
    slots = {key: kmvc.reserve(key, count, total)
             for key, (count, total) in sizes.items()}
    for key, value in kvc.consume():
        kmvc.append_value(slots[key], value)
    kmvc.finish_fill()
    if accounted:
        tracker.free(accounted, "convert_bucket")
    env.charge_compute(2 * scanned)
    return kmvc


def ref_emit_pairs(shuffler: Shuffler, pairs) -> None:
    """The record-at-a-time bulk emit (one dispatch, per-record loop)."""
    count = nbytes = 0
    for key, value in pairs:
        n = shuffler.layout.encoded_size(key, value)
        dest = shuffler.partitioner(key, shuffler.nprocs)
        if n > shuffler.part_size:
            raise RecordTooLargeError(n, shuffler.part_size,
                                      "send-buffer partition")
        if shuffler._fill[dest] + n > shuffler.part_size:
            shuffler.exchange(done=False)
        base = dest * shuffler.part_size + shuffler._fill[dest]
        shuffler.layout.encode_into(shuffler._send, base, key, value)
        shuffler._fill[dest] += n
        count += 1
        nbytes += n
    shuffler.records_sent += count
    shuffler.bytes_sent += nbytes
    shuffler.ops += 1
    shuffler.batch_records += count
    shuffler.batch_calls += 1


# ---------------------------------------------------------- fixtures

class FakeEnv:
    """The parts of a rank the convert and the emits touch."""

    def __init__(self, nprocs: int = 1):
        self.tracker = MemoryTracker(keep_timeline=True)
        self.comm = SimpleNamespace(size=nprocs)
        self.metrics = None
        self.charges: list[int] = []

    def charge_compute(self, nbytes: int) -> None:
        self.charges.append(nbytes)


class RecordingShuffler(Shuffler):
    """A shuffler whose exchange records the partitions instead of
    running a collective; each round charges the tracker so that its
    place in the timeline is visible."""

    def __init__(self, env, config, layout, partitioner=None):
        super().__init__(env, config, SimpleNamespace(layout=layout),
                         partitioner)
        self.rounds_seen: list[list[bytes]] = []

    def exchange(self, done: bool) -> bool:
        self.rounds_seen.append(self.partitions())
        for dest in range(self.nprocs):
            self._fill[dest] = 0
        self.env.tracker.allocate(1, "round")
        return True

    def partitions(self) -> list[bytes]:
        return [bytes(self._send[d * self.part_size :
                                 d * self.part_size + self._fill[d]])
                for d in range(self.nprocs)]

    def state(self):
        return (self.rounds_seen, self.partitions(), self.records_sent,
                self.bytes_sent, self.ops, self.batch_records,
                self.batch_calls)


def timeline(tracker: MemoryTracker):
    return [(s.seq, s.tag, s.delta, s.current) for s in tracker.timeline]


def field(draw, hint, pool=None):
    if hint is VARIABLE:
        return draw(st.binary(max_size=12))
    if hint == CSTRING:
        return draw(st.binary(max_size=12).map(
            lambda b: b.replace(b"\0", b"\1")))
    return draw(st.binary(min_size=hint, max_size=hint))


@st.composite
def layout_and_pairs(draw, max_pairs=60, key_pool=8):
    """A layout and valid records for it, keys drawn from a small pool
    so that keys repeat."""
    layout = draw(st.sampled_from(LAYOUTS))
    keys = [field(draw, layout.key_len)
            for _ in range(draw(st.integers(1, key_pool)))]
    n = draw(st.integers(0, max_pairs))
    pairs = [(draw(st.sampled_from(keys)), field(draw, layout.val_len))
             for _ in range(n)]
    return layout, pairs


def build_kvc(tracker, layout, pairs, page_size):
    kvc = KVContainer(tracker, layout, page_size)
    for key, value in pairs:
        kvc.add(key, value)
    return kvc


# -------------------------------------------------------------- scan

@settings(max_examples=150, deadline=None)
@given(layout_and_pairs(), st.data())
def test_scan_columns_and_truncation_errors(case, data):
    layout, pairs = case
    buf = b"".join(layout.encode(k, v) for k, v in pairs)
    for source in (buf, bytearray(buf), memoryview(buf)):
        assert layout.scan(source) == ref_scan(layout, buf)
    # A valid prefix of a longer buffer, through ``end``.
    padded = bytearray(buf + b"\0" * data.draw(st.integers(0, 9)))
    assert layout.scan(padded, len(buf)) == ref_scan(layout, buf)
    cut = data.draw(st.integers(0, len(buf)))
    for source, end in ((buf[:cut], None), (bytearray(buf), cut)):
        try:
            expected = ref_scan(layout, source, end)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                layout.scan(source, end)
            assert str(got.value) == str(exc)
        else:
            assert layout.scan(source, end) == expected


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(LAYOUTS), st.binary(max_size=40))
def test_scan_of_arbitrary_bytes_fails_like_the_oracle(layout, junk):
    try:
        expected = ref_scan(layout, junk)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            layout.scan(junk)
        assert str(got.value) == str(exc)
    else:
        assert layout.scan(junk) == expected


# ----------------------------------------------------------- convert

def _convert_both(layout, pairs, page_size):
    config = MimirConfig(page_size=page_size, comm_buffer_size=page_size)
    out = []
    for convert in (ref_convert, convert_to_kmv):
        env = FakeEnv()
        kvc = build_kvc(env.tracker, layout, pairs, page_size)
        kmvc = convert(env, kvc, config)
        pages = [bytes(page.view) for page in kmvc.pages]
        sizes = [page.size for page in kmvc.pages]
        groups = list(kmvc.consume())
        out.append((pages, sizes, timeline(env.tracker), env.charges,
                    groups, env.tracker.current))
    return out


@settings(max_examples=120, deadline=None)
@given(layout_and_pairs(max_pairs=120), st.sampled_from([64, 96, 256]))
def test_convert_matches_record_at_a_time_oracle(case, page_size):
    layout, pairs = case
    ref, got = _convert_both(layout, pairs, page_size)
    assert got == ref
    # Group order: first-seen key order, values in record order.
    expected: dict[bytes, list[bytes]] = {}
    for key, value in pairs:
        expected.setdefault(key, []).append(value)
    assert got[4] == list(expected.items())
    assert got[5] == 0   # every page and bucket entry released


@pytest.mark.parametrize("layout", LAYOUTS, ids=str)
def test_convert_empty_and_jumbo(layout):
    assert _convert_both(layout, [], 64)[1][0] == []
    key = b"k" * (layout.key_len if isinstance(layout.key_len, int)
                  and layout.key_len > 0 else 2)
    width = layout.val_len if isinstance(layout.val_len, int) \
        and layout.val_len > 0 else 3
    pairs = [(key, bytes([65 + i % 26]) * width) for i in range(40)]
    pairs.append((key[:-1] + b"j", b"z" * width))
    ref, got = _convert_both(layout, pairs, 64)
    assert got == ref
    assert max(got[1]) > 64   # one KMV larger than a page


# --------------------------------------------------------- KMV decode

@settings(max_examples=120, deadline=None)
@given(st.sampled_from(LAYOUTS), st.data())
def test_kmv_decode_matches_value_at_a_time_oracle(layout, data):
    groups = []
    for _ in range(data.draw(st.integers(0, 6))):
        key = field(data.draw, layout.key_len)
        values = [field(data.draw, layout.val_len)
                  for _ in range(data.draw(st.integers(0, 5)))]
        groups.append((key, values))
    buf = b"".join(encode_kmv_record(layout, k, vs) for k, vs in groups)
    assert decode_kmv_groups(layout, buf) == ref_decode_kmv(layout, buf) \
        == groups
    assert decode_kmv_groups(layout, bytearray(buf + b"\7" * 5),
                             len(buf)) == groups


@pytest.mark.parametrize("layout", LAYOUTS, ids=str)
def test_kmv_decode_in_value_blocks(layout, monkeypatch):
    """A record's values may straddle several decode steps."""
    monkeypatch.setattr(kmvcontainer, "VALUE_BLOCK", 3)
    width = layout.val_len if isinstance(layout.val_len, int) \
        and layout.val_len > 0 else None
    key = b"abc"[: layout.key_len] if isinstance(layout.key_len, int) \
        and layout.key_len > 0 else b"k"
    uneven = [bytes([97 + i]) * (width or 1 + i % 3) for i in range(8)]
    groups = [(key, [b"x" * (width or 2)] * 7), (key, []),
              (key, uneven), (key, [b"y" * (width or 2)])]
    buf = b"".join(encode_kmv_record(layout, k, vs) for k, vs in groups)
    assert decode_kmv_groups(layout, buf) == ref_decode_kmv(layout, buf) \
        == groups


# ------------------------------------------------------------- emits

@st.composite
def emit_case(draw):
    layout, pairs = draw(layout_and_pairs(max_pairs=80, key_pool=12))
    nprocs = draw(st.integers(1, 3))
    comm = draw(st.sampled_from([48, 96, 300]))
    custom = draw(st.booleans())
    return layout, pairs, nprocs, comm, custom


def _len_partitioner(key, nprocs):
    return (len(key) + sum(key[:1])) % nprocs


def _shufflers(layout, nprocs, comm, custom):
    config = MimirConfig(comm_buffer_size=comm)
    partitioner = _len_partitioner if custom else None
    return [RecordingShuffler(FakeEnv(nprocs), config, layout, partitioner)
            for _ in range(2)]


def _run(action, shuffler):
    try:
        action(shuffler)
    except (RecordTooLargeError, ValueError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(emit_case())
def test_emit_pairs_matches_per_record_loop(case):
    layout, pairs, nprocs, comm, custom = case
    ref, bulk = _shufflers(layout, nprocs, comm, custom)
    half = len(pairs) // 2
    outcome_ref = _run(lambda s: (ref_emit_pairs(s, pairs[:half]),
                                  ref_emit_pairs(s, pairs[half:])), ref)
    outcome_bulk = _run(lambda s: (s.emit_pairs(pairs[:half]),
                                   s.emit_pairs(iter(pairs[half:]))), bulk)
    assert outcome_bulk == outcome_ref
    assert bulk.state() == ref.state()
    assert timeline(bulk.env.tracker) == timeline(ref.env.tracker)


@settings(max_examples=100, deadline=None)
@given(emit_case())
def test_emit_run_matches_per_record_loop(case):
    layout, pairs, nprocs, comm, custom = case
    ref, bulk = _shufflers(layout, nprocs, comm, custom)
    value = pairs[0][1] if pairs else b"vv"
    keys = [key for key, _ in pairs]
    outcome_ref = _run(
        lambda s: ref_emit_pairs(s, [(k, value) for k in keys]), ref)
    outcome_bulk = _run(lambda s: s.emit_run(keys, value), bulk)
    assert outcome_bulk == outcome_ref
    assert bulk.state() == ref.state()


def test_emit_run_returns_count_and_exchanges_mid_run():
    layout = KVLayout()
    ref, bulk = _shufflers(layout, 2, 64, custom=False)
    keys = [b"w%d" % i for i in range(50)]
    assert bulk.emit_run(keys, b"1") == 50
    ref_emit_pairs(ref, [(k, b"1") for k in keys])
    assert len(bulk.rounds_seen) >= 3
    assert bulk.state() == ref.state()


@pytest.mark.parametrize("custom", [False, True])
def test_record_too_large_after_the_same_prefix(custom):
    layout = KVLayout()
    pairs = [(b"k%d" % i, b"v" * (i % 5)) for i in range(30)]
    pairs.insert(21, (b"big", b"x" * 100))
    ref, bulk = _shufflers(layout, 2, 80, custom)
    assert _run(lambda s: ref_emit_pairs(s, pairs), ref)[0] \
        is RecordTooLargeError
    assert _run(lambda s: s.emit_pairs(pairs), bulk)[0] \
        is RecordTooLargeError
    assert bulk.rounds_seen and bulk.state() == ref.state()


def test_stray_partition_fails_after_the_prefix():
    layout = KVLayout()
    config = MimirConfig(comm_buffer_size=80)
    ref = RecordingShuffler(FakeEnv(2), config, layout, lambda key, p: 0)
    bulk = RecordingShuffler(FakeEnv(2), config, layout,
                             lambda key, p: 5 if key == b"x" else 0)
    pairs = [(b"a", b"1"), (b"b", b"2"), (b"x", b"3"), (b"c", b"4")]
    with pytest.raises(ValueError, match="outside 0..1"):
        bulk.emit_pairs(pairs)
    ref_emit_pairs(ref, [(b"a", b"1"), (b"b", b"2")])
    assert bulk.partitions() == ref.partitions()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=6), max_size=60),
       st.sampled_from([48, 96]))
def test_combiner_batch_drain_keeps_the_per_record_timeline(keys, comm):
    """The batch drain hands the bucket over in one emit_pairs, yet
    releases each entry where the lazy per-entry drain did."""

    def run(batch: bool):
        env = FakeEnv(2)
        config = MimirConfig(comm_buffer_size=comm)
        shuffler = RecordingShuffler(env, config, KVLayout())
        combiner = Combiner(env, config,
                            lambda k, a, b: bytes([(a[0] + b[0]) % 256]),
                            shuffler)
        if batch:
            combiner.emit_run(keys, b"1")
        else:
            for key in keys:
                combiner.emit(key, b"1")
        combiner._drain_to_shuffler()
        return shuffler.rounds_seen, shuffler.partitions(), \
            timeline(env.tracker)

    batch_rounds, batch_parts, batch_tl = run(True)
    rounds, parts, tl = run(False)
    assert (batch_rounds, batch_parts) == (rounds, parts)
    assert batch_tl == tl


def test_bucket_release_matches_drain():
    trackers = [MemoryTracker(keep_timeline=True) for _ in range(2)]
    buckets = [AccountedBucket(t, 5) for t in trackers]
    for bucket in buckets:
        for i in range(6):
            bucket.set(b"k%d" % i, b"v" * i)
    drained = list(buckets[0].drain())
    pairs = list(buckets[1].items())
    buckets[1].release(pairs[:2])
    buckets[1].release(pairs[2:])
    assert pairs == drained
    assert timeline(trackers[0]) == timeline(trackers[1])
    assert len(buckets[1]) == 0 and buckets[1].accounted_bytes == 0


def test_default_partitioner_fast_path_is_crc32():
    layout = KVLayout()
    config = MimirConfig(comm_buffer_size=3 * 1024)
    a = RecordingShuffler(FakeEnv(3), config, layout)
    b = RecordingShuffler(FakeEnv(3), config, layout,
                          lambda key, p: default_partitioner(key, p))
    keys = [b"key%d" % i for i in range(200)]
    a.emit_run(keys, b"1")
    b.emit_run(keys, b"1")
    assert a.state() == b.state()
