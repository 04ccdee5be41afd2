"""Global sample sort: total order, coverage, splitter logic."""

from collections import Counter
from operator import itemgetter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.core import (
    CSTRING,
    VARIABLE,
    KVContainer,
    KVLayout,
    Mimir,
    MimirConfig,
    pack_u64,
    unpack_u64,
)
from repro.core import sort as sort_module
from repro.core.errors import RecordTooLargeError
from repro.core.shuffle import Shuffler
from repro.core.sort import (
    DEFAULT_OVERSAMPLE,
    choose_splitters,
    global_sort,
    range_partitioner,
)
from repro.mpi import COMET

CFG = MimirConfig(page_size=2048, comm_buffer_size=2048,
                  input_chunk_size=256)


def run_global_sort(items_per_rank, nprocs=4, by_value=False):
    cluster = Cluster(COMET, nprocs=nprocs, memory_limit=None)

    def job(env):
        mimir = Mimir(env, CFG)
        items = items_per_rank(env.comm.rank)

        def map_fn(ctx, pair):
            ctx.emit(pair[0], pair[1])

        # map_items with identity partitioner just loads local data.
        kvs = mimir.map_items(items, map_fn,
                              partitioner=lambda k, p: env.comm.rank)
        out = mimir.global_sort(kvs, by_value=by_value)
        records = list(out.records())
        out.free()
        return records

    return cluster.run(job).returns


class TestGlobalSortKeys:
    def test_total_order_across_ranks(self):
        def items(rank):
            return [(b"%03d" % ((rank * 37 + i * 13) % 100), b"v")
                    for i in range(25)]

        per_rank = run_global_sort(items)
        # Locally sorted...
        for records in per_rank:
            keys = [k for k, _ in records]
            assert keys == sorted(keys)
        # ...and globally: concatenation is sorted.
        all_keys = [k for records in per_rank for k, _ in records]
        assert all_keys == sorted(all_keys)

    def test_no_records_lost(self):
        def items(rank):
            return [(b"%03d" % ((rank * 31 + i) % 50), pack_u64(i))
                    for i in range(20)]

        per_rank = run_global_sort(items)
        merged = Counter(k for records in per_rank for k, _ in records)
        expected = Counter()
        for rank in range(4):
            expected.update(k for k, _ in items(rank))
        assert merged == expected

    def test_empty_ranks_ok(self):
        def items(rank):
            return [(b"%d" % i, b"v") for i in range(10)] if rank == 0 \
                else []

        per_rank = run_global_sort(items)
        all_keys = [k for records in per_rank for k, _ in records]
        assert all_keys == sorted(all_keys)
        assert len(all_keys) == 10

    def test_all_identical_keys(self):
        per_rank = run_global_sort(lambda rank: [(b"same", b"%d" % rank)] * 5)
        total = sum(len(records) for records in per_rank)
        assert total == 20

    def test_serial(self):
        per_rank = run_global_sort(
            lambda rank: [(b"%02d" % (9 - i), b"v") for i in range(10)],
            nprocs=1)
        assert [k for k, _ in per_rank[0]] == [b"%02d" % i for i in range(10)]


class TestGlobalSortValues:
    def test_sorted_by_value(self):
        def items(rank):
            return [(b"k%d" % i, b"%03d" % ((rank * 17 + i * 7) % 60))
                    for i in range(15)]

        per_rank = run_global_sort(items, by_value=True)
        all_values = [v for records in per_rank for _, v in records]
        assert all_values == sorted(all_values)


class TestSplitters:
    def test_count(self):
        samples = [b"%02d" % i for i in range(40)]
        assert len(choose_splitters(samples, 4)) == 3
        assert choose_splitters(samples, 1) == []
        assert choose_splitters([], 4) == []

    def test_splitters_sorted(self):
        samples = [b"%02d" % ((i * 7) % 50) for i in range(50)]
        splitters = choose_splitters(samples, 8)
        assert splitters == sorted(splitters)

    def test_range_partitioner_monotone(self):
        partition = range_partitioner([b"b", b"d", b"f"])
        dests = [partition(k, 4) for k in (b"a", b"b", b"c", b"e", b"z")]
        assert dests == sorted(dests)
        assert dests[0] == 0
        assert dests[-1] == 3

    def test_range_partitioner_clamps(self):
        partition = range_partitioner([b"m"])
        assert partition(b"zzz", 2) == 1
        assert partition(b"a", 2) == 0


@settings(max_examples=25, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=6), min_size=0, max_size=40),
       st.integers(min_value=1, max_value=4))
def test_property_global_sort_is_sorted_permutation(keys, nprocs):
    def items(rank):
        return [(k, b"v") for k in keys[rank::nprocs]]

    per_rank = run_global_sort(items, nprocs=nprocs)
    all_keys = [k for records in per_rank for k, _ in records]
    assert all_keys == sorted(keys)


# ------------------------------------------- record-at-a-time oracle

class RoundLog(Shuffler):
    """A shuffler that logs every exchange round's partitions."""

    made: dict[int, "RoundLog"] = {}

    def __init__(self, env, *args, **kwargs):
        super().__init__(env, *args, **kwargs)
        self.rounds_seen: list[list[bytes]] = []
        RoundLog.made[env.comm.rank] = self

    def exchange(self, done: bool) -> bool:
        self.rounds_seen.append(
            [bytes(self._send[d * self.part_size :
                              d * self.part_size + self._fill[d]])
             for d in range(self.nprocs)])
        return super().exchange(done)


def ref_route(shuffler: Shuffler, record: bytes, dest: int) -> None:
    """Place one encoded record, exchanging first if it does not fit."""
    n = len(record)
    if n > shuffler.part_size:
        raise RecordTooLargeError(n, shuffler.part_size,
                                  "send-buffer partition")
    if shuffler._fill[dest] + n > shuffler.part_size:
        shuffler.exchange(done=False)
    base = dest * shuffler.part_size + shuffler._fill[dest]
    shuffler._send[base : base + n] = record
    shuffler._fill[dest] += n
    shuffler.records_sent += 1
    shuffler.bytes_sent += n


def ref_global_sort(env, kvc, config, *, by_value=False):
    """The record-at-a-time sample sort: one record per step through
    sampling, routing (one dispatch per record) and receive."""
    comm = env.comm
    field = itemgetter(1 if by_value else 0)
    local = [field(kv) for kv in kvc.records()]
    want = max(1, comm.size * DEFAULT_OVERSAMPLE)
    stride = max(1, len(local) // want)
    sample = sorted(local)[::stride][:want] if local else []
    pooled = [key for part in comm.allgather(sample) for key in part]
    partition = range_partitioner(choose_splitters(pooled, comm.size))
    out = KVContainer(env.tracker, kvc.layout, config.page_size,
                      tag="kv_gsorted")
    shuffler = RoundLog(env, config, out)
    for key, value in kvc.consume():
        ref_route(shuffler, kvc.layout.encode(key, value),
                  partition(field((key, value)), comm.size))
    shuffler.finish()
    env.charge_compute(shuffler.bytes_sent)
    env.charge_ops(shuffler.records_sent)
    records = sorted(out.consume(), key=field)
    result = KVContainer(env.tracker, out.layout, config.page_size,
                         tag="kv_gsorted")
    for key, value in records:
        result.add(key, value)
    env.charge_compute(result.nbytes)
    return result


def _field(draw, hint):
    if hint is VARIABLE:
        return draw(st.binary(max_size=6))
    if hint == CSTRING:
        return draw(st.binary(max_size=6).map(
            lambda b: b.replace(b"\0", b"\1")))
    return draw(st.binary(min_size=hint, max_size=hint))


@st.composite
def sort_case(draw):
    layout = draw(st.sampled_from([KVLayout(), KVLayout(CSTRING, VARIABLE),
                                   KVLayout(2, 3)]))
    nprocs = draw(st.integers(1, 4))
    pool = [_field(draw, layout.key_len)
            for _ in range(draw(st.integers(1, 10)))]
    per_rank = [[(draw(st.sampled_from(pool)), _field(draw, layout.val_len))
                 for _ in range(draw(st.integers(0, 30)))]
                for _ in range(nprocs)]
    return layout, per_rank, draw(st.sampled_from([24, 48, 96])), \
        draw(st.booleans())


def _run_sort(sort, layout, per_rank, part, by_value):
    config = MimirConfig(page_size=64, comm_buffer_size=part * len(per_rank))
    cluster = Cluster(COMET, nprocs=len(per_rank), memory_limit=None)

    def job(env):
        kvc = KVContainer(env.tracker, layout, config.page_size)
        for key, value in per_rank[env.comm.rank]:
            kvc.add(key, value)
        out = sort(env, kvc, config, by_value=by_value)
        log = RoundLog.made[env.comm.rank]
        return (list(out.records()), log.rounds_seen, log.records_sent,
                log.bytes_sent, env.comm.clock.time, env.tracker.peak)

    RoundLog.made.clear()
    with mock.patch.object(sort_module, "Shuffler", RoundLog):
        return cluster.run(job).returns


@settings(max_examples=40, deadline=None)
@given(sort_case())
def test_global_sort_matches_record_at_a_time_routing(case):
    """Paged sampling, routing and receive give the partitions, the
    exchange rounds, the output, the clock and the peak of the
    record-at-a-time loop, for key sorts and value sorts alike."""
    layout, per_rank, part, by_value = case
    got = _run_sort(global_sort, layout, per_rank, part, by_value)
    assert got == _run_sort(ref_global_sort, layout, per_rank, part,
                            by_value)
    field = itemgetter(1 if by_value else 0)
    merged = [field(kv) for rank in got for kv in rank[0]]
    assert merged == sorted(field(kv) for pairs in per_rank for kv in pairs)
