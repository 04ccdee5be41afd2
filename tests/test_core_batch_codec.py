"""Batch arenas, the shuffle/spill codec, and batch/per-record identity."""

import random
from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.core import (
    CSTRING,
    ChainCodec,
    ConfigError,
    KVBatch,
    KVContainer,
    KVDedupCodec,
    KVLayout,
    Mimir,
    MimirConfig,
    VARIABLE,
    ZlibCodec,
    batch_kernel,
    get_codec,
    pack_u64,
    unpack_u64,
)
from repro.memory import MemoryTracker
from repro.mpi import COMET

LAYOUTS = [
    KVLayout(),                    # variable/variable
    KVLayout(8, 8),                # fixed/fixed
    KVLayout(CSTRING, VARIABLE),   # NUL-terminated key
    KVLayout(VARIABLE, 8),         # variable key, fixed value
]


def random_field(rng, hint, *, lo=0, hi=16):
    if hint is VARIABLE:
        return rng.randbytes(rng.randint(lo, hi))
    if hint == CSTRING:
        return bytes(rng.choice(range(1, 256))
                     for _ in range(rng.randint(lo, hi)))
    return rng.randbytes(hint)


def random_pairs(rng, layout, n):
    return [(random_field(rng, layout.key_len),
             random_field(rng, layout.val_len)) for _ in range(n)]


def make_env(nprocs=1, platform=COMET):
    cluster = Cluster(platform, nprocs=nprocs)
    envs = []
    cluster.run(lambda env: envs.append(env))
    return envs[0], cluster


# ------------------------------------------------------------------- scan

class TestScanColumns:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_columns_match_record_iteration(self, layout):
        rng = random.Random(11)
        pairs = random_pairs(rng, layout, 40)
        buf = b"".join(layout.encode(k, v) for k, v in pairs)
        roff, koff, kend, voff, vend = layout.scan(buf)
        assert len(roff) == len(pairs) + 1
        assert roff[-1] == len(buf)
        rebuilt = [(buf[koff[i]:kend[i]], buf[voff[i]:vend[i]])
                   for i in range(len(pairs))]
        assert rebuilt == pairs
        # Record slices tile the buffer with no gaps.
        assert [buf[roff[i]:roff[i + 1]] for i in range(len(pairs))] \
            == [layout.encode(k, v) for k, v in pairs]

    def test_scan_prefix_with_end(self):
        layout = KVLayout(4, 4)
        buf = b"aaaaBBBBccccDDDD"
        roff, koff, kend, _voff, _vend = layout.scan(buf, end=8)
        assert list(roff) == [0, 8]
        assert buf[koff[0]:kend[0]] == b"aaaa"

    def test_fixed_fixed_truncated_buffer_raises(self):
        with pytest.raises(ValueError):
            KVLayout(4, 4).scan(b"abcde")

    def test_scan_empty(self):
        for layout in LAYOUTS:
            roff, *_rest = layout.scan(b"")
            assert list(roff) == [0]


# ---------------------------------------------------------------- KVBatch

class TestKVBatch:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_batches_equal_records(self, layout):
        rng = random.Random(5)
        pairs = random_pairs(rng, layout, 200)
        kvc = KVContainer(MemoryTracker(), layout, page_size=256)
        for k, v in pairs:
            kvc.add(k, v)
        assert kvc.npages > 1
        via_batches = [(k, v) for batch in kvc.batches()
                       for k, v in batch.pairs_bytes()]
        assert via_batches == pairs
        assert list(kvc.records()) == pairs
        assert sum(len(b) for b in kvc.batches()) == len(pairs)

    def test_views_are_zero_copy(self):
        layout = KVLayout()
        kvc = KVContainer(MemoryTracker(), layout, page_size=256)
        kvc.add(b"key", b"value")
        batch = next(iter(kvc.batches()))
        key = next(batch.keys())
        assert isinstance(key, memoryview)
        assert bytes(key) == b"key"
        assert isinstance(batch.record(0), memoryview)
        assert batch.key_bytes(0) == b"key"
        assert batch.value_bytes(0) == b"value"
        assert batch.nbytes == layout.encoded_size(b"key", b"value")

    def test_extend_encoded_resplits_across_pages(self):
        rng = random.Random(7)
        layout = KVLayout()
        pairs = random_pairs(rng, layout, 120)
        src = KVContainer(MemoryTracker(), layout, page_size=512)
        for k, v in pairs:
            src.add(k, v)
        # Smaller target pages: records must re-split cleanly.
        dst = KVContainer(MemoryTracker(), layout, page_size=128)
        for batch in src.batches():
            dst.extend_encoded(batch.arena)
        assert list(dst.records()) == pairs
        assert dst.nbytes == src.nbytes


# ------------------------------------------------------- pinned make_room

class TestPinnedSpill:
    def test_pin_blocks_budget_spill(self):
        env, _cluster = make_env()
        kvc = KVContainer(env.tracker, page_size=128, tag="t",
                          spill_env=env, resident_page_budget=2)
        pairs = [(b"key%03d" % i, b"val%03d" % i) for i in range(60)]
        for k, v in pairs[:20]:
            kvc.add(k, v)
        assert kvc.spilled
        before = kvc.spilled_bytes
        kvc.pin()
        for k, v in pairs[20:40]:
            kvc.add(k, v)
        # Mid-iteration safety: a pinned container must not move pages
        # to the PFS even when the resident budget is blown.
        assert kvc.spilled_bytes == before
        assert kvc.npages > 2
        kvc.unpin()
        for k, v in pairs[40:]:
            kvc.add(k, v)
        assert kvc.spilled_bytes > before   # spilling resumes
        assert list(kvc.records()) == pairs
        assert list(kvc.consume()) == pairs


# ------------------------------------------------------------------ codec

class TestCodecFrames:
    def encoded_run(self, skew):
        rng = random.Random(3)
        layout = KVLayout()
        keys = [b"hot-key-%d" % (i % (3 if skew else 500))
                for i in range(400)]
        rng.shuffle(keys)
        return layout, b"".join(layout.encode(k, pack_u64(i))
                                for i, k in enumerate(keys))

    @pytest.mark.parametrize("spec", ["zlib", "dedup", "dedup+zlib"])
    def test_roundtrip(self, spec):
        layout, run = self.encoded_run(skew=True)
        codec = get_codec(spec, layout)
        frame = codec.encode_frame(run)
        assert codec.decode_frame(frame) == run
        assert len(frame) < len(run)       # skewed keys compress

    def test_incompressible_stays_raw(self):
        codec = ZlibCodec()
        data = random.Random(1).randbytes(64)
        frame = codec.encode_frame(data)
        assert frame[:1] == b"\x00"        # raw passthrough flag
        assert len(frame) == len(data) + 1
        assert codec.decode_frame(frame) == data

    def test_empty(self):
        codec = ChainCodec([KVDedupCodec(KVLayout()), ZlibCodec()])
        assert codec.decode_frame(codec.encode_frame(b"")) == b""

    def test_get_codec_specs(self):
        assert get_codec(None, KVLayout()) is None
        with pytest.raises(ConfigError):
            get_codec("lz77", KVLayout())
        with pytest.raises(ConfigError):
            MimirConfig(codec="lz77")

    def test_dedup_is_byte_exact(self):
        layout, run = self.encoded_run(skew=False)
        codec = KVDedupCodec(layout)
        assert codec.decode_frame(codec.encode_frame(run)) == run


class TestContainerCodec:
    def skewed_pairs(self, n=400):
        rng = random.Random(9)
        return [(b"popular-%d" % rng.randint(0, 4), pack_u64(i))
                for i in range(n)]

    def test_contents_identical_and_smaller(self):
        pairs = self.skewed_pairs()
        layout = KVLayout()
        env, _cluster = make_env()
        plain = KVContainer(env.tracker, layout, page_size=512, tag="p")
        packed = KVContainer(env.tracker, layout, page_size=512, tag="z",
                             codec=get_codec("dedup+zlib", layout),
                             codec_env=env)
        for k, v in pairs:
            plain.add(k, v)
            packed.add(k, v)
        assert list(packed.records()) == list(plain.records()) == pairs
        assert packed.memory_bytes < plain.memory_bytes
        assert list(packed.consume()) == pairs

    def test_codec_spill_roundtrip(self):
        pairs = self.skewed_pairs()
        layout = KVLayout()
        env, _cluster = make_env()
        kvc = KVContainer(env.tracker, layout, page_size=256, tag="oc",
                          spill_env=env, resident_page_budget=2,
                          codec=get_codec("dedup+zlib", layout))
        for k, v in pairs:
            kvc.add(k, v)
        assert kvc.spilled
        assert list(kvc.records()) == pairs
        assert list(kvc.consume()) == pairs
        assert env.tracker.current == 0


# ---------------------------------------------- batch/per-record identity

WC_TEXT_SEED = 21


def wc_text(nbytes=6000):
    from repro.datasets.words import zipf_text
    return zipf_text(nbytes, seed=WC_TEXT_SEED)


SWEEP = [(batch, codec, nprocs)
         for batch in (False, True)
         for codec in (None, "dedup+zlib")
         for nprocs in (1, 4)]


class TestAppEquivalence:
    def wordcount(self, batch, codec, nprocs):
        from repro.apps.wordcount import wordcount_mimir
        cluster = Cluster(COMET, nprocs=nprocs)
        cluster.pfs.store("eq/words.txt", wc_text())
        config = MimirConfig(page_size=2048, codec=codec)
        result = cluster.run(lambda env: wordcount_mimir(
            env, "eq/words.txt", config, batch=batch, collect=True))
        counts = {}
        for r in result.returns:
            counts.update(r.counts)
        return counts

    def test_wordcount_counts_identical(self):
        baseline = self.wordcount(False, None, 1)
        assert baseline
        for batch, codec, nprocs in SWEEP:
            assert self.wordcount(batch, codec, nprocs) == baseline, \
                (batch, codec, nprocs)

    def pagerank(self, batch, codec, nprocs):
        from repro.apps.pagerank import pagerank_mimir
        from repro.datasets import edges_to_bytes, kronecker_edges
        cluster = Cluster(COMET, nprocs=nprocs)
        edges = kronecker_edges(scale=4, edgefactor=6, seed=2)
        cluster.pfs.store("eq/graph.bin", edges_to_bytes(edges))
        config = MimirConfig(page_size=2048, codec=codec)
        result = cluster.run(lambda env: pagerank_mimir(
            env, "eq/graph.bin", config, iterations=2, batch=batch))
        scores = {}
        for r in result.returns:
            scores.update(r.ranks)
        return {v: s.hex() for v, s in scores.items()}   # exact bits

    @pytest.mark.parametrize("nprocs", [1, 4])
    def test_pagerank_scores_bitwise_identical(self, nprocs):
        # Partitioning changes float summation order, so the bitwise
        # guarantee is per rank count: every (batch, codec) cell must
        # match the per-record/raw run on the same cluster size.
        baseline = self.pagerank(False, None, nprocs)
        assert baseline
        for batch in (False, True):
            for codec in (None, "dedup+zlib"):
                assert self.pagerank(batch, codec, nprocs) == baseline, \
                    (batch, codec)

    def terasort(self, batch, codec, nprocs):
        from repro.apps.terasort import generate_records, terasort_mimir
        cluster = Cluster(COMET, nprocs=nprocs)
        cluster.pfs.store("eq/tera.in", generate_records(200, seed=4))
        config = MimirConfig(page_size=2048, codec=codec)
        cluster.run(lambda env: terasort_mimir(
            env, "eq/tera.in", "eq/tera.out", config, batch=batch))
        return cluster.pfs.fetch("eq/tera.out")

    def test_terasort_output_bytes_identical(self):
        baseline = self.terasort(False, None, 1)
        assert baseline
        for batch, codec, nprocs in SWEEP:
            assert self.terasort(batch, codec, nprocs) == baseline, \
                (batch, codec, nprocs)

    def shuffle_payload(self, batch, codec, nprocs):
        """Random KV stream through map_items: per-rank shuffled bytes."""
        rng = random.Random(17)
        pairs = [(rng.randbytes(rng.randint(1, 10)), pack_u64(i))
                 for i in range(300)]

        def per_record(ctx, item):
            for k, v in pairs:
                ctx.emit(k, v)

        @batch_kernel
        def batched(ctx, item):
            ctx.emit_pairs(iter(pairs))

        config = MimirConfig(page_size=1024, codec=codec)
        cluster = Cluster(COMET, nprocs=nprocs)

        def rank_fn(env):
            mimir = Mimir(env, config)
            kvs = mimir.map_items([None], batched if batch else per_record)
            return b"".join(kvs.layout.encode(k, v)
                            for k, v in kvs.consume())

        return cluster.run(rank_fn).returns

    @pytest.mark.parametrize("nprocs", [1, 4])
    def test_shuffle_payloads_byte_identical(self, nprocs):
        baseline = self.shuffle_payload(False, None, nprocs)
        for batch in (False, True):
            for codec in (None, "dedup+zlib"):
                assert self.shuffle_payload(batch, codec, nprocs) \
                    == baseline, (batch, codec)


# ------------------------------------------------------- streaming output

class TestStreamingOutput:
    def test_multi_page_output_matches_render(self):
        env, cluster = make_env()
        config = MimirConfig(page_size=256)
        mimir = Mimir(env, config)
        kvc = KVContainer(env.tracker, config.layout, page_size=256)
        pairs = [(b"k%04d" % i, b"v%04d" % i) for i in range(200)]
        for k, v in pairs:
            kvc.add(k, v)
        assert kvc.npages > 1
        render = lambda k, v: k + b"=" + v + b"\n"
        mimir.write_output(kvc, "out/stream", render)
        expected = b"".join(render(k, v) for k, v in pairs)
        assert cluster.pfs.fetch("out/stream.0") == expected

    def test_empty_output_written(self):
        env, cluster = make_env()
        mimir = Mimir(env, MimirConfig())
        kvc = KVContainer(env.tracker, None, page_size=256)
        mimir.write_output(kvc, "out/empty")
        assert cluster.pfs.fetch("out/empty.0") == b""


# ------------------------------------------------------- dispatch costing

class TestRecordOverhead:
    def elapsed(self, batch, platform):
        from repro.apps.wordcount import wordcount_mimir
        cluster = Cluster(platform, nprocs=2)
        cluster.pfs.store("rc/words.txt", wc_text(3000))
        config = MimirConfig(page_size=2048)
        result = cluster.run(lambda env: wordcount_mimir(
            env, "rc/words.txt", config, batch=batch))
        return result.elapsed

    def test_zero_overhead_keeps_times_identical(self):
        assert self.elapsed(False, COMET) == self.elapsed(True, COMET)

    def test_overhead_rewards_batch_dispatch(self):
        costed = replace(COMET, record_overhead=1e-4)
        per_record = self.elapsed(False, costed)
        batch = self.elapsed(True, costed)
        assert batch < per_record
        # The byte charges are identical; only dispatch count differs.
        assert self.elapsed(False, COMET) < batch < per_record

    def test_rescale_preserves_record_overhead(self):
        costed = replace(COMET, record_overhead=1e-4)
        assert costed.rescaled(3).record_overhead == 1e-4


def _map_kernels(calls):
    def plain(ctx, key, value):
        calls.append(key)
        ctx.emit(key, value)

    @batch_kernel
    def batch(ctx, kvbatch):
        calls.append(len(kvbatch))
        ctx.emit_batch(kvbatch)

    return plain, batch


def _reduce_kernels(calls):
    def plain(ctx, key, values):
        calls.append(key)
        ctx.emit(key, values[-1])

    @batch_kernel
    def batch(ctx, groups):
        calls.append(len(groups))
        for key, values in groups:
            ctx.emit(key, values[-1])

    return plain, batch


def _fold_kernels(calls):
    def plain(key, a, b):
        calls.append(key)
        return b

    @batch_kernel
    def batch(bucket, kvbatch):
        calls.append(len(kvbatch))
        for key, value in kvbatch.pairs_bytes():
            bucket.set(key, value)

    return plain, batch


class TestDispatchOps:
    """The ops contract under ``record_overhead > 0``: a plain callback
    costs one op per record (or group) dispatched to it, a batch kernel
    one op per page, and only batch kernels count ``core.batch.*``."""

    OVERHEAD = 1e-3
    NRECORDS, NKEYS = 40, 8

    def run(self, driver, kernels, which, overhead):
        calls = []
        fn = kernels(calls)[which == "batch"]
        cluster = Cluster(replace(COMET, record_overhead=overhead),
                          nprocs=1, memory_limit=None)
        config = MimirConfig(page_size=64, comm_buffer_size=256)

        def job(env):
            kvc = KVContainer(env.tracker, config.layout, config.page_size)
            for i in range(self.NRECORDS):
                kvc.add(b"k%d" % (i % self.NKEYS), pack_u64(i))
            npages = kvc.npages
            start = env.comm.clock.time
            out = getattr(Mimir(env, config), driver)(kvc, fn)
            return env.comm.clock.time - start, npages, len(out)

        (elapsed, npages, nout), = cluster.run(job).returns
        return elapsed, npages, nout, calls, cluster.metrics.totals()

    def ops(self, driver, kernels, which):
        """``(ops charged, pages, calls, output records, metrics)``."""
        free, *_ = self.run(driver, kernels, which, 0.0)
        costed, npages, nout, calls, totals = self.run(
            driver, kernels, which, self.OVERHEAD)
        return (round((costed - free) / self.OVERHEAD), npages, calls,
                nout, totals)

    @pytest.mark.parametrize("driver,kernels", [
        ("map_kvs", _map_kernels), ("reduce", _reduce_kernels),
        ("partial_reduce", _fold_kernels)])
    def test_plain_callback_costs_one_op_per_dispatch(self, driver,
                                                      kernels):
        ops, _, calls, nout, totals = self.ops(driver, kernels, "plain")
        expected = {"map_kvs": self.NRECORDS, "reduce": self.NKEYS,
                    # The first record of each key is inserted without
                    # a fold call, but it is still one dispatch.
                    "partial_reduce": self.NRECORDS}[driver]
        assert ops == expected
        assert len(calls) == (expected if driver != "partial_reduce"
                              else self.NRECORDS - self.NKEYS)
        assert nout == (self.NRECORDS if driver == "map_kvs"
                        else self.NKEYS)
        assert not any(name.startswith("core.batch.") for name in totals)

    @pytest.mark.parametrize("driver,kernels", [
        ("map_kvs", _map_kernels), ("reduce", _reduce_kernels),
        ("partial_reduce", _fold_kernels)])
    def test_batch_kernel_costs_one_op_per_page(self, driver, kernels):
        ops, npages, calls, nout, totals = self.ops(driver, kernels,
                                                    "batch")
        assert ops == len(calls) > 1
        if driver != "reduce":   # KV pages; reduce runs per KMV page
            assert len(calls) == npages
        assert totals["core.batch.pages"] == len(calls)
        assert totals["core.batch.records"] == sum(calls)
        assert nout == (self.NRECORDS if driver == "map_kvs"
                        else self.NKEYS)
