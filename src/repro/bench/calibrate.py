"""Microbenchmarks that measure the simulator's *effective* rates.

The platform constants (compute rate, bandwidths, penalties) feed many
code paths; what the figures actually experience are composite,
end-to-end throughputs - a shuffle includes rounds, latency and copy
charges, a spill includes contention and the write penalty.  These
microbenchmarks measure those effective rates on a live cluster, which
(a) documents the operating point behind EXPERIMENTS.md and (b) pins
the relationships the figures rely on (spill << shuffle << compute) in
tests, so a cost-model regression is caught directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.wordcount import wc_combine, wc_map
from repro.cluster import Cluster
from repro.core import Mimir, MimirConfig, pack_u64
from repro.datasets import uniform_text
from repro.io.spill import SpillWriter
from repro.mpi.platforms import Platform


@dataclass(frozen=True)
class CalibrationReport:
    """Effective end-to-end rates of one platform (bytes per virtual s)."""

    platform: str
    shuffle_throughput: float      # KV bytes through map+aggregate
    spill_write_throughput: float  # page stream to the PFS, per rank
    spill_read_throughput: float   # and back
    wordcount_throughput: float    # input bytes through a full WC job

    def render(self) -> str:
        def fmt(value: float) -> str:
            return f"{value:12.3e} B/s"

        return "\n".join([
            f"calibration ({self.platform}):",
            f"  shuffle     {fmt(self.shuffle_throughput)}",
            f"  spill write {fmt(self.spill_write_throughput)}",
            f"  spill read  {fmt(self.spill_read_throughput)}",
            f"  wordcount   {fmt(self.wordcount_throughput)}",
        ])


def _measure_shuffle(platform: Platform, nbytes_per_rank: int) -> float:
    cluster = Cluster(platform, memory_limit=None)
    config = MimirConfig(page_size=platform.default_page_size,
                         comm_buffer_size=platform.default_page_size)
    record = 24  # 8B key + 8B value + header
    nrecords = max(1, nbytes_per_rank // record)

    def job(env):
        mimir = Mimir(env, config)
        rank_key = pack_u64(env.comm.rank)

        def map_fn(ctx, i):
            ctx.emit(pack_u64(i * env.comm.size + env.comm.rank), rank_key)

        kvs = mimir.map_items(range(nrecords), map_fn)
        moved = mimir.last_map_stats["kv_bytes"]
        kvs.free()
        return moved

    result = cluster.run(job)
    total = sum(result.returns)
    return total / result.elapsed if result.elapsed else float("inf")


def _measure_spill(platform: Platform, nbytes: int) -> tuple[float, float]:
    cluster = Cluster(platform, memory_limit=None)
    page = platform.default_page_size

    def job(env):
        writer = SpillWriter(env.pfs, env.comm, "calib")
        t0 = env.comm.clock.time
        written = 0
        while written < nbytes:
            chunk = min(page, nbytes - written)
            writer.write_chunk(b"x" * chunk)
            written += chunk
        t_write = env.comm.clock.time - t0
        t0 = env.comm.clock.time
        for _ in writer.reader():
            pass
        t_read = env.comm.clock.time - t0
        writer.discard()
        return written / t_write, written / t_read

    result = cluster.run(job)
    writes = [w for w, _ in result.returns]
    reads = [r for _, r in result.returns]
    return min(writes), min(reads)


def _measure_wordcount(platform: Platform, nbytes: int) -> float:
    cluster = Cluster(platform, memory_limit=None)
    cluster.pfs.store("calib.txt", uniform_text(nbytes, vocab_size=1024,
                                                word_len=9, seed=0))
    config = MimirConfig(page_size=platform.default_page_size,
                         comm_buffer_size=platform.default_page_size,
                         input_chunk_size=platform.default_page_size)

    def job(env):
        mimir = Mimir(env, config)
        kvs = mimir.map_text_file("calib.txt", wc_map)
        out = mimir.partial_reduce(kvs, wc_combine)
        out.free()

    result = cluster.run(job)
    return nbytes / result.elapsed if result.elapsed else float("inf")


def calibrate(platform: Platform, *,
              sample_bytes: int | None = None) -> CalibrationReport:
    """Measure the effective rates of ``platform``."""
    sample = sample_bytes or 8 * platform.default_page_size
    spill_write, spill_read = _measure_spill(platform, sample)
    return CalibrationReport(
        platform=platform.name,
        shuffle_throughput=_measure_shuffle(platform, sample),
        spill_write_throughput=spill_write,
        spill_read_throughput=spill_read,
        wordcount_throughput=_measure_wordcount(platform, 4 * sample),
    )
