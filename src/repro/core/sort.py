"""Global (cross-rank) sample sort for Mimir KV data.

``sort_local`` orders one rank's records; :func:`global_sort` produces
a total order across ranks: after sorting, every key on rank ``r``
compares less-than-or-equal to every key on rank ``r+1`` and each
rank's records are locally sorted.

Classic sample sort over the existing primitives: each rank publishes
a sample of its keys (allgather), identical splitters are derived
everywhere, records are shuffled with a range partitioner (one
bisection per record), and each rank sorts what it received.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import repeat
from operator import itemgetter

from repro.cluster import RankEnv
from repro.core.batch import KVBatch
from repro.core.config import MimirConfig
from repro.core.kvcontainer import KVContainer
from repro.core.shuffle import Shuffler

#: Samples each rank contributes per destination rank.
DEFAULT_OVERSAMPLE = 8


def choose_splitters(samples: list[bytes], nprocs: int) -> list[bytes]:
    """Derive ``nprocs - 1`` splitters from the pooled key samples."""
    if nprocs <= 1 or not samples:
        return []
    ordered = sorted(samples)
    splitters = []
    for i in range(1, nprocs):
        idx = min(len(ordered) - 1, (i * len(ordered)) // nprocs)
        splitters.append(ordered[idx])
    return splitters


def range_partitioner(splitters: list[bytes]):
    """Partitioner sending keys to the rank owning their key range."""

    def partition(key: bytes, nprocs: int) -> int:
        return min(bisect_right(splitters, key), nprocs - 1)

    return partition


def global_sort(env: RankEnv, kvc: KVContainer, config: MimirConfig, *,
                by_value: bool = False,
                oversample: int = DEFAULT_OVERSAMPLE,
                out_tag: str = "kv_gsorted") -> KVContainer:
    """Globally sort ``kvc`` (consumed) across all ranks.

    Returns this rank's slice of the total order.  Duplicate keys may
    land on either side of a splitter boundary but the global order is
    still correct (splitters compare with ``<=``).

    Records move a page at a time: sampling reads each page's sort
    fields in one step, and routing copies records as arena slices
    (one dispatch per page) instead of re-encoding them one by one.
    """
    comm = env.comm
    fields = KVBatch.values_bytes if by_value else KVBatch.keys_bytes

    # Sample this rank's sort fields at regular strides.
    local = [f for batch in kvc.batches() for f in fields(batch)]
    want = max(1, comm.size * oversample)
    stride = max(1, len(local) // want)
    sample = sorted(local)[::stride][:want] if local else []

    pooled = [key for part in comm.allgather(sample) for key in part]
    partition = range_partitioner(choose_splitters(pooled, comm.size))

    # Range-shuffle by the sort field, then order locally.
    out = KVContainer(env.tracker, kvc.layout, config.page_size,
                      tag=out_tag)
    shuffler = Shuffler(env, config, out)
    ranks = lambda batch: map(partition, fields(batch),  # noqa: E731
                              repeat(comm.size))
    for batch in kvc.consume_batches():
        shuffler.emit_batch(batch, ranks)
    shuffler.finish()
    env.charge_compute(shuffler.bytes_sent)
    env.charge_ops(shuffler.ops)

    records = sorted(out.consume(), key=itemgetter(1 if by_value else 0))
    result = KVContainer(env.tracker, out.layout, config.page_size,
                         tag=out_tag)
    for key, value in records:
        result.add(key, value)
    env.charge_compute(result.nbytes)
    return result
