"""Partial reduction (paper Section III-C1, Figure 6).

For reduce operations with "partial-reduce invariance" (commutative and
associative merging, e.g. WordCount's sum), the convert and reduce
phases are replaced by a single streaming pass: KVs are scanned out of
the post-shuffle KVC (destructively - pages free as they drain) and
hashed into a bucket of unique KVs; on a duplicate key the user
callback folds the incoming value into the bucketed one.  No KMV is
ever materialised, so the memory high-water mark is the unique-key set
instead of the full grouped dataset.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable

from repro.cluster import RankEnv
from repro.core.batch import Dispatch, each_fold
from repro.core.bucket import AccountedBucket
from repro.core.config import MimirConfig
from repro.core.kvcontainer import KVContainer
from repro.core.records import KVLayout

#: ``pr_fn(key, value_a, value_b) -> value`` - same contract as a
#: combine callback: fold two values of one key into one.
PartialReduceFn = Callable[[bytes, bytes, bytes], bytes]


def partial_reduce(env: RankEnv, kvc: KVContainer, pr_fn,
                   config: MimirConfig, out_layout: KVLayout | None = None,
                   out_tag: str = "kv_out",
                   stats: dict | None = None, seed: KVContainer | None = None,
                   seed_consume: bool = True) -> KVContainer:
    """Fold ``kvc`` (consumed) into one KV per unique key.

    ``pr_fn`` is either a per-record fold (``pr_fn(key, a, b) -> value``)
    or, when marked with :func:`~repro.core.batch.batch_kernel`, a
    whole-batch fold called as ``pr_fn(bucket, batch)`` once per
    container page.  Both forms produce the same bucket contents (and
    so the same output), but the batch form costs one framework
    dispatch per page instead of one per record.

    ``seed`` pre-loads the bucket from an existing aggregate: its
    records fold in *before* any of ``kvc``'s, so an incremental window
    fold (seed = the running aggregate, ``kvc`` = the new micro-batch)
    folds in the same old-then-new order as one uninterrupted pass over
    all records.
    """
    bucket = AccountedBucket(env.tracker, config.bucket_entry_overhead,
                             tag="pr_bucket")
    fold = Dispatch(pr_fn, each_fold)
    sources = [kvc.consume_batches()]
    if seed is not None:
        sources.insert(0, seed.consume_batches() if seed_consume
                       else seed.batches())
    scanned = 0
    for batch in chain.from_iterable(sources):
        scanned += batch.payload_bytes
        fold(bucket, batch)

    out = KVContainer(env.tracker, out_layout or kvc.layout,
                      config.page_size, tag=out_tag)
    for key, value in bucket.drain():
        out.add(key, value)
    env.charge_compute(scanned + out.nbytes)
    env.charge_ops(fold.calls)
    if stats is not None:
        stats.update(ops=fold.calls, batch_records=fold.batch_records,
                     batch_pages=fold.batch_pages)
    return out
