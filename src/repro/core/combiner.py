"""KV compression: map-side combining (paper Section III-C2).

When the application supplies a combine callback, map output is routed
into a hash bucket instead of the send-buffer partitions.  Duplicate
keys are merged on the spot by the callback; the aggregate phase is
delayed until the map input is exhausted, at which point the bucket is
drained into the shuffler (reclaiming bucket memory entry-by-entry) and
the normal exchange rounds run.

The paper's caveats apply by construction: the bucket costs memory
(charged to the tracker), merging costs compute (charged to the
clock), and the win only materialises when the compression ratio is
high enough.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import Callable

from repro.cluster import RankEnv
from repro.core.bucket import AccountedBucket
from repro.core.config import MimirConfig
from repro.core.shuffle import Shuffler

#: ``combine_fn(key, value_a, value_b) -> value`` merges two values of
#: one key into one (must be commutative and associative).
CombineFn = Callable[[bytes, bytes, bytes], bytes]


class Combiner:
    """Map-side combine stage in front of a :class:`Shuffler`."""

    def __init__(self, env: RankEnv, config: MimirConfig,
                 combine_fn: CombineFn, shuffler: Shuffler):
        self.env = env
        self.combine_fn = combine_fn
        self.shuffler = shuffler
        self.bucket = AccountedBucket(env.tracker,
                                      config.bucket_entry_overhead,
                                      tag="compress_bucket")
        #: None reproduces the paper (unbounded bucket, aggregate fully
        #: delayed); a byte budget enables the bounded-flush improvement
        #: the paper lists as future work.
        self.bucket_budget = config.combiner_bucket_budget
        self.records_in = 0
        self.records_merged = 0
        self.partial_flushes = 0
        self._ops = 0
        self.batch_records = 0
        self.batch_calls = 0

    @property
    def ops(self) -> int:
        """Framework dispatches including the downstream shuffle's."""
        return self._ops + self.shuffler.ops

    def emit(self, key: bytes, value: bytes) -> None:
        """Insert one KV, merging with any bucketed duplicate."""
        self._merge(((key, value),))

    # -------------------------------------------------------- batch emits

    def emit_run(self, keys, value: bytes) -> int:
        """Merge ``(key, value)`` for every key in one dispatch; returns
        the number of records taken."""
        return self._note_batch(self._merge(zip(keys, repeat(value))))

    def emit_pairs(self, pairs) -> int:
        """Merge ``(key, value)`` pairs in one dispatch; returns the
        number of records taken."""
        return self._note_batch(self._merge(pairs))

    def emit_batch(self, batch) -> None:
        """Merge every record of a :class:`~repro.core.batch.KVBatch`."""
        self._note_batch(self._merge(batch.pairs_bytes()))

    def _merge(self, pairs) -> int:
        """Merge the pairs into the bucket in one dispatch (one op),
        folding duplicates with ``combine_fn``; flushes the bucket if it
        has outgrown its budget.  Returns the number of pairs."""
        get, put = self.bucket.get, self.bucket.set
        combine = self.combine_fn
        count = merged = 0
        for key, value in pairs:
            existing = get(key)
            if existing is None:
                put(key, value)
            else:
                put(key, combine(key, existing, value))
                merged += 1
            count += 1
        self.records_in += count
        self.records_merged += merged
        self._ops += 1
        if self.bucket_budget is not None and \
                self.bucket.accounted_bytes > self.bucket_budget:
            self._partial_flush()
        return count

    def _note_batch(self, count: int) -> int:
        self.batch_records += count
        self.batch_calls += 1
        return count

    def _partial_flush(self) -> None:
        """Drain the bucket mid-map, bounding its memory footprint.

        Compression restarts empty afterwards, trading some compression
        ratio for a hard cap on the bucket's contribution to the peak.
        """
        self.env.charge_compute(self._drain_to_shuffler())
        self.partial_flushes += 1

    def _drain_to_shuffler(self) -> int:
        """Drain the bucket; returns the merged payload bytes moved.

        The survivors flow out through one ``emit_pairs`` dispatch.
        Each entry is released where a lazy entry-by-entry drain would
        have released it (just before each mid-run exchange), so the
        tracker timeline is that of a record-at-a-time drain.
        """
        pairs = list(self.bucket.items())
        released = 0

        def release(upto: int) -> None:
            nonlocal released
            self.bucket.release(pairs[released:upto])
            released = upto

        self.shuffler.emit_pairs(pairs, taken=release)
        release(len(pairs))
        return sum(map(len, chain.from_iterable(pairs)))

    def finish(self) -> None:
        """Drain the bucket into the shuffler and run the aggregate."""
        # Merging work is proportional to the records that went through
        # the bucket, not just the survivors.
        self.env.charge_compute(self._drain_to_shuffler())
        metrics = self.env.metrics
        metrics.inc("core.combine.records_in", self.records_in)
        metrics.inc("core.combine.merged", self.records_merged)
        if self.partial_flushes:
            metrics.inc("core.combine.flushes", self.partial_flushes)
        self.shuffler.finish()
