"""Memory-accounted hash bucket of unique keys.

Used by the three places the paper keeps per-unique-key state: the
two-pass convert (size gathering), KV compression (map-side combine),
and partial reduction.  Every entry is charged to the rank's memory
tracker - the paper is explicit that these buckets cost memory and only
pay off when duplicate keys are frequent, and that trade-off must show
up in the peak-memory measurements.
"""

from __future__ import annotations

from array import array
from itertools import filterfalse, repeat
from typing import Iterator

import numpy as np

from repro.memory.tracker import MemoryTracker


class AccountedBucket:
    """A ``dict[bytes, bytes]``-like map charged to a tracker.

    The accounting model is ``len(key) + len(value) + entry_overhead``
    bytes per entry, adjusted when a value is replaced by one of a
    different size.
    """

    def __init__(self, tracker: MemoryTracker, entry_overhead: int = 48,
                 tag: str = "bucket"):
        self.tracker = tracker
        self.entry_overhead = entry_overhead
        self.tag = tag
        self._data: dict[bytes, bytes] = {}
        self.accounted_bytes = 0

    def __contains__(self, key: bytes) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: bytes) -> bytes | None:
        return self._data.get(key)

    def set(self, key: bytes, value: bytes) -> None:
        """Insert or replace, keeping the accounting in sync."""
        old = self._data.get(key)
        if old is None:
            delta = len(key) + len(value) + self.entry_overhead
            self.tracker.allocate(delta, self.tag)
            self.accounted_bytes += delta
        elif len(value) != len(old):
            delta = len(value) - len(old)
            if delta > 0:
                self.tracker.allocate(delta, self.tag)
            else:
                self.tracker.free(-delta, self.tag)
            self.accounted_bytes += delta
        self._data[key] = value

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Non-destructive iteration in insertion order."""
        return iter(self._data.items())

    def drain(self) -> Iterator[tuple[bytes, bytes]]:
        """Destructive iteration, releasing accounting entry-by-entry.

        Mirrors how Mimir reclaims bucket memory while flushing
        compressed KVs into the send buffer.
        """
        while self._data:
            key, value = next(iter(self._data.items()))
            del self._data[key]
            delta = len(key) + len(value) + self.entry_overhead
            self.tracker.free(delta, self.tag)
            self.accounted_bytes -= delta
            yield key, value

    def release(self, pairs) -> None:
        """Remove the given ``(key, value)`` entries, releasing their
        accounting one entry at a time as :meth:`drain` does."""
        for key, value in pairs:
            del self._data[key]
            delta = len(key) + len(value) + self.entry_overhead
            self.tracker.free(delta, self.tag)
            self.accounted_bytes -= delta

    def free(self) -> None:
        """Drop all entries and release the accounting."""
        if self.accounted_bytes:
            self.tracker.free(self.accounted_bytes, self.tag)
        self.accounted_bytes = 0
        self._data.clear()


class CountingBucket:
    """Per-unique-key counters for convert pass one.

    Stores ``key -> (count, total_value_bytes)`` and charges the
    tracker for the key bytes plus fixed per-entry bookkeeping.  Keys
    get dense ids in first-seen order and the counters are ``array``
    columns indexed by id, so :meth:`add_keys` counts a whole page with
    ``np.bincount`` over a numpy view of them; the tracker is charged
    once per new key, in first-seen order, exactly as record-at-a-time
    :meth:`add` would.
    """

    def __init__(self, tracker: MemoryTracker, entry_overhead: int = 48,
                 tag: str = "convert_bucket"):
        self.tracker = tracker
        self.entry_overhead = entry_overhead + 16  # two u64 counters
        self.tag = tag
        self._ids: dict[bytes, int] = {}
        self._counts = array("q")
        self._totals = array("q")
        self.accounted_bytes = 0

    def _admit(self, new_keys) -> None:
        """Give each (unseen) key the next id, charging its entry."""
        ids = self._ids
        for key in new_keys:
            delta = len(key) + self.entry_overhead
            self.tracker.allocate(delta, self.tag)
            self.accounted_bytes += delta
            ids[key] = len(ids)
        grow = len(ids) - len(self._counts)
        self._counts.extend(repeat(0, grow))
        self._totals.extend(repeat(0, grow))

    def add(self, key: bytes, value_bytes: int) -> None:
        slot = self._ids.get(key)
        if slot is None:
            self._admit((key,))
            slot = len(self._ids) - 1
        self._counts[slot] += 1
        self._totals[slot] += value_bytes

    def add_keys(self, keys: list[bytes], value_bytes) -> np.ndarray:
        """Count ``keys[i]`` with ``value_bytes[i]`` (numpy) for a whole
        page; returns the keys' ids (numpy)."""
        ids = self._ids
        self._admit(list(filterfalse(ids.__contains__,
                                     dict.fromkeys(keys))))
        key_ids = np.fromiter(map(ids.__getitem__, keys), np.int64,
                              len(keys))
        n = len(ids)
        np.frombuffer(self._counts, np.int64)[:] += np.bincount(
            key_ids, minlength=n)
        np.frombuffer(self._totals, np.int64)[:] += np.bincount(
            key_ids, value_bytes, n).astype(np.int64)
        return key_ids

    def ids(self, keys: list[bytes]) -> np.ndarray:
        """The ids of already counted ``keys`` (numpy)."""
        return np.fromiter(map(self._ids.__getitem__, keys), np.int64,
                           len(keys))

    def items(self) -> Iterator[tuple[bytes, list[int]]]:
        """``(key, [count, total_value_bytes])`` in first-seen order."""
        return zip(self._ids, map(list, zip(self._counts, self._totals)))

    def __len__(self) -> int:
        return len(self._ids)

    def free(self) -> None:
        if self.accounted_bytes:
            self.tracker.free(self.accounted_bytes, self.tag)
        self.accounted_bytes = 0
        self._ids.clear()
        self._counts = array("q")
        self._totals = array("q")
