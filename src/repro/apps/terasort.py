"""TeraSort: globally sort fixed-size records into one output file.

The canonical sorting benchmark: records carry a random fixed-size key
and an opaque payload; the job range-partitions by sampled splitters
(:meth:`Mimir.global_sort`) and writes a single globally ordered file
via MPI-IO-style offset writes.  The validator checks the output the
way the real benchmark does: order, record count, and content
preservation (checksum).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.cluster import RankEnv
from repro.core import KVBatch, KVLayout, Mimir, MimirConfig

#: Scaled-down TeraSort record: 4-byte key + 12-byte payload.
KEY_SIZE = 4
PAYLOAD_SIZE = 12
RECORD_SIZE = KEY_SIZE + PAYLOAD_SIZE

TS_LAYOUT = KVLayout(key_len=KEY_SIZE, val_len=PAYLOAD_SIZE)


def generate_records(nrecords: int, seed: int = 0) -> bytes:
    """Random records in the on-PFS binary format."""
    if nrecords < 0:
        raise ValueError(f"nrecords must be non-negative, got {nrecords}")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=nrecords * RECORD_SIZE,
                        dtype=np.uint8).tobytes()


def checksum(data: bytes) -> int:
    """Order-independent record checksum (sum of record CRCs)."""
    return sum(zlib.crc32(data[off : off + RECORD_SIZE])
               for off in range(0, len(data), RECORD_SIZE)) & 0xFFFFFFFF


@dataclass
class TeraSortResult:
    """Per-rank outcome."""

    records_local: int
    output_path: str


def terasort_mimir(env: RankEnv, input_path: str, output_path: str,
                   config: MimirConfig | None = None, *,
                   batch: bool = False) -> TeraSortResult:
    """Sort ``input_path`` into one globally ordered ``output_path``.

    The on-PFS record format *is* the fixed/fixed KV encoding, so the
    batch map wraps each input chunk in a :class:`KVBatch` and routes
    the records as arena slices - no per-record slicing at all.
    ``batch`` selects only that emit style of the map; the global sort
    is the same in both modes, and so is the output file.
    """
    config = (config or MimirConfig()).with_layout(TS_LAYOUT)
    mimir = Mimir(env, config)

    if batch:
        def map_fn(ctx, chunk: bytes) -> None:
            ctx.emit_batch(KVBatch(chunk, TS_LAYOUT))
    else:
        def map_fn(ctx, chunk: bytes) -> None:
            for off in range(0, len(chunk), RECORD_SIZE):
                ctx.emit(chunk[off : off + KEY_SIZE],
                         chunk[off + KEY_SIZE : off + RECORD_SIZE])

    kvs = mimir.map_binary_file(input_path, RECORD_SIZE, map_fn,
                                layout=TS_LAYOUT)
    ordered = mimir.global_sort(kvs)
    nlocal = len(ordered)
    mimir.write_output_global(ordered, output_path,
                              render=lambda k, v: k + v)
    ordered.free()
    return TeraSortResult(nlocal, output_path)


def validate_output(input_data: bytes, output_data: bytes) -> list[str]:
    """TeraValidate: order, cardinality, and content checks."""
    problems = []
    if len(output_data) != len(input_data):
        problems.append(
            f"size mismatch: {len(output_data)} vs {len(input_data)}")
        return problems
    prev = None
    for off in range(0, len(output_data), RECORD_SIZE):
        key = output_data[off : off + KEY_SIZE]
        if prev is not None and key < prev:
            problems.append(f"order violation at record {off // RECORD_SIZE}")
            break
        prev = key
    if checksum(input_data) != checksum(output_data):
        problems.append("checksum mismatch (records altered or lost)")
    return problems
