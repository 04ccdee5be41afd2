"""The benchmark's three MapReduce workloads and their reference checks.

Each workload generates :data:`INPUTS` inputs from the seed with
:mod:`repro.datasets` (input ``k`` of seed ``s`` uses dataset seed
``INPUTS * s + k``), stages them on a fresh ``Cluster(COMET,
nprocs=2)`` and runs jobs through a public ``repro.apps.*_mimir``
entry point; a job sees only its staged file.  Averaging over several
inputs keeps the exact metrics (virtual time, rank peak) of one seed
close to those of the next.  Every run's output is checked against a
reference computed here, without ``repro``.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.apps.bfs import bfs_mimir
from repro.apps.wordcount import wordcount_mimir
from repro.cluster import Cluster, RankEnv
from repro.core import MimirConfig
from repro.datasets import (
    edges_to_bytes,
    kronecker_edges,
    uniform_text,
    zipf_text,
)
from repro.mpi.platforms import COMET

#: Two rank threads, one per core of the two-core benchmark machine;
#: they share one interpreter lock, and ``run.py`` pins them to one CPU.
NPROCS = 2
#: Inputs per seed; each measured phase cycles through them.
INPUTS = 3
TEXT_BYTES = 2 << 20
KRON_SCALE = 13
KRON_EDGEFACTOR = 16

WC_ZIPF_CONFIG = MimirConfig()
#: The paper's out-of-core regime: the in-memory peak is about 2.9 MB,
#: so under a 1 MiB rank limit the job spills through the partitioned
#: convert instead of running out of memory.
WC_SPILL_CONFIG = MimirConfig(codec="dedup+zlib", out_of_core=True)
WC_SPILL_LIMIT = "1M"


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``dataset seed -> bytes`` of one input.
    make_input: Callable[[int], bytes]
    #: ``(env, path) -> per-rank result``: the job every rank runs.
    job: Callable[[RankEnv, str], Any]
    #: ``input -> reference``, computed once per input before any run.
    reference: Callable[[bytes], Any]
    #: ``(reference, per-rank results) -> error or None``.
    check: Callable[[Any, list[Any]], str | None]
    memory_limit: str | None = "auto"

    def setup(self, seed: int) -> tuple[Cluster, list[tuple[str, bytes]]]:
        """Build the cluster, generate the inputs and stage them;
        returns the cluster and ``(path, data)`` per input."""
        cluster = Cluster(COMET, nprocs=NPROCS,
                          memory_limit=self.memory_limit)
        inputs = []
        for k in range(INPUTS):
            path = f"perfbench/input.{k}"
            data = self.make_input(INPUTS * seed + k)
            cluster.pfs.store(path, data)
            inputs.append((path, data))
        return cluster, inputs


# ------------------------------------------------------------ WordCount

def _wc_job(config: MimirConfig) -> Callable[[RankEnv, str], Any]:
    def wordcount(env: RankEnv, path: str):
        return wordcount_mimir(env, path, config, batch=True, collect=True)
    return wordcount


def _wc_reference(text: bytes) -> Counter:
    return Counter(text.split())


def _wc_check(expected: Counter, results: list[Any]) -> str | None:
    """Merged per-rank counts must equal ``Counter(text.split())``."""
    merged: dict[bytes, int] = {}
    for rank, result in enumerate(results):
        if result.counts is None:
            return f"rank {rank} returned no counts"
        if result.unique_words != len(result.counts):
            return f"rank {rank}: unique_words != len(counts)"
        if result.total_words != sum(result.counts.values()):
            return f"rank {rank}: total_words != sum(counts)"
        overlap = merged.keys() & result.counts.keys()
        if overlap:
            return f"rank {rank} repeats {len(overlap)} keys"
        merged.update(result.counts)
    if merged != expected:
        missing = len(expected.keys() - merged.keys())
        wrong = sum(1 for k, v in merged.items() if expected.get(k) != v)
        return (f"counts differ from the reference: {missing} words "
                f"missing, {wrong} wrong or extra")
    return None


# ----------------------------------------------------------------- BFS

def _bfs_job(env: RankEnv, path: str):
    return bfs_mimir(env, path)


def _bfs_reference(data: bytes) -> tuple[int, int, int]:
    """``(root, levels, reached)`` of a plain breadth-first search from
    the smallest vertex with an edge (self-loops dropped), counting
    levels as the job does: one per non-empty frontier."""
    edges = np.frombuffer(data, dtype="<u8").reshape(-1, 2).tolist()
    adjacency: dict[int, list[int]] = {}
    for u, v in edges:
        if u != v:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, []).append(u)
    root = min(adjacency)
    depth = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    return root, max(depth.values()) + 1, len(depth)


def _bfs_check(reference: tuple[int, int, int],
               results: list[Any]) -> str | None:
    root, levels, reached = reference
    roots = {result.root for result in results}
    if roots != {root}:
        return f"roots {sorted(roots)} != reference {root}"
    if {result.levels for result in results} != {levels}:
        return (f"levels {sorted({r.levels for r in results})} != "
                f"reference {levels}")
    got = sum(result.visited_local for result in results)
    if got != reached:
        return f"reached {got} vertices, reference {reached}"
    return None


WORKLOADS = {
    w.name: w for w in (
        # Stands in for the paper's Wikipedia panel: key skew puts the
        # in-memory two-pass convert, KMV and records work on the
        # hot-key rank.
        Workload(
            name="wc-zipf",
            make_input=lambda seed: zipf_text(TEXT_BYTES, seed=seed),
            job=_wc_job(WC_ZIPF_CONFIG),
            reference=_wc_reference,
            check=_wc_check),
        # The paper's out-of-core regime: encode beside decode, storage
        # writes beside reads, through the partitioned convert.
        Workload(
            name="wc-spill-codec",
            make_input=lambda seed: uniform_text(TEXT_BYTES, seed=seed),
            job=_wc_job(WC_SPILL_CONFIG),
            reference=_wc_reference,
            check=_wc_check,
            memory_limit=WC_SPILL_LIMIT),
        # Stands in for the paper's BFS panel: map-only, many small
        # exchange rounds, per-record emits and allocations; no convert,
        # codec or spill.
        Workload(
            name="bfs-kron",
            make_input=lambda seed: edges_to_bytes(
                kronecker_edges(KRON_SCALE, KRON_EDGEFACTOR, seed=seed)),
            job=_bfs_job,
            reference=_bfs_reference,
            check=_bfs_check),
    )
}
