"""Fault tolerance: checkpoint/restart and chaos injection for MapReduce jobs.

The paper notes that MR-MPI "is unable to handle system faults" and
that the authors addressed this in prior work (Guo et al., SC'15,
"Fault Tolerant MapReduce-MPI for HPC Clusters").  This package
reproduces the checkpoint/restart flavour of that design on top of the
simulated cluster, and hardens it against the failure modes that
dominate on machines like Mira (node loss, Lustre/GPFS hiccups,
partial writes):

- :class:`CheckpointManager` persists phase outputs (KVCs and small
  control state) to the parallel file system as CRC32-checksummed,
  length-framed, nonce-stamped records with collective completion
  markers - a torn, corrupt, or stale checkpoint is detected and
  recomputed, never silently replayed;
- :class:`ChaosPlan` is the one fault plan: explicit rank deaths
  (:meth:`ChaosPlan.fail_at`, raising :class:`SimulatedRankFailure`)
  plus seeded transient PFS errors, torn writes, bit corruption,
  stragglers and membership events;
- :func:`run_with_recovery` is the one restart loop: per-class restart
  budgets, a structured failure log, and phases whose checkpoints
  completed are skipped - so work lost to a failure is bounded by one
  phase.  Its :class:`ElasticPolicy` decides whether a failure
  restarts the gang or shrinks it (:func:`run_elastic`);
- :mod:`repro.ft.elastic` holds the *reactive* mechanisms: straggler
  detection, speculative re-execution (:func:`speculative_map`),
  checkpoint re-balancing (:func:`restore_rebalanced`) and
  :class:`ScalingPolicy`;
- :func:`run_chaos_sweep` (``repro.ft.chaos``) sweeps seeded random
  fault schedules over WordCount and checks bit-identical convergence.
"""

from repro.ft.checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointManager,
    CheckpointNotFoundError,
    CheckpointStaleError,
)
from repro.ft.elastic import (
    ElasticStageHooks,
    ScalingPolicy,
    SpeculationReport,
    StragglerMonitor,
    restore_rebalanced,
    speculative_map,
)
from repro.ft.faults import (
    SimulatedRankFailure,
    StragglerEvicted,
    TornWriteFailure,
)
from repro.ft.injection import ChaosPlan, InjectedFault
from repro.ft.runner import (
    ElasticContext,
    ElasticPolicy,
    FailureRecord,
    FTResult,
    MembershipChange,
    classify_failure,
    run_elastic,
    run_with_recovery,
)


def __getattr__(name: str):
    # Lazy: the harness pulls in app code, and eager import would also
    # trip runpy's double-import warning for ``python -m repro.ft.chaos``.
    if name in ("ChaosSweepResult", "ChaosRunRecord", "run_chaos_sweep"):
        from repro.ft import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ChaosPlan",
    "ChaosSweepResult",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointManager",
    "CheckpointNotFoundError",
    "CheckpointStaleError",
    "ElasticContext",
    "ElasticPolicy",
    "ElasticStageHooks",
    "FailureRecord",
    "FTResult",
    "InjectedFault",
    "MembershipChange",
    "ScalingPolicy",
    "SimulatedRankFailure",
    "SpeculationReport",
    "StragglerEvicted",
    "StragglerMonitor",
    "TornWriteFailure",
    "classify_failure",
    "restore_rebalanced",
    "run_chaos_sweep",
    "run_elastic",
    "run_with_recovery",
    "speculative_map",
]
