"""The restart loop: classified failures, restart budgets, membership.

``run_with_recovery`` runs a job on a cluster; when a rank dies, the
whole allocation is torn down (as an MPI launcher would) and the job
is resubmitted against the same PFS - so checkpoints written by
completed phases survive and the restarted job skips them.  Total
virtual time accumulates across attempts, making the cost of a failure
(and the value of checkpointing) directly measurable.

Failures are *classified* (transient I/O, rank death, torn write, OOM,
unknown) and each class has its own restart cap: a flaky file system
earns more retries than an out-of-memory condition that will simply
recur, and an unrecognised exception is a bug that must propagate, not
be retried into oblivion.  Every failure, absorbed retry, and detected
bad checkpoint lands in :attr:`FTResult.failure_log`.

An :class:`ElasticPolicy` decides what a failure costs.  The default
restarts the gang at its current size; an elastic policy
(:func:`run_elastic`) *promotes* a rank death, scheduled leave or
straggler eviction to a gang shrink and applies scheduled joins at
launch boundaries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.cluster import Cluster, ClusterResult, RankEnv
from repro.ft.checkpoint import CheckpointManager
from repro.ft.faults import (
    SimulatedRankFailure,
    StragglerEvicted,
    TornWriteFailure,
)
from repro.ft.injection import ChaosPlan
from repro.io.errors import RetriesExhaustedError, TransientIOError
from repro.memory.tracker import MemoryLimitExceeded
from repro.mpi.errors import RankFailedError

#: Job signature: ``fn(env, ckpt, ctx) -> value``; ``ctx`` is an
#: :class:`ElasticContext`.
FTJob = Callable[[RankEnv, CheckpointManager, Any], Any]

#: Distinguishes runs for checkpoint stamping; never reset, so a stale
#: checkpoint from an earlier launch can never satisfy a new nonce.
_RUN_SEQ = itertools.count(1)

#: Failure kinds an elastic policy converts into gang shrinks instead
#: of same-size restarts (when the membership budget allows), and the
#: membership-log kind each becomes.
_SHRINKABLE = {"rank-death": "death", "membership-leave": "leave",
               "straggler-evict": "evict"}


@dataclass
class FailureRecord:
    """One event in a fault-tolerant run's history.

    ``kind`` is one of the restart classes (``rank-death``,
    ``torn-write``, ``transient-io``, ``oom``, ``unknown``) for
    attempt-ending failures, or an absorbed event: ``retry`` (a
    transient error the backoff wrapper survived), ``ckpt-invalid`` /
    ``ckpt-stale`` (a bad checkpoint detected and recomputed).
    ``attempt`` is 0 for absorbed events recorded inside a rank.
    """

    attempt: int
    rank: int | None
    kind: str
    message: str
    lost_elapsed: float = 0.0


def classify_failure(exc: BaseException) -> str:
    """Map a rank's fatal exception to a restart class.

    An exception may carry its own class via a ``failure_class``
    attribute - how membership departures (``membership-leave``) and
    straggler evictions (``straggler-evict``) distinguish themselves
    from crashes.
    """
    own = getattr(exc, "failure_class", None)
    if own is not None:
        return own
    if isinstance(exc, TornWriteFailure):
        return "torn-write"
    if isinstance(exc, SimulatedRankFailure):
        return "rank-death"
    if isinstance(exc, (TransientIOError, RetriesExhaustedError)):
        return "transient-io"
    if isinstance(exc, MemoryLimitExceeded):
        return "oom"
    return "unknown"


def default_restart_caps(max_restarts: int) -> dict[str, int]:
    """Per-class restart budgets.

    Injected faults (death, torn writes) and flaky I/O are worth the
    full budget; OOM gets one retry (a restart that restores smaller
    checkpointed state can fit where the original run did not); an
    unknown exception is a real bug and is never retried.
    """
    return {
        "rank-death": max_restarts,
        "torn-write": max_restarts,
        "transient-io": max_restarts,
        # Membership departures and straggler evictions that the policy
        # cannot turn into a gang shrink (budget spent, gang at its
        # floor) behave like recoverable rank deaths.
        "membership-leave": max_restarts,
        "straggler-evict": max_restarts,
        "oom": min(1, max_restarts),
        "unknown": 0,
    }


# --------------------------------------------------------------- policy


@dataclass(frozen=True)
class ElasticPolicy:
    """Knobs of the reactive layer; immutable and validated.

    ``straggler_threshold`` is the slowdown multiple over the median
    at which a rank is flagged; ``backup_overhead`` models the cost of
    re-reading a duplicated task's input split on the backup host.
    ``splits_per_rank`` sets task-pool granularity - more tasks mean
    earlier per-task detection and finer re-balancing, at more
    scheduling overhead (the paper's usual tradeoff).  A policy that
    allows neither leaves nor joins is restart-only: it never resizes
    the gang and leaves the plan's membership schedule untouched.
    """

    straggler_threshold: float = 2.0
    min_detect_seconds: float = 0.0
    speculate: bool = True
    backup_overhead: float = 0.05
    evict_stragglers: bool = True
    allow_leave: bool = True
    allow_join: bool = True
    max_membership_changes: int = 4
    min_ranks: int = 1
    max_ranks: int = 64
    splits_per_rank: int = 4

    def __post_init__(self):
        for name, ok, need in (
                # A threshold at or below the median flags healthy ranks.
                ("straggler_threshold", self.straggler_threshold > 1.0,
                 "> 1"),
                ("min_detect_seconds", self.min_detect_seconds >= 0, ">= 0"),
                ("backup_overhead", self.backup_overhead >= 0, ">= 0"),
                ("max_membership_changes",
                 self.max_membership_changes >= 0, ">= 0"),
                ("min_ranks", self.min_ranks >= 1, ">= 1"),
                ("max_ranks", self.max_ranks >= self.min_ranks,
                 f">= min_ranks ({self.min_ranks})"),
                ("splits_per_rank", self.splits_per_rank >= 1, ">= 1")):
            if not ok:
                raise ValueError(
                    f"{name} must be {need}, got {getattr(self, name)!r}")

    @property
    def membership(self) -> bool:
        """Whether this policy resizes the gang at all."""
        return self.allow_leave or self.allow_join


#: The policy :func:`run_with_recovery` applies by default.
RESTART_ONLY = ElasticPolicy(allow_leave=False, allow_join=False)


# -------------------------------------------------------------- results


@dataclass
class MembershipChange:
    """One gang-size transition in an elastic run's history."""

    attempt: int
    kind: str          # "leave" | "join" | "evict" | "death"
    rank: int | None
    nprocs: int        # gang size *after* the change
    at: float          # virtual time the triggering event carried
    cause: str = ""


@dataclass
class FTResult:
    """Outcome of a possibly-restarted, possibly-resized job."""

    result: ClusterResult
    attempts: int
    total_elapsed: float
    failures: list[str] = field(default_factory=list)
    failure_log: list[FailureRecord] = field(default_factory=list)
    membership_log: list[MembershipChange] = field(default_factory=list)
    #: Rank 0's :class:`~repro.ft.elastic.SpeculationReport` per
    #: speculative phase, across attempts.
    speculation: list = field(default_factory=list)
    final_nprocs: int = 0

    @property
    def restarts(self) -> int:
        return self.attempts - 1

    @property
    def membership_changes(self) -> int:
        return len(self.membership_log)

    def log_counts(self) -> dict[str, int]:
        """Failure-log tally by kind."""
        tally: dict[str, int] = {}
        for record in self.failure_log:
            tally[record.kind] = tally.get(record.kind, 0) + 1
        return tally


# ----------------------------------------------------------- job handle


class ElasticContext:
    """The per-run handle every job receives as its third argument.

    Shared across attempts so history survives restarts.  Plain jobs
    call :meth:`check`; elastic jobs call :meth:`probe` (which also
    fires due membership leaves) and :meth:`maybe_evict`, and pass the
    handle to :func:`~repro.ft.elastic.speculative_map` as ``ctx``.
    """

    def __init__(self, policy: ElasticPolicy, faults: ChaosPlan):
        self.policy = policy
        self.faults = faults
        self.reports: list = []
        self.last_report = None
        #: The driver's logs.  Absorbed transient map-read retries land
        #: in ``failure_log`` next to checkpoint retries.
        self.failure_log: list[FailureRecord] = []
        self.membership_log: list[MembershipChange] = []

    def check(self, tag: str, rank: int) -> None:
        """A fault point: the plan may kill ``rank`` at ``tag``."""
        self.faults.check(tag, rank)

    def probe(self, env: RankEnv, tag: str) -> None:
        """A job checkpoint/phase boundary: faults may fire here."""
        self.check(tag, env.comm.rank)
        if self.policy.membership:
            self.faults.membership_check(env.comm, tag)

    def record(self, report, env: RankEnv) -> None:
        """Collect a phase's speculation report (rank 0 appends)."""
        self.last_report = report
        if env.comm.rank == 0:
            self.reports.append(report)

    def changes_left(self) -> int:
        return self.policy.max_membership_changes - len(self.membership_log)

    def can_shrink(self, nprocs: int) -> bool:
        return (self.policy.allow_leave and self.changes_left() > 0
                and nprocs > self.policy.min_ranks)

    def maybe_evict(self, env: RankEnv, tag: str) -> None:
        """Turn a persistent straggler into a membership departure.

        If the last phase flagged stragglers and policy + budget allow
        shrinking, the lowest flagged rank raises
        :class:`~repro.ft.faults.StragglerEvicted`; the driver shrinks
        the gang and the retry runs without the slow host.  Speculation
        already bounded the *current* phase; eviction keeps the
        slowness from taxing every future phase.
        """
        report = self.last_report
        if report is None or not report.flagged:
            return
        if not (self.policy.evict_stragglers
                and self.can_shrink(env.comm.size)):
            return
        victim = min(report.flagged)
        if env.comm.rank == victim:
            raise StragglerEvicted(tag, victim)


# ---------------------------------------------------------- the driver


def run_with_recovery(cluster: Cluster, job: FTJob, *,
                      faults: ChaosPlan | None = None,
                      policy: ElasticPolicy = RESTART_ONLY,
                      job_id: str = "job",
                      max_restarts: int = 8,
                      restart_caps: dict[str, int] | None = None,
                      nonce: str | None = None) -> FTResult:
    """Run ``job(env, ckpt, ctx)`` to completion, restarting on
    classified failures; ``policy`` may resize the gang instead.

    ``faults`` (default: the cluster's own ``chaos`` plan, else an
    empty one) is wired into the cluster - PFS hooks + straggler
    clocks - for the duration of the call.  ``nonce`` defaults to a
    fresh per-call stamp derived from the cluster configuration, so
    checkpoints left by a previous run that happens to reuse
    ``job_id`` are detected as stale and recomputed instead of
    silently restored; pass an explicit nonce to opt into cross-run
    checkpoint reuse.
    """
    plan = faults if faults is not None else (cluster.chaos or ChaosPlan())
    if nonce is None:
        nonce = f"{job_id}/{cluster.signature()}/run{next(_RUN_SEQ)}"
    caps = dict(default_restart_caps(max_restarts))
    if restart_caps:
        caps.update(restart_caps)

    ctx = ElasticContext(policy, plan)
    failure_log = ctx.failure_log
    membership_log = ctx.membership_log
    total_elapsed = 0.0
    failures: list[str] = []
    restarts_by_class: dict[str, int] = {}
    last_clock = 0.0

    def resize(attempt: int, kind: str, rank: int | None, at: float,
               cause: str) -> None:
        cluster.resize(cluster.nprocs + (1 if kind == "join" else -1))
        if rank is not None:
            plan.remove_rank(rank)
        membership_log.append(MembershipChange(
            attempt, kind, rank, cluster.nprocs, at, cause))
        cluster.metrics.shard(-1).inc("ft.membership.changes")

    def rank_fn(env: RankEnv) -> Any:
        ckpt = CheckpointManager(env, job_id, nonce=nonce, faults=plan,
                                 failure_log=failure_log)
        return job(env, ckpt, ctx)

    previous_chaos = cluster.chaos
    cluster.chaos = plan
    try:
        for attempt in itertools.count(1):
            if policy.membership:
                # Launch-boundary sweep: joins grow the gang; leaves
                # whose rank never reached a probe shrink it here.
                for event in plan.membership_due(last_clock,
                                                 nranks=cluster.nprocs):
                    if event.kind == "join":
                        if (policy.allow_join and ctx.changes_left() > 0
                                and cluster.nprocs < policy.max_ranks):
                            resize(attempt, "join", None, event.at,
                                   "scheduled join")
                    elif ctx.can_shrink(cluster.nprocs):
                        resize(attempt, "leave", event.rank, event.at,
                               "scheduled leave (launch boundary)")
            try:
                result = cluster.run(rank_fn)
            except RankFailedError as failure:
                kind = classify_failure(failure.original)
                # Virtual time burnt by the failed attempt still counts.
                lost_clocks = getattr(failure, "clocks", None) or [0.0]
                lost = max(lost_clocks)
                last_clock = max(last_clock, lost)
                total_elapsed += lost
                failures.append(str(failure.original))
                failure_log.append(FailureRecord(
                    attempt, failure.rank, kind,
                    str(failure.original), lost))
                if kind in _SHRINKABLE and ctx.can_shrink(cluster.nprocs):
                    resize(attempt, _SHRINKABLE[kind], failure.rank,
                           getattr(failure.original, "at", last_clock),
                           str(failure.original))
                    continue
                restarts_by_class[kind] = restarts_by_class.get(kind, 0) + 1
                if (restarts_by_class[kind] > caps.get(kind, 0)
                        or attempt > max_restarts + len(membership_log)):
                    raise
                cluster.metrics.shard(-1).inc("ft.restarts")
                continue
            total_elapsed += result.elapsed
            return FTResult(result, attempt, total_elapsed, failures,
                            failure_log, membership_log,
                            speculation=list(ctx.reports),
                            final_nprocs=cluster.nprocs)
        raise AssertionError("unreachable")
    finally:
        cluster.chaos = previous_chaos
        cluster.pfs.chaos = previous_chaos


def run_elastic(cluster: Cluster, job: FTJob, *,
                policy: ElasticPolicy | None = None,
                faults: ChaosPlan | None = None,
                job_id: str = "job",
                max_restarts: int = 8,
                restart_caps: dict[str, int] | None = None,
                nonce: str | None = None) -> FTResult:
    """:func:`run_with_recovery` under an elastic policy.

    A rank death, scheduled leave, or straggler eviction shrinks the
    gang while the policy's membership budget and ``min_ranks`` allow;
    scheduled joins grow it at launch boundaries.  The nonce is fixed
    for the whole run (not per gang size), so checkpoints survive
    membership changes - :func:`~repro.ft.elastic.restore_rebalanced`
    does the re-sharding.
    """
    if nonce is None:
        nonce = f"{job_id}/elastic/run{next(_RUN_SEQ)}"
    return run_with_recovery(cluster, job, faults=faults,
                             policy=policy or ElasticPolicy(),
                             job_id=job_id, max_restarts=max_restarts,
                             restart_caps=restart_caps, nonce=nonce)
