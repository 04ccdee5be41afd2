"""Exception types for injected rank failures.

:class:`~repro.ft.injection.ChaosPlan` raises these at planned points;
:func:`~repro.ft.runner.classify_failure` maps each to a restart class.
"""

from __future__ import annotations


class SimulatedRankFailure(RuntimeError):
    """An injected rank crash (stands in for a node/process fault)."""

    def __init__(self, tag: str, rank: int):
        self.tag = tag
        self.rank = rank
        super().__init__(f"injected failure of rank {rank} at {tag!r}")


class TornWriteFailure(SimulatedRankFailure):
    """A rank crash *mid-write*: only a prefix of the data landed.

    The surviving file is torn - exactly the hazard that forces
    checkpoints to be checksummed and length-framed rather than
    trusted.  Recovery-wise it is a rank death (the allocation is torn
    down and resubmitted), but it is classified separately so a failure
    log can show which restarts left partial files behind.
    """

    def __init__(self, path: str, rank: int, kept: int, total: int):
        self.path = path
        self.kept = kept
        self.total = total
        super().__init__(f"torn write of {path!r}", rank)
        # Overwrite the generic message with the torn-write specifics.
        self.args = (f"injected torn write on rank {rank}: "
                     f"{path!r} kept {kept}/{total} bytes",)


class StragglerEvicted(SimulatedRankFailure):
    """A flagged rank leaves so an elastic gang can shrink (raised by
    :meth:`~repro.ft.runner.ElasticContext.maybe_evict`)."""

    failure_class = "straggler-evict"

    def __init__(self, tag: str, rank: int):
        super().__init__(tag, rank)
        self.args = (f"straggler rank {rank} evicted at {tag!r}",)
