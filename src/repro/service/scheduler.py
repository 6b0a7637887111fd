"""Job model and scheduler: admission, the bounded queue, reconcile.

A *job* is one tenant's fuzzing campaign request ``(target, config,
budget_ns, tenant)``.  The scheduler owns the job table and a bounded
dispatch queue feeding the worker pool:

- **admission** is two-gated: the tenant's quota reservation
  (:mod:`repro.service.quotas`) and the queue bound.  Both rejections
  are structured — ``QUOTA_EXCEEDED`` / ``QUEUE_FULL`` with a
  ``retry_after_ms`` hint — so a well-behaved client backs off instead
  of the server growing an unbounded backlog;
- **acceptance is durable before it is acknowledged**: the job is
  journaled (fsync) before the dispatch queue ever sees it, so a
  ``kill -9`` immediately after the submit response still recovers the
  job;
- **dispatch is self-healing**: the chaos plane's ``queue-drop`` site
  models a dispatch lost between acceptance and the queue (the
  in-memory analogue of a lost cloud pub/sub message).  A periodic
  reconcile pass re-enqueues any accepted job that is neither queued
  nor running — the journal, not the queue, is the source of truth.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.execution import MECHANISMS
from repro.targets import target_names

#: The back-off hint, in ms, that a ``QUEUE_FULL`` or ``QUOTA_EXCEEDED``
#: rejection carries.
RETRY_AFTER_MS = 500


class JobState(enum.Enum):
    """Lifecycle of one job inside the service."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    QUARANTINED = "quarantined"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.QUARANTINED)


@dataclass(frozen=True)
class JobSpec:
    """What a tenant asked for — everything a job's result depends on."""

    tenant: str
    target: str
    budget_ns: int
    seed: int = 0
    mechanism: str = "closurex"
    n_workers: int = 1
    sync_every_ns: int = 10_000_000
    supervised: bool = True
    chaos_faults: int = 0          # per-job campaign-level fault plan

    @classmethod
    def from_params(cls, params: dict) -> "JobSpec":
        """Validate and build a spec from wire params; raises
        ``ValueError`` with a client-presentable message."""
        known = {
            "tenant", "target", "budget_ns", "seed", "mechanism",
            "n_workers", "sync_every_ns", "supervised", "chaos_faults",
        }
        unknown = set(params) - known
        if unknown:
            raise ValueError(f"unknown job parameters: {sorted(unknown)}")
        for key in ("tenant", "target", "budget_ns"):
            if key not in params:
                raise ValueError(f"missing required job parameter {key!r}")
        spec = cls(**params)
        if not spec.tenant or not isinstance(spec.tenant, str):
            raise ValueError("tenant must be a non-empty string")
        if spec.target not in target_names():
            raise ValueError(f"unknown target {spec.target!r}")
        if spec.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {spec.mechanism!r}")
        if spec.budget_ns < 1:
            raise ValueError("budget_ns must be >= 1")
        if spec.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if spec.sync_every_ns < 1:
            raise ValueError("sync_every_ns must be >= 1")
        return spec

    def to_wire(self) -> dict:
        """Journal/wire form (plain JSON scalars)."""
        return {
            "tenant": self.tenant,
            "target": self.target,
            "budget_ns": self.budget_ns,
            "seed": self.seed,
            "mechanism": self.mechanism,
            "n_workers": self.n_workers,
            "sync_every_ns": self.sync_every_ns,
            "supervised": self.supervised,
            "chaos_faults": self.chaos_faults,
        }


@dataclass
class JobRecord:
    """One job's live service-side state (the job table row)."""

    job_id: str
    spec: JobSpec
    state: JobState = JobState.QUEUED
    # Progress mirrors of the underlying campaign, updated per slice.
    clock_ns: int = 0
    execs: int = 0
    edges: int = 0
    corpus: int = 0
    unique_crashes: int = 0
    unique_hangs: int = 0
    # Failure-ladder bookkeeping.
    strikes: int = 0
    step_restarts: int = 0
    respawns: int = 0
    overrun_ns: int = 0
    quarantine_reason: str | None = None
    resumed_from_checkpoint: bool = False
    digest: str | None = None
    # Streaming: bumped on every sample; watchers poll it.
    version: int = 0
    samples: list[dict] = field(default_factory=list)
    # Dispatch bookkeeping (see module docstring): True while the job
    # sits in the asyncio queue or a worker holds it.
    dispatched: bool = False

    MAX_SAMPLES = 256

    def add_sample(self, sample: dict) -> None:
        """Record one progress sample (bounded ring) and wake watchers."""
        self.samples.append(sample)
        if len(self.samples) > self.MAX_SAMPLES:
            del self.samples[: len(self.samples) - self.MAX_SAMPLES]
        self.version += 1

    def to_wire(self) -> dict:
        """The ``status`` RPC row."""
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "spec": self.spec.to_wire(),
            "clock_ns": self.clock_ns,
            "execs": self.execs,
            "edges": self.edges,
            "corpus": self.corpus,
            "unique_crashes": self.unique_crashes,
            "unique_hangs": self.unique_hangs,
            "strikes": self.strikes,
            "step_restarts": self.step_restarts,
            "respawns": self.respawns,
            "overrun_ns": self.overrun_ns,
            "quarantine_reason": self.quarantine_reason,
            "resumed": self.resumed_from_checkpoint,
            "digest": self.digest,
        }


class QueueFull(RuntimeError):
    """Bounded-queue backpressure: try again after ``retry_after_ms``."""

    def __init__(self, depth: int, retry_after_ms: int):
        super().__init__(
            f"dispatch queue holds {depth} jobs; retry in {retry_after_ms} ms"
        )
        self.depth = depth
        self.retry_after_ms = retry_after_ms


class JobScheduler:
    """Job table + bounded dispatch queue (see module docstring).

    The scheduler is deliberately unaware of campaigns and executors;
    it deals in :class:`JobRecord` rows, and the worker pool deals in
    fuzzing.  ``faults`` is the service's shared chaos injector (or
    ``None``).
    """

    def __init__(self, max_queued: int, faults=None):
        if max_queued < 1:
            raise ValueError("max_queued must be >= 1")
        self.max_queued = max_queued
        self.faults = faults
        self.jobs: dict[str, JobRecord] = {}
        self.queue = None              # asyncio.Queue, set via bind()
        self._next_seq = 1
        self.queue_drops_recovered = 0

    def bind(self, queue) -> None:
        """Attach the asyncio dispatch queue (built on the running loop)."""
        self.queue = queue

    # -- admission -------------------------------------------------------

    def next_job_id(self) -> str:
        """Monotone job ids in submission order — deterministic for a
        fixed submission sequence, which is what makes service-level
        golden tests (same jobs, same ids, same digests) possible."""
        job_id = f"job-{self._next_seq:04d}"
        self._next_seq += 1
        return job_id

    def note_recovered_id(self, job_id: str) -> None:
        """Advance the id sequence past a journal-recovered job, so jobs
        submitted after a restart never collide with recovered ones."""
        try:
            seq = int(job_id.rsplit("-", 1)[-1])
        except ValueError:
            return
        self._next_seq = max(self._next_seq, seq + 1)

    def admit(self, spec: JobSpec, job_id: str | None = None) -> JobRecord:
        """Create the job row and enqueue it; quota must already be
        reserved and the acceptance journaled by the caller.  Raises
        :class:`QueueFull` (before any state is created) when the
        dispatch queue is at its bound."""
        if job_id is None:
            job_id = self.next_job_id()
        record = JobRecord(job_id=job_id, spec=spec)
        self.jobs[job_id] = record
        self.dispatch(record)
        return record

    def backlog(self) -> int:
        """Jobs accepted but not yet terminal."""
        return sum(
            1 for record in self.jobs.values() if not record.state.terminal
        )

    def check_capacity(self) -> None:
        """The queue-bound admission gate (raises :class:`QueueFull`)."""
        depth = self.backlog()
        if depth >= self.max_queued:
            raise QueueFull(depth, RETRY_AFTER_MS)

    # -- dispatch --------------------------------------------------------

    def dispatch(self, record: JobRecord) -> None:
        """Hand an accepted job to the worker queue — unless the chaos
        plane eats the dispatch (``queue-drop``), in which case the
        reconcile pass will find and re-enqueue it."""
        if self.faults is not None and self.faults.poll("queue-drop"):
            return  # dispatch lost; record.dispatched stays False
        record.dispatched = True
        self.queue.put_nowait(record.job_id)

    def requeue_front(self, record: JobRecord) -> None:
        """Put a job back at dispatch (worker respawn path)."""
        record.state = JobState.QUEUED
        record.dispatched = True
        self.queue.put_nowait(record.job_id)

    def reconcile(self) -> int:
        """Re-enqueue accepted jobs that lost their dispatch; returns
        how many were recovered."""
        recovered = 0
        for record in self.jobs.values():
            if record.state is JobState.QUEUED and not record.dispatched:
                record.dispatched = True
                self.queue.put_nowait(record.job_id)
                recovered += 1
        self.queue_drops_recovered += recovered
        return recovered

    # -- views -----------------------------------------------------------

    def status(self, job_id: str) -> JobRecord | None:
        return self.jobs.get(job_id)

    def rows(self, tenant: str | None = None) -> list[dict]:
        """Wire rows, id-sorted, optionally filtered by tenant."""
        return [
            record.to_wire()
            for job_id, record in sorted(self.jobs.items())
            if tenant is None or record.spec.tenant == tenant
        ]
