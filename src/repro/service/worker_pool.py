"""The campaign worker pool: cooperative slicing plus the failure ladder.

Each worker is an asyncio task that pulls accepted jobs off the
dispatch queue and drives them through one slice loop: advance one
*slice* of virtual time, yield the event loop (so submits, status
polls, and watch streams stay live), checkpoint on the slice cadence,
repeat to the budget deadline.  A single-worker job is a
:class:`~repro.fuzzing.Campaign`; a multi-worker job is a
:class:`~repro.parallel.ParallelCampaign`, whose slice is one whole
sync round — seconds of wall time, not milliseconds — so it runs off
the event loop through :func:`asyncio.to_thread`.

Failures climb a three-rung degradation ladder mirroring the
supervised executor's retry → respawn → quarantine shape, with capped
exponential wall-clock backoff between rungs:

1. **restart step** — reload the campaign from its newest loadable
   checkpoint generation and re-drive; a replayed slice is
   bit-identical, so a transient wedge costs wall time, never
   correctness;
2. **respawn worker** — the worker task is presumed wedged, dies, and
   is replaced; the job re-enters the queue front and resumes from its
   checkpoint on a fresh worker;
3. **quarantine job** — the job is journaled terminal-quarantined and
   its unconsumed quota refunded, so one pathological job can never
   wedge the fleet.

A per-slice wall-clock **watchdog deadline** feeds the same ladder
(a slice that returns but blew its deadline counts as a strike), and
the chaos plane's ``worker-wedge`` site injects rung-1/2/3 failures
deterministically.  Service-plane faults never touch a campaign's
virtual clock or RNG — that is the invariant that keeps every job's
digest identical whatever the service suffered.
"""

from __future__ import annotations

import asyncio
import time

from repro.fuzzing import Campaign
from repro.parallel import (
    ParallelCampaign,
    ParallelConfig,
    ParallelResult,
    open_campaign,
)
from repro.service.recovery import poll_checkpoint_tear
from repro.service.scheduler import JobRecord, JobState

#: Wall-clock backoff between ladder rungs, in seconds: the base doubles
#: per strike up to the cap.
BACKOFF_BASE_S = 0.02
BACKOFF_CAP_S = 0.5


class StepFailure(RuntimeError):
    """One failed drive attempt (wedge, watchdog, infrastructure)."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


class WorkerRespawnRequest(Exception):
    """Rung 2: the worker should die and be replaced."""

    def __init__(self, job: JobRecord):
        super().__init__(f"respawn requested while running {job.job_id}")
        self.job = job


class WorkerPool:
    """N cooperative campaign workers over the service's job queue."""

    def __init__(self, service):
        self.service = service
        self.tasks: list[asyncio.Task] = []
        self.respawns = 0
        self._next_worker_id = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self, n_workers: int) -> None:
        """Spawn the initial worker tasks."""
        for _ in range(n_workers):
            self._spawn_worker()

    def _spawn_worker(self) -> None:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        self.tasks.append(
            asyncio.create_task(
                self._worker_loop(worker_id), name=f"svc-worker-{worker_id}"
            )
        )

    async def stop(self) -> None:
        """Stop every worker: sentinel per live task, then gather."""
        live = [task for task in self.tasks if not task.done()]
        for _ in live:
            self.service.scheduler.queue.put_nowait(None)
        await asyncio.gather(*self.tasks, return_exceptions=True)
        self.tasks = []

    def abort(self) -> None:
        """Hard-but-clean stop: cancel workers mid-slice.  In-flight
        jobs stay journal-accepted and resume from their checkpoints on
        the next start."""
        for task in self.tasks:
            task.cancel()

    # -- the worker loop -------------------------------------------------

    async def _worker_loop(self, worker_id: int) -> None:
        service = self.service
        while True:
            job_id = await service.scheduler.queue.get()
            if job_id is None:
                return
            job = service.scheduler.jobs.get(job_id)
            if job is None or job.state.terminal:
                continue
            try:
                await self._run_job(worker_id, job)
            except WorkerRespawnRequest:
                # Rung 2: this worker is presumed wedged.  The job goes
                # back to the queue front, a replacement task takes this
                # worker's slot, and this task exits.
                self.respawns += 1
                service.note_event(
                    "service.worker.respawn",
                    worker=worker_id, job=job.job_id,
                )
                service.scheduler.requeue_front(job)
                self._spawn_worker()
                return

    async def _run_job(self, worker_id: int, job: JobRecord) -> None:
        """Drive one job to a terminal state, climbing the ladder."""
        service = self.service
        policy = service.config.policy
        job.state = JobState.RUNNING
        service.note_event(
            "service.job.start", job=job.job_id, worker=worker_id,
            tenant=job.spec.tenant,
        )
        while True:
            try:
                await self._attempt(job)
                return
            except asyncio.CancelledError:
                raise
            except WorkerRespawnRequest:
                raise
            except Exception as error:
                failure = (
                    error if isinstance(error, StepFailure)
                    else StepFailure("infrastructure", repr(error))
                )
                job.strikes += 1
                service.note_event(
                    "service.job.strike", job=job.job_id,
                    reason=failure.reason, strikes=job.strikes,
                )
                await self._backoff(job.strikes)
                if job.strikes <= policy.restart_step_limit:
                    job.step_restarts += 1   # rung 1: replay from ckpt
                    continue
                if job.respawns < policy.max_respawns:
                    job.respawns += 1        # rung 2
                    raise WorkerRespawnRequest(job)
                await service.quarantine_job(job, failure.reason)  # rung 3
                return

    async def _backoff(self, strikes: int) -> None:
        delay_s = min(BACKOFF_BASE_S * (2 ** (strikes - 1)), BACKOFF_CAP_S)
        await asyncio.sleep(delay_s)

    def _poll_wedge(self) -> None:
        faults = self.service.faults
        if faults is not None:
            fault = faults.poll("worker-wedge")
            if fault is not None:
                raise StepFailure("worker-wedge", fault.detail)

    # -- the slice loop --------------------------------------------------

    def _open(self, job: JobRecord) -> Campaign | ParallelCampaign:
        """The job's campaign, resumed from its newest loadable
        checkpoint generation or fresh.  The fault plan is rebuilt from
        the spec on every attempt; its counters live inside the
        supervised snapshot, so a resume restores the schedule
        mid-plan."""
        spec = job.spec
        return open_campaign(ParallelConfig(
            target=spec.target,
            n_workers=spec.n_workers,
            seed=spec.seed,
            budget_ns=spec.budget_ns,
            sync_every_ns=spec.sync_every_ns,
            mechanism=spec.mechanism,
            supervised=spec.supervised,
            chaos_faults=spec.chaos_faults,
            checkpoint_path=self.service.state.checkpoint_path(job.job_id),
        ))

    async def _attempt(self, job: JobRecord) -> None:
        service, spec = self.service, job.spec
        policy = service.config.policy
        campaign = self._open(job)
        # A fleet slice is a whole sync round (seconds of wall time), so
        # a fleet's calls run off the event loop.
        call = asyncio.to_thread if spec.n_workers > 1 else _on_loop
        job.resumed_from_checkpoint |= campaign.resumed
        await call(campaign.start)
        if not campaign.resumed:
            # The post-seeding baseline: a death inside the first
            # slices still leaves something to resume from.
            await call(campaign.checkpoint)
        slices = 0
        while campaign.now_ns < campaign.deadline_ns:
            self._poll_wedge()
            started = time.monotonic()
            moved = await call(
                campaign.step_until, campaign.now_ns + policy.slice_ns
            )
            if time.monotonic() - started > policy.watchdog_s:
                raise StepFailure(
                    "watchdog",
                    f"slice exceeded {policy.watchdog_s}s wall-clock",
                )
            if not moved:
                break   # empty corpus / no progress possible: wrap up
            slices += 1
            progress = campaign.progress()
            service.ledger.charge(spec.tenant, job.job_id, progress["t_ns"])
            self._poll_overrun(job)
            self._observe(job, progress)
            if slices % policy.checkpoint_every_slices == 0:
                poll_checkpoint_tear(campaign.checkpoint(), service.faults)
            # The cooperative yield: everything else the server does
            # (submits, status, watch streams) happens here.
            await asyncio.sleep(0)
        result = await call(campaign.finish_run)
        if isinstance(result, ParallelResult):
            # Barrier samples sum per-shard counts; journal the merged.
            job.execs, job.edges = result.total_execs, result.merged_edges
            job.unique_crashes = result.merged_unique_crashes
            job.unique_hangs = result.merged_unique_hangs
            digest = result.digest()
        else:
            digest = campaign.state_digest()
        await service.complete_job(job, digest)

    @staticmethod
    def _observe(job: JobRecord, progress: dict) -> None:
        """Mirror a campaign or barrier progress snapshot into the job
        row (same field names) and stream it as a sample."""
        sample = {key: progress[key] for key in (
            "clock_ns", "t_ns", "execs", "edges", "corpus",
            "unique_crashes", "unique_hangs",
        )}
        for key in sample.keys() - {"t_ns"}:
            setattr(job, key, sample[key])
        t_ns = sample["t_ns"]
        sample["execs_per_vsec"] = job.execs / (t_ns / 1e9) if t_ns else 0.0
        job.add_sample(sample)

    def _poll_overrun(self, job: JobRecord) -> None:
        """Chaos ``clock-overrun``: the service observes the job
        overrunning its slice and bills the tenant for one extra slice
        — service-side accounting only, the campaign's virtual
        timeline is untouched."""
        service = self.service
        if service.faults is not None and service.faults.poll(
                "clock-overrun"):
            overrun_ns = service.config.policy.slice_ns
            job.overrun_ns += overrun_ns
            service.ledger.charge_overrun(job.spec.tenant, overrun_ns)
            service.note_event(
                "service.job.overrun", job=job.job_id,
                overrun_ns=overrun_ns,
            )


async def _on_loop(fn, *args):
    """Run *fn* on the event loop (a single campaign's slice is short)."""
    return fn(*args)
