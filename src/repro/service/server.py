"""The fuzzing server: admission, RPC surface, recovery, drain.

:class:`FuzzService` is the long-lived asyncio process at the centre of
campaign-as-a-service: it listens on a TCP endpoint speaking the
newline-JSON-RPC protocol, admits tenant jobs through the quota ledger
and the bounded queue, dispatches them to the cooperative worker pool,
and keeps every accepted job durable in the journal so that a
``kill -9`` at any instant loses nothing.

The life of a submit, in order — the order *is* the durability
contract:

1. validate the spec (``BAD_REQUEST`` on nonsense);
2. check the queue bound (``QUEUE_FULL`` + ``retry_after_ms``);
3. reserve tenant quota (``QUOTA_EXCEEDED`` + ``retry_after_ms``);
4. **journal the acceptance with fsync**;
5. enqueue for dispatch;
6. answer the client with the job id.

Steps 1–3 reject with no state created; once step 4 returns, the job
survives any crash.  On start the server replays the journal: terminal
jobs become finished rows (digests intact), open jobs are re-admitted
in submission order and resume from their newest loadable checkpoint
generation — bit-identical to the uninterrupted run, because
service-plane faults never touch a campaign's virtual clock.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.chaos.plan import FaultInjector, FaultPlan
from repro.service import protocol, scheduler
from repro.service.protocol import (
    ProtocolError,
    ServiceError,
    encode_frame,
    read_frame,
)
from repro.service.quotas import QuotaExceeded, QuotaLedger
from repro.service.recovery import ServiceState
from repro.service.scheduler import (
    JobRecord,
    JobScheduler,
    JobSpec,
    JobState,
    QueueFull,
)
from repro.service.worker_pool import WorkerPool
from repro.telemetry import (
    NULL_TELEMETRY,
    TelemetryConfig,
    WallClock,
    build_telemetry,
)

#: Wall-clock seconds between reconcile passes that re-enqueue lost
#: dispatches (chaos ``queue-drop``).
RECONCILE_S = 0.1


@dataclass
class ServicePolicy:
    """The worker pool's robustness knobs (failure ladder + cadence);
    the ladder's backoff is fixed by :mod:`repro.service.worker_pool`."""

    slice_ns: int = 2_000_000          # virtual ns per cooperative slice
    checkpoint_every_slices: int = 2   # slice cadence of durable ckpts
    watchdog_s: float = 30.0           # wall-clock deadline per slice
    restart_step_limit: int = 2        # strikes handled by rung 1
    max_respawns: int = 1              # rung-2 budget before quarantine


@dataclass
class ServiceConfig:
    """Everything one server instance needs to run."""

    state_dir: str
    host: str = "127.0.0.1"
    port: int = 0                       # 0 = ephemeral, advertised in
    workers: int = 2                    # endpoint.json
    max_queued: int = 8                 # backlog bound (backpressure)
    default_quota_ns: int = 2_000_000_000
    tenant_quotas: dict[str, int] = field(default_factory=dict)
    chaos_plan: FaultPlan | None = None  # service-plane fault schedule
    trace_path: str | None = None       # JSONL trace of service events
    policy: ServicePolicy = field(default_factory=ServicePolicy)


class FuzzService:
    """One serving instance (see module docstring).

    Use :meth:`run` as the whole lifecycle (start, serve until asked to
    stop, clean up), or :meth:`start` / :meth:`request_stop` /
    :meth:`cleanup` individually for in-process embedding.
    """

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.state = ServiceState(config.state_dir)
        self.faults = (
            FaultInjector(config.chaos_plan)
            if config.chaos_plan is not None else None
        )
        self.telemetry = (
            build_telemetry(
                TelemetryConfig(
                    enabled=True, sink="jsonl",
                    jsonl_path=config.trace_path,
                ),
                WallClock(),
            )
            if config.trace_path is not None else NULL_TELEMETRY
        )
        self.ledger = QuotaLedger(
            config.default_quota_ns, config.tenant_quotas
        )
        self.scheduler = JobScheduler(config.max_queued, faults=self.faults)
        self.pool = WorkerPool(self)
        self.draining = False
        self.recovered_jobs = 0
        self.endpoint: tuple[str, int] | None = None
        self.started = asyncio.Event()
        self._stop = asyncio.Event()
        self._server = None
        self._reconcile_task = None

    # -- telemetry shims --------------------------------------------------

    def note_event(self, name: str, **attrs) -> None:
        """One service-plane trace event + matching counter."""
        self.telemetry.tracer.event(name, **attrs)
        self.telemetry.metrics.counter(name).inc()

    def note_tenant(self, tenant: str, what: str) -> None:
        """Per-tenant counter (``service.tenant.<tenant>.<what>``)."""
        self.telemetry.metrics.counter(
            f"service.tenant.{tenant}.{what}"
        ).inc()

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Recover, spawn workers, bind the socket, advertise it."""
        self.scheduler.bind(asyncio.Queue())
        self._recover()
        await self.pool.start(self.config.workers)
        self._reconcile_task = asyncio.create_task(
            self._reconcile_loop(), name="svc-reconcile"
        )
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        port = self._server.sockets[0].getsockname()[1]
        self.endpoint = (self.config.host, port)
        self.state.write_endpoint(*self.endpoint)
        self.note_event(
            "service.start", port=port, recovered=self.recovered_jobs
        )
        self.started.set()

    async def run(self) -> None:
        """The whole lifecycle: start, serve until stopped, clean up."""
        await self.start()
        try:
            await self._stop.wait()
        finally:
            await self.cleanup()

    def request_stop(self) -> None:
        """Ask the serving loop to wind down (idempotent)."""
        self._stop.set()

    async def cleanup(self) -> None:
        """Stop workers, close the socket, flush telemetry.  Workers
        stop first so a crash-style stop (no drain) cannot let jobs
        race to completion while the socket winds down."""
        if self.pool.tasks:
            self.pool.abort()
            await asyncio.gather(
                *self.pool.tasks, return_exceptions=True
            )
            self.pool.tasks = []
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._reconcile_task is not None:
            self._reconcile_task.cancel()
            await asyncio.gather(
                self._reconcile_task, return_exceptions=True
            )
            self._reconcile_task = None
        self.telemetry.flush()
        self.telemetry.close()

    # -- recovery ---------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal into the job table and the ledger.

        Terminal jobs come back as finished rows (their digests are the
        golden baseline); open jobs are re-admitted with their original
        ids in original submission order, so the recovered server is
        indistinguishable — digest for digest — from one that never
        died.
        """
        open_jobs, terminal = self.state.replay()
        for job_id in sorted(terminal):
            record = terminal[job_id]
            spec = JobSpec.from_params(record["spec"])
            self.scheduler.note_recovered_id(job_id)
            row = JobRecord(job_id=job_id, spec=spec)
            row.state = (
                JobState.DONE if record["kind"] == "completed"
                else JobState.QUARANTINED
            )
            row.digest = record.get("digest")
            row.execs = record.get("execs", 0)
            row.edges = record.get("edges", 0)
            row.unique_crashes = record.get("unique_crashes", 0)
            row.clock_ns = record.get("elapsed_ns", 0)
            row.quarantine_reason = record.get("reason")
            row.dispatched = True
            self.scheduler.jobs[job_id] = row
            account = self.ledger.account(spec.tenant)
            account.submitted += 1
            self.ledger.reserve(
                spec.tenant, job_id, spec.budget_ns, force=True
            )
            if row.state is JobState.DONE:
                self.ledger.charge(
                    spec.tenant, job_id,
                    record.get("elapsed_ns", spec.budget_ns),
                )
            self.ledger.settle(
                spec.tenant, job_id, spec.budget_ns,
                quarantined=row.state is JobState.QUARANTINED,
            )
        for record in open_jobs:
            job_id = record["job_id"]
            spec = JobSpec.from_params(record["spec"])
            self.scheduler.note_recovered_id(job_id)
            account = self.ledger.account(spec.tenant)
            account.submitted += 1
            self.ledger.reserve(
                spec.tenant, job_id, spec.budget_ns, force=True
            )
            self.scheduler.admit(spec, job_id=job_id)
            self.recovered_jobs += 1
            self.note_event(
                "service.job.recovered", job=job_id, tenant=spec.tenant
            )

    async def _reconcile_loop(self) -> None:
        """Periodically heal lost dispatches (chaos ``queue-drop``)."""
        while True:
            await asyncio.sleep(RECONCILE_S)
            recovered = self.scheduler.reconcile()
            if recovered:
                self.note_event(
                    "service.reconcile.requeued", count=recovered
                )

    # -- job terminal states (called by the worker pool) ------------------

    async def complete_job(self, job: JobRecord, digest: str) -> None:
        """Journal a job done (durably) and settle its quota."""
        spec = job.spec
        job.digest = digest
        job.state = JobState.DONE
        elapsed_ns = self.ledger.account(spec.tenant).job_consumed.get(
            job.job_id, 0
        )
        self.state.journal.append({
            "kind": "completed",
            "job_id": job.job_id,
            "tenant": spec.tenant,
            "spec": spec.to_wire(),
            "digest": digest,
            "execs": job.execs,
            "edges": job.edges,
            "unique_crashes": job.unique_crashes,
            "elapsed_ns": elapsed_ns,
        })
        self.ledger.settle(spec.tenant, job.job_id, spec.budget_ns)
        job.version += 1
        self.note_event(
            "service.job.complete", job=job.job_id, tenant=spec.tenant,
            digest=digest, execs=job.execs,
        )
        self.note_tenant(spec.tenant, "completed")

    async def quarantine_job(self, job: JobRecord, reason: str) -> None:
        """Rung 3 of the ladder: journal the job out of the system."""
        spec = job.spec
        job.state = JobState.QUARANTINED
        job.quarantine_reason = reason
        self.state.journal.append({
            "kind": "quarantined",
            "job_id": job.job_id,
            "tenant": spec.tenant,
            "spec": spec.to_wire(),
            "reason": reason,
        })
        self.ledger.settle(
            spec.tenant, job.job_id, spec.budget_ns, quarantined=True
        )
        job.version += 1
        self.note_event(
            "service.job.quarantine", job=job.job_id,
            tenant=spec.tenant, reason=reason,
        )
        self.note_tenant(spec.tenant, "quarantined")

    # -- the RPC surface --------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except ProtocolError as error:
                    writer.write(encode_frame({
                        "id": None,
                        "error": ServiceError(
                            protocol.BAD_REQUEST, str(error)
                        ).to_wire(),
                    }))
                    await writer.drain()
                    break
                if frame is None:
                    break
                request_id = frame.get("id")
                method = frame.get("method")
                params = frame.get("params") or {}
                try:
                    if method == "watch":
                        result = await self._rpc_watch(params, writer)
                    else:
                        result = await self._dispatch(method, params)
                    response = {"id": request_id, "result": result}
                except ServiceError as error:
                    response = {
                        "id": request_id, "error": error.to_wire()
                    }
                except (TypeError, ValueError) as error:
                    response = {
                        "id": request_id,
                        "error": ServiceError(
                            protocol.BAD_REQUEST, str(error)
                        ).to_wire(),
                    }
                except (ConnectionResetError, BrokenPipeError):
                    break
                except Exception as error:
                    response = {
                        "id": request_id,
                        "error": ServiceError(
                            protocol.INTERNAL, repr(error)
                        ).to_wire(),
                    }
                writer.write(encode_frame(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass   # loop shutdown mid-connection: end the task cleanly
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, OSError, asyncio.CancelledError):
                pass

    async def _dispatch(self, method: str, params: dict) -> dict:
        handlers = {
            "ping": self._rpc_ping,
            "submit": self._rpc_submit,
            "status": self._rpc_status,
            "stats": self._rpc_stats,
            "tenants": self._rpc_tenants,
            "drain": self._rpc_drain,
            "shutdown": self._rpc_shutdown,
        }
        handler = handlers.get(method)
        if handler is None:
            raise ServiceError(
                protocol.UNKNOWN_METHOD, f"unknown method {method!r}"
            )
        return await handler(params)

    async def _rpc_ping(self, params: dict) -> dict:
        return {
            "ok": True,
            "draining": self.draining,
            "backlog": self.scheduler.backlog(),
        }

    async def _rpc_submit(self, params: dict) -> dict:
        """Admission (see module docstring for the ordering contract)."""
        try:
            spec = JobSpec.from_params(params)
        except (TypeError, ValueError) as error:
            raise ServiceError(protocol.BAD_REQUEST, str(error))
        account = self.ledger.account(spec.tenant)
        account.submitted += 1
        self.note_tenant(spec.tenant, "submitted")
        if self.draining:
            raise ServiceError(
                protocol.DRAINING, "server is draining; not accepting jobs"
            )
        try:
            self.scheduler.check_capacity()
        except QueueFull as error:
            account.rejected_queue += 1
            self.note_tenant(spec.tenant, "rejected_queue")
            raise ServiceError(
                protocol.QUEUE_FULL, str(error),
                retry_after_ms=error.retry_after_ms,
            )
        job_id = self.scheduler.next_job_id()
        try:
            self.ledger.reserve(spec.tenant, job_id, spec.budget_ns)
        except QuotaExceeded as error:
            self.note_tenant(spec.tenant, "rejected_quota")
            raise ServiceError(
                protocol.QUOTA_EXCEEDED, str(error),
                retry_after_ms=scheduler.RETRY_AFTER_MS,
            )
        # The durability point: fsynced before the client hears "yes".
        self.state.journal.append({
            "kind": "accepted",
            "job_id": job_id,
            "tenant": spec.tenant,
            "spec": spec.to_wire(),
        })
        record = self.scheduler.admit(spec, job_id=job_id)
        self.note_event(
            "service.job.accept", job=job_id, tenant=spec.tenant,
            target=spec.target, budget_ns=spec.budget_ns,
        )
        self.note_tenant(spec.tenant, "accepted")
        return {"job_id": job_id, "state": record.state.value}

    def _job_or_raise(self, params: dict) -> JobRecord:
        job_id = params.get("job_id")
        job = self.scheduler.status(job_id) if job_id else None
        if job is None:
            raise ServiceError(
                protocol.UNKNOWN_JOB, f"unknown job {job_id!r}"
            )
        return job

    async def _rpc_status(self, params: dict) -> dict:
        if params.get("job_id"):
            return self._job_or_raise(params).to_wire()
        return {
            "jobs": self.scheduler.rows(params.get("tenant")),
            "tenants": self.ledger.snapshot(),
            "service": self._service_stats(),
        }

    def _service_stats(self) -> dict:
        return {
            "draining": self.draining,
            "backlog": self.scheduler.backlog(),
            "workers": sum(
                1 for task in self.pool.tasks if not task.done()
            ),
            "respawns": self.pool.respawns,
            "queue_drops_recovered": self.scheduler.queue_drops_recovered,
            "recovered_jobs": self.recovered_jobs,
        }

    async def _rpc_stats(self, params: dict) -> dict:
        """AFL-flavoured live stats for one job (fuzzer_stats shape)."""
        job = self._job_or_raise(params)
        last = job.samples[-1] if job.samples else {}
        return {
            "job": job.to_wire(),
            "fuzzer_stats": {
                "execs_done": job.execs,
                "execs_per_sec": last.get("execs_per_vsec", 0.0),
                "paths_total": job.corpus,
                "edges_found": job.edges,
                "unique_crashes": job.unique_crashes,
                "unique_hangs": job.unique_hangs,
                "run_time_vns": job.clock_ns,
            },
            "samples": job.samples[-64:],
        }

    async def _rpc_tenants(self, params: dict) -> dict:
        return {"tenants": self.ledger.snapshot()}

    async def _rpc_watch(self, params: dict,
                         writer: asyncio.StreamWriter) -> dict:
        """Stream ``job.sample`` notifications until the job is
        terminal; the terminating response is the final job row."""
        job = self._job_or_raise(params)
        last_version = 0
        while True:
            if job.version > last_version:
                last_version = job.version
                if job.samples:
                    writer.write(encode_frame({
                        "method": "job.sample",
                        "params": {
                            "job_id": job.job_id, **job.samples[-1]
                        },
                    }))
                    await writer.drain()
            if job.state.terminal:
                return job.to_wire()
            await asyncio.sleep(0.02)

    async def _rpc_drain(self, params: dict) -> dict:
        """Graceful drain: stop admitting, finish the backlog, stop the
        workers, wind the server down.  The response reports the final
        tally and is sent before the socket closes."""
        self.draining = True
        self.note_event("service.drain.start",
                        backlog=self.scheduler.backlog())
        while self.scheduler.backlog() > 0:
            await asyncio.sleep(0.05)
        await self.pool.stop()
        self.note_event("service.drain.done")
        self.request_stop()
        jobs = list(self.scheduler.jobs.values())
        return {
            "drained": True,
            "jobs": len(jobs),
            "completed": sum(
                1 for job in jobs if job.state is JobState.DONE
            ),
            "quarantined": sum(
                1 for job in jobs if job.state is JobState.QUARANTINED
            ),
        }

    async def _rpc_shutdown(self, params: dict) -> dict:
        """Fast-but-clean stop: in-flight jobs stay journal-accepted
        and resume from their checkpoints on the next start."""
        self.note_event("service.shutdown")
        self.request_stop()
        return {"ok": True, "backlog": self.scheduler.backlog()}
