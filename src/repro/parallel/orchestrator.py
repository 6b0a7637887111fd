"""The multi-worker campaign orchestrator.

:class:`ParallelCampaign` shards one fuzzing campaign across
``n_workers`` shards — one main instance plus secondaries, AFL++'s
``-M``/``-S`` topology — and advances the fleet in lockstep *rounds* of
``sync_every_ns`` virtual nanoseconds.  At each round boundary (a sync
barrier) every worker reports its discoveries, the :class:`SyncHub`
merges them deterministically, and globally novel inputs are broadcast
back out (with backpressure) for workers to adopt at the start of the
next round.

**The scheduler is virtual-clock-aware**: round deadlines are absolute
instants on each worker's own virtual clock (``min(budget, (r + 1) *
sync_every)``), so where a worker pauses is a property of its virtual
timeline, not of host scheduling.  Combined with the hub's shard-order
merge, the whole run — merged coverage, corpus hashes, crash set — is
bit-reproducible for a fixed ``(seed, n_workers, sync_every)`` tuple,
whichever transport executes it:

- :class:`InlineTransport` runs every worker in-process, sequentially —
  zero IPC, the reference semantics, and what the determinism tests
  compare everything against;
- :class:`ProcessTransport` runs each worker in its own **spawned**
  process for real wall-clock parallelism, detects workers that die
  mid-round, and transparently replaces them from their last barrier
  snapshot — the round replays identically, so a crash costs wall-clock
  time but never determinism.

A fleet answers :class:`~repro.fuzzing.Campaign`'s driver surface:
``start``, ``step_until`` whole rounds a slice at a time,
``checkpoint`` between slices, ``progress``, ``finish_run``, ``run``.
Coordinated multi-shard checkpoints persist hub + all shard barrier
states (RPRCKPT1 framing, CRC, rotation); :meth:`ParallelCampaign.resume`
continues bit-identically even if any subset of workers — or the
orchestrator itself — was killed, and :meth:`ParallelCampaign.open`
resumes or starts fresh from the configured path.  The fleet's
:class:`ParallelConfig` is also the recipe :func:`open_campaign` opens
as one campaign.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.execution import MECHANISMS, Executor, build_executor
from repro.fuzzing import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    CheckpointError,
)
from repro.fuzzing.checkpoint import (
    CHECKPOINT_VERSION,
    load_checkpoint,
    save_state,
)
from repro.fuzzing.coverage import VirginMap
from repro.fuzzing.triage import CrashReport, CrashTriage
from repro.integrity import EscalationPolicy
from repro.parallel.reporter import ParallelReporter
from repro.parallel.sync import RoundReport, SyncHub, SyncStats
from repro.parallel.worker import (
    WorkerConfig,
    WorkerFinal,
    WorkerRuntime,
    derive_worker_seed,
    worker_process_main,
)
from repro.sim_os import Kernel
from repro.targets import get_target
from repro.telemetry import TelemetryConfig

PARALLEL_CHECKPOINT_KIND = "parallel"


@dataclass
class ParallelConfig:
    """The recipe of one campaign, one worker or a fleet: what
    :func:`open_campaign` opens, and what every shard of a fleet runs
    under."""

    target: str
    n_workers: int = 4
    seed: int = 0
    budget_ns: int = 50_000_000       # per-worker virtual budget
    sync_every_ns: int = 10_000_000   # barrier cadence (virtual ns)
    mechanism: str = "closurex"
    use_processes: bool = False       # spawn real worker processes
    supervised: bool = True
    chaos_faults: int = 0             # per-worker fault-plan length
    sentinel_digest_every: int = 0    # integrity sentinel cadence
    report_dir: str | None = None     # merged fuzzer_stats directory
    per_worker_reports: bool = False  # worker_N/ subdirectories too
    # A lone campaign's checkpoint, or the fleet's coordinated one
    # written at sync barriers.
    checkpoint_path: str | None = None
    # Shared content-addressed corpus store root: workers put payloads
    # there and the sync exchange goes hash-only (see
    # repro.parallel.sync); None = payloads ride the wire as before.
    corpus_store_root: str | None = None
    # CampaignConfig field overrides every worker runs under, shaped
    # like an experiment arm's ((field, value), ...).
    overrides: tuple[tuple[str, object], ...] = ()
    # Test hook: per-worker death rounds (replacement tests; maps
    # shard_id -> round_index, process transport only).
    die_at_rounds: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.sync_every_ns < 1:
            raise ValueError("sync_every_ns must be >= 1")
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")

    def worker_config(self, shard_id: int) -> WorkerConfig:
        """Shard *shard_id*'s config: this recipe plus the shard id."""
        return WorkerConfig(self, shard_id, self.die_at_rounds.get(shard_id))

    def build_executor(self, shard_id: int | None = None) -> Executor:
        """A lone campaign's executor ladder (*shard_id* None), or a
        shard's: its fault plan seeded with the shard seed, and a
        forkserver fallback for ClosureX.  An armed sentinel keeps the
        policy's shadow cadence."""
        shard = shard_id is not None
        return build_executor(
            self.target, self.mechanism, Kernel(),
            supervised=self.supervised,
            chaos_seed=(derive_worker_seed(self.seed, shard_id) if shard
                        else self.seed),
            chaos_faults=self.chaos_faults,
            sentinel_digest_every=self.sentinel_digest_every,
            sentinel_shadow_every=(EscalationPolicy.shadow_every
                                   if self.sentinel_digest_every else 0),
            forkserver_fallback=shard,
        )

    def campaign_config(self, shard_id: int | None = None) -> CampaignConfig:
        """The CampaignConfig of a lone campaign (*shard_id* None), or
        of one shard, with the overrides applied."""
        if shard_id is None:
            config = CampaignConfig(budget_ns=self.budget_ns, seed=self.seed,
                                    checkpoint_path=self.checkpoint_path)
        else:
            config = CampaignConfig(
                budget_ns=self.budget_ns,
                seed=derive_worker_seed(self.seed, shard_id),
                shard_id=shard_id,
            )
            if self.per_worker_reports and self.report_dir is not None:
                config.telemetry = TelemetryConfig(
                    enabled=True, sink="null",
                    report_dir=f"{self.report_dir}/worker_{shard_id}",
                )
        return replace(config, **dict(self.overrides))


def open_campaign(config: ParallelConfig,
                  resume: bool = True) -> Campaign | ParallelCampaign:
    """Open *config* as a lone :class:`~repro.fuzzing.Campaign` for one
    worker (the fleet-only fields do not apply), a fleet for more.  With
    *resume* it continues from a checkpoint that loads at
    ``checkpoint_path``; without, it never reads that path."""
    resume = resume and config.checkpoint_path is not None
    if config.n_workers > 1:
        return ParallelCampaign.open(config) if resume \
            else ParallelCampaign(config)
    opener = Campaign.open if resume else Campaign
    return opener(config.build_executor(), get_target(config.target).seeds,
                  config.campaign_config())


@dataclass
class ParallelResult:
    """Everything a finished multi-worker campaign knows."""

    target: str
    mechanism: str
    n_workers: int
    seed: int
    budget_ns: int
    sync_every_ns: int
    rounds: int
    workers: list[CampaignResult]
    total_execs: int
    merged_edges: int
    merged_unique_crashes: int
    merged_unique_hangs: int
    crash_reports: list[CrashReport]  # the merged triage's, in its order
    corpus_hashes: list[str]          # union over shards, sorted
    merged_virgin_bytes: bytes
    sync: SyncStats
    replacements: int = 0             # dead workers healed mid-run
    resumed: bool = False

    @property
    def aggregate_execs_per_vsecond(self) -> float:
        """Fleet throughput against the shared virtual wall: every
        worker fuzzes the same ``budget_ns`` window concurrently, so
        the aggregate rate is total execs over *one* budget."""
        if self.budget_ns == 0:
            return 0.0
        return self.total_execs / (self.budget_ns / 1e9)

    @property
    def merged_crash_identities(self) -> list[tuple]:
        """Sorted (kind, function, block) of every merged unique crash."""
        return sorted(
            (r.kind.value, r.function, r.identity[2])
            for r in self.crash_reports
        )

    def digest(self) -> str:
        """Stable fingerprint of everything 'bit-identical' means for a
        merged run: coverage, corpus contents, crash set, exec counts."""
        h = hashlib.sha256()
        h.update(self.merged_virgin_bytes)
        for key in self.corpus_hashes:
            h.update(key.encode())
        for identity in self.merged_crash_identities:
            h.update(repr(identity).encode())
        h.update(str(self.total_execs).encode())
        for result in self.workers:
            h.update(
                f"{result.execs}:{result.edges_found}:"
                f"{result.unique_crashes}:{result.elapsed_ns}".encode()
            )
        return h.hexdigest()

    def merged(self) -> CampaignResult:
        """The fleet as one campaign's result: merged coverage, corpus
        and crash/hang dedup, summed execs and ladder counters, and the
        longest shard's elapsed time."""
        workers = self.workers
        return CampaignResult(
            mechanism=self.mechanism,
            execs=self.total_execs,
            budget_ns=self.budget_ns,
            elapsed_ns=max(r.elapsed_ns for r in workers),
            corpus_size=len(self.corpus_hashes),
            edges_found=self.merged_edges,
            unique_crashes=self.merged_unique_crashes,
            total_crashes=sum(r.total_crashes for r in workers),
            unique_hangs=self.merged_unique_hangs,
            total_hangs=sum(r.total_hangs for r in workers),
            recoveries=sum(r.recoveries for r in workers),
            quarantined_inputs=sum(r.quarantined_inputs for r in workers),
            crash_reports=self.crash_reports,
        )


# ----------------------------------------------------------------------
# transports
# ----------------------------------------------------------------------

class InlineTransport:
    """All workers live in this process; rounds run sequentially.

    This is the reference implementation of the worker protocol: no
    IPC, no replacement (nothing can die), and — because every worker
    is a pure function of its config and imports — results identical
    to :class:`ProcessTransport`.
    """

    def __init__(self, configs: list[WorkerConfig]):
        self.configs = configs
        self.runtimes: list[WorkerRuntime] = []
        self.replacements = 0

    def start(self, states: list[bytes | None]) -> list[RoundReport]:
        self.runtimes = [
            WorkerRuntime(config, state=state)
            for config, state in zip(self.configs, states)
        ]
        return [runtime.start() for runtime in self.runtimes]

    def round(self, commands: list[tuple[int, int, list[bytes]]],
              barrier_states: list[bytes | None]) -> list[RoundReport]:
        return [
            runtime.run_round(round_index, deadline_ns, imports)
            for runtime, (round_index, deadline_ns, imports)
            in zip(self.runtimes, commands)
        ]

    def finish(self) -> list[WorkerFinal]:
        return [runtime.finish() for runtime in self.runtimes]

    def stop(self) -> None:
        """Abandon the fleet without finishing."""
        self.runtimes = []


#: Wall-clock seconds a worker process may take to answer one command
#: before the orchestrator declares it dead and replaces it.
WORKER_TIMEOUT_S = 300.0


class ProcessTransport:
    """One spawned process per worker; commands over pipes.

    The spawn start method (never fork) keeps children independent of
    the orchestrator's heap — each rebuilds its target from the
    registry — which is both the portability-safe choice and what makes
    worker state restoration honest.

    Failure handling: a worker that dies mid-round (crash, OOM-kill,
    the ``die_at_round`` hook) is detected when its reply never comes,
    and replaced by a fresh process restored from the dead worker's
    last barrier snapshot; the pending round command is re-issued and
    replays bit-identically.
    """

    def __init__(self, configs: list[WorkerConfig]):
        import multiprocessing
        self.configs = list(configs)
        self.context = multiprocessing.get_context("spawn")
        self.processes: list = [None] * len(configs)
        self.conns: list = [None] * len(configs)
        self.replacements = 0

    # -- process plumbing ------------------------------------------------

    def _spawn(self, shard_id: int) -> None:
        parent_conn, child_conn = self.context.Pipe()
        process = self.context.Process(
            target=worker_process_main,
            args=(child_conn, self.configs[shard_id]),
            name=f"repro-worker-{shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.processes[shard_id] = process
        self.conns[shard_id] = parent_conn

    def _send(self, shard_id: int, message) -> bool:
        try:
            self.conns[shard_id].send(message)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _recv(self, shard_id: int, expected: str):
        """One reply, or None if the worker is dead/wedged."""
        conn = self.conns[shard_id]
        process = self.processes[shard_id]
        try:
            deadline_budget = WORKER_TIMEOUT_S
            while not conn.poll(min(0.05, deadline_budget)):
                deadline_budget -= 0.05
                if deadline_budget <= 0 or not process.is_alive():
                    if process.is_alive():
                        process.terminate()
                    return None
            kind, payload = conn.recv()
        except (EOFError, OSError):
            return None
        if kind != expected:
            raise RuntimeError(
                f"worker {shard_id} answered {kind!r}, expected {expected!r}"
            )
        return payload

    def _reap(self, shard_id: int) -> None:
        process = self.processes[shard_id]
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout=10)
        conn = self.conns[shard_id]
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def _replace(self, shard_id: int, barrier_state: bytes | None,
                 pending_command) -> RoundReport:
        """Heal a dead worker: fresh process, restore, replay round."""
        self._reap(shard_id)
        self.replacements += 1
        # The replacement must not inherit the death sentence, or it
        # would die forever on the same round.
        self.configs[shard_id] = replace(
            self.configs[shard_id], die_at_round=None
        )
        self._spawn(shard_id)
        if not self._send(shard_id, ("start", barrier_state)):
            raise RuntimeError(f"replacement worker {shard_id} unreachable")
        started = self._recv(shard_id, "started")
        if started is None:
            raise RuntimeError(f"replacement worker {shard_id} died booting")
        if not self._send(shard_id, pending_command):
            raise RuntimeError(f"replacement worker {shard_id} lost")
        report = self._recv(shard_id, "round")
        if report is None:
            raise RuntimeError(
                f"replacement worker {shard_id} died replaying its round"
            )
        return report

    # -- transport interface ---------------------------------------------

    def start(self, states: list[bytes | None]) -> list[RoundReport]:
        for shard_id in range(len(self.configs)):
            self._spawn(shard_id)
        for shard_id, state in enumerate(states):
            self._send(shard_id, ("start", state))
        reports = []
        for shard_id in range(len(self.configs)):
            payload = self._recv(shard_id, "started")
            if payload is None:
                raise RuntimeError(f"worker {shard_id} failed to start")
            reports.append(payload)
        return reports

    def round(self, commands: list[tuple[int, int, list[bytes]]],
              barrier_states: list[bytes | None]) -> list[RoundReport]:
        # Fan out first — this is where the wall-clock parallelism is —
        # then collect; failures surface as missing replies and are
        # healed from the barrier snapshots.
        wire = [("round", *command) for command in commands]
        alive = [self._send(shard_id, message)
                 for shard_id, message in enumerate(wire)]
        reports: list[RoundReport] = []
        for shard_id, message in enumerate(wire):
            payload = (
                self._recv(shard_id, "round") if alive[shard_id] else None
            )
            if payload is None:
                payload = self._replace(
                    shard_id, barrier_states[shard_id], message
                )
            reports.append(payload)
        return reports

    def finish(self) -> list[WorkerFinal]:
        for shard_id in range(len(self.configs)):
            self._send(shard_id, ("finish",))
        finals = []
        for shard_id in range(len(self.configs)):
            payload = self._recv(shard_id, "finished")
            if payload is None:
                raise RuntimeError(f"worker {shard_id} died finishing")
            finals.append(payload)
        self.stop()
        return finals

    def stop(self) -> None:
        for shard_id in range(len(self.configs)):
            if self.conns[shard_id] is not None:
                self._send(shard_id, ("stop",))
        for shard_id in range(len(self.configs)):
            self._reap(shard_id)


# ----------------------------------------------------------------------
# the orchestrator
# ----------------------------------------------------------------------

class ParallelCampaign:
    """One sharded fuzzing campaign (see module docstring), driven
    like a :class:`~repro.fuzzing.Campaign`."""

    #: Barrier instants are shard-clock instants, counted from zero.
    start_ns = 0

    def __init__(self, config: ParallelConfig):
        """Open a fresh fleet; :meth:`start` it next."""
        self.config = config
        self.store = None
        if config.corpus_store_root is not None:
            from repro.store import CorpusStore
            self.store = CorpusStore(config.corpus_store_root)
        self.hub = SyncHub(config.n_workers, store=self.store)
        self.round_index = 0
        self.barrier_states: list[bytes | None] = [None] * config.n_workers
        self.reports: list[RoundReport] = []   # the last barrier's
        self.reporter = (
            ParallelReporter(config.report_dir, config)
            if config.report_dir is not None else None
        )
        self.resumed = False
        self._transport = None

    # -- opening -------------------------------------------------------------

    @classmethod
    def resume(cls, path: str,
               config: ParallelConfig | None = None) -> "ParallelCampaign":
        """Rebuild a parallel campaign from a coordinated checkpoint; it
        then continues bit-identically to the uninterrupted run — every
        shard restores its barrier snapshot, the hub restores its
        novelty filter and outboxes, and the round loop re-enters where
        it left off."""
        state = load_checkpoint(path)
        if state.get("kind") != PARALLEL_CHECKPOINT_KIND:
            raise CheckpointError(
                f"{path!r} is not a parallel campaign checkpoint"
            )
        saved = state["config"]
        if config is None:
            config = saved
        elif (config.target, config.n_workers, config.seed,
              config.budget_ns, config.sync_every_ns, config.overrides) != (
                  saved.target, saved.n_workers, saved.seed,
                  saved.budget_ns, saved.sync_every_ns, saved.overrides):
            raise CheckpointError(
                "checkpoint was recorded under a different (target, "
                "n_workers, seed, budget, sync_every, overrides) tuple"
            )
        campaign = cls(config)
        campaign.hub = SyncHub.from_state(state["hub"], store=campaign.store)
        campaign.round_index = state["round_index"]
        campaign.barrier_states = list(state["barrier_states"])
        campaign.resumed = True
        return campaign

    @classmethod
    def open(cls, config: ParallelConfig) -> "ParallelCampaign":
        """Resume from ``config.checkpoint_path`` when a checkpoint of
        this fleet loads there, else open fresh (digest-equivalent by
        determinism)."""
        try:
            return cls.resume(config.checkpoint_path, config)
        except CheckpointError:
            return cls(config)

    def checkpoint(self, path: str | None = None) -> str:
        """Persist the fleet at its last barrier; returns the path."""
        path = path if path is not None else self.config.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint path configured")
        # Strip the test hook from the persisted config: a resumed run
        # must not re-kill.
        persisted = replace(self.config, die_at_rounds={})
        save_state(
            {
                "version": CHECKPOINT_VERSION,
                "kind": PARALLEL_CHECKPOINT_KIND,
                "config": persisted,
                "round_index": self.round_index,
                "hub": self.hub.snapshot_state(),
                "barrier_states": list(self.barrier_states),
            },
            path,
        )
        return path

    # -- the driver surface --------------------------------------------------

    @property
    def now_ns(self) -> int:
        """The last barrier's instant."""
        return min(self.config.budget_ns,
                   self.round_index * self.config.sync_every_ns)

    @property
    def deadline_ns(self) -> int:
        """The budget: the last barrier's instant."""
        return self.config.budget_ns

    def start(self) -> None:
        """Bring up the workers, fresh or from their barrier snapshots."""
        config = self.config
        configs = [
            config.worker_config(shard) for shard in range(config.n_workers)
        ]
        self._transport = (
            ProcessTransport(configs) if config.use_processes
            else InlineTransport(configs)
        )
        if self.resumed:
            # The hub already carries the sync state matching the
            # restored snapshots.
            self.reports = self._transport.start(list(self.barrier_states))
        else:
            self.hub.register_seeds(
                [bytes(s) for s in get_target(config.target).seeds]
            )
            self._absorb(self._transport.start([None] * config.n_workers))

    def step_until(self, until_ns: int) -> bool:
        """Run whole sync rounds until the last barrier is at or past
        *until_ns*, clamped to the budget; returns whether a round ran.
        A slice shorter than a round still runs one round."""
        until_ns = min(until_ns, self.deadline_ns)
        ran = False
        while self.now_ns < until_ns:
            self._round()
            ran = True
        return ran

    def progress(self) -> dict:
        """The fleet's counters at the last barrier, shaped like
        :meth:`~repro.fuzzing.Campaign.progress`.  Crash and hang
        counts are per-shard sums (shards report no total hangs)."""
        reports = self.reports
        return {
            "clock_ns": self.now_ns,
            "t_ns": self.now_ns,
            "execs": sum(r.execs for r in reports),
            "edges": self.hub.virgin.edges_found(),
            "corpus": len(self.hub.corpus_hashes()),
            "unique_crashes": sum(r.unique_crashes for r in reports),
            "total_crashes": sum(r.total_crashes for r in reports),
            "unique_hangs": sum(r.unique_hangs for r in reports),
            "total_hangs": 0,
        }

    def finish_run(self) -> ParallelResult:
        """Finish every shard and merge their results."""
        transport = self._transport
        finals = sorted(transport.finish(), key=lambda f: f.shard_id)
        result = self._merge(finals, transport.replacements)
        if self.reporter is not None:
            self.reporter.finalize(result)
        return result

    def run(self) -> ParallelResult:
        """Drive the fleet to the budget deadline and merge, with a
        checkpoint after seeding and at every barrier when
        ``checkpoint_path`` is set."""
        checkpointing = self.config.checkpoint_path is not None
        try:
            self.start()
            if checkpointing and not self.resumed:
                # Barrier-0 baseline, same rationale as Campaign.run's
                # post-seeding checkpoint.
                self.checkpoint()
            while self.step_until(self.now_ns + 1):   # one round per call
                if checkpointing:
                    self.checkpoint()
            return self.finish_run()
        finally:
            if self._transport is not None:
                self._transport.stop()

    def _round(self) -> None:
        config = self.config
        round_index = self.round_index
        deadline_ns = min(
            config.budget_ns, (round_index + 1) * config.sync_every_ns
        )
        commands = [
            (round_index, deadline_ns, self.hub.drain(shard))
            for shard in range(config.n_workers)
        ]
        reports = self._transport.round(commands, list(self.barrier_states))
        self._absorb(reports)
        self.round_index = round_index + 1
        if self.reporter is not None:
            self.reporter.barrier(self.round_index, reports, self.hub)

    def _absorb(self, reports: list[RoundReport]) -> None:
        self.hub.ingest(reports)
        self.reports = reports
        for report in reports:
            self.barrier_states[report.shard_id] = report.state

    # -- merging -------------------------------------------------------------

    def _merge(self, finals: list[WorkerFinal],
               replacements: int) -> ParallelResult:
        merged_virgin = VirginMap()
        merged_triage = CrashTriage()
        corpus_hashes: set[str] = set()
        for final in finals:
            merged_virgin.merge(VirginMap.from_bytes(final.virgin_bytes))
            merged_triage.merge(final.triage)
            corpus_hashes.update(final.corpus_hashes)
        results = [final.result for final in finals]
        return ParallelResult(
            target=self.config.target,
            mechanism=self.config.mechanism,
            n_workers=self.config.n_workers,
            seed=self.config.seed,
            budget_ns=self.config.budget_ns,
            sync_every_ns=self.config.sync_every_ns,
            rounds=self.round_index,
            workers=results,
            total_execs=sum(r.execs for r in results),
            merged_edges=merged_virgin.edges_found(),
            merged_unique_crashes=merged_triage.unique_count,
            merged_unique_hangs=merged_triage.unique_hang_count,
            crash_reports=merged_triage.reports(),
            corpus_hashes=sorted(corpus_hashes),
            merged_virgin_bytes=merged_virgin.to_bytes(),
            sync=self.hub.stats,
            replacements=replacements,
            resumed=self.resumed,
        )
