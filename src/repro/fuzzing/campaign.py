"""The fuzzing campaign driver.

Ties the pieces together the way ``afl-fuzz`` does: seed the queue, then
loop — select an entry, run its deterministic stage once, then havoc
with corpus-energy-scaled intensity — until the virtual time budget is
exhausted.  Mechanism-agnostic: any :class:`~repro.execution.Executor`
slots in, which is exactly the controlled comparison the paper's
evaluation needs.

:class:`Campaign` and :class:`~repro.parallel.ParallelCampaign` answer
one driver surface — ``open``, ``start``, ``step_until``,
``checkpoint``, ``progress``, ``finish_run``, ``run`` — so the service,
the experiment platform, fleet shards and the fuzzing CLI drive one
worker or many through the same loop.  Only callers write checkpoints:
``start`` and ``step_until`` never do, and ``run`` owns its cadence.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from dataclasses import dataclass, field

from repro.execution.common import (
    DEFAULT_EXEC_INSTRUCTION_LIMIT,
    ExecResult,
    Executor,
)
from repro.fuzzing.checkpoint import (
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)
from repro.fuzzing.corpus import Corpus, QueueEntry
from repro.fuzzing.coverage import VirginMap, coverage_signature
from repro.fuzzing.i2s import (
    THROTTLE_MIN_EXECS,
    THROTTLE_RATIO,
    I2SStage,
    StageStats,
)
from repro.fuzzing.mutators import HavocMutator, deterministic_mutations
from repro.fuzzing.triage import CrashTriage
from repro.store.objects import object_digest
from repro.telemetry import CampaignReporter, TelemetryConfig, build_telemetry


@dataclass
class CampaignConfig:
    """Tunables for one fuzzing run."""

    budget_ns: int = 200_000_000          # virtual time budget
    seed: int = 0                         # RNG seed (per-trial variation)
    # Shard identity when this campaign is one worker of a parallel
    # run (repro.parallel); 0 for a standalone campaign and for the
    # main instance, AFL++'s -M/-S convention.
    shard_id: int = 0
    # AFL++ skips the deterministic stage by default (its -D flag turns
    # it back on); we match that default.
    enable_deterministic: bool = False
    det_stage_cap: int = 512              # cap det stage execs per entry
    # AFL++ trims queue entries before fuzzing them: remove chunks while
    # the coverage signature stays identical.
    enable_trim: bool = True
    trim_exec_cap: int = 48               # cap trim execs per entry
    havoc_base_energy: int = 48
    max_input_size: int = 1024
    # Per-test-case instruction budget (hang watchdog), applied to the
    # executor at campaign start — AFL's -t, in instructions.
    exec_instruction_limit: int = DEFAULT_EXEC_INSTRUCTION_LIMIT
    # Crash-safe checkpointing: when a path is set, run() atomically
    # persists campaign state after seeding and every
    # checkpoint_interval_ns of virtual time (two generations, path and
    # path.1), and Campaign.resume(path, executor) continues
    # bit-identically.
    checkpoint_path: str | None = None
    checkpoint_interval_ns: int = 50_000_000
    # Observability; the default is the shared null stack (zero events,
    # zero files, no measurable overhead).
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    # Content-addressed corpus persistence: a live
    # :class:`repro.store.CorpusStore` (duck-typed ``put(data, owner)``)
    # into which every queue entry's payload is stored under
    # ``corpus_owner``, deduplicating identical inputs across
    # campaigns, shards, and tenants and letting the parallel sync
    # protocol exchange digests instead of payloads.  Process-local:
    # the store handle is never pickled into checkpoints (resume
    # re-registers the corpus with whatever store the new process
    # configures).  ``corpus_owner`` defaults to
    # ``campaign-s<seed>-w<shard_id>``.
    corpus_store: object | None = None
    corpus_owner: str | None = None
    # Input-to-state (cmplog/RedQueen-style) stage.  Off by default:
    # with i2s_enabled=False no observer is attached, the VM compare
    # dispatch stays on the uninstrumented path, and the mutation RNG
    # stream is byte-identical to pre-I2S campaigns.  The stage's own
    # limits are constants of repro.fuzzing.i2s.
    i2s_enabled: bool = False


@dataclass
class CampaignResult:
    """Everything a finished campaign knows."""

    mechanism: str
    execs: int = 0
    budget_ns: int = 0
    elapsed_ns: int = 0
    corpus_size: int = 0
    edges_found: int = 0
    unique_crashes: int = 0
    total_crashes: int = 0
    unique_hangs: int = 0
    total_hangs: int = 0
    recoveries: int = 0
    quarantined_inputs: int = 0
    crash_reports: list = field(default_factory=list)
    hang_reports: list = field(default_factory=list)
    # Per-mutation-stage efficacy accounts (stage name -> StageStats).
    stage_stats: dict = field(default_factory=dict)

    @property
    def execs_per_second(self) -> float:
        return self.execs / (self.elapsed_ns / 1e9) if self.elapsed_ns else 0.0


class Campaign:
    """One coverage-guided fuzzing run against one executor."""

    def __init__(self, executor: Executor, seeds: list[bytes],
                 config: CampaignConfig | None = None):
        self.executor = executor
        self.seeds = [bytes(s) for s in seeds] or [b"\x00"]
        self.config = config if config is not None else CampaignConfig()
        self.rng = random.Random(self.config.seed)
        self.corpus = Corpus()
        self.virgin = VirginMap()
        self.triage = CrashTriage()
        # Per-stage efficacy accounting; the I2S throttle reads these.
        self.stage_stats: dict[str, StageStats] = {
            name: StageStats() for name in ("trim", "det", "i2s", "havoc")
        }
        self._i2s: I2SStage | None = None
        dictionary = None
        if self.config.i2s_enabled:
            self._i2s = I2SStage(self.config)
            dictionary = self._i2s.dictionary
            executor.attach_cmp_observer(self._i2s.observer)
        self.havoc = HavocMutator(self.rng, self.config.max_input_size,
                                  dictionary=dictionary)
        self.execs = 0
        self.current_entry_id = 0
        self.start_ns = 0
        self.deadline_ns = self.config.budget_ns
        self._resume_state: dict | None = None
        self.corpus_store = self.config.corpus_store
        self.corpus_owner = self.config.corpus_owner or (
            f"campaign-s{self.config.seed}-w{self.config.shard_id}"
        )
        executor.exec_instruction_limit = self.config.exec_instruction_limit
        # Telemetry: the null stack unless the config opts in, in which
        # case the executor (and through it the kernel) share our tracer.
        self.telemetry = build_telemetry(self.config.telemetry, executor.clock)
        if self.telemetry.enabled:
            executor.attach_telemetry(self.telemetry)
        self.reporter: CampaignReporter | None = None

    # ------------------------------------------------------------------

    @property
    def clock(self):
        return self.executor.clock

    @property
    def now_ns(self) -> int:
        """The campaign's virtual instant."""
        return self.clock.now_ns

    @property
    def resumed(self) -> bool:
        """Whether :meth:`start` restores a saved state, not the seeds."""
        return self._resume_state is not None

    @classmethod
    def open(cls, executor: Executor, seeds: list[bytes],
             config: CampaignConfig) -> "Campaign":
        """Resume from ``config.checkpoint_path`` when a generation
        loads there, else open fresh (digest-equivalent by
        determinism); the counterpart of ``ParallelCampaign.open``."""
        try:
            state = load_checkpoint(config.checkpoint_path)
        except CheckpointError:
            return cls(executor, seeds, config)
        return cls.from_state(state, executor, config)

    def run(self) -> CampaignResult:
        """Boot, fuzz to the budget deadline, tear down, report.

        The phases are also available separately — :meth:`start`,
        :meth:`step_until`, :meth:`checkpoint`, :meth:`finish_run` —
        which is how the service, the platform and a fleet shard pause
        a campaign.  With a ``checkpoint_path`` this loop owns the
        cadence: a checkpoint right after a fresh start, so a death
        inside the first queue cycle still leaves something to resume
        from, then one after every ``checkpoint_interval_ns`` slice that
        reached its target.
        """
        self.start()
        if self.config.checkpoint_path is None:
            self.step_until(self.deadline_ns)
            return self.finish_run()
        if not self.resumed:
            self.checkpoint()
        interval_ns = max(1, self.config.checkpoint_interval_ns)
        while True:
            target_ns = self.now_ns + interval_ns
            if not self.step_until(target_ns):
                break
            if self.now_ns >= target_ns:
                self.checkpoint()
        return self.finish_run()

    def start(self) -> None:
        """Boot the executor and seed the queue, or restore it."""
        state = self._resume_state
        self.start_ns = (
            state["start_ns"] if state is not None else self.clock.now_ns
        )
        self.deadline_ns = self.start_ns + self.config.budget_ns
        if self.telemetry.enabled:
            self.reporter = CampaignReporter(
                self, out_dir=self.config.telemetry.report_dir,
            )
        tracer = self.telemetry.tracer
        with tracer.span("campaign.boot", mechanism=self.executor.mechanism):
            self.executor.boot()
        if state is not None:
            self._apply_resume_state()
            if self.reporter is not None:
                self.reporter.start_ns = self.start_ns
        else:
            with tracer.span("stage.seed", seeds=len(self.seeds)):
                self._seed_queue()
        if self._i2s is not None and not self._i2s.static_mined:
            module = getattr(self.executor, "module", None)
            if module is not None:
                mined = self._i2s.mine_static(module)
                if self.telemetry.enabled:
                    self.telemetry.metrics.counter(
                        "fuzz.i2s.static_tokens"
                    ).inc(mined)

    def step_until(self, until_ns: int) -> bool:
        """Run queue cycles until the clock passes *until_ns* (a sync
        barrier, a service slice, a sample instant) or the budget
        deadline, whichever is earlier; returns whether the clock moved
        (not at the deadline or with an empty queue).

        The mutation stages themselves always run against the true
        budget deadline — a pause only decides where between cycles
        the loop stops — so any slicing, with checkpoints and resumes
        along the way, passes through exactly the states of one
        uninterrupted run.
        """
        before_ns = self.clock.now_ns
        deadline_ns = self.deadline_ns
        tracer = self.telemetry.tracer
        while (self.clock.now_ns < deadline_ns
               and self.clock.now_ns < until_ns
               and len(self.corpus)):
            entry = self.corpus.select_next(self.rng)
            self.current_entry_id = entry.entry_id
            if tracer.enabled:
                tracer.event(
                    "queue.select", entry=entry.entry_id,
                    favored=entry.favored, depth=entry.depth,
                    times_selected=entry.times_selected,
                )
            if self.config.enable_trim and not entry.trim_done:
                marker = self._stage_marker()
                with tracer.span("stage.trim", entry=entry.entry_id):
                    self._trim_entry(entry, deadline_ns)
                self._stage_record("trim", marker)
                entry.trim_done = True
            if self.config.enable_deterministic and not entry.det_done:
                marker = self._stage_marker()
                with tracer.span("stage.det", entry=entry.entry_id):
                    self._deterministic_stage(entry, deadline_ns)
                self._stage_record("det", marker)
                entry.det_done = True
            if (self._i2s is not None and not entry.i2s_done
                    and self.clock.now_ns < deadline_ns):
                if self._i2s_throttled():
                    if self.telemetry.enabled:
                        self.telemetry.metrics.counter(
                            "fuzz.i2s.throttle_skips"
                        ).inc()
                else:
                    marker = self._stage_marker()
                    with tracer.span("stage.i2s", entry=entry.entry_id):
                        self._i2s.run_entry(self, entry, deadline_ns)
                    self._stage_record("i2s", marker)
                entry.i2s_done = True
            if self.clock.now_ns < deadline_ns:
                marker = self._stage_marker()
                with tracer.span("stage.havoc", entry=entry.entry_id):
                    self._havoc_stage(entry, deadline_ns)
                self._stage_record("havoc", marker)
        return self.clock.now_ns > before_ns

    def progress(self) -> dict:
        """The campaign's counters; ``t_ns`` is the budget consumed."""
        triage = self.triage
        return {
            "clock_ns": self.now_ns,
            "t_ns": self.now_ns - self.start_ns,
            "execs": self.execs,
            "edges": self.virgin.edges_found(),
            "corpus": len(self.corpus),
            "unique_crashes": triage.unique_count,
            "total_crashes": triage.total_crashes,
            "unique_hangs": triage.unique_hang_count,
            "total_hangs": triage.total_hangs,
        }

    def finish_run(self) -> CampaignResult:
        """Tear down the executor and build the result."""
        self.executor.shutdown()
        if self.reporter is not None:
            self.reporter.finalize()
        self.telemetry.flush()
        supervision = getattr(self.executor, "supervision", None)
        return CampaignResult(
            mechanism=self.executor.mechanism,
            execs=self.execs,
            budget_ns=self.config.budget_ns,
            elapsed_ns=self.clock.now_ns - self.start_ns,
            corpus_size=len(self.corpus),
            edges_found=self.virgin.edges_found(),
            unique_crashes=self.triage.unique_count,
            total_crashes=self.triage.total_crashes,
            unique_hangs=self.triage.unique_hang_count,
            total_hangs=self.triage.total_hangs,
            recoveries=supervision.recoveries if supervision else 0,
            quarantined_inputs=(
                supervision.quarantined_inputs if supervision else 0
            ),
            crash_reports=self.triage.reports(),
            hang_reports=self.triage.hang_reports(),
            stage_stats={
                name: dataclasses.replace(stats)
                for name, stats in self.stage_stats.items()
            },
        )

    def state_digest(self) -> str:
        """Stable fingerprint of everything 'bit-identical' means for a
        single campaign: merged coverage, corpus contents, crash set,
        exec count, and the virtual instant — the single-shard analogue
        of :meth:`~repro.parallel.ParallelResult.digest`.  A resumed
        campaign that replays correctly produces the same digest as the
        uninterrupted run; the fuzzing service uses this as each job's
        correctness receipt."""
        h = hashlib.sha256()
        h.update(self.virgin.to_bytes())
        for key in sorted(object_digest(e.data) for e in self.corpus.entries):
            h.update(key.encode())
        for identity in sorted(
            (r.kind.value, r.function, r.identity[2])
            for r in self.triage.reports()
        ):
            h.update(repr(identity).encode())
        h.update(str(self.execs).encode())
        h.update(str(self.clock.now_ns).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # checkpoint / resume
    # ------------------------------------------------------------------

    def checkpoint(self, path: str | None = None) -> str:
        """Atomically persist the campaign's full state; returns the path."""
        path = path if path is not None else self.config.checkpoint_path
        if path is None:
            raise ValueError("no checkpoint path configured")
        save_checkpoint(self, path)
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("campaign.checkpoints").inc()
            if self.telemetry.tracer.enabled:
                self.telemetry.tracer.event(
                    "campaign.checkpoint", execs=self.execs,
                )
        return path

    @classmethod
    def resume(cls, path: str, executor: Executor,
               config: CampaignConfig | None = None) -> "Campaign":
        """Rebuild a campaign from a checkpoint; ``run()`` then continues
        bit-identically to the uninterrupted run under the same seed.

        *executor* must be a freshly built executor of the same
        mechanism — its process state is re-booted, then the virtual
        clock is pinned back to the checkpointed instant.
        """
        return cls.from_state(load_checkpoint(path), executor, config)

    @classmethod
    def from_state(cls, state: dict, executor: Executor,
                   config: CampaignConfig | None = None) -> "Campaign":
        """Rebuild a campaign from an in-memory state dict (the
        :func:`~repro.fuzzing.checkpoint.capture_state` shape).  This is
        the resume primitive: :meth:`resume` loads the dict from disk,
        the parallel orchestrator hands over the dict it captured at the
        last sync barrier when replacing a dead worker."""
        if state["kind"] != "campaign":
            raise CheckpointError(
                f"state is a {state['kind']!r} checkpoint, "
                "not a single campaign"
            )
        if executor.mechanism != state["mechanism"]:
            raise CheckpointError(
                f"checkpoint is for mechanism {state['mechanism']!r}, "
                f"got {executor.mechanism!r}"
            )
        if config is None:
            # A non-None "i2s" snapshot means the interrupted campaign
            # ran with the stage enabled; the continuation must too, or
            # its mutation stream diverges from the uninterrupted run.
            config = CampaignConfig(
                budget_ns=state["budget_ns"], seed=state["seed"],
                i2s_enabled=state["i2s"] is not None,
            )
        campaign = cls(executor, seeds=[], config=config)
        campaign._resume_state = state
        return campaign

    def _apply_resume_state(self) -> None:
        """Install checkpointed state after the executor has re-booted."""
        state = self._resume_state
        assert state is not None
        self.corpus = state["corpus"]
        self.virgin = state["virgin"]
        self.triage = state["triage"]
        self.execs = state["execs"]
        self.current_entry_id = state["current_entry_id"]
        self.rng.setstate(state["rng_state"])
        self.executor.restore_state(state["executor_state"])
        for name, stats in state["stage_stats"].items():
            self.stage_stats[name] = dataclasses.replace(stats)
        if self._i2s is not None and state["i2s"] is not None:
            self._i2s.restore(state["i2s"])
        # Re-register the resumed corpus with the store: the payloads
        # are usually already objects on disk (puts are idempotent), but
        # a resume under a fresh store root — or one whose objects were
        # quarantined — must leave the store able to resolve every
        # digest the sync protocol may announce.
        if self.corpus_store is not None:
            for entry in self.corpus.entries:
                self._store_input(entry.data)
        # Pin the clock back to the checkpointed instant so the re-boot
        # we just paid does not shift the continuation off the original
        # timeline — this is what makes resume bit-identical.
        self.clock.now_ns = state["clock_ns"]

    # ------------------------------------------------------------------

    def _store_input(self, data: bytes) -> None:
        """Persist one queue payload into the shared corpus store.

        Off the virtual timeline by construction — the store touches
        neither the clock nor the mutation RNG — so campaigns with and
        without a store are bit-identical.
        """
        if self.corpus_store is not None:
            self.corpus_store.put(data, owner=self.corpus_owner)

    def _seed_queue(self) -> None:
        for seed in self.seeds:
            result, signature = self._execute(seed)
            self.virgin.observe(signature)
            self.corpus.add(seed, signature, result.ns, self.clock.now_ns)
            self._store_input(seed)

    def _trim_entry(self, entry: QueueEntry, deadline_ns: int) -> None:
        """AFL-style trimming: delete chunks as long as the coverage
        signature is unchanged.  Smaller entries mutate better and
        execute faster."""
        budget = self.config.trim_exec_cap
        data = entry.data
        if len(data) < 8:
            return
        chunk = max(4, len(data) // 8)
        while chunk >= 4 and budget > 0:
            offset = 0
            while offset < len(data) and budget > 0:
                if self.clock.now_ns >= deadline_ns:
                    return
                candidate = data[:offset] + data[offset + chunk:]
                if not candidate:
                    break
                # A crash never trims, so only a non-crash is classified
                # (a hang comes back classified, for its hang id; an
                # empty map's signature is b"").
                result, signature = self._execute(candidate, signed=False)
                budget -= 1
                if not result.is_crash and (
                    signature if signature is not None
                    else coverage_signature(result.coverage)
                ) == entry.coverage_signature:
                    data = candidate          # chunk was irrelevant
                else:
                    offset += chunk
            chunk //= 2
        if len(data) < len(entry.data):
            if self.telemetry.enabled:
                self.telemetry.metrics.counter("trim.bytes_removed").inc(
                    len(entry.data) - len(data)
                )
            entry.data = data
            self._store_input(data)

    def _deterministic_stage(self, entry: QueueEntry, deadline_ns: int) -> None:
        budget = self.config.det_stage_cap
        for mutated in deterministic_mutations(entry.data):
            if budget <= 0 or self.clock.now_ns >= deadline_ns:
                return
            budget -= 1
            self._fuzz_one(mutated, entry)

    def _havoc_stage(self, entry: QueueEntry, deadline_ns: int) -> None:
        energy = self.corpus.energy(entry, self.config.havoc_base_energy)
        for _ in range(energy):
            if self.clock.now_ns >= deadline_ns:
                return
            if len(self.corpus) > 1 and self.rng.random() < 0.15:
                entries = self.corpus.entries
                other = entries[self.havoc.below(len(entries))]
                mutated = self.havoc.splice(entry.data, other.data)
            else:
                mutated = self.havoc.mutate(entry.data)
            self._fuzz_one(mutated, entry)

    def _fuzz_one(self, data: bytes, parent: QueueEntry) -> bool:
        """Execute one mutated candidate; returns whether it joined the
        queue (the per-stage 'finds' currency)."""
        result, signature = self._execute(data)
        novelty = self.virgin.observe(signature)
        if novelty == VirginMap.NEW_EDGES or (
            novelty == VirginMap.NEW_COUNTS and self.rng.random() < 0.5
        ):
            added = self.corpus.add(
                data, signature, result.ns, self.clock.now_ns, parent,
            )
            self._store_input(data)
            if self.telemetry.enabled:
                self.telemetry.metrics.counter("corpus.adds").inc()
                if self.telemetry.tracer.enabled:
                    self.telemetry.tracer.event(
                        "corpus.add", entry=added.entry_id,
                        parent=parent.entry_id, depth=added.depth,
                        size=len(data),
                    )
            return True
        return False

    # -- per-stage efficacy accounting ----------------------------------

    def _stage_marker(self) -> tuple[int, int, int]:
        """Snapshot (execs, finds, clock) before a stage runs."""
        finds = len(self.corpus.entries) + self.triage.unique_count
        return (self.execs, finds, self.clock.now_ns)

    def _stage_record(self, stage: str, marker: tuple[int, int, int]) -> None:
        """Charge a finished stage with everything since its marker."""
        execs0, finds0, ns0 = marker
        stats = self.stage_stats[stage]
        delta_execs = self.execs - execs0
        delta_finds = (
            len(self.corpus.entries) + self.triage.unique_count - finds0
        )
        stats.execs += delta_execs
        stats.finds += delta_finds
        stats.ns += self.clock.now_ns - ns0
        if self.telemetry.enabled and stage == "i2s":
            metrics = self.telemetry.metrics
            metrics.counter("fuzz.i2s.execs").inc(delta_execs)
            metrics.counter("fuzz.i2s.finds").inc(delta_finds)
            if self._i2s is not None:
                metrics.gauge("fuzz.i2s.dict_tokens").set(
                    len(self._i2s.dictionary)
                )
                metrics.gauge("fuzz.i2s.sites").set(
                    len(self._i2s.site_pairs)
                )

    def _i2s_throttled(self) -> bool:
        """Whether the I2S stage should be skipped for this entry: it
        has had a fair trial (min execs) and its finds-per-virtual-ns
        sits below a fixed fraction of havoc's."""
        stats = self.stage_stats["i2s"]
        if stats.execs < THROTTLE_MIN_EXECS:
            return False
        havoc = self.stage_stats["havoc"]
        if havoc.ns == 0:
            return False
        return stats.find_rate() < THROTTLE_RATIO * havoc.find_rate()

    def import_input(self, data: bytes) -> bool:
        """Adopt an input discovered by another shard (sync import).

        The input is executed here — charging this worker's virtual
        clock, exactly like AFL++'s ``sync_fuzzers`` re-runs imported
        queue files — and joins the queue only if it exhibits behaviour
        this worker has not seen.  Unlike :meth:`_fuzz_one` the
        NEW_COUNTS acceptance is unconditional (no RNG draw), so
        imports never perturb the mutation RNG stream.  Returns whether
        the input was adopted.
        """
        result, signature = self._execute(data)
        if self.virgin.observe(signature) == VirginMap.NO_NEW:
            return False
        added = self.corpus.add(
            data, signature, result.ns, self.clock.now_ns,
        )
        self._store_input(data)
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("corpus.imports").inc()
            if self.telemetry.tracer.enabled:
                self.telemetry.tracer.event(
                    "corpus.import", entry=added.entry_id, size=len(data),
                )
        return True

    def _execute(self, data: bytes, signed: bool = True
                 ) -> tuple[ExecResult, bytes | None]:
        """Run and triage one input.  Returns the result and its
        signature, classified here once when *signed* or when the input
        hung (the hang id names the signature), else None."""
        result = self.executor.run(data)
        self.execs += 1
        signature = (
            coverage_signature(result.coverage)
            if signed or result.is_hang else None
        )
        if result.is_crash and result.trap is not None:
            self.triage.record(result.trap, data, self.clock.now_ns)
        elif result.is_hang:
            self.triage.record_hang(signature, data, self.clock.now_ns)
        if self.reporter is not None:
            self.reporter.maybe_update()
        return result, signature
