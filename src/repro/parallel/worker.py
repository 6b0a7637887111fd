"""One shard of a parallel campaign: config, runtime, process entry.

A worker owns a full single-campaign stack — its own :class:`Kernel`
(so its own virtual clock), its own executor ladder (mechanism executor,
optionally wrapped by an :class:`IntegritySentinel` and a
:class:`SupervisedExecutor` with a per-worker chaos plan), and its own
:class:`Campaign` — and advances it in *rounds* between sync barriers.

Everything a worker does is a pure function of ``(WorkerConfig, the
imports each round receives)``: seeds, RNG streams, fault plans and
sentinel cadences are all derived deterministically from the campaign
seed and the shard id, so running a worker inline, in a spawned
process, or restored from a barrier snapshot after a crash produces
bit-identical results.

The module is **spawn-safe**: :func:`worker_process_main` is a
top-level function, :class:`WorkerConfig` is a plain picklable
dataclass, and a spawned worker builds the target program from the
registry by name — nothing unpicklable ever crosses the process
boundary.  Inline workers share their process's one build of the
target, and with it the decoded code (see
:class:`~repro.targets.framework.TargetSpec`); a spawned worker builds
its own, one per process.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.execution import Executor
from repro.fuzzing import Campaign, CampaignResult
from repro.fuzzing.checkpoint import capture_state
from repro.parallel.sync import RoundReport, SyncCandidate
from repro.store.objects import object_digest
from repro.targets import get_target

if TYPE_CHECKING:
    from repro.parallel.orchestrator import ParallelConfig


def derive_worker_seed(seed: int, shard_id: int) -> int:
    """Per-shard RNG seed: a fixed integer mix of the campaign seed and
    the shard id, so shards explore divergent mutation streams while the
    whole fleet stays a pure function of ``(seed, n_workers)``."""
    mixed = (seed * 0x9E3779B1 + (shard_id + 1) * 0x85EBCA77) & 0xFFFFFFFF
    mixed ^= mixed >> 15
    return mixed & 0x7FFFFFFF


@dataclass
class WorkerConfig:
    """One shard: the fleet's recipe plus the shard id, picklable for
    spawn."""

    fleet: ParallelConfig
    shard_id: int
    # Test hook (process transport only): die mid-round with this index,
    # modelling a worker process crash the orchestrator must heal.
    die_at_round: int | None = None

    @property
    def capture_barrier_state(self) -> bool:
        """Whether every RoundReport carries a pickled barrier snapshot:
        only for worker replacement or a coordinated checkpoint, since
        serialising a grown corpus every round is overhead otherwise."""
        return (self.fleet.use_processes
                or self.fleet.checkpoint_path is not None)


def build_worker_executor(config: WorkerConfig) -> Executor:
    """This shard's executor ladder, from the fleet's recipe."""
    return config.fleet.build_executor(config.shard_id)


@dataclass
class WorkerFinal:
    """A finished shard's contribution to the merged result."""

    shard_id: int
    result: CampaignResult
    virgin_bytes: bytes           # full local virgin map (to_bytes)
    triage: object                # CrashTriage (merged at the top)
    corpus_hashes: list[str] = field(default_factory=list)


class WorkerRuntime:
    """One live shard: a campaign advanced round-by-round."""

    def __init__(self, config: WorkerConfig, state: bytes | None = None):
        self.config = config
        fleet = config.fleet
        campaign_config = fleet.campaign_config(config.shard_id)
        # A shared corpus store gets every queue payload (owner = the
        # campaign identity); sync candidates then go hash-only.
        self.store = None
        if fleet.corpus_store_root is not None:
            from repro.store import CorpusStore
            self.store = CorpusStore(fleet.corpus_store_root)
            campaign_config.corpus_store = self.store
        # *state* is a pickled barrier snapshot (RoundReport.state).
        executor = build_worker_executor(config)
        self.campaign = (
            Campaign.from_state(pickle.loads(state), executor,
                                campaign_config)
            if state is not None else
            Campaign(executor, get_target(fleet.target).seeds,
                     campaign_config)
        )
        # Hashes this shard already holds or has already offered; used
        # to drop duplicate imports and to avoid re-exporting entries
        # the hub is guaranteed to know.
        self._known_hashes: set[str] = set()

    def start(self) -> RoundReport:
        """Boot + seed (or restore), and report the barrier-0 state."""
        self.campaign.start()
        # The common seed corpus is known fleet-wide: exclude it from
        # the export stream (restore replays this bookkeeping too,
        # because export cursors travel inside the corpus state).
        for entry in self.campaign.corpus.export_new():
            self._known_hashes.add(object_digest(entry.data))
        self._known_hashes |= self.campaign.corpus.content_hashes()
        return self._report(round_index=-1, imported=0, discoveries=[])

    def run_round(self, round_index: int, deadline_ns: int,
                  imports: list[bytes]) -> RoundReport:
        """Adopt this barrier's imports, fuzz to the round deadline,
        and report discoveries + a barrier state snapshot."""
        imported = 0
        for data in imports:
            key = object_digest(data)
            if key in self._known_hashes:
                continue
            self._known_hashes.add(key)
            if self.campaign.import_input(data):
                imported += 1
        # Imports joined the queue via corpus.add and would re-export;
        # flush the cursor past them (the hub already knows them).
        self.campaign.corpus.export_new()
        self.campaign.step_until(deadline_ns)
        discoveries = []
        for entry in self.campaign.corpus.export_new():
            key = object_digest(entry.data)
            if key in self._known_hashes:
                continue
            self._known_hashes.add(key)
            discoveries.append(
                SyncCandidate.from_entry(
                    self.config.shard_id, entry,
                    store=self.store,
                    owner=self.campaign.corpus_owner,
                )
            )
        return self._report(round_index, imported, discoveries)

    def finish(self) -> WorkerFinal:
        """Tear down and hand the merged-result ingredients upward."""
        result = self.campaign.finish_run()
        return WorkerFinal(
            shard_id=self.config.shard_id,
            result=result,
            virgin_bytes=self.campaign.virgin.to_bytes(),
            triage=self.campaign.triage,
            corpus_hashes=sorted(self.campaign.corpus.content_hashes()),
        )

    def _report(self, round_index: int, imported: int,
                discoveries: list[SyncCandidate]) -> RoundReport:
        campaign = self.campaign
        state = None
        if self.config.capture_barrier_state:
            # Serialise *now*: the report must freeze the barrier state,
            # not alias live objects the next round will mutate.
            state = pickle.dumps(
                capture_state(campaign), protocol=pickle.HIGHEST_PROTOCOL
            )
        return RoundReport(
            shard_id=self.config.shard_id,
            round_index=round_index,
            clock_ns=campaign.clock.now_ns,
            execs=campaign.execs,
            edges_found=campaign.virgin.edges_found(),
            corpus_size=len(campaign.corpus),
            unique_crashes=campaign.triage.unique_count,
            total_crashes=campaign.triage.total_crashes,
            unique_hangs=campaign.triage.unique_hang_count,
            imported=imported,
            discoveries=discoveries,
            state=state,
        )


# ----------------------------------------------------------------------
# process transport entry point
# ----------------------------------------------------------------------

def worker_process_main(conn, config: WorkerConfig) -> None:
    """Spawned-child main loop: serve orchestrator commands over *conn*.

    Protocol (one reply per command, in order):

    - ``("start", state_or_None)`` → ``("started", RoundReport)``
    - ``("round", index, deadline_ns, imports)`` → ``("round", RoundReport)``
    - ``("finish",)`` → ``("finished", WorkerFinal)``
    - ``("stop",)`` → child exits.

    The ``die_at_round`` test hook makes the child ``os._exit`` halfway
    through the matching round — after real fuzzing work, with state the
    orchestrator never sees — which is exactly the failure the
    replacement path must heal from the previous barrier snapshot.
    """
    runtime: WorkerRuntime | None = None
    try:
        while True:
            command = conn.recv()
            op = command[0]
            if op == "start":
                runtime = WorkerRuntime(config, state=command[1])
                conn.send(("started", runtime.start()))
            elif op == "round":
                assert runtime is not None, "round before start"
                _, round_index, deadline_ns, imports = command
                if config.die_at_round == round_index:
                    # Burn real progress first so the crash loses work:
                    # the replacement must not be able to cheat by
                    # replaying a half-synced state.
                    now_ns = runtime.campaign.now_ns
                    runtime.campaign.step_until(
                        now_ns + max(1, (deadline_ns - now_ns) // 2)
                    )
                    conn.close()
                    os._exit(17)
                conn.send((
                    "round",
                    runtime.run_round(round_index, deadline_ns, imports),
                ))
            elif op == "finish":
                assert runtime is not None, "finish before start"
                conn.send(("finished", runtime.finish()))
            elif op == "stop":
                return
            else:
                raise ValueError(f"unknown worker command {op!r}")
    except EOFError:
        # Orchestrator went away; nothing useful left to do.
        return
    finally:
        try:
            conn.close()
        except OSError:
            pass
