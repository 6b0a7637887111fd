"""The benchmark's workloads: fixed-work fuzzing campaigns.

Each workload is one closed-loop campaign in a single process, with no
extra threads or processes.  A campaign's work is fixed by its virtual
time budget: virtual time is deterministic, so the same code on the
same campaign seed always runs the same execs and ends on the same
digest.  Wall time over that fixed work is the measurement; the digest
is the correctness check.

:func:`run_campaign` runs one campaign in the calling process and
returns its timings and identity.  ``child.py`` calls it in a fresh
process per campaign; the self-tests call it in-process.
"""

from __future__ import annotations

import os
import pathlib
import resource
import sys
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a campaign configuration."""

    name: str
    target: str
    kind: str                 # "campaign" (one Campaign) or "fleet"
    budget_ns: int            # virtual budget per campaign (per shard)
    # Wall seconds one campaign takes on the reference host when it
    # runs slow (set-up included).  Only sizes how many campaigns a run
    # holds, so that the work of a run is fixed for a given --seconds.
    nominal_s: float
    optimize: bool = False    # run the validated IR optimizer at set-up
    i2s: bool = False         # input-to-state stage on
    n_workers: int = 1
    sync_every_ns: int = 0


WORKLOADS = {
    w.name: w for w in (
        # Long, crash-heavy executions: interpreter, memory and libc
        # work, and the only workload that runs the optimizer.
        Workload("md4c-opt", "md4c", "campaign", budget_ns=20_000_000,
                 optimize=True, nominal_s=3.9),
        # Short executions, so per-exec fuzzer-side costs (coverage
        # classification, mutation, restore) and the i2s stage weigh.
        Workload("giftext-i2s", "giftext", "campaign", budget_ns=24_000_000,
                 i2s=True, nominal_s=3.0),
        # A 4-shard inline fleet under forkserver: VM construction and
        # a fork per exec, supervision, sync, checkpoints, store writes.
        Workload("zlib-fleet", "zlib", "fleet", budget_ns=16_000_000,
                 n_workers=4, sync_every_ns=2_000_000, nominal_s=2.6),
    )
}


def campaign_seed(seed: int, index: int) -> int:
    """The campaign seed of the *index*-th campaign of a run."""
    return seed * 1000 + index


# The host-speed probe: a fixed pure-Python loop, timed every
# PROBE_EVERY_NS of wall during the fuzzing phase, between execs and
# outside the measured time.  The reference host's speed drifts by up
# to 2x over minutes; every timing a campaign reports is scaled by the
# probe's mean time over CAL_REF_NS, so that it reads as on that host
# at a fixed speed.  CAL_REF_NS is about the loop's mean on the
# reference host (2 vCPU Xeon VM, CPython 3.11).
PROBE_EVERY_NS = 50_000_000
CAL_REF_NS = 2_000_000


def _calibration_loop() -> int:
    table: dict[int, int] = {}
    buf = bytearray(4096)
    total = 0
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        buf[i & 4095] = i & 0xFF
        total += int.from_bytes(buf[(i & 4000):(i & 4000) + 4], "little")
    return total


class Meter:
    """Host-side measurement of one campaign: set-up end, fuzzing wall,
    the per-exec timer, and the host-speed probe (untraced) or the
    instruction sum and tracer phases (traced)."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.exec_ns: list[int] = []
        self.insts = 0
        self.probe_ns: list[int] = []
        self.probe_spent_ns = 0
        self._next_probe_ns: int | None = None   # probing starts at fuzz
        self.setup_execs_timed = 0
        self.fuzz_start_ns = 0
        self.fuzz_wall_ns = 0

    def attach(self, executor):
        """Time every ``executor.run`` call."""
        run = executor.run
        now = time.perf_counter_ns
        append = self.exec_ns.append

        if self.tracer is not None:
            def timed_run(data):
                start = now()
                result = run(data)
                append(now() - start)
                self.insts += result.instructions
                return result
        else:
            def timed_run(data):
                start = now()
                result = run(data)
                end = now()
                append(end - start)
                if self._next_probe_ns is not None \
                        and end >= self._next_probe_ns:
                    self._probe()
                return result

        executor.run = timed_run
        return executor

    def _probe(self) -> None:
        start = time.perf_counter_ns()
        _calibration_loop()
        end = time.perf_counter_ns()
        self.probe_ns.append(end - start)
        self.probe_spent_ns += end - start
        self._next_probe_ns = end + PROBE_EVERY_NS

    def begin_fuzz(self) -> None:
        """Set-up ends here, at the first fuzzing-stage exec."""
        self.setup_execs_timed = len(self.exec_ns)
        if self.tracer is not None:
            self.tracer.begin_fuzz()
        else:
            self._next_probe_ns = 0
        self.fuzz_start_ns = time.monotonic_ns()

    def end_fuzz(self) -> None:
        self.fuzz_wall_ns = (time.monotonic_ns() - self.fuzz_start_ns
                             - self.probe_spent_ns)
        self._next_probe_ns = None
        if self.tracer is not None:
            self.tracer.end_fuzz()
        elif not self.probe_ns:
            self._probe()


def run_campaign(workload: Workload, seed: int, t0_ns: int,
                 tracer=None, workdir: str | None = None) -> dict:
    """Run one campaign of *workload*; *t0_ns* (``time.monotonic_ns``)
    is when its process started.

    Returns raw host times; ``host_factor`` (untraced only) is the
    probe's mean time over :data:`CAL_REF_NS`, by which the times are
    scaled to the reference speed."""
    meter = Meter(tracer)
    if workload.kind == "fleet":
        out = _run_fleet(workload, seed, meter, workdir)
    else:
        out = _run_single(workload, seed, meter)
    out.update(
        setup_s=(meter.fuzz_start_ns - t0_ns) / 1e9,
        fuzz_wall_s=meter.fuzz_wall_ns / 1e9,
        exec_ns=meter.exec_ns[meter.setup_execs_timed:],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        out["insts"] = meter.insts
    else:
        out["host_factor"] = (sum(meter.probe_ns) / len(meter.probe_ns)
                              / CAL_REF_NS)
    return out


def _run_single(workload, seed, meter) -> dict:
    from repro.execution import ClosureXExecutor
    from repro.fuzzing import Campaign, CampaignConfig
    from repro.sim_os import Kernel
    from repro.targets import get_target

    spec = get_target(workload.target)
    executor = meter.attach(ClosureXExecutor(
        spec.build_closurex(optimize=workload.optimize),
        spec.image_bytes, Kernel(),
    ))
    campaign = Campaign(executor, spec.seeds, CampaignConfig(
        budget_ns=workload.budget_ns, seed=seed,
        i2s_enabled=workload.i2s,
    ))
    campaign.start()
    setup_execs = campaign.execs
    meter.begin_fuzz()
    campaign.step_until(1 << 62)     # to the budget deadline
    meter.end_fuzz()
    campaign.finish_run()
    i2s = campaign.stage_stats["i2s"]
    return {
        "fuzz_execs": campaign.execs - setup_execs,
        "execs": campaign.execs,
        "edges": campaign.virgin.edges_found(),
        "virtual_ns": [campaign.clock.now_ns],
        "digest": campaign.state_digest(),
        "i2s_execs": i2s.execs,
        "i2s_finds": i2s.finds,
        "sync_offered": 0,
        "sync_accepted": 0,
    }


def _run_fleet(workload, seed, meter, workdir) -> dict:
    from repro.parallel import ParallelCampaign, ParallelConfig
    from repro.parallel import orchestrator, worker

    if workdir is None:
        raise ValueError("the fleet workload needs a work directory")
    setup_execs = []
    build = worker.build_worker_executor
    inline = orchestrator.InlineTransport

    class MarkedTransport(inline):
        """Marks the end of set-up: the first sync round."""

        def start(self, states):
            reports = super().start(states)
            setup_execs.append(sum(r.execs for r in reports))
            return reports

        def round(self, commands, barrier_states):
            if not meter.fuzz_start_ns:
                meter.begin_fuzz()
            return super().round(commands, barrier_states)

    worker.build_worker_executor = lambda config: meter.attach(build(config))
    orchestrator.InlineTransport = MarkedTransport
    try:
        result = ParallelCampaign(ParallelConfig(
            target=workload.target,
            n_workers=workload.n_workers,
            seed=seed,
            budget_ns=workload.budget_ns,
            sync_every_ns=workload.sync_every_ns,
            mechanism="forkserver",
            checkpoint_path=os.path.join(workdir, "fleet.ckpt"),
            corpus_store_root=os.path.join(workdir, "store"),
        )).run()
    finally:
        worker.build_worker_executor = build
        orchestrator.InlineTransport = inline
    meter.end_fuzz()
    return {
        "fuzz_execs": result.total_execs - setup_execs[0],
        "execs": result.total_execs,
        "edges": result.merged_edges,
        "virtual_ns": [w.elapsed_ns for w in result.workers],
        "digest": result.digest(),
        "i2s_execs": 0,
        "i2s_finds": 0,
        "sync_offered": result.sync.offered,
        "sync_accepted": result.sync.accepted,
    }
