"""The measurer: snapshot a trial on a virtual-time cadence.

fuzzbench's measurer polls corpora from outside the fuzzer process; we
can do better because every campaign is a
:class:`~repro.fuzzing.Campaign` on a *virtual* clock.  The
scheduler advances each trial one measurement interval at a time, and
at each pause :class:`Measurer` records a snapshot — coverage-map
density, corpus size, execs, crash/hang counts, and the executor
ladder's restore/integrity counters — into the append-only results
store.  Pauses land between queue cycles and the mutation stages always
run against the true budget deadline, so a measured trial passes
through exactly the states of an unmeasured one: measurement is free of
observer effect on the virtual timeline.

A fresh trial is checkpointed right after seeding and every snapshot
is followed by an RPRCKPT1 campaign checkpoint, which makes trials
crash-safe *and* resumable: a killed platform run reloads the
checkpoint, trims any snapshots past it
(:meth:`~repro.experiments.platform.store.ResultsStore.truncate_after`),
and continues bit-identically — the finished stream is byte-equal to an
uninterrupted run's.

Multi-worker trials are :class:`~repro.parallel.ParallelCampaign`
fleets driven the same way.  A fleet pauses only at sync barriers, so
each of its samples reads the first barrier at or after the sample's
grid instant (the same barrier when both cadences agree, the default),
and its coordinated checkpoints provide the same resume story.
"""

from __future__ import annotations

from repro.experiments.platform.spec import TrialSpec
from repro.experiments.platform.store import ResultsStore
from repro.fuzzing import Campaign, CampaignResult
from repro.parallel import (
    ParallelCampaign,
    ParallelConfig,
    ParallelResult,
    open_campaign,
)


def executor_health(executor) -> dict:
    """Restore/integrity counters from wherever the ladder keeps them
    (a supervisor forwards its wrapped executor's sentinel); everything
    defaults to zero so the snapshot schema is identical with and
    without the ladder.
    """
    supervision = getattr(executor, "supervision", None)
    sentinel = getattr(executor, "sentinel", None)
    health = {
        "recoveries": supervision.recoveries if supervision else 0,
        "respawns": supervision.respawns if supervision else 0,
        "degradations": supervision.degradations if supervision else 0,
        "quarantined": supervision.quarantined_inputs if supervision else 0,
        "integrity_checks": sentinel.stats.checks if sentinel else 0,
        "integrity_leaks": sentinel.stats.leaks if sentinel else 0,
        "integrity_repairs": sentinel.stats.repairs if sentinel else 0,
    }
    return health


class Measurer:
    """Opens trials and records their snapshots (see module docstring);
    one instance is shared by a scheduler run."""

    def __init__(self, store: ResultsStore):
        self.store = store

    def open_trial(
        self, trial: TrialSpec
    ) -> tuple[Campaign | ParallelCampaign, int]:
        """A trial's started campaign (a fleet for a multi-worker
        trial), resumed from its checkpoint if one loads, and the index
        of its next sample."""
        store, trial_id = self.store, trial.trial_id
        campaign = open_campaign(ParallelConfig(
            target=trial.target,
            n_workers=trial.n_workers,
            seed=trial.seed,
            budget_ns=trial.budget_ns,
            sync_every_ns=trial.sync_every_ns,
            mechanism=trial.arm.mechanism,
            supervised=trial.supervised,
            sentinel_digest_every=trial.sentinel_digest_every,
            checkpoint_path=store.checkpoint_path(trial_id),
            overrides=trial.arm.overrides,
        ))
        if campaign.resumed:
            campaign.start()
            # Samples past the checkpoint would be recorded twice.
            kept = store.truncate_after(trial_id, campaign.now_ns)
            return campaign, kept + 1
        store.reset_trial(trial_id)
        campaign.start()
        campaign.checkpoint()       # the post-seeding baseline
        return campaign, 1

    # -- snapshots ------------------------------------------------------

    def sample(self, trial: TrialSpec, k: int,
               campaign: Campaign | ParallelCampaign) -> dict:
        """The trial's *k*-th sample, taken from its campaign.  A
        fleet's counters are its barrier progress (per-shard crash/hang
        sums, an upper bound until the final record's merged dedup)."""
        record = {
            "kind": "sample",
            "k": k,
            **campaign.progress(),
            "t_ns": min(k * trial.measure_every_ns, trial.budget_ns),
        }
        if isinstance(campaign, ParallelCampaign):
            # No one executor ladder is in reach: its counters read zero.
            record.update(executor_health(None))
            return record
        record.update(executor_health(campaign.executor))
        metrics = campaign.telemetry.metrics
        if metrics.enabled:
            record["metrics"] = metrics.counter_values()
        return record

    def final_record(self, trial: TrialSpec,
                     result: CampaignResult | ParallelResult) -> dict:
        """The trial's closing record (a fleet's merged result);
        ``crashes`` lists each unique crash as ``[kind, function, block,
        found_at_ns]`` in triage order."""
        if isinstance(result, ParallelResult):
            result = result.merged()
        return {
            "kind": "final",
            "trial_id": trial.trial_id,
            "target": trial.target,
            "arm": trial.arm.label,
            "mechanism": trial.arm.mechanism,
            "variant": trial.arm.variant,
            "trial_index": trial.trial_index,
            "seed": trial.seed,
            "budget_ns": trial.budget_ns,
            "n_workers": trial.n_workers,
            "execs": result.execs,
            "edges": result.edges_found,
            "corpus": result.corpus_size,
            "unique_crashes": result.unique_crashes,
            "crashes": [
                [r.kind.value, r.function, r.identity[2], r.found_at_ns]
                for r in result.crash_reports
            ],
            "total_crashes": result.total_crashes,
            "unique_hangs": result.unique_hangs,
            "elapsed_ns": result.elapsed_ns,
            "recoveries": result.recoveries,
            "quarantined": result.quarantined_inputs,
        }
