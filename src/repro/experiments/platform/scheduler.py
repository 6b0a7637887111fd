"""The trial scheduler: drive a spec's trial matrix to completion.

fuzzbench's scheduler spawns one cloud instance per trial and polls;
ours exploits the virtual clock instead.  Every single-worker trial is
an independent simulation, a :class:`~repro.fuzzing.Campaign`, so the
scheduler keeps up to ``max_live`` trials open at once and advances
them round-robin, one measurement interval per turn — cooperative
concurrency on the virtual timeline.  All live trials grow their
snapshot streams together (a watcher of the results store sees the
whole frontier move, exactly like fuzzbench's dispatcher view), while
each trial's virtual timeline — and therefore every recorded byte — is
unaffected by the interleaving.

Multi-worker trials are :class:`~repro.parallel.ParallelCampaign`
fleets with the same driver surface, advanced the same way.

Scheduling is crash-safe and resumable: trials already finished in the
store are skipped, half-finished trials resume from their RPRCKPT1
checkpoints, and the completed store is byte-identical to one produced
by an uninterrupted run — kill the platform at any point and re-run the
same command to continue.
"""

from __future__ import annotations

from repro.experiments.platform.measurer import Measurer
from repro.experiments.platform.spec import ExperimentSpec, TrialSpec
from repro.experiments.platform.store import ResultsStore


class _CampaignSlot:
    """One live trial, advanced an interval at a time."""

    def __init__(self, measurer: Measurer, trial: TrialSpec):
        self.measurer = measurer
        self.trial = trial
        self.campaign, self.k = measurer.open_trial(trial)
        self.final: dict | None = None

    def advance(self) -> bool:
        """Run one measurement interval; True when the trial finished."""
        trial, campaign = self.trial, self.campaign
        store = self.measurer.store
        pause_ns = campaign.start_ns + self.k * trial.measure_every_ns
        campaign.step_until(pause_ns)
        store.append(trial.trial_id,
                     self.measurer.sample(trial, self.k, campaign))
        campaign.checkpoint()
        if pause_ns < campaign.deadline_ns:
            self.k += 1
            return False
        self.final = self.measurer.final_record(trial, campaign.finish_run())
        store.append(trial.trial_id, self.final)
        return True


class TrialScheduler:
    """Runs every trial of a spec through the measurer (see module
    docstring for the slot model and resume semantics)."""

    def __init__(self, spec: ExperimentSpec, store: ResultsStore,
                 max_live: int = 4, log=None):
        if max_live < 1:
            raise ValueError("max_live must be >= 1")
        self.spec = spec
        self.store = store
        self.measurer = Measurer(store)
        self.max_live = max_live
        self.log = log if log is not None else (lambda message: None)

    def run(self) -> list[dict]:
        """Drive the matrix to completion; returns the final records in
        spec enumeration order."""
        self.store.bind_spec(self.spec)
        trials = self.spec.enumerate_trials()
        finals: dict[str, dict] = {}
        pending: list[TrialSpec] = []
        for trial in trials:
            records = self.store.read(trial.trial_id)
            if records and records[-1].get("kind") == "final":
                finals[trial.trial_id] = records[-1]
                self.log(f"skip {trial.trial_id} (already complete)")
            else:
                pending.append(trial)

        live: list = []

        def refill() -> None:
            while pending and len(live) < self.max_live:
                trial = pending.pop(0)
                resumable = bool(self.store.read(trial.trial_id))
                live.append(_CampaignSlot(self.measurer, trial))
                self.log(
                    f"{'resume' if resumable else 'start'} "
                    f"{trial.trial_id}"
                )

        refill()
        while live:
            for slot in list(live):
                if slot.advance():
                    live.remove(slot)
                    finals[slot.trial.trial_id] = slot.final
                    self.log(
                        f"done {slot.trial.trial_id}: "
                        f"{slot.final['execs']} execs, "
                        f"{slot.final['edges']} edges, "
                        f"{slot.final['unique_crashes']} crash(es)"
                    )
            refill()
        return [finals[trial.trial_id] for trial in trials]
