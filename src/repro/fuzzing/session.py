"""The campaign session: the one slice-at-a-time campaign driver.

The service, the platform scheduler, fleet shards and the fuzzing CLI
all open a campaign (fresh, from a checkpoint, or from a barrier
state), advance it to the budget deadline a slice at a time, and
finish it.  Slices pause only between queue cycles and the stages run
against the true deadline, so any slicing — with resumes along the
way — ends on the uninterrupted run's ``state_digest()``.
"""

from __future__ import annotations

import dataclasses

from repro.execution.common import Executor
from repro.fuzzing.campaign import Campaign, CampaignConfig, CampaignResult
from repro.fuzzing.checkpoint import CheckpointError, load_checkpoint


class CampaignSession:
    """One campaign driven a slice at a time (see module docstring)."""

    def __init__(self, executor: Executor, seeds: list[bytes],
                 config: CampaignConfig | None = None, *,
                 checkpoint_path: str | None = None,
                 state: dict | None = None):
        """Open the campaign; :meth:`start` it next.  *state* (a
        ``capture_state`` dict) resumes from memory.  *checkpoint_path*
        parks the periodic cadence past the budget — checkpoints come
        from :meth:`checkpoint` — and, lacking *state*, resumes from
        the newest loadable generation, or fresh (digest-equivalent by
        determinism) when none loads."""
        if checkpoint_path is not None:
            config = dataclasses.replace(
                config, checkpoint_path=checkpoint_path,
                checkpoint_interval_ns=config.budget_ns * 4,
            )
            if state is None:
                try:
                    state = load_checkpoint(checkpoint_path)
                except CheckpointError:
                    pass
        self.resumed = state is not None
        self.campaign = (
            Campaign.from_state(state, executor, config) if self.resumed
            else Campaign(executor, seeds, config)
        )

    def start(self) -> None:
        """Boot the executor and seed the queue, or restore it."""
        self.campaign.start()
        self.start_ns = self.campaign.run_start_ns
        self.deadline_ns = self.start_ns + self.campaign.config.budget_ns

    @property
    def now_ns(self) -> int:
        return self.campaign.clock.now_ns

    def advance(self, until_ns: int) -> bool:
        """Fuzz past *until_ns*, clamped to the deadline; returns whether
        the clock moved (not at the deadline or with an empty queue)."""
        before_ns = self.now_ns
        self.campaign.step_until(min(until_ns, self.deadline_ns))
        return self.now_ns > before_ns

    def checkpoint(self) -> str:
        """Persist the campaign now; returns the checkpoint path."""
        return self.campaign.checkpoint()

    def progress(self) -> dict:
        """The campaign's counters; ``t_ns`` is the budget consumed."""
        campaign, triage = self.campaign, self.campaign.triage
        return {
            "clock_ns": self.now_ns,
            "t_ns": self.now_ns - self.start_ns,
            "execs": campaign.execs,
            "edges": campaign.virgin.edges_found(),
            "corpus": len(campaign.corpus),
            "unique_crashes": triage.unique_count,
            "total_crashes": triage.total_crashes,
            "unique_hangs": triage.unique_hang_count,
            "total_hangs": triage.total_hangs,
        }

    def finish(self) -> CampaignResult:
        """Tear down the executor and build the result."""
        return self.campaign.finish_run()
