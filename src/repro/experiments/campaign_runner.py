"""Shared campaign plumbing for the table experiments.

Runs a seeded campaign on the shared executor builder
(:func:`repro.execution.build_executor`, re-exported here); Tables 5-7
all consume the same runs, so results are cached per (target,
mechanism, trial, budget) within a process.
"""

from __future__ import annotations

from functools import lru_cache

from repro.execution import MECHANISMS, build_executor  # noqa: F401
from repro.fuzzing import Campaign, CampaignConfig, CampaignResult
from repro.sim_os import Kernel
from repro.targets import get_target


@lru_cache(maxsize=None)
def run_campaign(
    target_name: str, mechanism: str, budget_ns: int, seed: int
) -> CampaignResult:
    """Run (or return the cached result of) one fuzzing campaign."""
    spec = get_target(target_name)
    kernel = Kernel()
    executor = build_executor(target_name, mechanism, kernel)
    campaign = Campaign(
        executor,
        spec.seeds,
        CampaignConfig(budget_ns=budget_ns, seed=seed),
    )
    return campaign.run()


def clear_campaign_cache() -> None:
    run_campaign.cache_clear()
