"""One driver surface for one worker or many.

Every way to open a :class:`Campaign` — fresh, from a checkpoint path,
past a checkpoint whose every generation is corrupt, from an in-memory
barrier state — stepped in uneven slices, must end on the digest of
one uninterrupted ``Campaign.run()``; a fleet stepped by the same code
through a checkpoint and a reopen must end on the digest of
``ParallelCampaign.run()``.  Only callers write checkpoints.  And the
drivers built on the surface (service, fleet, fuzzing CLI) must not
drag in the evaluation stack.
"""

import dataclasses
import itertools
import os
import pickle
import subprocess
import sys

import pytest

from repro.execution import build_executor
from repro.fuzzing import (
    Campaign,
    CampaignConfig,
    capture_state,
    load_checkpoint,
)
from repro.parallel import ParallelCampaign, ParallelConfig, ParallelResult
from repro.sim_os import Kernel
from repro.targets import get_target

TARGET = "giftext"
SEEDS = get_target(TARGET).seeds
BUDGET_NS = 6_000_000
SLICES_NS = (700_000, 2_300_000, 1_100_000, 400_000)
PROGRESS_KEYS = {
    "clock_ns", "t_ns", "execs", "edges", "corpus",
    "unique_crashes", "total_crashes", "unique_hangs", "total_hangs",
}
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def _executor():
    return build_executor(TARGET, "closurex", Kernel())


def _config(path=None):
    return CampaignConfig(budget_ns=BUDGET_NS, seed=11, checkpoint_path=path)


def _fleet_config(path=None) -> ParallelConfig:
    return ParallelConfig(target=TARGET, n_workers=2, seed=11,
                          budget_ns=BUDGET_NS, sync_every_ns=1_000_000,
                          checkpoint_path=path)


def _step(campaign, until_ns) -> None:
    """Step a started campaign or fleet in uneven slices until its
    clock reaches *until_ns*; every slice must move the clock."""
    slices = itertools.cycle(SLICES_NS)
    while campaign.now_ns < until_ns:
        assert campaign.step_until(campaign.now_ns + next(slices))
        assert set(campaign.progress()) == PROGRESS_KEYS


def _finish(campaign) -> str:
    """Step to the deadline, finish, and return the run's digest."""
    _step(campaign, campaign.deadline_ns)
    assert not campaign.step_until(campaign.now_ns + SLICES_NS[0])
    result = campaign.finish_run()
    if isinstance(result, ParallelResult):
        return result.digest()
    return campaign.state_digest()


@pytest.fixture(scope="module")
def uninterrupted_digest():
    campaign = Campaign(_executor(), SEEDS, _config())
    campaign.run()
    return campaign.state_digest()


def _abandoned(path=None) -> Campaign:
    """A campaign stepped part-way, then left as a killed run leaves it."""
    campaign = Campaign(_executor(), SEEDS, _config(path))
    campaign.start()
    campaign.step_until(campaign.now_ns + 2_500_000)
    return campaign


def _fresh(tmp_path):
    return Campaign.open(_executor(), SEEDS,
                         _config(str(tmp_path / "absent.ckpt")))


def _from_checkpoint(tmp_path):
    path = str(tmp_path / "campaign.ckpt")
    _abandoned(path).checkpoint()
    return Campaign.open(_executor(), SEEDS, _config(path))


def _past_corrupt_generations(tmp_path):
    path = str(tmp_path / "campaign.ckpt")
    for generation in (path, path + ".1"):
        with open(generation, "wb") as handle:
            handle.write(b"RPRCKPT1 torn mid-write")
    return Campaign.open(_executor(), SEEDS, _config(path))


def _from_barrier_state(tmp_path):
    state = pickle.dumps(capture_state(_abandoned()))
    return Campaign.from_state(pickle.loads(state), _executor(), _config())


@pytest.mark.parametrize("opener, resumed", [
    (_fresh, False),
    (_from_checkpoint, True),
    (_past_corrupt_generations, False),
    (_from_barrier_state, True),
], ids=["fresh", "checkpoint", "all-generations-corrupt", "barrier-state"])
def test_sliced_session_ends_on_uninterrupted_digest(
    opener, resumed, tmp_path, uninterrupted_digest
):
    campaign = opener(tmp_path)
    assert campaign.resumed is resumed
    campaign.start()
    assert _finish(campaign) == uninterrupted_digest


def test_sliced_fleet_ends_on_uninterrupted_digest(tmp_path):
    """Slices shorter than a sync round run one round, longer ones run
    several; a checkpoint and a reopen midway change nothing."""
    golden = ParallelCampaign(_fleet_config()).run().digest()
    path = str(tmp_path / "fleet.ckpt")
    fleet = ParallelCampaign.open(_fleet_config(path))
    assert not fleet.resumed
    fleet.start()
    _step(fleet, BUDGET_NS // 2)
    fleet.checkpoint()
    fleet = ParallelCampaign.open(_fleet_config(path))
    assert fleet.resumed
    fleet.start()
    assert _finish(fleet) == golden


def test_only_callers_write_checkpoints(tmp_path, monkeypatch):
    """``start`` and ``step_until`` write nothing; ``checkpoint`` writes
    the instant it is called at; ``run`` writes a post-seeding baseline
    and then one generation per interval slice."""
    path = str(tmp_path / "campaign.ckpt")
    campaign = Campaign(_executor(), SEEDS, _config(path))
    campaign.start()
    campaign.step_until(campaign.deadline_ns)
    assert os.listdir(tmp_path) == []
    assert campaign.checkpoint() == path
    assert load_checkpoint(path)["clock_ns"] == campaign.now_ns

    interval_ns = 2_000_000
    path = str(tmp_path / "run.ckpt")
    written: list[tuple[int, int]] = []
    checkpoint = Campaign.checkpoint

    def recording(self, path=None):
        written.append((self.now_ns, self.execs))
        return checkpoint(self, path)

    monkeypatch.setattr(Campaign, "checkpoint", recording)
    campaign = Campaign(_executor(), SEEDS, dataclasses.replace(
        _config(path), checkpoint_interval_ns=interval_ns))
    campaign.run()
    assert len(written) >= 3
    assert written[0][1] == len(SEEDS)          # right after seeding
    for (earlier_ns, _), (later_ns, _) in zip(written, written[1:]):
        assert later_ns - earlier_ns >= interval_ns
    assert [(state["clock_ns"], state["execs"]) for state in (
        load_checkpoint(path + ".1"), load_checkpoint(path),
    )] == written[-2:]


def test_drivers_do_not_load_the_evaluation_stack():
    """The service, the fleet and the fuzzing CLI build executors from
    repro.execution, so neither repro.experiments nor scipy loads."""
    code = (
        "import sys\n"
        "import repro.service, repro.parallel, repro.fuzzing.__main__\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or "
        "m.startswith(('scipy.', 'repro.experiments'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"
