"""The campaign session and the shared executor builder.

Every way to open a :class:`CampaignSession` — fresh, from a checkpoint
path, past a checkpoint whose every generation is corrupt, from an
in-memory barrier state — advanced in uneven slices, must end on the
digest of one uninterrupted ``Campaign.run()``; a fleet advanced the
same way through a checkpoint must end on ``ParallelCampaign.run()``'s.
And the drivers built on them (service, fleet, fuzzing CLI) must not
drag in the evaluation stack.
"""

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
    CampaignSession,
    capture_state,
)
from repro.parallel import ParallelCampaign, ParallelConfig
from repro.sim_os import Kernel
from repro.targets import get_target

TARGET = "giftext"
SEEDS = get_target(TARGET).seeds
BUDGET_NS = 6_000_000
SLICES_NS = (700_000, 2_300_000, 1_100_000, 400_000)
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def _executor():
    return build_executor(TARGET, "closurex", Kernel())


def _config():
    return CampaignConfig(budget_ns=BUDGET_NS, seed=11)


@pytest.fixture(scope="module")
def uninterrupted_digest():
    campaign = Campaign(_executor(), SEEDS, _config())
    campaign.run()
    return campaign.state_digest()


def _abandoned(path=None) -> CampaignSession:
    """A session advanced part-way, then left as a killed run leaves it."""
    session = CampaignSession(
        _executor(), SEEDS, _config(), checkpoint_path=path
    )
    session.start()
    session.advance(session.now_ns + 2_500_000)
    return session


def _fresh(tmp_path):
    return CampaignSession(_executor(), SEEDS, _config())


def _from_checkpoint(tmp_path):
    path = str(tmp_path / "campaign.ckpt")
    _abandoned(path).checkpoint()
    return CampaignSession(
        _executor(), SEEDS, _config(), checkpoint_path=path
    )


def _past_corrupt_generations(tmp_path):
    path = str(tmp_path / "campaign.ckpt")
    for generation in (path, path + ".1"):
        with open(generation, "wb") as handle:
            handle.write(b"RPRCKPT1 torn mid-write")
    return CampaignSession(
        _executor(), SEEDS, _config(), checkpoint_path=path
    )


def _from_barrier_state(tmp_path):
    state = pickle.dumps(capture_state(_abandoned().campaign))
    return CampaignSession(
        _executor(), SEEDS, _config(), state=pickle.loads(state)
    )


@pytest.mark.parametrize("opener, resumed", [
    (_fresh, False),
    (_from_checkpoint, True),
    (_past_corrupt_generations, False),
    (_from_barrier_state, True),
], ids=["fresh", "checkpoint", "all-generations-corrupt", "barrier-state"])
def test_sliced_session_ends_on_uninterrupted_digest(
    opener, resumed, tmp_path, uninterrupted_digest
):
    session = opener(tmp_path)
    assert session.resumed is resumed
    session.start()
    slices = itertools.cycle(SLICES_NS)
    while session.advance(session.now_ns + next(slices)):
        pass
    assert session.now_ns >= session.deadline_ns
    session.finish()
    assert session.campaign.state_digest() == uninterrupted_digest


def _fleet_config(path=None) -> ParallelConfig:
    return ParallelConfig(target=TARGET, n_workers=2, seed=11,
                          budget_ns=BUDGET_NS, sync_every_ns=1_000_000,
                          checkpoint_path=path)


def test_sliced_fleet_ends_on_uninterrupted_digest(tmp_path):
    """Slices shorter than a sync round run one round, longer ones run
    several; a checkpoint and a resume midway change nothing."""
    golden = ParallelCampaign(_fleet_config()).run().digest()
    path = str(tmp_path / "fleet.ckpt")
    slices = itertools.cycle(SLICES_NS)
    fleet = ParallelCampaign.open(_fleet_config(path))
    assert not fleet.resumed
    fleet.start()
    while fleet.now_ns < BUDGET_NS // 2:
        assert fleet.advance(fleet.now_ns + next(slices))
    fleet.checkpoint()
    fleet = ParallelCampaign.open(_fleet_config(path))
    assert fleet.resumed
    fleet.start()
    while fleet.advance(fleet.now_ns + next(slices)):
        pass
    assert fleet.now_ns >= fleet.deadline_ns
    assert fleet.finish().digest() == golden


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
