"""Golden bit-identity suite for the validated optimizer.

For every built-in target, the optimized ClosureX build must be
observationally indistinguishable from the unoptimized one on the
whole available corpus — seed inputs plus every crafted crash input:
identical coverage maps, crash digests (trap kind + function + block),
program output, return codes, and final filesystem contents.  The only
licensed difference is the dynamic instruction count, which must drop
by at least 10% on at least five targets (the optimization actually
pays for itself).
"""

from __future__ import annotations

import pytest

from repro.analysis.opt import REPLAY_BOOT_TIME
from repro.runtime.replay import replay
from repro.targets import get_target, target_names

from tests.helpers import all_crash_inputs

TARGETS = target_names()


def _corpus(name) -> list[bytes]:
    spec = get_target(name)
    inputs = list(spec.seeds)
    inputs.extend(all_crash_inputs().get(name, {}).values())
    return inputs


@pytest.fixture(scope="module")
def builds():
    """name -> (baseline module, optimized module, report), built once."""
    out = {}
    for name in TARGETS:
        spec = get_target(name)
        baseline = spec.build_closurex()
        optimized, report = spec.build_optimized()
        out[name] = (baseline, optimized, report)
    return out


@pytest.mark.parametrize("name", TARGETS)
def test_every_input_observes_bit_identically(builds, name):
    baseline, optimized, _report = builds[name]
    for i, data in enumerate(_corpus(name)):
        reference = replay(baseline, data, boot_time=REPLAY_BOOT_TIME)
        got = replay(optimized, data, boot_time=REPLAY_BOOT_TIME)
        assert reference.matches(got), (
            f"{name} input {i}: {reference.describe_mismatch(got)}"
        )
        assert got.coverage == reference.coverage
        assert got.crash == reference.crash


@pytest.mark.parametrize("name", TARGETS)
def test_optimizer_applied_cleanly(builds, name):
    _baseline, optimized, report = builds[name]
    assert report.rejected == 0, [
        o.errors for o in report.outcomes if o.errors
    ]
    assert report.applied > 0
    assert report.instructions_after < report.instructions_before
    assert optimized.instruction_count() == report.instructions_after


def test_dynamic_instruction_floor(builds):
    """>=10% fewer dynamic instructions on >=5 targets (seed corpus)."""
    reductions = {}
    for name in TARGETS:
        baseline, optimized, _report = builds[name]
        seeds = get_target(name).seeds
        before = sum(replay(baseline, s, boot_time=REPLAY_BOOT_TIME)
                     .instructions for s in seeds)
        after = sum(replay(optimized, s, boot_time=REPLAY_BOOT_TIME)
                    .instructions for s in seeds)
        assert before > 0
        reductions[name] = 100.0 * (before - after) / before
    winners = [name for name, cut in reductions.items() if cut >= 10.0]
    assert len(winners) >= 5, reductions
