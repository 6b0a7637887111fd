"""Benchmark E7 — the motivation (paper §1-2): naive persistent fuzzing
is semantically incorrect in exactly three observable ways, and
ClosureX fixes all three while a fresh process defines the ground truth.
"""

import pytest

from conftest import save_result
from repro.experiments import run_motivation


@pytest.fixture(scope="module")
def motivation():
    return run_motivation()


def test_motivation_regenerates(benchmark, results_dir):
    report = benchmark.pedantic(run_motivation, rounds=1, iterations=1)
    save_result(results_dir, "motivation_incorrectness", report.render())


def test_fresh_process_is_ground_truth(motivation):
    assert motivation.fresh_crash


def test_pathology_missed_crash(motivation):
    assert motivation.persistent_missed_crash


def test_pathology_false_crash(motivation):
    assert motivation.persistent_false_crashes
    assert not motivation.false_crash_reproducible_fresh


def test_pollution_accumulates(motivation):
    assert motivation.persistent_peak_leaked_bytes > 100_000
    assert motivation.persistent_peak_open_fds > 10


def test_closurex_has_none_of_the_pathologies(motivation):
    assert motivation.closurex_crash
    assert motivation.demonstrates_incorrectness
