"""Benchmark E1 — paper Table 5: test-case execution rate.

Regenerates the ClosureX-vs-AFL++ throughput comparison: per-target
test cases per 24 virtual hours, speedup, and Mann-Whitney p-value.

Shape expectations (paper: per-target speedups 2.36-4.79, avg 3.53):
ClosureX must beat the forkserver on every target, with the average in
the same band.
"""

import pytest

from conftest import save_result
from repro.experiments import run_table5


@pytest.fixture(scope="module")
def table5(config, paper_out):
    return run_table5(config, paper_out)


def test_table5_regenerates(benchmark, config, paper_out, results_dir):
    result = benchmark.pedantic(
        run_table5, args=(config, paper_out), rounds=1, iterations=1
    )
    save_result(results_dir, "table5_throughput", result.render())
    assert len(result.rows) == len(config.targets)


def test_closurex_wins_every_target(table5):
    for row in table5.rows:
        assert row.speedup > 1.3, f"{row.benchmark}: speedup {row.speedup:.2f}"


def test_average_speedup_in_paper_band(table5, config):
    if len(config.targets) < 6 or config.budget_ns < 15_000_000:
        pytest.skip("band claim applies to full-size runs "
                    "(>=6 targets, REPRO_BUDGET_MS>=15)")
    # paper: 3.53x average; we accept the 2.5-5.5 band for scaled runs
    assert 2.5 < table5.average_speedup < 5.5


def test_speedups_statistically_significant_with_enough_trials(table5, config):
    if config.trials < 4:
        pytest.skip("significance needs >= 4 trials (set REPRO_TRIALS=5)")
    significant = [row for row in table5.rows if row.p_value < 0.05]
    assert len(significant) >= len(table5.rows) * 0.8
