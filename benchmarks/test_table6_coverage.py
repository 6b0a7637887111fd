"""Benchmark E2 — paper Table 6: edge-coverage improvement.

Shape expectations (paper: average +7.8%, improvement positive on most
targets but statistically significant on only a subset): ClosureX's
extra throughput should buy equal-or-better coverage on the large
majority of targets.
"""

import pytest

from conftest import save_result
from repro.experiments import run_table6


@pytest.fixture(scope="module")
def table6(config, paper_out):
    return run_table6(config, paper_out)


def test_table6_regenerates(benchmark, config, paper_out, results_dir):
    result = benchmark.pedantic(
        run_table6, args=(config, paper_out), rounds=1, iterations=1
    )
    save_result(results_dir, "table6_coverage", result.render())
    assert len(result.rows) == len(config.targets)


def test_coverage_percentages_sane(table6):
    for row in table6.rows:
        assert 0 < row.closurex_coverage <= 100
        assert 0 < row.aflpp_coverage <= 100


def test_closurex_coverage_not_worse_on_most_targets(table6):
    at_least_equal = [r for r in table6.rows if r.improvement >= -2.0]
    assert len(at_least_equal) >= max(1, int(0.7 * len(table6.rows)))


def test_average_improvement_positive(table6):
    assert table6.average_improvement > 0
