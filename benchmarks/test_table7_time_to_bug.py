"""Benchmark E3 — paper Table 7: time-to-bug.

Shape expectations (paper: ClosureX finds shared bugs ~1.9x faster and
in ~25% more trials; a minority of rows may favour AFL++): on the four
bug-bearing targets, ClosureX's aggregate discovery speed and finding
count must be at least on par, and the planted bug types must match the
paper's rows.
"""

import pytest

from conftest import save_result
from repro.experiments import BUG_TARGETS, ExperimentConfig, run_table7


@pytest.fixture(scope="module")
def table7_config(config):
    # time-to-bug needs longer campaigns than throughput measurement
    return ExperimentConfig(
        budget_ns=max(config.budget_ns * 3, 50_000_000),
        trials=config.trials,
        targets=[t for t in config.targets if t in BUG_TARGETS] or list(BUG_TARGETS),
    )


@pytest.fixture(scope="module")
def table7_out(tmp_path_factory):
    # Its own trials: the longer budget is a different paper spec.
    return str(tmp_path_factory.mktemp("paper-table7"))


@pytest.fixture(scope="module")
def table7(table7_config, table7_out):
    return run_table7(table7_config, out=table7_out)


def test_table7_regenerates(benchmark, table7_config, table7_out, results_dir):
    result = benchmark.pedantic(
        run_table7, args=(table7_config,), kwargs={"out": table7_out},
        rounds=1, iterations=1,
    )
    save_result(results_dir, "table7_time_to_bug", result.render())
    assert result.rows


def test_bug_types_match_paper_rows(table7):
    labels = {(row.benchmark, row.bug_type) for row in table7.rows}
    expected_types = {
        "c-blosc2": {"Null Ptr Deref."},
        "gpmf-parser": {"Division by Zero", "Unaddressable Access",
                        "Invalid Write", "Invalid Read"},
        "libbpf": {"Null Ptr Deref."},
        "md4c": {"Memcpy with negative size", "Array out of bounds access"},
    }
    for benchmark_name, types in expected_types.items():
        present = {t for b, t in labels if b == benchmark_name}
        if present:  # target included in this run
            assert present <= types

def test_closurex_finds_bugs(table7):
    found = [row for row in table7.rows if row.closurex_times]
    assert found, "ClosureX found no bugs at this budget"


def test_closurex_finds_at_least_as_many_trials(table7):
    closurex_count, aflpp_count = table7.finding_counts()
    assert closurex_count >= aflpp_count


def test_aggregate_speedup_favours_closurex(table7):
    speedup = table7.aggregate_speedup()
    if speedup is None:
        pytest.skip("no bug found by both mechanisms at this budget")
    assert speedup > 0.8  # parity or better; paper reports ~1.9x
