"""Benchmark — execs/coverage-over-time series (the standard fuzzing
evaluation line plot, ClosureX vs AFL++ forkserver on one target)."""

import pytest

from conftest import save_result
from repro.experiments import run_timeline


@pytest.fixture(scope="module")
def timeline(config, paper_out):
    return run_timeline("gpmf-parser", config, paper_out)


def test_timeline_regenerates(benchmark, config, paper_out, results_dir):
    figure = benchmark.pedantic(
        run_timeline, args=("gpmf-parser", config, paper_out),
        rounds=1, iterations=1,
    )
    save_result(results_dir, "fig_timeline", figure.render())


def test_both_series_present(timeline):
    assert {s.mechanism for s in timeline.series} == {"closurex", "forkserver"}


def test_execs_monotonic(timeline):
    for series in timeline.series:
        execs = [point[1] for point in series.points]
        assert execs == sorted(execs)


def test_closurex_executes_more_by_the_end(timeline):
    finals = {s.mechanism: s.points[-1][1] for s in timeline.series if s.points}
    assert finals["closurex"] > finals["forkserver"]
