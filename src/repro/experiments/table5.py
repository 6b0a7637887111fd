"""Experiment E1 — Table 5: test-case execution rate.

For every benchmark, read the N paired paper trials under ClosureX and
under the AFL++ forkserver (identical seeds/mutators), extrapolate
each trial's throughput to the paper's 24-hour horizon, and report the
per-target speedup and Mann-Whitney p-value — the same row format as
the paper's Table 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import HORIZON_24H_NS, ExperimentConfig, paper_finals
from repro.experiments.stats import format_count, format_table, mann_whitney_p, mean


@dataclass
class Table5Row:
    """One benchmark's throughput row (execs/s per mechanism)."""

    benchmark: str
    closurex_execs_24h: float
    aflpp_execs_24h: float
    speedup: float
    p_value: float
    closurex_trials: list[float] = field(default_factory=list)
    aflpp_trials: list[float] = field(default_factory=list)


@dataclass
class Table5Result:
    """The reproduced Table 5: throughput across all benchmarks."""

    rows: list[Table5Row]
    average_speedup: float

    def render(self) -> str:
        body = [
            [
                row.benchmark,
                format_count(row.closurex_execs_24h),
                format_count(row.aflpp_execs_24h),
                f"{row.speedup:.2f}",
                f"{row.p_value:.4f}",
            ]
            for row in self.rows
        ]
        body.append(["Average", "", "", f"{self.average_speedup:.2f}", ""])
        return format_table(
            ["Benchmark", "ClosureX", "AFL++", "Speedup", "p value"], body
        )


def run_table5(config: ExperimentConfig | None = None,
               out: str | None = None) -> Table5Result:
    """Table 5 from the final records of the paper trials in *out*
    (running whichever are missing)."""
    config = config if config is not None else ExperimentConfig()
    rows: list[Table5Row] = []
    for target, finals in paper_finals(config, config.targets, out).items():
        closurex = [final["execs"] * HORIZON_24H_NS / final["elapsed_ns"]
                    for final in finals["closurex"]]
        aflpp = [final["execs"] * HORIZON_24H_NS / final["elapsed_ns"]
                 for final in finals["forkserver"]]
        cx_mean, fk_mean = mean(closurex), mean(aflpp)
        rows.append(
            Table5Row(
                benchmark=target,
                closurex_execs_24h=cx_mean,
                aflpp_execs_24h=fk_mean,
                speedup=cx_mean / fk_mean if fk_mean else 0.0,
                p_value=mann_whitney_p(closurex, aflpp),
                closurex_trials=closurex,
                aflpp_trials=aflpp,
            )
        )
    average = mean([row.speedup for row in rows])
    return Table5Result(rows=rows, average_speedup=average)
