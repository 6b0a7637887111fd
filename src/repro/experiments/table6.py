"""Experiment E2 — Table 6: edge-coverage improvement.

Same paper trials as Table 5; each trial's final coverage is the number
of hit edge-map cells divided by the target's edge universe (static
CFG edges plus two dynamic pairs per direct call — the map cells a
complete exploration could hit).  Reported exactly like the paper's
Table 6: coverage %, % improvement of ClosureX over AFL++, and the
Mann-Whitney p-value per target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import ExperimentConfig, paper_finals
from repro.experiments.stats import format_table, mann_whitney_p, mean
from repro.ir import cfg
from repro.targets import get_target


def edge_universe(target_name: str) -> int:
    """Denominator of the edge-coverage percentage for one target."""
    module = get_target(target_name).build_baseline()
    return cfg.edge_count(module) + 2 * cfg.call_site_count(module)


@dataclass
class Table6Row:
    """One benchmark's coverage row (edges per mechanism + stats)."""

    benchmark: str
    closurex_coverage: float        # percent
    aflpp_coverage: float           # percent
    improvement: float              # percent improvement
    p_value: float
    closurex_trials: list[float] = field(default_factory=list)
    aflpp_trials: list[float] = field(default_factory=list)


@dataclass
class Table6Result:
    """The reproduced Table 6: coverage across all benchmarks."""

    rows: list[Table6Row]
    average_improvement: float

    def render(self) -> str:
        body = [
            [
                row.benchmark,
                f"{row.closurex_coverage:.2f}%",
                f"{row.aflpp_coverage:.2f}%",
                f"{row.improvement:.2f}",
                f"{row.p_value:.3f}",
            ]
            for row in self.rows
        ]
        body.append(["Average", "", "", f"{self.average_improvement:.2f}", ""])
        return format_table(
            ["Benchmark", "ClosureX", "AFL++", "% Improvement", "p value"], body
        )


def run_table6(config: ExperimentConfig | None = None,
               out: str | None = None) -> Table6Result:
    """Table 6 from the final records of the paper trials in *out*
    (running whichever are missing)."""
    config = config if config is not None else ExperimentConfig()
    rows: list[Table6Row] = []
    for target, finals in paper_finals(config, config.targets, out).items():
        universe = edge_universe(target)
        closurex = [100.0 * min(final["edges"], universe) / universe
                    for final in finals["closurex"]]
        aflpp = [100.0 * min(final["edges"], universe) / universe
                 for final in finals["forkserver"]]
        cx_mean, fk_mean = mean(closurex), mean(aflpp)
        improvement = 100.0 * (cx_mean - fk_mean) / fk_mean if fk_mean else 0.0
        rows.append(
            Table6Row(
                benchmark=target,
                closurex_coverage=cx_mean,
                aflpp_coverage=fk_mean,
                improvement=improvement,
                p_value=mann_whitney_p(closurex, aflpp),
                closurex_trials=closurex,
                aflpp_trials=aflpp,
            )
        )
    average = mean([row.improvement for row in rows])
    return Table6Result(rows=rows, average_improvement=average)
