"""Experiment E3 — Table 7: time-to-bug.

For the four bug-bearing targets, read N paper trials per mechanism
and record, for every planted bug, the virtual time of its first
discovery in each trial (the ``crashes`` of the trial's final record).
Rows mirror the paper's Table 7: mean seconds-to-bug with the number of
finding trials in parentheses, plus the bug-type label, for ClosureX
and AFL++ side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.config import ExperimentConfig, paper_finals
from repro.experiments.stats import format_table, mean
from repro.targets import get_target
from repro.vm.errors import TrapKind

#: The paper's Table 7 covers exactly these four programs.
BUG_TARGETS = ("c-blosc2", "gpmf-parser", "libbpf", "md4c")


@dataclass
class Table7Row:
    """One planted bug's time-to-discovery row."""

    benchmark: str
    bug_id: str
    bug_type: str
    closurex_times: list[float] = field(default_factory=list)  # virtual secs
    aflpp_times: list[float] = field(default_factory=list)
    trials: int = 0

    def mean_time(self, mechanism: str) -> float | None:
        times = self.closurex_times if mechanism == "closurex" else self.aflpp_times
        return mean(times) if times else None

    def cell(self, mechanism: str) -> str:
        times = self.closurex_times if mechanism == "closurex" else self.aflpp_times
        if not times:
            return f"- (0/{self.trials})"
        return f"{mean(times):.3f} ({len(times)})"


@dataclass
class Table7Result:
    """The reproduced Table 7: time-to-bug across the 15 bugs."""

    rows: list[Table7Row]
    trials: int

    def render(self) -> str:
        body = [
            [row.benchmark, row.cell("closurex"), row.cell("aflpp"), row.bug_type]
            for row in self.rows
        ]
        return format_table(
            ["Benchmark", "ClosureX (vs)", "AFL++ (vs)", "Bug Type"], body
        )

    def aggregate_speedup(self) -> float | None:
        """Mean per-bug time ratio over bugs both mechanisms found."""
        ratios = []
        for row in self.rows:
            cx, fk = row.mean_time("closurex"), row.mean_time("aflpp")
            if cx and fk and cx > 0:
                ratios.append(fk / cx)
        return mean(ratios) if ratios else None

    def finding_counts(self) -> tuple[int, int]:
        """(closurex, aflpp) total bug-finding trials across all rows."""
        cx = sum(len(r.closurex_times) for r in self.rows)
        fk = sum(len(r.aflpp_times) for r in self.rows)
        return cx, fk


def run_table7(config: ExperimentConfig | None = None,
               targets: tuple[str, ...] = BUG_TARGETS,
               out: str | None = None) -> Table7Result:
    """Table 7 from the crashes in the final records of the paper
    trials in *out* (running whichever are missing)."""
    config = config if config is not None else ExperimentConfig()
    selected = [t for t in targets if t in config.targets] or list(targets)
    rows: list[Table7Row] = []
    for target, finals in paper_finals(config, selected, out).items():
        spec = get_target(target)
        per_bug = {
            bug.bug_id: Table7Row(
                benchmark=target,
                bug_id=bug.bug_id,
                bug_type=bug.table7_label,
                trials=config.trials,
            )
            for bug in spec.bugs
        }
        for mechanism, bucket in (("closurex", "closurex_times"),
                                  ("forkserver", "aflpp_times")):
            for final in finals[mechanism]:
                for kind, function, block, found_at_ns in final["crashes"]:
                    bug = spec.find_bug((TrapKind(kind), function, block))
                    if bug is None:
                        continue
                    getattr(per_bug[bug.bug_id], bucket).append(
                        found_at_ns / 1e9
                    )
        rows.extend(per_bug.values())
    return Table7Result(rows=rows, trials=config.trials)
