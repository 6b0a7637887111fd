"""Experiment E4 — §6.1.4: semantic-correctness validation.

For each target: build a queue (the seeds plus inputs discovered by a
short ClosureX campaign), then for a sample of queue entries check

- dataflow equivalence  (fresh snapshot vs ClosureX-after-pollution), and
- control-flow equivalence (fresh edge trace vs ClosureX-after-pollution),

with naturally non-deterministic inputs masked/excluded, plus a
memcheck (Valgrind-equivalent) pass over the queue.  The paper's
claim — zero divergence after masking — is what the report asserts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.correctness import (
    check_controlflow_equivalence,
    check_dataflow_equivalence,
    run_memcheck,
)
from repro.execution import build_executor
from repro.experiments.config import ExperimentConfig
from repro.experiments.stats import format_table
from repro.fuzzing import Campaign, CampaignConfig, HavocMutator
from repro.sim_os import Kernel
from repro.targets import get_target


@dataclass
class CorrectnessRow:
    """Per-target §6.1.4 equivalence verdicts (dataflow/CFG/memcheck)."""

    benchmark: str
    inputs_checked: int = 0
    dataflow_equivalent: int = 0
    dataflow_diverged: int = 0
    controlflow_equivalent: int = 0
    controlflow_diverged: int = 0
    nondet_excluded: int = 0
    memcheck_clean: bool = True

    @property
    def fully_correct(self) -> bool:
        return (
            self.dataflow_diverged == 0
            and self.controlflow_diverged == 0
            and self.memcheck_clean
        )


@dataclass
class CorrectnessResult:
    """The full correctness-validation table."""

    rows: list[CorrectnessRow]
    pollution_rounds: int

    @property
    def all_correct(self) -> bool:
        return all(row.fully_correct for row in self.rows)

    def render(self) -> str:
        body = [
            [
                row.benchmark,
                str(row.inputs_checked),
                f"{row.dataflow_equivalent}/{row.dataflow_equivalent + row.dataflow_diverged}",
                f"{row.controlflow_equivalent}/{row.controlflow_equivalent + row.controlflow_diverged}",
                str(row.nondet_excluded),
                "yes" if row.memcheck_clean else "NO",
            ]
            for row in self.rows
        ]
        return format_table(
            ["Benchmark", "Inputs", "Dataflow eq.", "Ctrl-flow eq.",
             "Nondet excl.", "Memcheck clean"],
            body,
        )


def build_queue(target: str, config: ExperimentConfig, cap: int = 48) -> list[bytes]:
    """Seeds plus corpus discovered by one short ClosureX campaign."""
    spec = get_target(target)
    seed = config.trial_seed(target, 0)
    result = Campaign(
        build_executor(target, "closurex", Kernel()), spec.seeds,
        CampaignConfig(budget_ns=min(config.budget_ns, 10_000_000), seed=seed),
    ).run()
    queue = list(spec.seeds)
    # Only the campaign's corpus size is used: additional queue entries
    # are synthesised by mutating seeds with the same seeded generator
    # the campaign used.
    rng = random.Random(seed)
    havoc = HavocMutator(rng)
    while len(queue) < min(cap, len(spec.seeds) + result.corpus_size):
        queue.append(havoc.mutate(rng.choice(spec.seeds)))
    return queue[:cap]


def run_correctness(
    config: ExperimentConfig | None = None,
    sample_size: int = 6,
    pollution_rounds: int = 100,
) -> CorrectnessResult:
    """Run E4.  ``pollution_rounds`` plays the paper's "1000 iterations
    of other randomly selected test cases" role (scaled by default)."""
    config = config if config is not None else ExperimentConfig()
    rows: list[CorrectnessRow] = []
    for target in config.targets:
        spec = get_target(target)
        module = spec.build_closurex()
        queue = build_queue(target, config)
        rng = random.Random(config.trial_seed(target, 0))
        row = CorrectnessRow(benchmark=target)
        sample = queue[: min(sample_size, len(queue))]
        for data in sample:
            pollution = [rng.choice(queue) for _ in range(pollution_rounds)]
            dataflow = check_dataflow_equivalence(module, data, pollution)
            row.inputs_checked += 1
            if dataflow.equivalent:
                row.dataflow_equivalent += 1
            else:
                row.dataflow_diverged += 1
            controlflow = check_controlflow_equivalence(module, data, pollution)
            if controlflow.nondeterministic:
                row.nondet_excluded += 1
            elif controlflow.equivalent:
                row.controlflow_equivalent += 1
            else:
                row.controlflow_diverged += 1
        row.memcheck_clean = run_memcheck(module, queue[:24]).clean
        rows.append(row)
    return CorrectnessResult(rows=rows, pollution_rounds=pollution_rounds)
