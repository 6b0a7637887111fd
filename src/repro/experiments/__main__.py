"""Command-line entry point for the paper's table/figure experiments.

Lists and runs the evaluation entry points that previously required
ad-hoc imports::

    python -m repro.experiments                # list what's available
    python -m repro.experiments table5         # reproduce Table 5
    python -m repro.experiments table6 table7  # several in one go
    python -m repro.experiments ablation --target md4c
    python -m repro.experiments table5 --out paper  # keep the trials

Sizing follows the usual environment knobs (``REPRO_BUDGET_MS``,
``REPRO_TRIALS``, ``REPRO_TARGETS`` — see
:mod:`repro.experiments.config`), so CI-speed runs and full
reproductions are the same command under different exports.  Tables
5-7 and the timeline share the paper trials stored under ``--out``,
which a killed run resumes from.  For matrix experiments with
statistics beyond the paper's tables, see
``python -m repro.experiments.platform``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.experiments.ablation import (
    run_fd_rewind_ablation,
    run_pass_ablation,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.correctness_exp import run_correctness
from repro.experiments.figures import run_spectrum, run_timeline
from repro.experiments.i2s_exp import run_i2s_guards
from repro.experiments.motivation import run_motivation
from repro.experiments.table5 import run_table5
from repro.experiments.table6 import run_table6
from repro.experiments.table7 import run_table7
from repro.targets import target_names

#: name -> (description, runner(config, target, out) -> renderable
#: result).  Runners take the shared sizing config plus the --target
#: and --out options and return any object with a ``render()`` method.
ENTRY_POINTS = {
    "table5": (
        "Table 5: test-case execution rate (ClosureX vs AFL++)",
        lambda config, target, out: run_table5(config, out),
    ),
    "table6": (
        "Table 6: edge-coverage improvement",
        lambda config, target, out: run_table6(config, out),
    ),
    "table7": (
        "Table 7: time-to-bug on the planted-bug targets",
        lambda config, target, out: run_table7(config, out=out),
    ),
    "correctness": (
        "§6.1.4: semantic-correctness validation",
        lambda config, target, out: run_correctness(config),
    ),
    "spectrum": (
        "Mechanism cost spectrum (per-iteration breakdown)",
        lambda config, target, out: run_spectrum(target),
    ),
    "timeline": (
        "Coverage/exec timelines per mechanism",
        lambda config, target, out: run_timeline(target, config, out),
    ),
    "motivation": (
        "§2 motivation: naive persistent-mode pathologies",
        lambda config, target, out: run_motivation(),
    ),
    "ablation": (
        "Pass ablation: drop each ClosureX pass in turn",
        lambda config, target, out: run_pass_ablation(target),
    ),
    "fd-rewind": (
        "FD-rewind ablation (restore cost vs correctness)",
        lambda config, target, out: run_fd_rewind_ablation(target),
    ),
    "i2s-guards": (
        "Input-to-state stage: time-to-guarded-edge vs havoc-only",
        lambda config, target, out: run_i2s_guards(config),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's table/figure experiments "
                    "(no arguments: list them).",
    )
    parser.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help=f"one or more of: {', '.join(ENTRY_POINTS)}")
    parser.add_argument("--target", default="giftext",
                        choices=target_names(),
                        help="target for single-target experiments "
                             "(default: giftext)")
    parser.add_argument("--out", metavar="DIR",
                        help="paper-trial results directory, one store "
                             "per target (default: a fresh temporary "
                             "directory)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments and exit")
    return parser


def list_entry_points() -> str:
    """The listing printed by ``python -m repro.experiments``."""
    width = max(len(name) for name in ENTRY_POINTS)
    lines = ["available experiments:"]
    lines.extend(
        f"  {name.ljust(width)}  {description}"
        for name, (description, _runner) in ENTRY_POINTS.items()
    )
    lines.append(
        "\nsizing: REPRO_BUDGET_MS / REPRO_TRIALS / REPRO_TARGETS "
        "(see repro.experiments.config)"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list or not args.experiments:
        print(list_entry_points())
        return 0
    unknown = [name for name in args.experiments
               if name not in ENTRY_POINTS]
    if unknown:
        print(f"error: unknown experiment(s) {unknown}; "
              f"choose from {', '.join(ENTRY_POINTS)}", file=sys.stderr)
        return 2
    config = ExperimentConfig()
    out = args.out or tempfile.mkdtemp(prefix="repro-paper-")
    for name in args.experiments:
        _description, runner = ENTRY_POINTS[name]
        print(f"== {name} ==")
        print(runner(config, args.target, out).render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
