"""Command-line entry point for the paper's experiments.

Lists and runs the evaluation entry points, and runs arbitrary
experiment matrices on the platform::

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
which a killed run resumes from.  Unusable sizing, or an ``--out`` that
cannot be created or written, is one ``error:`` line and exit status 2
before any trial.

``python -m repro.experiments matrix`` runs any (mechanism x target x
seed x config) matrix on the platform, from ``--demo``, a ``--spec``
file or ad-hoc ``--targets``/``--mechanisms`` flags (see
docs/experiments.md); a rerun over the same ``--out`` resumes.  Its
last lines, ``store digest:`` and ``report digest:``, are
bit-identical for every run of the same spec.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from repro.execution import MECHANISMS
from repro.experiments import (
    ExperimentConfig,
    run_correctness,
    run_fd_rewind_ablation,
    run_global_pass_figure,
    run_i2s_guards,
    run_motivation,
    run_pass_ablation,
    run_restore_lifecycle,
    run_spectrum,
    run_table5,
    run_table6,
    run_table7,
    run_timeline,
)
from repro.experiments.platform import (
    ExperimentSpec,
    ReportError,
    ReportGenerator,
    ResultsStore,
    SpecError,
    TrialScheduler,
)
from repro.experiments.platform.spec import MS
from repro.store.io import unwritable_output
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
    "pass-figure": (
        "Figure 3: writable globals relocated by the GlobalPass",
        lambda config, target, out: run_global_pass_figure(target),
    ),
    "lifecycle": (
        "Figures 4-5: one test case's pollution and restore",
        lambda config, target, out: run_restore_lifecycle(target),
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
        "\nmatrix experiments: python -m repro.experiments matrix --help"
    )
    return "\n".join(lines)


def demo_spec() -> ExperimentSpec:
    """The built-in smoke matrix: small, fast, and fully featured."""
    return ExperimentSpec(
        name="demo",
        targets=["md4c", "giftext"],
        mechanisms=["closurex", "forkserver"],
        trials=2,
        budget_ns=4 * MS,
        measure_every_ns=1 * MS,
        base_seed=100,
    )


def build_matrix_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments matrix",
        description="Run a (mechanism x target x seed x config) "
                    "experiment matrix and generate a statistical "
                    "report.",
    )
    parser.add_argument("--spec", metavar="PATH",
                        help="experiment spec JSON file")
    parser.add_argument("--demo", action="store_true",
                        help="run the built-in demo matrix")
    parser.add_argument("--out", metavar="DIR",
                        help="results-store directory (default: a fresh "
                             "temporary directory)")
    parser.add_argument("--targets", metavar="A,B",
                        help="comma-separated targets (ad-hoc spec)")
    parser.add_argument("--mechanisms", metavar="A,B",
                        help=f"comma-separated mechanisms from "
                             f"{MECHANISMS} (ad-hoc spec)")
    parser.add_argument("--trials", type=int, default=2,
                        help="trials per (target, arm) cell (default: 2)")
    parser.add_argument("--budget-ms", type=int, default=4,
                        help="per-trial budget in virtual ms (default: 4)")
    parser.add_argument("--measure-ms", type=int, default=1,
                        help="measurement cadence in virtual ms "
                             "(default: 1)")
    parser.add_argument("--seed", type=int, default=100,
                        help="base seed (default: 100)")
    parser.add_argument("--workers", type=int, default=1,
                        help="workers per trial; >1 uses ParallelCampaign "
                             "(default: 1)")
    parser.add_argument("--name", default="adhoc",
                        help="experiment name for ad-hoc specs")
    parser.add_argument("--report-only", action="store_true",
                        help="regenerate the report from an existing "
                             "--out store without running trials")
    parser.add_argument("--print-spec", action="store_true",
                        help="print the canonical spec JSON and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-trial progress lines")
    return parser


def spec_from_args(args) -> ExperimentSpec:
    """Resolve the spec from --spec / --demo / ad-hoc flags."""
    if args.spec:
        return ExperimentSpec.from_json_file(args.spec)
    if args.demo:
        return demo_spec()
    if not args.targets or not args.mechanisms:
        raise SpecError(
            "provide --spec, --demo, or both --targets and --mechanisms"
        )
    targets = [t.strip() for t in args.targets.split(",") if t.strip()]
    unknown = set(targets) - set(target_names())
    if unknown:
        raise SpecError(f"unknown targets: {sorted(unknown)}")
    return ExperimentSpec(
        name=args.name,
        targets=targets,
        mechanisms=[m.strip() for m in args.mechanisms.split(",")
                    if m.strip()],
        trials=args.trials,
        budget_ns=args.budget_ms * MS,
        measure_every_ns=args.measure_ms * MS,
        base_seed=args.seed,
        n_workers=args.workers,
    )


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def matrix_main(argv: list[str]) -> int:
    args = build_matrix_parser().parse_args(argv)
    if args.report_only:
        if not args.out:
            return _error("--report-only needs --out")
        # Checked before the store is opened: opening one creates its
        # directory tree, and a report-only run must not.
        if not os.path.exists(os.path.join(args.out, "spec.json")):
            return _error(f"store {args.out!r} has no spec.json")
        if problem := unwritable_output("--out", args.out, directory=True):
            return _error(problem)
        store = ResultsStore(args.out)
    else:
        try:
            spec = spec_from_args(args)
        except SpecError as error:
            return _error(str(error))
        if args.print_spec:
            print(spec.canonical_json())
            return 0
        if args.out and (problem := unwritable_output(
                "--out", args.out, directory=True)):
            return _error(problem)
        store = ResultsStore(
            args.out or tempfile.mkdtemp(prefix="repro-experiment-"))
        TrialScheduler(spec, store, log=None if args.quiet else print).run()

    try:
        generator = ReportGenerator(store)
        report, digest = generator.write()
    except (ReportError, SpecError) as error:
        return _error(str(error))
    print()
    print(generator.to_markdown(report))
    print(f"results store    : {store.root}")
    print(f"store digest: {store.digest()}")
    print(f"report digest: {digest}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["matrix"]:
        return matrix_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.list or not args.experiments:
        print(list_entry_points())
        return 0
    unknown = [name for name in args.experiments
               if name not in ENTRY_POINTS]
    if unknown:
        return _error(f"unknown experiment(s) {unknown}; "
                      f"choose from {', '.join(ENTRY_POINTS)}")
    try:
        config = ExperimentConfig()      # the REPRO_* sizing
    except ValueError as error:
        return _error(str(error))
    if args.out and (problem := unwritable_output(
            "--out", args.out, directory=True)):
        return _error(problem)
    out = args.out or tempfile.mkdtemp(prefix="repro-paper-")
    for name in args.experiments:
        _description, runner = ENTRY_POINTS[name]
        print(f"== {name} ==")
        print(runner(config, args.target, out).render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
