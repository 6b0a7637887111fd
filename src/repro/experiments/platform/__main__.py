"""Command-line entry point for the experiment platform.

Examples::

    # the built-in demo matrix (2 mechanisms x 2 targets x 2 trials)
    python -m repro.experiments.platform --demo --out /tmp/exp

    # a custom matrix without writing a spec file
    python -m repro.experiments.platform --out /tmp/exp \\
        --targets md4c,giftext --mechanisms closurex,forkserver \\
        --trials 3 --budget-ms 8 --measure-ms 2

    # a spec file (see docs/experiments.md for the format)
    python -m repro.experiments.platform --spec exp.json --out /tmp/exp

    # continue a killed run: same command, same --out; finished trials
    # are skipped, half-finished ones resume from their checkpoints
    python -m repro.experiments.platform --spec exp.json --out /tmp/exp

The last lines of output are ``store digest:`` and ``report digest:``
— run the same spec twice into fresh directories and both match
bit-for-bit.
"""

from __future__ import annotations

import argparse
import sys
import tempfile

from repro.execution import MECHANISMS
from repro.experiments.platform.report import ReportGenerator
from repro.experiments.platform.scheduler import TrialScheduler
from repro.experiments.platform.spec import MS, ExperimentSpec, SpecError
from repro.experiments.platform.store import ResultsStore
from repro.targets import target_names


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.platform",
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
    parser.add_argument("--max-live", type=int, default=4,
                        help="trials advanced concurrently (default: 4)")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.report_only:
        if not args.out:
            print("error: --report-only needs --out", file=sys.stderr)
            return 2
        spec = None
    else:
        try:
            spec = spec_from_args(args)
        except SpecError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.print_spec:
            print(spec.canonical_json())
            return 0

    out = args.out or tempfile.mkdtemp(prefix="repro-experiment-")
    store = ResultsStore(out)
    if not args.report_only:
        log = (lambda message: None) if args.quiet else print
        scheduler = TrialScheduler(
            spec, store, max_live=args.max_live, log=log
        )
        scheduler.run()

    generator = ReportGenerator(store)
    report, digest = generator.write()
    print()
    print(generator.to_markdown(report))
    print(f"results store    : {out}")
    print(f"store digest: {store.digest()}")
    print(f"report digest: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
