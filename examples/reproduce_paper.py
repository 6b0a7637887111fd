#!/usr/bin/env python3
"""Regenerate the paper's evaluation from the command line.

    python examples/reproduce_paper.py --table 5
    python examples/reproduce_paper.py --table 6 --budget-ms 40 --trials 5
    python examples/reproduce_paper.py --table 7
    python examples/reproduce_paper.py --correctness
    python examples/reproduce_paper.py --figures
    python examples/reproduce_paper.py --profile
    python examples/reproduce_paper.py --all

Sizing: campaigns run for --budget-ms virtual milliseconds and results
are extrapolated to the paper's 24-hour horizon; ratios are
horizon-independent.  Use --targets to restrict the benchmark set.
Tables 5-7 and the timeline share one set of paper trials, stored in
one temporary directory.
"""

import argparse
import sys
import tempfile
import time

from repro.experiments import (
    ExperimentConfig,
    run_correctness,
    run_global_pass_figure,
    run_motivation,
    run_pass_ablation,
    run_restore_lifecycle,
    run_spectrum,
    run_table5,
    run_table6,
    run_table7,
    run_timeline,
)
from repro.execution import ClosureXExecutor
from repro.fuzzing import Campaign, CampaignConfig
from repro.sim_os import Kernel
from repro.targets import get_target, target_names
from repro.telemetry import ProfileReport, TelemetryConfig


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", type=int, choices=(5, 6, 7), action="append",
                        default=[], help="regenerate Table N")
    parser.add_argument("--correctness", action="store_true",
                        help="run the §6.1.4 validation")
    parser.add_argument("--figures", action="store_true",
                        help="mechanism spectrum + pass-transform figures")
    parser.add_argument("--motivation", action="store_true",
                        help="the persistent-mode pathologies demo")
    parser.add_argument("--ablation", action="store_true",
                        help="pass-ablation study")
    parser.add_argument("--profile", action="store_true",
                        help="telemetry demo: one traced campaign + VM profile")
    parser.add_argument("--all", action="store_true", help="everything")
    parser.add_argument("--budget-ms", type=int, default=20,
                        help="virtual ms per campaign (default 20)")
    parser.add_argument("--trials", type=int, default=3,
                        help="trials per configuration (default 3; paper uses 5)")
    parser.add_argument("--targets", type=str, default="",
                        help="comma-separated target subset")
    return parser.parse_args()


def main():
    args = parse_args()
    if args.all:
        args.table = [5, 6, 7]
        args.correctness = args.figures = args.motivation = True
        args.ablation = args.profile = True
    if not (args.table or args.correctness or args.figures
            or args.motivation or args.ablation or args.profile):
        print("nothing selected; try --all or --table 5", file=sys.stderr)
        return 1

    targets = ([t.strip() for t in args.targets.split(",") if t.strip()]
               or target_names())
    config = ExperimentConfig(
        budget_ns=args.budget_ms * 1_000_000,
        trials=args.trials,
        targets=targets,
    )
    out = tempfile.mkdtemp(prefix="repro-paper-")
    print(f"config: {args.budget_ms} virtual ms/campaign, "
          f"{args.trials} trials, {len(targets)} targets\n")

    def section(title, fn):
        print(f"==== {title} " + "=" * max(0, 58 - len(title)))
        start = time.time()
        fn()
        print(f"---- ({time.time() - start:.1f}s wall)\n")

    if 5 in args.table:
        section("Table 5: test-case execution rate",
                lambda: print(run_table5(config, out).render()))
    if 6 in args.table:
        section("Table 6: edge coverage",
                lambda: print(run_table6(config, out).render()))
    if 7 in args.table:
        def table7():
            result = run_table7(config, out=out)
            print(result.render())
            speedup = result.aggregate_speedup()
            cx, fk = result.finding_counts()
            if speedup:
                print(f"\naggregate time-to-bug speedup: {speedup:.2f}x "
                      f"(paper: ~1.9x); finding trials {cx} vs {fk}")
        section("Table 7: time-to-bug", table7)
    if args.correctness:
        def correctness():
            result = run_correctness(config, sample_size=4, pollution_rounds=60)
            print(result.render())
            print(f"\nall targets fully correct: {result.all_correct}")
        section("§6.1.4: semantic correctness", correctness)
    if args.figures:
        def figures():
            spectrum = run_spectrum("giftext", iterations=25)
            print(spectrum.render())
            print()
            for name in targets[:4]:
                print(run_global_pass_figure(name).render())
            print()
            print(run_restore_lifecycle(targets[0]).render())
            print()
            print(run_timeline(targets[0], config, out).render())
        section("Figures: spectrum / pass transforms / timeline", figures)
    if args.motivation:
        section("Motivation: persistent-mode pathologies",
                lambda: print(run_motivation().render()))
    if args.ablation:
        section("Ablation: drop each pass",
                lambda: print(run_pass_ablation("bsdtar").render()))
    if args.profile:
        def profile():
            spec = get_target(targets[0])
            executor = ClosureXExecutor(
                spec.build_closurex(), spec.image_bytes, Kernel())
            campaign_config = CampaignConfig(budget_ns=config.budget_ns, seed=1)
            campaign_config.telemetry = TelemetryConfig(
                enabled=True, sink="memory", profile_vm=True)
            campaign = Campaign(executor, spec.seeds, campaign_config)
            campaign.run()
            print(campaign.reporter.render_status())
            print()
            print(ProfileReport.from_executor(executor).render(top=8))
            trace = campaign.telemetry.tracer.sink.events
            execs = sum(1 for e in trace if e.name == "exec")
            print(f"\ntrace: {len(trace)} events ({execs} exec spans), "
                  f"all stamped in virtual ns")
        section(f"Telemetry: traced campaign on {targets[0]}", profile)
    return 0


if __name__ == "__main__":
    sys.exit(main())
