"""Command-line entry point for single-worker fuzzing campaigns.

Examples::

    # 20 virtual ms of ClosureX fuzzing on the gif target
    python -m repro.fuzzing --target giftext

    # same campaign with the input-to-state stage armed
    python -m repro.fuzzing --target libpcap --i2s --budget-ms 40

    # checkpoint every 4 virtual ms; resume continues bit-identically
    # (checkpoints name the mechanism, not the target program)
    python -m repro.fuzzing --target md4c --checkpoint /tmp/fuzz.ckpt
    python -m repro.fuzzing --target md4c --resume /tmp/fuzz.ckpt

The final line of output is ``digest: <sha256>`` — the campaign's
:meth:`~repro.fuzzing.Campaign.state_digest`.  The same configuration
always prints the same digest, and an interrupted campaign resumed
from its checkpoint prints the digest of the never-interrupted run.
"""

from __future__ import annotations

import argparse
import sys

from repro.execution import MECHANISMS, build_executor
from repro.fuzzing.campaign import CampaignConfig
from repro.fuzzing.checkpoint import load_checkpoint
from repro.fuzzing.session import CampaignSession
from repro.sim_os import Kernel
from repro.targets import get_target, target_names

MS = 1_000_000  # virtual ns per virtual ms


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzzing",
        description="Run one deterministic fuzzing campaign "
                    "(optionally with the input-to-state stage).",
    )
    parser.add_argument("--target", choices=target_names(),
                        help="target program (see --list-targets)")
    parser.add_argument("--mechanism", choices=MECHANISMS,
                        default="closurex",
                        help="execution mechanism (default: closurex)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default: 0)")
    parser.add_argument("--budget-ms", type=int, default=20,
                        help="virtual budget in virtual milliseconds "
                             "(default: 20)")
    parser.add_argument("--i2s", action="store_true",
                        help="enable the input-to-state stage (compare "
                             "tapping, colorization, auto-dictionary)")
    parser.add_argument("--checkpoint", metavar="PATH",
                        help="write a crash-safe checkpoint every "
                             "interval (see --checkpoint-ms)")
    parser.add_argument("--checkpoint-ms", type=int, default=4,
                        help="checkpoint cadence in virtual ms "
                             "(default: 4)")
    parser.add_argument("--resume", metavar="PATH",
                        help="resume a campaign from a checkpoint")
    parser.add_argument("--list-targets", action="store_true",
                        help="list available targets and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_targets:
        for name in target_names():
            print(name)
        return 0
    state, config, mechanism = None, None, args.mechanism
    if args.resume is not None:
        if args.target is None:
            print("error: --resume needs --target (checkpoints identify "
                  "the mechanism, not the target program)", file=sys.stderr)
            return 2
        # The resumed run takes budget, seed and i2s from the state.
        state = load_checkpoint(args.resume)
        mechanism = state["mechanism"]
    else:
        if args.target is None:
            print("error: --target is required (or --resume / "
                  "--list-targets)", file=sys.stderr)
            return 2
        config = CampaignConfig(
            budget_ns=args.budget_ms * MS,
            seed=args.seed,
            i2s_enabled=args.i2s,
            checkpoint_path=args.checkpoint,
            checkpoint_interval_ns=args.checkpoint_ms * MS,
        )
    session = CampaignSession(
        build_executor(args.target, mechanism, Kernel()),
        get_target(args.target).seeds, config, state=state,
    )
    session.start()
    session.advance(session.deadline_ns)
    result = session.finish()
    campaign = session.campaign
    print(f"mechanism        : {result.mechanism}")
    print(f"seed             : {campaign.config.seed}")
    print(f"budget           : {result.budget_ns / MS:g} vms")
    print(f"execs            : {result.execs}")
    print(f"corpus           : {result.corpus_size} inputs")
    print(f"edges found      : {result.edges_found}")
    print(f"unique crashes   : {result.unique_crashes} "
          f"(hangs: {result.unique_hangs})")
    for name, stats in sorted(result.stage_stats.items()):
        print(f"stage {name:<10} : {stats.execs} execs, "
              f"{stats.finds} finds")
    if args.i2s and campaign._i2s is not None:
        print(f"i2s dictionary   : {len(campaign._i2s.dictionary)} tokens "
              f"({len(campaign._i2s.site_pairs)} compare sites)")
    print(f"digest: {campaign.state_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
