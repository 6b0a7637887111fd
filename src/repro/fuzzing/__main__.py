"""Command-line entry point for fuzzing campaigns, one worker or many.

Examples::

    # 20 virtual ms of ClosureX fuzzing on the gif target
    python -m repro.fuzzing --target giftext

    # same campaign with the input-to-state stage armed
    python -m repro.fuzzing --target libpcap --i2s --budget-ms 40

    # checkpoint every 4 virtual ms; resume continues bit-identically
    # (campaign checkpoints name the mechanism, not the target program)
    python -m repro.fuzzing --target md4c --checkpoint /tmp/fuzz.ckpt
    python -m repro.fuzzing --target md4c --resume /tmp/fuzz.ckpt

    # 4-worker fleet, deterministic for the (seed, workers, sync) tuple
    python -m repro.fuzzing --target md4c --workers 4 --seed 7

    # real OS processes + a coordinated checkpoint at every sync
    # barrier; a fleet checkpoint names its whole config
    python -m repro.fuzzing --target md4c --workers 4 --processes \\
        --checkpoint /tmp/fleet.ckpt
    python -m repro.fuzzing --resume /tmp/fleet.ckpt

The final line of output is ``digest: <sha256>`` — the campaign's
:meth:`~repro.fuzzing.Campaign.state_digest`, or the fleet's
:meth:`~repro.parallel.ParallelResult.digest`.  The same configuration
always prints the same digest, and an interrupted run resumed from its
checkpoint prints the digest of the never-interrupted run.  Bad input,
a ``--checkpoint`` or ``--report-dir`` that cannot be created and
written included, is one ``error:`` line and exit status 2, before the
first exec.

This entry point sits above both :mod:`repro.fuzzing` and
:mod:`repro.parallel`; the fuzzing library never imports the fleet.
"""

from __future__ import annotations

import argparse
import sys

from repro.execution import MECHANISMS, build_executor
from repro.fuzzing.campaign import Campaign
from repro.fuzzing.checkpoint import CheckpointError, load_checkpoint
from repro.parallel import ParallelCampaign, ParallelConfig, open_campaign
from repro.parallel.orchestrator import PARALLEL_CHECKPOINT_KIND
from repro.sim_os import Kernel
from repro.store.io import unwritable_output
from repro.targets import target_names

MS = 1_000_000  # virtual ns per virtual ms


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzzing",
        description="Run one deterministic fuzzing campaign "
                    "(optionally with the input-to-state stage), or "
                    "shard it across N workers with periodic corpus "
                    "sync.",
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
                             "tapping, colorization, auto-dictionary; "
                             "one worker only)")
    parser.add_argument("--workers", type=int, default=1,
                        help="number of shards; more than 1 runs a "
                             "fleet with periodic corpus sync "
                             "(default: 1)")
    parser.add_argument("--sync-ms", type=int, default=4,
                        help="a fleet's sync barrier cadence in virtual "
                             "milliseconds (default: 4)")
    parser.add_argument("--processes", action="store_true",
                        help="run a fleet's workers as spawned OS "
                             "processes (default: inline, same results)")
    parser.add_argument("--checkpoint", metavar="PATH",
                        help="write a crash-safe checkpoint every "
                             "--checkpoint-ms, or at every sync barrier "
                             "of a fleet")
    parser.add_argument("--checkpoint-ms", type=int, default=4,
                        help="checkpoint cadence in virtual ms "
                             "(default: 4)")
    parser.add_argument("--resume", metavar="PATH",
                        help="resume a campaign or a fleet from a "
                             "checkpoint")
    parser.add_argument("--report-dir", metavar="DIR",
                        help="write a fleet's merged fuzzer_stats/"
                             "plot_data here")
    parser.add_argument("--per-worker-reports", action="store_true",
                        help="also write worker_N/ stats under "
                             "--report-dir")
    parser.add_argument("--list-targets", action="store_true",
                        help="list available targets and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_targets:
        for name in target_names():
            print(name)
        return 0
    for flag in ("workers", "budget_ms", "sync_ms", "checkpoint_ms"):
        if getattr(args, flag) < 1:
            return _error(f"--{flag.replace('_', '-')} must be >= 1")
    if args.workers > 1 and args.i2s:
        return _error("--i2s runs with one worker only")
    if args.resume is not None:
        try:
            state = load_checkpoint(args.resume)
        except CheckpointError as error:
            return _error(str(error))
        if state.get("kind") == PARALLEL_CHECKPOINT_KIND:
            return run_fleet(ParallelCampaign.resume(args.resume))
        if args.target is None:
            return _error("--resume of a campaign needs --target (campaign "
                          "checkpoints identify the mechanism, not the "
                          "target program)")
        # The resumed run takes budget, seed and i2s from the state.
        campaign = Campaign.from_state(
            state, build_executor(args.target, state["mechanism"], Kernel()),
        )
    elif args.target is None:
        return _error("--target is required (or --resume / --list-targets)")
    else:
        if args.workers == 1:
            for flag in ("processes", "report_dir", "per_worker_reports"):
                if getattr(args, flag):
                    return _error(f"--{flag.replace('_', '-')} needs "
                                  f"--workers > 1")
        if args.per_worker_reports and args.report_dir is None:
            return _error("--per-worker-reports needs --report-dir")
        for option, path, directory in (
                ("--checkpoint", args.checkpoint, False),
                ("--report-dir", args.report_dir, True)):
            if path is not None and (
                    problem := unwritable_output(option, path, directory)):
                return _error(problem)
        # Fresh, even over an existing --checkpoint file.  A lone
        # campaign runs the bare executor --resume rebuilds; a fleet
        # runs the supervised shard ladder.
        campaign = open_campaign(ParallelConfig(
            target=args.target,
            n_workers=args.workers,
            seed=args.seed,
            budget_ns=args.budget_ms * MS,
            sync_every_ns=args.sync_ms * MS,
            mechanism=args.mechanism,
            use_processes=args.processes,
            supervised=args.workers > 1,
            checkpoint_path=args.checkpoint,
            report_dir=args.report_dir,
            per_worker_reports=args.per_worker_reports,
            overrides=(("checkpoint_interval_ns", args.checkpoint_ms * MS),
                       ("i2s_enabled", args.i2s)),
        ), resume=False)
        if isinstance(campaign, ParallelCampaign):
            return run_fleet(campaign)
    result = campaign.run()
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


def _error(message: str) -> int:
    """Report bad input as one ``error:`` line; the exit status is 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def run_fleet(fleet: ParallelCampaign) -> int:
    """Run a fleet to its budget and print its merged summary."""
    result = fleet.run()
    print(f"target           : {result.target} [{result.mechanism}]")
    print(f"workers          : {result.n_workers} "
          f"({'processes' if fleet.config.use_processes else 'inline'})")
    print(f"seed             : {result.seed}")
    print(f"budget           : {result.budget_ns / MS:g} vms x "
          f"{result.rounds} rounds "
          f"(sync every {result.sync_every_ns / MS:g} vms)")
    print(f"total execs      : {result.total_execs}")
    print(f"aggregate rate   : "
          f"{result.aggregate_execs_per_vsecond:,.0f} execs/vsec")
    print(f"merged edges     : {result.merged_edges}")
    print(f"merged corpus    : {len(result.corpus_hashes)} inputs")
    print(f"unique crashes   : {result.merged_unique_crashes} "
          f"(hangs: {result.merged_unique_hangs})")
    print(f"sync             : {result.sync.accepted} accepted / "
          f"{result.sync.offered} offered, "
          f"{result.sync.delivered} delivered, "
          f"{result.sync.duplicates} dup, {result.sync.stale} stale")
    if result.replacements:
        print(f"replacements     : {result.replacements}")
    per_worker = ", ".join(
        f"w{i}={r.execs}" for i, r in enumerate(result.workers)
    )
    print(f"per-worker execs : {per_worker}")
    print(f"digest: {result.digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
