"""Command-line entry point for parallel multi-worker campaigns.

Examples::

    # 4-worker campaign, deterministic for the (seed, workers, sync) tuple
    python -m repro.parallel --target md4c --workers 4 --seed 7

    # real OS processes + coordinated checkpoint every barrier
    python -m repro.parallel --target json_parser --workers 4 \\
        --processes --checkpoint /tmp/fleet.ckpt

    # continue a checkpointed fleet bit-identically
    python -m repro.parallel --resume /tmp/fleet.ckpt

The final line of output is ``digest: <sha256>`` — run the same
configuration twice and the digests match bit-for-bit.
"""

from __future__ import annotations

import argparse
import sys

from repro.execution import MECHANISMS
from repro.parallel.orchestrator import ParallelCampaign, ParallelConfig
from repro.targets import target_names

MS = 1_000_000  # virtual ns per virtual ms


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel",
        description="Shard one fuzzing campaign across N deterministic "
                    "workers with periodic corpus sync.",
    )
    parser.add_argument("--target", choices=target_names(),
                        help="target program (see --list-targets)")
    parser.add_argument("--workers", type=int, default=4,
                        help="number of shards (default: 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default: 0)")
    parser.add_argument("--mechanism", choices=MECHANISMS,
                        default="closurex",
                        help="execution mechanism (default: closurex)")
    parser.add_argument("--budget-ms", type=int, default=20,
                        help="per-worker virtual budget in virtual "
                             "milliseconds (default: 20)")
    parser.add_argument("--sync-ms", type=int, default=4,
                        help="sync barrier cadence in virtual "
                             "milliseconds (default: 4)")
    parser.add_argument("--processes", action="store_true",
                        help="run workers as spawned OS processes "
                             "(default: inline, same results)")
    parser.add_argument("--max-imports", type=int, default=64,
                        help="sync backpressure cap per worker per "
                             "barrier (default: 64)")
    parser.add_argument("--chaos-faults", type=int, default=0,
                        help="per-worker injected-fault plan length")
    parser.add_argument("--checkpoint", metavar="PATH",
                        help="write a coordinated multi-shard checkpoint "
                             "at every sync barrier")
    parser.add_argument("--resume", metavar="PATH",
                        help="resume a fleet from a coordinated checkpoint")
    parser.add_argument("--report-dir", metavar="DIR",
                        help="write merged fuzzer_stats/plot_data here")
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
    if args.resume is not None:
        campaign = ParallelCampaign.resume(args.resume)
    else:
        if args.target is None:
            print("error: --target is required (or --resume / "
                  "--list-targets)", file=sys.stderr)
            return 2
        campaign = ParallelCampaign(ParallelConfig(
            target=args.target,
            n_workers=args.workers,
            seed=args.seed,
            budget_ns=args.budget_ms * MS,
            sync_every_ns=args.sync_ms * MS,
            mechanism=args.mechanism,
            use_processes=args.processes,
            chaos_faults=args.chaos_faults,
            max_imports_per_sync=args.max_imports,
            checkpoint_path=args.checkpoint,
            report_dir=args.report_dir,
            per_worker_reports=args.per_worker_reports,
        ))
    result = campaign.run()
    if result is None:  # halt hook — only reachable programmatically
        print("halted mid-run (resume from the checkpoint to continue)")
        return 0
    config = campaign.config
    print(f"target           : {result.target} [{result.mechanism}]")
    print(f"workers          : {result.n_workers} "
          f"({'processes' if config.use_processes else 'inline'})")
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
