#!/usr/bin/env python3
"""Parallel multi-worker fuzzing as a library, end to end.

Shards one campaign over several workers with deterministic corpus
sync, demonstrates the bit-identity guarantee (two runs, one digest),
and shows the sync protocol's counters.  Equivalent CLI:

  python -m repro.fuzzing --target md4c --workers 4 --seed 7 \
      --budget-ms 8 --sync-ms 2

Run:  python examples/parallel_fuzz.py
"""

from repro.parallel import ParallelCampaign, ParallelConfig

CONFIG = dict(
    target="md4c",
    n_workers=4,
    seed=7,
    budget_ns=8_000_000,       # 8 virtual ms per worker
    sync_every_ns=2_000_000,   # sync barrier every 2 virtual ms
)


def main():
    print("Parallel campaign: 4 workers, deterministic sync\n")
    result = ParallelCampaign(ParallelConfig(**CONFIG)).run()

    per_worker = ", ".join(
        f"w{i}={r.execs}" for i, r in enumerate(result.workers)
    )
    print(f"rounds            : {result.rounds} "
          f"(sync every {result.sync_every_ns / 1e6:g} vms)")
    print(f"total execs       : {result.total_execs}  ({per_worker})")
    print(f"aggregate rate    : "
          f"{result.aggregate_execs_per_vsecond:,.0f} execs/virtual-sec")
    print(f"merged edges      : {result.merged_edges}")
    print(f"merged corpus     : {len(result.corpus_hashes)} unique inputs")
    print(f"unique crashes    : {result.merged_unique_crashes}")
    print(f"sync protocol     : {result.sync.offered} offered, "
          f"{result.sync.accepted} accepted, "
          f"{result.sync.duplicates} duplicate, {result.sync.stale} stale, "
          f"{result.sync.delivered} delivered")

    # The determinism guarantee: same (seed, n_workers, sync_every)
    # tuple -> bit-identical merged coverage, corpus and crash set.
    again = ParallelCampaign(ParallelConfig(**CONFIG)).run()
    assert again.digest() == result.digest()
    print(f"\nrun twice, one digest: {result.digest()[:32]}...")


if __name__ == "__main__":
    main()
