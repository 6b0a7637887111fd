#!/usr/bin/env python3
"""Input-to-state fuzzing: crack a 4-byte magic havoc cannot guess.

The freetype stand-in rejects any font whose first four bytes are not
a valid sfnt version (``0x00010000`` or ``'true'``).  Starting from a
corpus of version-corrupted fonts — the common weak-seed situation —
plain havoc must line up four exact bytes; the input-to-state stage
instead *observes* the version compare inside the VM, locates the
operand bytes in the input, and patches in the expected value.

This script races the two configurations head to head on the same
virtual budget and exits non-zero unless I2S cracks the magic while
equal-budget havoc does not.

Run:  python examples/i2s_fuzz.py [virtual-ms budget, default 4]
"""

import sys

from repro.execution import ClosureXExecutor
from repro.experiments import guard_cells
from repro.fuzzing import Campaign, CampaignConfig
from repro.fuzzing.coverage import hit_cells
from repro.sim_os import Kernel
from repro.targets import get_target


def crack_time_ns(spec, seeds, cells, budget_ns, i2s_enabled):
    """First virtual instant a corpus entry passes the version guard
    (None when the campaign never cracks it)."""
    executor = ClosureXExecutor(spec.build_closurex(), spec.image_bytes,
                                Kernel())
    campaign = Campaign(executor, seeds, CampaignConfig(
        budget_ns=budget_ns, seed=1, i2s_enabled=i2s_enabled,
    ))
    campaign.run()
    hits = [
        entry.discovered_at_ns - campaign.start_ns
        for entry in campaign.corpus.entries
        if not cells.isdisjoint(hit_cells(entry.coverage_signature))
    ]
    return min(hits) if hits else None


def main():
    budget_ms = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    budget_ns = budget_ms * 1_000_000
    spec = get_target("freetype")
    seeds = [b"\xde\xad\xbe\xef" + seed[4:] for seed in spec.seeds]
    print(f"target: {spec.name} — seeds have their sfnt version stomped, "
          f"so the 4-byte magic guards the whole parser")
    print(f"budget: {budget_ms} virtual ms per arm\n")

    # Coverage cells only a version-valid font reaches (witness minus
    # seeds minus near-miss decoy; see repro.experiments.i2s_exp).
    cells = guard_cells("freetype")

    havoc_ns = crack_time_ns(spec, seeds, cells, budget_ns, False)
    i2s_ns = crack_time_ns(spec, seeds, cells, budget_ns, True)

    def show(label, at):
        status = f"cracked at {at / 1e6:.2f} vms" if at is not None else \
            "never passed the version check"
        print(f"  {label:12} {status}")

    show("havoc-only:", havoc_ns)
    show("with I2S:", i2s_ns)

    if i2s_ns is None:
        print("\nFAIL: the I2S stage did not crack the magic")
        return 1
    if havoc_ns is not None:
        print("\nFAIL: havoc cracked the magic inside the same budget "
              "(raise the difficulty by lowering the budget)")
        return 1
    print("\nI2S read the magic out of the observed compare; havoc "
          "never guessed it.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
