#!/usr/bin/env python3
"""Shared corpus storage: dedup across campaigns, cmin, self-healing.

Two tenants fuzz the same target through one content-addressed
:class:`repro.store.CorpusStore`.  The store deduplicates every input
they have in common (physical bytes are stored once, referenced
twice), `distill` computes an afl-cmin-style minimal seed set covering
the same coverage map, an injected bit flip demonstrates read-time
self-healing from the mirror replica, and `fsck` verifies the whole
state tree at the end — the same walk `python -m repro.store fsck`
performs from the command line.

Run:  python examples/corpus_store.py
"""

import os
import tempfile

from repro.execution import ForkServerExecutor
from repro.fuzzing import Campaign, CampaignConfig
from repro.minic import compile_c
from repro.passes import PassManager, baseline_passes
from repro.sim_os import Kernel
from repro.store import CorpusStore, fsck_tree, object_digest

SOURCE = r"""
int main(int argc, char **argv) {
    char buf[32];
    char *f = fopen(argv[1], "r");
    if (!f) { exit(1); }
    long n = fread(buf, 1, 32, f);
    fclose(f);
    if (n < 2) { exit(2); }
    long sum = 0;
    long i = 0;
    while (i < n) { sum += (long)buf[i]; i += 1; }
    if (buf[0] == 'C' && buf[1] == 'X' && n > 6) {
        int *p = NULL;
        *p = 1;                    /* the planted bug */
    }
    return (int)sum;
}
"""

SEEDS = [b"hello world", b"CXseed"]
BUDGET_NS = 12_000_000  # 12 virtual milliseconds per tenant


def executor():
    module = compile_c(SOURCE, "corpus-store-demo")
    PassManager(baseline_passes(11)).run(module)
    return ForkServerExecutor(module, 300_000, Kernel())


def fuzz(store, owner, seed):
    campaign = Campaign(executor(), SEEDS, CampaignConfig(
        budget_ns=BUDGET_NS, seed=seed,
        corpus_store=store, corpus_owner=owner,
    ))
    result = campaign.run()
    print(f"{owner:>10}: {result.execs:5d} execs, "
          f"{result.corpus_size} corpus entries, "
          f"{result.unique_crashes} unique crash(es)")
    return campaign


def main():
    tree = tempfile.mkdtemp(prefix="corpus-store-demo-")
    store = CorpusStore(os.path.join(tree, "corpus"))
    print("Two tenants fuzz the same target through one shared store:\n")
    tenant_a = fuzz(store, "tenant-a", seed=7)
    fuzz(store, "tenant-b", seed=7)

    refs_a = store.refs("tenant-a")
    refs_b = store.refs("tenant-b")
    shared = refs_a & refs_b
    stats = store.stats()
    print(f"\nreferences: {len(refs_a)} + {len(refs_b)} across tenants, "
          f"{len(shared)} shared")
    print(f"physical objects stored once: {stats['objects']} "
          f"({stats['bytes']} bytes) — "
          f"{len(refs_a) + len(refs_b) - stats['objects']} duplicate "
          f"payload(s) never written twice")

    # afl-cmin: the cheapest subset whose coverage OR equals the full
    # corpus's.  Weight = exec cost x size, cheapest first.
    entries = [
        (object_digest(e.data), e.coverage_signature,
         e.exec_ns * max(1, len(e.data)))
        for e in tenant_a.corpus.entries
    ]
    distilled = store.distill(entries)
    print(f"\ndistilled tenant-a's {len(entries)}-entry corpus to "
          f"{len(distilled)} seed(s) covering the same map")
    store.retain("tenant-a", set(distilled))
    print(f"retained only those: tenant-a now holds "
          f"{len(store.refs('tenant-a'))} reference(s)")

    # Silent bit rot self-heals at read time from the mirror replica.
    victim = sorted(distilled)[0]
    path = store.object_path(victim)
    data = bytearray(open(path, "rb").read())
    data[len(data) // 2] ^= 1
    open(path, "wb").write(bytes(data))
    restored = store.get(victim)
    print(f"\nflipped one bit of object {victim[:12]}...; get() healed it "
          f"from the replica ({len(restored)} bytes verified)")

    report = fsck_tree(tree)
    print(f"fsck over {tree}: ok={report.ok}, "
          f"{len(report.findings)} finding(s)")
    assert report.ok


if __name__ == "__main__":
    main()
