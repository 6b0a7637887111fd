"""Recompute ``expected.json``: the committed campaign digests.

    python3 perfbench/update_expected.py

Runs the first ``COUNT`` campaigns of every workload at the default
seed, each in a fresh process, and records their digests.  Only do
this for a change that is meant to alter campaigns; a change that only
makes them faster must leave every digest as it is.
"""

import json

import run
from workloads import WORKLOADS, campaign_seed

SEED = 0
COUNT = 16


def main() -> None:
    digests = {
        name: [run.run_child(name, campaign_seed(SEED, k), None)["digest"]
               for k in range(COUNT)]
        for name in WORKLOADS
    }
    path = run.HERE / "expected.json"
    path.write_text(json.dumps({"seed": SEED, "digests": digests},
                               indent=2) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
