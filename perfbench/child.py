"""Run one campaign of a workload in this (fresh) process.

Started by ``run.py`` once per campaign, so that set-up includes
import cost and peak RSS carries nothing over from earlier campaigns::

    python3 perfbench/child.py --workload md4c-opt --seed 7 \
        --t0-ns <time.monotonic_ns() at spawn> [--trace-out FILE]

Prints one JSON object (the result of
:func:`workloads.run_campaign`) as its last line.  With
``--trace-out`` the layer boundaries are traced, the spans are written
to that file, and the raw layer totals are added to the result.
"""

import argparse
import json
import os
import pathlib
import shutil
import tempfile

import workloads


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace_out is not None:
        import spans
        tracer = spans.install(spans.Tracer(
            f"{args.workload}-s{args.seed}-p{os.getpid()}"
        ))
    workdir = None
    if workload.kind == "fleet":
        # Store and checkpoints of this campaign only, deleted after.
        workdir = tempfile.mkdtemp(prefix="_work-",
                                   dir=pathlib.Path(__file__).parent)
    try:
        result = workloads.run_campaign(workload, args.seed, args.t0_ns,
                                        tracer=tracer, workdir=workdir)
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.uninstall()
        tracer.write(args.trace_out)
        result.update(setup=tracer.setup, fuzz=tracer.fuzz,
                      counts=tracer.fuzz_counts)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
