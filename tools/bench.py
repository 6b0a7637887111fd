"""Wall-clock benchmark harness for the MiniVM execution mechanisms.

Everything else in the repo measures *virtual* time; this tool answers
the orthogonal question "how fast does the simulation itself run on
this machine?"  It drives each (target, mechanism) pair through the
real executor stack for a fixed number of executions, times it with
``time.perf_counter``, and writes ``BENCH_wallclock.json`` at the repo
root::

    PYTHONPATH=src python tools/bench.py
    PYTHONPATH=src python tools/bench.py --targets md4c --execs 500

The JSON records host metadata plus, per cell: wall seconds, real
execs/second, and the mean virtual ns consumed per exec — so regressions
in simulator throughput (as opposed to simulated throughput) show up in
code review.  Numbers are machine-dependent by design; only the schema
is stable.
"""

from __future__ import annotations

import argparse
import itertools
import json
import pathlib
import platform
import sys
import time

sys.path.insert(
    0, str(pathlib.Path(__file__).resolve().parent.parent / "src")
)

from repro.execution import MECHANISMS, build_executor  # noqa: E402
from repro.sim_os import Kernel  # noqa: E402
from repro.targets import get_target, target_names  # noqa: E402

DEFAULT_TARGETS = ("md4c", "giftext", "zlib")


def measure_cell(target: str, mechanism: str, execs: int,
                 warmup: int = 5, optimized: bool = False,
                 i2s: bool = False) -> dict:
    """Time *execs* real executions of *target* under *mechanism*.

    Inputs cycle through the target's seed corpus so the measurement
    exercises the same paths a campaign's early iterations would.
    With ``optimized=True`` the module is first run through the
    validated IR optimizer, so the optimized-vs-baseline delta lands
    in the artifact.  With ``i2s=True`` a compare observer is attached
    and armed for every execution — the wall-clock tax the
    input-to-state stage pays per probe exec (the disarmed observer is
    a single attribute check per compare; see docs/mutation.md).
    Returns the schema cell stored in ``BENCH_wallclock.json``.
    """
    spec = get_target(target)
    executor = build_executor(target, mechanism, Kernel(),
                              optimize=optimized)
    observer = None
    if i2s:
        from repro.fuzzing.i2s import CmpObserver
        observer = CmpObserver()
        executor.attach_cmp_observer(observer)
    inputs = itertools.cycle(spec.seeds)
    for _ in range(warmup):
        executor.run(next(inputs))
    virtual_ns = 0
    instructions = 0
    start = time.perf_counter()
    for _ in range(execs):
        if observer is not None:
            observer.begin()
        result = executor.run(next(inputs))
        if observer is not None:
            observer.take()
        virtual_ns += result.ns
        instructions += result.instructions
    wall_s = time.perf_counter() - start
    executor.shutdown()
    return {
        "target": target,
        "mechanism": mechanism,
        "optimized": optimized,
        "i2s": i2s,
        "execs": execs,
        "wall_s": round(wall_s, 6),
        "execs_per_s": round(execs / wall_s, 2) if wall_s > 0 else 0.0,
        "virtual_ns_per_exec": round(virtual_ns / execs, 1),
        "instructions_per_exec": round(instructions / execs, 1),
    }


def run_bench(targets, mechanisms, execs: int) -> dict:
    """Measure every (target, mechanism) cell; returns the full report.

    Each target additionally gets an optimized ``closurex`` cell and
    an I2S (armed compare observer) ``closurex`` cell (when
    ``closurex`` is among the mechanisms), so the artifact always
    carries the optimizer's throughput delta and the observation tax
    next to their shared baseline.
    """
    cells = []
    for target in targets:
        variants = [(m, False, False) for m in mechanisms]
        if "closurex" in mechanisms:
            variants.append(("closurex", True, False))
            variants.append(("closurex", False, True))
        for mechanism, optimized, i2s in variants:
            cell = measure_cell(target, mechanism, execs,
                                optimized=optimized, i2s=i2s)
            cells.append(cell)
            label = mechanism + ("+opt" if optimized else "") \
                + ("+i2s" if i2s else "")
            print(
                f"{target:12s} {label:12s} "
                f"{cell['execs_per_s']:>10.1f} execs/s  "
                f"({cell['wall_s']:.3f}s wall, "
                f"{cell['instructions_per_exec']:.0f} insts/exec)"
            )
    return {
        "schema": "repro-bench-wallclock/3",
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "execs_per_cell": execs,
        "cells": cells,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/bench.py",
        description="Measure real wall-clock MiniVM throughput and "
                    "write BENCH_wallclock.json at the repo root.",
    )
    parser.add_argument("--targets",
                        default=",".join(DEFAULT_TARGETS),
                        help="comma-separated targets "
                             f"(default: {','.join(DEFAULT_TARGETS)})")
    parser.add_argument("--mechanisms",
                        default=",".join(MECHANISMS),
                        help="comma-separated mechanisms "
                             f"(default: {','.join(MECHANISMS)})")
    parser.add_argument("--execs", type=int, default=300,
                        help="executions timed per cell (default: 300)")
    parser.add_argument("--out", default=None,
                        help="output path (default: BENCH_wallclock.json "
                             "at the repo root)")
    args = parser.parse_args(argv)

    targets = [t.strip() for t in args.targets.split(",") if t.strip()]
    unknown = set(targets) - set(target_names())
    if unknown:
        parser.error(f"unknown targets: {sorted(unknown)}")
    mechanisms = [m.strip() for m in args.mechanisms.split(",")
                  if m.strip()]

    report = run_bench(targets, mechanisms, args.execs)
    out = pathlib.Path(
        args.out
        or pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_wallclock.json"
    )
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
