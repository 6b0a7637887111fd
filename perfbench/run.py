"""The repo benchmark: fixed-work fuzzing campaigns, timed on the host.

Run from the root of a checkout::

    python3 perfbench/run.py --workload md4c-opt --seed 0 --seconds 30 --trace 0

A run holds a fixed number of campaigns of one workload (sized from
``--seconds``), each in a fresh process, with campaign seeds derived
from ``--seed``.  Every campaign's digest is checked: against the
committed digest in ``expected.json`` where there is one, and against a
repeat of the same campaign, which must agree on digest, exec count,
edges and final virtual time.  A mismatch, a crash or a timeout counts
that campaign as failed.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs every
campaign untraced and then traced, reports the per-layer metrics of
the traced runs and the tracing overhead, and writes the spans under
``perfbench/_traces/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# A run starts no campaign after START_DEADLINE_S and kills any that
# is still running at RUN_LIMIT_S, so that it ends within three minutes.
START_DEADLINE_S = 140.0
RUN_LIMIT_S = 170.0
# A traced campaign pair (untraced + traced) costs about this many
# untraced campaigns.
TRACED_PAIR_COST = 2.4


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def campaigns_per_run(nominal_s: float, seconds: int, trace: bool) -> int:
    """Campaigns measured in a run: fixed for a given *seconds*, so a
    faster program does the same work in less time."""
    if trace:
        return max(1, round(seconds / (nominal_s * TRACED_PAIR_COST)))
    # One more campaign runs as the repeat of the first.
    return max(2, round(seconds / nominal_s) - 1)


def run_child(workload: str, seed: int, trace_out: str | None,
              timeout_s: float = RUN_LIMIT_S) -> dict:
    """One campaign in a fresh process; raises on any failure."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    # Set-up is measured with cached bytecode, as a user's second run
    # sees it: only the first campaign in a checkout compiles it.
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.monotonic_ns()
    proc = subprocess.run(cmd + ["--t0-ns", str(t0)], cwd=ROOT, env=env,
                          capture_output=True, text=True,
                          timeout=timeout_s)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = proc.stderr.strip().splitlines()[-1:]
        raise RuntimeError(f"exit {proc.returncode}: {' '.join(last)}")
    return json.loads(lines[-1])


def identity(result: dict) -> tuple:
    return (result["digest"], result["execs"], result["edges"],
            tuple(result["virtual_ns"]))


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("per_kexec"):
        return "1/kexec"
    if name.endswith("ns_per_inst"):
        return "ns"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def end_to_end(results: list[dict], setups: list[tuple]) -> dict:
    """The end-to-end metrics, every time scaled to the reference host
    speed by its campaign's ``host_factor`` (see ``workloads.py``)."""
    samples = sorted(ns / r["host_factor"]
                     for r in results for ns in r["exec_ns"])
    return {
        "execs_per_s": (statistics.median(
            r["fuzz_execs"] / r["fuzz_wall_s"] * r["host_factor"]
            for r in results), "1/s", len(results)),
        "exec_ms_p50": (statistics.median(samples) / 1e6, "ms",
                        len(samples)),
        "exec_ms_p99": (statistics.quantiles(samples, n=100)[98] / 1e6,
                        "ms", len(samples)),
        "setup_s": (statistics.median(s / f for s, f in setups), "s",
                    len(setups)),
        "peak_rss_mb": (statistics.median(
            r["peak_rss_mb"] for r in results), "MB", len(results)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no repro sources under {ROOT / 'src'}: run from a checkout")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, campaign_seed
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    workload = WORKLOADS[args.workload]
    expected = json.loads((HERE / "expected.json").read_text())
    committed = (expected["digests"].get(workload.name, [])
                 if args.seed == expected["seed"] else [])

    start = time.monotonic()
    n = campaigns_per_run(workload.nominal_s, args.seconds, bool(args.trace))
    results: list[dict] = []       # untraced, one per campaign
    traced: list[dict] = []
    setups: list[tuple] = []       # (set-up s, host factor), untraced
    attempted = failed = 0

    def attempt(seed: int, trace_out: str | None) -> dict | None:
        nonlocal attempted, failed
        attempted += 1
        elapsed = time.monotonic() - start
        if elapsed > START_DEADLINE_S:
            failed += 1
            print(f"  seed {seed}: not started, run out of time")
            return None
        try:
            result = run_child(workload.name, seed, trace_out,
                               RUN_LIMIT_S - elapsed)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            failed += 1
            print(f"  seed {seed}: FAILED {exc}")
            # A killed fleet campaign leaves its work directory behind.
            for workdir in HERE.glob("_work-*"):
                shutil.rmtree(workdir, ignore_errors=True)
            return None
        if "host_factor" in result:
            setups.append((result["setup_s"], result["host_factor"]))
        return result

    for k in range(n):
        seed = campaign_seed(args.seed, k)
        result = attempt(seed, None)
        if result is None:
            continue
        if k < len(committed) and result["digest"] != committed[k]:
            failed += 1
            print(f"  seed {seed}: digest {result['digest'][:16]} != "
                  f"committed {committed[k][:16]}")
            continue
        if not results:
            first_seed = seed
        results.append(result)
        if args.trace:
            trace_out = str(HERE / "_traces" / f"{workload.name}-s{seed}"
                            ".jsonl.gz")
            twin = attempt(seed, trace_out)
            if twin is not None and identity(twin) != identity(result):
                failed += 1
                print(f"  seed {seed}: traced run diverged "
                      f"{identity(twin)} != {identity(result)}")
            elif twin is not None:
                twin["untraced_wall_s"] = result["fuzz_wall_s"]
                traced.append(twin)
    if not args.trace and results:
        # Repeat the first campaign: it must do exactly the same work.
        repeat = attempt(first_seed, None)
        if repeat is not None and identity(repeat) != identity(results[0]):
            failed += 1
            print(f"  seed {first_seed}: repeat diverged "
                  f"{identity(repeat)} != {identity(results[0])}")

    metrics: dict[str, tuple] = {}
    if args.trace and traced:
        import spans
        for name, value in spans.layer_metrics(traced).items():
            metrics[name] = (value, layer_unit(name), len(traced))
        metrics["trace.overhead_frac"] = (
            sum(t["fuzz_wall_s"] for t in traced)
            / sum(t["untraced_wall_s"] for t in traced) - 1,
            "ratio", len(traced))
    elif not args.trace and results:
        metrics = end_to_end(results, setups)
        factor = statistics.median(r["host_factor"] for r in results)
        raw = statistics.median(r["fuzz_execs"] / r["fuzz_wall_s"]
                                for r in results)
        print(f"host factor median {factor:.3f}; "
              f"unscaled execs_per_s {raw:.1f}")
    for name, (value, unit, count) in metrics.items():
        print(f"{workload.name:12s} {name:28s} {value:14.6g} {unit:8s} "
              f"(n={count})")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _count) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
