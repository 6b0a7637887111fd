"""Analysis CLI: ``python -m repro.analysis [opt|integrity] [options]``.

Bare invocation is the lint gate.  For every registered target this
runs, on both the raw module and the full ClosureX build:

- the structural verifier in strict-SSA mode, and
- the full lint rule set,

then prints a one-line pollution summary per target.  The process
exits non-zero if any target fails verification or produces an
error-severity diagnostic — warnings are reported but tolerated.  CI
runs this as the ``lint-targets`` job.

``python -m repro.analysis opt`` runs the validated optimizer
(:mod:`repro.analysis.opt`) over the ClosureX build of each target and
reports static and dynamic (seed-replayed) instruction counts, the
transforms applied, and every validation verdict.  ``--targets a,b``
restricts the set; ``--json`` emits a stable machine-readable report
(schema ``repro-opt-report/1``).  Exits non-zero if any transform was
rejected by translation validation.  CI runs this as the
``opt-validation`` job.

``python -m repro.analysis integrity`` is the lint gate's runtime
complement: the passes *should* restore every state dimension, this
checks that they *did*.  Each target's ClosureX executor runs every
seed twice under the integrity sentinel at its strictest cadence; any
leak or divergence exits non-zero.  CI runs it in ``lint-targets``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis.lint import Linter, Severity
from repro.analysis.pollution import PollutionAnalyzer
from repro.execution import build_executor
from repro.ir.verifier import VerificationError, verify_module
from repro.sim_os.kernel import Kernel
from repro.targets import all_targets, get_target, target_names


def check_module(label: str, module) -> tuple[int, int]:
    """Verify + lint one module; returns (errors, warnings)."""
    errors = 0
    warnings = 0
    try:
        verify_module(module, strict_ssa=True)
    except VerificationError as failure:
        for message in failure.errors:
            print(f"  error: [verifier] {label}: {message}")
        errors += len(failure.errors)
    linter = Linter(module)
    for diagnostic in linter.run():
        print(f"  {diagnostic.describe()}  [{label}]")
        if diagnostic.severity is Severity.ERROR:
            errors += 1
        else:
            warnings += 1
    return errors, warnings


def lint_main(args) -> int:
    total_errors = 0
    total_warnings = 0
    for spec in all_targets():
        raw = spec.compile()
        report = PollutionAnalyzer(
            raw, extra_allocators=spec.extra_allocators
        ).run()
        clean = ",".join(report.clean_dimensions()) or "-"
        print(f"{spec.name}: clean=[{clean}] "
              f"modified_globals={len(report.modified_globals)}"
              f"{'' if report.trusted_globals else ' (untrusted)'}")
        for label, module in (
            ("raw", raw),
            ("closurex", spec.build_closurex()),
        ):
            errors, warnings = check_module(f"{spec.name}/{label}", module)
            total_errors += errors
            total_warnings += warnings
    print(f"\nlint-targets: {total_errors} error(s), "
          f"{total_warnings} warning(s) across {len(all_targets())} targets")
    return 1 if total_errors else 0


# ---------------------------------------------------------------------------
# opt subcommand
# ---------------------------------------------------------------------------


def _dynamic_instructions(module, seeds) -> int:
    from repro.analysis.opt import REPLAY_BOOT_TIME
    from repro.runtime.replay import replay

    return sum(replay(module, seed, boot_time=REPLAY_BOOT_TIME).instructions
               for seed in seeds)


def optimize_target(spec) -> dict:
    """Optimize one target's ClosureX build; returns the report dict."""
    seeds = tuple(spec.seeds)
    baseline = spec.build_closurex()
    module, report = spec.build_optimized()
    dynamic_before = _dynamic_instructions(baseline, seeds)
    dynamic_after = _dynamic_instructions(module, seeds)
    entry = report.to_dict()
    entry["target"] = spec.name
    entry["dynamic_instructions_before"] = dynamic_before
    entry["dynamic_instructions_after"] = dynamic_after
    entry["dynamic_reduction_percent"] = round(
        100.0 * (dynamic_before - dynamic_after) / dynamic_before, 2
    ) if dynamic_before else 0.0
    return entry


def _print_opt_entry(entry: dict) -> None:
    print(f"{entry['target']}: "
          f"static {entry['instructions_before']} -> "
          f"{entry['instructions_after']} "
          f"(-{entry['instructions_removed']}), "
          f"dynamic {entry['dynamic_instructions_before']} -> "
          f"{entry['dynamic_instructions_after']} "
          f"(-{entry['dynamic_reduction_percent']}%), "
          f"{entry['rounds']} round(s), {entry['replays']} replay(s)")
    for outcome in entry["transforms"]:
        if outcome["verdict"] == "no-change":
            continue
        details = ", ".join(f"{k}={v}" for k, v in
                            outcome["details"].items()) or "-"
        line = (f"  round {outcome['round']} {outcome['transform']}: "
                f"{outcome['verdict']} [{details}]")
        print(line)
        for error in outcome["errors"]:
            print(f"    {error}")


def opt_main(args) -> int:
    names = (target_names() if args.targets is None
             else [n for n in args.targets.split(",") if n])
    unknown = sorted(set(names) - set(target_names()))
    if unknown:
        print(f"error: unknown targets {unknown}; known targets: "
              f"{', '.join(target_names())}", file=sys.stderr)
        return 2
    entries = []
    for name in names:
        entry = optimize_target(get_target(name))
        entries.append(entry)
        if not args.json:
            _print_opt_entry(entry)
    rejected = sum(entry["rejected"] for entry in entries)
    if args.json:
        print(json.dumps({
            "schema": "repro-opt-report/1",
            "targets": entries,
            "rejected": rejected,
        }, indent=2, sort_keys=True))
    else:
        applied = sum(entry["applied"] for entry in entries)
        print(f"\nopt-validation: {applied} transform(s) applied, "
              f"{rejected} rejected across {len(entries)} target(s)")
    return 1 if rejected else 0


# ---------------------------------------------------------------------------
# integrity subcommand
# ---------------------------------------------------------------------------


def integrity_main(args) -> int:
    names = target_names()
    failures = 0
    for name in names:
        executor = build_executor(name, "closurex", Kernel(),
                                  sentinel_digest_every=1,
                                  sentinel_shadow_every=1)
        executor.boot()
        # Two passes over the seeds: the second exercises restoration
        # *after* real target activity, which is where leaks would live.
        for seed in get_target(name).seeds * 2:
            executor.run(bytes(seed))
        executor.shutdown()
        stats = executor.sentinel.stats
        ok = stats.leaks == 0 and stats.divergences == 0
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: checks={stats.checks} "
              f"shadows={stats.shadow_runs} leaks={stats.leaks} "
              f"divergences={stats.divergences} "
              f"overhead={stats.overhead_ns}ns")
    print(f"\nintegrity self-check: {len(names) - failures}/{len(names)} "
          f"targets restore-clean")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Self-check every built-in target: lint and "
                    "strict-verify it (no subcommand), optimize it "
                    "(opt), or restore-check it at runtime (integrity).",
    )
    parser.set_defaults(run=lint_main)
    commands = parser.add_subparsers()
    opt = commands.add_parser("opt", help="run the validated optimizer")
    opt.add_argument("--targets", metavar="A,B",
                     help="comma-separated targets (default: all)")
    opt.add_argument("--json", action="store_true",
                     help="emit the repro-opt-report/1 JSON report")
    opt.set_defaults(run=opt_main)
    integrity = commands.add_parser("integrity",
                                    help="restore-check every target")
    integrity.set_defaults(run=integrity_main)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
