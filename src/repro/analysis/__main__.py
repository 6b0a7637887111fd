"""Analysis CLI: ``python -m repro.analysis [opt] [options]``.

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
"""

from __future__ import annotations

import json
import sys

from repro.analysis.lint import Linter, Severity
from repro.analysis.pollution import PollutionAnalyzer
from repro.ir.verifier import VerificationError, verify_module
from repro.targets import all_targets, get_target


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


def lint_main() -> int:
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
    from repro.analysis.opt import optimize_module

    seeds = tuple(spec.seeds)
    baseline = spec.build_closurex()
    module = spec.build_closurex()
    report = optimize_module(
        module, seeds=seeds, extra_allocators=spec.extra_allocators
    )
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


def opt_main(argv: list[str]) -> int:
    names = [spec.name for spec in all_targets()]
    as_json = False
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--json":
            as_json = True
        elif arg == "--targets":
            i += 1
            if i >= len(argv):
                print("error: --targets needs a comma-separated list",
                      file=sys.stderr)
                return 2
            names = [n for n in argv[i].split(",") if n]
        elif arg.startswith("--targets="):
            names = [n for n in arg.split("=", 1)[1].split(",") if n]
        else:
            print(f"error: unknown argument {arg!r}", file=sys.stderr)
            return 2
        i += 1
    entries = []
    for name in names:
        spec = get_target(name)
        entry = optimize_target(spec)
        entries.append(entry)
        if not as_json:
            _print_opt_entry(entry)
    rejected = sum(entry["rejected"] for entry in entries)
    if as_json:
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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "opt":
        return opt_main(argv[1:])
    if argv:
        print(f"error: unknown subcommand {argv[0]!r} "
              f"(expected 'opt' or no arguments)", file=sys.stderr)
        return 2
    return lint_main()


if __name__ == "__main__":
    sys.exit(main())
