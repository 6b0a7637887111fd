"""CLI for the durable-storage plane.

```
python -m repro.store fsck  [ROOT] [--repair] [--json PATH]
python -m repro.store scrub ROOT  [--no-repair]
python -m repro.store stats ROOT
```

``fsck`` walks a state tree validating every store artifact it finds
(checkpoint generation families, append logs, corpus stores, temp
residue, plain JSON) and exits **0** iff the tree is loadable — only
unrepaired errors fail it; warnings are expected crash residue.  Given
a file, it checks that file (a checkpoint: its generation family) as
the walk of its directory would.  With ``--repair`` everything fixable
is fixed in place; ``--json`` writes the machine-readable report (the
CI artifact).  A path that cannot be checked (a missing one for
``fsck``, a non-store for ``scrub`` and ``stats``), or a ``--json``
path that cannot be created and written, is one ``error:`` line and
exit status 2, before the walk.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.store.errors import StoreError
from repro.store.fsck import fsck_tree
from repro.store.io import unwritable_output
from repro.store.objects import open_store


def _error(message: str) -> int:
    """Report a path that cannot be checked as one ``error:`` line; the
    exit status is 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _cmd_fsck(args) -> int:
    # Checked before the walk: --repair rewrites files, and a report
    # that cannot be written would read as a tree that is not OK.
    if args.json and (problem := unwritable_output("--json", args.json)):
        return _error(problem)
    try:
        report = fsck_tree(args.root, repair=args.repair)
    except StoreError as error:
        return _error(str(error))
    payload = report.to_json()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    for finding in report.findings:
        status = "repaired" if finding.repaired else finding.severity
        print(f"[{status}] {finding.kind}: {finding.path}")
        print(f"    {finding.detail}")
    print(
        f"fsck {args.root}: {'ok' if report.ok else 'NOT OK'} — "
        f"{payload['errors']} error(s), {payload['warnings']} warning(s), "
        f"{payload['repaired']} repaired, "
        f"{report.stores_scanned} corpus store(s) scanned"
    )
    return 0 if report.ok else 1


def _cmd_scrub(args) -> int:
    try:
        store = open_store(args.root)
    except StoreError as error:
        return _error(str(error))
    report = store.scrub(repair=not args.no_repair)
    print(
        f"scrub {args.root}: {report.checked} object(s) checked, "
        f"{len(report.repaired)} repaired, "
        f"{len(report.quarantined)} quarantined"
    )
    return 0 if report.clean else 1


def _cmd_stats(args) -> int:
    try:
        store = open_store(args.root)
    except StoreError as error:
        return _error(str(error))
    print(json.dumps(store.stats(), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="inspect and repair the durable-storage plane",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fsck = commands.add_parser(
        "fsck", help="walk a state tree, report corruption, repair"
    )
    fsck.add_argument("root", nargs="?", default=".",
                      help="state tree to walk (default: cwd)")
    fsck.add_argument("--repair", action="store_true",
                      help="fix everything fixable in place")
    fsck.add_argument("--json", metavar="PATH",
                      help="write the machine-readable report here")
    fsck.set_defaults(run=_cmd_fsck)

    scrub = commands.add_parser(
        "scrub", help="verify every object of one corpus store"
    )
    scrub.add_argument("root", help="corpus store root")
    scrub.add_argument("--no-repair", action="store_true",
                       help="report rot without repairing/quarantining")
    scrub.set_defaults(run=_cmd_scrub)

    stats = commands.add_parser(
        "stats", help="object/owner/byte counts of one corpus store"
    )
    stats.add_argument("root", help="corpus store root")
    stats.set_defaults(run=_cmd_stats)

    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
