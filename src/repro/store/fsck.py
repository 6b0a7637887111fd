"""``fsck`` for the durable-storage plane: walk, report, repair.

One sweep over a state tree covers every store species this repository
writes, because they all share the same small set of on-disk shapes:

- **temp artifacts** (``*.tmp-<pid>`` / ``*.tmp``) orphaned by a crash
  inside :func:`~repro.store.io.atomic_write`'s rename window — always
  a warning (the destination is intact by construction); repair sweeps
  them;
- **framed files** (RPRCKPT1 checkpoints and their rotated
  generations) — grouped by base path and validated newest-first: a
  corrupt generation *with* a loadable one behind it is a warning (the
  loader's fallback already survives it; repair deletes the corrupt
  generation), while a base with **no** loadable generation is an
  unrecoverable error;
- **append logs** (``*.jsonl``) — a torn tail is a warning (readers
  drop it; repair truncates back to the last newline), unparsable
  records before the tail are an error (repair truncates the log to
  its valid prefix);
- **corpus stores** (directories carrying the
  ``corpus-store.json`` marker) — scrubbed object-by-object (bit rot
  repaired from the mirror replica or quarantined), reference logs
  checked like any append log, and dangling references (an owner
  naming an object that no longer exists) reported and, on repair,
  dropped;
- **plain JSON files** — parsed; failure is an error (there is no
  generic repair for single-copy JSON).

The exit-code contract (``python -m repro.store fsck``): **0** when
every store is *loadable* — unrepaired errors are the only thing that
fails the tree; warnings (expected crash residue) never do.  A file
given in place of a tree gets the verdict walking its directory gives
that file (a framed file: its whole generation family); a path that
does not exist is a :class:`~repro.store.errors.StoreError`.
"""

from __future__ import annotations

import dataclasses
import json
import os

from repro.store.framed import read_framed
from repro.store.io import is_temp_artifact
from repro.store.log import AppendLog
from repro.store.objects import STORE_MARKER, CorpusStore
from repro.store.errors import FrameError, StoreError

#: Magics of framed-file species fsck knows how to validate.
FRAMED_MAGICS = (b"RPRCKPT1",)


@dataclasses.dataclass
class Finding:
    """One damaged (or repaired) artifact found by :func:`fsck_tree`."""

    path: str
    kind: str         # e.g. "stray-temp", "torn-tail", "checkpoint-unrecoverable"
    severity: str     # "warning" (expected crash residue) or "error"
    detail: str
    repaired: bool = False

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class FsckReport:
    """Everything one fsck sweep found."""

    root: str
    findings: list[Finding]
    stores_scanned: int = 0

    @property
    def ok(self) -> bool:
        """Whether the tree is loadable: no unrepaired errors."""
        return all(
            finding.severity != "error" or finding.repaired
            for finding in self.findings
        )

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    def to_json(self) -> dict:
        return {
            "root": self.root,
            "ok": self.ok,
            "stores_scanned": self.stores_scanned,
            "errors": sum(1 for f in self.errors if not f.repaired),
            "repaired": sum(1 for f in self.findings if f.repaired),
            "warnings": len(self.warnings),
            "findings": [f.to_dict() for f in self.findings],
        }


def _framed_magic(path: str) -> bytes | None:
    """The known framing magic *path* starts with, if any."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(max(len(m) for m in FRAMED_MAGICS))
    except OSError:
        return None
    for magic in FRAMED_MAGICS:
        if head.startswith(magic):
            return magic
    return None


def _generation_base(path: str) -> str:
    """Strip a trailing rotation suffix (``.N``) from a generation
    path, giving the base the loader starts from."""
    root, ext = os.path.splitext(path)
    if ext[1:].isdigit():
        return root
    return path


def _check_framed_group(base: str, members: dict[str, bytes],
                        repair: bool, findings: list[Finding]) -> None:
    """Validate one checkpoint's generation family (see module
    docstring for the warning/error split)."""
    failures: dict[str, str] = {}
    loadable = False
    for path, magic in sorted(members.items()):
        try:
            read_framed(path, magic)
            loadable = True
        except FrameError as error:
            failures[path] = str(error)
    for path, detail in failures.items():
        if loadable:
            finding = Finding(path, "corrupt-generation", "warning", detail)
            if repair:
                os.remove(path)
                finding.repaired = True
            findings.append(finding)
        else:
            findings.append(
                Finding(path, "checkpoint-unrecoverable", "error", detail)
            )
    if not loadable and not failures:
        findings.append(
            Finding(base, "checkpoint-unrecoverable", "error",
                    "no generation present")
        )


def _check_log(path: str, repair: bool, findings: list[Finding]) -> None:
    """Scan one JSONL append log for torn tails and corruption."""
    log = AppendLog(path)
    records, damage = log.scan()
    for found in damage:
        if found.kind == "torn-tail":
            finding = Finding(
                path, "torn-tail", "warning",
                f"partial record at byte offset {found.byte_offset} "
                f"(line {found.line_number}): {found.detail}",
            )
            if repair:
                log.repair_tail()
                finding.repaired = True
        else:
            finding = Finding(
                path, "log-corruption", "error",
                f"corrupt record at byte offset {found.byte_offset} "
                f"(line {found.line_number}): {found.detail}",
            )
            if repair:
                log.rewrite(records)
                finding.repaired = True
        findings.append(finding)


def _check_json(path: str, findings: list[Finding]) -> None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            json.load(handle)
    except (OSError, ValueError) as error:
        findings.append(Finding(path, "bad-json", "error", str(error)))


def _check_store(root: str, repair: bool, findings: list[Finding]) -> None:
    """Scrub one corpus store and validate its reference graph."""
    store = CorpusStore(root)
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if is_temp_artifact(name):
                finding = Finding(
                    os.path.join(dirpath, name), "stray-temp", "warning",
                    "orphaned atomic-write temp file (crash residue)",
                )
                if repair:
                    os.remove(finding.path)
                    finding.repaired = True
                findings.append(finding)
    for owner in store.owners():
        _check_log(store.ref_log_path(owner), repair, findings)
    report = store.scrub(repair=repair)
    for digest in report.repaired:
        findings.append(
            Finding(store.object_path(digest), "object-rot", "warning",
                    f"object {digest} repaired from replica", repaired=True)
        )
    for digest in report.degraded:
        findings.append(
            Finding(store.object_path(digest), "object-rot", "warning",
                    f"object {digest} fails verification but has a healthy "
                    "replica (run with --repair to restore)")
        )
    for digest in report.quarantined:
        finding = Finding(
            store.object_path(digest), "object-unrecoverable", "error",
            f"object {digest} fails verification with no healthy replica"
            + ("; quarantined" if repair else ""),
        )
        findings.append(finding)
    present = set(store.objects())
    for owner in store.owners():
        missing = sorted(store.refs(owner) - present)
        if not missing:
            continue
        finding = Finding(
            store.ref_log_path(owner), "dangling-ref", "error",
            f"owner {owner!r} references {len(missing)} missing "
            f"object(s): {', '.join(missing[:3])}"
            + ("..." if len(missing) > 3 else ""),
        )
        if repair:
            store.retain(owner, store.refs(owner) - set(missing))
            finding.repaired = True
        findings.append(finding)


def _check_files(dirpath: str, names: list[str], repair: bool,
                 findings: list[Finding],
                 framed_groups: dict[str, dict[str, bytes]]) -> None:
    """Check the files *names* of one directory that is not a corpus
    store; framed files join their generation family in
    *framed_groups*, checked once every family is complete."""
    for name in sorted(names):
        path = os.path.join(dirpath, name)
        if is_temp_artifact(name):
            finding = Finding(
                path, "stray-temp", "warning",
                "orphaned atomic-write temp file (crash residue)",
            )
            if repair:
                os.remove(path)
                finding.repaired = True
            findings.append(finding)
            continue
        magic = _framed_magic(path)
        if magic is not None:
            base = _generation_base(path)
            framed_groups.setdefault(base, {})[path] = magic
            continue
        if name.endswith(".jsonl"):
            _check_log(path, repair, findings)
        elif name.endswith(".json"):
            _check_json(path, findings)


def fsck_tree(root: str, repair: bool = False) -> FsckReport:
    """Walk *root*, validating every store artifact (see module
    docstring); with *repair*, fix everything fixable in place.  A
    file *root* is checked as the walk of its directory checks it, a
    framed one with the rest of its generation family."""
    if not os.path.exists(root):
        raise StoreError(f"{root!r} does not exist")
    findings: list[Finding] = []
    stores = 0
    framed_groups: dict[str, dict[str, bytes]] = {}
    if os.path.isfile(root):
        directory, name = os.path.split(root)
        names = [name]
        if _framed_magic(root) is not None:
            base = _generation_base(root)
            names = [
                sibling for sibling in os.listdir(directory or ".")
                if _generation_base(os.path.join(directory, sibling)) == base
            ]
        _check_files(directory, names, repair, findings, framed_groups)
    else:
        for dirpath, dirnames, filenames in os.walk(root):
            if STORE_MARKER in filenames:
                stores += 1
                _check_store(dirpath, repair, findings)
                dirnames[:] = []  # the store check covers this subtree
                continue
            dirnames.sort()
            _check_files(dirpath, filenames, repair, findings,
                         framed_groups)
    for base, members in sorted(framed_groups.items()):
        _check_framed_group(base, members, repair, findings)
    return FsckReport(root=root, findings=findings, stores_scanned=stores)
