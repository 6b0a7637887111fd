"""Torn-tail-tolerant JSONL append logs.

Every append-only stream in the repository — the service job journal,
the experiment platform's per-trial result streams, the corpus store's
per-owner reference logs — shares one durability story:

- records are **canonical JSON** (sorted keys, no whitespace), one per
  line, so stream bytes are a pure function of the record sequence;
- each append is flushed and fsynced before it returns, so a record
  survives the death of this process and of the machine (the
  service's journal-before-ack rule relies on it);
- a **torn tail** — a partial final line left by a crash or ``ENOSPC``
  mid-append — is *expected* damage: readers keep the valid prefix and
  drop the tail, and the next append repairs the file by truncating
  back to the last newline before writing, so a store that ran out of
  space resumes cleanly once space returns;
- an unparsable record *before* the tail is **real corruption** (bit
  rot, an overwrite): :meth:`AppendLog.read` raises
  :class:`~repro.store.errors.LogCorruption` naming the byte offset
  and line number, while :meth:`AppendLog.scan` returns the valid
  prefix plus a damage report for ``fsck`` to act on.

Appends poll the same disk-fault seam as :func:`repro.store.io
.atomic_write` (``torn-write`` / ``enospc`` tear the line mid-write,
``eio-fsync`` fails the barrier), so chaos coverage reaches every
consumer through this one class.
"""

from __future__ import annotations

import dataclasses
import errno
import json
import os

from repro.store.errors import LogCorruption
from repro.store.io import _poll, atomic_write


def canonical_line(record: dict) -> str:
    """One record in canonical JSON form (no newline)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@dataclasses.dataclass(frozen=True)
class LogDamage:
    """One damaged region found by :meth:`AppendLog.scan`."""

    kind: str          # "torn-tail" (expected) or "corrupt" (real damage)
    byte_offset: int   # where the damaged record starts
    line_number: int   # 1-based line of the damaged record
    detail: str        # the parse failure


class AppendLog:
    """One torn-tail-tolerant JSONL stream (see module docstring).

    Every append is flushed and fsynced before it returns.
    """

    def __init__(self, path: str):
        self.path = os.fspath(path)
        self._tail_checked = False
        os.makedirs(os.path.dirname(os.path.abspath(self.path)),
                    exist_ok=True)

    # -- writes ----------------------------------------------------------

    def append(self, record: dict) -> None:
        """Append one record, flushed and fsynced.  A failed append
        (injected or real) may leave a torn tail; the next successful
        append repairs it first."""
        if not self._tail_checked:
            self.repair_tail()
        line = (canonical_line(record) + "\n").encode("utf-8")
        with open(self.path, "ab") as handle:
            fault = _poll("torn-write")
            if fault is not None:
                handle.write(line[: len(line) // 2])
                handle.flush()
                self._tail_checked = False
                raise fault
            fault = _poll("enospc")
            if fault is not None:
                handle.write(line[: len(line) // 2])
                handle.flush()
                self._tail_checked = False
                raise OSError(
                    errno.ENOSPC, "No space left on device (chaos)",
                    self.path,
                )
            handle.write(line)
            handle.flush()
            fault = _poll("eio-fsync")
            if fault is not None:
                raise OSError(
                    errno.EIO, "Input/output error in fsync (chaos)",
                    self.path,
                )
            os.fsync(handle.fileno())

    def repair_tail(self) -> int:
        """Truncate a torn trailing segment back to the last newline,
        returning how many bytes were dropped (0 for a clean tail)."""
        self._tail_checked = True
        if not os.path.exists(self.path):
            return 0
        with open(self.path, "rb") as handle:
            data = handle.read()
        if not data or data.endswith(b"\n"):
            return 0
        keep = data.rfind(b"\n") + 1
        with open(self.path, "r+b") as handle:
            handle.truncate(keep)
        return len(data) - keep

    def rewrite(self, records: list[dict]) -> None:
        """Atomically replace the whole stream with *records* (used by
        resume truncation and fsck repair)."""
        body = "".join(
            canonical_line(record) + "\n" for record in records
        ).encode("utf-8")
        atomic_write(self.path, body)
        self._tail_checked = True

    # -- reads -----------------------------------------------------------

    def scan(self) -> tuple[list[dict], list[LogDamage]]:
        """The valid record prefix plus a report of any damage.

        A final partial line is ``torn-tail`` damage; an unparsable
        record with bytes after it is ``corrupt`` damage and ends the
        prefix (everything past real corruption is untrusted).
        """
        records: list[dict] = []
        damage: list[LogDamage] = []
        if not os.path.exists(self.path):
            return records, damage
        with open(self.path, "rb") as handle:
            data = handle.read()
        offset = 0
        line_number = 0
        while offset < len(data):
            newline = data.find(b"\n", offset)
            final = newline < 0
            segment = data[offset:] if final else data[offset:newline]
            line_number += 1
            text = segment.strip()
            if text:
                try:
                    records.append(json.loads(text))
                except (ValueError, UnicodeDecodeError) as error:
                    kind = "torn-tail" if final else "corrupt"
                    damage.append(
                        LogDamage(kind, offset, line_number, str(error))
                    )
                    if not final:
                        break
            offset = len(data) if final else newline + 1
        return records, damage

    def read(self) -> list[dict]:
        """All records (empty if absent).  A torn tail is silently
        dropped — the valid prefix is the stream's state — while
        mid-stream corruption raises :class:`LogCorruption` with the
        byte offset and line number of the damaged record."""
        records, damage = self.scan()
        for found in damage:
            if found.kind == "corrupt":
                raise LogCorruption(
                    self.path, found.byte_offset, found.line_number,
                    found.detail,
                )
        return records
