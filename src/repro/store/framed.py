"""CRC32-framed record files with rotating generations.

The framing is the one the ``RPRCKPT1`` checkpoint format defined
(magic + little-endian CRC32 of the body + body), generalised so any
store can use it: the magic string is the caller's, carrying both the
file's species and its protocol revision.  Readers validate magic →
length → CRC before handing the body back, and every failure mode
names the file, the **byte offset**, and — for checksum failures — the
expected and actual CRC values, so triage never starts from a bare
"unpickling error".

Writes go through :func:`repro.store.io.atomic_write`, inheriting the
full durability stack (temp + fsync + rename + parent-dir fsync +
generation rotation) and the disk-fault chaos seam.
"""

from __future__ import annotations

import os
import zlib

from repro.store.errors import FrameError
from repro.store.io import atomic_write, generation_path

_CRC_BYTES = 4


def frame(magic: bytes, body: bytes) -> bytes:
    """Frame *body* for storage: magic + CRC32(body) + body."""
    return magic + zlib.crc32(body).to_bytes(_CRC_BYTES, "little") + body


def write_framed(path: str, magic: bytes, body: bytes,
                 keep: int = 1) -> None:
    """Atomically persist one framed file, keeping *keep* generations
    (the fresh file at *path*, the previous at ``path.1``, ...)."""
    atomic_write(path, frame(magic, body), keep=keep)


def read_framed(path: str, magic: bytes) -> bytes:
    """Read and fully validate one framed file, returning the body.

    Raises :class:`FrameError` — naming the file, the byte offset of
    the failure, and expected/actual CRC values where applicable — on
    any of: unreadable file, wrong magic, truncated header, checksum
    mismatch.
    """
    try:
        with open(path, "rb") as handle:
            payload = handle.read()
    except OSError as error:
        raise FrameError(f"cannot read {path!r}: {error}", path=path)
    header_end = len(magic) + _CRC_BYTES
    if not payload.startswith(magic):
        raise FrameError(
            f"{path!r} is not a {magic.decode('ascii', 'replace')}-framed "
            f"file (bad magic at byte offset 0)",
            path=path,
        )
    if len(payload) < header_end:
        raise FrameError(
            f"truncated header in {path!r}: {len(payload)} bytes, "
            f"need {header_end}",
            path=path,
        )
    expected_crc = int.from_bytes(payload[len(magic):header_end], "little")
    body = payload[header_end:]
    actual_crc = zlib.crc32(body)
    if actual_crc != expected_crc:
        raise FrameError(
            f"{path!r} failed CRC over the {len(body)}-byte body at "
            f"byte offset {header_end}: expected {expected_crc:08x}, "
            f"actual {actual_crc:08x}",
            path=path,
        )
    return body


def generations_on_disk(path: str) -> list[str]:
    """Generation files present for *path*, newest first.

    The live file is listed (first) even when missing — mirroring the
    loader, which always consults it — while older generations are
    listed only while consecutively present.
    """
    found = [path]
    generation = 1
    while True:
        candidate = generation_path(path, generation)
        if not os.path.exists(candidate):
            break
        found.append(candidate)
        generation += 1
    return found

