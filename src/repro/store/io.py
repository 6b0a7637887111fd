"""Hardened disk-I/O primitives: the one seam every durable byte crosses.

Every store in the repository — campaign checkpoints, the service job
journal, the experiment results streams, the content-addressed corpus
object store — ultimately writes through the two primitives here:

- :func:`atomic_write` — the full crash-consistent replace sequence:
  write to a temp file, ``fsync`` the file, ``os.replace`` over the
  destination, then ``fsync`` the **parent directory** so the rename
  itself survives power loss (a rename that is only in the directory's
  page cache is lost by a crash, silently resurrecting the old file).
  Optional generation rotation shifts the previous file to ``path.1``
  (and so on) before the replace.
- append streams (:class:`repro.store.log.AppendLog`) open-append-flush
  through the same fault seam.

Because everything funnels through this module, the disk-fault half of
the chaos plane (``FaultPlan.DISK_SITES``) needs exactly **one**
injection seam: each primitive polls the process-wide injector
(occurrence-indexed, like every other chaos site) and interprets the
armed site:

- ``torn-write``  — a power cut mid-write: half the payload lands,
  then the injected fault is raised (the simulated process death);
- ``enospc``      — the disk fills mid-write: a torn temp file/tail is
  left and ``OSError(ENOSPC)`` is raised, the real errno a caller
  would see and may handle;
- ``eio-fsync``   — the barrier itself fails: ``OSError(EIO)`` from
  ``fsync``, after which the data's durability is unknown;
- ``lost-rename`` — a power cut inside the rename window, before the
  parent-directory fsync made the rename durable: the temp file
  survives, the destination still holds the old content;
- ``bit-flip``    — silent bit rot: the write "succeeds" but one bit
  of the destination is flipped; only checksums catch it later.

The layering rule matches ``sim_os``/``vm``: this module never imports
``repro.chaos`` — it polls a duck-typed injector and raises what it is
given — so fault *construction* stays in the chaos plane.  The injector
is installed process-wide with :func:`install_disk_faults` / the
:func:`disk_chaos` context manager, because a disk is process-wide
state: every consumer in the process inherits the fault plan through
this one seam.

:func:`unwritable_output` is the command lines' check, before they do
any work, that an output path can be created and written; it polls no
fault.
"""

from __future__ import annotations

import contextlib
import errno
import os
import tempfile

#: Site names polled by this module (chaos' ``FaultPlan.DISK_SITES``).
DISK_FAULT_SITES = (
    "torn-write", "enospc", "eio-fsync", "lost-rename", "bit-flip",
)

#: Process-wide injector (see module docstring); ``None`` = no chaos.
_GLOBAL_FAULTS = None


def install_disk_faults(injector) -> None:
    """Install a process-wide disk-fault injector (duck-typed: anything
    with ``poll(site) -> fault | None``).  Every store primitive polls
    this one."""
    global _GLOBAL_FAULTS
    _GLOBAL_FAULTS = injector


def clear_disk_faults() -> None:
    """Remove the process-wide disk-fault injector."""
    global _GLOBAL_FAULTS
    _GLOBAL_FAULTS = None


@contextlib.contextmanager
def disk_chaos(injector):
    """Scope a process-wide disk-fault injector to a ``with`` block."""
    install_disk_faults(injector)
    try:
        yield injector
    finally:
        clear_disk_faults()


def _poll(site: str):
    """One exercise of *site* against the process-wide injector."""
    if _GLOBAL_FAULTS is None:
        return None
    return _GLOBAL_FAULTS.poll(site)


def fsync_dir(path: str) -> None:
    """Fsync a directory so renames inside it survive power failure.

    Platforms whose filesystems refuse directory fsync (some network
    mounts, Windows) surface ``EINVAL``/``EBADF``; those are swallowed —
    the call is best-effort hardening, not a correctness gate the
    caller can act on.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def generation_path(path: str, generation: int) -> str:
    """Path of one rotation generation: the live file for 0, ``path.N``
    for older generations."""
    return path if generation == 0 else f"{path}.{generation}"


def rotate_generations(path: str, keep: int) -> None:
    """Shift existing generations one slot older, dropping the oldest
    (``path`` -> ``path.1`` -> ... up to *keep* files total)."""
    for generation in range(keep - 1, 0, -1):
        source = generation_path(path, generation - 1)
        if os.path.exists(source):
            os.replace(source, generation_path(path, generation))


def _flip_one_bit(path: str) -> None:
    """Silently corrupt one bit of *path* (the ``bit-flip`` site)."""
    size = os.path.getsize(path)
    if size == 0:
        return
    offset = size // 2
    with open(path, "r+b") as handle:
        handle.seek(offset)
        original = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([original[0] ^ 0x01]))


def atomic_write(path: str, data: bytes, keep: int = 1) -> None:
    """Crash-consistently replace *path* with *data*.

    The sequence is temp file + file fsync + generation rotation +
    ``os.replace`` + parent-directory fsync (see module docstring for
    why the last step matters).  On any failure the previous contents
    of *path* — and all older generations — are left intact; a cleanly
    failing write (``ENOSPC``, ``EIO``) also removes its temp file,
    while a simulated power cut leaves the torn temp behind exactly as
    a real crash would (``fsck`` reports and sweeps those).

    ``keep`` > 1 rotates the previous file to ``path.1`` (and so on)
    before the replace, keeping up to *keep* generations on disk.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    # Pid-suffixed so concurrent writers (corpus-store object puts from
    # parallel worker processes) never interleave on one temp file.
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            fault = _poll("torn-write")
            if fault is not None:
                handle.write(data[: len(data) // 2])
                handle.flush()
                raise fault
            fault = _poll("enospc")
            if fault is not None:
                handle.write(data[: len(data) // 2])
                handle.flush()
                raise OSError(
                    errno.ENOSPC, "No space left on device (chaos)", tmp
                )
            handle.write(data)
            handle.flush()
            fault = _poll("eio-fsync")
            if fault is not None:
                raise OSError(errno.EIO, "Input/output error in fsync (chaos)",
                              tmp)
            os.fsync(handle.fileno())
    except OSError:
        # A *reported* failure (the disk said no): clean up the torn
        # temp and leave the destination untouched.
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    # An injected power cut (torn-write) propagates as the fault itself
    # and deliberately skips the cleanup above: crashes don't clean up.
    fault = _poll("lost-rename")
    if fault is not None:
        raise fault
    rotate_generations(path, max(1, keep))
    os.replace(tmp, path)
    fsync_dir(directory)
    fault = _poll("bit-flip")
    if fault is not None:
        _flip_one_bit(path)


def is_temp_artifact(name: str) -> bool:
    """Whether a file name is one of :func:`atomic_write`'s temp files
    (possibly orphaned by a crash in the rename window)."""
    return ".tmp-" in name or name.endswith(".tmp")


def unwritable_output(option: str, path: str,
                      directory: bool = False) -> str | None:
    """Why a command line cannot write its output *option* at *path* (a
    file there or, with *directory*, in the directory *path*), or None:
    the directory it goes in is created with its parents, as the
    writers create it, and a temporary file is written there and
    dropped, so a command refuses an unusable path before any work."""
    where = path if directory else os.path.dirname(os.path.abspath(path))
    try:
        if not directory and os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        os.makedirs(where, exist_ok=True)
        with tempfile.TemporaryFile(dir=where):
            pass
    except OSError as error:
        return f"{option} {path!r} cannot be created or written: {error}"
    return None
