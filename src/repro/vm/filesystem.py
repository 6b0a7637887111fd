"""In-VM filesystem and FILE-handle table.

The VM gives each simulated process a small virtual filesystem (path ->
bytes) and a stdio-like handle layer.  ``fopen`` returns a FILE* that is
an address in a dedicated handle segment — not real memory, so
dereferencing it traps, but null checks work naturally.

The kernel-style descriptor limit is enforced here: a persistent
process that opens the input file every iteration without closing it
runs out of descriptors after :attr:`FDTable.MAX_OPEN` opens — one of
the false-crash pathologies ClosureX's FilePass eliminates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.vm.errors import CrashSite, TrapKind, VMTrap
from repro.vm.memory import HANDLE_BASE


class VirtualFS:
    """Trivial path -> contents store shared by a process."""

    def __init__(self) -> None:
        self.files: dict[str, bytes] = {}

    def write_file(self, path: str, data: bytes) -> None:
        self.files[path] = bytes(data)

    def read_file(self, path: str) -> bytes | None:
        return self.files.get(path)

    def exists(self, path: str) -> bool:
        return path in self.files

    def remove(self, path: str) -> None:
        self.files.pop(path, None)

    def clone(self) -> "VirtualFS":
        other = VirtualFS()
        other.files = dict(self.files)
        return other


@dataclass
class OpenFile:
    """One open FILE handle."""

    handle: int
    path: str
    data: bytes
    mode: str
    position: int = 0
    eof: bool = False
    writes: bytearray = field(default_factory=bytearray)

    @property
    def readable(self) -> bool:
        return "r" in self.mode or "+" in self.mode

    @property
    def writable(self) -> bool:
        return any(m in self.mode for m in ("w", "a", "+"))


class FDTable:
    """Per-process table of open FILE handles with an OS-style limit."""

    MAX_OPEN = 64
    HANDLE_STRIDE = 32

    def __init__(self, fs: VirtualFS, max_open: int | None = None):
        self.fs = fs
        self.max_open = max_open if max_open is not None else self.MAX_OPEN
        self.open_files: dict[int, OpenFile] = {}
        self._next_handle = HANDLE_BASE
        self.total_opens = 0
        self.open_failures = 0
        #: Per path, the bytes written through writable handles since
        #: :meth:`begin_run`, whether or not a close has flushed them.
        self.run_writes: dict[str, bytearray] = {}

    def is_handle(self, address: int) -> bool:
        return address >= HANDLE_BASE

    def fopen(self, path: str, mode: str, site: CrashSite) -> int:
        """Open *path*; returns a FILE* address, or 0 (NULL) on failure.

        Exhausting the descriptor table raises an
        :data:`TrapKind.FD_EXHAUSTED` trap: the OS would make ``fopen``
        fail, and fuzz targets virtually never handle that gracefully,
        so we surface it as the observable false crash directly.
        """
        self.total_opens += 1
        if len(self.open_files) >= self.max_open:
            raise VMTrap(
                TrapKind.FD_EXHAUSTED,
                f"process has {len(self.open_files)} open handles (limit {self.max_open})",
                site,
            )
        data = self.fs.read_file(path)
        if "r" in mode and data is None:
            self.open_failures += 1
            return 0
        if data is None or mode.startswith("w"):
            data = b""
        handle = self._next_handle
        self._next_handle += self.HANDLE_STRIDE
        self.open_files[handle] = OpenFile(handle, path, data, mode)
        return handle

    def get(self, handle: int, site: CrashSite) -> OpenFile:
        file = self.open_files.get(handle)
        if file is None:
            if handle == 0:
                raise VMTrap(TrapKind.NULL_DEREF, "stdio call on NULL FILE*", site)
            raise VMTrap(
                TrapKind.INVALID_READ,
                f"stdio call on invalid or closed FILE* 0x{handle:x}",
                site,
            )
        return file

    def fclose(self, handle: int, site: CrashSite) -> int:
        file = self.get(handle, site)
        if file.writable and file.writes:
            self.fs.write_file(file.path, bytes(file.writes))
        del self.open_files[handle]
        return 0

    def fread(self, file: OpenFile, size: int) -> bytes:
        chunk = file.data[file.position:file.position + size]
        file.position += len(chunk)
        if len(chunk) < size:
            file.eof = True
        return chunk

    def fwrite(self, file: OpenFile, data: bytes) -> int:
        file.writes.extend(data)
        if file.writable:
            self.run_writes.setdefault(file.path, bytearray()).extend(data)
        return len(data)

    def begin_run(self) -> None:
        """Start a new run: forget what earlier runs wrote."""
        self.run_writes.clear()

    def fseek(self, file: OpenFile, offset: int, whence: int) -> int:
        if whence == 0:      # SEEK_SET
            target = offset
        elif whence == 1:    # SEEK_CUR
            target = file.position + offset
        elif whence == 2:    # SEEK_END
            target = len(file.data) + offset
        else:
            return -1
        if target < 0:
            return -1
        file.position = target
        file.eof = False
        return 0

    def open_handle_count(self) -> int:
        return len(self.open_files)

    def open_handles(self) -> list[int]:
        return list(self.open_files.keys())

    def close_all(self) -> int:
        """Force-close every handle; returns how many were closed."""
        count = len(self.open_files)
        for handle in list(self.open_files):
            file = self.open_files.pop(handle)
            if file.writable and file.writes:
                self.fs.write_file(file.path, bytes(file.writes))
        return count
