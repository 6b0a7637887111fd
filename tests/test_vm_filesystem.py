"""Unit tests for the virtual filesystem and FILE-handle table."""

import pytest

from repro.vm.errors import CrashSite, TrapKind, VMTrap
from repro.vm.filesystem import FDTable, VirtualFS

SITE = CrashSite("f", "b")


@pytest.fixture
def fs():
    vfs = VirtualFS()
    vfs.write_file("/data", b"hello world")
    return vfs


@pytest.fixture
def table(fs):
    return FDTable(fs)


class TestVirtualFS:
    def test_write_read_roundtrip(self, fs):
        fs.write_file("/x", b"abc")
        assert fs.read_file("/x") == b"abc"
        assert fs.exists("/x")

    def test_missing_file(self, fs):
        assert fs.read_file("/nope") is None
        assert not fs.exists("/nope")

    def test_clone_is_independent(self, fs):
        clone = fs.clone()
        clone.write_file("/data", b"changed")
        assert fs.read_file("/data") == b"hello world"

    def test_remove(self, fs):
        fs.remove("/data")
        assert not fs.exists("/data")


class TestOpenClose:
    def test_fopen_read(self, table):
        handle = table.fopen("/data", "r", SITE)
        assert handle != 0
        assert table.open_handle_count() == 1

    def test_fopen_missing_returns_null(self, table):
        assert table.fopen("/nope", "r", SITE) == 0
        assert table.open_failures == 1

    def test_fopen_write_creates(self, table):
        handle = table.fopen("/new", "w", SITE)
        file = table.get(handle, SITE)
        table.fwrite(file, b"out")
        table.fclose(handle, SITE)
        assert table.fs.read_file("/new") == b"out"

    def test_fclose_removes_handle(self, table):
        handle = table.fopen("/data", "r", SITE)
        table.fclose(handle, SITE)
        assert table.open_handle_count() == 0

    def test_stdio_on_closed_handle_traps(self, table):
        handle = table.fopen("/data", "r", SITE)
        table.fclose(handle, SITE)
        with pytest.raises(VMTrap) as info:
            table.get(handle, SITE)
        assert info.value.kind is TrapKind.INVALID_READ

    def test_stdio_on_null_traps(self, table):
        with pytest.raises(VMTrap) as info:
            table.get(0, SITE)
        assert info.value.kind is TrapKind.NULL_DEREF

    def test_descriptor_limit(self, fs):
        table = FDTable(fs, max_open=4)
        for _ in range(4):
            table.fopen("/data", "r", SITE)
        with pytest.raises(VMTrap) as info:
            table.fopen("/data", "r", SITE)
        assert info.value.kind is TrapKind.FD_EXHAUSTED

    def test_handles_are_not_memory_addresses(self, table):
        handle = table.fopen("/data", "r", SITE)
        assert table.is_handle(handle)


class TestReadSeek:
    def test_fread_advances(self, table):
        handle = table.fopen("/data", "r", SITE)
        file = table.get(handle, SITE)
        assert table.fread(file, 5) == b"hello"
        assert table.fread(file, 6) == b" world"

    def test_eof_flag(self, table):
        handle = table.fopen("/data", "r", SITE)
        file = table.get(handle, SITE)
        table.fread(file, 100)
        assert file.eof

    def test_fseek_set_cur_end(self, table):
        handle = table.fopen("/data", "r", SITE)
        file = table.get(handle, SITE)
        assert table.fseek(file, 6, 0) == 0
        assert table.fread(file, 5) == b"world"
        table.fseek(file, -5, 1)
        assert table.fread(file, 5) == b"world"
        table.fseek(file, -5, 2)
        assert table.fread(file, 5) == b"world"

    def test_fseek_invalid(self, table):
        handle = table.fopen("/data", "r", SITE)
        file = table.get(handle, SITE)
        assert table.fseek(file, -1, 0) == -1
        assert table.fseek(file, 0, 9) == -1

    def test_rewind_clears_eof(self, table):
        handle = table.fopen("/data", "r", SITE)
        file = table.get(handle, SITE)
        table.fread(file, 100)
        table.fseek(file, 0, 0)
        assert not file.eof
        assert file.position == 0

    def test_close_all(self, table):
        for _ in range(3):
            table.fopen("/data", "r", SITE)
        write_handle = table.fopen("/out", "w", SITE)
        table.fwrite(table.get(write_handle, SITE), b"flushed")
        assert table.close_all() == 4
        assert table.open_handle_count() == 0
        assert table.fs.read_file("/out") == b"flushed"

    def test_run_writes_shows_only_this_runs_writes(self, table):
        early = table.fopen("/early", "w", SITE)
        table.fwrite(table.get(early, SITE), b"before")
        closed = table.fopen("/closed", "w", SITE)
        table.fwrite(table.get(closed, SITE), b"old")
        table.fclose(closed, SITE)
        table.begin_run()
        assert table.run_writes == {}
        table.fwrite(table.get(early, SITE), b"+run")
        pending = table.fopen("/pending", "w", SITE)
        table.fwrite(table.get(pending, SITE), b"new")
        reader = table.fopen("/data", "r", SITE)
        table.fwrite(table.get(reader, SITE), b"ignored")
        assert table.run_writes == {"/early": b"+run", "/pending": b"new"}
        # Unflushed writes count; closing flushes them unchanged.
        assert table.fs.read_file("/pending") is None
        table.close_all()
        assert table.run_writes == {"/early": b"+run", "/pending": b"new"}
        assert table.fs.read_file("/early") == b"before+run"
        assert table.fs.read_file("/data") == b"hello world"
