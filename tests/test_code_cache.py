"""The code cache: generated code compiles once per checkout.

``repro.vm.interpreter._code`` turns the source of an instruction
form's closure factory or of a compiled function into a code object:
from the process's table, else from an entry of the ``generated/``
directory beside the interpreter's bytecode, else from ``compile()``,
which then writes the entry.  These tests point that directory at a
temporary one and let Python write bytecode, whatever the environment
says, and pin that a warm process compiles nothing and computes what a
cold one does, that a damaged entry is compiled again and rewritten,
never run, that writes follow ``sys.dont_write_bytecode``, survive a
cache that cannot be written and prune the oldest entries past the
cap, and that two threads missing one entry at once both get working
code.
"""

from __future__ import annotations

import marshal
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.execution import ClosureXExecutor
from repro.fuzzing import Campaign, CampaignConfig
from repro.runtime.replay import replay
from repro.sim_os import Kernel
from repro.targets import get_target
from repro.vm import interpreter
from tests.helpers import private

REPO = Path(__file__).resolve().parents[1]
SOURCE = "def make():\n    return 7\n"


def empty_tables(monkeypatch) -> None:
    """Drop the process's code objects and factories from here on, as a
    new process starts: the next ``_code`` of each source misses them.
    Factories made before keep their templates."""
    monkeypatch.setattr(interpreter, "_CODE", {})
    monkeypatch.setattr(interpreter, "_FORMS", {})
    monkeypatch.setattr(interpreter, "_TEMPLATES",
                        dict(interpreter._TEMPLATES))


def compile_calls(monkeypatch) -> list:
    """The filename of each ``compile()`` the interpreter calls from
    here on."""
    calls = []

    def counting(source, filename, mode):
        calls.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(interpreter, "compile", counting, raising=False)
    return calls


def listing(directory: Path) -> dict:
    """Each entry's name and its modification time."""
    return {path.name: path.stat().st_mtime_ns
            for path in directory.iterdir()}


@pytest.fixture
def cache(tmp_path, monkeypatch) -> Path:
    """An empty cache directory that is written to, and empty tables."""
    directory = tmp_path / "generated"
    monkeypatch.setattr(interpreter, "_CACHE_DIR", str(directory))
    monkeypatch.setattr(sys, "dont_write_bytecode", False)

    def no_fsync(fd):
        raise AssertionError("the code cache synced a file")

    monkeypatch.setattr(os, "fsync", no_fsync)
    empty_tables(monkeypatch)
    return directory


def fresh_code(monkeypatch, source: str = SOURCE):
    """``make()`` of *source* from ``_code`` as a new process gets it,
    and the ``compile()`` calls that took."""
    empty_tables(monkeypatch)
    calls = compile_calls(monkeypatch)
    namespace: dict = {}
    exec(interpreter._code(source, "<test>"), namespace)
    return namespace["make"](), calls


def test_a_warm_process_compiles_nothing_and_computes_the_same(
        cache, monkeypatch):
    """A private giftext build, its seeds' replays and a campaign, cold
    and then warm: the warm pass calls ``compile()`` zero times, writes
    no entry, and gives the same observations and campaign result."""
    spec = get_target("giftext")

    def observe():
        calls = compile_calls(monkeypatch)
        module = private(spec.build_closurex())
        observations = [replay(module, seed) for seed in spec.seeds]
        campaign = Campaign(
            ClosureXExecutor(module, spec.image_bytes, Kernel()), spec.seeds,
            CampaignConfig(budget_ns=8_000_000, seed=1))
        campaign.run()
        result = (observations, campaign.state_digest(), campaign.execs,
                  campaign.clock.now_ns)
        return result, calls

    cold, cold_calls = observe()
    assert "<instruction form>" in cold_calls
    assert "<compiled function>" in cold_calls
    written = listing(cache)
    assert len(written) == len(cold_calls)
    empty_tables(monkeypatch)
    warm, warm_calls = observe()
    assert warm_calls == []
    assert warm == cold
    assert listing(cache) == written


def damage(entry: bytes, how: str) -> bytes:
    if how == "truncated":
        return entry[:len(entry) // 2]
    if how == "header cut":
        return entry[:5]
    if how == "empty":
        return b""
    if how == "wrong magic":
        return bytes(4) + entry[4:]
    if how == "flipped payload byte":
        return entry[:-1] + bytes([entry[-1] ^ 1])
    if how == "garbage":
        return b"\x00not an entry\xff" * 64
    raise AssertionError(how)


@pytest.mark.parametrize("how", ["truncated", "header cut", "empty",
                                 "wrong magic", "flipped payload byte",
                                 "garbage"])
def test_a_damaged_entry_is_compiled_again_and_rewritten(how, cache,
                                                         monkeypatch):
    assert fresh_code(monkeypatch) == (7, ["<test>"])
    (path,) = cache.iterdir()
    entry = path.read_bytes()
    path.write_bytes(damage(entry, how))
    assert fresh_code(monkeypatch) == (7, ["<test>"])
    assert path.read_bytes() == entry
    assert fresh_code(monkeypatch) == (7, [])


def test_an_entry_of_another_source_never_runs(cache, monkeypatch):
    """An entry whose header and code check out but whose source is not
    the one asked for (here: another source's entry under this one's
    name) is compiled again and rewritten."""
    other = "def make():\n    return 8\n"
    assert fresh_code(monkeypatch, other) == (8, ["<test>"])
    (other_path,) = cache.iterdir()
    foreign = other_path.read_bytes()
    other_path.unlink()
    assert fresh_code(monkeypatch) == (7, ["<test>"])
    (path,) = cache.iterdir()
    entry = path.read_bytes()
    path.write_bytes(foreign)
    assert fresh_code(monkeypatch) == (7, ["<test>"])
    assert path.read_bytes() == entry


def test_an_entry_of_other_code_is_not_run_as_a_hit(cache, monkeypatch):
    """The payload is the marshalled code the header's checksum covers:
    a payload swapped for other code fails it."""
    assert fresh_code(monkeypatch) == (7, ["<test>"])
    (path,) = cache.iterdir()
    entry = path.read_bytes()
    payload = marshal.dumps(compile("def make():\n    return 8\n",
                                    "<test>", "exec"))
    head = len(entry) - len(marshal.dumps(compile(SOURCE, "<test>", "exec")))
    path.write_bytes(entry[:head] + payload)
    assert fresh_code(monkeypatch) == (7, ["<test>"])
    assert path.read_bytes() == entry


def test_nothing_is_written_without_bytecode(cache, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    assert fresh_code(monkeypatch) == (7, ["<test>"])
    assert fresh_code(monkeypatch) == (7, ["<test>"])
    assert not cache.exists()


def test_a_cache_path_that_is_a_file_is_tolerated(cache, monkeypatch):
    cache.write_bytes(b"a file")
    assert fresh_code(monkeypatch) == (7, ["<test>"])
    assert fresh_code(monkeypatch) == (7, ["<test>"])
    assert cache.read_bytes() == b"a file"


def test_the_cap_prunes_the_oldest_entries(cache, monkeypatch):
    """Past ``CODE_CACHE_ENTRIES`` entries, a write removes the oldest
    by modification time."""
    monkeypatch.setattr(interpreter, "CODE_CACHE_ENTRIES", 3)
    names = []
    for k in range(5):
        before = set(listing(cache)) if cache.exists() else set()
        assert fresh_code(monkeypatch, f"def make():\n    return {k}\n") \
            == (k, ["<test>"])
        (name,) = set(listing(cache)) - before
        os.utime(cache / name, ns=(k * 10**9, k * 10**9))
        names.append(name)
    assert sorted(listing(cache)) == sorted(names[2:])


def test_two_threads_missing_one_entry_both_get_working_code(cache,
                                                             monkeypatch):
    """Both threads miss the table and the cache (each is inside
    ``compile()`` when the other gets there) and write the entry: each
    gets working code, and the entry is whole."""
    both_missed = threading.Barrier(2, timeout=30)

    def meeting(source, filename, mode):
        both_missed.wait()
        return compile(source, filename, mode)

    monkeypatch.setattr(interpreter, "compile", meeting, raising=False)
    results = []

    def get():
        namespace: dict = {}
        exec(interpreter._code(SOURCE, "<test>"), namespace)
        results.append(namespace["make"]())

    threads = [threading.Thread(target=get) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [7, 7]
    assert len(list(cache.iterdir())) == 1
    assert fresh_code(monkeypatch) == (7, [])


def test_a_second_cli_run_loads_every_entry(tmp_path):
    """Two runs of the fuzzing CLI under one ``PYTHONPYCACHEPREFIX``:
    the first writes the cache, the second prints the same and adds or
    rewrites no entry."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"),
               PYTHONPYCACHEPREFIX=str(tmp_path / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    argv = [sys.executable, "-m", "repro.fuzzing", "--target", "giftext",
            "--budget-ms", "4"]

    def run():
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=600, env=env, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        return done.stdout

    first = run()
    (directory,) = (tmp_path / "pycache").rglob("generated")
    written = listing(directory)
    assert written
    assert run() == first
    assert listing(directory) == written
