"""Self-tests of the benchmark; about three minutes of wall time::

    python3 -m pytest perfbench/test_perfbench.py -q

Trace safety: with the tracing wrappers on, every workload ends on the
same digest as without them (and as committed), and reports each
per-layer metric on the workloads where its layer runs.

Sensitivity: a delay injected into one layer moves the end-to-end
metric of the workload that exercises it past the benchmark's bound,
shows up in that layer's metric, and leaves a workload that barely
uses the layer within its bound.
"""

import json
import pathlib
import statistics
import subprocess
import sys
import time

import pytest

import spans
import workloads

HERE = pathlib.Path(__file__).resolve().parent
BOUNDS = {
    m["name"]: m["bound"]
    for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
}

COMMON = {
    "minic.compile_s", "passes.run_s", "opt.insts_per_exec", "vm.run_s",
    "vm.run_calls", "vm.insts", "vm.ns_per_inst", "vm.mem_ops", "vm.mem_s",
    "vm.libc_calls", "vm.libc_s", "execution.self_s", "fuzzing.loop_s",
    "fuzzing.observe_s", "fuzzing.observe_calls", "fuzzing.novel_frac",
    "fuzzing.signature_s", "fuzzing.havoc_s", "fuzzing.corpus_s",
    "fuzzing.adds_per_kexec",
}
RESTORE = {"runtime.restore_s", "runtime.restore_calls",
           "vm.reset_coverage_s"}
I2S = {"fuzzing.i2s_s", "fuzzing.i2s_execs", "fuzzing.i2s_finds_per_kexec"}
OPT = {"opt.optimize_s"}
FORK = {"vm.boot_calls", "vm.boot_s", "sim_os.forks", "sim_os.process_s"}
FLEET = {
    "execution.supervised_s", "parallel.round_self_s", "parallel.sync_s",
    "parallel.sync_accept_frac", "parallel.checkpoint_s",
    "parallel.checkpoints", "store.put_s", "store.puts", "store.dedup_frac",
    "store.atomic_write_s", "store.bytes_written",
}
# Layers that run (reported > 0) and layers that do not (exactly 0).
RUNS = {
    "md4c-opt": COMMON | RESTORE | OPT | FORK | {
        "runtime.respawns", "fuzzing.triage_s"},
    "giftext-i2s": COMMON | RESTORE | I2S,
    "zlib-fleet": COMMON | FORK | FLEET,
}
ABSENT = {
    "md4c-opt": I2S | FLEET,
    "giftext-i2s": OPT | FLEET,
    "zlib-fleet": RESTORE | I2S | OPT | {"runtime.respawns"},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_keeps_digests_and_reports_every_layer(name):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # Correct means the traced twin matched the untraced campaign and
    # the committed digest of seed 0.
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert "trace.overhead_frac" in metrics
    assert not [m for m in RUNS[name] if not metrics[m] > 0], metrics
    assert not [m for m in ABSENT[name] if metrics[m] != 0], metrics


# -- sensitivity -----------------------------------------------------------

# The injected delay adds about this share of the exercising workload's
# fuzzing wall time: enough to clear a 0.25 bound (the rate falls by
# 1 - 1/1.6 = 37.5%) while a workload that calls the layer a third as
# often per second stays inside it.
DELAY_SHARE = 0.6
PAIRS = 3


def _patch(cls, attr, wrapper):
    original = cls.__dict__[attr]
    setattr(cls, attr, wrapper(original))
    return lambda: setattr(cls, attr, original)


def _delayed(delay_ns):
    now = time.perf_counter_ns

    def wrapper(fn):
        def slow(*args, **kwargs):
            end = now() + delay_ns
            while now() < end:
                pass
            return fn(*args, **kwargs)
        return slow
    return wrapper


def _counted(counter):
    def wrapper(fn):
        def counting(*args, **kwargs):
            counter[0] += 1
            return fn(*args, **kwargs)
        return counting
    return wrapper


def _campaign(name, tracer=None):
    return workloads.run_campaign(
        workloads.WORKLOADS[name], workloads.campaign_seed(0, 0),
        time.monotonic_ns(), tracer=tracer,
    )


def _rate(result):
    return result["fuzz_execs"] / result["fuzz_wall_s"] * result["host_factor"]


def _delay_for(name, cls, attr):
    """Per-call delay that adds DELAY_SHARE of *name*'s fuzzing wall."""
    calls = [0]
    undo = _patch(cls, attr, _counted(calls))
    try:
        _campaign(name)
    finally:
        undo()
    plain = _campaign(name)
    return int(DELAY_SHARE * plain["fuzz_wall_s"] * 1e9 / calls[0])


def _slowdown(name, cls, attr, delay_ns):
    """Median rate drop of *name* with the delay, over interleaved
    pairs of plain and delayed campaigns."""
    plain, slow = [], []
    for _ in range(PAIRS):
        plain.append(_rate(_campaign(name)))
        undo = _patch(cls, attr, _delayed(delay_ns))
        try:
            slow.append(_rate(_campaign(name)))
        finally:
            undo()
    return 1 - statistics.median(slow) / statistics.median(plain)


def test_memory_delay_moves_md4c_and_its_layer_metric():
    from repro.vm.memory import AddressSpace

    delay = _delay_for("md4c-opt", AddressSpace, "read_int")
    assert _slowdown("md4c-opt", AddressSpace, "read_int", delay) \
        > BOUNDS["execs_per_s"]

    def mem_s(delay_ns):
        undo = _patch(AddressSpace, "read_int", _delayed(delay_ns))
        tracer = spans.install(spans.Tracer("sensitivity"))
        try:
            result = _campaign("md4c-opt", tracer)
        finally:
            tracer.uninstall()
            undo()
        result.update(setup=tracer.setup, fuzz=tracer.fuzz,
                      counts=tracer.fuzz_counts)
        return spans.layer_metrics([result])["vm.mem_s"]

    assert mem_s(delay) > 2 * mem_s(0)


def test_observe_delay_moves_giftext_but_not_md4c():
    from repro.fuzzing.coverage import VirginMap

    delay = _delay_for("giftext-i2s", VirginMap, "observe")
    assert _slowdown("giftext-i2s", VirginMap, "observe", delay) \
        > BOUNDS["execs_per_s"]
    assert _slowdown("md4c-opt", VirginMap, "observe", delay) \
        < BOUNDS["execs_per_s"]
