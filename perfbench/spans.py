"""Span tracing around the repo's layer boundaries, from outside.

:class:`Tracer` wraps public functions and methods of the layers —
``minic``, ``passes``, ``analysis.opt``, ``vm``, ``runtime``,
``sim_os``, ``execution``, ``fuzzing``, ``parallel`` and ``store`` —
without touching ``src/``.  A wrapped function is replaced in its
defining module and in every loaded module that imported it by name.

Each span records its id, its parent's id, its name, and its start and
end (``perf_counter_ns``).  Spans stay in memory and are written out,
with the run id they share, when the run ends.  A layer's self time is
its span minus its child spans.  The hottest boundaries (memory
accesses and libc natives, millions per run) are aggregated into
per-name totals instead of being kept as spans, but still count as
children of the span they run inside.
"""

from __future__ import annotations

import gzip
import importlib
import json
import os
import sys
import time


class Tracer:
    """Per-process span recorder with per-name self-time totals."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int]] = []
        # name -> [calls, self_ns, total_ns]
        self.totals: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []      # [name, span_id, start, child_ns]
        self._next_id = 1
        self._undo: list[tuple] = []
        self.setup: dict[str, list[int]] = {}
        self._setup_counts: dict[str, int] = {}
        self.fuzz: dict[str, list[int]] = {}
        self.fuzz_counts: dict[str, int] = {}
        self.fuzz_start_ns = 0

    # -- recording -----------------------------------------------------

    def wrap(self, name: str, fn, keep: bool = True):
        """*fn* timed as span *name*.  A call made while the innermost
        open span already has this name (recursion, ``read_int`` ->
        ``read``) belongs to that span and opens none.  With
        ``keep=False`` only the totals are updated."""
        stack = self._stack
        totals = self.totals.setdefault(name, [0, 0, 0])
        spans = self.spans
        now = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [name, span_id, now(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                totals[0] += 1
                totals[1] += duration - frame[3]
                totals[2] += duration
                if keep:
                    spans.append((span_id, stack[-1][1] if stack else 0,
                                  name, frame[2], end))

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def begin_fuzz(self) -> None:
        """Mark the end of set-up; layer totals from here on are the
        fuzzing phase's."""
        self.fuzz_start_ns = time.perf_counter_ns()
        self.setup = {k: list(v) for k, v in self.totals.items()}
        self._setup_counts = dict(self.counts)

    def end_fuzz(self) -> None:
        self.fuzz = {
            k: [a - b for a, b in zip(v, self.setup.get(k, (0, 0, 0)))]
            for k, v in self.totals.items()
        }
        self.fuzz_counts = {
            k: v - self._setup_counts.get(k, 0)
            for k, v in self.counts.items()
        }

    def write(self, path: str) -> None:
        """Write every span of the run as gzipped JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write(json.dumps({
                "run_id": self.run_id,
                "fuzz_start_ns": self.fuzz_start_ns,
                "fields": ["id", "parent", "name", "start_ns", "end_ns"],
            }) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    # -- patching ------------------------------------------------------

    def patch_function(self, module: str, attr: str, name: str,
                       keep: bool = True, outer=None) -> None:
        """Wrap ``module.attr`` everywhere it was imported by name."""
        original = getattr(importlib.import_module(module), attr)
        replacement = self.wrap(name, original, keep)
        if outer is not None:
            replacement = outer(replacement)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and getattr(mod, attr, None) is original):
                self._set(mod, attr, replacement)

    def patch_method(self, module: str, cls: str, attr: str, name: str,
                     keep: bool = True, outer=None) -> None:
        klass = getattr(importlib.import_module(module), cls)
        replacement = self.wrap(name, klass.__dict__[attr], keep)
        if outer is not None:
            replacement = outer(replacement)
        self._set(klass, attr, replacement)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back everything :func:`install` replaced."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the per-layer metrics read."""
    # Import every module the campaigns load, so that each by-name
    # import is patched here and put back by uninstall().
    for module in ("repro.targets", "repro.analysis.opt", "repro.parallel",
                   "repro.store", "repro.fuzzing"):
        importlib.import_module(module)
    from repro.fuzzing.coverage import VirginMap
    from repro.store.objects import object_digest
    from repro.vm import libc

    f, m = tracer.patch_function, tracer.patch_method
    f("repro.minic.codegen", "compile_c", "minic.compile")
    m("repro.passes.base", "PassManager", "run", "passes.run")
    f("repro.analysis.opt", "optimize_module", "opt.optimize")

    m("repro.vm.interpreter", "VM", "run_function", "vm.run")
    m("repro.vm.interpreter", "VM", "__init__", "vm.init")
    m("repro.vm.interpreter", "VM", "load", "vm.load")
    m("repro.vm.interpreter", "VM", "reset_coverage", "vm.reset_coverage")
    for attr in ("read", "write", "read_int", "write_int"):
        m("repro.vm.memory", "AddressSpace", attr, "vm.mem", keep=False)
    for native, fn in list(libc.NATIVES.items()):
        tracer._undo.append((libc.NATIVES, native, fn))
        libc.NATIVES[native] = tracer.wrap("vm.libc", fn, keep=False)

    m("repro.runtime.harness", "ClosureXHarness", "restore_state",
      "runtime.restore")
    m("repro.runtime.harness", "ClosureXHarness", "boot", "runtime.boot")
    m("repro.sim_os.kernel", "Kernel", "fork", "sim_os.fork")
    for attr in ("spawn", "reap"):
        m("repro.sim_os.kernel", "Kernel", attr, "sim_os.process")

    for module, cls in (("repro.execution.closurex", "ClosureXExecutor"),
                        ("repro.execution.forkserver", "ForkServerExecutor"),
                        ("repro.execution.fresh", "FreshProcessExecutor"),
                        ("repro.execution.persistent",
                         "NaivePersistentExecutor")):
        m(module, cls, "run", "execution.run")
    m("repro.execution.supervised", "SupervisedExecutor", "run",
      "execution.supervised")

    def count_novel(observe):
        def traced_observe(self, raw_map):
            verdict = observe(self, raw_map)
            if verdict != VirginMap.NO_NEW:
                tracer.count("fuzzing.novel")
            return verdict
        return traced_observe

    m("repro.fuzzing.coverage", "VirginMap", "observe", "fuzzing.observe",
      outer=count_novel)
    f("repro.fuzzing.coverage", "coverage_signature", "fuzzing.signature")
    for attr in ("mutate", "splice"):
        m("repro.fuzzing.mutators", "HavocMutator", attr, "fuzzing.havoc")
    m("repro.fuzzing.corpus", "Corpus", "add", "fuzzing.corpus_add")
    m("repro.fuzzing.corpus", "Corpus", "select_next", "fuzzing.corpus")
    m("repro.fuzzing.i2s", "I2SStage", "run_entry", "fuzzing.i2s")
    for attr in ("record", "record_hang"):
        m("repro.fuzzing.triage", "CrashTriage", attr, "fuzzing.triage")
    for attr in ("step_until", "import_input"):
        m("repro.fuzzing.campaign", "Campaign", attr, "fuzzing.loop")

    m("repro.parallel.worker", "WorkerRuntime", "run_round",
      "parallel.round")
    for attr in ("ingest", "drain"):
        m("repro.parallel.sync", "SyncHub", attr, "parallel.sync")
    m("repro.parallel.orchestrator", "ParallelCampaign", "checkpoint",
      "parallel.checkpoint")

    def count_dedup(put):
        def traced_put(self, data, owner=None):
            if os.path.exists(self.object_path(object_digest(data))):
                tracer.count("store.dedup")
            return put(self, data, owner)
        return traced_put

    def count_bytes(atomic_write):
        def traced_atomic_write(path, data, *args, **kwargs):
            tracer.count("store.bytes", len(data))
            return atomic_write(path, data, *args, **kwargs)
        return traced_atomic_write

    m("repro.store.objects", "CorpusStore", "put", "store.put",
      outer=count_dedup)
    m("repro.store.objects", "CorpusStore", "get", "store.get")
    f("repro.store.io", "atomic_write", "store.atomic_write",
      outer=count_bytes)
    return tracer


def layer_metrics(runs: list[dict]) -> dict[str, float]:
    """Per-layer metrics from the raw totals of traced campaigns.

    Times are seconds per campaign (mean over *runs*); ratios pool
    every campaign.  Set-up layers (``minic``, ``passes``, ``opt``)
    report their inclusive time during set-up; all other layers
    report self time during the fuzzing phase.
    """
    n = len(runs)

    def total(phase: str, *names: str, field: int = 1) -> float:
        return sum(run[phase].get(name, [0, 0, 0])[field]
                   for run in runs for name in names)

    def secs(*names: str) -> float:
        return total("fuzz", *names) / 1e9 / n

    def calls(*names: str) -> float:
        return total("fuzz", *names, field=0) / n

    def setup_s(name: str) -> float:
        return total("setup", name, field=2) / 1e9 / n

    def counted(name: str) -> int:
        return sum(run["counts"].get(name, 0) for run in runs)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    execs = sum(run["fuzz_execs"] for run in runs)
    insts = sum(run["insts"] for run in runs)
    observe_calls = total("fuzz", "fuzzing.observe", field=0)
    puts = total("fuzz", "store.put", field=0)
    i2s_execs = sum(run["i2s_execs"] for run in runs)
    return {
        "minic.compile_s": setup_s("minic.compile"),
        "passes.run_s": setup_s("passes.run"),
        "opt.optimize_s": setup_s("opt.optimize"),
        "opt.insts_per_exec": ratio(insts, execs),
        "vm.run_s": secs("vm.run"),
        "vm.run_calls": calls("vm.run"),
        "vm.insts": insts / n,
        "vm.ns_per_inst": ratio(total("fuzz", "vm.run"), insts),
        "vm.mem_ops": calls("vm.mem"),
        "vm.mem_s": secs("vm.mem"),
        "vm.libc_calls": calls("vm.libc"),
        "vm.libc_s": secs("vm.libc"),
        "vm.boot_calls": calls("vm.init"),
        "vm.boot_s": secs("vm.init", "vm.load"),
        "vm.reset_coverage_s": secs("vm.reset_coverage"),
        "runtime.restore_s": secs("runtime.restore"),
        "runtime.restore_calls": calls("runtime.restore"),
        "runtime.respawns": calls("runtime.boot"),
        "sim_os.forks": calls("sim_os.fork"),
        "sim_os.process_s": secs("sim_os.fork", "sim_os.process"),
        "execution.self_s": secs("execution.run"),
        "execution.supervised_s": secs("execution.supervised"),
        "fuzzing.loop_s": secs("fuzzing.loop"),
        "fuzzing.observe_s": secs("fuzzing.observe"),
        "fuzzing.observe_calls": observe_calls / n,
        "fuzzing.novel_frac": ratio(counted("fuzzing.novel"),
                                    observe_calls),
        "fuzzing.signature_s": secs("fuzzing.signature"),
        "fuzzing.havoc_s": secs("fuzzing.havoc"),
        "fuzzing.corpus_s": secs("fuzzing.corpus", "fuzzing.corpus_add"),
        "fuzzing.adds_per_kexec": ratio(
            1000 * total("fuzz", "fuzzing.corpus_add", field=0), execs),
        "fuzzing.i2s_s": secs("fuzzing.i2s"),
        "fuzzing.i2s_execs": i2s_execs / n,
        "fuzzing.i2s_finds_per_kexec": ratio(
            1000 * sum(run["i2s_finds"] for run in runs), i2s_execs),
        "fuzzing.triage_s": secs("fuzzing.triage"),
        "parallel.round_self_s": secs("parallel.round"),
        "parallel.sync_s": secs("parallel.sync"),
        "parallel.sync_accept_frac": ratio(
            sum(run["sync_accepted"] for run in runs),
            sum(run["sync_offered"] for run in runs)),
        "parallel.checkpoint_s": secs("parallel.checkpoint"),
        "parallel.checkpoints": calls("parallel.checkpoint"),
        "store.put_s": secs("store.put", "store.get"),
        "store.puts": puts / n,
        "store.dedup_frac": ratio(counted("store.dedup"), puts),
        "store.atomic_write_s": secs("store.atomic_write"),
        "store.bytes_written": counted("store.bytes") / n,
    }
