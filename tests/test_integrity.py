"""Tests for the state-integrity sentinel (:mod:`repro.integrity`).

Covers: structural state digests (determinism, pickling, per-dimension
sensitivity), the restore oracle's detect -> targeted-repair loop for
every silent sabotage site, shadow differential detection of semantic
divergence with ground-truth quarantine, escalation through the
supervised ladder when in-place repair cannot heal the process, the
``analysis.contradiction`` path when a leak lands in a proven-clean
dimension, the golden chaos campaign whose coverage stays bit-identical
to an uninjected run, and the sentinel-disabled regression guard that
proves the sabotage sites really do corrupt results when nobody is
watching.
"""

import json
import pickle

import pytest

from repro.analysis.pollution import (
    DIMENSIONS,
    DimensionFinding,
    PollutionReport,
)
from repro.chaos import FaultInjector, FaultPlan, FaultSite, FaultSpec
from repro.execution import ClosureXExecutor, SupervisedExecutor
from repro.fuzzing.coverage import VirginMap, coverage_signature
from repro.integrity import (
    EscalationPolicy,
    IntegritySentinel,
    RestoreOracle,
    compute_digest,
)
from repro.minic import compile_c
from repro.passes import PassManager, closurex_passes
from repro.runtime.harness import ClosureXHarness, HarnessConfig
from repro.sim_os import Kernel
from repro.telemetry import TelemetryConfig, build_telemetry

#: Pollutes every dimension each exec: bumps a restored global, leaks a
#: heap chunk (``scratch``) and a FILE handle (``g``).  With a working
#: restore the return code is always ``counter + 1 == 1``.
SOURCE_LEAKY = r"""
int counter;

int main(int argc, char **argv) {
    char *f = fopen(argv[1], "r");
    if (!f) { exit(1); }
    char buf[16];
    long n = fread(buf, 1, 16, f);
    if (n < 1) { exit(2); }
    counter++;
    char *scratch = (char*)malloc(32);
    scratch[0] = buf[0];
    char *g = fopen(argv[1], "r");
    if (buf[0] == 'X') {
        int *p = NULL;
        *p = 1;
    }
    fclose(f);
    return counter;
}
"""

#: Semantic pollution the digest is structurally blind to: the target
#: mutates the *contents* of an init-phase heap chunk, flipping later
#: executions onto a path no fresh process would take.  Only the shadow
#: differ catches this.
SOURCE_STICKY = r"""
char *state;

void setup() {
    state = (char*)malloc(4);
    state[0] = 0;
}

int main(int argc, char **argv) {
    char *f = fopen(argv[1], "r");
    if (!f) { exit(1); }
    char buf[8];
    long n = fread(buf, 1, 8, f);
    fclose(f);
    if (state[0] == 7) { return 42; }
    if (n > 0) {
        if (buf[0] == 'P') { state[0] = 7; }
    }
    return 1;
}
"""

#: SOURCE_STICKY variants whose pollution never reaches the return
#: code or the coverage map: they always return 1 and only print the
#: sticky byte, or write it to a file.  A poisoned persistent process
#: prints 7 (or writes ``\x07``) where a fresh one prints 0.
_STICKY_QUIET = r"""
char *state;

void setup() {
    state = (char*)malloc(4);
    state[0] = 0;
}

int main(int argc, char **argv) {
    char *f = fopen(argv[1], "r");
    if (!f) { exit(1); }
    char buf[8];
    long n = fread(buf, 1, 8, f);
    fclose(f);
    %s
    if (n > 0) {
        if (buf[0] == 'P') { state[0] = 7; }
    }
    return 1;
}
"""
SOURCE_STICKY_PRINT = _STICKY_QUIET % "print_int(state[0]);"
SOURCE_STICKY_WRITE = _STICKY_QUIET % (
    'char *out = fopen("/tmp/out", "w"); '
    "fwrite(state, 1, 1, out); fclose(out);"
)

#: Prints a constant and leaks a ``"w"`` handle with constant content
#: every exec.  Restore closes (and so flushes) the handle in the
#: persistent process; a fresh process still holds it open, with the
#: write pending until exit.
SOURCE_LEAKED_WRITER = r"""
int main(int argc, char **argv) {
    print_int(1);
    char *out = fopen("/tmp/out", "w");
    fwrite("ok", 1, 2, out);
    return 1;
}
"""

#: Writes ``/tmp/log`` only on inputs starting with ``L``.  The file
#: stays on the executor's disk afterwards, as it would on a real one;
#: a fresh replay of a later input starts from an empty disk.
SOURCE_LOG_ON_L = r"""
int main(int argc, char **argv) {
    char *f = fopen(argv[1], "r");
    if (!f) { exit(1); }
    char buf[8];
    long n = fread(buf, 1, 8, f);
    fclose(f);
    if (n > 0) {
        if (buf[0] == 'L') {
            char *log = fopen("/tmp/log", "w");
            fwrite(buf, 1, 1, log);
            fclose(log);
        }
    }
    return 1;
}
"""

#: Deferred init opens a ``"w"`` handle that every exec appends to.
#: Restore only rewinds init-phase handles, so the persistent process
#: holds one more exec's writes per iteration; each exec still writes
#: exactly what a fresh process's one exec writes.
SOURCE_INIT_WRITER = r"""
char *trace;

void setup() {
    trace = fopen("/tmp/trace", "w");
    fwrite("hdr", 1, 3, trace);
}

int main(int argc, char **argv) {
    fwrite("x", 1, 1, trace);
    return 1;
}
"""

#: Owns one init-phase heap chunk that ``main`` never touches — the
#: escalation test frees it behind the chunk map's back, a corruption
#: no targeted sweep can repair.
SOURCE_INIT = r"""
char *cache;

void setup() {
    cache = (char*)malloc(8);
    cache[0] = 1;
}

int main(int argc, char **argv) {
    char *f = fopen(argv[1], "r");
    if (!f) { exit(1); }
    char buf[8];
    long n = fread(buf, 1, 8, f);
    fclose(f);
    return (int)n;
}
"""

IMAGE = 500_000

STICKY_CONFIG = dict(deferred_init_functions=("setup",))


def _module(source, name):
    module = compile_c(source, name)
    PassManager(closurex_passes(11)).run(module)
    return module


def _booted_harness(source=SOURCE_LEAKY, name="digest-leaky", config=None,
                    faults=None):
    counters = {"faults": faults} if faults is not None else None
    harness = ClosureXHarness(
        _module(source, name), config=config, vm_counters=counters
    )
    harness.boot()
    return harness


def _supervised(source, name, *, plan=None, policy=None, config=None,
                telemetry=None, bundle_path=None):
    """Sentinel-guarded ClosureX executor under the supervised ladder —
    the full production stack the acceptance criteria describe."""
    kernel = Kernel()
    sentinel = IntegritySentinel(
        policy if policy is not None
        else EscalationPolicy(digest_every=1, shadow_every=0),
        bundle_path=bundle_path,
    )
    inner = ClosureXExecutor(
        _module(source, name), IMAGE, kernel, config=config, sentinel=sentinel
    )
    injector = (
        FaultInjector(plan, clock=kernel.clock) if plan is not None else None
    )
    executor = SupervisedExecutor(inner, injector=injector)
    if telemetry is not None:
        executor.attach_telemetry(telemetry)
    executor.boot()
    return executor, sentinel, inner


class TestStateDigest:
    def test_digest_is_deterministic(self):
        harness = _booted_harness()
        first = compute_digest(harness)
        second = compute_digest(harness)
        assert first == second
        assert hash(first) == hash(second)
        assert first.diff(second) == ()

    def test_digest_identical_across_processes(self):
        a = compute_digest(_booted_harness(name="proc-a"))
        b = compute_digest(_booted_harness(name="proc-b"))
        assert a == b

    def test_digest_pickle_round_trip(self):
        digest = compute_digest(_booted_harness())
        clone = pickle.loads(pickle.dumps(digest))
        assert clone == digest
        assert hash(clone) == hash(digest)
        for dimension in DIMENSIONS:
            assert clone.value(dimension) == digest.value(dimension)

    def test_unrestored_run_perturbs_tracked_dimensions(self):
        harness = _booted_harness()
        oracle = RestoreOracle()
        oracle.capture_baseline(harness)
        harness.run_test_case(b"hello", restore=False)
        verdict = oracle.check(harness)
        assert not verdict.clean
        for dimension in ("heap", "file", "global"):
            assert dimension in verdict.leaked_dimensions

    def test_restored_run_matches_baseline(self):
        """The paper's correctness claim, checked digest-for-digest:
        after fine-grain restoration every dimension equals pristine."""
        harness = _booted_harness()
        oracle = RestoreOracle()
        oracle.capture_baseline(harness)
        for data in (b"hello", b"world", b"longer-input-here"):
            harness.run_test_case(data)
            assert oracle.check(harness).clean

    def test_digest_and_baseline_costs_are_charged(self):
        harness = _booted_harness()
        oracle = RestoreOracle()
        assert oracle.capture_baseline(harness) > 0
        assert oracle.check(harness).cost_ns > 0


class TestRestoreOracle:
    """Harness-level detect -> targeted repair for every sabotage site."""

    CASES = [
        (FaultSite.SKIP_HEAP_SWEEP, ("heap",)),
        (FaultSite.LEAK_FD, ("file",)),
        (FaultSite.DIRTY_GLOBAL_BYTE, ("global",)),
        (FaultSite.SKIP_CTX_REWIND, ("exit",)),
    ]

    @pytest.mark.parametrize(
        "site,expected", CASES, ids=[s.value for s, _ in CASES]
    )
    def test_detects_and_repairs_each_dimension(self, site, expected):
        injector = FaultInjector(FaultPlan([FaultSpec(site, 0)]))
        harness = _booted_harness(name=f"oracle-{site.value}", faults=injector)
        oracle = RestoreOracle()
        oracle.capture_baseline(harness)
        harness.run_test_case(b"hello")  # restore silently sabotaged
        verdict = oracle.check(harness)
        assert not verdict.clean
        for dimension in expected:
            assert dimension in verdict.leaked_dimensions
        assert harness.repair_dimensions(verdict.leaked_dimensions) > 0
        assert oracle.check(harness).clean


class TestSentinelHealing:
    """Executor-level: silent sabotage detected within one exec and
    healed in place, campaign results untouched."""

    @pytest.mark.parametrize(
        "site,expected",
        TestRestoreOracle.CASES,
        ids=[s.value for s, _ in TestRestoreOracle.CASES],
    )
    def test_heals_silent_sabotage_within_one_exec(self, site, expected):
        plan = FaultPlan([FaultSpec(site, 1)])
        executor, sentinel, inner = _supervised(
            SOURCE_LEAKY, f"heal-{site.value}", plan=plan
        )
        rcs = [
            executor.run(bytes([97 + i]) + b"-input").return_code
            for i in range(4)
        ]
        assert rcs == [1, 1, 1, 1]
        stats = sentinel.stats
        assert stats.leaks == 1
        assert stats.repairs >= 1
        assert stats.escalations == 0
        assert inner.stats.respawns == 0
        event = sentinel.ledger.events[0]
        assert event.repaired and not event.escalated
        # Occurrence 1 sabotages the second exec's restore; the leak is
        # attributed to exactly that exec, not discovered later.
        assert event.exec_index == 2
        for dimension in expected:
            assert dimension in event.dimensions

    def test_counters_surface_in_telemetry(self):
        telemetry = build_telemetry(
            TelemetryConfig(enabled=True, sink="memory")
        )
        plan = FaultPlan([FaultSpec(FaultSite.SKIP_HEAP_SWEEP, 1)])
        executor, sentinel, _ = _supervised(
            SOURCE_LEAKY, "heal-metrics", plan=plan, telemetry=telemetry
        )
        for i in range(3):
            executor.run(bytes([97 + i]) + b"-input")
        metrics = telemetry.metrics
        assert metrics.counter("integrity.baselines").value >= 1
        assert metrics.counter("integrity.checks").value >= 3
        assert metrics.counter("integrity.leaks").value == 1
        assert metrics.counter("integrity.leak.heap").value == 1
        assert metrics.counter("integrity.repairs").value == 1
        assert sentinel.stats.overhead_ns > 0

    def test_diagnostic_bundle_is_written(self, tmp_path):
        bundle = str(tmp_path / "integrity.jsonl")
        plan = FaultPlan([FaultSpec(FaultSite.LEAK_FD, 0)])
        executor, _, _ = _supervised(
            SOURCE_LEAKY, "heal-bundle", plan=plan, bundle_path=bundle
        )
        executor.run(b"hello")
        with open(bundle) as handle:
            lines = [json.loads(line) for line in handle]
        assert len(lines) == 1
        assert lines[0]["source"] == "oracle"
        assert lines[0]["dimensions"] == ["file"]
        assert lines[0]["repaired"] is True


class TestShadowDiffer:
    def test_semantic_divergence_detected_and_quarantined(self):
        policy = EscalationPolicy(digest_every=1, shadow_every=1)
        executor, sentinel, inner = _supervised(
            SOURCE_STICKY, "shadow-sticky", policy=policy,
            config=HarnessConfig(**STICKY_CONFIG),
        )
        # The poison input behaves identically in persistent and fresh
        # processes (it *sets* the sticky bit on both), so it passes.
        assert executor.run(b"Poison").return_code == 1
        # The next input would answer 42 in the poisoned persistent
        # process; fresh-process ground truth is 1.  The digest cannot
        # see init-chunk contents — only the shadow catches this.
        result = executor.run(b"after")
        assert result.return_code == 1
        assert sentinel.stats.divergences == 1
        assert sentinel.stats.escalations == 1
        assert inner.stats.respawns == 1
        assert len(sentinel.ledger.quarantine) == 1
        shadow_event = next(
            e for e in sentinel.ledger.events if e.source == "shadow"
        )
        assert shadow_event.escalated and not shadow_event.repaired
        # Re-running the quarantined input replays ground truth instead
        # of re-polluting the process.
        assert executor.run(b"after").return_code == 1
        assert sentinel.stats.quarantine_hits >= 1
        # The respawned process serves untainted inputs correctly.
        assert executor.run(b"calm").return_code == 1


class TestShadowComparesOutputAndFiles:
    @pytest.mark.parametrize("source, mismatch", [
        (SOURCE_STICKY_PRINT, "program output differs"),
        (SOURCE_STICKY_WRITE, "filesystem contents differ"),
    ], ids=["output", "files"])
    def test_pollution_seen_only_in_output_or_files_diverges(
        self, source, mismatch,
    ):
        policy = EscalationPolicy(digest_every=1, shadow_every=1)
        executor, sentinel, inner = _supervised(
            source, "shadow-quiet", policy=policy,
            config=HarnessConfig(**STICKY_CONFIG),
        )
        assert executor.run(b"Poison").return_code == 1
        assert executor.run(b"after").return_code == 1
        assert sentinel.stats.divergences == 1
        assert inner.stats.respawns == 1
        assert len(sentinel.ledger.quarantine) == 1
        shadow_event = next(
            e for e in sentinel.ledger.events if e.source == "shadow"
        )
        assert shadow_event.escalated
        assert shadow_event.detail.endswith(mismatch)
        # The respawned process prints and writes what a fresh one does.
        assert executor.run(b"calm").return_code == 1
        assert sentinel.stats.divergences == 1

    def test_constant_output_and_leaked_writer_do_not_diverge(self):
        policy = EscalationPolicy(digest_every=1, shadow_every=1)
        executor, sentinel, _ = _supervised(
            SOURCE_LEAKED_WRITER, "leaked-writer", policy=policy,
        )
        for data in (b"one", b"two", b"three"):
            assert executor.run(data).return_code == 1
        assert sentinel.stats.shadow_runs == 3
        assert sentinel.stats.divergences == 0

    @pytest.mark.parametrize("source, config", [
        (SOURCE_LOG_ON_L, None),
        (SOURCE_INIT_WRITER, HarnessConfig(**STICKY_CONFIG)),
    ], ids=["file-from-earlier-exec", "init-phase-writer"])
    def test_files_written_by_earlier_execs_do_not_diverge(
        self, source, config,
    ):
        policy = EscalationPolicy(digest_every=1, shadow_every=1)
        executor, sentinel, inner = _supervised(
            source, "history-writer", policy=policy, config=config,
        )
        for data in (b"L", b"after", b"calm", b"Later", b"quiet"):
            assert executor.run(data).return_code == 1
        assert sentinel.stats.shadow_runs == 5
        assert sentinel.stats.divergences == 0
        assert inner.stats.respawns == 0


class TestEscalation:
    def test_unrepairable_corruption_escalates_to_respawn(self):
        executor, sentinel, inner = _supervised(
            SOURCE_INIT, "escalate-init",
            config=HarnessConfig(**STICKY_CONFIG),
        )
        assert executor.run(b"abc").return_code == 3
        # Corrupt the process behind the chunk map's back: free an
        # init-phase chunk directly.  No targeted sweep can resurrect
        # it, so in-place repair must fail and escalate.
        harness = inner.harness
        address = next(
            a for a, c in harness.chunk_map._chunks.items() if c.init
        )
        harness.vm.heap.free(address, harness.vm.site)
        result = executor.run(b"abcd")
        # The supervised ladder voided the corrupted attempt, respawned
        # the process, and the retry produced the correct answer.
        assert result.return_code == 4
        assert sentinel.stats.repair_failures == 1
        assert sentinel.stats.escalations == 1
        assert inner.stats.respawns == 1
        assert executor.supervision.recovered_by_site.get("restore") == 1
        event = next(e for e in sentinel.ledger.events if e.escalated)
        assert "heap" in event.dimensions
        # The fresh process is clean again; no further leaks.
        assert executor.run(b"ab").return_code == 2
        assert sentinel.stats.leaks == 1


class TestContradiction:
    def test_leak_in_proven_clean_dimension_is_a_contradiction(self):
        # A fabricated pollution proof claims the (actually leaky) heap
        # dimension is clean, so restore_state elides the heap sweep —
        # modelling a wrong static analysis, the one failure a
        # correctness-critical system must surface loudly.
        findings = {
            d: DimensionFinding(d, dirty=(d != "heap")) for d in DIMENSIONS
        }
        report = PollutionReport("leaky", "main", findings=findings)
        telemetry = build_telemetry(
            TelemetryConfig(enabled=True, sink="memory")
        )
        executor, sentinel, _ = _supervised(
            SOURCE_LEAKY, "contradict",
            config=HarnessConfig(pollution=report), telemetry=telemetry,
        )
        rcs = [
            executor.run(data).return_code
            for data in (b"one", b"two", b"three")
        ]
        # The sentinel repairs what the wrong proof skipped: results
        # stay correct even though the analysis lied every exec.
        assert rcs == [1, 1, 1]
        assert sentinel.stats.leaks == 3
        assert sentinel.stats.contradictions == 3
        assert all(
            e.contradictions == ("heap",) for e in sentinel.ledger.events
        )
        assert all(e.repaired for e in sentinel.ledger.events)
        assert telemetry.metrics.counter("analysis.contradiction").value == 3
        assert "contradiction" in sentinel.ledger.events[0].detail


class TestGoldenCampaign:
    """Acceptance criterion: a sabotaged-but-guarded run is
    observationally identical to an unsabotaged one."""

    def _inputs(self):
        return [bytes([ord("a") + (i % 13)]) + b"-seed" for i in range(12)]

    def _coverage_run(self, plan=None, with_sentinel=False):
        kernel = Kernel()
        sentinel = (
            IntegritySentinel(EscalationPolicy(digest_every=1, shadow_every=0))
            if with_sentinel else None
        )
        inner = ClosureXExecutor(
            _module(SOURCE_LEAKY, "golden"), IMAGE, kernel, sentinel=sentinel
        )
        injector = (
            FaultInjector(plan, clock=kernel.clock)
            if plan is not None else None
        )
        executor = SupervisedExecutor(inner, injector=injector)
        executor.boot()
        virgin = VirginMap()
        outcomes = []
        for data in self._inputs():
            result = executor.run(data)
            signature = coverage_signature(result.coverage)
            virgin.observe(signature)
            outcomes.append((result.status, result.return_code, signature))
        executor.shutdown()
        return outcomes, virgin.to_bytes(), sentinel

    def test_sabotaged_run_matches_clean_run_bit_for_bit(self):
        clean_outcomes, clean_virgin, _ = self._coverage_run()
        plan = FaultPlan([
            FaultSpec(FaultSite.SKIP_HEAP_SWEEP, 2),
            FaultSpec(FaultSite.LEAK_FD, 5),
            FaultSpec(FaultSite.DIRTY_GLOBAL_BYTE, 9),
        ])
        outcomes, virgin, sentinel = self._coverage_run(
            plan=plan, with_sentinel=True
        )
        assert outcomes == clean_outcomes
        assert virgin == clean_virgin
        assert sentinel.stats.leaks == 3
        assert all(e.repaired for e in sentinel.ledger.events)
        # Every sabotage is caught at the very exec whose restore it
        # corrupted (occurrence N sabotages exec N+1's restore).
        assert [e.exec_index for e in sentinel.ledger.events] == [3, 6, 10]


class TestSentinelDisabledRegression:
    """Without the sentinel the sabotage sites *do* corrupt campaign
    results — the regression guard that keeps the chaos sites honest."""

    PLAN = [FaultSpec(FaultSite.DIRTY_GLOBAL_BYTE, 0)]

    def test_sabotage_without_sentinel_corrupts_results(self):
        kernel = Kernel()
        inner = ClosureXExecutor(
            _module(SOURCE_LEAKY, "unguarded"), IMAGE, kernel
        )
        inner.attach_faults(
            FaultInjector(FaultPlan(list(self.PLAN)), clock=kernel.clock)
        )
        inner.boot()
        rcs = [
            inner.run(data).return_code for data in (b"one", b"two", b"three")
        ]
        # The first exec's restore flipped a byte of the global section:
        # the second exec reports a counter no fresh process ever held.
        assert rcs[0] == 1 and rcs[2] == 1
        assert rcs[1] != 1

    def test_same_plan_with_sentinel_stays_correct(self):
        executor, sentinel, _ = _supervised(
            SOURCE_LEAKY, "guarded", plan=FaultPlan(list(self.PLAN))
        )
        rcs = [
            executor.run(data).return_code
            for data in (b"one", b"two", b"three")
        ]
        assert rcs == [1, 1, 1]
        assert sentinel.stats.leaks == 1
        assert sentinel.ledger.events[0].dimensions == ("global",)


class TestSentinelCheckpoint:
    def test_ledger_and_quarantine_travel_with_snapshot(self):
        policy = EscalationPolicy(digest_every=1, shadow_every=1)
        executor, sentinel, _ = _supervised(
            SOURCE_STICKY, "ckpt-sticky", policy=policy,
            config=HarnessConfig(**STICKY_CONFIG),
        )
        executor.run(b"Poison")
        executor.run(b"after")  # diverges -> quarantined with ground truth
        assert len(sentinel.ledger.quarantine) == 1
        state = executor.snapshot_state()

        executor2, sentinel2, _ = _supervised(
            SOURCE_STICKY, "ckpt-sticky-resumed", policy=policy,
            config=HarnessConfig(**STICKY_CONFIG),
        )
        executor2.restore_state(state)
        assert sentinel2.stats.divergences == 1
        assert len(sentinel2.ledger.quarantine) == 1
        assert len(sentinel2.ledger.events) == len(sentinel.ledger.events)
        # The resumed executor replays ground truth without re-running
        # the divergent input through its (clean) persistent process.
        hits_before = sentinel2.stats.quarantine_hits
        assert executor2.run(b"after").return_code == 1
        assert sentinel2.stats.quarantine_hits == hits_before + 1
