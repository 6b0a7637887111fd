"""Tests for the chaos plane and the self-healing supervisor.

Covers: deterministic fault plans, occurrence-indexed injection at the
kernel / pipe / libc sites, supervised recovery (retry, backoff,
respawn, wedge, shm, quarantine, degradation ladder), the Table 5
no-double-count invariant, and the acceptance-criteria campaign that
survives a non-trivial fault plan with results matching a fault-free
run.

``CHAOS_SEED`` (env) parameterises the seed-generated plan tests so the
CI chaos job can sweep distinct seeds over the same assertions.
"""

import os

import pytest

from repro.chaos import (
    FaultInjector,
    FaultPlan,
    FaultSite,
    FaultSpec,
    InjectedFault,
)
from repro.execution import (
    ClosureXExecutor,
    ForkServerExecutor,
    FreshProcessExecutor,
    SupervisedExecutor,
    supervised,
)
from repro.fuzzing import Campaign, CampaignConfig
from repro.fuzzing.coverage import coverage_signature
from repro.minic import compile_c
from repro.passes import PassManager, baseline_passes, closurex_passes
from repro.runtime.harness import IterationStatus
from repro.sim_os import Kernel
from repro.vm.errors import VMError

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

SOURCE = r"""
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
    if (buf[0] == 'X') {
        int *p = NULL;
        *p = 1;
    }
    if (buf[0] == 'H') {
        while (1) { counter++; }
    }
    fclose(f);
    free(scratch);
    return counter;
}
"""

IMAGE = 500_000


def _module(kind="baseline"):
    module = compile_c(SOURCE, "chaos-test")
    pipeline = {
        "baseline": baseline_passes,
        "closurex": closurex_passes,
    }[kind]
    PassManager(pipeline(11)).run(module)
    return module


def _supervised_forkserver(plan=None):
    kernel = Kernel()
    inner = ForkServerExecutor(_module(), IMAGE, kernel)
    injector = FaultInjector(plan, clock=kernel.clock) if plan else None
    executor = SupervisedExecutor(inner, injector=injector)
    executor.boot()
    return executor


class TestFaultPlan:
    def test_generate_is_deterministic(self):
        a = FaultPlan.generate(CHAOS_SEED, 12)
        b = FaultPlan.generate(CHAOS_SEED, 12)
        assert a.specs == b.specs
        assert len(a) == 12

    def test_generate_draws_distinct_pairs(self):
        plan = FaultPlan.generate(CHAOS_SEED, 20)
        pairs = {(s.site, s.occurrence) for s in plan.specs}
        assert len(pairs) == 20

    def test_different_seeds_differ(self):
        assert (
            FaultPlan.generate(1, 10).specs != FaultPlan.generate(2, 10).specs
        )

    def test_restore_excluded_by_default(self):
        plan = FaultPlan.generate(CHAOS_SEED, 30)
        assert all(s.site is not FaultSite.RESTORE for s in plan.specs)


class TestFaultInjector:
    def test_fires_at_exact_occurrence(self):
        plan = FaultPlan([FaultSpec(FaultSite.MALLOC, 2)])
        injector = FaultInjector(plan)
        assert injector.poll("malloc") is None
        assert injector.poll("malloc") is None
        fault = injector.poll("malloc")
        assert isinstance(fault, InjectedFault)
        assert fault.site == "malloc"
        assert fault.detail == "ENOMEM"
        # One-shot: the spec is consumed.
        assert injector.poll("malloc") is None
        assert injector.fired_count == 1
        assert injector.pending_count == 0

    def test_sites_count_independently(self):
        plan = FaultPlan([FaultSpec(FaultSite.FORK, 0)])
        injector = FaultInjector(plan)
        assert injector.poll("spawn") is None
        assert injector.poll("fork") is not None

    def test_fault_is_not_target_behaviour(self):
        # The supervisor's classification hinges on this: injected
        # faults must never be mistaken for VM traps.
        assert not issubclass(InjectedFault, VMError)

    def test_records_stamp_virtual_time(self):
        kernel = Kernel()
        plan = FaultPlan([FaultSpec(FaultSite.SPAWN, 0)])
        injector = FaultInjector(plan, clock=kernel.clock)
        kernel.clock.advance(1234)
        injector.poll("spawn")
        assert injector.fired[0].at_ns == 1234

    def test_state_roundtrip(self):
        plan = FaultPlan([FaultSpec(FaultSite.PIPE, 1)])
        injector = FaultInjector(plan)
        injector.poll("pipe")
        state = injector.snapshot_state()
        injector.poll("pipe")          # fires
        injector.restore_state(state)  # rewind: armed again
        assert injector.pending_count == 1
        assert injector.poll("pipe") is not None


class TestKernelInjection:
    def test_spawn_fault_raises_and_burns_time(self):
        plan = FaultPlan([FaultSpec(FaultSite.SPAWN, 0)])
        kernel = Kernel()
        kernel.faults = FaultInjector(plan)
        with pytest.raises(InjectedFault):
            kernel.spawn("prog", 1_000_000)
        assert kernel.stats.failed_spawns == 1
        assert kernel.clock.now_ns > 0          # EAGAIN still costs time
        assert kernel.live_process_count() == 0
        # The transient clears: the next spawn succeeds.
        assert kernel.spawn("prog", 1_000_000).pid >= 1000

    def test_fork_fault_raises(self):
        plan = FaultPlan([FaultSpec(FaultSite.FORK, 0)])
        kernel = Kernel()
        kernel.faults = FaultInjector(plan)
        parent = kernel.spawn("prog", 1_000_000)
        with pytest.raises(InjectedFault):
            kernel.fork(parent, 1 << 20)
        assert kernel.stats.failed_forks == 1
        assert kernel.fork(parent, 1 << 20).parent_pid == parent.pid


class TestLibcInjection:
    def _fresh(self, plan):
        kernel = Kernel()
        executor = FreshProcessExecutor(_module(), IMAGE, kernel)
        executor.attach_faults(FaultInjector(plan, clock=kernel.clock))
        return executor

    @pytest.mark.parametrize("site", [
        FaultSite.MALLOC, FaultSite.FOPEN, FaultSite.FREAD,
    ])
    def test_libc_fault_escapes_as_infrastructure(self, site):
        executor = self._fresh(FaultPlan([FaultSpec(site, 0)]))
        with pytest.raises(InjectedFault) as exc:
            executor.run(b"hello")
        assert exc.value.site == site.value

    def test_unfaulted_run_unaffected(self):
        executor = self._fresh(FaultPlan([FaultSpec(FaultSite.MALLOC, 50)]))
        assert executor.run(b"hello").return_code == 1


class TestSupervisedRecovery:
    def test_boot_retries_spawn_fault(self):
        plan = FaultPlan([FaultSpec(FaultSite.SPAWN, 0)])
        executor = _supervised_forkserver(plan)
        assert executor.supervision.recoveries == 1
        assert executor.supervision.backoff_ns > 0
        assert executor.healthy()
        assert executor.run(b"hello").return_code == 1

    def test_pipe_drop_respawns_server_not_abort(self):
        # Handshake polls once at boot; each run polls once more.
        plan = FaultPlan([FaultSpec(FaultSite.PIPE, 2)])
        executor = _supervised_forkserver(plan)
        first = executor.run(b"hello")
        second = executor.run(b"hello")   # pipe collapses, server respawned
        assert first.return_code == second.return_code == 1
        assert executor.supervision.respawns == 1
        assert executor.supervision.recovered_by_site.get("pipe") == 1

    def test_fork_fault_mid_campaign_recovers(self):
        plan = FaultPlan([FaultSpec(FaultSite.FORK, 1)])
        executor = _supervised_forkserver(plan)
        executor.run(b"hello")
        result = executor.run(b"hello")
        assert result.return_code == 1
        assert executor.supervision.recovered_by_site.get("fork") == 1

    def test_wedge_is_killed_and_retried(self):
        plan = FaultPlan([FaultSpec(FaultSite.WEDGE, 0)])
        executor = _supervised_forkserver(plan)
        result = executor.run(b"hello")
        # The wedged attempt was voided; the retry ran to completion
        # under the normal instruction budget.
        assert result.status in (IterationStatus.OK, IterationStatus.EXIT)
        assert result.return_code == 1
        assert executor.supervision.recovered_by_site.get("wedge") == 1

    def test_shm_corruption_discards_attempt(self):
        clean = _supervised_forkserver(None)
        reference = coverage_signature(clean.run(b"hello").coverage)
        plan = FaultPlan([FaultSpec(FaultSite.SHM, 0)])
        executor = _supervised_forkserver(plan)
        result = executor.run(b"hello")
        assert coverage_signature(result.coverage) == reference
        assert executor.supervision.recovered_by_site.get("shm") == 1

    def test_scrambled_map_reads_dirty(self):
        """The scramble shows in the map's signature, so the test above
        would fail if the supervisor returned the scrambled attempt."""
        executor = _supervised_forkserver(None)
        result = executor.run(b"hello")
        clean = coverage_signature(result.coverage)
        executor._scramble_coverage(result.coverage)
        assert coverage_signature(result.coverage) != clean

    def test_no_double_count_regression(self):
        """Table 5 invariant: a retried execution is one logical exec."""
        plan = FaultPlan([
            FaultSpec(FaultSite.FORK, 1),
            FaultSpec(FaultSite.MALLOC, 2),
            FaultSpec(FaultSite.PIPE, 3),
        ])
        executor = _supervised_forkserver(plan)
        for _ in range(6):
            executor.run(b"hello")
        assert executor.supervision.recoveries == 3
        assert executor.stats.execs == 6
        # The wrapped executor really did pay for the voided attempts.
        assert executor.inner.stats.execs > 6 or \
            executor.inner.kernel.stats.failed_forks > 0

    def test_results_match_fault_free_run(self):
        """Acceptance: per-input results are identical to a fault-free
        executor for every input untouched by quarantine."""
        inputs = [b"hello", b"X boom", b"", b"abc", b"X again", b"zzzz"]
        plan = FaultPlan([
            FaultSpec(FaultSite.SPAWN, 1),
            FaultSpec(FaultSite.FORK, 2),
            FaultSpec(FaultSite.PIPE, 3),
            FaultSpec(FaultSite.MALLOC, 3),
            FaultSpec(FaultSite.WEDGE, 1),
            FaultSpec(FaultSite.SHM, 4),
        ])
        chaotic = _supervised_forkserver(plan)
        clean = _supervised_forkserver(None)
        for data in inputs:
            a = chaotic.run(data)
            b = clean.run(data)
            assert a.status == b.status, data
            assert a.return_code == b.return_code, data
            assert coverage_signature(a.coverage) == \
                coverage_signature(b.coverage), data
        assert chaotic.supervision.recoveries >= 4
        assert chaotic.supervision.quarantined_inputs == 0
        assert chaotic.stats.execs == clean.stats.execs == len(inputs)

    def test_genuine_hang_quarantine(self, monkeypatch):
        monkeypatch.setattr(supervised, "MAX_KILLS_PER_INPUT", 2)
        executor = _supervised_forkserver(None)
        executor.exec_instruction_limit = 20_000
        first = executor.run(b"Hang")
        assert first.is_hang
        second = executor.run(b"Hang")     # second kill -> quarantined
        assert executor.supervision.quarantined_inputs == 1
        third = executor.run(b"Hang")      # replayed, not executed
        assert third is second
        assert executor.supervision.quarantine_hits == 1
        # Unrelated inputs still execute normally.
        assert executor.run(b"hello").return_code == 1


class TestDegradationLadder:
    def _supervised_closurex(self, n_restore_faults):
        kernel = Kernel()
        inner = ClosureXExecutor(_module("closurex"), IMAGE, kernel)
        plan = FaultPlan([
            FaultSpec(FaultSite.RESTORE, i) for i in range(n_restore_faults)
        ])
        injector = FaultInjector(plan, clock=kernel.clock)
        executor = SupervisedExecutor(
            inner, injector=injector,
            fallback_factory=lambda: ForkServerExecutor(
                _module(), IMAGE, kernel
            ),
        )
        executor.boot()
        return executor

    def test_restore_faults_escalate_then_degrade(self, monkeypatch):
        monkeypatch.setattr(supervised, "RESTORE_ESCALATION_THRESHOLD", 2)
        monkeypatch.setattr(supervised, "DEGRADE_AFTER_ESCALATIONS", 2)
        executor = self._supervised_closurex(4)
        assert executor.mechanism == "closurex"
        result = executor.run(b"hello")
        assert result.return_code == 1
        assert executor.supervision.escalations == 2
        assert executor.supervision.degradations == 1
        assert executor.mechanism == "forkserver"
        # Degraded mode keeps serving correct results.
        assert executor.run(b"X boom").is_crash

    def test_below_threshold_restores_in_place(self, monkeypatch):
        monkeypatch.setattr(supervised, "RESTORE_ESCALATION_THRESHOLD", 3)
        executor = self._supervised_closurex(1)
        result = executor.run(b"hello")
        assert result.return_code == 1
        assert executor.supervision.escalations == 0
        assert executor.supervision.respawns == 0
        assert executor.mechanism == "closurex"


class TestChaosCampaign:
    def _campaign(self, plan, budget_ns=30_000_000, **config_kwargs):
        kernel = Kernel()
        inner = ForkServerExecutor(_module(), IMAGE, kernel)
        injector = (
            FaultInjector(plan, clock=kernel.clock) if plan else None
        )
        executor = SupervisedExecutor(inner, injector=injector)
        config = CampaignConfig(
            budget_ns=budget_ns, seed=CHAOS_SEED, **config_kwargs
        )
        return Campaign(executor, seeds=[b"hello", b"init"], config=config)

    def test_campaign_survives_nontrivial_fault_plan(self):
        """Acceptance: >=5 faults across spawn/fork/malloc/pipe/wedge;
        the campaign completes its virtual budget and reports the
        recoveries."""
        plan = FaultPlan([
            FaultSpec(FaultSite.SPAWN, 1),
            FaultSpec(FaultSite.FORK, 7),
            FaultSpec(FaultSite.MALLOC, 11),
            FaultSpec(FaultSite.PIPE, 5),
            FaultSpec(FaultSite.WEDGE, 3),
            FaultSpec(FaultSite.FREAD, 20),
        ])
        campaign = self._campaign(plan)
        result = campaign.run()
        injector = campaign.executor.injector
        assert injector.fired_count == len(plan)
        assert result.recoveries >= 5
        assert result.execs > 50
        # The budget was consumed, not aborted.
        assert result.elapsed_ns >= campaign.config.budget_ns
        assert result.unique_crashes == 0 or result.crash_reports

    def test_seeded_plan_campaign_completes(self):
        """CI chaos-matrix entry: a seed-generated plan (CHAOS_SEED env)
        never aborts the campaign."""
        plan = FaultPlan.generate(CHAOS_SEED, 10)
        campaign = self._campaign(plan)
        result = campaign.run()
        assert result.elapsed_ns >= campaign.config.budget_ns
        assert result.execs > 0

    def test_chaos_campaign_is_deterministic(self):
        plan = FaultPlan.generate(CHAOS_SEED, 8)
        first = self._campaign(plan).run()
        second = self._campaign(plan).run()
        assert first.execs == second.execs
        assert first.edges_found == second.edges_found
        assert first.recoveries == second.recoveries
        assert first.elapsed_ns == second.elapsed_ns

    def test_hang_budget_and_triage_routing(self):
        """Satellite: the per-test-case instruction budget comes from
        CampaignConfig and hang inputs land in their own dedup bucket."""
        campaign = self._campaign(
            None, budget_ns=20_000_000, exec_instruction_limit=20_000,
        )
        campaign.seeds = [b"hello", b"Hang1", b"Hang2"]
        result = campaign.run()
        assert campaign.executor.exec_instruction_limit == 20_000
        assert result.total_hangs >= 2
        # Both wedge in the same loop -> one deduplicated report.
        assert result.unique_hangs == 1
        assert result.hang_reports[0].occurrences >= 2
        # Hangs are not crashes.
        assert all(r.found_at_ns >= 0 for r in result.hang_reports)


class TestSupervisedStateRoundTrip:
    """Satellite: the backoff/quarantine ladder must survive a
    ``snapshot_state``/``restore_state`` round trip mid-ladder and
    replay bit-identically — attempt counters, degradation level, and
    the injector's fault schedule included.  The snapshot is pickled
    and unpickled to emulate the disk hop a checkpoint takes (the live
    snapshot shares mutable objects with the executor)."""

    INPUTS_PREFIX = [b"hello", b"X one", b""]
    INPUTS_SUFFIX = [b"abc", b"X two", b"zzzz", b"qqqq"]

    @staticmethod
    def _plan():
        return FaultPlan([
            FaultSpec(FaultSite.FORK, 1),      # fires in the prefix
            FaultSpec(FaultSite.WEDGE, 1),     # fires in the prefix
            FaultSpec(FaultSite.PIPE, 5),      # still armed at snapshot
            FaultSpec(FaultSite.MALLOC, 6),    # still armed at snapshot
        ])

    @staticmethod
    def _observe(executor, data):
        before_ns = executor.clock.now_ns
        result = executor.run(data)
        return (
            result.status,
            result.return_code,
            coverage_signature(result.coverage),
            executor.clock.now_ns - before_ns,   # virtual cost, backoff
        )                                        # charges included

    def test_mid_ladder_round_trip_replays_bit_identical(self):
        import pickle

        golden = _supervised_forkserver(self._plan())
        for data in self.INPUTS_PREFIX:
            golden.run(data)
        # Mid-ladder: recoveries already happened, faults still armed.
        assert golden.supervision.recoveries >= 2
        assert golden.injector.armed
        snapshot = pickle.loads(pickle.dumps(golden.snapshot_state()))

        golden_tail = [self._observe(golden, d) for d in self.INPUTS_SUFFIX]

        revived = _supervised_forkserver(self._plan())
        revived.restore_state(snapshot)
        revived_tail = [
            self._observe(revived, d) for d in self.INPUTS_SUFFIX
        ]

        # Same results, same virtual costs (backoff replay included).
        assert revived_tail == golden_tail
        # Same ladder state at the end: attempt counters, quarantine,
        # degradation, cumulative stats, and injector schedule.
        assert revived.supervision == golden.supervision
        assert revived._hang_kills == golden._hang_kills
        assert sorted(revived.quarantine) == sorted(golden.quarantine)
        assert revived._degraded == golden._degraded
        assert revived.stats.execs == golden.stats.execs
        assert revived.injector.counters == golden.injector.counters
        assert revived.injector.armed == golden.injector.armed

    def test_round_trip_preserves_quarantine_and_degradation(
        self, monkeypatch
    ):
        """Quarantine records and the degraded flag survive the disk
        hop: a quarantined input is replayed, not re-executed, after
        restore."""
        import pickle

        monkeypatch.setattr(supervised, "MAX_KILLS_PER_INPUT", 1)
        golden = _supervised_forkserver(None)
        golden.exec_instruction_limit = 20_000
        golden.run(b"Hang")                  # killed once -> quarantined
        assert golden.supervision.quarantined_inputs == 1

        snapshot = pickle.loads(pickle.dumps(golden.snapshot_state()))
        revived = _supervised_forkserver(None)
        revived.exec_instruction_limit = 20_000
        revived.restore_state(snapshot)

        replayed = revived.run(b"Hang")      # served from quarantine
        assert replayed.is_hang
        assert revived.supervision.quarantine_hits == 1
        assert revived.supervision.quarantined_inputs == 1
        assert revived.run(b"hello").return_code == 1

    def test_resumed_quarantine_keeps_hang_ids(self, tmp_path, monkeypatch):
        """A campaign checkpoint carries each quarantined hang's map with
        its cell list: after a resume, a quarantine hit names the hang
        the uninterrupted campaign named, not a new one."""
        monkeypatch.setattr(supervised, "MAX_KILLS_PER_INPUT", 1)
        config = CampaignConfig(budget_ns=20_000_000, seed=3,
                                exec_instruction_limit=20_000)

        def executor():
            inner = ForkServerExecutor(_module(), IMAGE, Kernel())
            return SupervisedExecutor(inner)

        golden = Campaign(executor(), [b"hello", b"Hang"], config)
        golden.start()                       # the 'Hang' seed is quarantined
        assert golden.executor.supervision.quarantined_inputs == 1
        path = golden.checkpoint(str(tmp_path / "q.ckpt"))
        resumed = Campaign.resume(path, executor(), config)
        resumed.start()

        for campaign in (golden, resumed):
            assert not campaign.import_input(b"Hang")   # a quarantine hit
            assert campaign.executor.supervision.quarantine_hits == 1
            assert campaign.triage.total_hangs == 2
        assert len(golden.triage.unique_hangs) == 1
        assert list(resumed.triage.unique_hangs) == \
            list(golden.triage.unique_hangs)
