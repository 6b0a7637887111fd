"""The fuzzing service: admission, robustness ladder, crash recovery.

The centrepiece is the golden ``kill -9`` family: a server is hard-
killed mid-job and restarted, and every accepted job must complete with
a digest bit-identical to the uninterrupted run — under three
different service-plane chaos plans.  The invariant that makes this
testable at all: service faults cost wall time, never virtual time, so
a job's digest is a pure function of ``(target, mechanism, seed,
budget_ns)`` regardless of what the service suffered.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.chaos.plan import FaultPlan, FaultSite, FaultSpec
from repro.execution import SupervisedExecutor, build_executor
from repro.fuzzing import Campaign, CampaignConfig
from repro.parallel import ParallelCampaign, ParallelConfig
from repro.service import (
    FuzzService,
    JobRecord,
    JobScheduler,
    JobSpec,
    QuotaExceeded,
    QuotaLedger,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServicePolicy,
)
from repro.service.__main__ import main as service_main
from repro.service.protocol import decode_frame, encode_frame
from repro.service.recovery import JobJournal, read_endpoint
from repro.sim_os import Kernel
from repro.targets import get_target

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


# -- references ----------------------------------------------------------

def direct_digest(target: str, seed: int, budget_ns: int) -> str:
    """The uninterrupted, unserved reference digest for one job."""
    kernel = Kernel()
    executor = SupervisedExecutor(build_executor(target, "closurex", kernel))
    config = CampaignConfig(budget_ns=budget_ns, seed=seed)
    campaign = Campaign(executor, get_target(target).seeds, config)
    campaign.start()
    campaign.step_until(campaign.start_ns + budget_ns)
    campaign.finish_run()
    return campaign.state_digest()


@pytest.fixture(autouse=True)
def fast_ladder(monkeypatch):
    """Millisecond ladder backoff and reconcile passes for in-process
    servers (a served subprocess keeps the module's constants)."""
    monkeypatch.setattr("repro.service.worker_pool.BACKOFF_BASE_S", 0.001)
    monkeypatch.setattr("repro.service.worker_pool.BACKOFF_CAP_S", 0.01)
    monkeypatch.setattr("repro.service.server.RECONCILE_S", 0.05)


def fast_policy(**overrides) -> ServicePolicy:
    defaults = dict(slice_ns=1_000_000, checkpoint_every_slices=2)
    defaults.update(overrides)
    return ServicePolicy(**defaults)


async def start_service(state_dir, **config_overrides):
    config_kwargs = dict(
        state_dir=str(state_dir), workers=2, policy=fast_policy(),
    )
    config_kwargs.update(config_overrides)
    service = FuzzService(ServiceConfig(**config_kwargs))
    task = asyncio.ensure_future(service.run())
    await service.started.wait()
    return service, task


async def stop_service(service, task):
    service.request_stop()
    await task


async def submit_and_finish(client, params):
    """Submit one job and watch it to its terminal row."""
    accepted = await client.call("submit", params)
    return await client.call("watch", {"job_id": accepted["job_id"]})


# -- quota ledger units --------------------------------------------------

def test_ledger_two_phase_accounting():
    ledger = QuotaLedger(default_quota_ns=100)
    ledger.reserve("t", "j1", 60)
    account = ledger.account("t")
    assert account.reserved_ns == 60 and account.available_ns == 40
    ledger.charge("t", "j1", 25)
    assert account.consumed_ns == 25 and account.reserved_ns == 35
    # Monotone: a replayed slice re-reports an already-billed instant.
    ledger.charge("t", "j1", 25)
    ledger.charge("t", "j1", 10)
    assert account.consumed_ns == 25
    ledger.charge("t", "j1", 60)
    assert account.consumed_ns == 60 and account.reserved_ns == 0
    ledger.settle("t", "j1", 60)
    assert account.completed == 1 and account.available_ns == 40


def test_ledger_rejects_over_quota_and_counts():
    ledger = QuotaLedger(default_quota_ns=100, tenant_quotas={"vip": 1000})
    ledger.reserve("t", "j1", 80)
    with pytest.raises(QuotaExceeded) as info:
        ledger.reserve("t", "j2", 30)
    assert info.value.available_ns == 20
    assert ledger.account("t").rejected_quota == 1
    ledger.reserve("vip", "j3", 900)   # per-tenant override
    ledger.reserve("t", "j4", 20, force=True)  # replay bypasses the gate


def test_ledger_quarantine_refunds_reservation():
    ledger = QuotaLedger(default_quota_ns=100)
    ledger.reserve("t", "j1", 60)
    ledger.charge("t", "j1", 10)
    ledger.settle("t", "j1", 60, quarantined=True)
    account = ledger.account("t")
    assert account.quarantined == 1 and account.reserved_ns == 0
    assert account.available_ns == 90


# -- protocol / spec units -----------------------------------------------

def test_protocol_frame_round_trip():
    frame = {"id": 3, "method": "submit", "params": {"tenant": "t"}}
    assert decode_frame(encode_frame(frame).rstrip(b"\n")) == frame
    with pytest.raises(Exception):
        decode_frame(b"not json")
    with pytest.raises(Exception):
        decode_frame(b"[1,2]")


# -- the CLI client without a server --------------------------------------

CLIENT_COMMANDS = {
    "submit": ["submit", "--tenant", "t", "--target", "md4c",
               "--budget-ns", "1000"],
    "status": ["status"],
    "watch": ["watch", "--job", "job-0001"],
    "drain": ["drain"],
    "shutdown": ["shutdown"],
}


def _closed_port() -> int:
    """A localhost port nothing listens on (bound, then released)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("command", sorted(CLIENT_COMMANDS))
def test_client_without_a_service_is_one_error_line(command, tmp_path,
                                                    capsys):
    """No endpoint file, an endpoint naming a closed port, and no
    endpoint at all: each is one ``error:`` line and exit status 2,
    and the client creates nothing in the state dir it was given."""
    empty = tmp_path / "empty"
    empty.mkdir()
    stale = tmp_path / "stale"
    stale.mkdir()
    (stale / "endpoint.json").write_text(json.dumps(
        {"host": "127.0.0.1", "port": _closed_port()}))
    argv = CLIENT_COMMANDS[command]
    for where in (["--state-dir", str(empty)], ["--state-dir", str(stale)],
                  []):
        assert service_main(argv + where) == 2, where
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert list(empty.iterdir()) == []
    assert [p.name for p in stale.iterdir()] == ["endpoint.json"]


@pytest.mark.parametrize("pair", ["alice=lots", "alice", "=5", "alice="])
def test_serve_with_a_bad_tenant_quota_is_one_error_line(pair, tmp_path,
                                                         capsys):
    """A ``--tenant-quota`` that is not ``NAME=VIRTUAL_NS`` is one
    ``error:`` line naming it and exit status 2, before the server
    touches its state dir."""
    state = tmp_path / "svc"
    argv = ["serve", "--state-dir", str(state), "--tenant-quota", "bob=5",
            "--tenant-quota", pair]
    assert service_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert repr(pair) in lines[0]
    assert not state.exists()


def refused_serve(option, value, tmp_path, capsys) -> None:
    """``serve`` given *option* at *value* prints one ``error:`` line
    naming the option, exits 2, and leaves its state dir untouched."""
    state = tmp_path / "svc"
    assert service_main(["serve", "--state-dir", str(state),
                         option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert option in lines[0]
    assert not state.exists()


@pytest.mark.parametrize("option", [
    "--workers", "--max-queued", "--default-quota-ns", "--slice-ns",
    "--checkpoint-every-slices"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_serve_with_sizing_below_1_is_one_error_line(option, value, tmp_path,
                                                     capsys):
    """A server with no workers never drains, one with no queue raises,
    the quota ledger refuses a default quota below 1 ns, slices of 0 ns
    end every job unfuzzed, and a checkpoint every 0 slices quarantines
    every job: each is refused before the server touches its state
    dir."""
    refused_serve(option, value, tmp_path, capsys)


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_serve_with_a_watchdog_not_above_0_is_one_error_line(value, tmp_path,
                                                             capsys):
    """Every slice outlasts a watchdog of no time, which would
    quarantine every job: a ``--watchdog-s`` not above 0 is refused
    before the server touches its state dir."""
    refused_serve("--watchdog-s", value, tmp_path, capsys)


def test_client_reports_a_service_error_as_json(monkeypatch, capsys):
    def refuse(host, port, method, params, on_notification):
        raise ServiceError("QUOTA_EXCEEDED", "over quota")

    monkeypatch.setattr("repro.service.__main__.call_sync", refuse)
    argv = CLIENT_COMMANDS["submit"] + ["--host", "127.0.0.1", "--port", "1"]
    assert service_main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    assert json.loads(line[len("error: "):])["code"] == "QUOTA_EXCEEDED"


def test_job_spec_validation():
    good = JobSpec.from_params(
        {"tenant": "t", "target": "md4c", "budget_ns": 1000}
    )
    assert good.mechanism == "closurex" and good.to_wire()["tenant"] == "t"
    for params in (
        {"tenant": "t", "target": "md4c"},                    # missing
        {"tenant": "t", "target": "nope", "budget_ns": 1},    # target
        {"tenant": "", "target": "md4c", "budget_ns": 1},     # tenant
        {"tenant": "t", "target": "md4c", "budget_ns": 0},    # budget
        {"tenant": "t", "target": "md4c", "budget_ns": 1,
         "mechanism": "nope"},                                # mechanism
        {"tenant": "t", "target": "md4c", "budget_ns": 1,
         "bogus": 1},                                         # unknown
        {"tenant": "t", "target": "md4c", "budget_ns": 1,
         "sync_every_ns": 0},                                 # cadence
    ):
        with pytest.raises(ValueError):
            JobSpec.from_params(params)


def test_scheduler_id_sequence_survives_recovery():
    scheduler = JobScheduler(max_queued=4)
    assert scheduler.next_job_id() == "job-0001"
    scheduler.note_recovered_id("job-0007")
    assert scheduler.next_job_id() == "job-0008"


def test_journal_torn_tail_is_dropped(tmp_path):
    journal = JobJournal(str(tmp_path / "j.jsonl"))
    journal.append({"kind": "accepted", "job_id": "job-0001"})
    journal.append({"kind": "completed", "job_id": "job-0001"})
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "accepted", "job_id": "jo')  # torn
    records = journal.read()
    assert [r["kind"] for r in records] == ["accepted", "completed"]


# -- end-to-end over the wire --------------------------------------------

def test_service_end_to_end_digest_matches_direct(tmp_path):
    """A served job equals the same campaign run directly: same digest,
    and the stream carried real progress samples."""
    async def main():
        service, task = await start_service(tmp_path)
        client = await ServiceClient.connect(*service.endpoint)
        samples = []
        accepted = await client.call("submit", {
            "tenant": "acme", "target": "md4c", "budget_ns": 8_000_000,
            "seed": 5,
        })
        final = await client.call(
            "watch", {"job_id": accepted["job_id"]},
            lambda method, params: samples.append((method, params)),
        )
        stats = await client.call("stats", {"job_id": accepted["job_id"]})
        status = await client.call("status", {})
        await client.close()
        await stop_service(service, task)
        return final, samples, stats, status

    final, samples, stats, status = asyncio.run(main())
    assert final["state"] == "done"
    assert final["digest"] == direct_digest("md4c", 5, 8_000_000)
    assert samples and all(m == "job.sample" for m, _ in samples)
    assert samples[-1][1]["execs"] == final["execs"] > 0
    assert stats["fuzzer_stats"]["execs_done"] == final["execs"]
    assert stats["fuzzer_stats"]["paths_total"] > 0
    (tenant,) = status["tenants"]
    assert tenant["tenant"] == "acme"
    assert tenant["consumed_ns"] >= 8_000_000
    assert tenant["reserved_ns"] == 0 and tenant["completed"] == 1


def test_service_multi_tenant_accounting_and_quota_rejection(tmp_path):
    async def main():
        service, task = await start_service(
            tmp_path, default_quota_ns=10_000_000,
            tenant_quotas={"big": 50_000_000},
        )
        client = await ServiceClient.connect(*service.endpoint)
        ok = await client.call("submit", {
            "tenant": "small", "target": "md4c", "budget_ns": 8_000_000,
        })
        try:
            await client.call("submit", {
                "tenant": "small", "target": "md4c",
                "budget_ns": 8_000_000, "seed": 1,
            })
            rejection = None
        except ServiceError as error:
            rejection = error
        big = await client.call("submit", {
            "tenant": "big", "target": "md4c", "budget_ns": 20_000_000,
            "seed": 2,
        })
        await client.call("watch", {"job_id": ok["job_id"]})
        await client.call("watch", {"job_id": big["job_id"]})
        tenants = (await client.call("tenants", {}))["tenants"]
        await client.close()
        await stop_service(service, task)
        return rejection, tenants

    rejection, tenants = asyncio.run(main())
    assert rejection is not None and rejection.code == "QUOTA_EXCEEDED"
    assert rejection.retry_after_ms is not None
    by_tenant = {row["tenant"]: row for row in tenants}
    assert by_tenant["small"]["rejected_quota"] == 1
    assert by_tenant["small"]["completed"] == 1
    assert by_tenant["big"]["completed"] == 1
    assert by_tenant["big"]["quota_ns"] == 50_000_000


def test_service_queue_full_backpressure(tmp_path, monkeypatch):
    monkeypatch.setattr("repro.service.scheduler.RETRY_AFTER_MS", 123)

    async def main():
        # No workers: the first job sits in the queue, making the
        # bound deterministic rather than a race with completion.
        service, task = await start_service(tmp_path, workers=0,
                                            max_queued=1)
        client = await ServiceClient.connect(*service.endpoint)
        await client.call("submit", {
            "tenant": "t", "target": "md4c", "budget_ns": 6_000_000,
        })
        try:
            await client.call("submit", {
                "tenant": "t", "target": "md4c", "budget_ns": 6_000_000,
                "seed": 1,
            })
            rejection = None
        except ServiceError as error:
            rejection = error
        tenants = (await client.call("tenants", {}))["tenants"]
        await client.close()
        await stop_service(service, task)
        return rejection, tenants

    rejection, tenants = asyncio.run(main())
    assert rejection is not None and rejection.code == "QUEUE_FULL"
    assert rejection.retry_after_ms == 123
    assert tenants[0]["rejected_queue"] == 1


def test_service_rejects_unknown_method_job_and_draining(tmp_path):
    async def main():
        service, task = await start_service(tmp_path)
        client = await ServiceClient.connect(*service.endpoint)
        codes = []
        for method, params in (
            ("frobnicate", {}),
            ("status", {"job_id": "job-9999"}),
            ("submit", {"tenant": "t", "target": "nope", "budget_ns": 1}),
        ):
            try:
                await client.call(method, params)
            except ServiceError as error:
                codes.append(error.code)
        service.draining = True
        try:
            await client.call("submit", {
                "tenant": "t", "target": "md4c", "budget_ns": 1_000_000,
            })
        except ServiceError as error:
            codes.append(error.code)
        await client.close()
        await stop_service(service, task)
        return codes

    assert asyncio.run(main()) == [
        "UNKNOWN_METHOD", "UNKNOWN_JOB", "BAD_REQUEST", "DRAINING",
    ]


# -- the degradation ladder under chaos ----------------------------------

def _plan(*specs) -> FaultPlan:
    return FaultPlan(specs=[FaultSpec(site, occ) for site, occ in specs])


def test_worker_wedge_restart_step_preserves_digest(tmp_path):
    """Rung 1: a wedged slice is retried from the checkpoint and the
    job still lands on the clean digest."""
    async def main():
        service, task = await start_service(
            tmp_path,
            chaos_plan=_plan((FaultSite.WORKER_WEDGE, 1)),
        )
        client = await ServiceClient.connect(*service.endpoint)
        final = await submit_and_finish(client, {
            "tenant": "t", "target": "md4c", "budget_ns": 8_000_000,
            "seed": 5,
        })
        await client.close()
        await stop_service(service, task)
        return final

    final = asyncio.run(main())
    assert final["state"] == "done"
    assert final["strikes"] == 1 and final["step_restarts"] == 1
    assert final["digest"] == direct_digest("md4c", 5, 8_000_000)


def test_worker_wedge_escalates_to_respawn_then_completes(tmp_path):
    """Rung 2: strikes past the restart limit replace the worker; the
    job resumes on the fresh worker and still matches the clean run."""
    async def main():
        service, task = await start_service(
            tmp_path,
            workers=1,
            chaos_plan=_plan(
                (FaultSite.WORKER_WEDGE, 0),
                (FaultSite.WORKER_WEDGE, 1),
                (FaultSite.WORKER_WEDGE, 2),
            ),
            policy=fast_policy(restart_step_limit=2, max_respawns=1),
        )
        client = await ServiceClient.connect(*service.endpoint)
        final = await submit_and_finish(client, {
            "tenant": "t", "target": "md4c", "budget_ns": 8_000_000,
            "seed": 5,
        })
        respawns = service.pool.respawns
        await client.close()
        await stop_service(service, task)
        return final, respawns

    final, respawns = asyncio.run(main())
    assert final["state"] == "done"
    assert final["respawns"] == 1 and respawns == 1
    assert final["digest"] == direct_digest("md4c", 5, 8_000_000)


def test_worker_wedge_exhausts_ladder_into_quarantine(tmp_path):
    """Rung 3: a job that wedges on every attempt is quarantined and
    its unconsumed quota refunded."""
    async def main():
        service, task = await start_service(
            tmp_path,
            workers=1,
            chaos_plan=_plan(
                *[(FaultSite.WORKER_WEDGE, occ) for occ in range(8)]
            ),
            policy=fast_policy(restart_step_limit=1, max_respawns=1),
        )
        client = await ServiceClient.connect(*service.endpoint)
        final = await submit_and_finish(client, {
            "tenant": "t", "target": "md4c", "budget_ns": 8_000_000,
        })
        tenants = (await client.call("tenants", {}))["tenants"]
        await client.close()
        await stop_service(service, task)
        return final, tenants

    final, tenants = asyncio.run(main())
    assert final["state"] == "quarantined"
    assert final["quarantine_reason"] == "worker-wedge"
    assert tenants[0]["quarantined"] == 1
    assert tenants[0]["reserved_ns"] == 0
    assert tenants[0]["available_ns"] > 0


def test_queue_drop_is_healed_by_reconcile(tmp_path):
    """A dispatch eaten by the chaos plane is re-enqueued by the
    reconcile pass — the journal, not the queue, is authoritative."""
    async def main():
        service, task = await start_service(
            tmp_path,
            chaos_plan=_plan((FaultSite.JOB_QUEUE_DROP, 0)),
        )
        client = await ServiceClient.connect(*service.endpoint)
        final = await submit_and_finish(client, {
            "tenant": "t", "target": "md4c", "budget_ns": 6_000_000,
            "seed": 5,
        })
        drops = service.scheduler.queue_drops_recovered
        await client.close()
        await stop_service(service, task)
        return final, drops

    final, drops = asyncio.run(main())
    assert final["state"] == "done" and drops == 1
    assert final["digest"] == direct_digest("md4c", 5, 6_000_000)


def test_torn_checkpoint_falls_back_a_generation(tmp_path):
    """``ckpt-torn`` then a wedge: the reload must fall back past the
    torn generation (or restart from scratch) and still hit the clean
    digest."""
    async def main():
        service, task = await start_service(
            tmp_path,
            chaos_plan=_plan(
                (FaultSite.CKPT_TORN, 0),
                (FaultSite.WORKER_WEDGE, 2),
            ),
        )
        client = await ServiceClient.connect(*service.endpoint)
        final = await submit_and_finish(client, {
            "tenant": "t", "target": "md4c", "budget_ns": 10_000_000,
            "seed": 5,
        })
        await client.close()
        await stop_service(service, task)
        return final

    final = asyncio.run(main())
    assert final["state"] == "done" and final["strikes"] == 1
    assert final["digest"] == direct_digest("md4c", 5, 10_000_000)


def test_clock_overrun_bills_service_side_only(tmp_path):
    """``clock-overrun`` charges the tenant an extra slice but never
    perturbs the campaign's virtual timeline (digest unchanged)."""
    async def main():
        service, task = await start_service(
            tmp_path,
            chaos_plan=_plan((FaultSite.CLOCK_OVERRUN, 2)),
        )
        client = await ServiceClient.connect(*service.endpoint)
        final = await submit_and_finish(client, {
            "tenant": "t", "target": "md4c", "budget_ns": 8_000_000,
            "seed": 5,
        })
        tenants = (await client.call("tenants", {}))["tenants"]
        await client.close()
        await stop_service(service, task)
        return final, tenants

    final, tenants = asyncio.run(main())
    assert final["state"] == "done"
    assert final["overrun_ns"] == 1_000_000
    assert tenants[0]["overrun_ns"] == 1_000_000
    # Actual consumption = final virtual clock (may overshoot the
    # budget by a partial queue cycle) + the billed overrun slice.
    assert tenants[0]["consumed_ns"] >= 8_000_000 + 1_000_000
    assert final["digest"] == direct_digest("md4c", 5, 8_000_000)


# -- multi-worker jobs ---------------------------------------------------

def test_multi_worker_barrier_samples_count_hangs(tmp_path, monkeypatch):
    """Barrier samples sum the shards' hangs like every other counter."""
    from repro.parallel import RoundReport

    reports = [
        RoundReport(
            shard_id=shard, round_index=0, clock_ns=1_000_000, execs=10,
            edges_found=3, corpus_size=1, unique_crashes=1,
            total_crashes=1, unique_hangs=shard + 2, imported=0,
        )
        for shard in range(2)
    ]
    real_progress = ParallelCampaign.progress

    def progress_at_fake_barrier(fleet):
        fleet.reports = reports
        return real_progress(fleet)

    class Stopped(Exception):
        """Ends the attempt before the job completes."""

    def stop(fleet):
        raise Stopped

    monkeypatch.setattr(ParallelCampaign, "progress",
                        progress_at_fake_barrier)
    monkeypatch.setattr(ParallelCampaign, "finish_run", stop)
    service = FuzzService(ServiceConfig(state_dir=str(tmp_path)))
    job = JobRecord("job-0001", JobSpec(
        tenant="t", target="md4c", budget_ns=1_000_000, n_workers=2,
    ))
    with pytest.raises(Stopped):
        asyncio.run(service.pool._attempt(job))
    assert job.unique_hangs == 5
    assert job.samples[-1]["unique_hangs"] == 5


def test_multi_worker_job_journals_merged_counts(tmp_path):
    """A finished 2-worker job journals the fleet's merged counts — a
    crash two shards found counts once — not the last barrier's
    per-shard sums."""
    params = {"tenant": "t", "target": "md4c", "budget_ns": 4_000_000,
              "seed": 3, "n_workers": 2, "sync_every_ns": 2_000_000}

    async def main():
        service, task = await start_service(tmp_path)
        client = await ServiceClient.connect(*service.endpoint)
        final = await submit_and_finish(client, params)
        await client.close()
        await stop_service(service, task)
        return final

    final = asyncio.run(main())
    reference = ParallelCampaign(ParallelConfig(
        target="md4c", n_workers=2, seed=3, budget_ns=4_000_000,
        sync_every_ns=2_000_000,
    )).run()
    journal = JobJournal(os.path.join(str(tmp_path), "journal.jsonl"))
    (completed,) = [r for r in journal.read() if r["kind"] == "completed"]
    assert completed["digest"] == final["digest"] == reference.digest()
    assert (completed["execs"], completed["edges"],
            completed["unique_crashes"]) == (
        reference.total_execs, reference.merged_edges,
        reference.merged_unique_crashes,
    )
    assert final["unique_hangs"] == reference.merged_unique_hangs


def test_multi_worker_job_survives_abort_and_restart(tmp_path):
    """A fleet job aborted mid-run (its slice cancelled, nothing
    settled) resumes on a restarted server from its barrier checkpoint
    and completes with the uninterrupted fleet's digest."""
    params = {"tenant": "t", "target": "md4c", "budget_ns": 6_000_000,
              "seed": 3, "n_workers": 2, "sync_every_ns": 2_000_000}
    policy = fast_policy(checkpoint_every_slices=1)

    async def main():
        service, task = await start_service(tmp_path, policy=policy)
        client = await ServiceClient.connect(*service.endpoint)
        accepted = await client.call("submit", params)
        job = service.scheduler.jobs[accepted["job_id"]]
        while job.execs == 0:    # one barrier sampled and checkpointed
            await asyncio.sleep(0.01)
        await client.close()
        await stop_service(service, task)   # abort(), no drain
        assert not job.state.terminal

        revived, task2 = await start_service(tmp_path, policy=policy)
        assert revived.recovered_jobs == 1
        client2 = await ServiceClient.connect(*revived.endpoint)
        final = await client2.call("watch", {"job_id": accepted["job_id"]})
        await client2.close()
        await stop_service(revived, task2)
        return final

    final = asyncio.run(main())
    reference = ParallelCampaign(ParallelConfig(
        target="md4c", n_workers=2, seed=3, budget_ns=6_000_000,
        sync_every_ns=2_000_000,
    )).run()
    assert final["state"] == "done" and final["resumed"]
    assert final["digest"] == reference.digest()


# -- crash recovery ------------------------------------------------------

def test_in_process_crash_recovery_resumes_bit_identical(tmp_path):
    """Abandon a server mid-job (the in-process analogue of SIGKILL:
    workers cancelled between slices, nothing settled) and restart over
    the same state dir: every accepted job completes with the clean
    digest, and the second server reports them recovered."""
    async def main():
        service, task = await start_service(tmp_path, workers=2)
        client = await ServiceClient.connect(*service.endpoint)
        jobs = []
        for seed, budget in ((5, 40_000_000), (9, 30_000_000)):
            accepted = await client.call("submit", {
                "tenant": "t", "target": "md4c", "budget_ns": budget,
                "seed": seed,
            })
            jobs.append(accepted["job_id"])
        # Detect progress by inspecting the scheduler directly: an RPC
        # round trip is slow relative to worker slices and would let
        # the jobs run to completion before the "crash".
        while not any(
            job.execs > 0 for job in service.scheduler.jobs.values()
        ):
            await asyncio.sleep(0.01)
        await client.close()
        await stop_service(service, task)   # hard abort, no drain

        revived, task2 = await start_service(tmp_path, workers=2)
        assert revived.recovered_jobs == 2   # killed mid-flight
        client2 = await ServiceClient.connect(*revived.endpoint)
        finals = [
            await client2.call("watch", {"job_id": job_id})
            for job_id in jobs
        ]
        await client2.close()
        await stop_service(revived, task2)
        return finals

    finals = asyncio.run(main())
    assert [f["state"] for f in finals] == ["done", "done"]
    assert finals[0]["digest"] == direct_digest("md4c", 5, 40_000_000)
    assert finals[1]["digest"] == direct_digest("md4c", 9, 30_000_000)
    assert any(f["resumed"] for f in finals)


def test_terminal_jobs_survive_restart_without_rerun(tmp_path):
    """Completed rows (digest included) come back from the journal; the
    restarted server re-runs nothing and accounting is reconstructed."""
    async def main():
        service, task = await start_service(tmp_path)
        client = await ServiceClient.connect(*service.endpoint)
        final = await submit_and_finish(client, {
            "tenant": "t", "target": "md4c", "budget_ns": 6_000_000,
        })
        await client.close()
        await stop_service(service, task)

        revived, task2 = await start_service(tmp_path)
        client2 = await ServiceClient.connect(*revived.endpoint)
        row = await client2.call("status", {"job_id": final["job_id"]})
        tenants = (await client2.call("tenants", {}))["tenants"]
        recovered = revived.recovered_jobs
        await client2.close()
        await stop_service(revived, task2)
        return final, row, tenants, recovered

    final, row, tenants, recovered = asyncio.run(main())
    assert recovered == 0
    assert row["state"] == "done" and row["digest"] == final["digest"]
    assert tenants[0]["completed"] == 1 and tenants[0]["reserved_ns"] == 0


# -- the golden kill -9 family -------------------------------------------

SERVICE_JOBS = [
    {"tenant": "t1", "target": "md4c", "budget_ns": 30_000_000, "seed": 0},
    {"tenant": "t1", "target": "zlib", "budget_ns": 30_000_000,
     "seed": 7},
    {"tenant": "t2", "target": "md4c", "budget_ns": 25_000_000, "seed": 3},
]


def _serve(state_dir: str, chaos_seed: int | None = None,
           chaos_faults: int = 0) -> subprocess.Popen:
    cmd = [
        sys.executable, "-m", "repro.service", "serve",
        "--state-dir", state_dir, "--workers", "2",
        "--slice-ns", "1000000", "--checkpoint-every-slices", "2",
    ]
    if chaos_faults:
        cmd += ["--chaos-seed", str(chaos_seed),
                "--chaos-faults", str(chaos_faults)]
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.Popen(
        cmd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _wait_endpoint(state_dir: str, timeout_s: float = 60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            return read_endpoint(state_dir)
        except (FileNotFoundError, json.JSONDecodeError, KeyError):
            time.sleep(0.05)
    raise AssertionError("server never advertised an endpoint")


async def _drive_to_completion(host, port, job_ids, timeout_s=120.0):
    client = await ServiceClient.connect(host, port)
    try:
        deadline = time.monotonic() + timeout_s
        while True:
            rows = {}
            for job_id in job_ids:
                rows[job_id] = await client.call(
                    "status", {"job_id": job_id}
                )
            if all(
                row["state"] in ("done", "quarantined")
                for row in rows.values()
            ):
                return rows
            if time.monotonic() > deadline:
                raise AssertionError(f"jobs never finished: {rows}")
            await asyncio.sleep(0.1)
    finally:
        await client.close()


@pytest.mark.parametrize("chaos_seed", [101, 202, 303])
def test_kill9_recovery_is_bit_identical(tmp_path, chaos_seed):
    """The acceptance criterion: SIGKILL the serving process after
    acceptance, restart it over the same state dir, and every accepted
    job completes with a digest bit-identical to the uninterrupted
    (unserved) reference — under three different service-chaos plans."""
    golden = {
        f"job-{i:04d}": direct_digest(
            job["target"], job["seed"], job["budget_ns"]
        )
        for i, job in enumerate(SERVICE_JOBS, start=1)
    }
    state_dir = str(tmp_path / "state")
    server = _serve(state_dir, chaos_seed=chaos_seed, chaos_faults=6)
    try:
        host, port = _wait_endpoint(state_dir)

        async def submit_all():
            client = await ServiceClient.connect(host, port)
            try:
                ids = []
                for job in SERVICE_JOBS:
                    accepted = await client.call("submit", dict(job))
                    ids.append(accepted["job_id"])
                # Wait until some job is visibly mid-run, so the kill
                # lands in the middle of real work.
                while True:
                    status = await client.call("status", {})
                    if any(row["execs"] > 0 for row in status["jobs"]):
                        return ids
                    await asyncio.sleep(0.02)
            finally:
                await client.close()

        job_ids = asyncio.run(submit_all())
        assert sorted(job_ids) == sorted(golden)

        os.kill(server.pid, signal.SIGKILL)
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)

    # A stale endpoint file must not point the client at the corpse.
    os.unlink(os.path.join(state_dir, "endpoint.json"))
    server = _serve(state_dir, chaos_seed=chaos_seed, chaos_faults=6)
    try:
        host, port = _wait_endpoint(state_dir)
        rows = asyncio.run(_drive_to_completion(host, port, job_ids))
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=30)

    for job_id, row in rows.items():
        assert row["state"] == "done", row
        assert row["digest"] == golden[job_id], (
            f"{job_id} diverged after kill -9 + recovery"
        )
    # No accepted job was duplicated or invented by recovery.
    journal = JobJournal(os.path.join(state_dir, "journal.jsonl"))
    accepted = [r for r in journal.read() if r["kind"] == "accepted"]
    assert [r["job_id"] for r in accepted] == sorted(golden)
