#!/usr/bin/env python3
"""Campaign-as-a-service: an in-process tour of ``repro.service``.

Starts a fuzzing server, submits two jobs for two tenants over the
JSON-RPC wire protocol, streams one job's live samples, shows the
per-tenant quota accounting, and drains the server.  The same surface
is reachable out-of-process via ``python -m repro.service serve`` /
``submit`` / ``status`` / ``watch`` / ``drain``.

The punchline is the digest check at the end: a served job's result is
**bit-identical** to running the same campaign directly, because the
service plane (queues, retries, checkpoints, even ``kill -9``) is only
ever allowed to cost wall time — never virtual time.

Run:  python examples/fuzz_service.py
"""

import asyncio
import tempfile

from repro.execution import build_executor
from repro.fuzzing import Campaign, CampaignConfig
from repro.service import FuzzService, ServiceClient, ServiceConfig
from repro.sim_os import Kernel
from repro.targets import get_target

JOBS = [
    {"tenant": "team-red", "target": "md4c", "budget_ns": 8_000_000,
     "seed": 1},
    {"tenant": "team-blue", "target": "zlib", "budget_ns": 6_000_000,
     "seed": 2},
]


def direct_digest(target: str, seed: int, budget_ns: int) -> str:
    """The same job, run directly — the service must match this.  The
    executor comes from the builder every service job uses."""
    executor = build_executor(target, "closurex", Kernel(), supervised=True)
    campaign = Campaign(
        executor, get_target(target).seeds,
        CampaignConfig(budget_ns=budget_ns, seed=seed),
    )
    campaign.start()
    campaign.step_until(campaign.start_ns + budget_ns)
    campaign.finish_run()
    return campaign.state_digest()


async def main() -> None:
    state_dir = tempfile.mkdtemp(prefix="fuzz-service-")
    service = FuzzService(ServiceConfig(state_dir=state_dir, workers=2))
    server = asyncio.ensure_future(service.run())
    await service.started.wait()
    host, port = service.endpoint
    print(f"serving on {host}:{port} (state: {state_dir})")

    client = await ServiceClient.connect(host, port)
    job_ids = []
    for job in JOBS:
        accepted = await client.call("submit", job)
        job_ids.append(accepted["job_id"])
        print(f"accepted {accepted['job_id']} "
              f"({job['tenant']}: {job['target']}, "
              f"{job['budget_ns'] / 1e6:.0f}M vns)")

    # Stream the first job's live samples (AFL plot_data flavour).
    def on_sample(method: str, params: dict) -> None:
        print(f"  [{params['job_id']}] clock={params['clock_ns']:>10} "
              f"execs={params['execs']:>5} edges={params['edges']:>4} "
              f"corpus={params['corpus']:>3}")

    finals = [await client.call("watch", {"job_id": job_ids[0]},
                                on_sample)]
    finals.append(await client.call("watch", {"job_id": job_ids[1]}))

    print("\nper-tenant accounting (virtual ns):")
    for row in (await client.call("tenants", {}))["tenants"]:
        print(f"  {row['tenant']:<10} consumed={row['consumed_ns']:>10} "
              f"completed={row['completed']}")

    print("\nresult receipts vs direct runs:")
    for final, job in zip(finals, JOBS):
        reference = direct_digest(
            job["target"], job["seed"], job["budget_ns"]
        )
        verdict = "MATCH" if final["digest"] == reference else "DIVERGED"
        print(f"  {final['job_id']}: {final['digest'][:16]}… "
              f"execs={final['execs']} -> {verdict}")
        assert final["digest"] == reference

    drained = await client.call("drain")
    print(f"\ndrained: {drained['completed']} completed, "
          f"{drained['quarantined']} quarantined")
    await client.close()
    await server


if __name__ == "__main__":
    asyncio.run(main())
