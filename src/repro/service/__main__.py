"""CLI for the fuzzing service: ``python -m repro.service <cmd>``.

Subcommands:

- ``serve``    — run a server over a state directory (the directory is
  the durability domain: journal, per-job checkpoints, and the
  advertised endpoint all live there, so a restart with the same
  ``--state-dir`` recovers every accepted job);
- ``submit``   — submit one job and print its id;
- ``status``   — one job's row, or the whole service view;
- ``watch``    — stream one job's live samples until it finishes;
- ``drain``    — graceful drain: finish the backlog, then stop;
- ``shutdown`` — fast clean stop (in-flight jobs resume next serve).

Clients find the server through ``<state-dir>/endpoint.json`` (written
by ``serve`` once bound), or explicitly via ``--host``/``--port``.  A
client that finds no server (no endpoint given or advertised, or none
listening there) prints one ``error:`` line and exits 2, as ``serve``
does, before it touches the state dir, given a ``--tenant-quota`` that
is not ``NAME=VIRTUAL_NS``, a ``--workers``, ``--max-queued``,
``--default-quota-ns``, ``--slice-ns`` or ``--checkpoint-every-slices``
below 1, or a ``--watchdog-s`` not above 0; an error the server reports
is ``error: {json}`` and exit status 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.chaos.plan import FaultPlan
from repro.service.protocol import ProtocolError, ServiceError, call_sync
from repro.service.recovery import read_endpoint
from repro.service.server import FuzzService, ServiceConfig, ServicePolicy


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--state-dir", default=None,
                        help="service state dir (reads endpoint.json)")
    parser.add_argument("--host", default=None)
    parser.add_argument("--port", type=int, default=None)


def _endpoint(args) -> tuple[str, int]:
    if args.host is not None and args.port is not None:
        return args.host, args.port
    if args.state_dir is None:
        raise ValueError(
            "need --state-dir (to read endpoint.json) or --host/--port"
        )
    return read_endpoint(args.state_dir)


def _parse_tenant_quotas(pairs: list[str]) -> dict[str, int]:
    """Each ``NAME=VIRTUAL_NS`` pair as a quota; a ValueError names the
    first pair that is not one."""
    quotas: dict[str, int] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        try:
            if not name:
                raise ValueError
            quotas[name] = int(value)
        except ValueError:
            raise ValueError(
                f"--tenant-quota wants NAME=VIRTUAL_NS, got {pair!r}"
            ) from None
    return quotas


def _cmd_serve(args) -> int:
    # Checked here, not in ServiceConfig: a library caller may run no
    # workers, to hold jobs queued; a server would never drain them.
    for flag in ("workers", "max_queued", "default_quota_ns", "slice_ns",
                 "checkpoint_every_slices"):
        if getattr(args, flag) < 1:
            return _error(f"--{flag.replace('_', '-')} must be >= 1, "
                          f"got {getattr(args, flag)}")
    # A watchdog that allows a slice no time quarantines every job; the
    # negated test refuses nan too.
    if not args.watchdog_s > 0:
        return _error(f"--watchdog-s must be > 0, got {args.watchdog_s}")
    try:
        tenant_quotas = _parse_tenant_quotas(args.tenant_quota)
    except ValueError as error:
        return _error(str(error))
    chaos_plan = None
    if args.chaos_faults:
        chaos_plan = FaultPlan.generate(
            args.chaos_seed, args.chaos_faults,
            sites=FaultPlan.SERVICE_SITES,
        )
    config = ServiceConfig(
        state_dir=args.state_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_queued=args.max_queued,
        default_quota_ns=args.default_quota_ns,
        tenant_quotas=tenant_quotas,
        chaos_plan=chaos_plan,
        trace_path=args.trace,
        policy=ServicePolicy(
            slice_ns=args.slice_ns,
            checkpoint_every_slices=args.checkpoint_every_slices,
            watchdog_s=args.watchdog_s,
            restart_step_limit=args.restart_step_limit,
            max_respawns=args.max_respawns,
        ),
    )
    service = FuzzService(config)

    async def _serve() -> None:
        task = asyncio.ensure_future(service.run())
        await service.started.wait()
        host, port = service.endpoint
        print(f"serving on {host}:{port} "
              f"(state: {args.state_dir}, "
              f"recovered: {service.recovered_jobs} jobs)", flush=True)
        await task

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _print(result: dict) -> None:
    print(json.dumps(result, indent=2, sort_keys=True))


def _error(message: str) -> int:
    """Report a server that cannot be reached, or a malformed or
    unusable ``serve`` option, as one ``error:`` line; the exit status
    is 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _call(args, method: str, params: dict | None = None,
          on_notification=None) -> int:
    try:
        host, port = _endpoint(args)
    except (OSError, ValueError, KeyError) as error:
        return _error(f"no service endpoint: {error}")
    try:
        result = call_sync(host, port, method, params, on_notification)
    except ServiceError as error:
        payload = error.to_wire()
        print(f"error: {json.dumps(payload, sort_keys=True)}",
              file=sys.stderr)
        return 1
    except (OSError, ProtocolError) as error:
        return _error(f"no service at {host}:{port}: {error}")
    _print(result)
    return 0


def _cmd_submit(args) -> int:
    return _call(args, "submit", {
        "tenant": args.tenant,
        "target": args.target,
        "budget_ns": args.budget_ns,
        "seed": args.seed,
        "mechanism": args.mechanism,
        "n_workers": args.n_workers,
        "supervised": not args.unsupervised,
        "chaos_faults": args.job_chaos_faults,
    })


def _cmd_status(args) -> int:
    params: dict = {}
    if args.job:
        params["job_id"] = args.job
    if args.tenant:
        params["tenant"] = args.tenant
    return _call(args, "status", params)


def _cmd_watch(args) -> int:
    def on_sample(method: str, params: dict) -> None:
        print(json.dumps(params, sort_keys=True), flush=True)
    return _call(args, "watch", {"job_id": args.job}, on_sample)


def _cmd_drain(args) -> int:
    return _call(args, "drain")


def _cmd_shutdown(args) -> int:
    return _call(args, "shutdown")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="fault-tolerant multi-tenant fuzzing service",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    serve = sub.add_parser("serve", help="run a server")
    serve.add_argument("--state-dir", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--max-queued", type=int, default=8)
    serve.add_argument("--default-quota-ns", type=int,
                       default=2_000_000_000)
    serve.add_argument("--tenant-quota", action="append", default=[],
                       metavar="NAME=VIRTUAL_NS")
    serve.add_argument("--slice-ns", type=int, default=2_000_000)
    serve.add_argument("--checkpoint-every-slices", type=int, default=2)
    serve.add_argument("--watchdog-s", type=float, default=30.0)
    serve.add_argument("--restart-step-limit", type=int, default=2)
    serve.add_argument("--max-respawns", type=int, default=1)
    serve.add_argument("--chaos-seed", type=int, default=0)
    serve.add_argument("--chaos-faults", type=int, default=0,
                       help="service-plane fault-plan length")
    serve.add_argument("--trace", default=None,
                       help="JSONL trace of service events")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser("submit", help="submit one job")
    _add_endpoint_args(submit)
    submit.add_argument("--tenant", required=True)
    submit.add_argument("--target", required=True)
    submit.add_argument("--budget-ns", type=int, required=True)
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--mechanism", default="closurex")
    submit.add_argument("--n-workers", type=int, default=1)
    submit.add_argument("--unsupervised", action="store_true")
    submit.add_argument("--job-chaos-faults", type=int, default=0,
                        help="per-job campaign-level fault plan")
    submit.set_defaults(func=_cmd_submit)

    status = sub.add_parser("status", help="job row / service view")
    _add_endpoint_args(status)
    status.add_argument("--job", default=None)
    status.add_argument("--tenant", default=None)
    status.set_defaults(func=_cmd_status)

    watch = sub.add_parser("watch", help="stream one job's samples")
    _add_endpoint_args(watch)
    watch.add_argument("--job", required=True)
    watch.set_defaults(func=_cmd_watch)

    drain = sub.add_parser("drain", help="graceful drain + stop")
    _add_endpoint_args(drain)
    drain.set_defaults(func=_cmd_drain)

    shutdown = sub.add_parser("shutdown", help="fast clean stop")
    _add_endpoint_args(shutdown)
    shutdown.set_defaults(func=_cmd_shutdown)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
