"""One executor builder for every campaign driver — the fuzzing CLI,
service jobs, platform trials, fleet shards and the paper tables — so
every mechanism runs behind one front-end, as the paper's comparison
requires.  Its keywords are exactly the knobs some driver varies."""

from __future__ import annotations

import functools

from repro.chaos.plan import FaultInjector, FaultPlan
from repro.execution.closurex import ClosureXExecutor
from repro.execution.common import Executor
from repro.execution.forkserver import ForkServerExecutor
from repro.execution.fresh import FreshProcessExecutor
from repro.execution.persistent import NaivePersistentExecutor
from repro.execution.supervised import SupervisedExecutor
from repro.sim_os.kernel import Kernel
from repro.targets import get_target

#: The paper's execution spectrum, by the names every CLI and spec uses.
MECHANISMS = ("closurex", "forkserver", "persistent", "fresh")


def build_executor(target_name: str, mechanism: str, kernel: Kernel,
                   optimize: bool = False, *, supervised: bool = False,
                   chaos_seed: int = 0, chaos_faults: int = 0,
                   sentinel_digest_every: int = 0,
                   sentinel_shadow_every: int = 0,
                   forkserver_fallback: bool = False) -> Executor:
    """Wrap the target's build for *mechanism* in an executor.

    The build is the one :class:`~repro.targets.framework.TargetSpec`
    shares with every executor of the process.  ``optimize`` takes the
    build run through the validated IR optimizer; a sentinel cadence
    arms an integrity sentinel on ClosureX; ``supervised`` adds the
    self-healing ladder with a ``chaos_faults``-long fault plan seeded
    by ``chaos_seed`` and, with ``forkserver_fallback``, a forkserver
    to degrade ClosureX to, built here on the first degrade.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    spec = get_target(target_name)
    image = spec.image_bytes
    if mechanism == "closurex":
        sentinel = None
        if sentinel_digest_every or sentinel_shadow_every:
            # Imported here: repro.integrity itself imports this package.
            from repro.integrity import EscalationPolicy, IntegritySentinel
            sentinel = IntegritySentinel(EscalationPolicy(
                digest_every=sentinel_digest_every,
                shadow_every=sentinel_shadow_every,
            ))
        executor: Executor = ClosureXExecutor(
            spec.build_closurex(optimize=optimize), image, kernel,
            sentinel=sentinel,
        )
    elif mechanism == "persistent":
        executor = NaivePersistentExecutor(
            spec.build_persistent(optimize=optimize), image, kernel
        )
    else:
        core = (ForkServerExecutor if mechanism == "forkserver"
                else FreshProcessExecutor)
        executor = core(spec.build_baseline(optimize=optimize), image, kernel)
    if not supervised:
        return executor
    injector = fallback = None
    if chaos_faults:
        injector = FaultInjector(
            FaultPlan.generate(chaos_seed, chaos_faults), clock=kernel.clock
        )
    if forkserver_fallback and mechanism == "closurex":
        fallback = functools.partial(build_executor, target_name,
                                     "forkserver", kernel, optimize)
    return SupervisedExecutor(executor, injector=injector,
                              fallback_factory=fallback)
