"""Pass framework: the module pass base class and the pass manager.

Mirrors LLVM's ``opt`` discipline: passes are small, composable
transformations over a module; the manager runs them in order and
verifies the module, strict SSA included, after each one.  Every pass
reports what it changed through a :class:`PassResult`, which the tests
and the Figure 3-5 experiments use to assert the transformations
happened.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.telemetry.tracer import NULL_TRACER, Tracer


@dataclass
class PassResult:
    """What one pass did to one module."""

    pass_name: str
    changed: bool = False
    details: dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, amount: int = 1) -> None:
        self.details[key] = self.details.get(key, 0) + amount
        if amount:
            self.changed = True

    def __str__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"{self.pass_name}: {body or 'no changes'}"


class ModulePass:
    """Base class: transform a whole module."""

    name = "<module-pass>"

    def run(self, module: Module) -> PassResult:
        raise NotImplementedError


class PassManager:
    """Runs a pipeline of passes over a module.

    After every pass the module must verify, the SSA dominance
    invariant included: a pass must never produce a def that fails to
    dominate a use.  An optional telemetry tracer receives one
    ``pass.run`` event per pass, carrying the wall-clock transform time
    (passes run at build time, outside any virtual clock) and the
    pass's rewrite counts.
    """

    def __init__(self, passes: list[ModulePass], tracer: Tracer | None = None):
        self.passes = list(passes)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.results: list[PassResult] = []

    def run(self, module: Module) -> list[PassResult]:
        self.results = []
        for pass_ in self.passes:
            wall_start = time.perf_counter_ns()
            result = pass_.run(module)
            wall_ns = time.perf_counter_ns() - wall_start
            # Passes rewrite operands and move globals without moving a
            # function's cfg_epoch: drop code decoded before the pass.
            module.decoded = None
            self.results.append(result)
            if self.tracer.enabled:
                self.tracer.event(
                    "pass.run",
                    pass_name=result.pass_name,
                    module=module.name,
                    changed=result.changed,
                    wall_ns=wall_ns,
                    **{f"rewrites.{k}": v for k, v in result.details.items()},
                )
            verify_module(module, strict_ssa=True)
        return self.results

    def result_for(self, pass_name: str) -> PassResult:
        for result in self.results:
            if result.pass_name == pass_name:
                return result
        raise KeyError(f"no result recorded for pass {pass_name!r}")
