"""Pass framework: module/function passes and the pass manager.

Mirrors LLVM's ``opt`` discipline: passes are small, composable
transformations over a module; the manager runs them in order and
(optionally) verifies the module after each one.  Every pass reports
what it changed through a :class:`PassResult`, which the tests and the
Figure 3-5 experiments use to assert the transformations happened.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.ir.module import Function, Module
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


class FunctionPass(ModulePass):
    """Base class: transform one function at a time."""

    name = "<function-pass>"

    def run(self, module: Module) -> PassResult:
        result = PassResult(self.name)
        for function in list(module.defined_functions()):
            self.run_on_function(function, module, result)
        return result

    def run_on_function(self, function: Function, module: Module,
                        result: PassResult) -> None:
        raise NotImplementedError


class PassManager:
    """Runs a pipeline of passes over a module.

    An optional telemetry tracer receives one ``pass.run`` event per
    pass, carrying the wall-clock transform time (passes run at build
    time, outside any virtual clock) and the pass's rewrite counts.
    """

    def __init__(self, passes: list[ModulePass], verify_each: bool = True,
                 tracer: Tracer | None = None, strict_ssa: bool = True):
        self.passes = list(passes)
        self.verify_each = verify_each
        # Verify the SSA dominance invariant after every pass: passes
        # must never produce a def that fails to dominate a use.
        self.strict_ssa = strict_ssa
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
            if self.verify_each:
                verify_module(module, strict_ssa=self.strict_ssa)
        return self.results

    def result_for(self, pass_name: str) -> PassResult:
        for result in self.results:
            if result.pass_name == pass_name:
                return result
        raise KeyError(f"no result recorded for pass {pass_name!r}")
