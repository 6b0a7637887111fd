"""Control-flow-equivalence checking (paper §6.1.4).

Records the exact path-sensitive edge trace of a test case in a fresh
process and compares it with the trace of the same test case executed
under ClosureX after 1000 (configurable) polluting iterations.

Inputs whose traces differ across repeated *fresh* runs are flagged as
naturally non-deterministic and excluded, exactly as the paper handles
freetype's PRNG-dependent paths.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.module import Module
from repro.runtime.harness import HarnessConfig
from repro.runtime.replay import first_divergence, replay


@dataclass
class ControlFlowReport:
    """Outcome of one control-flow-equivalence check."""

    equivalent: bool
    nondeterministic: bool       # excluded: fresh runs disagree with each other
    fresh_edges: int
    polluted_edges: int
    first_divergence: int | None = None

    def describe(self) -> str:
        if self.nondeterministic:
            return "EXCLUDED (naturally non-deterministic control flow)"
        if self.equivalent:
            return f"EQUIVALENT ({self.fresh_edges} edges)"
        return (
            f"DIVERGED at edge {self.first_divergence} "
            f"({self.fresh_edges} vs {self.polluted_edges} edges)"
        )


def check_controlflow_equivalence(
    module: Module,
    data: bytes,
    pollution: list[bytes],
    nondet_runs: int = 3,
    config: HarnessConfig | None = None,
) -> ControlFlowReport:
    """Full §6.1.4 control-flow check for one input."""
    traces = [replay(module, data, config=config, trace=True).edge_trace
              for _ in range(nondet_runs)]
    reference = traces[0]
    if any(t != reference for t in traces[1:]):
        return ControlFlowReport(
            equivalent=False,
            nondeterministic=True,
            fresh_edges=len(reference),
            polluted_edges=0,
        )
    observed = replay(module, data, config=config, pollution=pollution,
                      trace=True).edge_trace
    # Adaptive refinement: before declaring divergence, gather more
    # fresh traces — a rarely-taken non-deterministic path (PRNG cache
    # hit) may not have shown in the initial sample.
    nondeterministic = observed != reference and any(
        replay(module, data, config=config, trace=True).edge_trace != reference
        for _ in range(2 * nondet_runs + 4)
    )
    return ControlFlowReport(
        equivalent=observed == reference,
        nondeterministic=nondeterministic,
        fresh_edges=len(reference),
        polluted_edges=len(observed),
        first_divergence=(None if nondeterministic
                          else first_divergence(reference, observed)),
    )
