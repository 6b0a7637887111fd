"""CoveragePass: SanCov-style edge-coverage instrumentation.

Both the AFL++ baseline and ClosureX builds use the *same* coverage
instrumentation, matching the paper's controlled comparison ("both use
the same hitcount-based edge coverage collection implementation,
loosely based on LLVM's Sanitizer Coverage Guards").

Each basic block gets a compile-time random location id; the injected
``__cov_guard(id)`` call performs the classic AFL update at run time::

    map[cur ^ prev]++;  prev = cur >> 1;

The id assignment is drawn from a seeded RNG, so builds are
reproducible; a registered target's builds all take
``TargetSpec.coverage_seed``, so their edge ids agree.
"""

from __future__ import annotations

import random

from repro.ir import cfg
from repro.ir.instructions import Call, Phi
from repro.ir.module import Module
from repro.ir.types import FunctionType, I32, VOID
from repro.ir.values import ConstantInt
from repro.ir.types import int_type
from repro.passes.base import ModulePass, PassResult
from repro.vm.interpreter import COV_GUARD, COVERAGE_MAP_SIZE


class CoveragePass(ModulePass):
    """Instrument every basic-block edge with an AFL-style
    hitcount-map update (not a Table 3 pass, but required by the fuzzer)."""

    name = "CoveragePass"

    def __init__(self, seed: int):
        self.seed = seed

    def run(self, module: Module) -> PassResult:
        result = PassResult(self.name)
        guard = module.declare_function(COV_GUARD, FunctionType(VOID, [I32]))
        rng = random.Random(self.seed)
        i32 = int_type(32)
        for function in module.defined_functions():
            if function.name == COV_GUARD:
                continue
            # Stats only — every block still gets a guard, in layout
            # order, so the seeded id sequence (and thus edge ids) stays
            # identical across builds that share a seed.
            reachable = cfg.reachable_blocks(function)
            for block in function.blocks:
                if block not in reachable:
                    result.details["unreachable_blocks"] = (
                        result.details.get("unreachable_blocks", 0) + 1
                    )
                if _already_instrumented(block, guard):
                    continue
                location = rng.randrange(COVERAGE_MAP_SIZE)
                call = Call(guard, [ConstantInt(i32, location)])
                index = _first_non_phi_index(block)
                block.insert(index, call)
                result.bump("blocks_instrumented")
        return result


def _first_non_phi_index(block) -> int:
    for i, inst in enumerate(block.instructions):
        if not isinstance(inst, Phi):
            return i
    return len(block.instructions)


def _already_instrumented(block, guard) -> bool:
    for inst in block.instructions:
        if isinstance(inst, Call) and inst.callee is guard:
            return True
    return False
