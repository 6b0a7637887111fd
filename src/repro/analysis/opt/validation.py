"""Translation validation for the MiniIR optimizer.

Three machine checks gate every transform (no silent miscompiles):

1. **Verifier** — the strict-SSA structural verifier from
   :mod:`repro.ir.verifier` must still pass.
2. **Structural self-check** — every operand is defined inside the
   same function, no erased instruction still holds a use edge, use
   indices agree with operand slots, and phi incoming blocks are live
   blocks of the function.  This catches bookkeeping bugs (dangling
   uses, stale phi arms) that the verifier's value-level checks can
   miss.
3. **Differential replay** — the optimized module is re-executed on
   the seed corpus in a throwaway fresh process
   (:func:`repro.runtime.replay.replay`) and every observation must be
   bit-identical to the unoptimized baseline: status, return code,
   crash identity, coverage map, program output, and the files the run
   wrote.  On a mismatch, traced replays of the module before and
   after the transform name the first divergent edge.

A transform failing any check is rolled back from a
:class:`ModuleCheckpoint` and reported as rejected.
"""

from __future__ import annotations

from repro.ir.instructions import Instruction, Phi
from repro.ir.module import Module
from repro.ir.parser import parse_module
from repro.ir.printer import print_module
from repro.runtime.replay import Observation, first_divergence, replay

#: Pinned ``vm.boot_time`` for replays: ``time()`` is the VM's one
#: source of cross-process non-determinism (each VM normally observes a
#: fresh boot-sequence number), and a differential check needs both
#: sides of the diff to see the same clock.
REPLAY_BOOT_TIME = 1_700_000_000


def replay_mismatches(baseline: list[Observation], module: Module,
                      inputs: list[bytes], reference: str,
                      limit: int = 3) -> list[str]:
    """Replay *inputs* against *module* and diff each observation
    against the corresponding *baseline* entry; returns up to *limit*
    mismatch descriptions (empty list = bit-identical).

    *reference* is the printed text of the module the baseline
    describes.  Each description also names the first edge at which
    traced replays of the two modules part ways.  Those are
    :data:`TRACED_REPLAYS_PER_MISMATCH` more replays per mismatch, and
    every replay boots a VM, so a rejection advances the boot sequence
    that later VMs' ``time()`` reads.
    """
    errors: list[str] = []
    before: Module | None = None
    for i, (data, expected) in enumerate(zip(inputs, baseline)):
        got = replay(module, data, boot_time=REPLAY_BOOT_TIME)
        mismatch = expected.describe_mismatch(got)
        if mismatch is None:
            continue
        if before is None:
            before = parse_module(reference)
        errors.append(f"replay of input {i}: {mismatch}"
                      f"{_divergent_edge(before, module, data)}")
        if len(errors) >= limit:
            break
    return errors


#: Traced replays :func:`replay_mismatches` adds per mismatch: the
#: module before and after the transform.
TRACED_REPLAYS_PER_MISMATCH = 2


def _divergent_edge(before: Module, after: Module, data: bytes) -> str:
    traces = [replay(m, data, boot_time=REPLAY_BOOT_TIME, trace=True).edge_trace
              for m in (before, after)]
    index = first_divergence(*traces)
    if index is None:
        return ""
    edges = [f"@{trace[index][0]} map index {trace[index][1]}"
             if index < len(trace) else "end of trace" for trace in traces]
    return f"; first divergent edge #{index}: {edges[0]} != {edges[1]}"


# ---------------------------------------------------------------------------
# structural self-check
# ---------------------------------------------------------------------------


def structural_errors(module: Module, limit: int = 5) -> list[str]:
    """Def-use bookkeeping invariants the verifier does not cover.

    Checks, per defined function: instruction parent links point at a
    block of this function; instruction operands are attached
    instructions of the same function; no use edge is held by a
    detached (erased) instruction; every use's ``index`` names the
    operand slot that actually references the value; and phi incoming
    blocks are blocks of the function.
    """
    errors: list[str] = []
    for function in module.defined_functions():
        members: set[int] = set()
        block_ids = {id(b) for b in function.blocks}
        for block in function.blocks:
            for inst in block.instructions:
                members.add(id(inst))
        for block in function.blocks:
            where = f"@{function.name}:%{block.name}"
            for inst in block.instructions:
                if inst.parent is not block:
                    errors.append(f"{where}: '{inst}' has a broken parent link")
                for index, op in enumerate(inst.operands):
                    if isinstance(op, Instruction) and id(op) not in members:
                        errors.append(
                            f"{where}: operand {index} of '{inst}' is a "
                            f"detached instruction '{op.ref()}'"
                        )
                if isinstance(inst, Phi):
                    for pred in inst.incoming_blocks:
                        if id(pred) not in block_ids:
                            errors.append(
                                f"{where}: phi '{inst.ref()}' has an arm "
                                f"from removed block %{pred.name}"
                            )
                for use in inst.uses:
                    user = use.user
                    if not isinstance(user, Instruction):
                        continue
                    if user.parent is None:
                        errors.append(
                            f"{where}: erased instruction still holds a "
                            f"use of '{inst.ref()}'"
                        )
                    elif (use.index >= user.num_operands
                          or user.get_operand(use.index) is not inst):
                        errors.append(
                            f"{where}: use of '{inst.ref()}' by "
                            f"'{user.ref()}' has a stale operand index"
                        )
                if len(errors) >= limit:
                    return errors
    return errors


# ---------------------------------------------------------------------------
# checkpoint / rollback
# ---------------------------------------------------------------------------


class ModuleCheckpoint:
    """Printed-text snapshot of a module, restorable in place.

    Capture is one ``print_module`` (cheap, exercised by the round-trip
    golden tests); the parse cost is only paid on the rare rejection
    path.  ``restore`` grafts the re-parsed functions, globals, and
    structs back into the *same* :class:`Module` object so references
    held by the caller stay valid.
    """

    def __init__(self, module: Module):
        self.module = module
        self.text = print_module(module)

    def restore(self) -> None:
        fresh = parse_module(self.text)
        module = self.module
        module.functions = fresh.functions
        module.globals = fresh.globals
        module.structs = fresh.structs
        module.decoded = None
        for function in module.functions.values():
            function.module = module
