"""Generic worklist dataflow framework over MiniIR CFGs.

The framework solves forward or backward *may* problems over a
powerset lattice (join = set union), which covers the analyses this
repo needs: liveness (backward) and reaching definitions (forward).
Block order comes from the cached reverse post-order in
:mod:`repro.ir.cfg`, so a solve converges in few sweeps on reducible
CFGs and reuses the CFG cache shared with the verifier and linter.

Reaching definitions run over alloca slots, the "variables"
unoptimised MiniC codegen produces; :func:`dead_slot_stores` is the
one dead-store test that dead-store elimination and the linter share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.ir import cfg
from repro.ir.instructions import Alloca, Instruction, Load, Phi, Store
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Argument


@dataclass
class DataflowResult:
    """Per-block in/out sets of one dataflow solve."""

    analysis: str
    block_in: dict[BasicBlock, frozenset] = field(default_factory=dict)
    block_out: dict[BasicBlock, frozenset] = field(default_factory=dict)
    iterations: int = 0

    def at_entry(self, block: BasicBlock) -> frozenset:
        return self.block_in.get(block, frozenset())


class DataflowAnalysis:
    """A forward or backward union-lattice dataflow problem.

    Subclasses define :attr:`direction` ("forward" or "backward"),
    :meth:`boundary` (the set at the boundary block), and
    :meth:`transfer` (the block transfer function).  :meth:`run`
    iterates to a fixpoint with a worklist seeded in reverse post-order
    (or its reverse, for backward problems).
    """

    name = "<dataflow>"
    direction = "forward"

    def boundary(self, function: Function) -> frozenset:
        return frozenset()

    def transfer(self, block: BasicBlock, value: frozenset) -> frozenset:
        raise NotImplementedError

    def run(self, function: Function) -> DataflowResult:
        result = DataflowResult(self.name)
        if function.is_declaration:
            return result
        forward = self.direction == "forward"
        order = cfg.topological_order(function)
        if not forward:
            order = list(reversed(order))
        preds = cfg.predecessors(function)

        def inputs(block: BasicBlock) -> list[BasicBlock]:
            return preds[block] if forward else block.successors()

        def outputs(block: BasicBlock) -> list[BasicBlock]:
            return block.successors() if forward else preds[block]

        before = result.block_in if forward else result.block_out
        after = result.block_out if forward else result.block_in
        for block in order:
            before[block] = frozenset()
            after[block] = frozenset()
        if order:
            before[order[0]] = self.boundary(function)

        queued = {b: True for b in order}
        worklist = deque(order)
        while worklist:
            block = worklist.popleft()
            queued[block] = False
            result.iterations += 1
            merged = before[block]
            for other in inputs(block):
                if other in after:  # unreachable inputs stay out
                    merged |= after[other]
            before[block] = merged
            new_out = self.transfer(block, merged)
            if new_out != after[block]:
                after[block] = new_out
                for succ in outputs(block):
                    if succ in queued and not queued[succ]:
                        queued[succ] = True
                        worklist.append(succ)
        return result


# ---------------------------------------------------------------------------
# liveness
# ---------------------------------------------------------------------------


class Liveness(DataflowAnalysis):
    """Backward may-analysis: which values are live at block boundaries.

    A value (instruction result or argument) is live if some path to a
    use does not pass its (re)definition — in SSA there is exactly one
    definition, so live-out is simply ∪ live-in of successors, with phi
    uses attributed to the incoming edge (the value a phi selects from
    predecessor P is live at the end of P, not at the start of the phi
    block).
    """

    name = "liveness"
    direction = "backward"

    def transfer(self, block: BasicBlock, live_out: frozenset) -> frozenset:
        live = set(live_out)
        # Phi uses belong to the incoming edges, handled below; phi
        # *results* die here like any other definition.
        for inst in reversed(block.instructions):
            live.discard(inst)
            if isinstance(inst, Phi):
                continue
            for op in inst.operands:
                if isinstance(op, (Instruction, Argument)):
                    live.add(op)
        # Values our successors' phis select from *this* block are live
        # at the end of this block.
        for succ in block.successors():
            for inst in succ.instructions:
                if not isinstance(inst, Phi):
                    break
                for value, pred in inst.incoming():
                    if pred is block and isinstance(value, (Instruction, Argument)):
                        live.add(value)
        return frozenset(live)


def live_values(function: Function) -> DataflowResult:
    """Solve liveness for *function*."""
    return Liveness().run(function)


# ---------------------------------------------------------------------------
# reaching definitions (over alloca slots, the -O0 "variables")
# ---------------------------------------------------------------------------


def _store_slot(inst: Instruction) -> Alloca | None:
    if isinstance(inst, Store) and isinstance(inst.ptr, Alloca):
        return inst.ptr
    return None


class ReachingDefinitions(DataflowAnalysis):
    """Forward may-analysis: which stores to alloca slots reach a point.

    Definitions are ``store`` instructions whose address operand is a
    direct alloca; a store to a slot kills every other store to the
    same slot.  Loads through anything other than a direct alloca are
    outside the domain (the pointer-root analysis in
    :mod:`repro.analysis.callgraph` handles those conservatively).
    """

    name = "reaching-definitions"
    direction = "forward"

    def transfer(self, block: BasicBlock, reach_in: frozenset) -> frozenset:
        reaching = set(reach_in)
        for inst in block.instructions:
            slot = _store_slot(inst)
            if slot is not None:
                reaching = {d for d in reaching if _store_slot(d) is not slot}
                reaching.add(inst)
        return frozenset(reaching)


def reaching_stores(function: Function) -> DataflowResult:
    """Solve reaching definitions for *function*."""
    return ReachingDefinitions().run(function)


def slot_escapes(slot: Alloca) -> bool:
    """Whether *slot*'s address is used beyond direct load/store —
    passed to a call, GEP'd, stored *as a value* — so its contents can
    be observed through an alias.  Every use of a slot that does not
    escape is a load's pointer operand or a store's address operand."""
    for use in slot.uses:
        user = use.user
        if isinstance(user, Store) and use.index == 1:
            continue
        if isinstance(user, Load) and use.index == 0:
            continue
        return True
    return False


def escaping_slots(function: Function) -> set[int]:
    """``id()``s of the function's escaping allocas
    (:func:`slot_escapes`), whose contents the reaching-defs domain
    therefore does not model."""
    return {
        id(inst) for inst in function.instructions()
        if isinstance(inst, Alloca) and slot_escapes(inst)
    }


def dead_slot_stores(function: Function) -> list[Store]:
    """Stores to non-escaping alloca slots that no load can observe.

    A store is dead when it is absent from every load's may-reach set:
    "may reach no load" implies "observed by no load".  Escaping slots
    are excluded entirely — an aliased pointer could read them outside
    the reaching-definitions domain.  Shared by the dead-store-
    elimination transform in :mod:`repro.analysis.opt` and the linter's
    ``dead-store`` rule, so the two can never disagree.
    """
    if function.is_declaration:
        return []
    escaped = escaping_slots(function)
    solution = reaching_stores(function)
    observed: set[int] = set()
    for inst in function.instructions():
        if isinstance(inst, Load) and isinstance(inst.ptr, Alloca):
            for store in stores_reaching(inst, solution):
                observed.add(id(store))
    dead: list[Store] = []
    for inst in function.instructions():
        if (isinstance(inst, Store) and isinstance(inst.ptr, Alloca)
                and id(inst.ptr) not in escaped
                and id(inst) not in observed):
            dead.append(inst)
    return dead


def stores_reaching(load: Load, solution: DataflowResult) -> set[Store]:
    """The store instructions that may define the value *load* reads.

    Only meaningful for loads whose address is a direct alloca; other
    loads return the empty set (callers must treat that as "unknown").
    """
    slot = load.ptr
    if not isinstance(slot, Alloca) or load.parent is None:
        return set()
    block = load.parent
    reaching = set(solution.at_entry(block))
    for inst in block.instructions:
        if inst is load:
            break
        maybe_slot = _store_slot(inst)
        if maybe_slot is not None:
            reaching = {d for d in reaching if _store_slot(d) is not maybe_slot}
            reaching.add(inst)
    return {d for d in reaching if _store_slot(d) is slot}  # type: ignore[misc]
