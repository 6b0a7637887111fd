"""Promotion of alloca slots to SSA registers (mem2reg).

MiniC's -O0-style codegen gives every local variable a stack slot and
turns every read/write into a load/store pair — by instruction cost the
single largest source of dynamic work (a load+store round trip costs
24 units against a phi's 5).  This transform rewrites non-escaping
scalar slots into SSA values: phi nodes are placed on the iterated
dominance frontier of the slot's stores (the cached
:func:`repro.ir.cfg.dominance_frontiers`), then a single renaming walk
over the cached dominator tree replaces each load with the reaching
definition and deletes the loads, stores, and the alloca itself.

Two MiniVM-specific rules keep the rewrite bit-exact:

- Stack regions are zero-filled at allocation, so a load on a path
  with no prior store deterministically reads 0 — never-stored paths
  are materialised as integer ``0`` / ``null`` constants rather than
  ``undef`` (which the strict verifier flags).
- Only allocas in the *entry block* are promoted.  An alloca executed
  inside a loop maps a fresh zeroed region per iteration, so carrying
  a value across the back edge through a phi would change semantics;
  entry-block allocas execute exactly once per call.
"""

from __future__ import annotations

from repro.ir import cfg
from repro.ir.instructions import Alloca, Load, Phi, Store
from repro.ir.module import BasicBlock, Function
from repro.ir.types import IntType, PointerType
from repro.ir.values import ConstantInt, ConstantNull, Value

from repro.analysis.dataflow import slot_escapes
from repro.analysis.opt.transforms import OptContext, Transform, TransformResult


def _promotable_slots(function: Function) -> list[Alloca]:
    slots: list[Alloca] = []
    for inst in function.entry_block.instructions:
        if not isinstance(inst, Alloca):
            continue
        if inst.count != 1 or not isinstance(inst.allocated_type,
                                             (IntType, PointerType)):
            continue
        if slot_escapes(inst):
            continue
        if any(isinstance(use.user, Load) for use in inst.uses):
            slots.append(inst)
    return slots


def _zero_of(type_) -> Value:
    if isinstance(type_, PointerType):
        return ConstantNull(type_)
    return ConstantInt(type_, 0)


class PromoteSlots(Transform):
    """Classic SSA construction for promotable entry-block allocas."""

    name = "mem2reg"

    def run_on_function(self, function: Function, ctx: OptContext,
                        result: TransformResult) -> None:
        if function.is_declaration:
            return
        if len(cfg.reachable_blocks(function)) != len(function.blocks):
            return  # SimplifyCFG owns dead blocks; retry next round
        slots = _promotable_slots(function)
        if not slots:
            return
        tree = cfg.dominator_tree(function)
        frontiers = cfg.dominance_frontiers(function)
        slot_ids = {id(s): s for s in slots}

        # -- phi placement: iterated dominance frontier of the stores --
        phi_for: dict[tuple[int, int], Phi] = {}  # (block, slot) -> phi
        for slot in slots:
            def_blocks = {
                id(u.user.parent): u.user.parent
                for u in slot.uses
                if isinstance(u.user, Store) and u.user.parent is not None
            }
            worklist = list(def_blocks.values())
            sites: dict[int, BasicBlock] = {}
            while worklist:
                block = worklist.pop()
                for frontier_block in frontiers.get(block, ()):
                    if id(frontier_block) in sites:
                        continue
                    sites[id(frontier_block)] = frontier_block
                    if id(frontier_block) not in def_blocks:
                        worklist.append(frontier_block)
            for block in sites.values():
                phi = Phi(slot.allocated_type,
                          function.next_value_name(slot.name or "slot"))
                block.insert(0, phi)
                phi_for[(id(block), id(slot))] = phi
                result.note("phis_inserted")

        # -- renaming walk over the dominator tree ----------------------
        #
        # Loads are RAUW'd and erased the moment they are visited;
        # dominance preorder guarantees every use sees the rewritten
        # value, so the tables never hold references to erased
        # instructions.
        entry_state = {id(s): _zero_of(s.allocated_type) for s in slots}
        stack: list[tuple[BasicBlock, dict[int, Value]]] = [
            (function.entry_block, entry_state)
        ]
        while stack:
            block, incoming = stack.pop()
            for slot in slots:
                phi = phi_for.get((id(block), id(slot)))
                if phi is not None:
                    incoming[id(slot)] = phi
            for inst in list(block.instructions):
                if isinstance(inst, Load) and id(inst.ptr) in slot_ids:
                    inst.replace_all_uses_with(incoming[id(inst.ptr)])
                    inst.erase_from_parent()
                    result.note("loads_rewritten")
                elif isinstance(inst, Store) and id(inst.ptr) in slot_ids:
                    incoming[id(inst.ptr)] = inst.value
                    inst.erase_from_parent()
                    result.note("stores_rewritten")
            for succ in {id(s): s for s in block.successors()}.values():
                for slot in slots:
                    phi = phi_for.get((id(succ), id(slot)))
                    if phi is not None:
                        phi.add_incoming(incoming[id(slot)], block)
            for child in reversed(tree.children.get(block, [])):
                stack.append((child, dict(incoming)))

        for slot in slots:
            slot.erase_from_parent()
            result.note("slots_promoted")
