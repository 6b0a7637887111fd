"""The optimizer's transform suite over MiniIR.

Each transform is driven by an analysis from :mod:`repro.analysis`:

- :class:`SimplifyCFG` — reachability + predecessor maps from
  :mod:`repro.ir.cfg`: drops unreachable blocks, folds degenerate
  conditional branches, threads jumps through empty blocks, and merges
  straight-line block pairs.
- :class:`SCCP` — sparse conditional constant propagation, folding
  with the VM's *exact* arithmetic (wrap-around, shift-overflow,
  C-truncating signed division) so a folded constant can never differ
  from what the interpreter would have computed.
- :class:`SimplifyInstructions` — algebraic identities and trivial
  phi/select elimination (the copy-propagation step: replaced values
  are rewritten through ``replace_all_uses_with``).
- :class:`RedundantLoadElimination` — forward availability of loaded
  values across straight-line block chains, with clobbering decided by
  the call-graph mod/ref summaries of
  :mod:`repro.analysis.callgraph`.
- :class:`DeadStoreElimination` — erases the stores
  :func:`repro.analysis.dataflow.dead_slot_stores` proves unobservable
  (the same helper behind the linter's ``dead-store`` rule).
- :class:`DeadCodeElimination` — mark-and-sweep over def-use edges,
  keeping everything with an effect the VM could observe (including
  potentially-trapping instructions).

A standing constraint shapes several decisions here: a crash's
identity is ``(trap kind, function name, block name)``, so any
transform that could move a *potentially trapping* instruction into a
differently-named block would change crash digests.  Block merging
therefore only fuses provably non-trapping instruction sequences, and
trapping instructions (division by a non-constant, loads through
arbitrary pointers) are never deleted or relocated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.callgraph import (
    FILE_HANDLE,
    HEAP,
    HEAP_EXTERNS,
    UNKNOWN,
    WRITES_ARG0,
    Root,
    RootTracer,
    global_root,
    known_extern_names,
    summarise_module,
)
from repro.analysis.dataflow import dead_slot_stores
from repro.ir import cfg
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    CondBr,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
    Switch,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import IntType
from repro.ir.values import ConstantInt, ConstantNull, UndefValue, Value
from repro.passes.coverage import COV_GUARD

#: Externs that never write target-visible memory: pure readers
#: (``memcmp``/``strlen``…), output/PRNG/clock natives, process-exit
#: natives, the FILE API minus ``fread`` (file state lives outside the
#: VM address space), fresh-memory allocators, and the ClosureX
#: runtime hooks.  A call to one of these does not clobber available
#: loads.
NO_WRITE_EXTERNS = frozenset({
    COV_GUARD,
    "memcmp", "strlen", "strcmp", "strncmp", "strchr", "atoi",
    "puts", "print_int", "rand", "srand", "time",
    "exit", "abort", "closurex_exit_hook",
    "fopen", "fclose", "fwrite", "fseek", "ftell", "fgetc", "feof",
    "rewind",
    "malloc", "calloc", "closurex_malloc", "closurex_calloc",
    "closurex_fopen_hook", "closurex_fclose_hook",
})

#: Externs that release or move heap memory: they clobber every
#: available load rooted in the heap.
HEAP_CLOBBER_EXTERNS = frozenset({
    "free", "realloc", "closurex_free", "closurex_realloc",
})


@dataclass
class TransformResult:
    """Outcome of one transform over one module."""

    transform: str
    changed: bool = False
    details: dict[str, int] = field(default_factory=dict)

    def note(self, key: str, amount: int = 1) -> None:
        self.details[key] = self.details.get(key, 0) + amount
        self.changed = True


class OptContext:
    """Shared per-round analysis state.

    Holds the interprocedural call-graph summaries (name-keyed, so they
    survive a checkpoint rollback that replaces function objects) and
    the extern classification extended with the target's custom
    allocators.
    """

    def __init__(self, module: Module,
                 extra_allocators: dict[str, str] | None = None):
        self.module = module
        self.extra_allocators = dict(extra_allocators or {})
        self.heap_externs = HEAP_EXTERNS | frozenset(self.extra_allocators)
        self.graph, self.summaries = summarise_module(
            module, extra_allocators=self.extra_allocators
        )
        self.known_externs = known_extern_names() | frozenset(self.extra_allocators)
        self.no_write_externs = NO_WRITE_EXTERNS | frozenset(
            name for name, semantic in self.extra_allocators.items()
            if semantic in ("malloc", "calloc")
        )
        self.heap_clobber_externs = HEAP_CLOBBER_EXTERNS | frozenset(
            name for name, semantic in self.extra_allocators.items()
            if semantic in ("free", "realloc")
        )


class Transform:
    """A module-level rewrite driven by :class:`OptContext` analyses."""

    name = "<transform>"

    def run(self, module: Module, ctx: OptContext) -> TransformResult:
        result = TransformResult(self.name)
        for function in list(module.defined_functions()):
            self.run_on_function(function, ctx, result)
        return result

    def run_on_function(self, function: Function, ctx: OptContext,
                        result: TransformResult) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# constant folding with the VM's exact semantics
# ---------------------------------------------------------------------------


def fold_binop(op: str, type_: IntType, lhs: int, rhs: int) -> int | None:
    """Fold a binary op exactly as the VM's ``binop`` would.

    Returns ``None`` when the VM would trap (division/remainder by
    zero): the instruction must then stay in place so the trap — part
    of the observable crash identity — still fires at runtime.
    """
    if op == "add":
        return type_.wrap(lhs + rhs)
    if op == "sub":
        return type_.wrap(lhs - rhs)
    if op == "mul":
        return type_.wrap(lhs * rhs)
    if op == "and":
        return lhs & rhs
    if op == "or":
        return lhs | rhs
    if op == "xor":
        return lhs ^ rhs
    if op == "shl":
        return type_.wrap(lhs << rhs) if rhs < type_.bits else 0
    if op == "lshr":
        return (lhs >> rhs) if rhs < type_.bits else 0
    if op == "ashr":
        return type_.wrap(type_.to_signed(lhs) >> min(rhs, type_.bits - 1))
    if rhs == 0:
        return None  # the VM traps; never fold a trap away
    if op in ("sdiv", "srem"):
        a, b = type_.to_signed(lhs), type_.to_signed(rhs)
        if op == "sdiv":
            quotient = abs(a) // abs(b)
            return type_.wrap(quotient if (a < 0) == (b < 0) else -quotient)
        remainder = abs(a) % abs(b)
        return type_.wrap(remainder if a >= 0 else -remainder)
    if op == "udiv":
        return lhs // rhs
    return lhs % rhs  # urem


def fold_icmp(predicate: str, type_: IntType, lhs: int, rhs: int) -> int:
    """Fold an integer comparison exactly as the VM's ``icmp`` would."""
    if predicate in ("slt", "sle", "sgt", "sge"):
        lhs, rhs = type_.to_signed(lhs), type_.to_signed(rhs)
    if predicate == "eq":
        return 1 if lhs == rhs else 0
    if predicate == "ne":
        return 1 if lhs != rhs else 0
    if predicate in ("slt", "ult"):
        return 1 if lhs < rhs else 0
    if predicate in ("sle", "ule"):
        return 1 if lhs <= rhs else 0
    if predicate in ("sgt", "ugt"):
        return 1 if lhs > rhs else 0
    return 1 if lhs >= rhs else 0


def fold_cast(op: str, from_type, to_type, value: int) -> int | None:
    """Fold the integer-valued casts; ``None`` for the pointer-typed
    results we cannot represent as a constant."""
    if op in ("trunc", "zext", "ptrtoint"):
        return to_type.wrap(value)
    if op == "sext":
        return to_type.wrap(from_type.to_signed(value))
    return None  # bitcast / inttoptr produce pointers


def _const_operand(value: Value) -> int | None:
    """The VM's integer evaluation of a constant operand, or ``None``.

    Global and function addresses are assigned at load time and so are
    *not* compile-time constants here.
    """
    if isinstance(value, ConstantInt):
        return value.value
    if isinstance(value, ConstantNull):
        return 0
    if isinstance(value, UndefValue):
        return 0  # the VM reads undef as zero, deterministically
    return None


def _same_value(a: Value, b: Value) -> bool:
    if a is b:
        return True
    if isinstance(a, ConstantInt) and isinstance(b, ConstantInt):
        return a.type == b.type and a.value == b.value
    if isinstance(a, ConstantNull) and isinstance(b, ConstantNull):
        return a.type == b.type
    return False


# ---------------------------------------------------------------------------
# sparse conditional constant propagation
# ---------------------------------------------------------------------------

_TOP = "top"
_BOTTOM = "bottom"


class SCCP(Transform):
    """Sparse conditional constant propagation with branch folding.

    The classic two-worklist algorithm: CFG edges become executable
    lazily, values sit on a TOP → constant → BOTTOM lattice, and phi
    meets only consider executable incoming edges — so constants
    propagate through branches that are themselves decided by
    constants.  Afterwards, constant-valued instructions are rewritten
    via ``replace_all_uses_with`` and constant-condition terminators
    are folded to unconditional branches (unreachable successors lose
    their phi arms; the dead blocks themselves are SimplifyCFG's job).
    """

    name = "sccp"

    def run_on_function(self, function: Function, ctx: OptContext,
                        result: TransformResult) -> None:
        if function.is_declaration:
            return
        lattice: dict[int, object] = {}
        exec_edges: set[tuple[int | None, int]] = set()
        exec_blocks: dict[int, BasicBlock] = {}
        flow: list[tuple[BasicBlock | None, BasicBlock]] = [
            (None, function.entry_block)
        ]
        ssa: list[Instruction] = []

        def value_of(value: Value) -> object:
            const = _const_operand(value)
            if const is not None:
                return const
            if isinstance(value, Instruction):
                return lattice.get(id(value), _TOP)
            return _BOTTOM  # arguments, globals, functions

        def lower(inst: Instruction, state: object) -> None:
            old = lattice.get(id(inst), _TOP)
            if old == state:
                return
            # Lattice only descends: TOP -> const -> BOTTOM.
            if old is not _TOP and state is not _BOTTOM:
                state = _BOTTOM if old != state else state
            lattice[id(inst)] = state
            for use in inst.uses:
                user = use.user
                if isinstance(user, Instruction) and user.parent is not None:
                    if id(user.parent) in exec_blocks:
                        ssa.append(user)

        def evaluate(inst: Instruction) -> None:
            if isinstance(inst, Phi):
                state: object = _TOP
                block = inst.parent
                for value, pred in inst.incoming():
                    if (id(pred), id(block)) not in exec_edges:
                        continue
                    incoming = value_of(value)
                    if incoming is _BOTTOM:
                        state = _BOTTOM
                        break
                    if incoming is _TOP:
                        continue
                    if state is _TOP or state == incoming:
                        state = incoming
                    else:
                        state = _BOTTOM
                        break
                lower(inst, state)
                return
            if isinstance(inst, (CondBr, Switch)):
                self._evaluate_terminator(inst, value_of, flow, exec_edges)
                return
            if isinstance(inst, Br):
                edge = (id(inst.parent), id(inst.target))
                if edge not in exec_edges:
                    flow.append((inst.parent, inst.target))
                return
            if isinstance(inst, BinOp):
                lhs, rhs = value_of(inst.lhs), value_of(inst.rhs)
                if _BOTTOM in (lhs, rhs):
                    lower(inst, _BOTTOM)
                elif _TOP not in (lhs, rhs):
                    assert isinstance(inst.type, IntType)
                    folded = fold_binop(inst.op, inst.type, lhs, rhs)  # type: ignore[arg-type]
                    lower(inst, _BOTTOM if folded is None else folded)
                return
            if isinstance(inst, ICmp):
                lhs, rhs = value_of(inst.lhs), value_of(inst.rhs)
                if _BOTTOM in (lhs, rhs):
                    lower(inst, _BOTTOM)
                elif _TOP not in (lhs, rhs):
                    operand_type = inst.lhs.type
                    if isinstance(operand_type, IntType):
                        lower(inst, fold_icmp(inst.predicate, operand_type,
                                              lhs, rhs))  # type: ignore[arg-type]
                    else:
                        lower(inst, fold_icmp(inst.predicate, None, lhs, rhs)
                              if inst.predicate in ("eq", "ne")
                              else _BOTTOM)
                return
            if isinstance(inst, Cast):
                value = value_of(inst.value)
                if value is _BOTTOM:
                    lower(inst, _BOTTOM)
                elif value is not _TOP:
                    folded = fold_cast(inst.op, inst.value.type, inst.type,
                                       value)  # type: ignore[arg-type]
                    lower(inst, _BOTTOM if folded is None else folded)
                return
            if isinstance(inst, Select):
                cond = value_of(inst.cond)
                if cond is _BOTTOM:
                    true_v = value_of(inst.if_true)
                    false_v = value_of(inst.if_false)
                    if (true_v is not _TOP and true_v is not _BOTTOM
                            and true_v == false_v):
                        lower(inst, true_v)
                    elif _BOTTOM in (true_v, false_v):
                        lower(inst, _BOTTOM)
                elif cond is not _TOP:
                    arm = inst.if_true if cond else inst.if_false
                    state = value_of(arm)
                    if state is not _TOP:
                        lower(inst, state)
                return
            if not inst.type.is_void:
                # loads, calls, allocas, GEPs: runtime values
                lower(inst, _BOTTOM)

        while flow or ssa:
            while ssa:
                evaluate(ssa.pop())
            if not flow:
                break
            pred, block = flow.pop()
            edge = (id(pred) if pred is not None else None, id(block))
            if edge in exec_edges:
                continue
            exec_edges.add(edge)
            first_visit = id(block) not in exec_blocks
            exec_blocks[id(block)] = block
            if first_visit:
                for inst in list(block.instructions):
                    evaluate(inst)
            else:
                # A new incoming edge only affects this block's phis.
                for inst in block.instructions:
                    if isinstance(inst, Phi):
                        evaluate(inst)
                    else:
                        break

        self._rewrite(function, lattice, exec_blocks, result)

    @staticmethod
    def _evaluate_terminator(inst, value_of, flow, exec_edges) -> None:
        block = inst.parent
        if isinstance(inst, CondBr):
            cond = value_of(inst.cond)
            if cond is _TOP:
                return
            if cond is _BOTTOM:
                targets = [inst.if_true, inst.if_false]
            else:
                targets = [inst.if_true if cond else inst.if_false]
        else:  # Switch
            value = value_of(inst.value)
            if value is _TOP:
                return
            if value is _BOTTOM:
                targets = inst.successors()
            else:
                targets = [inst.default]
                for const, case_block in inst.cases:
                    if const == value:
                        targets = [case_block]
                        break
        for target in targets:
            if (id(block), id(target)) not in exec_edges:
                flow.append((block, target))

    def _rewrite(self, function: Function, lattice, exec_blocks,
                 result: TransformResult) -> None:
        executable = [b for b in function.blocks if id(b) in exec_blocks]
        for block in executable:
            for inst in list(block.instructions):
                state = lattice.get(id(inst))
                if (state is None or state is _TOP or state is _BOTTOM
                        or inst.is_terminator or inst.type.is_void
                        or not isinstance(inst.type, IntType)
                        or inst.num_uses == 0):
                    continue
                inst.replace_all_uses_with(ConstantInt(inst.type, state))
                result.note("constants_propagated")
        # Terminators fold only after every constant is rewritten — a
        # branch condition may be defined in a later block than the
        # branch that uses it.
        for block in executable:
            self._fold_terminator(block, result)

    @staticmethod
    def _fold_terminator(block: BasicBlock, result: TransformResult) -> None:
        term = block.terminator
        taken: BasicBlock | None = None
        if isinstance(term, CondBr):
            cond = _const_operand(term.cond)
            if cond is None:
                return
            taken = term.if_true if cond else term.if_false
        elif isinstance(term, Switch):
            value = _const_operand(term.value)
            if value is None:
                return
            taken = term.default
            for const, case_block in term.cases:
                if const == value:
                    taken = case_block
                    break
        if taken is None:
            return
        dropped = [s for s in term.successors() if s is not taken]
        term.erase_from_parent()
        block.append(Br(taken))
        for succ in {id(s): s for s in dropped}.values():
            for inst in succ.instructions:
                if isinstance(inst, Phi):
                    inst.remove_incoming(block)
                else:
                    break
        result.note("branches_folded")


# ---------------------------------------------------------------------------
# instruction simplification (algebraic identities, copy propagation)
# ---------------------------------------------------------------------------


class SimplifyInstructions(Transform):
    """Peephole identities rewritten through ``replace_all_uses_with``.

    Covers the -O0 patterns MiniC codegen actually emits: arithmetic
    and bitwise identity elements, ``x - x`` / ``x ^ x`` / ``icmp x, x``
    self-operations, constant or degenerate selects, and trivial phis
    (all arms one value).  Replaced instructions become dead and are
    swept by :class:`DeadCodeElimination`.
    """

    name = "instsimplify"

    def run_on_function(self, function: Function, ctx: OptContext,
                        result: TransformResult) -> None:
        for block in function.blocks:
            for inst in list(block.instructions):
                if inst.num_uses == 0:
                    continue
                replacement = self._simplify(inst)
                if replacement is not None and replacement is not inst:
                    inst.replace_all_uses_with(replacement)
                    result.note("values_simplified")

    def _simplify(self, inst: Instruction) -> Value | None:
        if isinstance(inst, BinOp):
            return self._simplify_binop(inst)
        if isinstance(inst, ICmp):
            if _same_value(inst.lhs, inst.rhs):
                truth = inst.predicate in ("eq", "sle", "sge", "ule", "uge")
                return ConstantInt(inst.type, 1 if truth else 0)  # type: ignore[arg-type]
            return None
        if isinstance(inst, Select):
            if _same_value(inst.if_true, inst.if_false):
                return inst.if_true
            cond = _const_operand(inst.cond)
            if cond is not None:
                return inst.if_true if cond else inst.if_false
            return None
        if isinstance(inst, Phi):
            non_self = [v for v in inst.operands if v is not inst]
            if not non_self:
                return None
            first = non_self[0]
            if all(_same_value(first, v) for v in non_self[1:]):
                return first
            return None
        return None

    @staticmethod
    def _simplify_binop(inst: BinOp) -> Value | None:
        type_ = inst.type
        assert isinstance(type_, IntType)
        op = inst.op
        lhs, rhs = inst.lhs, inst.rhs
        lc, rc = _const_operand(lhs), _const_operand(rhs)
        zero = lambda: ConstantInt(type_, 0)
        if op == "add":
            if rc == 0:
                return lhs
            if lc == 0:
                return rhs
        elif op == "sub":
            if rc == 0:
                return lhs
            if _same_value(lhs, rhs):
                return zero()
        elif op == "mul":
            if rc == 1:
                return lhs
            if lc == 1:
                return rhs
            if rc == 0 or lc == 0:
                return zero()
        elif op == "and":
            if rc == 0 or lc == 0:
                return zero()
            if rc == type_.unsigned_max:
                return lhs
            if lc == type_.unsigned_max:
                return rhs
            if _same_value(lhs, rhs):
                return lhs
        elif op == "or":
            if rc == 0:
                return lhs
            if lc == 0:
                return rhs
            if _same_value(lhs, rhs):
                return lhs
        elif op == "xor":
            if rc == 0:
                return lhs
            if lc == 0:
                return rhs
            if _same_value(lhs, rhs):
                return zero()
        elif op in ("shl", "lshr", "ashr"):
            if rc == 0:
                return lhs
        elif op in ("udiv", "sdiv"):
            if rc == 1:
                return lhs
        elif op in ("urem", "srem"):
            if rc == 1:
                return zero()
        return None


# ---------------------------------------------------------------------------
# redundant load elimination
# ---------------------------------------------------------------------------


class RedundantLoadElimination(Transform):
    """Forward the value of a prior load/store at the same address.

    Availability is per SSA pointer value, propagated along
    straight-line edges (unique predecessor whose only successor is
    this block).  Clobbering is decided by pointer provenance
    (:class:`repro.analysis.callgraph.RootTracer`) crossed with the
    callee's mod/ref summary; a non-escaping alloca slot survives every
    call and every store through a different pointer, since no alias to
    it can exist.  Eliminating a load is safe for crash identity: the
    forwarding definition already accessed the same address without
    trapping, and no heap release happened in between (a release would
    have clobbered the entry).
    """

    name = "rle"

    def run_on_function(self, function: Function, ctx: OptContext,
                        result: TransformResult) -> None:
        if function.is_declaration:
            return
        tracer = RootTracer(function, ctx.summaries, ctx.heap_externs)
        preds = cfg.predecessors(function)
        order = cfg.topological_order(function)
        # block -> {id(ptr): (ptr, value available at ptr)}
        avail_out: dict[int, dict[int, tuple[Value, Value]]] = {}
        rewrites: list[tuple[Load, Value]] = []
        for block in order:
            block_preds = preds[block]
            # A unique predecessor's exit state holds on every one of
            # its outgoing edges, so it is valid at our entry; join
            # points and back edges (pred not yet visited) start empty.
            if (len(block_preds) == 1
                    and id(block_preds[0]) in avail_out):
                avail = dict(avail_out[id(block_preds[0])])
            else:
                avail = {}
            for inst in block.instructions:
                if isinstance(inst, Load):
                    entry = avail.get(id(inst.ptr))
                    if entry is not None:
                        rewrites.append((inst, entry[1]))
                    elif FILE_HANDLE not in tracer.trace(inst.ptr):
                        avail[id(inst.ptr)] = (inst.ptr, inst)
                elif isinstance(inst, Store):
                    self._clobber_store(avail, inst, tracer)
                    if FILE_HANDLE not in tracer.trace(inst.ptr):
                        avail[id(inst.ptr)] = (inst.ptr, inst.value)
                elif isinstance(inst, Call):
                    self._clobber_call(avail, inst, ctx, tracer)
            avail_out[id(block)] = avail
        for load, value in rewrites:
            load.replace_all_uses_with(value)
            load.erase_from_parent()
            result.note("loads_eliminated")

    @staticmethod
    def _roots_overlap(a: set[Root], b: set[Root]) -> bool:
        return UNKNOWN in a or UNKNOWN in b or bool(a & b)

    def _clobber_store(self, avail, store: Store, tracer: RootTracer) -> None:
        ptr = store.ptr
        if tracer.is_tracked_slot(ptr):
            avail.pop(id(ptr), None)  # only the slot itself can alias
            return
        roots = tracer.trace(ptr)
        for key, (entry_ptr, _value) in list(avail.items()):
            if entry_ptr is ptr:
                avail.pop(key)
            elif not tracer.is_tracked_slot(entry_ptr) and self._roots_overlap(
                    roots, tracer.trace(entry_ptr)):
                avail.pop(key)

    def _clobber_call(self, avail, call: Call, ctx: OptContext,
                      tracer: RootTracer) -> None:
        callee = call.callee
        if not isinstance(callee, Function):
            avail.clear()
            return
        if callee.is_declaration:
            name = callee.name
            if name in ctx.no_write_externs:
                return
            if name in ctx.heap_clobber_externs:
                self._clobber_roots(avail, {HEAP}, tracer)
                return
            if name in WRITES_ARG0 and call.args:
                self._clobber_roots(avail, tracer.trace(call.args[0]), tracer)
                return
            self._clobber_unknown(avail, tracer)
            return
        summary = ctx.summaries.get(callee.name)
        if summary is None or summary.stores_unknown or summary.calls_unknown_extern:
            self._clobber_unknown(avail, tracer)
            return
        roots: set[Root] = {global_root(g) for g in
                            summary.modified_globals | summary.escaped_globals}
        if summary.calls_heap:
            roots.add(HEAP)
        for index in summary.stores_params | summary.escapes_params:
            if index < len(call.args):
                roots |= tracer.trace(call.args[index])
        if roots:
            self._clobber_roots(avail, roots, tracer)

    def _clobber_roots(self, avail, roots: set[Root],
                       tracer: RootTracer) -> None:
        for key, (entry_ptr, _value) in list(avail.items()):
            if tracer.is_tracked_slot(entry_ptr):
                continue  # address never escapes: no callee can write it
            if self._roots_overlap(roots, tracer.trace(entry_ptr)):
                avail.pop(key)

    def _clobber_unknown(self, avail, tracer: RootTracer) -> None:
        for key, (entry_ptr, _value) in list(avail.items()):
            if not tracer.is_tracked_slot(entry_ptr):
                avail.pop(key)


# ---------------------------------------------------------------------------
# dead store / dead code elimination
# ---------------------------------------------------------------------------


class DeadStoreElimination(Transform):
    """Erase stores to non-escaping slots that no load can observe.

    The work is done by :func:`repro.analysis.dataflow.dead_slot_stores`
    (reaching definitions + escape analysis), shared verbatim with the
    linter's ``dead-store`` rule.
    """

    name = "dse"

    def run_on_function(self, function: Function, ctx: OptContext,
                        result: TransformResult) -> None:
        for store in dead_slot_stores(function):
            store.erase_from_parent()
            result.note("stores_eliminated")


def _removable(inst: Instruction) -> bool:
    """True if *inst* has no observable effect beyond its result value.

    Anything that can trap, write memory, or transfer control must
    stay: a deleted trap would change the crash digest.  Loads are
    removable only through a direct alloca (always in bounds); division
    only by a non-zero constant.
    """
    if isinstance(inst, (ICmp, Cast, Select, GetElementPtr, Phi, Alloca)):
        return True
    if isinstance(inst, Load):
        return isinstance(inst.ptr, Alloca)
    if isinstance(inst, BinOp):
        if inst.op in ("sdiv", "udiv", "srem", "urem"):
            rhs = inst.rhs
            return isinstance(rhs, ConstantInt) and rhs.value != 0
        return True
    return False


class DeadCodeElimination(Transform):
    """Mark-and-sweep dead code elimination over def-use edges.

    Roots are the instructions with effects (stores, calls,
    terminators, potential traps); liveness propagates through operand
    edges.  Sweeping unmarked instructions handles cyclic garbage —
    e.g. a pair of phis feeding only each other — that use-count-driven
    deletion never reaches.
    """

    name = "dce"

    def run_on_function(self, function: Function, ctx: OptContext,
                        result: TransformResult) -> None:
        live: set[int] = set()
        worklist: list[Instruction] = []
        for inst in function.instructions():
            if not _removable(inst):
                live.add(id(inst))
                worklist.append(inst)
        while worklist:
            inst = worklist.pop()
            for op in inst.operands:
                if isinstance(op, Instruction) and id(op) not in live:
                    live.add(id(op))
                    worklist.append(op)
        for block in function.blocks:
            for inst in list(block.instructions):
                if id(inst) not in live:
                    inst.erase_from_parent()
                    result.note("instructions_removed")


# ---------------------------------------------------------------------------
# CFG simplification
# ---------------------------------------------------------------------------

#: Call targets that are safe to move between blocks: a guard hit is an
#: ordered side effect but can never trap, so relocating it does not
#: perturb crash identity (and guard ids travel with the call operand).
_MERGE_SAFE_CALLEES = frozenset({COV_GUARD})


def _merge_safe(inst: Instruction) -> bool:
    """True if *inst* may move into another block without changing any
    possible crash identity (crash sites are named by block)."""
    if isinstance(inst, (ICmp, Cast, Select, GetElementPtr,
                         Br, CondBr, Switch, Ret)):
        return True
    if isinstance(inst, BinOp):
        if inst.op in ("sdiv", "udiv", "srem", "urem"):
            rhs = inst.rhs
            return isinstance(rhs, ConstantInt) and rhs.value != 0
        return True
    if isinstance(inst, (Load, Store)):
        return isinstance(inst.ptr, Alloca)
    if isinstance(inst, Call):
        callee = inst.callee
        return (isinstance(callee, Function)
                and callee.name in _MERGE_SAFE_CALLEES)
    return False  # allocas, unreachable, other calls


class SimplifyCFG(Transform):
    """Unreachable-block removal, jump threading, and block merging.

    Four rewrites run to a local fixpoint per function (each strictly
    shrinks the block or branch count, so termination is structural):

    1. unreachable blocks are deleted, detaching their phi arms;
    2. conditional branches with identical arms become plain branches;
    3. an empty block (lone ``br``) is threaded: predecessors retarget
       to its successor through the epoch-bumping terminator setters,
       so the cached dominator tree is never stale;
    4. a straight-line pair (unique successor / unique predecessor) is
       merged when every moved instruction is provably non-trapping —
       crash identity names the block, so a potentially-trapping
       instruction must keep its block name.
    """

    name = "simplifycfg"

    def run_on_function(self, function: Function, ctx: OptContext,
                        result: TransformResult) -> None:
        if function.is_declaration:
            return
        changed = True
        while changed:
            changed = (self._remove_unreachable(function, result)
                       or self._fold_same_target_condbr(function, result)
                       or self._thread_empty_blocks(function, result)
                       or self._merge_straight_line(function, result))

    @staticmethod
    def _remove_unreachable(function: Function,
                            result: TransformResult) -> bool:
        reachable = cfg.reachable_blocks(function)
        doomed = [b for b in function.blocks[1:] if b not in reachable]
        if not doomed:
            return False
        doomed_ids = {id(b) for b in doomed}
        for block in doomed:
            for succ in {id(s): s for s in block.successors()}.values():
                if id(succ) not in doomed_ids:
                    for inst in succ.instructions:
                        if isinstance(inst, Phi):
                            inst.remove_incoming(block)
                        else:
                            break
            for inst in block.instructions:
                inst.drop_all_operands()
            function.remove_block(block)
            result.note("unreachable_blocks_removed")
        return True

    @staticmethod
    def _fold_same_target_condbr(function: Function,
                                 result: TransformResult) -> bool:
        changed = False
        for block in function.blocks:
            term = block.terminator
            if isinstance(term, CondBr) and term.if_true is term.if_false:
                target = term.if_true
                term.erase_from_parent()
                block.append(Br(target))
                result.note("branches_folded")
                changed = True
        return changed

    @staticmethod
    def _thread_empty_blocks(function: Function,
                             result: TransformResult) -> bool:
        for block in function.blocks[1:]:
            if len(block.instructions) != 1:
                continue
            term = block.instructions[0]
            if not isinstance(term, Br) or term.target is block:
                continue
            target = term.target
            if any(isinstance(i, Phi) for i in target.instructions):
                continue  # a new edge would need a phi arm we can't infer
            for pred in list(cfg.predecessors(function)[block]):
                pred_term = pred.terminator
                if isinstance(pred_term, Br):
                    pred_term.target = target
                elif isinstance(pred_term, CondBr):
                    if pred_term.if_true is block:
                        pred_term.if_true = target
                    if pred_term.if_false is block:
                        pred_term.if_false = target
                elif isinstance(pred_term, Switch):
                    pred_term.retarget_successor(block, target)
            term.drop_all_operands()
            function.remove_block(block)
            result.note("blocks_threaded")
            return True
        return False

    @staticmethod
    def _merge_straight_line(function: Function,
                             result: TransformResult) -> bool:
        preds = cfg.predecessors(function)
        for pred in function.blocks:
            term = pred.terminator
            if not isinstance(term, Br):
                continue
            block = term.target
            if block is pred or preds[block] != [pred]:
                continue
            if not all(_merge_safe(i) for i in block.instructions):
                continue
            # Single-predecessor phis are copies; fold them first.
            for inst in list(block.instructions):
                if not isinstance(inst, Phi):
                    break
                if len(inst.incoming_blocks) != 1:
                    break
                inst.replace_all_uses_with(inst.get_operand(0))
                inst.erase_from_parent()
            if any(isinstance(i, Phi) for i in block.instructions):
                continue
            term.erase_from_parent()
            for inst in list(block.instructions):
                block.remove_instruction(inst)
                pred.append(inst)
            for succ in {id(s): s for s in pred.successors()}.values():
                for inst in succ.instructions:
                    if isinstance(inst, Phi):
                        for i, arm in enumerate(inst.incoming_blocks):
                            if arm is block:
                                inst.incoming_blocks[i] = pred
                    else:
                        break
            function.remove_block(block)
            result.note("blocks_merged")
            return True
        return False
