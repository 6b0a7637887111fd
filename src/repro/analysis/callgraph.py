"""Interprocedural call graph and per-function state summaries.

For every defined function the analyzer computes a
:class:`FunctionSummary`: which of the four ClosureX state dimensions
(heap calls, FILE calls, global stores, ``exit`` reachability) the
function can touch, which named globals it may modify, and which of its
pointer parameters it may store through.  Summaries are propagated
bottom-up over Tarjan SCCs of the call graph, iterating inside each
cycle to a fixpoint, so param-mediated effects (``copy_heading(line,
…)`` writing through a pointer into a global buffer) are attributed to
the right memory objects.

Pointer provenance is resolved by a conservative per-function root
tracer: a pointer's *roots* are the memory objects it may point into —
a named global, a parameter, the stack, the heap, a FILE handle, or
``unknown``.  The tracer follows GEP/cast/select/phi chains and loads
of alloca slots (the -O0 "variables" MiniC codegen emits), using the
slot's flow-insensitive set of stored values; anything it cannot prove
becomes ``unknown``, which the pollution classifier treats as
touching every global.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.dataflow import slot_escapes
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    GetElementPtr,
    ICmp,
    Instruction,
    Load,
    Phi,
    Ret,
    Select,
    Store,
)
from repro.ir.module import Function, Module
from repro.ir.types import PointerType
from repro.ir.values import Argument, Constant, ConstantNull, GlobalVariable

# -- extern classification ---------------------------------------------------

#: Allocator-family externs: any reachable call dirties the heap dimension.
HEAP_EXTERNS = frozenset({"malloc", "calloc", "realloc", "free"})

#: FILE-API externs: any reachable call dirties the file dimension.
FILE_EXTERNS = frozenset(
    {"fopen", "fclose", "fread", "fwrite", "fseek", "ftell", "fgetc",
     "feof", "rewind"}
)

#: Externs whose reachable call dirties the exit dimension (what the
#: ExitPass hooks).  ``abort`` stays a crash signal, not an exit.
EXIT_EXTERNS = frozenset({"exit"})

#: Externs that write through their first pointer argument.
WRITES_ARG0 = frozenset({"memcpy", "memmove", "memset", "strcpy", "fread"})

#: Externs returning a pointer derived from their first argument.
RETURNS_ARG0 = frozenset({"memcpy", "memmove", "memset", "strcpy", "strchr"})


def known_extern_names() -> frozenset[str]:
    """Every extern the VM can link: libc natives plus the ClosureX
    hooks the passes declare.  The single source of truth is the VM's
    native table, so the linter's unknown-extern rule can never drift
    from what actually executes."""
    from repro.vm.libc import NATIVES

    return frozenset(NATIVES) | frozenset(
        {"closurex_malloc", "closurex_calloc", "closurex_realloc",
         "closurex_free", "closurex_fopen_hook", "closurex_fclose_hook"}
    )


# -- pointer roots -----------------------------------------------------------

GLOBAL = "global"
PARAM = "param"
HEAP = ("heap",)
STACK = ("stack",)
FILE_HANDLE = ("file",)
UNKNOWN = ("unknown",)
CONST = ("const",)

Root = tuple


def global_root(name: str) -> Root:
    return (GLOBAL, name)

def param_root(index: int) -> Root:
    return (PARAM, index)


class RootTracer:
    """Per-function pointer-provenance resolver (see module docstring)."""

    def __init__(self, function: Function, summaries: "dict[str, FunctionSummary]",
                 heap_externs: frozenset[str]):
        self.function = function
        self.summaries = summaries
        self.heap_externs = heap_externs
        self._memo: dict[int, set[Root]] = {}
        self._in_progress: set[int] = set()
        self._slot_values: dict[int, set] = {}
        self._slot_escapes: set[int] = set()
        self._scan_slots()

    def _scan_slots(self) -> None:
        for inst in self.function.instructions():
            if not isinstance(inst, Alloca):
                continue
            self._slot_values[id(inst)] = set()
            # An escaping slot's contents are no longer tracked precisely.
            if slot_escapes(inst):
                self._slot_escapes.add(id(inst))
        for inst in self.function.instructions():
            if isinstance(inst, Store) and isinstance(inst.ptr, Alloca):
                slot = self._slot_values.get(id(inst.ptr))
                if slot is not None:
                    slot.add(inst.value)

    def is_tracked_slot(self, ptr) -> bool:
        """True if *ptr* is a local slot whose contents the tracer
        follows precisely (a non-escaping direct alloca)."""
        return isinstance(ptr, Alloca) and id(ptr) not in self._slot_escapes

    def trace(self, value) -> set[Root]:
        """The set of memory objects *value* may point into."""
        key = id(value)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            return set()  # cycle through a slot: least-fixpoint contribution
        self._in_progress.add(key)
        try:
            roots = self._trace(value)
        finally:
            self._in_progress.discard(key)
        self._memo[key] = roots
        return roots

    def _trace(self, value) -> set[Root]:
        if isinstance(value, ConstantNull):
            return {CONST}
        if isinstance(value, Constant):
            return {CONST}
        if isinstance(value, GlobalVariable):
            return {global_root(value.name)}
        if isinstance(value, Function):
            return {CONST}
        if isinstance(value, Argument):
            return {param_root(value.index)}
        if isinstance(value, Alloca):
            return {STACK}
        if isinstance(value, GetElementPtr):
            return self.trace(value.base)
        if isinstance(value, Cast):
            return self.trace(value.value)
        if isinstance(value, Select):
            return self.trace(value.if_true) | self.trace(value.if_false)
        if isinstance(value, Phi):
            roots: set[Root] = set()
            for incoming, _block in value.incoming():
                roots |= self.trace(incoming)
            return roots
        if isinstance(value, Load):
            ptr = value.ptr
            if isinstance(ptr, Alloca) and id(ptr) not in self._slot_escapes:
                stored = self._slot_values.get(id(ptr), set())
                if not stored:
                    return {UNKNOWN}
                roots = set()
                for v in stored:
                    roots |= self.trace(v)
                return roots
            return {UNKNOWN}
        if isinstance(value, Call):
            return self._trace_call(value)
        if isinstance(value, (BinOp, ICmp)):
            return {UNKNOWN}
        return {UNKNOWN}

    def _trace_call(self, call: Call) -> set[Root]:
        callee = call.callee
        if not isinstance(callee, Function):
            return {UNKNOWN}
        if callee.is_declaration:
            if callee.name in self.heap_externs:
                return {HEAP}
            if callee.name == "fopen":
                return {FILE_HANDLE}
            if callee.name in RETURNS_ARG0 and call.args:
                return self.trace(call.args[0])
            if isinstance(call.type, PointerType):
                return {UNKNOWN}
            return {CONST}
        summary = self.summaries.get(callee.name)
        if summary is None:
            return set()  # same-SCC callee, not yet summarised: fixpoint fills in
        roots: set[Root] = set()
        for root in summary.returns_roots:
            if root[0] == PARAM and root[1] < len(call.args):
                roots |= self.trace(call.args[root[1]])
            elif root == STACK:
                # A callee's stack frame is dead after return.
                roots.add(UNKNOWN)
            else:
                roots.add(root)
        return roots


# -- summaries ---------------------------------------------------------------


@dataclass
class FunctionSummary:
    """Mod/ref + escape facts for one defined function (direct effects
    plus everything bound in from its callees)."""

    name: str
    calls_heap: bool = False
    calls_file: bool = False
    calls_exit: bool = False
    calls_unknown_extern: bool = False
    unknown_externs: set[str] = field(default_factory=set)
    #: Named globals this function (or a callee, through a pointer
    #: parameter binding) may store to.
    modified_globals: set[str] = field(default_factory=set)
    #: Named globals whose address escapes into memory or to an extern.
    escaped_globals: set[str] = field(default_factory=set)
    #: Stores through pointers of unresolvable provenance.
    stores_unknown: bool = False
    #: Parameter indices this function may store through.
    stores_params: set[int] = field(default_factory=set)
    #: Parameter indices whose pointee's address may escape into memory.
    escapes_params: set[int] = field(default_factory=set)
    #: Provenance of returned pointers (param roots are call-site bound).
    returns_roots: set[Root] = field(default_factory=set)
    #: Names of defined functions this function calls.
    callees: set[str] = field(default_factory=set)

    def key(self) -> tuple:
        return (
            self.calls_heap, self.calls_file, self.calls_exit,
            self.calls_unknown_extern, frozenset(self.unknown_externs),
            frozenset(self.modified_globals), frozenset(self.escaped_globals),
            self.stores_unknown, frozenset(self.stores_params),
            frozenset(self.escapes_params),
            frozenset(self.returns_roots), frozenset(self.callees),
        )


class CallGraph:
    """Direct-call graph over a module's defined functions."""

    def __init__(self, module: Module):
        self.module = module
        self.edges: dict[str, set[str]] = {}
        self.call_sites: dict[str, list[Call]] = {}
        for function in module.defined_functions():
            callees: set[str] = set()
            sites: list[Call] = []
            for inst in function.instructions():
                if not isinstance(inst, Call):
                    continue
                callee = inst.callee
                if isinstance(callee, Function) and not callee.is_declaration:
                    callees.add(callee.name)
                    sites.append(inst)
            self.edges[function.name] = callees
            self.call_sites[function.name] = sites

    def reachable_from(self, entry: str) -> set[str]:
        """Defined functions reachable from *entry* (inclusive)."""
        if entry not in self.edges:
            return set()
        seen = {entry}
        stack = [entry]
        while stack:
            name = stack.pop()
            for callee in self.edges.get(name, ()):
                if callee not in seen:
                    seen.add(callee)
                    stack.append(callee)
        return seen

    def sccs(self) -> list[list[str]]:
        """Strongly connected components in reverse topological order
        (callees before callers), via Tarjan's algorithm."""
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        components: list[list[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work = [(root, iter(sorted(self.edges.get(root, ()))))]
            index[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index:
                        index[succ] = lowlink[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(self.edges.get(succ, ())))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    components.append(component)

        for name in sorted(self.edges):
            if name not in index:
                strongconnect(name)
        return components


def _summarise(function: Function, summaries: dict[str, FunctionSummary],
               heap_externs: frozenset[str], known_externs: frozenset[str]) -> FunctionSummary:
    summary = FunctionSummary(function.name)
    tracer = RootTracer(function, summaries, heap_externs)

    def record_write_roots(roots: set[Root]) -> None:
        for root in roots:
            if root[0] == GLOBAL:
                summary.modified_globals.add(root[1])
            elif root[0] == PARAM:
                summary.stores_params.add(root[1])
            elif root == UNKNOWN:
                summary.stores_unknown = True

    def record_escape_roots(roots: set[Root]) -> None:
        for root in roots:
            if root[0] == GLOBAL:
                summary.escaped_globals.add(root[1])
            elif root[0] == PARAM:
                summary.escapes_params.add(root[1])

    for inst in function.instructions():
        if isinstance(inst, Store):
            record_write_roots(tracer.trace(inst.ptr))
            if (isinstance(inst.value.type, PointerType)
                    and not tracer.is_tracked_slot(inst.ptr)):
                # Storing a pointer somewhere the tracer cannot follow:
                # the pointee's address escapes into memory and may be
                # written through later.
                record_escape_roots(tracer.trace(inst.value))
        elif isinstance(inst, Ret):
            if inst.value is not None and isinstance(inst.value.type, PointerType):
                summary.returns_roots |= tracer.trace(inst.value)
        elif isinstance(inst, Call):
            callee = inst.callee
            if not isinstance(callee, Function):
                continue
            if not callee.is_declaration:
                summary.callees.add(callee.name)
                callee_summary = summaries.get(callee.name)
                if callee_summary is not None:
                    for i in callee_summary.stores_params:
                        if i < len(inst.args):
                            record_write_roots(tracer.trace(inst.args[i]))
                    for i in callee_summary.escapes_params:
                        if i < len(inst.args):
                            record_escape_roots(tracer.trace(inst.args[i]))
                continue
            name = callee.name
            if name in heap_externs:
                summary.calls_heap = True
            elif name in FILE_EXTERNS:
                summary.calls_file = True
            elif name in EXIT_EXTERNS:
                summary.calls_exit = True
            if name in WRITES_ARG0 and inst.args:
                record_write_roots(tracer.trace(inst.args[0]))
            if name not in known_externs and name not in heap_externs:
                summary.calls_unknown_extern = True
                summary.unknown_externs.add(name)
                # An unknown extern may write through or stash any
                # pointer it receives.
                for arg in inst.args:
                    if isinstance(arg.type, PointerType):
                        roots = tracer.trace(arg)
                        record_write_roots(roots)
                        record_escape_roots(roots)
    return summary


def summarise_module(module: Module, entry: str = "main",
                     extra_allocators: dict[str, str] | None = None
                     ) -> tuple[CallGraph, dict[str, FunctionSummary]]:
    """Compute the call graph and a fixpoint summary per defined function.

    *extra_allocators* (custom allocator symbol -> malloc-family
    semantic, as accepted by the HeapPass) extends the heap extern set.
    """
    heap_externs = HEAP_EXTERNS | frozenset(extra_allocators or ())
    known = known_extern_names()
    graph = CallGraph(module)
    summaries: dict[str, FunctionSummary] = {}
    functions = {f.name: f for f in module.defined_functions()}
    for component in graph.sccs():
        # Callees of this SCC are already final; iterate the cycle
        # until its summaries stop changing.
        while True:
            changed = False
            for name in component:
                new = _summarise(functions[name], summaries, heap_externs, known)
                old = summaries.get(name)
                if old is None or old.key() != new.key():
                    summaries[name] = new
                    changed = True
            if not changed:
                break
    return graph, summaries
