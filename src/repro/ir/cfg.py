"""Control-flow-graph utilities over MiniIR functions.

Used by the verifier (reachability, strict-SSA dominance), the
CoveragePass (edge enumeration), the ``repro.analysis`` dataflow
framework, and the experiments (edge-universe size for coverage
percentages, matching the paper's edge-coverage metric).

CFG-derived facts — predecessors, reachability, reverse post-order,
dominator trees — are cached per function and keyed on the function's
``cfg_epoch`` mutation counter: block or instruction mutation bumps the
epoch (see :meth:`repro.ir.module.Function.invalidate_cfg`), so repeat
queries over an unchanged function (verifier after every pass, linter,
pollution analysis) pay the traversal once.  Callers must treat the
returned containers as read-only.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Callable

from repro.ir.module import BasicBlock, Function, Module

Edge = tuple[BasicBlock, BasicBlock]


# ---------------------------------------------------------------------------
# per-function cache, invalidated by Function.cfg_epoch
# ---------------------------------------------------------------------------


class _CacheEntry:
    __slots__ = ("epoch", "results")

    def __init__(self, epoch: int):
        self.epoch = epoch
        self.results: dict[str, object] = {}


_CACHE: "weakref.WeakKeyDictionary[Function, _CacheEntry]" = (
    weakref.WeakKeyDictionary()
)


def _cached(function: Function, key: str, compute: Callable[[Function], object]):
    entry = _CACHE.get(function)
    if entry is None or entry.epoch != function.cfg_epoch:
        entry = _CacheEntry(function.cfg_epoch)
        _CACHE[function] = entry
    result = entry.results.get(key)
    if result is None:
        result = compute(function)
        # Cache only if the function did not mutate *during* compute
        # (a buggy analysis that edits the IR mid-traversal must not
        # poison the cache for the epoch it bumped away from).
        if function.cfg_epoch == entry.epoch:
            entry.results[key] = result
    return result


# ---------------------------------------------------------------------------
# basic CFG queries
# ---------------------------------------------------------------------------


def successors(block: BasicBlock) -> list[BasicBlock]:
    return block.successors()


def _compute_predecessors(function: Function) -> dict[BasicBlock, list[BasicBlock]]:
    preds: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in function.blocks}
    for block in function.blocks:
        for succ in block.successors():
            preds[succ].append(block)
    return preds


def predecessors(function: Function) -> dict[BasicBlock, list[BasicBlock]]:
    """Predecessor map of *function* (cached; treat as read-only)."""
    return _cached(function, "preds", _compute_predecessors)  # type: ignore[return-value]


def _compute_reachable(function: Function) -> set[BasicBlock]:
    if function.is_declaration:
        return set()
    seen: set[BasicBlock] = {function.entry_block}
    queue: deque[BasicBlock] = deque([function.entry_block])
    while queue:
        block = queue.popleft()
        for succ in block.successors():
            if succ not in seen:
                seen.add(succ)
                queue.append(succ)
    return seen


def reachable_blocks(function: Function) -> set[BasicBlock]:
    """Blocks reachable from the entry block (cached; read-only)."""
    return _cached(function, "reachable", _compute_reachable)  # type: ignore[return-value]


def function_edges(function: Function) -> list[Edge]:
    """All CFG edges of a function, in deterministic order."""
    edges: list[Edge] = []
    for block in function.blocks:
        for succ in block.successors():
            edges.append((block, succ))
    return edges


def module_edges(module: Module) -> list[Edge]:
    edges: list[Edge] = []
    for function in module.defined_functions():
        edges.extend(function_edges(function))
    return edges


def edge_count(module: Module) -> int:
    """Size of the static edge universe (denominator of edge coverage)."""
    return len(module_edges(module))


def call_site_count(module: Module) -> int:
    """Number of call instructions to *defined* functions.

    Each such call adds up to two dynamic edge-map pairs (entry into
    the callee, return back into the caller) on top of the static CFG
    edges, so the coverage experiments size their edge universe as
    ``edge_count + 2 * call_site_count``.
    """
    from repro.ir.instructions import Call

    count = 0
    for function in module.defined_functions():
        for inst in function.instructions():
            if isinstance(inst, Call):
                callee = inst.callee
                if isinstance(callee, Function) and not callee.is_declaration:
                    count += 1
    return count


def block_ids(module: Module) -> dict[BasicBlock, int]:
    """Assign a stable, deterministic integer id to every block."""
    ids: dict[BasicBlock, int] = {}
    next_id = 0
    for function in module.defined_functions():
        for block in function.blocks:
            ids[block] = next_id
            next_id += 1
    return ids


def _compute_topological_order(function: Function) -> list[BasicBlock]:
    order: list[BasicBlock] = []
    visited: set[BasicBlock] = set()

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        visited.add(block)
        while stack:
            current, it = stack[-1]
            advanced = False
            for succ in it:
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, iter(succ.successors())))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    if not function.is_declaration:
        visit(function.entry_block)
    order.reverse()
    return order


def topological_order(function: Function) -> list[BasicBlock]:
    """Reverse-post-order over the CFG (cached; loops broken arbitrarily)."""
    return _cached(function, "rpo", _compute_topological_order)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# dominators
# ---------------------------------------------------------------------------


class DominatorTree:
    """Immediate-dominator tree of one function's reachable CFG.

    Built with the Cooper–Harvey–Kennedy iterative algorithm over the
    reverse post-order; ``dominates`` answers in O(1) via DFS intervals
    over the tree.  Unreachable blocks are not in the tree: they neither
    dominate nor are dominated by anything.
    """

    def __init__(self, function: Function):
        self.function = function
        rpo = topological_order(function)
        self._rpo_index = {b: i for i, b in enumerate(rpo)}
        self.idom: dict[BasicBlock, BasicBlock | None] = {}
        if rpo:
            self._build(rpo)
        self.children: dict[BasicBlock, list[BasicBlock]] = {b: [] for b in rpo}
        for block, parent in self.idom.items():
            if parent is not None:
                self.children[parent].append(block)
        self._enter: dict[BasicBlock, int] = {}
        self._leave: dict[BasicBlock, int] = {}
        if rpo:
            self._number(rpo[0])

    def _build(self, rpo: list[BasicBlock]) -> None:
        entry = rpo[0]
        preds = predecessors(self.function)
        index = self._rpo_index
        idom: dict[BasicBlock, BasicBlock | None] = {entry: entry}
        changed = True
        while changed:
            changed = False
            for block in rpo[1:]:
                new_idom: BasicBlock | None = None
                for pred in preds[block]:
                    if pred not in index or idom.get(pred) is None:
                        continue  # unreachable or not yet processed
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(idom, index, pred, new_idom)
                if new_idom is not None and idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True
        idom[entry] = None
        self.idom = idom

    @staticmethod
    def _intersect(idom, index, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    def _number(self, root: BasicBlock) -> None:
        clock = 0
        stack: list[tuple[BasicBlock, int]] = [(root, 0)]
        while stack:
            block, child_index = stack[-1]
            if child_index == 0:
                self._enter[block] = clock
                clock += 1
            kids = self.children[block]
            if child_index < len(kids):
                stack[-1] = (block, child_index + 1)
                stack.append((kids[child_index], 0))
            else:
                self._leave[block] = clock
                clock += 1
                stack.pop()

    # -- queries -------------------------------------------------------

    def is_reachable(self, block: BasicBlock) -> bool:
        return block in self._rpo_index

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """True iff every entry→*b* path passes through *a* (reflexive)."""
        if a not in self._enter or b not in self._enter:
            return False
        return self._enter[a] <= self._enter[b] and self._leave[b] <= self._leave[a]

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def immediate_dominator(self, block: BasicBlock) -> BasicBlock | None:
        return self.idom.get(block)

    def depth(self, block: BasicBlock) -> int:
        depth = 0
        current = self.idom.get(block)
        while current is not None:
            depth += 1
            current = self.idom.get(current)
        return depth


def dominator_tree(function: Function) -> DominatorTree:
    """The function's dominator tree (cached; read-only)."""
    return _cached(function, "domtree", DominatorTree)  # type: ignore[return-value]


def _compute_frontiers(function: Function) -> dict[BasicBlock, set[BasicBlock]]:
    tree = dominator_tree(function)
    preds = predecessors(function)
    frontiers: dict[BasicBlock, set[BasicBlock]] = {
        b: set() for b in function.blocks if tree.is_reachable(b)
    }
    for block in function.blocks:
        if not tree.is_reachable(block):
            continue
        block_preds = [p for p in preds[block] if tree.is_reachable(p)]
        if len(block_preds) < 2:
            continue
        idom = tree.immediate_dominator(block)
        for pred in block_preds:
            runner = pred
            while runner is not idom and runner is not None:
                frontiers[runner].add(block)
                runner = tree.immediate_dominator(runner)
    return frontiers


def dominance_frontiers(function: Function) -> dict[BasicBlock, set[BasicBlock]]:
    """Dominance frontier of every reachable block (cached; read-only)."""
    return _cached(function, "frontiers", _compute_frontiers)  # type: ignore[return-value]
