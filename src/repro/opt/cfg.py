"""Control-flow graph utilities: successors/predecessors, reverse
postorder, dominator tree (Cooper-Harvey-Kennedy) and dominance frontiers.

These back the optimizer's SSA construction (mem2reg) and CFG cleanups.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.instructions import Br, CondBr
from repro.ir.module import BasicBlock, Function


def successors(block: BasicBlock) -> List[BasicBlock]:
    """Successor blocks in branch order (duplicates collapsed)."""
    terminator = block.terminator()
    if isinstance(terminator, Br):
        return [terminator.target]
    if isinstance(terminator, CondBr):
        if terminator.true_target is terminator.false_target:
            return [terminator.true_target]
        return [terminator.true_target, terminator.false_target]
    return []


def predecessors(function: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """block -> predecessor list, in deterministic block order."""
    preds: Dict[BasicBlock, List[BasicBlock]] = {
        block: [] for block in function.blocks
    }
    for block in function.blocks:
        for successor in successors(block):
            preds[successor].append(block)
    return preds


def reachable_blocks(function: Function) -> Set[BasicBlock]:
    """Blocks reachable from the entry."""
    seen: Set[BasicBlock] = set()
    stack = [function.entry]
    while stack:
        block = stack.pop()
        if block in seen:
            continue
        seen.add(block)
        stack.extend(successors(block))
    return seen


def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Reverse postorder over reachable blocks (entry first)."""
    order: List[BasicBlock] = []
    seen: Set[BasicBlock] = set()

    def visit(block: BasicBlock) -> None:
        # Iterative DFS with an explicit done-marker to get postorder.
        stack = [(block, iter(successors(block)))]
        seen.add(block)
        while stack:
            current, children = stack[-1]
            advanced = False
            for child in children:
                if child not in seen:
                    seen.add(child)
                    stack.append((child, iter(successors(child))))
                    advanced = True
                    break
            if not advanced:
                order.append(current)
                stack.pop()

    visit(function.entry)
    order.reverse()
    return order


class DominatorTree:
    """Immediate dominators per Cooper, Harvey & Kennedy (2001)."""

    def __init__(self, function: Function):
        self.function = function
        self.order = reverse_postorder(function)
        self._index = {block: i for i, block in enumerate(self.order)}
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._preds = predecessors(function)
        self._compute(self._preds)
        self._frontiers: Optional[Dict[BasicBlock, Set[BasicBlock]]] = None

    @property
    def frontiers(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """Dominance frontiers (computed on first use; only SSA
        construction needs them)."""
        if self._frontiers is None:
            self._frontiers = self._dominance_frontiers(self._preds)
        return self._frontiers

    def _compute(self, preds) -> None:
        entry = self.function.entry
        self.idom = {block: None for block in self.order}
        self.idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for block in self.order:
                if block is entry:
                    continue
                candidates = [
                    p for p in preds[block]
                    if p in self._index and self.idom[p] is not None
                ]
                if not candidates:
                    continue
                new_idom = candidates[0]
                for other in candidates[1:]:
                    new_idom = self._intersect(new_idom, other)
                if self.idom[block] is not new_idom:
                    self.idom[block] = new_idom
                    changed = True

    def _intersect(self, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        while a is not b:
            while self._index[a] > self._index[b]:
                a = self.idom[a]
            while self._index[b] > self._index[a]:
                b = self.idom[b]
        return a

    def _dominance_frontiers(self, preds) -> Dict[BasicBlock, Set[BasicBlock]]:
        frontiers: Dict[BasicBlock, Set[BasicBlock]] = {
            block: set() for block in self.order
        }
        for block in self.order:
            block_preds = [p for p in preds[block] if p in self._index]
            if len(block_preds) < 2:
                continue
            for pred in block_preds:
                runner = pred
                while runner is not self.idom[block]:
                    frontiers[runner].add(block)
                    runner = self.idom[runner]
        return frontiers

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does ``a`` dominate ``b``?"""
        runner = b
        while True:
            if runner is a:
                return True
            parent = self.idom.get(runner)
            if parent is runner or parent is None:
                return runner is a
            runner = parent

    def children(self) -> Dict[BasicBlock, List[BasicBlock]]:
        """Dominator-tree children (for renaming DFS)."""
        kids: Dict[BasicBlock, List[BasicBlock]] = {
            block: [] for block in self.order
        }
        for block in self.order:
            parent = self.idom[block]
            if parent is not None and parent is not block:
                kids[parent].append(block)
        return kids
