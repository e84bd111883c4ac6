"""Intra-procedural dataflow framework: worklist solver + pluggable lattices.

The analyses in this package (input-taint, definite-initialization, the
lint checks behind ``repro analyze``) are all instances of one scheme:
propagate abstract facts along the CFG until a fixed point.  This module
factors that scheme out once:

* a **join-semilattice** protocol (:class:`Lattice`) with two stock
  instances — :class:`UnionLattice` (may-analyses: taint, reachability of
  facts) and :class:`IntersectLattice` (must-analyses: definite
  initialization), both over frozensets;
* a **problem** protocol (:class:`ForwardProblem`): entry state plus a
  per-instruction transfer function;
* a **worklist solver** (:func:`solve_forward`) iterating in reverse
  postorder (via :mod:`repro.opt.cfg`) until block states stabilise.

Termination is guaranteed for monotone transfers over finite lattices;
a generous iteration budget turns an accidental non-monotone transfer
into a loud :class:`AnalysisError` instead of a hang.

Infinite-height lattices (the interval domain in
:mod:`repro.analysis.intervals`) are supported through *widening*: a
lattice that overrides :meth:`Lattice.widen` gets the operator applied
at loop heads (targets of CFG back edges) after ``widening_delay``
visits, which forces convergence; optional *narrowing* sweeps then claw
back precision lost to widening.  Lattices that keep the default
``widen`` (both set lattices) solve exactly as before — the solver only
engages widening when the operator is overridden.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Tuple

from repro.errors import ReproError
from repro.ir.instructions import Instruction
from repro.ir.module import BasicBlock, Function
from repro.obs.metrics import get_registry
from repro.opt.cfg import predecessors, reverse_postorder


class AnalysisError(ReproError):
    """A dataflow analysis failed to behave (e.g. did not converge)."""


class Lattice:
    """Join-semilattice protocol: bottom element + least upper bound."""

    def bottom(self):
        raise NotImplementedError

    def join(self, a, b):
        raise NotImplementedError

    def leq(self, a, b) -> bool:
        """Partial order; default derived from join (a ⊑ b iff a ⊔ b = b)."""
        return self.join(a, b) == b

    def widen(self, old, new):
        """Widening operator ``old ∇ new``; must be an upper bound of both
        and stabilise every ascending chain in finitely many steps.

        The default is plain ``join``: finite lattices need no widening,
        and the solver only applies the operator when a subclass
        overrides it.
        """
        return self.join(old, new)

    def narrow(self, old, new):
        """Narrowing operator: refine ``old`` using the recomputed ``new``.

        Both arguments over-approximate the concrete states, so any
        sound mix is admissible.  The default keeps ``new`` (the freshly
        recomputed state), which is correct for descending iteration.
        """
        return new


class UnionLattice(Lattice):
    """Powerset ordered by ⊆ — the lattice of may-analyses.

    Elements are frozensets; bottom is the empty set; join is union.
    """

    def bottom(self) -> FrozenSet:
        return frozenset()

    def join(self, a: FrozenSet, b: FrozenSet) -> FrozenSet:
        if a is b or a == b:
            return a
        return a | b

    def leq(self, a: FrozenSet, b: FrozenSet) -> bool:
        return a <= b


class IntersectLattice(Lattice):
    """Powerset ordered by ⊇ — the lattice of must-analyses.

    ``universe`` is the top of the usual subset order and the *bottom*
    here: an unvisited block constrains nothing, so it must not shrink
    the intersection at a join point.
    """

    def __init__(self, universe: FrozenSet):
        self.universe = frozenset(universe)

    def bottom(self) -> FrozenSet:
        return self.universe

    def join(self, a: FrozenSet, b: FrozenSet) -> FrozenSet:
        if a is b or a == b:
            return a
        return a & b

    def leq(self, a: FrozenSet, b: FrozenSet) -> bool:
        return a >= b


class ForwardProblem:
    """One forward dataflow analysis: entry state + transfer function."""

    #: the lattice the analysis runs over; set by subclasses.
    lattice: Lattice

    #: visits of a loop head before the solver starts widening there.
    widening_delay: int = 2

    #: descending sweeps after convergence (0 = no narrowing).
    narrowing_passes: int = 0

    def entry_state(self, function: Function):
        """Abstract state on entry to the function."""
        return self.lattice.bottom()

    def transfer(self, inst: Instruction, state):
        """State after executing ``inst`` in ``state``.  Must be monotone."""
        raise NotImplementedError

    def edge_state(self, pred: BasicBlock, succ: BasicBlock, state):
        """Refine ``pred``'s out-state for the specific edge to ``succ``.

        Hook for path-sensitive refinement (e.g. narrowing an interval
        under the branch condition).  The default is the identity, so
        existing analyses are unaffected.  Must return a state ⊑ the
        input to stay sound.
        """
        return state


class DataflowResult:
    """Fixed-point block states, with per-instruction replay."""

    def __init__(
        self,
        function: Function,
        problem: ForwardProblem,
        block_in: Dict[BasicBlock, object],
        block_out: Dict[BasicBlock, object],
        iterations: int,
    ):
        self.function = function
        self.problem = problem
        self.block_in = block_in
        self.block_out = block_out
        #: total block-transfer evaluations the solver needed (for tests).
        self.iterations = iterations

    def states_in(self, block: BasicBlock) -> Iterator[Tuple[Instruction, object]]:
        """Yield ``(inst, state_before_inst)`` through ``block``.

        Replays the block transfer, exposing the intra-block states the
        solver does not store.
        """
        state = self.block_in[block]
        for inst in block.instructions:
            yield inst, state
            state = self.problem.transfer(inst, state)


def solve_forward(function: Function, problem: ForwardProblem) -> DataflowResult:
    """Worklist fixed-point of ``problem`` over ``function``'s CFG.

    Blocks are processed in reverse postorder (so acyclic regions settle
    in one pass); a block re-enters the worklist when a predecessor's
    out-state changes.  Unreachable blocks keep the lattice bottom.
    """
    lattice = problem.lattice
    order = reverse_postorder(function)
    position = {block: i for i, block in enumerate(order)}
    preds = predecessors(function)
    reachable = set(order)  # reverse postorder visits exactly these

    # Loop heads: targets of back edges w.r.t. the RPO numbering.  Only
    # lattices that override ``widen`` engage widening there; the set
    # lattices keep their exact joins.
    widen_points = set()
    for block in order:
        for successor in _successors(block):
            if successor in position and position[successor] <= position[block]:
                widen_points.add(successor)
    uses_widening = type(lattice).widen is not Lattice.widen

    block_in: Dict[BasicBlock, object] = {
        block: lattice.bottom() for block in function.blocks
    }
    block_out: Dict[BasicBlock, object] = {
        block: lattice.bottom() for block in function.blocks
    }

    def transfer_block(block: BasicBlock, state):
        for inst in block.instructions:
            state = problem.transfer(inst, state)
        return state

    def joined_in_state(block: BasicBlock):
        if block is function.entry:
            return problem.entry_state(function)
        state = lattice.bottom()
        for pred in preds[block]:
            if pred in reachable:
                state = lattice.join(
                    state, problem.edge_state(pred, block, block_out[pred])
                )
        return state

    # A worklist keyed by RPO position keeps the iteration deterministic.
    pending = set(order)
    budget = 64 * len(order) * max(1, len(order)) + 1024
    iterations = 0
    visits: Dict[BasicBlock, int] = {}
    while pending:
        block = min(pending, key=position.__getitem__)
        pending.discard(block)
        iterations += 1
        if iterations > budget:
            raise AnalysisError(
                f"dataflow did not converge in '{function.name}' "
                f"({iterations} block transfers; non-monotone transfer?)"
            )
        visits[block] = visits.get(block, 0) + 1
        in_state = joined_in_state(block)
        if (
            uses_widening
            and block in widen_points
            and visits[block] > problem.widening_delay
        ):
            in_state = lattice.widen(block_in[block], in_state)
        block_in[block] = in_state
        out_state = transfer_block(block, in_state)
        if out_state != block_out[block]:
            block_out[block] = out_state
            for successor in _successors(block):
                if successor in reachable:
                    pending.add(successor)

    # Optional narrowing: bounded descending sweeps.  Each recomputation
    # applies a monotone transfer to sound states, so every intermediate
    # state stays an over-approximation; ``narrow`` just picks which
    # bounds to keep at the widened loop heads.
    for _ in range(problem.narrowing_passes):
        changed = False
        for block in order:
            iterations += 1
            in_state = joined_in_state(block)
            if block in widen_points:
                in_state = lattice.narrow(block_in[block], in_state)
            out_state = transfer_block(block, in_state)
            if in_state != block_in[block] or out_state != block_out[block]:
                changed = True
            block_in[block] = in_state
            block_out[block] = out_state
        if not changed:
            break
    get_registry().counter(
        "analysis_solver_iterations_total", problem=type(problem).__name__
    ).inc(iterations)
    return DataflowResult(function, problem, block_in, block_out, iterations)


def _successors(block: BasicBlock) -> List[BasicBlock]:
    from repro.opt.cfg import successors

    return successors(block)
