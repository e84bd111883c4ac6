"""Lint diagnostics over the IR: uninit loads, OOB geps, unbounded copies.

Three checks ride on the dataflow framework:

* **definite-initialization** — a must-analysis (IntersectLattice over
  the function's static allocas): a root is *definitely initialized* at
  a point iff every CFG path to it stores through the root, passes its
  address to a callee (which may initialize it), or hands it to an
  input builtin.  A load from a root outside that set is diagnosed —
  as an ``error`` when no path anywhere in the function ever
  initializes the root (the load can only yield frame garbage), as a
  ``warning`` when some path does (path-sensitive maybe-uninit);
* **constant-gep bounds** — an ``elemptr`` with a constant index into a
  statically-sized array alloca/global — including a nested struct-array
  field reached through a ``fieldptr`` chain — is checked against the
  array length: out of ``[0, n]`` is an ``error``; exactly ``n``
  (one-past-the-end, legal C for address arithmetic) is an ``error``
  only when the gep's address is actually loaded/stored;
* **unbounded-taint-copy** — a ``strcpy_``/``memcpy_``-style builtin
  whose *source* operand carries input taint, with no dominating
  conditional branch testing any taint-derived value.  The dominating-
  guard heuristic is deliberately coarse (any tainted compare on a path
  that must run first counts as "the programmer looked at the data"),
  so the check is a ``warning``: its misses are unguarded paths the
  must-dominate test cannot see, never false errors on guarded ones.

Uninitialized reads, deterministic out-of-bounds offsets, and
length-unchecked attacker copies are exactly the raw material of stack
DOP gadgets, which is why these are the analyzer's lint layer rather
than generic style checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, List, NamedTuple, Optional, Set

from repro.analysis.dataflow import ForwardProblem, IntersectLattice, solve_forward
from repro.analysis.taintflow import COPY_BUILTINS, mem, pointer_root
from repro.ir.instructions import (
    Alloca,
    Call,
    Cast,
    CondBr,
    ElemPtr,
    FieldPtr,
    Instruction,
    Load,
    Store,
)
from repro.ir.module import Function
from repro.ir.values import Constant, GlobalVariable

if TYPE_CHECKING:
    from repro.synth.facts import FunctionFacts, ProgramFacts


class Diagnostic(NamedTuple):
    """One lint finding."""

    severity: str  # error | warning
    category: str  # uninit-load | oob-gep
    function: str
    block: str
    message: str
    instruction: Optional[Instruction]


class DefiniteInit(ForwardProblem):
    """Must-analysis: which allocas are initialized on every path."""

    def __init__(self, function: Function):
        self.function = function
        self.universe = frozenset(
            a for a in function.static_allocas() if a.is_static()
        )
        self.lattice = IntersectLattice(self.universe)

    def entry_state(self, function: Function) -> FrozenSet:
        return frozenset()  # nothing is initialized on entry

    def transfer(self, inst: Instruction, state: FrozenSet) -> FrozenSet:
        root = None
        if isinstance(inst, Store):
            root = pointer_root(inst.pointer)
        elif isinstance(inst, Call):
            # A callee receiving the address may write through it; for a
            # must-analysis this is the safe (non-noisy) assumption, and
            # input builtins genuinely fill their out-buffer.
            for op in inst.args:
                escaped = pointer_root(op)
                if isinstance(escaped, Alloca) and escaped in self.universe:
                    state = state | {escaped}
            return state
        if isinstance(root, Alloca) and root in self.universe:
            return state | {root}
        return state


def ever_initialized_roots(function: Function) -> Set[Alloca]:
    """Allocas some instruction anywhere stores to / escapes (flow-free)."""
    roots: Set[Alloca] = set()
    for inst in function.instructions():
        if isinstance(inst, Store):
            root = pointer_root(inst.pointer)
            if isinstance(root, Alloca):
                roots.add(root)
        elif isinstance(inst, Call):
            for op in inst.args:
                root = pointer_root(op)
                if isinstance(root, Alloca):
                    roots.add(root)
    return roots


def check_uninitialized_loads(function: Function) -> List[Diagnostic]:
    problem = DefiniteInit(function)
    if not problem.universe:
        return []
    result = solve_forward(function, problem)
    ever = ever_initialized_roots(function)
    out: List[Diagnostic] = []
    reported: Set[tuple] = set()
    for block in function.blocks:
        for inst, state in result.states_in(block):
            if not isinstance(inst, Load):
                continue
            root = pointer_root(inst.pointer)
            if not isinstance(root, Alloca) or root not in problem.universe:
                continue
            if root in state:
                continue
            severity = "warning" if root in ever else "error"
            key = (id(inst), root.var_name)
            if key in reported:
                continue
            reported.add(key)
            name = root.var_name or root.name
            detail = (
                "is never initialized"
                if severity == "error"
                else "may be uninitialized on some path"
            )
            out.append(
                Diagnostic(
                    severity,
                    "uninit-load",
                    function.name,
                    block.label,
                    f"load from '{name}' which {detail}",
                    inst,
                )
            )
    return out


def check_constant_geps(function: Function) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    dereferenced = {
        id(inst.pointer)
        for inst in function.instructions()
        if isinstance(inst, (Load, Store))
    }
    for inst in function.instructions():
        if not isinstance(inst, ElemPtr):
            continue
        index = inst.index
        # The front end sign-extends literal indices; look through
        # value-preserving integer casts to the constant underneath.
        while isinstance(index, Cast) and index.kind in ("sext", "zext"):
            index = index.operands[0]
        if not isinstance(index, Constant):
            continue
        base = inst.operands[0]
        length = _static_array_length(base)
        if length is None:
            continue
        idx = index.value
        if isinstance(base, FieldPtr):
            root = _static_root(base)
            owner = (
                getattr(root, "var_name", None)
                or getattr(root, "name", "?")
            )
            name = f"{owner}.field{base.field_index}"
        else:
            name = (
                getattr(base, "var_name", None)
                or getattr(base, "name", "?")
            )
        if idx < 0 or idx > length:
            out.append(
                Diagnostic(
                    "error",
                    "oob-gep",
                    function.name,
                    inst.block.label if inst.block else "?",
                    f"constant index {idx} out of bounds for "
                    f"'{name}[{length}]'",
                    inst,
                )
            )
        elif idx == length and id(inst) in dereferenced:
            out.append(
                Diagnostic(
                    "error",
                    "oob-gep",
                    function.name,
                    inst.block.label if inst.block else "?",
                    f"one-past-the-end index {idx} of '{name}[{length}]' "
                    "is dereferenced",
                    inst,
                )
            )
    return out


def _static_array_length(base) -> Optional[int]:
    if isinstance(base, Alloca) and base.is_static():
        allocated = base.allocated_type
    elif isinstance(base, GlobalVariable):
        allocated = base.value_type
    elif isinstance(base, FieldPtr):
        # ``s.arr[i]`` lowers to ``elemptr(fieldptr(s, k), i)``: the
        # fieldptr's pointee carries the nested array's static length,
        # as long as the chain bottoms out in checkable storage.
        if _static_root(base) is None:
            return None
        allocated = base.ctype.pointee
    else:
        return None
    if allocated is not None and allocated.is_array():
        return allocated.length
    return None


def _static_root(base, depth: int = 0):
    """The statically-sized alloca/global a gep chain roots at, else None."""
    if depth > 32:
        return None
    if isinstance(base, Alloca):
        return base if base.is_static() else None
    if isinstance(base, GlobalVariable):
        return base
    if isinstance(base, (ElemPtr, FieldPtr)):
        return _static_root(base.operands[0], depth + 1)
    return None


def check_unbounded_taint_copy(facts: FunctionFacts) -> List[Diagnostic]:
    """Tainted source into a copy builtin with no dominating guard.

    A copy call is *guarded* when some strictly-dominating block ends in
    a conditional branch whose condition involves a tainted value — the
    shape every real bounds check on attacker-derived lengths takes in
    this IR (``if (n > CAP) ...`` where ``n`` came off the wire).  A
    tainted-source copy with no such dominator runs with whatever length
    and content the input supplied, on every path.
    """
    function = facts.function
    has_copy = any(
        isinstance(inst, Call) and inst.callee_name() in COPY_BUILTINS
        for inst in function.instructions()
    )
    if not has_copy:
        return []
    taint = facts.input_taint
    domtree = facts.dominators

    def guarded(block) -> bool:
        for candidate in function.blocks:
            if candidate is block:
                continue
            if not domtree.dominates(candidate, block):
                continue
            terminator = candidate.terminator()
            if not isinstance(terminator, CondBr):
                continue
            state = taint.result.block_out.get(candidate, frozenset())
            cond = terminator.cond
            probes = list(getattr(cond, "operands", ())) or [cond]
            if any(taint._is_tainted(op, state) for op in probes):
                return True
        return False

    out: List[Diagnostic] = []
    for block in function.blocks:
        for inst, state in taint.result.states_in(block):
            if not isinstance(inst, Call):
                continue
            name = inst.callee_name()
            if name not in COPY_BUILTINS or not inst.args:
                continue
            tainted_sources = []
            for op in inst.args[1:]:
                root = pointer_root(op)
                if taint._is_tainted(op, state) or (
                    root is not None and mem(root) in state
                ):
                    source = (
                        getattr(root, "var_name", None)
                        or getattr(op, "name", None)
                        or "?"
                    )
                    tainted_sources.append(source)
            if not tainted_sources or guarded(block):
                continue
            out.append(
                Diagnostic(
                    "warning",
                    "unbounded-taint-copy",
                    function.name,
                    block.label,
                    f"'{name}' copies tainted source "
                    f"'{tainted_sources[0]}' with no dominating bounds "
                    "check",
                    inst,
                )
            )
    return out


def lint_function(facts: FunctionFacts) -> List[Diagnostic]:
    """Every lint diagnostic of the function ``facts`` describes (the
    copy check reads its seeded input taint)."""
    function = facts.function
    return (
        check_uninitialized_loads(function)
        + check_constant_geps(function)
        + check_unbounded_taint_copy(facts)
    )


def lint_module(program: ProgramFacts) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for function in program.functions():
        out.extend(lint_function(program.of(function)))
    return out
