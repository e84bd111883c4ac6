"""Goal-directed gadget-chain planning (the attack compiler's middle end).

Given a goal predicate and a program's facts, the planner searches the
shared gadget census for an instruction sequence that achieves the goal
*within the legitimate control flow*, and emits an :class:`AttackPlan`:
an ordered list of strikes, each a set of symbolic slot writes.

The search is expression-driven.  Every gadget operand (a send's pointer
and length, a mover's target and value) is rebuilt as an expression tree
over *slot reads* — the attacker-writable unknowns — then solved
backward against the wanted value, threading a bit mask down through
``and``/``shift``/``trunc`` nodes.  Branch conditions dominating the
gadget contribute additional constraints (or avoid-sets for ``!=``
guards), so the resulting writes both aim the gadget and steer execution
to it.  Constraints on *globals* recurse: a mover gadget whose pointer
can be solved to the global's address becomes a staging strike.

The planner is defense-independent: writes are symbolic (frame + slot +
masked value pieces), and :mod:`repro.synth.concretize` maps them to
payload bytes per deployed defense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    Cmp,
    CondBr,
    ElemPtr,
    Instruction,
    Load,
    Store,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Argument, Constant, GlobalVariable, Value
from repro.opt.cfg import DominatorTree
from repro.synth.channels import OverflowChannel, strip_casts
from repro.synth.facts import FunctionFacts, ProgramFacts
from repro.synth.goals import CorruptGoal, ExfilGoal, Goal

WORD_MASK = (1 << 64) - 1

SEND_CALLEES = ("output_bytes", "print_str")


# --------------------------------------------------------------------------
# symbolic values
# --------------------------------------------------------------------------


class Term:
    """A 64-bit value the concretizer can realize against a build."""

    def resolve(self, address_of) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstTerm(Term):
    value: int

    def resolve(self, address_of) -> int:
        return self.value & WORD_MASK

    def __repr__(self) -> str:
        return hex(self.value)


@dataclass(frozen=True)
class AddrTerm(Term):
    """``(address_of(global) + add) << lshift``."""

    global_name: str
    add: int = 0
    lshift: int = 0

    def resolve(self, address_of) -> int:
        return ((address_of(self.global_name) + self.add) << self.lshift) & WORD_MASK

    def __repr__(self) -> str:
        text = f"&{self.global_name}"
        if self.add:
            text += f"+{self.add}"
        if self.lshift:
            text = f"({text})<<{self.lshift}"
        return text


def shift_term(term: Term, by: int) -> Optional[Term]:
    """``term << by`` (negative = right shift), when representable."""
    if isinstance(term, ConstTerm):
        value = term.value << by if by >= 0 else term.value >> -by
        return ConstTerm(value & WORD_MASK)
    if isinstance(term, AddrTerm):
        shifted = term.lshift + by
        if shifted < 0:
            return None
        return AddrTerm(term.global_name, term.add, shifted)
    return None


# --------------------------------------------------------------------------
# expressions over slot reads
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EConst:
    value: int


@dataclass(frozen=True)
class ESlot:
    function: str
    slot: str


@dataclass(frozen=True)
class EGlobal:
    name: str


@dataclass(frozen=True)
class EGlobalAddr:
    name: str


@dataclass(frozen=True)
class EUnknown:
    why: str


@dataclass(frozen=True)
class EOp:
    op: str
    lhs: object
    rhs: object = None


Expr = object


def build_expr(
    facts: ProgramFacts,
    function: Function,
    value: Value,
    site: Optional[Instruction],
    depth: int = 0,
) -> Expr:
    """Expression of ``value`` in terms of slot/global reads at ``site``.

    Loads of slots forward through a *preceding same-block store* (the
    compiler-temp pattern: ``dst = col >> 8; ... *dst = ...``), so the
    solver sees the original slot read instead of the temp.
    """
    if depth > 24:
        return EUnknown("depth")
    if isinstance(value, Constant):
        if isinstance(value.value, int):
            return EConst(value.value)
        return EUnknown("non-int constant")
    if isinstance(value, GlobalVariable):
        return EGlobalAddr(value.name)
    if isinstance(value, Cast):
        if value.kind == "trunc":
            width = getattr(value.ctype, "size", None)
            size = width() if callable(width) else width
            if isinstance(size, int) and size < 8:
                return EOp(
                    "and",
                    build_expr(facts, function, value.value, site, depth + 1),
                    EConst((1 << (8 * size)) - 1),
                )
        return build_expr(facts, function, value.value, site, depth + 1)
    if isinstance(value, Load):
        pointer = strip_casts(value.pointer)
        if isinstance(pointer, Alloca):
            slot = facts.slot_of(function, pointer)
            forwarded = _forwarded_store(function, pointer, value if site is None else site, value)
            if forwarded is not None:
                return build_expr(facts, function, forwarded, site, depth + 1)
            if slot is not None:
                return ESlot(function.name, slot)
            return EUnknown("unnamed slot")
        if isinstance(pointer, GlobalVariable):
            return EGlobal(pointer.name)
        return EUnknown("indirect load")
    if isinstance(value, BinOp):
        return EOp(
            value.op,
            build_expr(facts, function, value.lhs, site, depth + 1),
            build_expr(facts, function, value.rhs, site, depth + 1),
        )
    if isinstance(value, Argument):
        return EUnknown(f"argument {value.name}")
    return EUnknown(type(value).__name__)


def _forwarded_store(
    function: Function,
    alloca: Alloca,
    site: Instruction,
    load: Instruction,
) -> Optional[Value]:
    """The value of the nearest store to ``alloca`` before ``load``.

    Same-block only — across blocks the slot is treated as a free
    unknown (which is what makes it attacker-writable).
    """
    block = getattr(load, "block", None)
    if block is None:
        return None
    candidate: Optional[Value] = None
    for inst in block.instructions:
        if inst is load:
            break
        if isinstance(inst, Store) and strip_casts(inst.pointer) is alloca:
            candidate = inst.value
        if isinstance(inst, Call):
            # a call may rewrite the slot through an escaped pointer;
            # stay conservative and drop the forwarding
            candidate = None if candidate is not None else candidate
    return candidate


def expr_slots(expr: Expr) -> Set[Tuple[str, str]]:
    if isinstance(expr, ESlot):
        return {(expr.function, expr.slot)}
    if isinstance(expr, EOp):
        out = expr_slots(expr.lhs)
        if expr.rhs is not None:
            out |= expr_slots(expr.rhs)
        return out
    return set()


# --------------------------------------------------------------------------
# constraints
# --------------------------------------------------------------------------


@dataclass
class SlotConstraint:
    """Bit-piece constraints on one location (slot or global)."""

    pieces: List[Tuple[int, Term]] = field(default_factory=list)
    avoid: List[Tuple[int, int]] = field(default_factory=list)  # (mask, value)

    def add_piece(self, mask: int, term: Term) -> bool:
        mask &= WORD_MASK
        if mask == 0:
            return True
        for existing_mask, existing_term in self.pieces:
            overlap = existing_mask & mask
            if not overlap:
                continue
            if (
                isinstance(term, ConstTerm)
                and isinstance(existing_term, ConstTerm)
                and (term.value & overlap) == (existing_term.value & overlap)
            ):
                continue  # agreeing constants may overlap
            return False
        self.pieces.append((mask, term))
        return True

    def concrete_value(self) -> Optional[int]:
        """The constrained value when every piece is a constant."""
        value = 0
        covered = 0
        for mask, term in self.pieces:
            if not isinstance(term, ConstTerm):
                return None
            value |= term.value & mask
            covered |= mask
        if covered != WORD_MASK:
            return None
        return value & WORD_MASK


Location = Tuple[str, str, str]  # ("slot", function, name) | ("global", name, "")


def slot_loc(function: str, slot: str) -> Location:
    return ("slot", function, slot)


def global_loc(name: str) -> Location:
    return ("global", name, "")


class ConstraintSet:
    """Accumulated location constraints for one strike."""

    def __init__(self) -> None:
        self.by_location: Dict[Location, SlotConstraint] = {}
        self.trigger: Set[Location] = set()

    def constraint(self, location: Location) -> SlotConstraint:
        if location not in self.by_location:
            self.by_location[location] = SlotConstraint()
        return self.by_location[location]

    def add(self, location: Location, mask: int, term: Term) -> bool:
        return self.constraint(location).add_piece(mask, term)

    def add_avoid(self, location: Location, mask: int, value: int) -> None:
        self.constraint(location).avoid.append((mask & WORD_MASK, value))

    def mark_trigger(self, location: Location) -> None:
        self.trigger.add(location)

    def merge(self, other: "ConstraintSet") -> bool:
        for location, constraint in other.by_location.items():
            target = self.constraint(location)
            for mask, term in constraint.pieces:
                if not target.add_piece(mask, term):
                    return False
            target.avoid.extend(constraint.avoid)
        self.trigger |= other.trigger
        return True

    def check_avoids(self) -> bool:
        for constraint in self.by_location.values():
            for mask, avoid_value in constraint.avoid:
                concrete = 0
                covered = 0
                for piece_mask, term in constraint.pieces:
                    if isinstance(term, ConstTerm):
                        concrete |= term.value & piece_mask
                        covered |= piece_mask
                if covered & mask == mask and (concrete & mask) == (
                    avoid_value & mask
                ):
                    return False
        return True


def solve(
    expr: Expr, want: Term, mask: int, out: ConstraintSet
) -> bool:
    """Constrain free locations so ``expr & mask == want & mask``."""
    mask &= WORD_MASK
    if mask == 0:
        return True
    if isinstance(expr, EConst):
        if isinstance(want, ConstTerm):
            return (expr.value & mask) == (want.value & mask)
        return False  # constant vs address: undecidable statically
    if isinstance(expr, ESlot):
        return out.add(slot_loc(expr.function, expr.slot), mask, want)
    if isinstance(expr, EGlobal):
        return out.add(global_loc(expr.name), mask, want)
    if isinstance(expr, EGlobalAddr):
        return isinstance(want, AddrTerm) and want == AddrTerm(expr.name)
    if isinstance(expr, EOp):
        return _solve_op(expr, want, mask, out)
    return False


def _solve_op(expr: EOp, want: Term, mask: int, out: ConstraintSet) -> bool:
    op = expr.op
    lhs, rhs = expr.lhs, expr.rhs
    if op == "and":
        for a, b in ((lhs, rhs), (rhs, lhs)):
            if isinstance(b, EConst):
                if isinstance(want, ConstTerm) and (want.value & mask & ~b.value):
                    return False  # wants bits the mask clears
                return solve(a, want, mask & b.value, out)
        return False
    if op == "or":
        for a, b in ((lhs, rhs), (rhs, lhs)):
            if isinstance(b, EConst):
                if b.value & mask == 0:
                    return solve(a, want, mask, out)
                if isinstance(want, ConstTerm):
                    if (want.value & mask & b.value) != (b.value & mask):
                        return False
                    return solve(a, want, mask & ~b.value, out)
        return False
    if op == "xor":
        for a, b in ((lhs, rhs), (rhs, lhs)):
            if isinstance(b, EConst) and isinstance(want, ConstTerm):
                return solve(a, ConstTerm(want.value ^ b.value), mask, out)
        return False
    if op in ("shl",):
        shift = _const_of(rhs)
        if shift is None or shift < 0 or shift > 63:
            return False
        shifted_want = shift_term(want, -shift)
        if shifted_want is None:
            return False
        return solve(lhs, shifted_want, (mask >> shift), out)
    if op in ("lshr", "ashr"):
        shift = _const_of(rhs)
        if shift is None or shift < 0 or shift > 63:
            return False
        shifted_want = shift_term(want, shift)
        if shifted_want is None:
            return False
        return solve(lhs, shifted_want, (mask << shift) & WORD_MASK, out)
    if op in ("add", "sub"):
        if mask != WORD_MASK:
            return False  # masked addition does not distribute
        lhs_const, rhs_const = _const_of(lhs), _const_of(rhs)
        if op == "add" and lhs_const is not None:
            lhs, rhs, lhs_const, rhs_const = rhs, lhs, rhs_const, lhs_const
        if rhs_const is not None:
            # x + c == want  ->  x == want - c   (sub: x == want + c)
            delta = rhs_const if op == "sub" else -rhs_const
            shifted = _offset_term(want, delta)
            if shifted is None:
                return False
            return solve(lhs, shifted, mask, out)
        if op == "sub" and lhs_const is not None and isinstance(want, ConstTerm):
            # c - x == want  ->  x == c - want
            return solve(
                rhs, ConstTerm((lhs_const - want.value) & WORD_MASK), mask, out
            )
        return False
    return False


def _offset_term(term: Term, delta: int) -> Optional[Term]:
    if isinstance(term, ConstTerm):
        return ConstTerm((term.value + delta) & WORD_MASK)
    if isinstance(term, AddrTerm) and term.lshift == 0:
        return AddrTerm(term.global_name, term.add + delta, 0)
    return None


def _const_of(expr: Expr) -> Optional[int]:
    if isinstance(expr, EConst):
        return expr.value
    return None


# --------------------------------------------------------------------------
# concrete evaluation (for ordered-comparison guards)
# --------------------------------------------------------------------------


def eval_expr(
    expr: Expr, env: Dict[Tuple[str, str], int], globals_env: Dict[str, int]
) -> Optional[int]:
    if isinstance(expr, EConst):
        return expr.value & WORD_MASK
    if isinstance(expr, ESlot):
        return env.get((expr.function, expr.slot))
    if isinstance(expr, EGlobal):
        return globals_env.get(expr.name)
    if isinstance(expr, EOp):
        a = eval_expr(expr.lhs, env, globals_env)
        b = eval_expr(expr.rhs, env, globals_env) if expr.rhs is not None else None
        if a is None or (expr.rhs is not None and b is None):
            return None
        ops = {
            "add": lambda: a + b,
            "sub": lambda: a - b,
            "and": lambda: a & b,
            "or": lambda: a | b,
            "xor": lambda: a ^ b,
            "shl": lambda: a << (b & 63),
            "lshr": lambda: a >> (b & 63),
            "ashr": lambda: _signed(a) >> (b & 63),
        }
        handler = ops.get(expr.op)
        if handler is None:
            return None
        return handler() & WORD_MASK
    return None


def _signed(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 64) if value >> 63 else value


# --------------------------------------------------------------------------
# guards
# --------------------------------------------------------------------------


@dataclass
class Guard:
    compare: Cmp
    want_true: bool


def guards_for(
    facts: FunctionFacts, site_block: BasicBlock
) -> Optional[List[Guard]]:
    """Branch conditions every path to ``site_block`` must satisfy, read
    off the bundle's dominator tree and reachable set; the planners read
    the result through :meth:`FunctionFacts.guards`."""
    tree = facts.dominators
    reachable = facts.reachable
    if site_block not in reachable:
        return None
    guards: List[Guard] = []
    for block in facts.function.blocks:
        if block not in reachable or block is site_block:
            continue
        terminator = block.terminator()
        if not isinstance(terminator, CondBr):
            continue
        if not tree.dominates(block, site_block):
            continue
        true_leads = _leads_to(terminator.true_target, site_block, tree)
        false_leads = _leads_to(terminator.false_target, site_block, tree)
        if true_leads == false_leads:
            continue  # both paths rejoin before the site: no constraint
        compare = _unwrap_condition(terminator.cond)
        if compare is None:
            return None  # opaque dominating branch: cannot steer
        guards.append(Guard(compare, want_true=true_leads))
    return guards


def _leads_to(successor: BasicBlock, site: BasicBlock, tree: DominatorTree) -> bool:
    return successor is site or tree.dominates(successor, site)


def _unwrap_condition(cond: Value) -> Optional[Cmp]:
    cond = strip_casts(cond)
    if isinstance(cond, Cmp):
        # frontend shape: cmp[ne](inner, 0) — unwrap to the real compare
        if cond.op == "ne":
            rhs = strip_casts(cond.rhs)
            inner = strip_casts(cond.lhs)
            if (
                isinstance(rhs, Constant)
                and rhs.value == 0
                and isinstance(inner, Cmp)
            ):
                return inner
        return cond
    return None


# --------------------------------------------------------------------------
# the plan
# --------------------------------------------------------------------------


@dataclass
class SlotWrite:
    """One symbolic write the concretizer must land."""

    frame: str  # "victim" | "caller"
    slot: str
    pieces: List[Tuple[int, Term]]
    trigger: bool = False

    def describe(self) -> str:
        parts = ", ".join(f"{hex(m)}:{t!r}" for m, t in self.pieces)
        tag = " (trigger)" if self.trigger else ""
        return f"{self.frame}.{self.slot} <- {parts}{tag}"


@dataclass
class Strike:
    writes: List[SlotWrite]
    label: str = ""


@dataclass
class AttackPlan:
    goal: Goal
    channel: OverflowChannel
    strikes: List[Strike]

    def describe(self) -> str:
        lines = [f"goal: {self.goal.describe()}", f"channel: {self.channel.describe()}"]
        for index, strike in enumerate(self.strikes):
            lines.append(f"strike {index + 1} ({strike.label}):")
            for write in strike.writes:
                lines.append(f"  {write.describe()}")
        return "\n".join(lines)

    def predicted_corruptions(self) -> List[Tuple[str, str, int]]:
        """Fully-constant predictions: (function, slot, 64-bit value)."""
        out = []
        for strike in self.strikes:
            for write in strike.writes:
                constraint = SlotConstraint()
                for mask, term in write.pieces:
                    constraint.add_piece(mask, term)
                value = constraint.concrete_value()
                if value is not None:
                    function = (
                        self.channel.function.name
                        if write.frame == "victim"
                        else self.channel.caller.function.name
                    )
                    out.append((function, write.slot, value))
        return out


# --------------------------------------------------------------------------
# planning
# --------------------------------------------------------------------------


class Planner:
    def __init__(self, facts: ProgramFacts):
        self.facts = facts
        self.channels = facts.channels()

    # -- public -----------------------------------------------------------

    def plan(self, goal: Goal) -> Optional[AttackPlan]:
        for channel in self.channels:
            plan = self._plan_on_channel(goal, channel)
            if plan is not None:
                return plan
        return None

    # -- helpers ----------------------------------------------------------

    def _plan_on_channel(
        self, goal: Goal, channel: OverflowChannel
    ) -> Optional[AttackPlan]:
        if isinstance(goal, CorruptGoal):
            return self._plan_corrupt(goal, channel)
        if isinstance(goal, ExfilGoal):
            return self._plan_exfil(goal, channel)
        return None

    def _frame_of(
        self, channel: OverflowChannel, function_name: str
    ) -> Optional[str]:
        if function_name == channel.function.name:
            return "victim"
        if (
            channel.caller is not None
            and function_name == channel.caller.function.name
        ):
            return "caller"
        return None

    def _constraints_to_writes(
        self, channel: OverflowChannel, constraints: ConstraintSet
    ) -> Optional[Tuple[List[SlotWrite], List[Tuple[str, int]]]]:
        """Map location constraints onto the channel's two frames.

        Returns (writes, global subgoals).  Global subgoals are values
        that must be staged into globals by earlier strikes.
        """
        writes: List[SlotWrite] = []
        global_goals: List[Tuple[str, int]] = []
        if not constraints.check_avoids():
            return None
        layout = self.facts.layout(channel.function)
        buffer_lo = layout.slot(channel.buffer).lo
        for location, constraint in constraints.by_location.items():
            if not constraint.pieces:
                continue
            kind = location[0]
            if kind == "global":
                value = constraint.concrete_value()
                if value is None:
                    return None
                global_goals.append((location[1], value))
                continue
            _, function_name, slot = location
            frame = self._frame_of(channel, function_name)
            if frame is None:
                return None
            if frame == "victim":
                try:
                    gap = layout.slot(slot).lo - buffer_lo
                except KeyError:
                    return None
                if gap < 0 or slot == channel.buffer:
                    return None  # below the buffer: a linear overflow cannot reach
                if gap + 8 > channel.write_limit:
                    return None
            else:
                caller_layout = self.facts.layout(channel.caller.function)
                try:
                    caller_slot = caller_layout.slot(slot)
                except KeyError:
                    return None
                from repro.analysis.reach import frame_height

                gap = caller_slot.lo + frame_height(caller_layout) - buffer_lo
                if gap + 8 > channel.write_limit:
                    return None
                if channel.echo is None or channel.echo.length < gap + 8:
                    if channel.style != "cursor":
                        return None  # crossing blind: cookie unknown
            writes.append(
                SlotWrite(
                    frame,
                    slot,
                    list(constraint.pieces),
                    trigger=location in constraints.trigger,
                )
            )
        return writes, global_goals

    def _guard_constraints(
        self,
        function: Function,
        site_block: BasicBlock,
        constraints: ConstraintSet,
        planned_env: Dict[Tuple[str, str], int],
    ) -> bool:
        guards = self.facts.of(function).guards(site_block)
        if guards is None:
            return False
        const_inits, globals_env = self.facts.guard_env()
        init_env = {**const_inits, **planned_env}  # planned values win
        for guard in guards:
            if not self._apply_guard(guard, function, constraints, init_env, globals_env):
                return False
        return True

    def _apply_guard(
        self,
        guard: Guard,
        function: Function,
        constraints: ConstraintSet,
        env: Dict[Tuple[str, str], int],
        globals_env: Dict[str, int],
    ) -> bool:
        compare = guard.compare
        lhs = self.facts.expr(function, compare.lhs, compare)
        rhs = self.facts.expr(function, compare.rhs, compare)
        op = compare.op
        want_equal = (op == "eq") == guard.want_true
        if op in ("eq", "ne"):
            for free, bound in ((lhs, rhs), (rhs, lhs)):
                if expr_slots(free) or isinstance(free, EGlobal):
                    term = self._term_of(bound, env, globals_env)
                    if term is None:
                        continue
                    if want_equal:
                        marked = ConstraintSet()
                        if not solve(free, term, WORD_MASK, marked):
                            return False
                        for location in marked.by_location:
                            marked.mark_trigger(location)
                        return constraints.merge(marked)
                    if isinstance(term, ConstTerm) and isinstance(free, ESlot):
                        constraints.add_avoid(
                            slot_loc(free.function, free.slot),
                            WORD_MASK,
                            term.value,
                        )
                        return True
                    return True  # inequality with a non-slot side: hope
            # neither side solvable: evaluate concretely if possible
            a = eval_expr(lhs, env, globals_env)
            b = eval_expr(rhs, env, globals_env)
            if a is not None and b is not None:
                return (a == b) == want_equal
            return True
        # ordered comparison: evaluate with planned+initial values; if
        # undecidable, accept optimistically (the VM run is the judge).
        a = eval_expr(lhs, env, globals_env)
        b = eval_expr(rhs, env, globals_env)
        if a is None or b is None:
            return True
        table = {
            "slt": _signed(a) < _signed(b),
            "sle": _signed(a) <= _signed(b),
            "sgt": _signed(a) > _signed(b),
            "sge": _signed(a) >= _signed(b),
            "ult": a < b,
            "ule": a <= b,
            "ugt": a > b,
            "uge": a >= b,
        }
        if op not in table:
            return True
        return table[op] == guard.want_true

    def _term_of(
        self,
        expr: Expr,
        env: Dict[Tuple[str, str], int],
        globals_env: Dict[str, int],
    ) -> Optional[Term]:
        if isinstance(expr, EGlobalAddr):
            return AddrTerm(expr.name)
        value = eval_expr(expr, env, globals_env)
        if value is not None:
            return ConstTerm(value)
        return None

    # -- corrupt goal ------------------------------------------------------

    def _plan_corrupt(
        self, goal: CorruptGoal, channel: OverflowChannel
    ) -> Optional[AttackPlan]:
        frame = self._frame_of(channel, goal.function)
        if frame is None:
            return None
        constraints = ConstraintSet()
        if not constraints.add(
            slot_loc(goal.function, goal.slot), WORD_MASK, ConstTerm(goal.value)
        ):
            return None
        mapped = self._constraints_to_writes(channel, constraints)
        if mapped is None:
            return None
        writes, global_goals = mapped
        if global_goals or not writes:
            return None
        return AttackPlan(goal, channel, [Strike(writes, label="corrupt")])

    # -- exfil goal --------------------------------------------------------

    def _plan_exfil(
        self, goal: ExfilGoal, channel: OverflowChannel
    ) -> Optional[AttackPlan]:
        needle = goal.needle
        location = self.facts.find_needle(needle)
        staging_strikes: List[Strike] = []
        if location is None:
            staged = self._stage_needle(channel, needle)
            if staged is None:
                return None
            location, staging_strikes = staged
        plan_tail = self._send_strikes(channel, location, len(needle))
        if plan_tail is None:
            return None
        return AttackPlan(goal, channel, staging_strikes + plan_tail)

    def _send_strikes(
        self, channel: OverflowChannel, location, needle_length: int
    ) -> Optional[List[Strike]]:
        """Strikes that make some send site emit the located needle."""
        global_name, offset = location
        for function in self.facts.functions():
            if self._frame_of(channel, function.name) is None:
                continue
            for inst in self.facts.of(function).calls:
                if inst.callee_name() not in SEND_CALLEES:
                    continue
                strikes = self._solve_send_site(
                    channel, function, inst, global_name, offset, needle_length
                )
                if strikes is not None:
                    return strikes
        return None

    def _solve_send_site(
        self,
        channel: OverflowChannel,
        function: Function,
        site: Call,
        global_name: str,
        offset: int,
        needle_length: int,
    ) -> Optional[List[Strike]]:
        constraints = ConstraintSet()
        pointer_expr = self.facts.expr(function, site.args[0], site)
        needed_length = offset + needle_length

        if isinstance(pointer_expr, EGlobalAddr):
            if pointer_expr.name != global_name:
                return None
        elif not solve(
            pointer_expr, AddrTerm(global_name, offset), WORD_MASK, constraints
        ):
            return None

        if len(site.args) > 1:
            length_expr = self.facts.expr(function, site.args[1], site)
            length_const = (
                length_expr.value if isinstance(length_expr, EConst) else None
            )
            if length_const is not None:
                if length_const < needed_length:
                    return None
            elif not solve(
                length_expr, ConstTerm(needed_length), WORD_MASK, constraints
            ):
                return None

        planned_env = self._planned_env(constraints)
        if not self._guard_constraints(
            function, site.block, constraints, planned_env
        ):
            return None
        mapped = self._constraints_to_writes(channel, constraints)
        if mapped is None:
            return None
        writes, global_goals = mapped

        strikes: List[Strike] = []
        for staged_global, staged_value in global_goals:
            stage = self._stage_global(channel, staged_global, staged_value)
            if stage is None:
                return None
            strikes.extend(stage)
        if writes:
            strikes.append(Strike(writes, label=f"send@{function.name}"))
        elif not strikes:
            return None  # nothing to do: the send would fire anyway (or never)
        return strikes

    def _planned_env(self, constraints: ConstraintSet) -> Dict[Tuple[str, str], int]:
        env: Dict[Tuple[str, str], int] = {}
        for location, constraint in constraints.by_location.items():
            if location[0] != "slot":
                continue
            value = constraint.concrete_value()
            if value is not None:
                env[(location[1], location[2])] = value
        return env

    def _stage_global(
        self, channel: OverflowChannel, global_name: str, value: int
    ) -> Optional[List[Strike]]:
        """Strikes making a mover gadget write ``value`` to the global."""
        variable = self.facts.global_variable(global_name)
        if variable is None or variable.readonly:
            return None
        return self._mover_strikes(channel, AddrTerm(global_name), ConstTerm(value))

    def _stage_needle(
        self, channel: OverflowChannel, needle: bytes
    ) -> Optional[Tuple[Tuple[str, int], List[Strike]]]:
        """Write the needle into a writable scratch global via a mover."""
        if len(needle) > 8:
            return None  # one mover word; longer needles need a resident copy
        scratch = self.facts.scratch_global(len(needle))
        if scratch is None:
            return None
        word = int.from_bytes(needle.ljust(8, b"\x00"), "little")
        strikes = self._mover_strikes(channel, AddrTerm(scratch), ConstTerm(word))
        if strikes is None:
            return None
        return (scratch, 0), strikes

    def _mover_strikes(
        self, channel: OverflowChannel, target: AddrTerm, value: Term
    ) -> Optional[List[Strike]]:
        for function in self.facts.functions():
            if self._frame_of(channel, function.name) is None:
                continue
            for hit in self.facts.sinks(function):
                if hit.kind != "mover":
                    continue
                store = hit.instruction
                constraints = ConstraintSet()
                pointer_expr = self.facts.expr(function, store.pointer, store)
                if not solve(pointer_expr, target, WORD_MASK, constraints):
                    continue
                value_expr = self.facts.expr(function, store.value, store)
                if not solve(value_expr, value, WORD_MASK, constraints):
                    continue
                planned_env = self._planned_env(constraints)
                if not self._guard_constraints(
                    function, store.block, constraints, planned_env
                ):
                    continue
                mapped = self._constraints_to_writes(channel, constraints)
                if mapped is None:
                    continue
                writes, global_goals = mapped
                if global_goals or not writes:
                    continue
                return [Strike(writes, label=f"stage@{function.name}")]
        return None


def synthesize(
    facts: ProgramFacts, goal: Goal
) -> Optional[AttackPlan]:
    """Plan an attack achieving ``goal`` against the program, if any."""
    return Planner(facts).plan(goal)
