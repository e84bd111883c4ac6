"""Value-range abstract interpretation: the interval domain.

The finite set lattices in :mod:`repro.analysis.dataflow` cannot answer
the question the selective-hardening pipeline needs — "can this index
ever reach 64?" — because value ranges form an *infinite*-height
lattice.  This module supplies that domain:

* :class:`Interval` — ``[lo, hi]`` with ``±inf`` endpoints, the classic
  join/meet/widen/narrow operators, and sound integer arithmetic that
  falls back to the full machine-type range on possible wraparound;
* :class:`IntervalEnvLattice` — an environment lattice mapping SSA
  values and tracked scalar stack slots to intervals (absent key =
  "anything of that type"), with pointwise widening so the generic
  worklist solver terminates;
* :class:`IntervalAnalysis` — the forward problem.  It tracks scalar
  ``alloca`` slots whose address is used *only* as a direct load/store
  pointer (so no alias can touch them behind the analysis' back),
  interprets the VM's write builtins, clobbers tracked slots on any
  write it cannot prove confined to some other object, and refines
  intervals along branch edges via :meth:`ForwardProblem.edge_state`
  (``i < n`` on the true edge bounds ``i`` even when widening has blown
  the loop head to ``[0, +inf]``).

:func:`resolve_pointer` — shared with :mod:`repro.analysis.safety` —
folds ``elemptr``/``fieldptr``/``bitcast`` chains into a *(root object,
byte-offset interval)* pair, the form in which bounds proofs are
stated.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set, Tuple

from repro.analysis.dataflow import ForwardProblem, Lattice, solve_forward
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Call,
    Cast,
    Cmp,
    CondBr,
    ElemPtr,
    FieldPtr,
    Instruction,
    Load,
    Phi,
    Select,
    Store,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Argument, Constant, GlobalVariable, Value
from repro.minic import types as ct

NEG_INF = float("-inf")
POS_INF = float("inf")


class Interval:
    """A closed integer interval ``[lo, hi]``; ``lo > hi`` means empty."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    # -- structure -------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        if self.is_empty() and other.is_empty():
            return True
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        if self.is_empty():
            return hash(("interval", "empty"))
        return hash(("interval", self.lo, self.hi))

    def __repr__(self) -> str:
        if self.is_empty():
            return "[empty]"
        return f"[{self.lo}, {self.hi}]"

    def is_empty(self) -> bool:
        return self.lo > self.hi

    def is_top(self) -> bool:
        return self.lo == NEG_INF and self.hi == POS_INF

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def issubset(self, other: "Interval") -> bool:
        if self.is_empty():
            return True
        return other.lo <= self.lo and self.hi <= other.hi

    # -- lattice operators -----------------------------------------------------------

    def join(self, other: "Interval") -> "Interval":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def widen(self, new: "Interval") -> "Interval":
        """``self ∇ new``: jump any growing bound straight to ±inf."""
        if self.is_empty():
            return new
        if new.is_empty():
            return self
        lo = self.lo if new.lo >= self.lo else NEG_INF
        hi = self.hi if new.hi <= self.hi else POS_INF
        return Interval(lo, hi)

    def narrow(self, new: "Interval") -> "Interval":
        """Replace infinite bounds of ``self`` with ``new``'s (both sound)."""
        if self.is_empty() or new.is_empty():
            return self
        lo = new.lo if self.lo == NEG_INF else self.lo
        hi = new.hi if self.hi == POS_INF else self.hi
        return Interval(lo, hi)

    # -- arithmetic ------------------------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        if self.is_empty() or other.is_empty():
            return EMPTY
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def sub(self, other: "Interval") -> "Interval":
        if self.is_empty() or other.is_empty():
            return EMPTY
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def mul(self, other: "Interval") -> "Interval":
        if self.is_empty() or other.is_empty():
            return EMPTY
        corners = [
            _mul_bound(a, b)
            for a in (self.lo, self.hi)
            for b in (other.lo, other.hi)
        ]
        return Interval(min(corners), max(corners))

    def scale(self, factor: int) -> "Interval":
        """Multiply by a known non-negative constant (gep scaling)."""
        if self.is_empty():
            return EMPTY
        if factor == 0:
            return Interval(0, 0)
        return Interval(_mul_bound(self.lo, factor), _mul_bound(self.hi, factor))


def _mul_bound(a, b):
    if a == 0 or b == 0:
        return 0  # avoids inf * 0 -> nan
    return a * b


TOP = Interval(NEG_INF, POS_INF)
EMPTY = Interval(POS_INF, NEG_INF)


def const_interval(value: int) -> Interval:
    return Interval(value, value)


def type_range(ctype: ct.CType) -> Interval:
    """Every value an object of ``ctype`` can hold (TOP if not an int)."""
    if isinstance(ctype, ct.IntType):
        return Interval(ctype.min_value(), ctype.max_value())
    return TOP


# ---------------------------------------------------------------------------
# Abstract state: SSA values + tracked slots + witness map.
# ---------------------------------------------------------------------------


class _Unreachable:
    """Bottom of the environment lattice: control never gets here."""

    def __repr__(self) -> str:
        return "<unreachable>"


UNREACHABLE = _Unreachable()


class IntervalState:
    """values: SSA value -> interval; slots: tracked alloca -> content
    interval; witness: tracked alloca -> SSA value currently equal to its
    content (lets a branch on the loaded value refine the slot).

    Absent keys mean "full type range", and entries equal to that
    default are never stored, so equal states compare equal.
    """

    __slots__ = ("values", "slots", "witness")

    def __init__(
        self,
        values: Dict[Value, Interval],
        slots: Dict[Alloca, Interval],
        witness: Dict[Alloca, Value],
    ):
        self.values = values
        self.slots = slots
        self.witness = witness

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntervalState):
            return NotImplemented
        return (
            self.values == other.values
            and self.slots == other.slots
            and self.witness == other.witness
        )

    def __hash__(self):  # pragma: no cover - states are not dict keys
        raise TypeError("IntervalState is unhashable")

    def __repr__(self) -> str:
        vals = {getattr(k, "name", "?") or "?": v for k, v in self.values.items()}
        slots = {
            (k.var_name or k.name or "?"): v for k, v in self.slots.items()
        }
        return f"IntervalState(values={vals}, slots={slots})"


def _normalized(entries: Dict, key, interval: Interval, default: Interval) -> None:
    """Store ``interval`` under ``key`` unless it says nothing new."""
    if interval == default or interval.is_top():
        entries.pop(key, None)
    else:
        entries[key] = interval


class IntervalEnvLattice(Lattice):
    """Pointwise lifting of the interval lattice over environments."""

    def bottom(self):
        return UNREACHABLE

    def join(self, a, b):
        if a is UNREACHABLE:
            return b
        if b is UNREACHABLE:
            return a
        if a is b or a == b:
            return a
        return IntervalState(
            self._join_entries(a.values, b.values, Interval.join),
            self._join_entries(a.slots, b.slots, Interval.join),
            {
                k: v
                for k, v in a.witness.items()
                if b.witness.get(k) is v
            },
        )

    def widen(self, old, new):
        if old is UNREACHABLE:
            return new
        if new is UNREACHABLE:
            return old
        return IntervalState(
            self._join_entries(old.values, new.values, Interval.widen),
            self._join_entries(old.slots, new.slots, Interval.widen),
            {
                k: v
                for k, v in old.witness.items()
                if new.witness.get(k) is v
            },
        )

    def narrow(self, old, new):
        if old is UNREACHABLE or new is UNREACHABLE:
            return new
        values = dict(new.values)
        slots = dict(new.slots)
        for target, source in ((values, old.values), (slots, old.slots)):
            for key, old_iv in source.items():
                new_iv = target.get(key)
                if new_iv is None:
                    # new says "type range"; keep old's finite bounds.
                    default = type_range(_key_type(key))
                    narrowed = old_iv.narrow(default)
                else:
                    narrowed = old_iv.narrow(new_iv)
                _normalized(target, key, narrowed, type_range(_key_type(key)))
        return IntervalState(values, slots, dict(new.witness))

    @staticmethod
    def _join_entries(a: Dict, b: Dict, op) -> Dict:
        out: Dict = {}
        for key, iv in a.items():
            other = b.get(key)
            if other is None:
                continue  # absent = type range; join/widen to it drops the key
            joined = op(iv, other)
            _normalized(out, key, joined, type_range(_key_type(key)))
        return out

    def leq(self, a, b) -> bool:
        if a is UNREACHABLE:
            return True
        if b is UNREACHABLE:
            return False
        for store_a, store_b in ((a.values, b.values), (a.slots, b.slots)):
            for key, iv in store_b.items():
                if not store_a.get(key, type_range(_key_type(key))).issubset(iv):
                    return False
        return True


def _key_type(key) -> ct.CType:
    if isinstance(key, Alloca):
        return key.allocated_type
    return key.ctype


# ---------------------------------------------------------------------------
# Pointer resolution (shared with the safety prover).
# ---------------------------------------------------------------------------


def resolve_pointer(
    value: Value,
    evaluate: Callable[[Value], Interval],
    depth: int = 0,
) -> Tuple[Optional[Value], Interval]:
    """Fold a pointer expression to ``(root, byte-offset interval)``.

    ``root`` is an :class:`Alloca`, :class:`GlobalVariable`,
    :class:`Argument`, or ``None`` when the provenance is unknown (loaded
    pointer, ``inttoptr``, call result).  The offset is relative to the
    start of the root object, in bytes.
    """
    if depth > 64:
        return None, TOP
    if isinstance(value, (Alloca, GlobalVariable, Argument)):
        return value, Interval(0, 0)
    if isinstance(value, ElemPtr):
        root, offset = resolve_pointer(value.base, evaluate, depth + 1)
        index = evaluate(value.index)
        return root, offset.add(index.scale(value.element_type.size()))
    if isinstance(value, FieldPtr):
        root, offset = resolve_pointer(value.base, evaluate, depth + 1)
        return root, offset.add(const_interval(value.byte_offset))
    if isinstance(value, Cast) and value.kind == "bitcast":
        return resolve_pointer(value.value, evaluate, depth + 1)
    return None, TOP


def tracked_scalar_slots(function: Function) -> Set[Alloca]:
    """Static scalar allocas used *only* as direct load/store pointers.

    Nothing can alias such a slot (its address is never taken in any
    other form), so the analysis may keep a strong per-slot interval.
    """
    candidates = {
        alloca
        for alloca in function.static_allocas()
        if alloca.allocated_type.is_integer()
    }
    if not candidates:
        return candidates
    for inst in function.instructions():
        for pos, operand in enumerate(inst.operands):
            if operand in candidates:
                direct = (isinstance(inst, Load) and pos == 0) or (
                    isinstance(inst, Store) and pos == 1
                )
                if not direct:
                    candidates.discard(operand)
    return candidates


# ---------------------------------------------------------------------------
# Builtin write models (lengths in bytes; None = no pointer writes).
# ---------------------------------------------------------------------------

#: builtins that never write through a pointer argument.
READONLY_BUILTINS = frozenset(
    {
        "print_int",
        "print_str",
        "output_bytes",
        "strlen_",
        "strcmp_",
        "input_size",
        "malloc",
        "free",
        "abort_",
        "exit_",
        "io_wait",
        "guest_rand",
        "guest_srand",
        "__ss_rand",
        "__ss_fail",
    }
)

#: builtins that write through argument 0, with a length model.
WRITE_BUILTINS = frozenset(
    {
        "input_read",
        "input_read_unbounded",
        "strcpy_",
        "strncpy_",
        "sstrncpy_",
        "memcpy_",
        "memset_",
        "snprintf_sim",
    }
)

KNOWN_BUILTINS = READONLY_BUILTINS | WRITE_BUILTINS


def builtin_write_extent(
    name: str, call: Call, evaluate: Callable[[Value], Interval]
) -> Optional[Interval]:
    """Byte-extent interval a builtin may write through ``args[0]``.

    ``None`` means the builtin writes nothing; an infinite ``hi`` means
    the write length cannot be bounded statically.  Mirrors the VM
    semantics in :mod:`repro.vm.interpreter` exactly (negative-size
    behaviours included: ``sstrncpy_``/``snprintf_sim`` go unbounded,
    the mem/str builtins fault before writing).
    """
    if name not in WRITE_BUILTINS:
        return None
    args = call.args
    if name == "input_read_unbounded" or name == "strcpy_":
        return Interval(0, POS_INF)
    if name in ("input_read", "strncpy_", "memcpy_", "memset_"):
        index = 1 if name == "input_read" else 2
        if len(args) <= index:
            return Interval(0, POS_INF)
        length = evaluate(args[index])
        hi = max(0, length.hi) if length.hi != POS_INF else POS_INF
        return Interval(0, hi)
    if name == "sstrncpy_":
        if len(args) < 3:
            return Interval(0, POS_INF)
        size = evaluate(args[2])
        if size.lo < 0:
            return Interval(0, POS_INF)  # CVE-2006-5815 path: unbounded
        hi = max(1, size.hi) if size.hi != POS_INF else POS_INF
        return Interval(0, hi)
    if name == "snprintf_sim":
        if len(args) < 2:
            return Interval(0, POS_INF)
        size = evaluate(args[1])
        if size.lo < 0:
            return Interval(0, POS_INF)  # CVE-2018-1000140 path: unbounded
        hi = max(0, size.hi) if size.hi != POS_INF else POS_INF
        return Interval(0, hi)
    return Interval(0, POS_INF)


# ---------------------------------------------------------------------------
# The forward problem.
# ---------------------------------------------------------------------------

_NEGATE = {
    "eq": "ne",
    "ne": "eq",
    "slt": "sge",
    "sle": "sgt",
    "sgt": "sle",
    "sge": "slt",
    "ult": "uge",
    "ule": "ugt",
    "ugt": "ule",
    "uge": "ult",
}


class IntervalAnalysis(ForwardProblem):
    """Interval abstract interpretation of one function (solved eagerly)."""

    widening_delay = 2
    narrowing_passes = 2

    def __init__(self, function: Function):
        self.function = function
        self.lattice = IntervalEnvLattice()
        self.tracked = tracked_scalar_slots(function)
        self.result = solve_forward(function, self)

    # -- queries ---------------------------------------------------------------------

    def evaluate(self, value: Value, state) -> Interval:
        """Best known interval for ``value`` in ``state``."""
        if isinstance(value, Constant):
            if value.ctype.is_integer() and isinstance(value.value, int):
                return const_interval(value.value)
            return TOP
        if state is UNREACHABLE:
            return EMPTY
        interval = state.values.get(value)
        if interval is not None:
            return interval
        return type_range(value.ctype)

    def states_in(self, block: BasicBlock):
        return self.result.states_in(block)

    # -- problem protocol ------------------------------------------------------------

    def entry_state(self, function: Function):
        return IntervalState({}, {}, {})

    def transfer(self, inst: Instruction, state):
        if state is UNREACHABLE:
            return UNREACHABLE
        if isinstance(inst, Load):
            return self._transfer_load(inst, state)
        if isinstance(inst, Store):
            return self._transfer_store(inst, state)
        if isinstance(inst, Call):
            return self._transfer_call(inst, state)
        if isinstance(inst, BinOp):
            return self._set_value(inst, self._eval_binop(inst, state), state)
        if isinstance(inst, Cmp):
            return self._set_value(inst, self._eval_cmp(inst, state), state)
        if isinstance(inst, Cast):
            return self._set_value(inst, self._eval_cast(inst, state), state)
        if isinstance(inst, Select):
            joined = self.evaluate(inst.operands[1], state).join(
                self.evaluate(inst.operands[2], state)
            )
            return self._set_value(inst, joined, state)
        if isinstance(inst, Phi):
            joined = EMPTY
            for value, _block in inst.incomings:
                joined = joined.join(self.evaluate(value, state))
            return self._set_value(inst, joined, state)
        return state

    def edge_state(self, pred: BasicBlock, succ: BasicBlock, state):
        if state is UNREACHABLE:
            return state
        term = pred.terminator()
        if not isinstance(term, CondBr):
            return state
        if term.true_target is term.false_target:
            return state
        return self._refine_truth(term.cond, succ is term.true_target, state)

    # -- transfer helpers ------------------------------------------------------------

    def _set_value(self, inst: Instruction, interval: Interval, state):
        default = type_range(inst.ctype)
        current = state.values.get(inst)
        if interval == default or interval.is_top():
            if current is None:
                return state
            values = dict(state.values)
            del values[inst]
        else:
            if current == interval:
                return state
            values = dict(state.values)
            values[inst] = interval
        return IntervalState(values, state.slots, state.witness)

    def _transfer_load(self, inst: Load, state):
        pointer = inst.pointer
        if pointer not in self.tracked:
            return state
        content = state.slots.get(pointer, type_range(pointer.allocated_type))
        content = content.meet(type_range(inst.ctype))
        state = self._set_value(inst, content, state)
        if state.witness.get(pointer) is not inst:
            witness = dict(state.witness)
            witness[pointer] = inst
            state = IntervalState(state.values, state.slots, witness)
        return state

    def _transfer_store(self, inst: Store, state):
        pointer = inst.pointer
        if pointer in self.tracked:
            slots = dict(state.slots)
            witness = dict(state.witness)
            stored = self.evaluate(inst.value, state).meet(
                type_range(pointer.allocated_type)
            )
            _normalized(
                slots, pointer, stored, type_range(pointer.allocated_type)
            )
            if isinstance(inst.value, (Instruction, Argument)):
                witness[pointer] = inst.value
            else:
                witness.pop(pointer, None)
            return IntervalState(state.values, slots, witness)
        root, offset = resolve_pointer(
            inst.pointer, lambda v: self.evaluate(v, state)
        )
        extent = const_interval(inst.value.ctype.size())
        if self._confined(root, offset, extent):
            return state
        return self._clobber_slots(state)

    def _transfer_call(self, inst: Call, state):
        name = inst.callee_name()
        if name not in KNOWN_BUILTINS:
            # Module function (or unknown builtin): memory effects are
            # opaque; a callee could corrupt anything via wild pointers.
            return self._clobber_slots(state)
        extent = builtin_write_extent(
            name, inst, lambda v: self.evaluate(v, state)
        )
        if extent is not None:
            root, offset = resolve_pointer(
                inst.args[0], lambda v: self.evaluate(v, state)
            ) if inst.args else (None, TOP)
            if not self._confined(root, offset, extent):
                state = self._clobber_slots(state)
        if name == "input_read" and len(inst.args) >= 2:
            limit = self.evaluate(inst.args[1], state)
            hi = max(0, limit.hi) if limit.hi != POS_INF else POS_INF
            returned = Interval(0, hi).meet(type_range(inst.ctype))
            return self._set_value(inst, returned, state)
        if name in ("input_size", "strlen_"):
            returned = Interval(0, POS_INF).meet(type_range(inst.ctype))
            return self._set_value(inst, returned, state)
        return state

    def _confined(
        self, root: Optional[Value], offset: Interval, extent: Interval
    ) -> bool:
        """True when the write provably stays inside a specific object
        that is not (and cannot alias) a tracked scalar slot."""
        if offset.is_empty() or extent.is_empty():
            return True  # no concrete execution reaches this write
        if isinstance(root, Alloca):
            if root in self.tracked:
                return False  # indirect alias of a tracked slot: give up
            if not root.is_static():
                return False
            size = root.static_size()
        elif isinstance(root, GlobalVariable):
            size = root.value_type.size()
        else:
            # Argument-rooted or unknown provenance: an out-of-bounds
            # write could land anywhere, including tracked slots.
            return False
        if offset.lo < 0:
            return False
        end = offset.hi + extent.hi
        return end <= size

    def _clobber_slots(self, state):
        if not state.slots and not state.witness:
            return state
        return IntervalState(state.values, {}, {})

    # -- expression evaluation -------------------------------------------------------

    def _wrap(self, interval: Interval, ctype: ct.CType) -> Interval:
        """Sound wraparound: keep the interval only if it fits the type."""
        rng = type_range(ctype)
        if interval.is_empty():
            return interval
        if rng is TOP:
            return interval
        if interval.issubset(rng):
            return interval
        return rng

    def _eval_binop(self, inst: BinOp, state) -> Interval:
        lhs = self.evaluate(inst.lhs, state)
        rhs = self.evaluate(inst.rhs, state)
        op = inst.op
        if op == "add":
            return self._wrap(lhs.add(rhs), inst.ctype)
        if op == "sub":
            return self._wrap(lhs.sub(rhs), inst.ctype)
        if op == "mul":
            return self._wrap(lhs.mul(rhs), inst.ctype)
        if op == "sdiv":
            if (
                isinstance(inst.rhs, Constant)
                and isinstance(inst.rhs.value, int)
                and inst.rhs.value > 0
                and lhs.lo >= 0
            ):
                c = inst.rhs.value
                hi = lhs.hi // c if lhs.hi != POS_INF else POS_INF
                return self._wrap(Interval(lhs.lo // c, hi), inst.ctype)
            return type_range(inst.ctype)
        if op == "urem":
            if rhs.lo >= 1 and rhs.hi != POS_INF:
                return self._wrap(Interval(0, rhs.hi - 1), inst.ctype)
            return type_range(inst.ctype)
        if op == "srem":
            if rhs.lo >= 1 and rhs.hi != POS_INF:
                bound = rhs.hi - 1
                lo = 0 if lhs.lo >= 0 else -bound
                return self._wrap(Interval(lo, bound), inst.ctype)
            return type_range(inst.ctype)
        if op == "and":
            bounds = []
            for operand, interval in ((inst.lhs, lhs), (inst.rhs, rhs)):
                if isinstance(operand, Constant) and isinstance(
                    operand.value, int
                ):
                    if operand.value >= 0:
                        bounds.append(operand.value)
                elif interval.lo >= 0 and interval.hi != POS_INF:
                    bounds.append(interval.hi)
            if bounds:
                return self._wrap(Interval(0, min(bounds)), inst.ctype)
            return type_range(inst.ctype)
        if op in ("lshr", "ashr"):
            if (
                lhs.lo >= 0
                and isinstance(inst.rhs, Constant)
                and isinstance(inst.rhs.value, int)
                and inst.rhs.value >= 0
            ):
                k = inst.rhs.value
                hi = lhs.hi >> k if lhs.hi != POS_INF else POS_INF
                return self._wrap(Interval(lhs.lo >> k, hi), inst.ctype)
            return type_range(inst.ctype)
        if op == "shl":
            if (
                lhs.lo >= 0
                and isinstance(inst.rhs, Constant)
                and isinstance(inst.rhs.value, int)
                and 0 <= inst.rhs.value < 64
            ):
                k = inst.rhs.value
                hi = lhs.hi << k if lhs.hi != POS_INF else POS_INF
                return self._wrap(Interval(lhs.lo << k, hi), inst.ctype)
            return type_range(inst.ctype)
        return type_range(inst.ctype)

    def _eval_cmp(self, inst: Cmp, state) -> Interval:
        lhs = self.evaluate(inst.lhs, state)
        rhs = self.evaluate(inst.rhs, state)
        verdict = _decide_cmp(inst.op, lhs, rhs)
        if verdict is None:
            return Interval(0, 1)
        return const_interval(1 if verdict else 0)

    def _eval_cast(self, inst: Cast, state) -> Interval:
        src = self.evaluate(inst.value, state)
        kind = inst.kind
        if kind == "sext":
            return self._wrap(src, inst.ctype)
        if kind == "zext":
            if src.lo >= 0:
                return self._wrap(src, inst.ctype)
            src_type = inst.value.ctype
            if isinstance(src_type, ct.IntType):
                return self._wrap(
                    Interval(0, (1 << (8 * src_type.size())) - 1), inst.ctype
                )
            return type_range(inst.ctype)
        if kind in ("trunc", "bitcast"):
            rng = type_range(inst.ctype)
            if src.issubset(rng):
                return src
            return rng
        return type_range(inst.ctype)

    # -- branch-edge refinement ------------------------------------------------------

    def _refine_truth(self, cond: Value, truth: bool, state):
        # The condition value itself is pinned to 1 (true) or 0 (false).
        pinned = const_interval(1) if truth else const_interval(0)
        if isinstance(cond, (Instruction, Argument)):
            current = self.evaluate(cond, state)
            if current.issubset(Interval(0, 1)):
                state = self._narrow_value(cond, current.meet(pinned), state)
                if state is UNREACHABLE:
                    return UNREACHABLE
        if isinstance(cond, Cmp) and cond.lhs.ctype.is_integer():
            op = cond.op if truth else _NEGATE.get(cond.op)
            if op is None:
                return state
            lhs = self.evaluate(cond.lhs, state)
            rhs = self.evaluate(cond.rhs, state)
            new_lhs, new_rhs = _refine_cmp(op, lhs, rhs)
            state = self._narrow_value(cond.lhs, new_lhs, state)
            if state is UNREACHABLE:
                return UNREACHABLE
            state = self._narrow_value(cond.rhs, new_rhs, state)
            return state
        if not isinstance(cond, Cmp) and cond.ctype.is_integer():
            # `if (n)` / `while (n)`: false edge pins n to zero.
            current = self.evaluate(cond, state)
            if truth:
                refined = current
                if current.lo == 0:
                    refined = Interval(1, current.hi)
                elif current.hi == 0:
                    refined = Interval(current.lo, -1)
                state = self._narrow_value(cond, refined, state)
            else:
                state = self._narrow_value(
                    cond, current.meet(const_interval(0)), state
                )
        return state

    def _narrow_value(self, value: Value, interval: Interval, state):
        if state is UNREACHABLE:
            return UNREACHABLE
        if interval.is_empty():
            return UNREACHABLE  # this edge cannot be taken
        if isinstance(value, Constant):
            return state
        current = self.evaluate(value, state)
        refined = current.meet(interval)
        if refined.is_empty():
            return UNREACHABLE
        if refined == current:
            return state
        if isinstance(value, (Instruction, Argument)):
            state = self._set_value(value, refined, state)
        if (
            isinstance(value, Load)
            and value.pointer in self.tracked
            and state is not UNREACHABLE
            and state.witness.get(value.pointer) is value
        ):
            slot = value.pointer
            content = state.slots.get(slot, type_range(slot.allocated_type))
            new_content = content.meet(refined)
            if new_content.is_empty():
                return UNREACHABLE
            slots = dict(state.slots)
            _normalized(
                slots, slot, new_content, type_range(slot.allocated_type)
            )
            state = IntervalState(state.values, slots, state.witness)
        if isinstance(value, Cast) and value.kind == "sext":
            return self._narrow_value(value.value, refined, state)
        if (
            isinstance(value, Cast)
            and value.kind == "zext"
            and isinstance(value.value.ctype, ct.IntType)
            and not value.value.ctype.signed
        ):
            return self._narrow_value(value.value, refined, state)
        if isinstance(value, Cmp) and state is not UNREACHABLE:
            # Pinning a compare result to 0/1 constrains its operands —
            # the front end chains compares (`cmp ne (cmp slt ...), 0`),
            # so follow the chain.  The `refined == current` early-out
            # above keeps this recursion finite.
            if refined == const_interval(1):
                return self._refine_truth(value, True, state)
            if refined == const_interval(0):
                return self._refine_truth(value, False, state)
        return state


def _decide_cmp(op: str, lhs: Interval, rhs: Interval) -> Optional[bool]:
    """Constant-fold a comparison when the intervals force its outcome."""
    if lhs.is_empty() or rhs.is_empty():
        return None
    unsigned = op.startswith("u")
    if unsigned and (lhs.lo < 0 or rhs.lo < 0):
        return None
    key = op[1:] if op[0] in "su" else op
    if key == "eq":
        if lhs.hi < rhs.lo or rhs.hi < lhs.lo:
            return False
        if lhs.lo == lhs.hi == rhs.lo == rhs.hi:
            return True
        return None
    if key == "ne":
        inverted = _decide_cmp("eq", lhs, rhs)
        return None if inverted is None else not inverted
    if key == "lt":
        if lhs.hi < rhs.lo:
            return True
        if lhs.lo >= rhs.hi:
            return False
        return None
    if key == "le":
        if lhs.hi <= rhs.lo:
            return True
        if lhs.lo > rhs.hi:
            return False
        return None
    if key == "gt":
        return _decide_cmp("lt", rhs, lhs)
    if key == "ge":
        return _decide_cmp("le", rhs, lhs)
    return None


def _refine_cmp(
    op: str, lhs: Interval, rhs: Interval
) -> Tuple[Interval, Interval]:
    """Intervals implied for (lhs, rhs) by ``lhs <op> rhs`` holding."""
    if op.startswith("u") and (lhs.lo < 0 or rhs.lo < 0):
        return lhs, rhs  # unsigned compare over possibly-negative values
    key = op[1:] if op[0] in "su" else op
    if key == "eq":
        both = lhs.meet(rhs)
        return both, both
    if key == "ne":
        new_lhs, new_rhs = lhs, rhs
        if rhs.lo == rhs.hi:
            c = rhs.lo
            if new_lhs.lo == c:
                new_lhs = Interval(c + 1, new_lhs.hi)
            elif new_lhs.hi == c:
                new_lhs = Interval(new_lhs.lo, c - 1)
        if lhs.lo == lhs.hi:
            c = lhs.lo
            if new_rhs.lo == c:
                new_rhs = Interval(c + 1, new_rhs.hi)
            elif new_rhs.hi == c:
                new_rhs = Interval(new_rhs.lo, c - 1)
        return new_lhs, new_rhs
    if key == "lt":
        return (
            lhs.meet(Interval(NEG_INF, rhs.hi - 1)),
            rhs.meet(Interval(lhs.lo + 1, POS_INF)),
        )
    if key == "le":
        return (
            lhs.meet(Interval(NEG_INF, rhs.hi)),
            rhs.meet(Interval(lhs.lo, POS_INF)),
        )
    if key == "gt":
        new_rhs, new_lhs = _refine_cmp("lt", rhs, lhs)
        return new_lhs, new_rhs
    if key == "ge":
        new_rhs, new_lhs = _refine_cmp("le", rhs, lhs)
        return new_lhs, new_rhs
    return lhs, rhs
