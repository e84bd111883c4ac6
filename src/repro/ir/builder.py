"""IRBuilder: convenience layer for emitting instructions.

The builder holds an insertion point (a basic block) and provides one
method per instruction, naming results automatically.  It also implements
the type-directed cast selection (`convert`) that the lowering stage and
the Smokestack instrumentation pass both rely on.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.errors import IRError
from repro.minic import types as ct
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Br,
    Call,
    Cast,
    Cmp,
    CondBr,
    ElemPtr,
    FieldPtr,
    Instruction,
    Load,
    Ret,
    Select,
    Store,
    Unreachable,
)
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Constant, Value


class IRBuilder:
    """Emits instructions at the end of a current block."""

    def __init__(self, function: Function, block: Optional[BasicBlock] = None):
        self.function = function
        self.block = block or (function.blocks[0] if function.blocks else None)

    def position_at_end(self, block: BasicBlock) -> None:
        self.block = block

    def _emit(self, inst: Instruction, hint: str = "t") -> Instruction:
        block = self.block
        if block is None:
            raise IRError("builder has no insertion block")
        if not inst.name and inst.has_result():
            inst.name = self.function.next_value_name(hint)
        block.append(inst)
        return inst

    # -- memory ------------------------------------------------------------------

    def alloca(
        self,
        allocated_type: ct.CType,
        count: Optional[Value] = None,
        align: Optional[int] = None,
        var_name: str = "",
    ) -> Alloca:
        return self._emit(
            Alloca(allocated_type, count, align, var_name), hint=var_name or "a"
        )

    def load(self, pointer: Value) -> Load:
        return self._emit(Load(pointer), hint="v")

    def store(self, value: Value, pointer: Value) -> Store:
        pointee = pointer.ctype.pointee
        if value.ctype != pointee:
            raise IRError(
                f"store type mismatch: storing {value.ctype} into {pointer.ctype}"
            )
        return self._emit(Store(value, pointer))

    def elem_ptr(self, base: Value, index: Value) -> ElemPtr:
        if not index.ctype.is_integer():
            raise IRError("elem_ptr index must be integer")
        return self._emit(ElemPtr(base, index), hint="p")

    def field_ptr(self, base: Value, field_index: int) -> FieldPtr:
        return self._emit(FieldPtr(base, field_index), hint="f")

    # -- arithmetic ----------------------------------------------------------------

    def binop(self, op: str, lhs: Value, rhs: Value) -> BinOp:
        return self._emit(BinOp(op, lhs, rhs), hint="b")

    def add(self, lhs: Value, rhs: Value) -> Value:
        return self.binop("fadd" if lhs.ctype.is_float() else "add", lhs, rhs)

    def sub(self, lhs: Value, rhs: Value) -> Value:
        return self.binop("fsub" if lhs.ctype.is_float() else "sub", lhs, rhs)

    def mul(self, lhs: Value, rhs: Value) -> Value:
        return self.binop("fmul" if lhs.ctype.is_float() else "mul", lhs, rhs)

    def div(self, lhs: Value, rhs: Value) -> Value:
        if lhs.ctype.is_float():
            return self.binop("fdiv", lhs, rhs)
        signed = getattr(lhs.ctype, "signed", True)
        return self.binop("sdiv" if signed else "udiv", lhs, rhs)

    def rem(self, lhs: Value, rhs: Value) -> Value:
        signed = getattr(lhs.ctype, "signed", True)
        return self.binop("srem" if signed else "urem", lhs, rhs)

    def shl(self, lhs: Value, rhs: Value) -> Value:
        return self.binop("shl", lhs, rhs)

    def shr(self, lhs: Value, rhs: Value) -> Value:
        signed = getattr(lhs.ctype, "signed", True)
        return self.binop("ashr" if signed else "lshr", lhs, rhs)

    def and_(self, lhs: Value, rhs: Value) -> Value:
        return self.binop("and", lhs, rhs)

    def or_(self, lhs: Value, rhs: Value) -> Value:
        return self.binop("or", lhs, rhs)

    def xor(self, lhs: Value, rhs: Value) -> Value:
        return self.binop("xor", lhs, rhs)

    # -- comparisons -----------------------------------------------------------------

    def cmp(self, op: str, lhs: Value, rhs: Value) -> Cmp:
        return self._emit(Cmp(op, lhs, rhs), hint="c")

    def icmp_from_c(self, c_op: str, lhs: Value, rhs: Value) -> Cmp:
        """Build a comparison from a C operator, choosing signedness."""
        if lhs.ctype.is_float():
            mapping = {
                "==": "feq", "!=": "fne",
                "<": "flt", "<=": "fle", ">": "fgt", ">=": "fge",
            }
            return self.cmp(mapping[c_op], lhs, rhs)
        if c_op == "==":
            return self.cmp("eq", lhs, rhs)
        if c_op == "!=":
            return self.cmp("ne", lhs, rhs)
        signed = getattr(lhs.ctype, "signed", False) if lhs.ctype.is_integer() else False
        prefix = "s" if signed else "u"
        mapping = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
        return self.cmp(prefix + mapping[c_op], lhs, rhs)

    # -- conversions -------------------------------------------------------------------

    def cast(self, kind: str, value: Value, to_type: ct.CType) -> Cast:
        return self._emit(Cast(kind, value, to_type), hint="x")

    def convert(self, value: Value, to_type: ct.CType) -> Value:
        """Convert ``value`` to ``to_type`` choosing the right cast kind.

        No-ops (identical type) return the value unchanged.  Covers all the
        conversions Mini-C's sema can request: integer resize, int<->float,
        pointer bitcasts and int<->pointer.
        """
        src = value.ctype
        if src == to_type:
            return value
        if src.is_integer() and to_type.is_integer():
            if src.size() > to_type.size():
                return self.cast("trunc", value, to_type)
            if src.size() < to_type.size():
                signed = getattr(src, "signed", True)
                return self.cast("sext" if signed else "zext", value, to_type)
            return self.cast("bitcast", value, to_type)
        if src.is_integer() and to_type.is_float():
            signed = getattr(src, "signed", True)
            return self.cast("sitofp" if signed else "uitofp", value, to_type)
        if src.is_float() and to_type.is_integer():
            signed = getattr(to_type, "signed", True)
            return self.cast("fptosi" if signed else "fptoui", value, to_type)
        if src.is_float() and to_type.is_float():
            if src.size() < to_type.size():
                return self.cast("fpext", value, to_type)
            return self.cast("fptrunc", value, to_type)
        if src.is_pointer() and to_type.is_pointer():
            return self.cast("bitcast", value, to_type)
        if src.is_pointer() and to_type.is_integer():
            return self.cast("ptrtoint", value, to_type)
        if src.is_integer() and to_type.is_pointer():
            return self.cast("inttoptr", value, to_type)
        raise IRError(f"no conversion from {src} to {to_type}")

    # -- misc --------------------------------------------------------------------------

    def select(self, cond: Value, a: Value, b: Value) -> Select:
        return self._emit(Select(cond, a, b), hint="s")

    def call(
        self,
        callee,
        args: Sequence[Value],
        return_type: Optional[ct.CType] = None,
    ) -> Call:
        if return_type is None:
            if isinstance(callee, str):
                raise IRError("builtin calls must state their return type")
            return_type = callee.return_type
        return self._emit(Call(callee, args, return_type), hint="r")

    # -- terminators ---------------------------------------------------------------------

    def br(self, target: BasicBlock) -> Br:
        return self._emit(Br(target))

    def cond_br(self, cond: Value, true_target: BasicBlock, false_target: BasicBlock) -> CondBr:
        return self._emit(CondBr(cond, true_target, false_target))

    def ret(self, value: Optional[Value] = None) -> Ret:
        if value is None:
            if not self.function.return_type.is_void():
                raise IRError(
                    f"function '{self.function.name}' must return "
                    f"{self.function.return_type}"
                )
        else:
            if value.ctype != self.function.return_type:
                raise IRError(
                    f"return type mismatch in '{self.function.name}': "
                    f"{value.ctype} vs {self.function.return_type}"
                )
        return self._emit(Ret(value))

    def unreachable(self) -> Unreachable:
        return self._emit(Unreachable())

    # -- constants (conveniences) -----------------------------------------------------------

    @staticmethod
    def const(value: Union[int, float], ctype: ct.CType) -> Constant:
        return Constant(ctype, value)
