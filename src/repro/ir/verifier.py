"""Structural verifier for IR modules.

The verifier enforces the invariants the interpreter assumes, so that a
broken lowering or instrumentation pass fails loudly at compile time
instead of corrupting a simulation run:

* every block has exactly one terminator, at the end,
* branch targets belong to the same function,
* instruction operands are defined in the same function (or are
  constants/arguments/globals of the module),
* every use is *dominated* by its definition: a same-block def precedes
  the use, a cross-block def's block dominates the use's block, and a
  phi incoming is available at the end of its predecessor (unreachable
  code is exempt — it never executes),
* loads/stores type-check against their pointer operand,
* calls reference functions that exist in the module or known builtins,
  with matching arity,
* the entry block is first and no block is empty.
"""

from __future__ import annotations

from typing import Set

from repro.errors import VerifierError
from repro.minic.builtins import BUILTINS
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
    Phi,
    Ret,
    Select,
    Store,
    Unreachable,
)
from repro.ir.module import Function, Module
from repro.ir.values import Argument, Constant, GlobalVariable, Value


#: instruction classes with no checks beyond their operands
_OPERANDS_ONLY = frozenset(
    {BinOp, Cast, Cmp, ElemPtr, FieldPtr, Select, Unreachable}
)


def verify_module(module: Module) -> None:
    """Verify every function; raises VerifierError on the first problem."""
    for function in module.functions.values():
        verify_function(function, module)


def verify_function(function: Function, module: Module) -> None:
    if not function.blocks:
        raise VerifierError(f"function '{function.name}' has no blocks")
    block_set = set(function.blocks)
    defined: Set[int] = set()
    for param in function.params:
        defined.add(id(param))
    # First pass: collect all instruction results.  The interpreter executes
    # blocks in control-flow order, so using a value before its block runs is
    # a dynamic error; structurally we only require that the producing
    # instruction exists within the same function.
    for block in function.blocks:
        if not block.instructions:
            raise VerifierError(
                f"empty block '{block.label}' in function '{function.name}'"
            )
        for inst in block.instructions:
            if inst.has_result():
                defined.add(id(inst))
    for block in function.blocks:
        terminator = block.instructions[-1]
        if not terminator.is_terminator:
            raise VerifierError(
                f"block '{block.label}' in '{function.name}' lacks a terminator"
            )
        seen_non_phi = False
        for index, inst in enumerate(block.instructions):
            if inst.is_terminator and index != len(block.instructions) - 1:
                raise VerifierError(
                    f"terminator in the middle of block '{block.label}' "
                    f"in '{function.name}'"
                )
            if isinstance(inst, Phi):
                if seen_non_phi:
                    raise VerifierError(
                        f"phi after non-phi in block '{block.label}' "
                        f"of '{function.name}'"
                    )
            else:
                seen_non_phi = True
            for operand in inst.operands:
                # Fast path: an instruction of this function (the
                # commonest operand); everything else is checked in full.
                if not (
                    isinstance(operand, Instruction) and id(operand) in defined
                ):
                    _verify_operand(operand, function, module, defined)
            if type(inst) not in _OPERANDS_ONLY:
                _verify_instruction(inst, function, module, block_set)
    _verify_dominance(function)


def _verify_dominance(function: Function) -> None:
    """Def-before-use, properly: every use dominated by its definition.

    Membership in the function (checked above) is not enough — an IR
    producer can reference a value from a block that never executes
    before the use, which the interpreter only discovers as a dynamic
    "value has no binding" trap.  Dominance catches it at compile time.
    Uses inside unreachable blocks are exempt: they cannot execute, and
    passes legitimately leave orphaned blocks behind.
    """
    # Imported here: repro.opt.cfg has no dependencies back on the
    # verifier, but keeping the import local avoids any ir<->opt import
    # cycle at module load time.
    from repro.opt.cfg import DominatorTree

    dom = DominatorTree(function)
    reachable = set(dom.order)  # reverse postorder covers the reachable blocks
    position = {}
    for block in function.blocks:
        for index, inst in enumerate(block.instructions):
            position[id(inst)] = (block, index)

    def check_use(operand, use_block, use_index, what: str) -> None:
        if not isinstance(operand, Instruction):
            return
        def_pos = position.get(id(operand))
        if def_pos is None:
            return  # foreign-operand error already raised above
        def_block, def_index = def_pos
        if def_block is use_block:
            if def_index < use_index:
                return
        elif def_block in reachable and dom.dominates(def_block, use_block):
            return
        raise VerifierError(
            f"use of %{operand.name or id(operand)} in block "
            f"'{use_block.label}' of '{function.name}' is not dominated "
            f"by its definition in '{def_block.label}' ({what})"
        )

    for block in function.blocks:
        if block not in reachable:
            continue
        for index, inst in enumerate(block.instructions):
            if isinstance(inst, Phi):
                for value, pred in inst.incomings:
                    if not isinstance(value, Instruction):
                        continue
                    # The incoming value must be available when control
                    # leaves ``pred``: its def must dominate ``pred``.
                    if pred not in reachable:
                        continue
                    check_use(
                        value,
                        pred,
                        len(pred.instructions),
                        f"phi incoming from '{pred.label}'",
                    )
                continue
            for operand in inst.operands:
                if not isinstance(operand, Instruction):
                    continue
                def_pos = position.get(id(operand))
                if def_pos and def_pos[0] is block and def_pos[1] < index:
                    continue  # the common case: defined earlier in this block
                check_use(operand, block, index, "operand")


def _verify_instruction(
    inst: Instruction, function: Function, module: Module, block_set
) -> None:
    """The checks specific to ``inst``'s kind (operands are checked by
    the caller)."""
    if isinstance(inst, Br):
        if inst.target not in block_set:
            raise VerifierError(
                f"branch to foreign block from '{function.name}'"
            )
    elif isinstance(inst, CondBr):
        if inst.true_target not in block_set or inst.false_target not in block_set:
            raise VerifierError(
                f"conditional branch to foreign block from '{function.name}'"
            )
    elif isinstance(inst, Ret):
        if inst.value is None:
            if not function.return_type.is_void():
                raise VerifierError(
                    f"'{function.name}' returns void but declares "
                    f"{function.return_type}"
                )
        elif inst.value.ctype != function.return_type:
            raise VerifierError(
                f"'{function.name}' returns {inst.value.ctype} but declares "
                f"{function.return_type}"
            )
    elif isinstance(inst, Store):
        pointee = inst.pointer.ctype.pointee
        if inst.value.ctype != pointee:
            raise VerifierError(
                f"store type mismatch in '{function.name}': "
                f"{inst.value.ctype} into {inst.pointer.ctype}"
            )
    elif isinstance(inst, Load):
        if not inst.pointer.ctype.is_pointer():
            raise VerifierError(f"load from non-pointer in '{function.name}'")
    elif isinstance(inst, Call):
        _verify_call(inst, function, module)
    elif isinstance(inst, Phi):
        for value, pred in inst.incomings:
            if value.ctype != inst.ctype:
                raise VerifierError(
                    f"phi incoming type {value.ctype} differs from "
                    f"{inst.ctype} in '{function.name}'"
                )
            if pred not in block_set:
                raise VerifierError(
                    f"phi incoming from foreign block in '{function.name}'"
                )
    elif isinstance(inst, Alloca):
        if inst.align <= 0 or (inst.align & (inst.align - 1)) != 0:
            raise VerifierError(
                f"alloca alignment {inst.align} in '{function.name}' "
                "is not a positive power of two"
            )


def _verify_call(inst: Call, function: Function, module: Module) -> None:
    name = inst.callee_name()
    if isinstance(inst.callee, str):
        if name in module.functions:
            target = module.functions[name]
            if len(inst.args) != len(target.params):
                raise VerifierError(
                    f"call to '{name}' with {len(inst.args)} args, "
                    f"expected {len(target.params)}"
                )
            return
        sig = BUILTINS.get(name)
        if sig is None and not name.startswith("__ss_"):
            raise VerifierError(
                f"call to unknown builtin '{name}' from '{function.name}'"
            )
        if sig is not None and not sig.variadic and len(inst.args) != len(sig.params):
            raise VerifierError(
                f"builtin '{name}' takes {len(sig.params)} args, "
                f"got {len(inst.args)}"
            )
        return
    if module.functions.get(name) is not inst.callee:
        raise VerifierError(
            f"call to function '{name}' that is not part of the module"
        )
    if len(inst.args) != len(inst.callee.params):
        raise VerifierError(
            f"call to '{name}' with {len(inst.args)} args, "
            f"expected {len(inst.callee.params)}"
        )


def _verify_operand(
    operand: Value, function: Function, module: Module, defined: Set[int]
) -> None:
    if isinstance(operand, Constant):
        return
    if isinstance(operand, GlobalVariable):
        if module.globals.get(operand.name) is not operand:
            raise VerifierError(
                f"operand references global '{operand.name}' not in module"
            )
        return
    if isinstance(operand, Argument):
        if id(operand) not in defined:
            raise VerifierError(
                f"operand references a foreign argument in '{function.name}'"
            )
        return
    if isinstance(operand, Instruction):
        if id(operand) not in defined:
            raise VerifierError(
                f"operand references an instruction outside '{function.name}'"
            )
        return
    raise VerifierError(f"unknown operand kind {type(operand).__name__}")
