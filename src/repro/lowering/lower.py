"""Lowering: type-annotated Mini-C AST -> IR.

The lowering mirrors clang at -O0 in the one respect that matters for this
reproduction: **every local variable (and incoming parameter) gets its own
``alloca``**, and all reads/writes go through memory.  That is the program
shape Smokestack's passes consume, and it is what makes stack layout a
real, attackable artifact in the VM: buffers sit at concrete addresses
next to scalars, exactly as on the paper's x86-64 testbed.

Notable choices:

* parameters are spilled to allocas at function entry (so they are part of
  the permutable frame — the paper explicitly includes spilled registers),
* VLAs lower to dynamic allocas (``count`` operand),
* short-circuit operators and ``?:`` lower to control flow plus a result
  slot, keeping the interpreter phi-free,
* struct assignment lowers to ``memcpy_``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import LoweringError
from repro.minic import astnodes as ast
from repro.minic import types as ctypes
from repro.minic.builtins import BUILTINS
from repro.ir.builder import IRBuilder
from repro.ir.instructions import Alloca
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.values import Constant, GlobalVariable, Value
from repro.ir.verifier import verify_module


def lower(unit: ast.TranslationUnit, module_name: str = "module") -> Module:
    """Lower a semantically-analyzed translation unit to a verified module."""
    lowerer = Lowerer(module_name)
    module = lowerer.lower_unit(unit)
    verify_module(module)
    return module


class _LoopContext:
    """Targets for break/continue inside the innermost loop."""

    def __init__(self, break_block: BasicBlock, continue_block: BasicBlock):
        self.break_block = break_block
        self.continue_block = continue_block


class Lowerer:
    """Stateful AST->IR translator for one translation unit."""

    def __init__(self, module_name: str = "module"):
        self.module = Module(module_name)
        self._string_globals: Dict[bytes, GlobalVariable] = {}
        self._builder: Optional[IRBuilder] = None
        self._locals: Dict[int, Value] = {}  # id(decl) -> alloca
        self._loop_stack: List[_LoopContext] = []
        self._compound_value: Optional[Value] = None
        self._function: Optional[Function] = None

    # -- unit / function level ------------------------------------------------------

    def lower_unit(self, unit: ast.TranslationUnit) -> Module:
        for decl in unit.globals():
            self._lower_global(decl)
        # Declare all functions first so calls can reference them.
        ir_functions: Dict[str, Function] = {}
        for fn in unit.functions():
            self._check_signature(fn)
            ir_fn = Function(
                fn.name,
                fn.return_type,
                [p.name for p in fn.params],
                [p.declared_type for p in fn.params],
            )
            self.module.add_function(ir_fn)
            ir_functions[fn.name] = ir_fn
        for fn in unit.functions():
            self._lower_function(fn, ir_functions[fn.name])
        return self.module

    def _check_signature(self, fn: ast.FunctionDef) -> None:
        if fn.return_type.is_struct() or fn.return_type.is_array():
            raise LoweringError(
                f"function '{fn.name}' returns an aggregate; Mini-C passes "
                "aggregates by pointer"
            )
        for param in fn.params:
            if param.declared_type.is_struct() or param.declared_type.is_array():
                raise LoweringError(
                    f"parameter '{param.name}' of '{fn.name}' is an aggregate; "
                    "pass a pointer instead"
                )

    def _lower_global(self, decl: ast.VarDecl) -> None:
        image = _global_initializer_bytes(decl)
        variable = GlobalVariable(decl.name, decl.declared_type, image)
        self.module.add_global(variable)
        self._locals[id(decl)] = variable

    def _lower_function(self, fn: ast.FunctionDef, ir_fn: Function) -> None:
        self._function = ir_fn
        entry = ir_fn.new_block("entry")
        builder = IRBuilder(ir_fn, entry)
        self._builder = builder
        # Spill every parameter into its own stack slot.
        for param, argument in zip(fn.params, ir_fn.params):
            slot = builder.alloca(param.declared_type, var_name=param.name)
            builder.store(argument, slot)
            self._locals[id(param)] = slot
        assert fn.body is not None
        self._lower_block(fn.body)
        # Implicit return for control paths that fall off the end, plus any
        # merge blocks that turned out to be unreachable (e.g. the join of
        # an if whose branches both return).  The verifier requires every
        # block to be non-empty and terminated.
        for block in ir_fn.blocks:
            if not block.is_terminated():
                builder.position_at_end(block)
                if ir_fn.return_type.is_void():
                    builder.ret()
                else:
                    builder.ret(_zero_of(ir_fn.return_type))
        self._builder = None
        self._function = None

    # -- statements ---------------------------------------------------------------

    def _lower_block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self._lower_stmt(stmt)
            if self._builder.block.is_terminated():
                # Dead code after return/break in the same block is dropped;
                # matching C compilers which simply never emit it.
                break

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        builder = self._builder
        if isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                self._lower_local_decl(decl)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(stmt.expr)
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is None:
                builder.ret()
            else:
                builder.ret(self._lower_expr(stmt.value))
        elif isinstance(stmt, ast.Break):
            builder.br(self._loop_stack[-1].break_block)
        elif isinstance(stmt, ast.Continue):
            builder.br(self._loop_stack[-1].continue_block)
        else:
            raise LoweringError(f"cannot lower statement {type(stmt).__name__}")

    def _lower_local_decl(self, decl: ast.VarDecl) -> None:
        builder = self._builder
        if decl.vla_length is not None:
            count = self._lower_expr(decl.vla_length)
            assert isinstance(decl.declared_type, ctypes.ArrayType)
            element = decl.declared_type.element
            slot = builder.alloca(element, count=count, var_name=decl.name)
        else:
            slot = builder.alloca(decl.declared_type, var_name=decl.name)
        self._locals[id(decl)] = slot
        if decl.initializer is None:
            return
        if isinstance(decl.initializer, ast.StringLiteral) and decl.declared_type.is_array():
            source = self._string_global(decl.initializer.value)
            data_len = len(decl.initializer.value) + 1
            dst = builder.convert(slot, ctypes.PointerType(ctypes.VOID))
            src = builder.convert(source, ctypes.PointerType(ctypes.VOID))
            builder.call(
                "memcpy_",
                [dst, src, Constant(ctypes.LONG, data_len)],
                ctypes.PointerType(ctypes.VOID),
            )
            return
        value = self._lower_expr(decl.initializer)
        builder.store(value, slot)

    def _lower_if(self, stmt: ast.If) -> None:
        builder = self._builder
        cond = self._truthy(self._lower_expr(stmt.condition))
        then_block = self._function.new_block("if.then")
        merge_block = self._function.new_block("if.end")
        else_block = (
            self._function.new_block("if.else")
            if stmt.else_branch is not None
            else merge_block
        )
        builder.cond_br(cond, then_block, else_block)
        builder.position_at_end(then_block)
        self._lower_stmt(stmt.then_branch)
        if not builder.block.is_terminated():
            builder.br(merge_block)
        if stmt.else_branch is not None:
            builder.position_at_end(else_block)
            self._lower_stmt(stmt.else_branch)
            if not builder.block.is_terminated():
                builder.br(merge_block)
        builder.position_at_end(merge_block)

    def _lower_while(self, stmt: ast.While) -> None:
        builder = self._builder
        cond_block = self._function.new_block("while.cond")
        body_block = self._function.new_block("while.body")
        end_block = self._function.new_block("while.end")
        builder.br(cond_block)
        builder.position_at_end(cond_block)
        cond = self._truthy(self._lower_expr(stmt.condition))
        builder.cond_br(cond, body_block, end_block)
        builder.position_at_end(body_block)
        self._loop_stack.append(_LoopContext(end_block, cond_block))
        self._lower_stmt(stmt.body)
        self._loop_stack.pop()
        if not builder.block.is_terminated():
            builder.br(cond_block)
        builder.position_at_end(end_block)

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        builder = self._builder
        body_block = self._function.new_block("do.body")
        cond_block = self._function.new_block("do.cond")
        end_block = self._function.new_block("do.end")
        builder.br(body_block)
        builder.position_at_end(body_block)
        self._loop_stack.append(_LoopContext(end_block, cond_block))
        self._lower_stmt(stmt.body)
        self._loop_stack.pop()
        if not builder.block.is_terminated():
            builder.br(cond_block)
        builder.position_at_end(cond_block)
        cond = self._truthy(self._lower_expr(stmt.condition))
        builder.cond_br(cond, body_block, end_block)
        builder.position_at_end(end_block)

    def _lower_for(self, stmt: ast.For) -> None:
        builder = self._builder
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        cond_block = self._function.new_block("for.cond")
        body_block = self._function.new_block("for.body")
        step_block = self._function.new_block("for.step")
        end_block = self._function.new_block("for.end")
        builder.br(cond_block)
        builder.position_at_end(cond_block)
        if stmt.condition is not None:
            cond = self._truthy(self._lower_expr(stmt.condition))
            builder.cond_br(cond, body_block, end_block)
        else:
            builder.br(body_block)
        builder.position_at_end(body_block)
        self._loop_stack.append(_LoopContext(end_block, step_block))
        self._lower_stmt(stmt.body)
        self._loop_stack.pop()
        if not builder.block.is_terminated():
            builder.br(step_block)
        builder.position_at_end(step_block)
        if stmt.step is not None:
            self._lower_expr(stmt.step)
        builder.br(cond_block)
        builder.position_at_end(end_block)

    # -- expressions -----------------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> Value:
        builder = self._builder
        # The node classes are disjoint; the commonest (sema's implicit
        # conversions, names, literals) are tested first.
        if isinstance(expr, ast.Cast):
            return self._lower_cast(expr)
        if isinstance(expr, ast.Identifier):
            slot = self._slot_for(expr)
            if expr.ctype.is_scalar():
                return builder.load(slot)
            # Aggregates as rvalues only appear under decay casts / sizeof.
            return slot
        if isinstance(expr, ast.IntLiteral):
            return Constant(expr.ctype, expr.value)
        if isinstance(expr, ast.FloatLiteral):
            return Constant(expr.ctype, expr.value)
        if isinstance(expr, ast.StringLiteral):
            # Only reachable when not decayed (e.g. sizeof operand); decay
            # is handled in Cast lowering.
            return self._string_global(expr.value)
        if isinstance(expr, ast.CompoundRead):
            assert self._compound_value is not None, "CompoundRead outside op="
            return self._compound_value
        if isinstance(expr, ast.UnaryOp):
            return self._lower_unary(expr)
        if isinstance(expr, ast.PostfixOp):
            return self._lower_incdec(expr.operand, expr.op, want_old=True)
        if isinstance(expr, ast.BinaryOp):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Assignment):
            return self._lower_assignment(expr)
        if isinstance(expr, ast.Conditional):
            return self._lower_conditional(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr)
        if isinstance(expr, (ast.Index, ast.Member)):
            address = self._lower_address(expr)
            if expr.ctype.is_scalar():
                return builder.load(address)
            return address
        if isinstance(expr, ast.SizeofType):
            return Constant(ctypes.LONG, expr.queried_type.size())
        if isinstance(expr, ast.SizeofExpr):
            return Constant(ctypes.LONG, expr.operand.ctype.size())
        raise LoweringError(f"cannot lower expression {type(expr).__name__}")

    def _slot_for(self, expr: ast.Identifier) -> Value:
        slot = self._locals.get(id(expr.decl))
        if slot is None:
            raise LoweringError(f"no storage for identifier '{expr.name}'")
        return slot

    def _lower_address(self, expr: ast.Expr) -> Value:
        """Address of an lvalue expression."""
        builder = self._builder
        if isinstance(expr, ast.Identifier):
            return self._slot_for(expr)
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            return self._lower_expr(expr.operand)
        if isinstance(expr, ast.Index):
            base = expr.base
            if base.ctype is not None and base.ctype.is_array():
                base_addr = self._lower_address(base)
            else:
                base_addr = self._lower_expr(base)
            index = self._lower_expr(expr.index)
            return builder.elem_ptr(base_addr, index)
        if isinstance(expr, ast.Member):
            if expr.is_arrow:
                base_addr = self._lower_expr(expr.base)
                struct_type = expr.base.ctype.pointee
            else:
                base_addr = self._lower_address(expr.base)
                struct_type = expr.base.ctype
            return builder.field_ptr(base_addr, struct_type.field_index(expr.field))
        if isinstance(expr, ast.StringLiteral):
            return self._string_global(expr.value)
        raise LoweringError(
            f"expression {type(expr).__name__} is not addressable"
        )

    def _lower_unary(self, expr: ast.UnaryOp) -> Value:
        builder = self._builder
        op = expr.op
        if op == "&":
            address = self._lower_address(expr.operand)
            return builder.convert(address, expr.ctype)
        if op == "*":
            pointer = self._lower_expr(expr.operand)
            if expr.ctype.is_scalar():
                return builder.load(pointer)
            return pointer
        if op in ("++", "--"):
            return self._lower_incdec(expr.operand, op, want_old=False)
        operand = self._lower_expr(expr.operand)
        if op == "-":
            zero = _zero_of(operand.ctype)
            return builder.sub(zero, operand)
        if op == "~":
            minus_one = Constant(operand.ctype, -1)
            return builder.xor(operand, minus_one)
        if op == "!":
            truth = self._truthy(operand)
            one = Constant(ctypes.INT, 1)
            return builder.xor(truth, one)
        raise LoweringError(f"cannot lower unary '{op}'")

    def _lower_incdec(self, target: ast.Expr, op: str, want_old: bool) -> Value:
        builder = self._builder
        address = self._lower_address(target)
        old = builder.load(address)
        if old.ctype.is_pointer():
            delta = Constant(ctypes.LONG, 1 if op == "++" else -1)
            new = builder.elem_ptr(old, delta)
            new = builder.convert(new, old.ctype)
        else:
            one = Constant(old.ctype, 1)
            new = builder.add(old, one) if op == "++" else builder.sub(old, one)
        builder.store(new, address)
        return old if want_old else new

    def _lower_binary(self, expr: ast.BinaryOp) -> Value:
        builder = self._builder
        op = expr.op
        if op in ("&&", "||"):
            return self._lower_logical(expr)
        left_type = expr.left.ctype
        right_type = expr.right.ctype
        if op in ("+", "-") and (left_type.is_pointer() or right_type.is_pointer()):
            return self._lower_pointer_arith(expr)
        left = self._lower_expr(expr.left)
        right = self._lower_expr(expr.right)
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return builder.icmp_from_c(op, left, right)
        if op == "+":
            return builder.add(left, right)
        if op == "-":
            return builder.sub(left, right)
        if op == "*":
            return builder.mul(left, right)
        if op == "/":
            return builder.div(left, right)
        if op == "%":
            return builder.rem(left, right)
        if op == "&":
            return builder.and_(left, right)
        if op == "|":
            return builder.or_(left, right)
        if op == "^":
            return builder.xor(left, right)
        if op == "<<":
            right = builder.convert(right, left.ctype)
            return builder.shl(left, right)
        if op == ">>":
            right = builder.convert(right, left.ctype)
            return builder.shr(left, right)
        raise LoweringError(f"cannot lower binary '{op}'")

    def _lower_pointer_arith(self, expr: ast.BinaryOp) -> Value:
        builder = self._builder
        left = self._lower_expr(expr.left)
        right = self._lower_expr(expr.right)
        if expr.op == "+":
            # Sema normalised: left is the pointer, right is a long.
            return builder.convert(builder.elem_ptr(left, right), expr.ctype)
        if left.ctype.is_pointer() and right.ctype.is_integer():
            zero = _zero_of(right.ctype)
            negated = builder.sub(zero, right)
            return builder.convert(builder.elem_ptr(left, negated), expr.ctype)
        # pointer - pointer
        element = expr.left.ctype.pointee
        left_int = builder.convert(left, ctypes.LONG)
        right_int = builder.convert(right, ctypes.LONG)
        diff = builder.sub(left_int, right_int)
        size = Constant(ctypes.LONG, max(1, element.size()))
        return builder.binop("sdiv", diff, size)

    def _lower_logical(self, expr: ast.BinaryOp) -> Value:
        builder = self._builder
        result_slot = builder.alloca(ctypes.INT, var_name="")
        rhs_block = self._function.new_block("logic.rhs")
        end_block = self._function.new_block("logic.end")
        set_short = self._function.new_block("logic.short")
        left = self._truthy(self._lower_expr(expr.left))
        if expr.op == "&&":
            builder.cond_br(left, rhs_block, set_short)
            short_value = Constant(ctypes.INT, 0)
        else:
            builder.cond_br(left, set_short, rhs_block)
            short_value = Constant(ctypes.INT, 1)
        builder.position_at_end(set_short)
        builder.store(short_value, result_slot)
        builder.br(end_block)
        builder.position_at_end(rhs_block)
        right = self._truthy(self._lower_expr(expr.right))
        builder.store(right, result_slot)
        builder.br(end_block)
        builder.position_at_end(end_block)
        return builder.load(result_slot)

    def _lower_assignment(self, expr: ast.Assignment) -> Value:
        builder = self._builder
        address = self._lower_address(expr.target)
        if expr.target.ctype.is_struct():
            source = self._lower_address(expr.value)
            size = Constant(ctypes.LONG, expr.target.ctype.size())
            dst = builder.convert(address, ctypes.PointerType(ctypes.VOID))
            src = builder.convert(source, ctypes.PointerType(ctypes.VOID))
            builder.call("memcpy_", [dst, src, size], ctypes.PointerType(ctypes.VOID))
            return address
        saved = self._compound_value
        if _contains_compound_read(expr.value):
            self._compound_value = builder.load(address)
        value = self._lower_expr(expr.value)
        self._compound_value = saved
        builder.store(value, address)
        return value

    def _lower_conditional(self, expr: ast.Conditional) -> Value:
        builder = self._builder
        result_slot = builder.alloca(expr.ctype, var_name="")
        then_block = self._function.new_block("cond.then")
        else_block = self._function.new_block("cond.else")
        end_block = self._function.new_block("cond.end")
        cond = self._truthy(self._lower_expr(expr.condition))
        builder.cond_br(cond, then_block, else_block)
        builder.position_at_end(then_block)
        builder.store(self._lower_expr(expr.then_expr), result_slot)
        builder.br(end_block)
        builder.position_at_end(else_block)
        builder.store(self._lower_expr(expr.else_expr), result_slot)
        builder.br(end_block)
        builder.position_at_end(end_block)
        return builder.load(result_slot)

    def _lower_call(self, expr: ast.Call) -> Value:
        builder = self._builder
        assert isinstance(expr.callee, ast.Identifier)
        name = expr.callee.name
        args = [self._lower_expr(arg) for arg in expr.args]
        if name in self.module.functions:
            return builder.call(self.module.functions[name], args)
        if name in BUILTINS:
            return builder.call(name, args, BUILTINS[name].return_type)
        raise LoweringError(f"call to unknown function '{name}'")

    def _lower_cast(self, expr: ast.Cast) -> Value:
        builder = self._builder
        operand_type = expr.operand.ctype
        if operand_type is not None and operand_type.is_array():
            # Array-to-pointer decay: the value is the array's address.
            address = self._lower_address(expr.operand)
            return builder.convert(address, expr.ctype)
        value = self._lower_expr(expr.operand)
        if expr.ctype.is_void():
            return value
        return builder.convert(value, expr.ctype)

    # -- helpers --------------------------------------------------------------------

    def _truthy(self, value: Value) -> Value:
        """Convert any scalar to int 0/1."""
        builder = self._builder
        if value.ctype.is_pointer():
            return builder.cmp("ne", value, Constant(value.ctype, 0))
        if value.ctype.is_float():
            return builder.cmp("fne", value, Constant(value.ctype, 0.0))
        zero = _zero_of(value.ctype)
        return builder.cmp("ne", value, zero)

    def _string_global(self, data: bytes) -> GlobalVariable:
        existing = self._string_globals.get(data)
        if existing is not None:
            return existing
        name = f".str.{len(self._string_globals)}"
        image = data + b"\x00"
        variable = GlobalVariable(
            name, ctypes.ArrayType(ctypes.CHAR, len(image)), image, readonly=True
        )
        self.module.add_global(variable)
        self._string_globals[data] = variable
        return variable


def _zero_of(ctype: ctypes.CType) -> Constant:
    if ctype.is_float():
        return Constant(ctype, 0.0)
    return Constant(ctype, 0)


def _contains_compound_read(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.CompoundRead):
        return True
    return any(
        isinstance(child, ast.Expr) and _contains_compound_read(child)
        for child in expr.children()
    )


def _global_initializer_bytes(decl: ast.VarDecl) -> Optional[bytes]:
    """Encode a global initializer as its byte image (None = zero-init)."""
    init = decl.initializer
    if init is None:
        return None
    if isinstance(init, ast.StringLiteral) and decl.declared_type.is_array():
        return init.value + b"\x00"
    value = _const_eval(init)
    if value is None:
        raise LoweringError(
            f"global '{decl.name}' initializer is not a constant expression"
        )
    target = decl.declared_type
    if target.is_integer() or target.is_pointer():
        size = target.size()
        signed = getattr(target, "signed", False)
        mask = (1 << (size * 8)) - 1
        return (int(value) & mask).to_bytes(size, "little")
    if target.is_float():
        import struct

        fmt = "<f" if target.size() == 4 else "<d"
        return struct.pack(fmt, float(value))
    raise LoweringError(f"cannot encode initializer for global '{decl.name}'")


def _const_eval(expr: ast.Expr):
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.FloatLiteral):
        return expr.value
    if isinstance(expr, ast.Cast):
        return _const_eval(expr.operand)
    if isinstance(expr, ast.UnaryOp) and expr.op == "-":
        inner = _const_eval(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, ast.SizeofType):
        return expr.queried_type.size()
    if isinstance(expr, ast.BinaryOp):
        left = _const_eval(expr.left)
        right = _const_eval(expr.right)
        if left is None or right is None:
            return None
        ops = {
            "+": lambda a, b: a + b,
            "-": lambda a, b: a - b,
            "*": lambda a, b: a * b,
        }
        fn = ops.get(expr.op)
        return fn(left, right) if fn else None
    return None
