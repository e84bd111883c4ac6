"""Semantic analysis for Mini-C.

The analyzer type-checks a parsed translation unit and annotates it in
place:

* every expression node receives a ``ctype``,
* every :class:`~repro.minic.astnodes.Identifier` is resolved to its
  declaration (``decl``),
* implicit conversions (usual arithmetic conversions, assignment
  conversions, argument conversions, array-to-pointer decay) are made
  explicit by inserting :class:`~repro.minic.astnodes.Cast` nodes, so the
  lowering stage never has to infer a conversion.

Errors are reported as :class:`~repro.errors.SemanticError` with source
locations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import SemanticError
from repro.minic import astnodes as ast
from repro.minic import types as ct
from repro.minic.builtins import BUILTINS, builtin_function_type

_ARITH_BINOPS = frozenset({"+", "-", "*", "/", "%", "&", "|", "^"})
_SHIFT_BINOPS = frozenset({"<<", ">>"})
_COMPARISONS = frozenset({"==", "!=", "<", ">", "<=", ">="})
_LOGICALS = frozenset({"&&", "||"})


class Scope:
    """A lexical scope mapping names to declarations."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self._names: Dict[str, ast.Node] = {}

    def declare(self, name: str, decl: ast.Node) -> None:
        if name in self._names:
            raise SemanticError(f"redeclaration of '{name}'", decl.location)
        self._names[name] = decl

    def lookup(self, name: str) -> Optional[ast.Node]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope._names:
                return scope._names[name]
            scope = scope.parent
        return None


class FunctionInfo:
    """Summary of a known function: its AST node (if any) and type."""

    def __init__(self, name: str, fn_type: ct.FunctionType, node: Optional[ast.FunctionDef]):
        self.name = name
        self.fn_type = fn_type
        self.node = node


_INT_MIN = ct.INT.min_value()
_INT_MAX = ct.INT.max_value()
#: expression node type -> its ``Sema._check_<Type>`` (filled on first use)
_EXPR_CHECKERS: Dict[type, object] = {}


class Sema:
    """Runs semantic analysis over one translation unit."""

    def __init__(self):
        self._globals = Scope()
        self._functions: Dict[str, FunctionInfo] = {}
        self._current_function: Optional[ast.FunctionDef] = None
        self._loop_depth = 0
        # Scope used to resolve identifiers inside the expression currently
        # being checked; statement checking keeps this in sync.
        self._expr_scope: Scope = self._globals

    # -- entry point -------------------------------------------------------------

    def analyze(self, unit: ast.TranslationUnit) -> ast.TranslationUnit:
        """Type-check and annotate ``unit`` in place; returns it."""
        self._register_builtins()
        self._collect_top_level(unit)
        for decl in unit.declarations:
            if isinstance(decl, ast.FunctionDef) and decl.body is not None:
                self._check_function(decl)
        return unit

    # -- top level ---------------------------------------------------------------

    def _register_builtins(self) -> None:
        for name in BUILTINS:
            self._functions[name] = FunctionInfo(name, builtin_function_type(name), None)

    def _collect_top_level(self, unit: ast.TranslationUnit) -> None:
        for decl in unit.declarations:
            if isinstance(decl, ast.StructDef):
                continue  # struct types were completed during parsing
            if isinstance(decl, ast.FunctionDef):
                self._collect_function(decl)
            elif isinstance(decl, ast.VarDecl):
                self._collect_global(decl)
            else:
                raise SemanticError(
                    f"unsupported top-level declaration {type(decl).__name__}",
                    decl.location,
                )

    def _collect_function(self, decl: ast.FunctionDef) -> None:
        param_types = [p.declared_type for p in decl.params]
        for param in decl.params:
            if param.declared_type.is_void():
                raise SemanticError(
                    f"parameter '{param.name}' has void type", param.location
                )
            if not param.declared_type.is_complete():
                raise SemanticError(
                    f"parameter '{param.name}' has incomplete type", param.location
                )
        fn_type = ct.FunctionType(decl.return_type, param_types)
        existing = self._functions.get(decl.name)
        if existing is not None:
            if existing.node is None and decl.name in BUILTINS:
                raise SemanticError(
                    f"'{decl.name}' conflicts with a builtin function", decl.location
                )
            if existing.fn_type != fn_type:
                raise SemanticError(
                    f"conflicting declarations of function '{decl.name}'",
                    decl.location,
                )
            if existing.node is not None and existing.node.body is not None and decl.body is not None:
                raise SemanticError(
                    f"redefinition of function '{decl.name}'", decl.location
                )
            if decl.body is not None:
                existing.node = decl
            return
        self._functions[decl.name] = FunctionInfo(decl.name, fn_type, decl)

    def _collect_global(self, decl: ast.VarDecl) -> None:
        if decl.declared_type.is_void():
            raise SemanticError(f"global '{decl.name}' has void type", decl.location)
        if not decl.declared_type.is_complete():
            raise SemanticError(
                f"global '{decl.name}' has incomplete type", decl.location
            )
        if decl.initializer is not None:
            init = self._check_expr(decl.initializer)
            if decl.declared_type.is_array():
                if not (
                    isinstance(init, ast.StringLiteral)
                    and isinstance(decl.declared_type, ct.ArrayType)
                    and decl.declared_type.element == ct.CHAR
                ):
                    raise SemanticError(
                        "array initializers must be string literals for "
                        "char arrays",
                        decl.initializer.location,
                    )
                if len(init.value) + 1 > decl.declared_type.size():
                    raise SemanticError(
                        "string literal does not fit in array", init.location
                    )
                decl.initializer = init
            else:
                decl.initializer = self._convert_for_assignment(
                    init, decl.declared_type, "global initializer"
                )
        self._globals.declare(decl.name, decl)

    # -- functions and statements ---------------------------------------------------

    def _check_function(self, decl: ast.FunctionDef) -> None:
        self._current_function = decl
        scope = Scope(self._globals)
        for param in decl.params:
            scope.declare(param.name, param)
        assert decl.body is not None
        self._check_block(decl.body, scope)
        self._current_function = None

    def _check_block(self, block: ast.Block, parent_scope: Scope) -> None:
        scope = Scope(parent_scope)
        for stmt in block.statements:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: ast.Stmt, scope: Scope) -> None:
        self._expr_scope = scope
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, scope)
        elif isinstance(stmt, ast.DeclStmt):
            for decl in stmt.decls:
                self._check_local_decl(decl, scope)
        elif isinstance(stmt, ast.ExprStmt):
            stmt.expr = self._check_expr(stmt.expr)
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        elif isinstance(stmt, ast.If):
            stmt.condition = self._check_condition(stmt.condition)
            self._check_stmt(stmt.then_branch, scope)
            if stmt.else_branch is not None:
                self._check_stmt(stmt.else_branch, scope)
        elif isinstance(stmt, ast.While):
            stmt.condition = self._check_condition(stmt.condition)
            self._in_loop(stmt.body, scope)
        elif isinstance(stmt, ast.DoWhile):
            self._in_loop(stmt.body, scope)
            self._expr_scope = scope
            stmt.condition = self._check_condition(stmt.condition)
        elif isinstance(stmt, ast.For):
            for_scope = Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, for_scope)
            self._expr_scope = for_scope
            if stmt.condition is not None:
                stmt.condition = self._check_condition(stmt.condition)
            if stmt.step is not None:
                stmt.step = self._check_expr(stmt.step)
            self._in_loop(stmt.body, for_scope)
        elif isinstance(stmt, ast.Return):
            self._check_return(stmt)
        elif isinstance(stmt, ast.Break):
            if self._loop_depth == 0:
                raise SemanticError("'break' outside of a loop", stmt.location)
        elif isinstance(stmt, ast.Continue):
            if self._loop_depth == 0:
                raise SemanticError("'continue' outside of a loop", stmt.location)
        else:
            raise SemanticError(
                f"unsupported statement {type(stmt).__name__}", stmt.location
            )

    def _in_loop(self, body: ast.Stmt, scope: Scope) -> None:
        self._loop_depth += 1
        try:
            self._check_stmt(body, scope)
        finally:
            self._loop_depth -= 1

    def _check_local_decl(self, decl: ast.VarDecl, scope: Scope) -> None:
        declared = decl.declared_type
        if declared.is_void():
            raise SemanticError(f"variable '{decl.name}' has void type", decl.location)
        if decl.vla_length is not None:
            length = self._check_expr(decl.vla_length)
            if not length.ctype.is_integer():
                raise SemanticError(
                    "variable-length array size must be an integer",
                    decl.vla_length.location,
                )
            decl.vla_length = self._convert(length, ct.LONG)
        elif not declared.is_complete():
            raise SemanticError(
                f"variable '{decl.name}' has incomplete type", decl.location
            )
        if decl.initializer is not None:
            if declared.is_array():
                init = self._check_expr(decl.initializer)
                if not (
                    isinstance(init, ast.StringLiteral)
                    and isinstance(declared, ct.ArrayType)
                    and declared.element == ct.CHAR
                ):
                    raise SemanticError(
                        "array initializers must be string literals for char arrays",
                        decl.initializer.location,
                    )
                if declared.length is not None and len(init.value) + 1 > declared.size():
                    raise SemanticError(
                        "string literal does not fit in array", init.location
                    )
                decl.initializer = init
            else:
                init = self._check_expr(decl.initializer)
                decl.initializer = self._convert_for_assignment(
                    init, declared, f"initializer of '{decl.name}'"
                )
        scope.declare(decl.name, decl)

    def _check_return(self, stmt: ast.Return) -> None:
        assert self._current_function is not None
        return_type = self._current_function.return_type
        if stmt.value is None:
            if not return_type.is_void():
                raise SemanticError(
                    "non-void function must return a value", stmt.location
                )
            return
        if return_type.is_void():
            raise SemanticError("void function cannot return a value", stmt.location)
        value = self._check_expr(stmt.value)
        stmt.value = self._convert_for_assignment(value, return_type, "return value")

    def _check_condition(self, expr: ast.Expr) -> ast.Expr:
        checked = self._rvalue(self._check_expr(expr))
        if not checked.ctype.is_scalar():
            raise SemanticError(
                f"condition must be scalar, got {checked.ctype}", expr.location
            )
        return checked

    # -- expressions ------------------------------------------------------------------

    def _check_expr(self, expr: ast.Expr) -> ast.Expr:
        kind = type(expr)
        method = _EXPR_CHECKERS.get(kind)
        if method is None:
            method = _EXPR_CHECKERS[kind] = getattr(
                Sema, f"_check_{kind.__name__}", None
            )
        if method is None:
            raise SemanticError(
                f"unsupported expression {kind.__name__}", expr.location
            )
        result = method(self, expr)
        assert result.ctype is not None, f"no type computed for {expr!r}"
        return result

    def _check_IntLiteral(self, expr: ast.IntLiteral) -> ast.Expr:
        expr.ctype = ct.INT if _INT_MIN <= expr.value <= _INT_MAX else ct.LONG
        return expr

    def _check_FloatLiteral(self, expr: ast.FloatLiteral) -> ast.Expr:
        expr.ctype = ct.DOUBLE
        return expr

    def _check_StringLiteral(self, expr: ast.StringLiteral) -> ast.Expr:
        expr.ctype = ct.ArrayType(ct.CHAR, len(expr.value) + 1)
        return expr

    def _check_CompoundRead(self, expr: ast.CompoundRead) -> ast.Expr:
        # ctype was assigned when the node was synthesized in _check_Assignment.
        assert expr.ctype is not None
        return expr

    def _check_Identifier(self, expr: ast.Identifier) -> ast.Expr:
        decl = self._lookup(expr)
        expr.decl = decl
        if isinstance(decl, ast.VarDecl) or isinstance(decl, ast.ParamDecl):
            expr.ctype = decl.declared_type
            return expr
        raise SemanticError(
            f"'{expr.name}' does not name a variable here", expr.location
        )

    def _lookup(self, expr: ast.Identifier) -> ast.Node:
        decl = self._current_scope_lookup(expr.name)
        if decl is None:
            raise SemanticError(f"use of undeclared name '{expr.name}'", expr.location)
        return decl

    def _current_scope_lookup(self, name: str) -> Optional[ast.Node]:
        # Expression checking always happens with a statement scope that
        # _check_stmt keeps in sync; see self._expr_scope.
        return self._expr_scope.lookup(name)

    def _check_UnaryOp(self, expr: ast.UnaryOp) -> ast.Expr:
        if expr.op == "&":
            operand = self._check_expr(expr.operand)
            self._require_lvalue(operand, "operand of '&'")
            expr.operand = operand
            expr.ctype = ct.PointerType(operand.ctype)
            return expr
        if expr.op in ("++", "--"):
            operand = self._check_expr(expr.operand)
            self._require_lvalue(operand, f"operand of '{expr.op}'")
            if not operand.ctype.is_scalar():
                raise SemanticError(
                    f"'{expr.op}' requires a scalar operand", expr.location
                )
            expr.operand = operand
            expr.ctype = operand.ctype
            return expr
        operand = self._rvalue(self._check_expr(expr.operand))
        if expr.op == "*":
            if not operand.ctype.is_pointer():
                raise SemanticError(
                    f"cannot dereference non-pointer type {operand.ctype}",
                    expr.location,
                )
            pointee = operand.ctype.pointee
            if pointee.is_void():
                raise SemanticError("cannot dereference 'void*'", expr.location)
            expr.operand = operand
            expr.ctype = pointee
            return expr
        if expr.op == "-":
            if not operand.ctype.is_arithmetic():
                raise SemanticError("unary '-' requires arithmetic type", expr.location)
            operand = self._convert(operand, ct.integer_promote(operand.ctype))
            expr.operand = operand
            expr.ctype = operand.ctype
            return expr
        if expr.op == "~":
            if not operand.ctype.is_integer():
                raise SemanticError("'~' requires an integer type", expr.location)
            operand = self._convert(operand, ct.integer_promote(operand.ctype))
            expr.operand = operand
            expr.ctype = operand.ctype
            return expr
        if expr.op == "!":
            if not operand.ctype.is_scalar():
                raise SemanticError("'!' requires a scalar type", expr.location)
            expr.operand = operand
            expr.ctype = ct.INT
            return expr
        raise SemanticError(f"unsupported unary operator '{expr.op}'", expr.location)

    def _check_PostfixOp(self, expr: ast.PostfixOp) -> ast.Expr:
        operand = self._check_expr(expr.operand)
        self._require_lvalue(operand, f"operand of '{expr.op}'")
        if not operand.ctype.is_scalar():
            raise SemanticError(f"'{expr.op}' requires a scalar operand", expr.location)
        expr.operand = operand
        expr.ctype = operand.ctype
        return expr

    def _check_BinaryOp(self, expr: ast.BinaryOp) -> ast.Expr:
        left = self._rvalue(self._check_expr(expr.left))
        right = self._rvalue(self._check_expr(expr.right))
        op = expr.op
        if op in _LOGICALS:
            for side, name in ((left, "left"), (right, "right")):
                if not side.ctype.is_scalar():
                    raise SemanticError(
                        f"{name} operand of '{op}' must be scalar", expr.location
                    )
            expr.left, expr.right = left, right
            expr.ctype = ct.INT
            return expr
        if op in _COMPARISONS:
            return self._check_comparison(expr, left, right)
        if op in _SHIFT_BINOPS:
            if not (left.ctype.is_integer() and right.ctype.is_integer()):
                raise SemanticError(f"'{op}' requires integer operands", expr.location)
            expr.left = self._convert(left, ct.integer_promote(left.ctype))
            expr.right = self._convert(right, ct.integer_promote(right.ctype))
            expr.ctype = expr.left.ctype
            return expr
        if op in ("+", "-") and (left.ctype.is_pointer() or right.ctype.is_pointer()):
            return self._check_pointer_arith(expr, left, right)
        if op in _ARITH_BINOPS:
            if op in ("%", "&", "|", "^") and not (
                left.ctype.is_integer() and right.ctype.is_integer()
            ):
                raise SemanticError(f"'{op}' requires integer operands", expr.location)
            if not (left.ctype.is_arithmetic() and right.ctype.is_arithmetic()):
                raise SemanticError(
                    f"'{op}' requires arithmetic operands, got {left.ctype} and {right.ctype}",
                    expr.location,
                )
            common = ct.common_arithmetic_type(left.ctype, right.ctype)
            expr.left = self._convert(left, common)
            expr.right = self._convert(right, common)
            expr.ctype = common
            return expr
        raise SemanticError(f"unsupported binary operator '{op}'", expr.location)

    def _check_comparison(
        self, expr: ast.BinaryOp, left: ast.Expr, right: ast.Expr
    ) -> ast.Expr:
        if left.ctype.is_arithmetic() and right.ctype.is_arithmetic():
            common = ct.common_arithmetic_type(left.ctype, right.ctype)
            expr.left = self._convert(left, common)
            expr.right = self._convert(right, common)
        elif left.ctype.is_pointer() and right.ctype.is_pointer():
            expr.left, expr.right = left, right
        elif left.ctype.is_pointer() and _is_null_constant(right):
            expr.left = left
            expr.right = self._convert(right, left.ctype)
        elif right.ctype.is_pointer() and _is_null_constant(left):
            expr.left = self._convert(left, right.ctype)
            expr.right = right
        else:
            raise SemanticError(
                f"cannot compare {left.ctype} with {right.ctype}", expr.location
            )
        expr.ctype = ct.INT
        return expr

    def _check_pointer_arith(
        self, expr: ast.BinaryOp, left: ast.Expr, right: ast.Expr
    ) -> ast.Expr:
        if expr.op == "+":
            if left.ctype.is_pointer() and right.ctype.is_integer():
                pointer, integer = left, right
            elif right.ctype.is_pointer() and left.ctype.is_integer():
                pointer, integer = right, left
            else:
                raise SemanticError(
                    "pointer '+' requires one pointer and one integer", expr.location
                )
            self._require_complete_pointee(pointer, expr)
            expr.left = pointer
            expr.right = self._convert(integer, ct.LONG)
            expr.ctype = pointer.ctype
            return expr
        # op == "-"
        if left.ctype.is_pointer() and right.ctype.is_integer():
            self._require_complete_pointee(left, expr)
            expr.left = left
            expr.right = self._convert(right, ct.LONG)
            expr.ctype = left.ctype
            return expr
        if left.ctype.is_pointer() and right.ctype.is_pointer():
            if left.ctype.pointee != right.ctype.pointee:
                raise SemanticError(
                    "pointer difference requires identical pointee types",
                    expr.location,
                )
            self._require_complete_pointee(left, expr)
            expr.left, expr.right = left, right
            expr.ctype = ct.LONG
            return expr
        raise SemanticError("invalid pointer subtraction", expr.location)

    def _require_complete_pointee(self, pointer: ast.Expr, expr: ast.Expr) -> None:
        pointee = pointer.ctype.pointee
        if not pointee.is_complete():
            raise SemanticError(
                f"pointer arithmetic on incomplete type {pointee}", expr.location
            )

    def _check_Assignment(self, expr: ast.Assignment) -> ast.Expr:
        target = self._check_expr(expr.target)
        self._require_lvalue(target, "assignment target")
        if target.ctype.is_array():
            raise SemanticError("cannot assign to an array", expr.location)
        value = self._check_expr(expr.value)
        if expr.op is not None:
            # Compound assignment: desugar to `target = target' op value`
            # where target' is a CompoundRead marker the lowering stage
            # substitutes with the once-loaded current value.
            reader = ast.CompoundRead(expr.location)
            reader.ctype = target.ctype
            synthetic = ast.BinaryOp(expr.op, reader, value, expr.location)
            value = self._check_BinaryOp(synthetic)
            expr.op = None
        expr.target = target
        expr.value = self._convert_for_assignment(value, target.ctype, "assignment")
        expr.ctype = target.ctype
        return expr

    def _check_Conditional(self, expr: ast.Conditional) -> ast.Expr:
        expr.condition = self._check_condition(expr.condition)
        then_expr = self._rvalue(self._check_expr(expr.then_expr))
        else_expr = self._rvalue(self._check_expr(expr.else_expr))
        if then_expr.ctype.is_arithmetic() and else_expr.ctype.is_arithmetic():
            common = ct.common_arithmetic_type(then_expr.ctype, else_expr.ctype)
            expr.then_expr = self._convert(then_expr, common)
            expr.else_expr = self._convert(else_expr, common)
            expr.ctype = common
        elif then_expr.ctype == else_expr.ctype:
            expr.then_expr, expr.else_expr = then_expr, else_expr
            expr.ctype = then_expr.ctype
        elif then_expr.ctype.is_pointer() and _is_null_constant(else_expr):
            expr.then_expr = then_expr
            expr.else_expr = self._convert(else_expr, then_expr.ctype)
            expr.ctype = then_expr.ctype
        elif else_expr.ctype.is_pointer() and _is_null_constant(then_expr):
            expr.then_expr = self._convert(then_expr, else_expr.ctype)
            expr.else_expr = else_expr
            expr.ctype = else_expr.ctype
        else:
            raise SemanticError(
                f"incompatible branches of '?:' ({then_expr.ctype} vs {else_expr.ctype})",
                expr.location,
            )
        return expr

    def _check_Call(self, expr: ast.Call) -> ast.Expr:
        if not isinstance(expr.callee, ast.Identifier):
            raise SemanticError(
                "Mini-C only supports direct calls to named functions",
                expr.location,
            )
        name = expr.callee.name
        info = self._functions.get(name)
        if info is None:
            raise SemanticError(f"call to undeclared function '{name}'", expr.location)
        fn_type = info.fn_type
        if len(expr.args) < len(fn_type.params) or (
            len(expr.args) > len(fn_type.params) and not fn_type.variadic
        ):
            raise SemanticError(
                f"function '{name}' expects {len(fn_type.params)} argument(s), "
                f"got {len(expr.args)}",
                expr.location,
            )
        new_args: List[ast.Expr] = []
        for index, arg in enumerate(expr.args):
            checked = self._check_expr(arg)
            if index < len(fn_type.params):
                checked = self._convert_for_assignment(
                    checked, fn_type.params[index], f"argument {index + 1} of '{name}'"
                )
            else:
                checked = self._rvalue(checked)
            new_args.append(checked)
        expr.args = new_args
        expr.callee.ctype = fn_type
        expr.callee.decl = info.node
        expr.ctype = fn_type.return_type
        return expr

    def _check_Index(self, expr: ast.Index) -> ast.Expr:
        base = self._check_expr(expr.base)
        index = self._rvalue(self._check_expr(expr.index))
        if not index.ctype.is_integer():
            raise SemanticError("array subscript must be an integer", expr.location)
        if base.ctype.is_array():
            element = base.ctype.element
        elif base.ctype.is_pointer():
            base = self._rvalue(base)
            element = base.ctype.pointee
            if element.is_void():
                raise SemanticError("cannot index a 'void*'", expr.location)
        else:
            raise SemanticError(
                f"cannot subscript type {base.ctype}", expr.location
            )
        expr.base = base
        expr.index = self._convert(index, ct.LONG)
        expr.ctype = element
        return expr

    def _check_Member(self, expr: ast.Member) -> ast.Expr:
        base = self._check_expr(expr.base)
        if expr.is_arrow:
            base = self._rvalue(base)
            if not (base.ctype.is_pointer() and base.ctype.pointee.is_struct()):
                raise SemanticError(
                    f"'->' requires a pointer to struct, got {base.ctype}",
                    expr.location,
                )
            struct_type = base.ctype.pointee
        else:
            if not base.ctype.is_struct():
                raise SemanticError(
                    f"'.' requires a struct, got {base.ctype}", expr.location
                )
            struct_type = base.ctype
        index = struct_type.field_index(expr.field)
        expr.base = base
        expr.ctype = struct_type.field_type(index)
        return expr

    def _check_Cast(self, expr: ast.Cast) -> ast.Expr:
        operand = self._rvalue(self._check_expr(expr.operand))
        target = expr.target_type
        src = operand.ctype
        ok = (
            (src.is_arithmetic() and target.is_arithmetic())
            or (src.is_pointer() and target.is_pointer())
            or (src.is_integer() and target.is_pointer())
            or (src.is_pointer() and target.is_integer())
            or target.is_void()
        )
        if not ok:
            raise SemanticError(f"invalid cast from {src} to {target}", expr.location)
        expr.operand = operand
        expr.ctype = target
        return expr

    def _check_SizeofType(self, expr: ast.SizeofType) -> ast.Expr:
        if not expr.queried_type.is_complete():
            raise SemanticError("sizeof applied to incomplete type", expr.location)
        expr.ctype = ct.LONG
        return expr

    def _check_SizeofExpr(self, expr: ast.SizeofExpr) -> ast.Expr:
        operand = self._check_expr(expr.operand)
        if not operand.ctype.is_complete():
            raise SemanticError(
                "sizeof applied to expression of incomplete type", expr.location
            )
        expr.operand = operand
        expr.ctype = ct.LONG
        return expr

    # -- conversion helpers ----------------------------------------------------------

    def _rvalue(self, expr: ast.Expr) -> ast.Expr:
        """Apply array-to-pointer decay; other lvalues convert implicitly."""
        if expr.ctype is not None and expr.ctype.is_array():
            decayed = ast.Cast(
                ct.PointerType(expr.ctype.element), expr, expr.location
            )
            decayed.ctype = decayed.target_type
            return decayed
        return expr

    def _convert(self, expr: ast.Expr, target: ct.CType) -> ast.Expr:
        """Insert a cast to ``target`` if the type differs."""
        if expr.ctype == target:
            return expr
        cast = ast.Cast(target, expr, expr.location)
        cast.ctype = target
        return cast

    def _convert_for_assignment(
        self, value: ast.Expr, target: ct.CType, context: str
    ) -> ast.Expr:
        value = self._rvalue(value)
        src = value.ctype
        if src == target:
            return value
        if src.is_arithmetic() and target.is_arithmetic():
            return self._convert(value, target)
        if src.is_pointer() and target.is_pointer():
            if (
                src.pointee == target.pointee
                or src.pointee.is_void()
                or target.pointee.is_void()
            ):
                return self._convert(value, target)
            raise SemanticError(
                f"incompatible pointer types in {context}: {src} -> {target}",
                value.location,
            )
        if target.is_pointer() and _is_null_constant(value):
            return self._convert(value, target)
        raise SemanticError(
            f"cannot convert {src} to {target} in {context}", value.location
        )

    def _require_lvalue(self, expr: ast.Expr, context: str) -> None:
        if not is_lvalue(expr):
            raise SemanticError(f"{context} must be an lvalue", expr.location)

def is_lvalue(expr: ast.Expr) -> bool:
    """Whether ``expr`` designates a memory location."""
    if isinstance(expr, ast.Identifier):
        return True
    if isinstance(expr, ast.UnaryOp) and expr.op == "*":
        return True
    if isinstance(expr, ast.Index):
        return True
    if isinstance(expr, ast.Member):
        return True
    return False


def _is_null_constant(expr: ast.Expr) -> bool:
    node = expr
    while isinstance(node, ast.Cast):
        node = node.operand
    return isinstance(node, ast.IntLiteral) and node.value == 0


def analyze(unit: ast.TranslationUnit) -> ast.TranslationUnit:
    """Run semantic analysis; annotates and returns ``unit``."""
    return Sema().analyze(unit)
