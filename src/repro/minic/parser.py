"""Recursive-descent parser for Mini-C.

The parser produces the AST defined in `repro.minic.astnodes`.  Types are
resolved during parsing (Mini-C has no typedefs, so a token lookahead is
enough to tell declarations from statements), struct tags are tracked in a
parser-owned table, and constant expressions for array lengths are folded
immediately.  A non-constant array length yields a VLA.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import ParseError, SourceLocation
from repro.minic import astnodes as ast
from repro.minic import types as ct
from repro.minic.lexer import tokenize
from repro.minic.tokens import Token, TokenKind

# Binary operator precedence, higher binds tighter.  Assignment and the
# conditional operator are handled separately (right-associative).
_BINARY_PRECEDENCE: Dict[TokenKind, Tuple[int, str]] = {
    TokenKind.OROR: (1, "||"),
    TokenKind.ANDAND: (2, "&&"),
    TokenKind.PIPE: (3, "|"),
    TokenKind.CARET: (4, "^"),
    TokenKind.AMP: (5, "&"),
    TokenKind.EQ: (6, "=="),
    TokenKind.NE: (6, "!="),
    TokenKind.LT: (7, "<"),
    TokenKind.GT: (7, ">"),
    TokenKind.LE: (7, "<="),
    TokenKind.GE: (7, ">="),
    TokenKind.LSHIFT: (8, "<<"),
    TokenKind.RSHIFT: (8, ">>"),
    TokenKind.PLUS: (9, "+"),
    TokenKind.MINUS: (9, "-"),
    TokenKind.STAR: (10, "*"),
    TokenKind.SLASH: (10, "/"),
    TokenKind.PERCENT: (10, "%"),
}

#: Prefix operators that wrap their operand in a ``UnaryOp``.
_PREFIX_OPS: Dict[TokenKind, str] = {
    TokenKind.MINUS: "-",
    TokenKind.BANG: "!",
    TokenKind.TILDE: "~",
    TokenKind.STAR: "*",
    TokenKind.AMP: "&",
    TokenKind.PLUSPLUS: "++",
    TokenKind.MINUSMINUS: "--",
}

#: Tokens that continue a postfix expression.
_POSTFIX_STARTS = frozenset(
    {
        TokenKind.LPAREN,
        TokenKind.LBRACKET,
        TokenKind.DOT,
        TokenKind.ARROW,
        TokenKind.PLUSPLUS,
        TokenKind.MINUSMINUS,
    }
)

_COMPOUND_ASSIGN: Dict[TokenKind, str] = {
    TokenKind.PLUS_ASSIGN: "+",
    TokenKind.MINUS_ASSIGN: "-",
    TokenKind.STAR_ASSIGN: "*",
    TokenKind.SLASH_ASSIGN: "/",
    TokenKind.PERCENT_ASSIGN: "%",
    TokenKind.AMP_ASSIGN: "&",
    TokenKind.PIPE_ASSIGN: "|",
    TokenKind.CARET_ASSIGN: "^",
    TokenKind.LSHIFT_ASSIGN: "<<",
    TokenKind.RSHIFT_ASSIGN: ">>",
}


class Parser:
    """Parses one Mini-C translation unit."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0
        self._structs: Dict[str, ct.StructType] = {}

    # -- token stream helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        # The cursor never passes the final token, so only a lookahead
        # past the end needs clamping (and the current token is simply
        # ``self._tokens[self._pos]``, which the hot paths read inline).
        try:
            return self._tokens[self._pos + offset]
        except IndexError:
            return self._tokens[-1]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._tokens[self._pos].kind is kind

    def _match(self, kind: TokenKind) -> Optional[Token]:
        if self._tokens[self._pos].kind is kind:
            return self._advance()
        return None

    def _expect(self, kind: TokenKind, context: str = "") -> Token:
        token = self._tokens[self._pos]
        if token.kind is not kind:
            where = f" in {context}" if context else ""
            raise ParseError(
                f"expected {kind.value!r} but found {token.text or token.kind.value!r}{where}",
                token.location,
            )
        return self._advance()

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self._tokens[self._pos].location)

    # -- entry point --------------------------------------------------------------

    def parse_translation_unit(self) -> ast.TranslationUnit:
        start = self._tokens[self._pos].location
        declarations: List[ast.Node] = []
        while not self._check(TokenKind.EOF):
            declarations.extend(self._parse_top_level())
        return ast.TranslationUnit(declarations, start)

    def _parse_top_level(self) -> List[ast.Node]:
        token = self._tokens[self._pos]
        if not token.is_type_start():
            raise self._error(
                f"expected a declaration at top level, found {token.text!r}"
            )
        # A struct definition: 'struct' IDENT '{' ... '}' ';'
        if (
            token.kind is TokenKind.KW_STRUCT
            and self._peek(1).kind is TokenKind.IDENT
            and self._peek(2).kind is TokenKind.LBRACE
        ):
            return [self._parse_struct_definition()]
        return self._parse_function_or_globals()

    # -- types --------------------------------------------------------------------

    def _parse_declaration_specifiers(self) -> Tuple[ct.CType, bool]:
        """Parse qualifiers + base type.  Returns (type, is_extern)."""
        is_extern = False
        while self._tokens[self._pos].kind in (
            TokenKind.KW_CONST,
            TokenKind.KW_STATIC,
            TokenKind.KW_EXTERN,
        ):
            if self._advance().kind is TokenKind.KW_EXTERN:
                is_extern = True
        base = self._parse_base_type()
        # Trailing qualifiers (e.g. "int const") are accepted and ignored.
        while self._match(TokenKind.KW_CONST):
            pass
        return base, is_extern

    def _parse_base_type(self) -> ct.CType:
        token = self._tokens[self._pos]
        if token.kind is TokenKind.KW_UNSIGNED:
            self._advance()
            follow = self._tokens[self._pos]
            if follow.kind is TokenKind.KW_CHAR:
                self._advance()
                return ct.UCHAR
            if follow.kind is TokenKind.KW_SHORT:
                self._advance()
                self._match(TokenKind.KW_INT)
                return ct.USHORT
            if follow.kind is TokenKind.KW_LONG:
                self._advance()
                self._match(TokenKind.KW_LONG)
                self._match(TokenKind.KW_INT)
                return ct.ULONG
            self._match(TokenKind.KW_INT)
            return ct.UINT
        if token.kind is TokenKind.KW_CHAR:
            self._advance()
            return ct.CHAR
        if token.kind is TokenKind.KW_SHORT:
            self._advance()
            self._match(TokenKind.KW_INT)
            return ct.SHORT
        if token.kind is TokenKind.KW_INT:
            self._advance()
            return ct.INT
        if token.kind is TokenKind.KW_LONG:
            self._advance()
            self._match(TokenKind.KW_LONG)
            if self._match(TokenKind.KW_DOUBLE):
                return ct.DOUBLE
            self._match(TokenKind.KW_INT)
            return ct.LONG
        if token.kind is TokenKind.KW_FLOAT:
            self._advance()
            return ct.FLOAT
        if token.kind is TokenKind.KW_DOUBLE:
            self._advance()
            return ct.DOUBLE
        if token.kind is TokenKind.KW_VOID:
            self._advance()
            return ct.VOID
        if token.kind is TokenKind.KW_STRUCT:
            self._advance()
            tag = self._expect(TokenKind.IDENT, "struct type").text
            return self._struct_type(tag)
        raise self._error(f"expected a type, found {token.text!r}")

    def _struct_type(self, tag: str) -> ct.StructType:
        if tag not in self._structs:
            self._structs[tag] = ct.StructType(tag)
        return self._structs[tag]

    def _parse_pointers(self, base: ct.CType) -> ct.CType:
        while self._match(TokenKind.STAR):
            while self._match(TokenKind.KW_CONST):
                pass
            base = ct.PointerType(base)
        return base

    def _parse_array_suffixes(
        self, base: ct.CType
    ) -> Tuple[ct.CType, Optional[ast.Expr]]:
        """Parse ``[expr]`` suffixes.  Returns (type, vla_length_expr).

        A non-constant length makes the outermost dimension a VLA; only one
        VLA dimension is supported (enough for C99-style local buffers).
        """
        dims: List[Tuple[Optional[int], Optional[ast.Expr]]] = []
        while self._match(TokenKind.LBRACKET):
            if self._check(TokenKind.RBRACKET):
                raise self._error("array declarator requires a length in Mini-C")
            length_expr = self.parse_expression()
            self._expect(TokenKind.RBRACKET, "array declarator")
            folded = _try_fold_constant(length_expr)
            if folded is not None:
                if folded <= 0:
                    raise ParseError(
                        "array length must be positive", length_expr.location
                    )
                dims.append((folded, None))
            else:
                dims.append((None, length_expr))
        vla_expr: Optional[ast.Expr] = None
        # Build the array type inside-out (rightmost dimension innermost).
        for index, (length, expr) in enumerate(reversed(dims)):
            is_outermost = index == len(dims) - 1
            if expr is not None:
                if not is_outermost:
                    raise ParseError(
                        "only the outermost array dimension may be variable",
                        expr.location,
                    )
                vla_expr = expr
                base = ct.ArrayType(base, None)
            else:
                base = ct.ArrayType(base, length)
        return base, vla_expr

    # -- top-level declarations -----------------------------------------------------

    def _parse_struct_definition(self) -> ast.StructDef:
        location = self._expect(TokenKind.KW_STRUCT).location
        tag = self._expect(TokenKind.IDENT, "struct definition").text
        struct_type = self._struct_type(tag)
        self._expect(TokenKind.LBRACE, "struct definition")
        fields: List[Tuple[str, ct.CType]] = []
        while not self._check(TokenKind.RBRACE):
            base, _ = self._parse_declaration_specifiers()
            while True:
                field_type = self._parse_pointers(base)
                name = self._expect(TokenKind.IDENT, "struct field").text
                field_type, vla = self._parse_array_suffixes(field_type)
                if vla is not None:
                    raise self._error("struct fields cannot be variable-length")
                fields.append((name, field_type))
                if not self._match(TokenKind.COMMA):
                    break
            self._expect(TokenKind.SEMICOLON, "struct field")
        self._expect(TokenKind.RBRACE, "struct definition")
        self._expect(TokenKind.SEMICOLON, "struct definition")
        struct_type.set_fields(fields)
        return ast.StructDef(struct_type, location)

    def _parse_function_or_globals(self) -> List[ast.Node]:
        base, is_extern = self._parse_declaration_specifiers()
        first_type = self._parse_pointers(base)
        name_token = self._expect(TokenKind.IDENT, "declaration")
        if self._check(TokenKind.LPAREN):
            return [self._parse_function(first_type, name_token, is_extern)]
        return self._parse_global_variables(base, first_type, name_token)

    def _parse_function(
        self, return_type: ct.CType, name_token: Token, is_extern: bool
    ) -> ast.FunctionDef:
        self._expect(TokenKind.LPAREN, "function declaration")
        params: List[ast.ParamDecl] = []
        if not self._check(TokenKind.RPAREN):
            if self._check(TokenKind.KW_VOID) and self._peek(1).kind is TokenKind.RPAREN:
                self._advance()
            else:
                while True:
                    param_base, _ = self._parse_declaration_specifiers()
                    param_type = self._parse_pointers(param_base)
                    param_name = self._expect(TokenKind.IDENT, "parameter").text
                    param_type, vla = self._parse_array_suffixes(param_type)
                    if vla is not None or param_type.is_array():
                        # Arrays decay to pointers in parameter position.
                        assert isinstance(param_type, ct.ArrayType)
                        param_type = ct.PointerType(param_type.element)
                    params.append(
                        ast.ParamDecl(param_name, param_type, name_token.location)
                    )
                    if not self._match(TokenKind.COMMA):
                        break
        self._expect(TokenKind.RPAREN, "function declaration")
        body: Optional[ast.Block] = None
        if self._check(TokenKind.LBRACE):
            body = self._parse_block()
        else:
            self._expect(TokenKind.SEMICOLON, "function declaration")
        return ast.FunctionDef(
            str(name_token.value),
            return_type,
            params,
            body,
            is_extern=is_extern or body is None,
            location=name_token.location,
        )

    def _parse_global_variables(
        self, base: ct.CType, first_type: ct.CType, first_name: Token
    ) -> List[ast.Node]:
        decls: List[ast.Node] = []
        var_type, vla = self._parse_array_suffixes(first_type)
        if vla is not None:
            raise ParseError(
                "global variables cannot be variable-length", first_name.location
            )
        decls.append(self._finish_global(first_name, var_type))
        while self._match(TokenKind.COMMA):
            next_type = self._parse_pointers(base)
            name_token = self._expect(TokenKind.IDENT, "declaration")
            next_type, vla = self._parse_array_suffixes(next_type)
            if vla is not None:
                raise ParseError(
                    "global variables cannot be variable-length", name_token.location
                )
            decls.append(self._finish_global(name_token, next_type))
        self._expect(TokenKind.SEMICOLON, "declaration")
        return decls

    def _finish_global(self, name_token: Token, var_type: ct.CType) -> ast.VarDecl:
        initializer = None
        if self._match(TokenKind.ASSIGN):
            initializer = self.parse_assignment_expression()
        return ast.VarDecl(
            str(name_token.value),
            var_type,
            initializer=initializer,
            is_global=True,
            location=name_token.location,
        )

    # -- statements -----------------------------------------------------------------

    def _parse_block(self) -> ast.Block:
        location = self._expect(TokenKind.LBRACE, "block").location
        statements: List[ast.Stmt] = []
        while not self._check(TokenKind.RBRACE):
            if self._check(TokenKind.EOF):
                raise self._error("unterminated block")
            statements.append(self._parse_statement())
        self._expect(TokenKind.RBRACE, "block")
        return ast.Block(statements, location)

    def _parse_statement(self) -> ast.Stmt:
        token = self._tokens[self._pos]
        if token.kind is TokenKind.LBRACE:
            return self._parse_block()
        if token.kind is TokenKind.SEMICOLON:
            self._advance()
            return ast.EmptyStmt(token.location)
        if token.is_type_start():
            return self._parse_local_declaration()
        if token.kind is TokenKind.KW_IF:
            return self._parse_if()
        if token.kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if token.kind is TokenKind.KW_DO:
            return self._parse_do_while()
        if token.kind is TokenKind.KW_FOR:
            return self._parse_for()
        if token.kind is TokenKind.KW_RETURN:
            self._advance()
            value = None
            if not self._check(TokenKind.SEMICOLON):
                value = self.parse_expression()
            self._expect(TokenKind.SEMICOLON, "return statement")
            return ast.Return(value, token.location)
        if token.kind is TokenKind.KW_BREAK:
            self._advance()
            self._expect(TokenKind.SEMICOLON, "break statement")
            return ast.Break(token.location)
        if token.kind is TokenKind.KW_CONTINUE:
            self._advance()
            self._expect(TokenKind.SEMICOLON, "continue statement")
            return ast.Continue(token.location)
        expr = self.parse_expression()
        self._expect(TokenKind.SEMICOLON, "expression statement")
        return ast.ExprStmt(expr, token.location)

    def _parse_local_declaration(self) -> ast.DeclStmt:
        location = self._tokens[self._pos].location
        base, _ = self._parse_declaration_specifiers()
        decls: List[ast.VarDecl] = []
        while True:
            var_type = self._parse_pointers(base)
            name_token = self._expect(TokenKind.IDENT, "declaration")
            var_type, vla_expr = self._parse_array_suffixes(var_type)
            initializer = None
            if self._match(TokenKind.ASSIGN):
                if vla_expr is not None:
                    raise ParseError(
                        "variable-length arrays cannot have initializers",
                        name_token.location,
                    )
                initializer = self.parse_assignment_expression()
            decls.append(
                ast.VarDecl(
                    str(name_token.value),
                    var_type,
                    initializer=initializer,
                    vla_length=vla_expr,
                    location=name_token.location,
                )
            )
            if not self._match(TokenKind.COMMA):
                break
        self._expect(TokenKind.SEMICOLON, "declaration")
        return ast.DeclStmt(decls, location)

    def _parse_if(self) -> ast.If:
        location = self._expect(TokenKind.KW_IF).location
        self._expect(TokenKind.LPAREN, "if statement")
        condition = self.parse_expression()
        self._expect(TokenKind.RPAREN, "if statement")
        then_branch = self._parse_statement()
        else_branch = None
        if self._match(TokenKind.KW_ELSE):
            else_branch = self._parse_statement()
        return ast.If(condition, then_branch, else_branch, location)

    def _parse_while(self) -> ast.While:
        location = self._expect(TokenKind.KW_WHILE).location
        self._expect(TokenKind.LPAREN, "while statement")
        condition = self.parse_expression()
        self._expect(TokenKind.RPAREN, "while statement")
        body = self._parse_statement()
        return ast.While(condition, body, location)

    def _parse_do_while(self) -> ast.DoWhile:
        location = self._expect(TokenKind.KW_DO).location
        body = self._parse_statement()
        self._expect(TokenKind.KW_WHILE, "do-while statement")
        self._expect(TokenKind.LPAREN, "do-while statement")
        condition = self.parse_expression()
        self._expect(TokenKind.RPAREN, "do-while statement")
        self._expect(TokenKind.SEMICOLON, "do-while statement")
        return ast.DoWhile(body, condition, location)

    def _parse_for(self) -> ast.For:
        location = self._expect(TokenKind.KW_FOR).location
        self._expect(TokenKind.LPAREN, "for statement")
        init: Optional[ast.Stmt] = None
        if not self._check(TokenKind.SEMICOLON):
            if self._tokens[self._pos].is_type_start():
                init = self._parse_local_declaration()
            else:
                expr = self.parse_expression()
                self._expect(TokenKind.SEMICOLON, "for statement")
                init = ast.ExprStmt(expr, expr.location)
        else:
            self._advance()
        condition = None
        if not self._check(TokenKind.SEMICOLON):
            condition = self.parse_expression()
        self._expect(TokenKind.SEMICOLON, "for statement")
        step = None
        if not self._check(TokenKind.RPAREN):
            step = self.parse_expression()
        self._expect(TokenKind.RPAREN, "for statement")
        body = self._parse_statement()
        return ast.For(init, condition, step, body, location)

    # -- expressions ------------------------------------------------------------------

    def parse_expression(self) -> ast.Expr:
        """Full expression including assignment (no comma operator)."""
        return self.parse_assignment_expression()

    def parse_assignment_expression(self) -> ast.Expr:
        left = self._parse_conditional()
        token = self._tokens[self._pos]
        if token.kind is TokenKind.ASSIGN:
            self._advance()
            value = self.parse_assignment_expression()
            return ast.Assignment(left, value, None, token.location)
        if token.kind in _COMPOUND_ASSIGN:
            self._advance()
            value = self.parse_assignment_expression()
            return ast.Assignment(
                left, value, _COMPOUND_ASSIGN[token.kind], token.location
            )
        return left

    def _parse_conditional(self) -> ast.Expr:
        condition = self._parse_binary(1)
        if not self._check(TokenKind.QUESTION):
            return condition
        location = self._advance().location
        then_expr = self.parse_expression()
        self._expect(TokenKind.COLON, "conditional expression")
        else_expr = self._parse_conditional()
        return ast.Conditional(condition, then_expr, else_expr, location)

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        left = self._parse_unary()
        while True:
            token = self._tokens[self._pos]
            entry = _BINARY_PRECEDENCE.get(token.kind)
            if entry is None or entry[0] < min_precedence:
                return left
            precedence, op = entry
            self._advance()
            right = self._parse_binary(precedence + 1)
            left = ast.BinaryOp(op, left, right, token.location)

    def _parse_unary(self) -> ast.Expr:
        token = self._tokens[self._pos]
        op = _PREFIX_OPS.get(token.kind)
        if op is not None:
            self._advance()
            return ast.UnaryOp(op, self._parse_unary(), token.location)
        if token.kind is TokenKind.PLUS:
            self._advance()
            return self._parse_unary()
        if token.kind is TokenKind.KW_SIZEOF:
            return self._parse_sizeof()
        if token.kind is TokenKind.LPAREN and self._peek(1).is_type_start():
            return self._parse_cast()
        return self._parse_postfix()

    def _parse_sizeof(self) -> ast.Expr:
        location = self._expect(TokenKind.KW_SIZEOF).location
        if self._check(TokenKind.LPAREN) and self._peek(1).is_type_start():
            self._advance()
            queried = self._parse_type_name()
            self._expect(TokenKind.RPAREN, "sizeof")
            return ast.SizeofType(queried, location)
        operand = self._parse_unary()
        return ast.SizeofExpr(operand, location)

    def _parse_cast(self) -> ast.Expr:
        location = self._expect(TokenKind.LPAREN).location
        target = self._parse_type_name()
        self._expect(TokenKind.RPAREN, "cast")
        operand = self._parse_unary()
        return ast.Cast(target, operand, location)

    def _parse_type_name(self) -> ct.CType:
        base, _ = self._parse_declaration_specifiers()
        full = self._parse_pointers(base)
        # Abstract array declarators like "int[4]" in sizeof/cast position.
        while self._match(TokenKind.LBRACKET):
            length_expr = self.parse_expression()
            self._expect(TokenKind.RBRACKET, "type name")
            folded = _try_fold_constant(length_expr)
            if folded is None or folded <= 0:
                raise ParseError(
                    "array length in type name must be a positive constant",
                    length_expr.location,
                )
            full = ct.ArrayType(full, folded)
        return full

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._tokens[self._pos]
            if token.kind not in _POSTFIX_STARTS:
                return expr
            if token.kind is TokenKind.LPAREN:
                self._advance()
                args: List[ast.Expr] = []
                if not self._check(TokenKind.RPAREN):
                    while True:
                        args.append(self.parse_assignment_expression())
                        if not self._match(TokenKind.COMMA):
                            break
                self._expect(TokenKind.RPAREN, "call")
                expr = ast.Call(expr, args, token.location)
            elif token.kind is TokenKind.LBRACKET:
                self._advance()
                index = self.parse_expression()
                self._expect(TokenKind.RBRACKET, "subscript")
                expr = ast.Index(expr, index, token.location)
            elif token.kind is TokenKind.DOT:
                self._advance()
                field = self._expect(TokenKind.IDENT, "member access").text
                expr = ast.Member(expr, field, False, token.location)
            elif token.kind is TokenKind.ARROW:
                self._advance()
                field = self._expect(TokenKind.IDENT, "member access").text
                expr = ast.Member(expr, field, True, token.location)
            elif token.kind is TokenKind.PLUSPLUS:
                self._advance()
                expr = ast.PostfixOp("++", expr, token.location)
            else:  # MINUSMINUS
                self._advance()
                expr = ast.PostfixOp("--", expr, token.location)

    def _parse_primary(self) -> ast.Expr:
        token = self._tokens[self._pos]
        if token.kind is TokenKind.IDENT:
            self._advance()
            return ast.Identifier(str(token.value), token.location)
        if token.kind is TokenKind.INT_LITERAL:
            self._advance()
            return ast.IntLiteral(int(token.value), token.location)
        if token.kind is TokenKind.CHAR_LITERAL:
            self._advance()
            return ast.IntLiteral(int(token.value), token.location)
        if token.kind is TokenKind.STRING_LITERAL:
            self._advance()
            assert isinstance(token.value, bytes)
            return ast.StringLiteral(token.value, token.location)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self.parse_expression()
            self._expect(TokenKind.RPAREN, "parenthesized expression")
            return expr
        raise self._error(f"expected an expression, found {token.text!r}")


def _try_fold_constant(expr: ast.Expr) -> Optional[int]:
    """Fold an integer constant expression; None if not constant."""
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.SizeofType):
        try:
            return expr.queried_type.size()
        except Exception:
            return None
    if isinstance(expr, ast.UnaryOp):
        operand = _try_fold_constant(expr.operand)
        if operand is None:
            return None
        if expr.op == "-":
            return -operand
        if expr.op == "~":
            return ~operand
        if expr.op == "!":
            return int(not operand)
        return None
    if isinstance(expr, ast.BinaryOp):
        left = _try_fold_constant(expr.left)
        right = _try_fold_constant(expr.right)
        if left is None or right is None:
            return None
        try:
            return _fold_binary(expr.op, left, right)
        except ZeroDivisionError:
            return None
    return None


def _fold_binary(op: str, left: int, right: int) -> Optional[int]:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return int(left / right) if right else None
    if op == "%":
        return left - int(left / right) * right if right else None
    if op == "<<":
        return left << right
    if op == ">>":
        return left >> right
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    return None


def parse(source: str, filename: str = "<input>") -> ast.TranslationUnit:
    """Parse Mini-C source text into a translation unit."""
    return Parser(tokenize(source, filename)).parse_translation_unit()
