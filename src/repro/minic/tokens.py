"""Token definitions for the Mini-C front-end.

Mini-C is the C subset the reproduction compiles: enough of C to express
the stack shapes Smokestack cares about (scalar locals of several widths,
fixed-size buffers, structs, pointers, variable-length arrays) and the
control flow DOP attacks exploit (loops, conditionals, calls).
"""

from __future__ import annotations

import enum
from typing import Optional, Union

from repro.errors import SourceLocation


class TokenKind(enum.Enum):
    """Every lexical category recognised by the Mini-C lexer."""

    # Literals and identifiers.
    IDENT = "identifier"
    INT_LITERAL = "integer literal"
    CHAR_LITERAL = "character literal"
    STRING_LITERAL = "string literal"

    # Keywords.
    KW_INT = "int"
    KW_CHAR = "char"
    KW_SHORT = "short"
    KW_LONG = "long"
    KW_DOUBLE = "double"
    KW_FLOAT = "float"
    KW_VOID = "void"
    KW_UNSIGNED = "unsigned"
    KW_STRUCT = "struct"
    KW_IF = "if"
    KW_ELSE = "else"
    KW_WHILE = "while"
    KW_FOR = "for"
    KW_DO = "do"
    KW_RETURN = "return"
    KW_BREAK = "break"
    KW_CONTINUE = "continue"
    KW_SIZEOF = "sizeof"
    KW_CONST = "const"
    KW_STATIC = "static"
    KW_EXTERN = "extern"

    # Punctuation and operators.
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    SEMICOLON = ";"
    COMMA = ","
    DOT = "."
    ARROW = "->"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    PERCENT = "%"
    AMP = "&"
    PIPE = "|"
    CARET = "^"
    TILDE = "~"
    BANG = "!"
    LSHIFT = "<<"
    RSHIFT = ">>"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    ANDAND = "&&"
    OROR = "||"
    ASSIGN = "="
    PLUS_ASSIGN = "+="
    MINUS_ASSIGN = "-="
    STAR_ASSIGN = "*="
    SLASH_ASSIGN = "/="
    PERCENT_ASSIGN = "%="
    AMP_ASSIGN = "&="
    PIPE_ASSIGN = "|="
    CARET_ASSIGN = "^="
    LSHIFT_ASSIGN = "<<="
    RSHIFT_ASSIGN = ">>="
    PLUSPLUS = "++"
    MINUSMINUS = "--"
    QUESTION = "?"
    COLON = ":"

    EOF = "end of input"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with equality — and, unlike Enum's name hash, runs
    # in C on every parser table lookup.
    __hash__ = object.__hash__


#: Keyword spelling -> token kind.  The lexer consults this after scanning
#: an identifier-shaped lexeme.
KEYWORDS = {
    "int": TokenKind.KW_INT,
    "char": TokenKind.KW_CHAR,
    "short": TokenKind.KW_SHORT,
    "long": TokenKind.KW_LONG,
    "double": TokenKind.KW_DOUBLE,
    "float": TokenKind.KW_FLOAT,
    "void": TokenKind.KW_VOID,
    "unsigned": TokenKind.KW_UNSIGNED,
    "struct": TokenKind.KW_STRUCT,
    "if": TokenKind.KW_IF,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "for": TokenKind.KW_FOR,
    "do": TokenKind.KW_DO,
    "return": TokenKind.KW_RETURN,
    "break": TokenKind.KW_BREAK,
    "continue": TokenKind.KW_CONTINUE,
    "sizeof": TokenKind.KW_SIZEOF,
    "const": TokenKind.KW_CONST,
    "static": TokenKind.KW_STATIC,
    "extern": TokenKind.KW_EXTERN,
}

#: Multi-character operators, longest first so the lexer can do maximal munch
#: by probing in order.
MULTI_CHAR_OPERATORS = [
    ("<<=", TokenKind.LSHIFT_ASSIGN),
    (">>=", TokenKind.RSHIFT_ASSIGN),
    ("->", TokenKind.ARROW),
    ("<<", TokenKind.LSHIFT),
    (">>", TokenKind.RSHIFT),
    ("<=", TokenKind.LE),
    (">=", TokenKind.GE),
    ("==", TokenKind.EQ),
    ("!=", TokenKind.NE),
    ("&&", TokenKind.ANDAND),
    ("||", TokenKind.OROR),
    ("+=", TokenKind.PLUS_ASSIGN),
    ("-=", TokenKind.MINUS_ASSIGN),
    ("*=", TokenKind.STAR_ASSIGN),
    ("/=", TokenKind.SLASH_ASSIGN),
    ("%=", TokenKind.PERCENT_ASSIGN),
    ("&=", TokenKind.AMP_ASSIGN),
    ("|=", TokenKind.PIPE_ASSIGN),
    ("^=", TokenKind.CARET_ASSIGN),
    ("++", TokenKind.PLUSPLUS),
    ("--", TokenKind.MINUSMINUS),
]

#: Single-character operators/punctuation.
SINGLE_CHAR_OPERATORS = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ";": TokenKind.SEMICOLON,
    ",": TokenKind.COMMA,
    ".": TokenKind.DOT,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "&": TokenKind.AMP,
    "|": TokenKind.PIPE,
    "^": TokenKind.CARET,
    "~": TokenKind.TILDE,
    "!": TokenKind.BANG,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "=": TokenKind.ASSIGN,
    "?": TokenKind.QUESTION,
    ":": TokenKind.COLON,
}


class Token:
    """A single lexical token with its source location.

    ``value`` carries the decoded payload for literal tokens: an ``int`` for
    integer and character literals, a ``bytes`` object for string literals
    (already unescaped, without the terminating NUL), and the spelling for
    identifiers.
    """

    __slots__ = ("kind", "text", "value", "location")

    def __init__(
        self,
        kind: TokenKind,
        text: str,
        location: SourceLocation,
        value: Union[int, str, bytes, None] = None,
    ):
        self.kind = kind
        self.text = text
        self.location = location
        self.value = value

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r})"

    def is_type_start(self) -> bool:
        """Return True if this token can begin a type specifier."""
        return self.kind in _TYPE_START_KINDS


_TYPE_START_KINDS = frozenset(
    {
        TokenKind.KW_INT,
        TokenKind.KW_CHAR,
        TokenKind.KW_SHORT,
        TokenKind.KW_LONG,
        TokenKind.KW_DOUBLE,
        TokenKind.KW_FLOAT,
        TokenKind.KW_VOID,
        TokenKind.KW_UNSIGNED,
        TokenKind.KW_STRUCT,
        TokenKind.KW_CONST,
        TokenKind.KW_STATIC,
        TokenKind.KW_EXTERN,
    }
)
