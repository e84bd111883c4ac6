"""Hand-written lexer for Mini-C.

The lexer is a straightforward maximal-munch scanner.  It handles:

* ``//`` line comments and ``/* ... */`` block comments,
* decimal, hexadecimal (``0x``) and octal (``0``-prefixed) integer literals
  with optional ``u``/``l`` suffixes (the suffixes are consumed and ignored;
  Mini-C's type system assigns literal types by context),
* character literals with the common C escapes,
* string literals, decoded to ``bytes`` (Mini-C strings are byte strings,
  as in C).

The scan is linear in the source length.  One compiled pattern, matched
in place at the current offset (``re`` never copies the rest of the
source), skips whitespace and comments and takes the next identifier or
operator; literals and errors fall through to small helpers.  The
position is one index plus the line number and the index where the
current line starts, so a column is a subtraction.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.errors import LexError, SourceLocation
from repro.minic.tokens import (
    KEYWORDS,
    MULTI_CHAR_OPERATORS,
    SINGLE_CHAR_OPERATORS,
    Token,
    TokenKind,
)

_ESCAPES = {
    "n": 10,
    "t": 9,
    "r": 13,
    "0": 0,
    "\\": 92,
    "'": 39,
    '"': 34,
    "a": 7,
    "b": 8,
    "f": 12,
    "v": 11,
}

#: Skips whitespace and terminated comments, then matches the next token
#: if it is an ASCII identifier (group 1) or an operator (group 2), the
#: two shapes that need no decoding.  ``\w`` on a str pattern is exactly
#: ``ch.isalnum() or ch == "_"``, the identifier-tail rule.  Multi-char
#: operators come first, longest first, as maximal munch needs; a ``/``
#: before ``*`` here opens an unterminated comment, not a division.
_NEXT = re.compile(
    r"(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*(?:([A-Za-z_]\w*)|("
    + "|".join(re.escape(spelling) for spelling, _ in MULTI_CHAR_OPERATORS)
    + "|/(?!\\*)|["
    + re.escape("".join(ch for ch in SINGLE_CHAR_OPERATORS if ch != "/"))
    + "]))?",
    re.S,
)
_OPERATORS = {**SINGLE_CHAR_OPERATORS, **dict(MULTI_CHAR_OPERATORS)}
_IDENT_TAIL = re.compile(r"\w*")
_HEX_DIGITS = re.compile(r"[0-9a-fA-F]*")
#: the characters a string literal's body holds without special handling
_STRING_RUN = re.compile(r'[^"\\\n]*')

_IDENT = TokenKind.IDENT


class Lexer:
    """Tokenizes one Mini-C source text."""

    def __init__(self, source: str, filename: str = "<input>"):
        self._source = source
        self._filename = filename

    def tokenize(self) -> List[Token]:
        """Scan the whole input and return the token list (ending in EOF)."""
        source = self._source
        filename = self._filename
        end = len(source)
        tokens: List[Token] = []
        append = tokens.append
        next_match = _NEXT.match
        pos = 0
        line = 1
        line_start = 0  # index of the current line's first character
        while True:
            match = next_match(source, pos)
            stop = match.end()
            ident, operator = match.groups()
            text = ident or operator
            start = stop - len(text) if text else stop
            if start != pos:
                # only skipped whitespace and comments hold newlines here
                newline = source.rfind("\n", pos, start)
                if newline >= 0:
                    line += source.count("\n", pos, newline + 1)
                    line_start = newline + 1
            location = SourceLocation(filename, line, start - line_start + 1)
            if ident:
                kind = KEYWORDS.get(ident, _IDENT)
                append(Token(kind, ident, location, ident if kind is _IDENT else None))
                pos = stop
                continue
            if operator:
                append(Token(_OPERATORS[operator], operator, location))
                pos = stop
                continue
            if start >= end:
                append(Token(TokenKind.EOF, "", location))
                return tokens
            ch = source[start]
            if ch.isalpha() or ch == "_":  # a non-ASCII identifier
                pos = _IDENT_TAIL.match(source, start + 1).end()
                text = source[start:pos]
                kind = KEYWORDS.get(text, _IDENT)
                append(Token(kind, text, location, text if kind is _IDENT else None))
            elif ch.isdigit():
                pos, value, error = _scan_number(source, start)
                if error is not None:
                    raise LexError(
                        error, SourceLocation(filename, line, pos - line_start + 1)
                    )
                append(Token(TokenKind.INT_LITERAL, source[start:pos], location, value))
            elif ch == "'":
                pos, value = _scan_char(source, start, location)
                text = source[start:pos]
                append(Token(TokenKind.CHAR_LITERAL, text, location, value))
                if text[1] == "\n":  # a raw newline between the quotes
                    line += 1
                    line_start = start + 2
            elif ch == '"':
                pos, data = _scan_string(source, start, location)
                append(
                    Token(TokenKind.STRING_LITERAL, source[start:pos], location, data)
                )
            elif source.startswith("/*", start):
                raise LexError("unterminated block comment", location)
            else:
                raise LexError(f"unexpected character {ch!r}", location)


def _scan_number(source: str, pos: int) -> Tuple[int, int, Optional[str]]:
    """``(end, value, error)`` for the literal at ``pos``.  On an error the
    lexer reports it where it stopped, at ``end``."""
    start = pos
    end = len(source)
    if source[pos] == "0" and source[pos + 1 : pos + 2] in ("x", "X"):
        pos = _HEX_DIGITS.match(source, pos + 2).end()
        if pos == start + 2:
            return pos, 0, "expected hexadecimal digits after '0x'"
        base = 16
    else:
        while pos < end and source[pos].isdigit():
            pos += 1
        base = 8 if pos - start > 1 and source[start] == "0" else 10
    text = source[start:pos]
    # Consume (and ignore) integer suffixes.
    while pos < end and source[pos] in "uUlL":
        pos += 1
    try:
        return pos, int(text, base), None
    except ValueError:
        return pos, 0, f"invalid integer literal {text!r}"


def _scan_char(source: str, pos: int, location: SourceLocation) -> Tuple[int, int]:
    pos += 1  # opening quote
    if pos >= len(source):
        raise LexError("unterminated character literal", location)
    ch = source[pos]
    pos += 1
    if ch == "\\":
        pos, value = _decode_escape(source, pos, location)
    elif ch == "'":
        raise LexError("empty character literal", location)
    else:
        value = ord(ch)
        if value > 255:
            raise LexError("non-byte character literal", location)
    if pos >= len(source) or source[pos] != "'":
        raise LexError("unterminated character literal", location)
    return pos + 1, value


def _scan_string(source: str, pos: int, location: SourceLocation) -> Tuple[int, bytes]:
    pos += 1  # opening quote
    end = len(source)
    data = bytearray()
    while True:
        run = _STRING_RUN.match(source, pos)
        if run.end() > pos:
            data += _encode(run.group())
            pos = run.end()
        if pos >= end or source[pos] == "\n":
            raise LexError("unterminated string literal", location)
        ch = source[pos]
        pos += 1
        if ch == '"':
            return pos, bytes(data)
        pos, value = _decode_escape(source, pos, location)  # ch is '\\'
        data.append(value)


def _encode(text: str) -> bytes:
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError:
        # Raise the error a character-at-a-time encode raises, naming
        # only the offending character.
        return b"".join(ch.encode("utf-8") for ch in text)


def _decode_escape(
    source: str, pos: int, location: SourceLocation
) -> Tuple[int, int]:
    if pos >= len(source):
        raise LexError("unterminated escape sequence", location)
    ch = source[pos]
    pos += 1
    if ch == "x":
        stop = _HEX_DIGITS.match(source, pos).end()
        if stop == pos:
            raise LexError("\\x used with no following hex digits", location)
        value = int(source[pos:stop], 16)
        if value > 255:
            raise LexError("hex escape out of byte range", location)
        return stop, value
    if ch in _ESCAPES:
        return pos, _ESCAPES[ch]
    raise LexError(f"unknown escape sequence '\\{ch}'", location)


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Convenience wrapper: tokenize ``source`` in one call."""
    return Lexer(source, filename).tokenize()
