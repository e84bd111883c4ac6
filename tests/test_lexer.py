"""Lexer unit tests."""

import hashlib
from pathlib import Path

import pytest

from repro.errors import LexError
from repro.minic.lexer import tokenize
from repro.minic.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def values(source):
    return [t.value for t in tokenize(source)][:-1]


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_whitespace_only(self):
        assert kinds("   \t\n  ") == []

    def test_identifier(self):
        tokens = tokenize("foo")
        assert tokens[0].kind is TokenKind.IDENT
        assert tokens[0].value == "foo"

    def test_identifier_with_underscore_and_digits(self):
        tokens = tokenize("_foo_bar42")
        assert tokens[0].value == "_foo_bar42"

    def test_keywords_are_not_identifiers(self):
        assert kinds("int char while return") == [
            TokenKind.KW_INT,
            TokenKind.KW_CHAR,
            TokenKind.KW_WHILE,
            TokenKind.KW_RETURN,
        ]

    def test_keyword_prefix_is_identifier(self):
        tokens = tokenize("integer")
        assert tokens[0].kind is TokenKind.IDENT


class TestIntegerLiterals:
    def test_decimal(self):
        assert values("42") == [42]

    def test_zero(self):
        assert values("0") == [0]

    def test_hex(self):
        assert values("0xff 0XAB") == [255, 0xAB]

    def test_octal(self):
        assert values("0755") == [0o755]

    def test_suffixes_ignored(self):
        assert values("42u 42L 42UL") == [42, 42, 42]

    def test_bad_hex_raises(self):
        with pytest.raises(LexError):
            tokenize("0x")


class TestCharLiterals:
    def test_plain_char(self):
        assert values("'A'") == [65]

    def test_escapes(self):
        assert values(r"'\n' '\t' '\0' '\\'") == [10, 9, 0, 92]

    def test_hex_escape(self):
        assert values(r"'\x41'") == [0x41]

    def test_empty_char_raises(self):
        with pytest.raises(LexError):
            tokenize("''")

    def test_unterminated_char_raises(self):
        with pytest.raises(LexError):
            tokenize("'a")


class TestStringLiterals:
    def test_plain_string(self):
        assert values('"hello"') == [b"hello"]

    def test_string_with_escapes(self):
        assert values(r'"a\nb\0c"') == [b"a\nb\x00c"]

    def test_empty_string(self):
        assert values('""') == [b""]

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc')

    def test_newline_in_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"abc\ndef"')

    def test_unknown_escape_raises(self):
        with pytest.raises(LexError):
            tokenize(r'"\q"')


class TestOperators:
    def test_single_char_operators(self):
        assert kinds("+ - * / %") == [
            TokenKind.PLUS,
            TokenKind.MINUS,
            TokenKind.STAR,
            TokenKind.SLASH,
            TokenKind.PERCENT,
        ]

    def test_maximal_munch(self):
        # "<<=" must lex as one token, not "<<" "=" or "<" "<=".
        assert kinds("<<=") == [TokenKind.LSHIFT_ASSIGN]
        assert kinds("<< =") == [TokenKind.LSHIFT, TokenKind.ASSIGN]

    def test_compound_assignment_operators(self):
        assert kinds("+= -= *= /= %= &= |= ^=") == [
            TokenKind.PLUS_ASSIGN,
            TokenKind.MINUS_ASSIGN,
            TokenKind.STAR_ASSIGN,
            TokenKind.SLASH_ASSIGN,
            TokenKind.PERCENT_ASSIGN,
            TokenKind.AMP_ASSIGN,
            TokenKind.PIPE_ASSIGN,
            TokenKind.CARET_ASSIGN,
        ]

    def test_comparison_operators(self):
        assert kinds("< <= > >= == !=") == [
            TokenKind.LT,
            TokenKind.LE,
            TokenKind.GT,
            TokenKind.GE,
            TokenKind.EQ,
            TokenKind.NE,
        ]

    def test_increments_and_arrow(self):
        assert kinds("++ -- ->") == [
            TokenKind.PLUSPLUS,
            TokenKind.MINUSMINUS,
            TokenKind.ARROW,
        ]

    def test_logical_operators(self):
        assert kinds("&& || ! & |") == [
            TokenKind.ANDAND,
            TokenKind.OROR,
            TokenKind.BANG,
            TokenKind.AMP,
            TokenKind.PIPE,
        ]

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("int $x;")


class TestComments:
    def test_line_comment(self):
        assert kinds("42 // comment\n 7") == [
            TokenKind.INT_LITERAL,
            TokenKind.INT_LITERAL,
        ]

    def test_block_comment(self):
        assert values("1 /* two\nthree */ 4") == [1, 4]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_block_comment_not_nested(self):
        # C comments do not nest: the first */ closes.
        tokens = tokenize("/* a /* b */ 5")
        assert tokens[0].value == 5


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_error_carries_location(self):
        with pytest.raises(LexError) as excinfo:
            tokenize("x\n  $")
        assert excinfo.value.location.line == 2


# -- golden token stream ------------------------------------------------------

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "minic"


def _corpus(name):
    """(filename, source) pairs of one real corpus."""
    if name == "benchsuite":
        from repro.benchsuite.programs import WORKLOADS

        return [(key, w.source) for key, w in sorted(WORKLOADS.items())]
    if name == "canned":
        from repro.attacks import dop, librelp, proftpd, wireshark

        return [(m.__name__, m.SOURCE) for m in (dop, librelp, proftpd, wireshark)]
    if name == "examples":
        return [(p.name, p.read_text()) for p in sorted(EXAMPLES.glob("*.c"))]
    from repro.fuzz.victims import generate_victims

    return [(f"fuzz-{spec.seed}", spec.source) for spec in generate_victims(48)]


def _stream_digest(sources):
    digest = hashlib.sha256()
    count = 0
    for filename, source in sources:
        for token in tokenize(source, filename):
            fields = (
                token.kind.name,
                token.text,
                token.value,
                token.location.line,
                token.location.column,
            )
            digest.update(repr(fields).encode("utf-8") + b"\n")
            count += 1
    return digest.hexdigest(), count


class TestGoldenTokenStream:
    """Every token of the real corpora, digested as (kind, text, value,
    line, column): the scanner may change, its output may not."""

    #: corpus -> (sources, tokens, digest), recorded with the original
    #: character-at-a-time scanner
    GOLDEN = {
        "benchsuite": (
            16, 5188,
            "002a628477ced2a832d7e4c844fa099882233eb1f63a8513aa89f6f3fc5e8641",
        ),
        "canned": (
            4, 1191,
            "18f19300367be56fd50d482cbf32ff68d8c3e84c43d0cee853d70c3c1108e94f",
        ),
        "examples": (
            2, 232,
            "8c5656a49254510ce9f53d6daf9b692b3903fd37135934d6b733e08aa4e1d9fb",
        ),
        "fuzz": (
            48, 9534,
            "611abd5c6971ac48df586289574384369ee32d6c841ba3cf44de9e686a3dc4d1",
        ),
    }

    @pytest.mark.parametrize("corpus", sorted(GOLDEN))
    def test_token_stream_unchanged(self, corpus):
        sources = _corpus(corpus)
        count, tokens, digest = self.GOLDEN[corpus]
        assert len(sources) == count
        assert _stream_digest(sources) == (digest, tokens)

    def test_every_token_kind(self):
        """The corpora use few operators; this source has every kind,
        every literal form, comments across lines, a tab-separated line
        ending in CR-LF and non-ASCII text."""
        from repro.minic.tokens import (
            KEYWORDS,
            MULTI_CHAR_OPERATORS,
            SINGLE_CHAR_OPERATORS,
        )

        source = (
            " ".join(sorted(KEYWORDS)) + "\n"
            + "\t".join(spelling for spelling, _ in MULTI_CHAR_OPERATORS) + "\r\n"
            + " ".join(sorted(SINGLE_CHAR_OPERATORS)) + "\n"
            "/* block\n comment */ x_1 _y é2 // line comment\n"
            "0 7 0755 0x1F 0XaB 42u 42UL 7l 'a' '\\n' '\\x41' '\\\\' '\n' "
            "\"s\\t\\\"\\x7f\" \"ä\" a->b a.b a-->b a<<=b>>=c\n"
        )
        assert {t.kind for t in tokenize(source)} == set(TokenKind)
        assert _stream_digest([("kinds.c", source)]) == (
            "9c0242498ece818586ba5ed50baaf7fad07a1311045d7328717c7e9289c2aac6",
            100,
        )

    def test_raw_newline_char_literal_advances_the_line(self):
        tokens = tokenize("c = '\n'; d")
        assert tokens[2].value == 10
        assert [(t.location.line, t.location.column) for t in tokens] == [
            (1, 1), (1, 3), (1, 5), (2, 2), (2, 4), (2, 5),
        ]


class TestLexErrorMessages:
    """Each ``LexError``: its exact message and where it points."""

    @pytest.mark.parametrize(
        "source, message, line, column",
        [
            ("int x;\n  @", "unexpected character '@'", 2, 3),
            ("int a;\n /* open\n never closed", "unterminated block comment", 2, 2),
            ("/*/", "unterminated block comment", 1, 1),
            ('char *s = "abc\n";', "unterminated string literal", 1, 11),
            ('x = "abc', "unterminated string literal", 1, 5),
            ("x = '", "unterminated character literal", 1, 5),
            ("x = 'ab'", "unterminated character literal", 1, 5),
            ("\n  x = '';", "empty character literal", 2, 7),
            ("int y = 0x;", "expected hexadecimal digits after '0x'", 1, 11),
            ("int y = 0xg1;", "expected hexadecimal digits after '0x'", 1, 11),
            ("  int z = 09;", "invalid integer literal '09'", 1, 13),
            ("c = 'ā';", "non-byte character literal", 1, 5),
            ('char *s = "a\\q";', "unknown escape sequence '\\q'", 1, 11),
            ("c = '\\x';", "\\x used with no following hex digits", 1, 5),
            ("c = '\\x1ff';", "hex escape out of byte range", 1, 5),
            ('c = "\\', "unterminated escape sequence", 1, 5),
        ],
    )
    def test_message_and_location(self, source, message, line, column):
        with pytest.raises(LexError) as excinfo:
            tokenize(source, "t.c")
        location = excinfo.value.location
        assert (location.filename, location.line, location.column) == (
            "t.c", line, column,
        )
        assert str(excinfo.value) == f"t.c:{line}:{column}: {message}"
