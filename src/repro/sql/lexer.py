"""Tokenizer for the paper's SQL dialect.

The lexer is a single-pass scanner producing a list of :class:`Token`
objects.  Keywords are recognized case-insensitively and unquoted
identifiers are folded to upper case (standard SQL behaviour, and the
convention the paper's examples follow: ``PARTS``, ``SUPPLY``, ``QOH``).

The dialect includes the paper's archaic comparison operators ``!>``
(not greater, i.e. ``<=``) and ``!<`` (not less, i.e. ``>=``), plus
``!=`` as a synonym for ``<>``.  The lexer emits them verbatim; the
parser normalizes them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import LexError


class TokenType(enum.Enum):
    """Lexical categories produced by the tokenizer."""

    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    PARAM = "param"
    EOF = "eof"


#: Reserved words of the dialect.  Aggregate-function names are *not*
#: keywords — they lex as identifiers and the parser recognizes them by
#: the trailing parenthesis, which keeps column names like ``COUNT``
#: usable in principle.
KEYWORDS = frozenset(
    {
        "SELECT",
        "DISTINCT",
        "FROM",
        "WHERE",
        "GROUP",
        "ORDER",
        "BY",
        "HAVING",
        "AND",
        "OR",
        "NOT",
        "IN",
        "IS",
        "NULL",
        "EXISTS",
        "ANY",
        "ALL",
        "SOME",
        "BETWEEN",
        "AS",
        "ASC",
        "DESC",
        "SEMI",
    }
)

#: Multi-character operators, longest first so the scanner is greedy.
_MULTI_CHAR_OPERATORS = ("<=>", "<=", ">=", "<>", "!=", "!>", "!<", "=+", "+=")

#: Single-character operators.
_SINGLE_CHAR_OPERATORS = ("=", "<", ">", "+", "-", "*", "/")

#: Punctuation characters.
_PUNCT = ("(", ")", ",", ".", ";")


@dataclass(frozen=True)
class Token:
    """One lexical token.

    Attributes:
        type: the lexical category.
        value: the normalized text (keywords and identifiers upper-cased,
            strings with quotes stripped, numbers verbatim).
        position: character offset of the first character in the source.
    """

    type: TokenType
    value: str
    position: int

    def matches(self, type_: TokenType, value: str | None = None) -> bool:
        """Return True when this token has the given type (and value)."""
        if self.type is not type_:
            return False
        return value is None or self.value == value


class Lexer:
    """Scanner over a SQL source string."""

    def __init__(self, source: str) -> None:
        self._source = source
        self._pos = 0
        self._length = len(source)

    def tokens(self) -> list[Token]:
        """Scan the whole source and return the token list (with EOF)."""
        result: list[Token] = []
        while True:
            token = self._next_token()
            result.append(token)
            if token.type is TokenType.EOF:
                return result

    def _next_token(self) -> Token:
        self._skip_whitespace_and_comments()
        if self._pos >= self._length:
            return Token(TokenType.EOF, "", self._pos)

        start = self._pos
        ch = self._source[start]

        if ch.isalpha() or ch == "_":
            return self._scan_word(start)
        if ch.isdigit():
            return self._scan_number(start)
        if ch == "'":
            return self._scan_string(start)
        if ch == "?":
            # Positional bind-parameter marker; value is empty, the
            # parser assigns slots in parse order.
            self._pos = start + 1
            return Token(TokenType.PARAM, "", start)
        if ch == ":":
            return self._scan_named_param(start)

        for op in _MULTI_CHAR_OPERATORS:
            if self._source.startswith(op, start):
                self._pos = start + len(op)
                return Token(TokenType.OPERATOR, op, start)
        if ch in _SINGLE_CHAR_OPERATORS:
            self._pos = start + 1
            return Token(TokenType.OPERATOR, ch, start)
        if ch in _PUNCT:
            self._pos = start + 1
            return Token(TokenType.PUNCT, ch, start)

        raise LexError(f"unexpected character {ch!r}", start)

    def _skip_whitespace_and_comments(self) -> None:
        while self._pos < self._length:
            ch = self._source[self._pos]
            if ch.isspace():
                self._pos += 1
            elif self._source.startswith("--", self._pos):
                newline = self._source.find("\n", self._pos)
                self._pos = self._length if newline < 0 else newline + 1
            else:
                return

    def _scan_word(self, start: int) -> Token:
        end = start
        while end < self._length and (
            self._source[end].isalnum() or self._source[end] == "_"
        ):
            end += 1
        self._pos = end
        word = self._source[start:end].upper()
        if word in KEYWORDS:
            return Token(TokenType.KEYWORD, word, start)
        return Token(TokenType.IDENT, word, start)

    def _scan_number(self, start: int) -> Token:
        end = start
        seen_dot = False
        while end < self._length:
            ch = self._source[end]
            if ch.isdigit():
                end += 1
            elif ch == "." and not seen_dot:
                # A dot is part of the number only when a digit follows;
                # otherwise it is qualification punctuation (``R1.C1``).
                if end + 1 < self._length and self._source[end + 1].isdigit():
                    seen_dot = True
                    end += 1
                else:
                    break
            else:
                break
        self._pos = end
        return Token(TokenType.NUMBER, self._source[start:end], start)

    def _scan_named_param(self, start: int) -> Token:
        # ``:name`` — a named bind-parameter marker (name folded to
        # upper case like any other identifier).
        end = start + 1
        while end < self._length and (
            self._source[end].isalnum() or self._source[end] == "_"
        ):
            end += 1
        if end == start + 1:
            raise LexError("':' must introduce a named parameter", start)
        self._pos = end
        return Token(TokenType.PARAM, self._source[start + 1:end].upper(), start)

    def _scan_string(self, start: int) -> Token:
        # Single-quoted string; '' is an escaped quote.
        chars: list[str] = []
        pos = start + 1
        while pos < self._length:
            ch = self._source[pos]
            if ch == "'":
                if pos + 1 < self._length and self._source[pos + 1] == "'":
                    chars.append("'")
                    pos += 2
                    continue
                self._pos = pos + 1
                return Token(TokenType.STRING, "".join(chars), start)
            chars.append(ch)
            pos += 1
        raise LexError("unterminated string literal", start)


def tokenize(source: str) -> list[Token]:
    """Tokenize ``source`` and return the token list (with trailing EOF)."""
    return Lexer(source).tokens()
