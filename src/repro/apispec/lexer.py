"""Lexer for the ``.api`` stub language.

The stub language is a Java-signature subset: package headers, class and
interface declarations with modifiers, and member signatures (no bodies).
The lexer produces a flat token stream with line/column positions for
error reporting; ``//`` and ``/* */`` comments are skipped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List

from .errors import ApiLexError


class TokenKind(Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    LBRACE = "{"
    RBRACE = "}"
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMI = ";"
    DOT = "."
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "package",
        "class",
        "interface",
        "extends",
        "implements",
        "public",
        "protected",
        "private",
        "static",
        "abstract",
        "final",
        "native",
        "synchronized",
        "void",
        "boolean",
        "byte",
        "short",
        "char",
        "int",
        "long",
        "float",
        "double",
    }
)

_PUNCT = {
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    ".": TokenKind.DOT,
}


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is TokenKind.KEYWORD and self.text == word

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind.name}({self.text!r})@{self.line}:{self.column}"


def tokenize(text: str) -> List[Token]:
    """Tokenize stub-file text, raising :class:`ApiLexError` on bad input."""
    return list(_tokens(text))


#: One alternative per token class, tried in order at each position.
#: A word starts with ``[^\W\d]`` (a word character but a decimal
#: digit), which also admits non-letter numerics such as ``'²'`` and
#: ``'½'``; ``_tokens`` turns those away, so identifiers start exactly
#: at ``str.isalpha`` characters, ``_`` and ``$``.
_TOKEN = re.compile(
    r"""
      (?P<space>[ \t\r\n]+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<open_comment>/\*)
    | (?P<word>(?:[^\W\d]|\$)[\w$]*)
    | (?P<punct>[{}()\[\],;.])
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokens(text: str) -> Iterator[Token]:
    match = _TOKEN.match
    n = len(text)
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of ``line``
    eof_column = None
    while pos < n:
        column = pos - line_start + 1
        m = match(text, pos)
        if m is None:
            raise ApiLexError(f"unexpected character {text[pos]!r}", line, column)
        kind = m.lastgroup
        end = m.end()
        if kind == "word":
            word = m.group()
            if word[0] > "\x7f" and not word[0].isalpha():
                raise ApiLexError(f"unexpected character {word[0]!r}", line, column)
            yield Token(
                TokenKind.KEYWORD if word in KEYWORDS else TokenKind.IDENT,
                word, line, column,
            )
        elif kind == "punct":
            yield Token(_PUNCT[m.group()], m.group(), line, column)
        elif kind == "open_comment":
            raise ApiLexError("unterminated block comment", line, column)
        elif kind == "line_comment":
            if end == n:
                # The end-of-file token after a trailing line comment sits
                # at the comment's start.
                eof_column = column
        else:
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
        pos = end
    if eof_column is None:
        eof_column = pos - line_start + 1
    yield Token(TokenKind.EOF, "", line, eof_column)
