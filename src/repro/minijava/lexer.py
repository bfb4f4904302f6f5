"""Lexer for mini-Java, the corpus client-code language.

Mini-Java covers the Java constructs jungloid mining actually consumes:
declarations, assignments, calls, ``new``, casts, field access, and simple
control flow. The token set is correspondingly small; string/char/int
literals are supported because corpus code passes them as arguments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, List

from .errors import MjLexError


class MjTokenKind(Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT_LIT = "int"
    STRING_LIT = "string"
    CHAR_LIT = "char"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "package",
        "import",
        "class",
        "interface",
        "extends",
        "implements",
        "public",
        "protected",
        "private",
        "static",
        "final",
        "abstract",
        "void",
        "boolean",
        "byte",
        "short",
        "char",
        "int",
        "long",
        "float",
        "double",
        "return",
        "new",
        "if",
        "else",
        "while",
        "true",
        "false",
        "null",
        "this",
    }
)

# Multi-character operators first so maximal munch works.
_PUNCTUATION = (
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    ".",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "%",
    "!",
)


@dataclass(frozen=True)
class MjToken:
    kind: MjTokenKind
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is MjTokenKind.KEYWORD and self.text == word

    def is_punct(self, text: str) -> bool:
        return self.kind is MjTokenKind.PUNCT and self.text == text

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind.name}({self.text!r})@{self.line}:{self.column}"


def tokenize(text: str) -> List[MjToken]:
    """Tokenize mini-Java source, raising :class:`MjLexError` on bad input."""
    return list(_tokens(text))


#: One alternative per token class, tried in order at each position.
#: A word starts with ``[^\W\d]`` (a word character but a decimal
#: digit), which also admits non-letter numerics such as ``'²'`` and
#: ``'½'``; ``_tokens`` lexes the digits among those as int literals and
#: rejects the rest, so identifiers start exactly at ``str.isalpha``
#: characters, ``_`` and ``$``, and int literals at ``str.isdigit`` ones.
_TOKEN = re.compile(
    r"""
      (?P<space>[ \t\r\n]+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<open_comment>/\*)
    | (?P<word>(?:[^\W\d]|\$)[\w$]*)
    | (?P<int>\d)
    | (?P<string>"[^"\\]*(?:\\.[^"\\]*)*")
    | (?P<open_string>")
    | (?P<char>'(?:\\.|[^\\])')
    | (?P<open_char>')
    | (?P<punct>"""
    + "|".join(re.escape(p) for p in _PUNCTUATION)
    + """)
    """,
    re.VERBOSE | re.DOTALL,
)
#: Token classes whose text may span lines.
_MULTILINE = frozenset({"space", "block_comment", "string", "char"})
#: The rest of an int literal after its first character.
_INT_TAIL = re.compile(r"[\dxXabcdefABCDEFlL]*")


def _int_end(text: str, pos: int) -> int:
    """End of the int literal continuing at ``pos``: digits (any
    ``str.isdigit`` character, e.g. ``'²'``) and hex/long letters."""
    end = _INT_TAIL.match(text, pos).end()
    while end < len(text) and text[end].isdigit():
        end = _INT_TAIL.match(text, end + 1).end()
    return end


def _tokens(text: str) -> Iterator[MjToken]:
    match = _TOKEN.match
    n = len(text)
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of ``line``
    while pos < n:
        column = pos - line_start + 1
        m = match(text, pos)
        if m is None:
            raise MjLexError(f"unexpected character {text[pos]!r}", line, column)
        kind = m.lastgroup
        end = m.end()
        if kind == "word":
            word = m.group()
            first = word[0]
            if first > "\x7f" and not first.isalpha():
                if not first.isdigit():
                    raise MjLexError(f"unexpected character {first!r}", line, column)
                end = _int_end(text, pos + 1)
                yield MjToken(MjTokenKind.INT_LIT, text[pos:end], line, column)
            else:
                yield MjToken(
                    MjTokenKind.KEYWORD if word in KEYWORDS else MjTokenKind.IDENT,
                    word, line, column,
                )
        elif kind == "punct":
            yield MjToken(MjTokenKind.PUNCT, m.group(), line, column)
        elif kind == "int":
            end = _int_end(text, end)
            yield MjToken(MjTokenKind.INT_LIT, text[pos:end], line, column)
        elif kind == "string":
            yield MjToken(MjTokenKind.STRING_LIT, text[pos + 1 : end - 1], line, column)
        elif kind == "char":
            yield MjToken(MjTokenKind.CHAR_LIT, text[pos + 1 : end - 1], line, column)
        elif kind == "open_comment":
            raise MjLexError("unterminated block comment", line, column)
        elif kind == "open_string":
            raise MjLexError("unterminated string literal", line, column)
        elif kind == "open_char":
            raise MjLexError("unterminated char literal", line, column)
        if kind in _MULTILINE:
            newlines = text.count("\n", pos, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, end) + 1
        pos = end
    yield MjToken(MjTokenKind.EOF, "", line, pos - line_start + 1)

