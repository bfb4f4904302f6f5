"""Golden tests for both lexers: token streams and error positions.

The digests hash ``(kind, text, line, column)`` of every token of the
bundled ``.api`` and ``.mj`` files and of the 96-file generated corpus
the benchmark updates. They were recorded from the character-at-a-time
lexers that the single-pattern lexers replaced, so any change to a token
or a position shows up here.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from repro.apispec.errors import ApiLexError
from repro.apispec.lexer import tokenize as api_tokenize
from repro.data import corpus_texts
from repro.minijava.errors import MjLexError
from repro.minijava.lexer import tokenize as mj_tokenize

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "repro" / "data"


def _digest(tokenize, files):
    h = hashlib.sha256()
    for name, text in files:
        h.update(f"{name}\n".encode())
        for t in tokenize(text):
            h.update(f"{t.kind.value}\t{t.text!r}\t{t.line}\t{t.column}\n".encode())
    return h.hexdigest()


def _bundled(folder, suffix):
    return [
        (p.name, p.read_text(encoding="utf-8"))
        for p in sorted((DATA / folder).glob(f"*{suffix}"))
    ]


def _clone_corpus(clones):
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", ROOT / "perfbench" / "gen.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.clone_corpus(corpus_texts(), clones)


class TestDigests:
    def test_bundled_api_stubs(self):
        files = _bundled("api", ".api")
        assert len(files) == 14
        assert _digest(api_tokenize, files) == (
            "0b7b44f953156602adf1274e4050b8f57132fa04cf71e0c6a32ae6475cb770c3"
        )

    def test_bundled_corpus(self):
        files = _bundled("corpus", ".mj")
        assert len(files) == 12
        assert _digest(mj_tokenize, files) == (
            "b095cab35054a88530a1c6a7a87a40517f09b179fbbd0d57e735204172de555d"
        )

    def test_generated_corpus(self):
        files = _clone_corpus(8)
        assert len(files) == 96
        assert _digest(mj_tokenize, files) == (
            "6da88ef020969859ae7068c896a5acd28030ec6bd2dc22a639acbcf2b6adad31"
        )


def _tokens(tokenize, text):
    return [(t.kind.value, t.text, t.line, t.column) for t in tokenize(text)]


MJ_CASES = [
    (
        "a\u00b2b \u00b23 12\u00b2 0xFFL 1e5x 'x''\\n''''\n\"s\\\"t\\\\\" // c",
        [("ident", "a\u00b2b", 1, 1), ("int", "\u00b23", 1, 5), ("int", "12\u00b2", 1, 8),
         ("int", "0xFFL", 1, 12), ("int", "1e5x", 1, 18), ("char", "x", 1, 23),
         ("char", "\\n", 1, 26), ("char", "'", 1, 30), ("string", 's\\"t\\\\', 2, 1),
         ("eof", "", 2, 14)],
    ),
    (
        "\u00e9t\u00e9 = \u0663\u0664; $x _y",
        [("ident", "\u00e9t\u00e9", 1, 1), ("punct", "=", 1, 5), ("int", "\u0663\u0664", 1, 7),
         ("punct", ";", 1, 9), ("ident", "$x", 1, 11), ("ident", "_y", 1, 14),
         ("eof", "", 1, 16)],
    ),
    (
        "s = \"line\nbreak\"; c = '\n'; /* a\n b */ z",
        [("ident", "s", 1, 1), ("punct", "=", 1, 3), ("string", "line\nbreak", 1, 5),
         ("punct", ";", 2, 7), ("ident", "c", 2, 9), ("punct", "=", 2, 11),
         ("char", "\n", 2, 13), ("punct", ";", 3, 2), ("ident", "z", 4, 7),
         ("eof", "", 4, 8)],
    ),
    ("x // trailing comment", [("ident", "x", 1, 1), ("eof", "", 1, 22)]),
    ("", [("eof", "", 1, 1)]),
    ("\n\n   ", [("eof", "", 3, 4)]),
    (
        "a==b!=c<=d>=e&&f||g{}",
        [("ident", "a", 1, 1), ("punct", "==", 1, 2), ("ident", "b", 1, 4),
         ("punct", "!=", 1, 5), ("ident", "c", 1, 7), ("punct", "<=", 1, 8),
         ("ident", "d", 1, 10), ("punct", ">=", 1, 11), ("ident", "e", 1, 13),
         ("punct", "&&", 1, 14), ("ident", "f", 1, 16), ("punct", "||", 1, 17),
         ("ident", "g", 1, 19), ("punct", "{", 1, 20), ("punct", "}", 1, 21),
         ("eof", "", 1, 22)],
    ),
]

API_CASES = [
    # A trailing line comment leaves the EOF column at the comment's start.
    (
        "class A {} // end",
        [("keyword", "class", 1, 1), ("ident", "A", 1, 7), ("{", "{", 1, 9),
         ("}", "}", 1, 10), ("eof", "", 1, 12)],
    ),
    (
        "package p; /* multi\nline */ class \u00c9 { void m\u00b2(int[] a); }",
        [("keyword", "package", 1, 1), ("ident", "p", 1, 9), (";", ";", 1, 10),
         ("keyword", "class", 2, 9), ("ident", "\u00c9", 2, 15), ("{", "{", 2, 17),
         ("keyword", "void", 2, 19), ("ident", "m\u00b2", 2, 24), ("(", "(", 2, 26),
         ("keyword", "int", 2, 27), ("[", "[", 2, 30), ("]", "]", 2, 31),
         ("ident", "a", 2, 33), (")", ")", 2, 34), (";", ";", 2, 35),
         ("}", "}", 2, 37), ("eof", "", 2, 38)],
    ),
    ("", [("eof", "", 1, 1)]),
    ("\r\n\t x", [("ident", "x", 2, 3), ("eof", "", 2, 4)]),
]

MJ_ERRORS = [
    ('"never ends', "unterminated string literal at line 1, column 1"),
    ('x = "ab\ncd', "unterminated string literal at line 1, column 5"),
    ('s = "ok" + "bad\n', "unterminated string literal at line 1, column 12"),
    ('"a\\', "unterminated string literal at line 1, column 1"),
    ("a\n  /* open", "unterminated block comment at line 2, column 3"),
    ("'ab'", "unterminated char literal at line 1, column 1"),
    ("'", "unterminated char literal at line 1, column 1"),
    ("x # y", "unexpected character '#' at line 1, column 3"),
    ("a\n\tb @", "unexpected character '@' at line 2, column 4"),
    ("1 \u00bd", "unexpected character '\u00bd' at line 1, column 3"),
    ("x\u00a0y", "unexpected character '\\xa0' at line 1, column 2"),
    ("\u2167", "unexpected character '\u2167' at line 1, column 1"),
]

API_ERRORS = [
    ("class A { /* x", "unterminated block comment at line 1, column 11"),
    ("class A { int x = 1; }", "unexpected character '=' at line 1, column 17"),
    ("package a;\n  class 1A", "unexpected character '1' at line 2, column 9"),
    ("\u00b2", "unexpected character '\u00b2' at line 1, column 1"),
    ("\u00e9\u00b2 \u00bd", "unexpected character '\u00bd' at line 1, column 4"),
]


@pytest.mark.parametrize("text,want", MJ_CASES)
def test_minijava_tokens(text, want):
    assert _tokens(mj_tokenize, text) == want


@pytest.mark.parametrize("text,want", API_CASES)
def test_api_tokens(text, want):
    assert _tokens(api_tokenize, text) == want


@pytest.mark.parametrize("text,message", MJ_ERRORS)
def test_minijava_errors(text, message):
    with pytest.raises(MjLexError) as info:
        mj_tokenize(text)
    assert str(info.value) == message


@pytest.mark.parametrize("text,message", API_ERRORS)
def test_api_errors(text, message):
    with pytest.raises(ApiLexError) as info:
        api_tokenize(text)
    assert str(info.value) == message
