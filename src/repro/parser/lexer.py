"""The Cypher lexer: one master regular expression over a terminal table.

:data:`repro.parser.tokens.TERMINALS` holds the lexical grammar as data
— one ``(name, pattern)`` row per terminal, in matching order — and this
module compiles the rows into a single alternation, prefixed by the
trivia (whitespace, ``//`` and ``/* */`` comments) that may precede a
token.  :func:`tokenize` is then one ``finditer`` pass: each match is
"skip trivia, take one terminal", and the name of the group that matched
says which row it was.  The Cypher quirks live in the table as rows and
their order (see the comment on ``TERMINALS``):

* ``1..3`` in a range must lex as INTEGER, ``..``, INTEGER — a digit
  followed by ``..`` never starts a float;
* identifiers may be backtick-quoted (```weird name```), with doubled
  backticks as escapes;
* strings accept single or double quotes with C-style escapes;
* both ``//`` line comments and ``/* */`` block comments are whitespace;
* digits are ASCII, and a hex literal needs at least one digit.

The only per-character work left is decoding a string that contains a
backslash, and finding the first error in one that never closes.  Every
input either lexes or raises :class:`CypherSyntaxError` with the line
and column of the offending character.
"""

from __future__ import annotations

import re

from repro.exceptions import CypherSyntaxError
from repro.parser.tokens import (
    END,
    FLOAT,
    IDENT,
    INTEGER,
    OPERATOR,
    STRING,
    STRING_ESCAPES,
    TERMINALS,
    TRIVIA,
    Token,
)

_MASTER = re.compile(
    TRIVIA + "(?:" + "|".join(
        "(?P<%s>%s)" % (name, pattern) for name, pattern in TERMINALS
    ) + ")"
)


def _position(text, offset):
    """1-based ``(line, column)`` of ``offset``; only ``\\n`` ends a line."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, offset) + 1, offset - line_start + 1


def _error(text, offset, message):
    raise CypherSyntaxError(message, *_position(text, offset))


def _decode_string(text, start, end):
    """The value of the string body ``text[start:end]``, escapes resolved.

    ``end`` is the closing quote, or ``len(text)`` when the caller is
    looking for the first error of a string that never closes.
    """
    chunks = []
    position = start
    while True:
        backslash = text.find("\\", position, end)
        if backslash < 0:
            chunks.append(text[position:end])
            return "".join(chunks)
        chunks.append(text[position:backslash])
        escape = text[backslash + 1:backslash + 2]
        position = backslash + 2
        if escape in STRING_ESCAPES:
            chunks.append(STRING_ESCAPES[escape])
        elif escape in ("u", "U"):
            width = 4 if escape == "u" else 8
            digits = text[position:position + width]
            try:
                if len(digits) < width:
                    raise ValueError(digits)
                chunks.append(chr(int(digits, 16)))
            except (ValueError, OverflowError):
                _error(text, position, "bad unicode escape")
            position += width
        else:
            _error(text, backslash + 1, "unknown escape \\%s" % escape)


def tokenize(text):
    """Tokenize ``text`` fully, returning the token list (with END last)."""
    tokens = []
    append = tokens.append
    # Single-line input (the common case) needs no line bookkeeping.
    multiline = "\n" in text
    line = 1
    line_start = 0
    scanned = 0
    for match in _MASTER.finditer(text):
        name = match.lastgroup
        start, end = match.span(name)
        if multiline:
            newlines = text.count("\n", scanned, start)
            if newlines:
                line += newlines
                line_start = text.rfind("\n", scanned, start) + 1
            scanned = start
        column = start - line_start + 1
        if name == "IDENT":
            word = text[start:end]
            append(Token(IDENT, word, line, column, word.upper()))
        elif name == "OPERATOR":
            operator = text[start:end]
            append(Token(OPERATOR, operator, line, column, operator))
        elif name == "INTEGER":
            digits = text[start:end]
            append(Token(INTEGER, digits, line, column, digits))
        elif name == "STRING":
            if text.find("\\", start, end) < 0:
                value = text[start + 1:end - 1]
            else:
                value = _decode_string(text, start + 1, end - 1)
            append(Token(STRING, value, line, column, value))
        elif name == "FLOAT":
            digits = text[start:end]
            append(Token(FLOAT, digits, line, column, digits))
        elif name == "END":
            append(Token(END, "", line, column, ""))
            return tokens
        elif name == "BACKTICK":
            word = text[start + 1:end - 1].replace("``", "`")
            append(Token(IDENT, word, line, column, word.upper()))
        elif name == "HEX":
            if end - start == 2:
                _error(
                    text, start,
                    "malformed hexadecimal literal %r" % text[start:end],
                )
            digits = str(int(text[start:end], 16))
            append(Token(INTEGER, digits, line, column, digits))
        elif name == "WORD" and text[start].isalpha():
            word = text[start:end]
            append(Token(IDENT, word, line, column, word.upper()))
        elif name == "BAD_STRING":
            # A bad escape comes first if there is one; else it never ends.
            _decode_string(text, start + 1, len(text))
            _error(text, len(text), "unterminated string literal")
        elif name == "BAD_BACKTICK":
            _error(text, len(text), "unterminated backtick identifier")
        elif name == "BAD_COMMENT":
            _error(text, len(text), "unterminated block comment")
        else:
            _error(text, start, "unexpected character %r" % text[start])
    raise AssertionError("unreachable: END matches at end of input")
