"""Token kinds, the terminal table, and the Token record the lexer emits.

The lexical grammar is held here as data: :data:`TERMINALS` is an
ordered table of ``(name, pattern)`` rows and
:mod:`repro.parser.lexer` compiles it into one master regular
expression.  Nothing else in the package knows how a token is spelled.
"""

from __future__ import annotations

import re

# Token kinds.  Keywords are lexed as IDENT and classified by the parser,
# which keeps the lexer simple and the keyword set case-insensitive.
IDENT = "IDENT"            # plain or backtick-quoted identifier
INTEGER = "INTEGER"
FLOAT = "FLOAT"
STRING = "STRING"
OPERATOR = "OPERATOR"      # punctuation and multi-char operators
END = "END"                # end of input sentinel

#: The kinds that spell a value: what auto-parameterisation may lift.
LITERAL_KINDS = frozenset((INTEGER, FLOAT, STRING))

#: Multi-character operators, longest first so maximal munch works.
MULTI_CHAR_OPERATORS = (
    "<=",
    ">=",
    "<>",
    "=~",
    "+=",
    "..",
)

SINGLE_CHAR_OPERATORS = set("()[]{},:;.|+-*/%^=<>$")

#: What may sit between two tokens: whitespace and both comment forms.
TRIVIA = r"\s*(?:/(?:/[^\n]*|\*[\s\S]*?\*/)\s*)*"

#: The terminals, tried in this order at each position (after
#: :data:`TRIVIA`); the commonest come first, and where two rows could
#: match the same text the order is the rule:
#:
#: * ``BAD_COMMENT`` (a ``/*`` that :data:`TRIVIA` could not close)
#:   precedes ``OPERATOR``, whose alternatives are longest first;
#: * ``HEX`` precedes the decimal rows and takes zero or more hex digits,
#:   so that ``0x`` and ``0xg`` are reported as malformed instead of
#:   lexing ``0`` then an identifier;
#: * ``FLOAT`` precedes ``INTEGER`` and needs a digit after its ``.``,
#:   so ``1..3`` lexes INTEGER ``..`` INTEGER and ``1.e`` / ``1e`` /
#:   ``1e+`` stop after the ``1``;
#: * digits are ASCII ``[0-9]`` — ``str.isdigit`` accepts superscripts
#:   that ``int()`` then refuses;
#: * a string or backtick identifier is one match when it is well
#:   formed (any ``\\x`` pair inside a string, a doubled backtick inside
#:   an identifier); ``BAD_STRING`` / ``BAD_BACKTICK`` catch the opening
#:   delimiter of one that is not;
#: * ``IDENT`` is the ASCII-initial fast row; ``WORD`` takes any other
#:   run of identifier characters, and the lexer accepts it when its
#:   first character is alphabetic (``Ünï``, ``名前``) and rejects it
#:   otherwise (``²``, ``Ⅷ``: alphanumeric, not alphabetic);
#: * ``END`` matches only at end of input, ``BAD_CHARACTER`` anything.
TERMINALS = (
    ("IDENT", r"[A-Za-z_]\w*"),
    ("BAD_COMMENT", r"/\*"),
    ("OPERATOR", "|".join(
        [re.escape(operator) for operator in MULTI_CHAR_OPERATORS]
        + ["[%s]" % re.escape("".join(sorted(SINGLE_CHAR_OPERATORS)))]
    )),
    ("HEX", r"0[xX][0-9a-fA-F]*"),
    ("FLOAT", r"[0-9]+(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)"),
    ("INTEGER", r"[0-9]+"),
    ("STRING", r"'(?:[^'\\]|\\[\s\S])*'" + "|" + r'"(?:[^"\\]|\\[\s\S])*"'),
    ("BACKTICK", r"`(?:[^`]|``)*`"),
    ("WORD", r"\w+"),
    ("BAD_STRING", r"['\"]"),
    ("BAD_BACKTICK", r"`"),
    ("END", r"\Z"),
    ("BAD_CHARACTER", r"[\s\S]"),
)

#: Backslash escapes inside string literals (``\\uXXXX`` and
#: ``\\UXXXXXXXX`` are handled apart).
STRING_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "b": "\b",
    "f": "\f",
    "'": "'",
    '"': '"',
    "\\": "\\",
    "/": "/",
}


#: Words with reserved meaning.  The parser still accepts most of them as
#: identifiers where unambiguous (Cypher is liberal), but expression parsing
#: uses this set to stop at clause boundaries.
KEYWORDS = frozenset(
    {
        "ALL",
        "AND",
        "AS",
        "ASC",
        "ASCENDING",
        "AT",
        "BY",
        "CASE",
        "CONTAINS",
        "CREATE",
        "DELETE",
        "DESC",
        "DESCENDING",
        "DETACH",
        "DISTINCT",
        "ELSE",
        "END",
        "ENDS",
        "EXISTS",
        "FALSE",
        "FROM",
        "GRAPH",
        "IN",
        "IS",
        "LIMIT",
        "MATCH",
        "MERGE",
        "NOT",
        "NULL",
        "OF",
        "ON",
        "OPTIONAL",
        "OR",
        "ORDER",
        "QUERY",
        "REMOVE",
        "RETURN",
        "SET",
        "SKIP",
        "STARTS",
        "THEN",
        "TRUE",
        "UNION",
        "UNWIND",
        "WHEN",
        "WHERE",
        "WITH",
        "XOR",
    }
)


class Token:
    """One lexical token with its source position (1-based).

    ``text`` is the raw text — for STRING, the *decoded* value; for a
    backtick identifier, the name without its quotes.  ``upper`` is the
    upper-cased text of an identifier (for case-insensitive keyword
    matching), computed once by the lexer, which knows the kinds whose
    text has no other case and passes that text itself.
    """

    __slots__ = ("kind", "text", "line", "column", "upper")

    def __init__(self, kind, text, line, column, upper):
        self.kind = kind
        self.text = text
        self.line = line
        self.column = column
        self.upper = upper

    def is_keyword(self, word):
        return self.kind == IDENT and self.upper == word

    def __repr__(self):
        return "Token({}, {!r} @{}:{})".format(
            self.kind, self.text, self.line, self.column
        )
