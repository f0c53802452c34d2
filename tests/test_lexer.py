"""Unit tests for the lexer."""

import json
import os
import sys

import pytest

from repro.exceptions import CypherSyntaxError
from repro.parser.lexer import tokenize
from repro.parser.tokens import END, FLOAT, IDENT, INTEGER, OPERATOR, STRING


def kinds(text):
    return [token.kind for token in tokenize(text)[:-1]]


def texts(text):
    return [token.text for token in tokenize(text)[:-1]]


class TestBasics:
    def test_empty_input(self):
        tokens = tokenize("")
        assert len(tokens) == 1 and tokens[0].kind == END

    def test_identifiers_and_keywords_are_idents(self):
        assert kinds("MATCH foo _bar x1") == [IDENT] * 4

    def test_integers(self):
        tokens = tokenize("42 0 007")
        assert [t.kind for t in tokens[:-1]] == [INTEGER] * 3
        assert [t.text for t in tokens[:-1]] == ["42", "0", "007"]

    def test_hex_integers_normalized(self):
        assert texts("0x1F") == ["31"]

    def test_floats(self):
        assert kinds("1.5 2e3 1.5e-2") == [FLOAT] * 3

    def test_range_does_not_eat_float(self):
        # `1..3` must lex INTEGER '..' INTEGER, not FLOAT '.3'
        assert [(t.kind, t.text) for t in tokenize("1..3")[:-1]] == [
            (INTEGER, "1"), (OPERATOR, ".."), (INTEGER, "3"),
        ]

    def test_property_access_keeps_dot(self):
        assert [(t.kind, t.text) for t in tokenize("a.b")[:-1]] == [
            (IDENT, "a"), (OPERATOR, "."), (IDENT, "b"),
        ]


class TestStrings:
    def test_single_and_double_quotes(self):
        assert texts("'abc' \"def\"") == ["abc", "def"]

    def test_escapes(self):
        assert texts(r"'a\nb'") == ["a\nb"]
        assert texts(r"'it\'s'") == ["it's"]
        assert texts(r"'back\\slash'") == ["back\\slash"]

    def test_unicode_escape(self):
        assert texts(r"'A'") == ["A"]

    def test_unterminated_string(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("'abc")

    def test_unknown_escape(self):
        with pytest.raises(CypherSyntaxError):
            tokenize(r"'\q'")


class TestBacktickIdentifiers:
    def test_quoted_identifier(self):
        tokens = tokenize("`weird name`")
        assert tokens[0].kind == IDENT
        assert tokens[0].text == "weird name"

    def test_doubled_backtick_escape(self):
        assert tokenize("`a``b`")[0].text == "a`b"

    def test_unterminated(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("`oops")


class TestOperators:
    def test_multi_char_before_single(self):
        assert texts("<= >= <> =~ += ..") == ["<=", ">=", "<>", "=~", "+=", ".."]

    def test_arrows_decompose(self):
        assert texts("-[r]->") == ["-", "[", "r", "]", "-", ">"]
        assert texts("<-[]-") == ["<", "-", "[", "]", "-"]

    def test_unexpected_character(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("@")


class TestTrivia:
    def test_line_comments(self):
        assert texts("1 // comment\n2") == ["1", "2"]

    def test_block_comments(self):
        assert texts("1 /* multi\nline */ 2") == ["1", "2"]

    def test_unterminated_block_comment(self):
        with pytest.raises(CypherSyntaxError):
            tokenize("/* oops")

    def test_positions(self):
        tokens = tokenize("ab\n  cd")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_error_carries_position(self):
        try:
            tokenize("a\n@")
        except CypherSyntaxError as error:
            assert error.line == 2
            assert error.column == 1
        else:
            raise AssertionError("expected a syntax error")


# ---------------------------------------------------------------------------
# Golden conformance
# ---------------------------------------------------------------------------
#
# ``tests/data/lexer_golden.json`` was recorded from the per-character
# scanner this lexer replaced (commit 33e82ef).  Each row is
# ``[text, tokens]`` with tokens ``[kind, text, line, column]`` or
# ``[text, null, [class, message, line, column]]``.  The texts are every
# query in the TCK scenarios, samples of every ``fuzztools`` strategy, and
# the hand-written edge set below.
#
# Running this file as a script extends the file, never re-records it:
#
#     PYTHONPATH=<checkout>/src python tests/test_lexer.py [<output path>]
#
# keeps every existing row, appends a row, observed with the ``src`` on
# the path, for each corpus text not yet present, writes the result to
# ``<output path>`` (default: the golden file itself), and prints how
# many existing texts that ``src`` would now lex differently.  Use the
# old checkout's ``src`` to record the scanner's own verdict on new texts.

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "lexer_golden.json")

_EDGE_TEXTS = [
    "", "   ", "\n\n", "\t\f\v x", "a b", "a b\n c",
    # identifiers
    "MATCH (héllo:Ünï) RETURN héllo", "名前 _x a1_b2 x² Ⅷ", "_ __ _1",
    "`weird name`", "`a``b`", "````", "``", "```", "`a``", "`oops",
    "`a\nb` x", "`a`` x` y", "n.`k 1` = `MATCH`",
    # numbers
    "1..3", "*1..3", "1.e", "1e", "1e+", "1e+5", "1E-5", "1.5e3", "1.5E+3",
    "0X1f", "0x1F", "0x1fg", "0x0", "RETURN 0x", "RETURN 0xg", "0X", "1e999", "007", "1.5.3", "1.5..3",
    "1_000", "3.x", ".5", "1.", "1. 5", "12abc", "1e5e6", "1.2e", "1.2e+",
    "n.x>=1.0e0", "9" * 40, "1." + "9" * 40,
    # strings: every escape, both quotes
    "'abc' \"def\"", "\"it's\"", "'say \"hi\"'", "''", '""',
    r"'\n\t\r\b\f\'\"\\\/'", r'"\n\t\r\b\f\'\"\\\/"',
    r"'A'", r"'\U0001F600'", r"'éé'", r"'\u12'", r"'\u12",
    r"'\u'", r"'\U0001F60'", r"'\U0001F60", r"'\U00110000'", r"'\UFFFFFFFF'", r"'\uD800'",
    r"'\u 12a'", r"'\u+12a'", r"'\u1_2a'", r"'\u12g4'", r"'\u12'34'",
    r"'a\qb'", r"'\x41'", "'abc", '"abc', "'abc\\", "'abc\\'", "'a\\\nb'",
    "'a\nb' x", "\"a\n\nb\"\n x", "'a' 'b'", "'a''b'", "'\\\\'", "'\\\\\\'",
    "'x' + \"y\"", "'tab\there'", "'é名'",
    # comments
    "1 // comment\n2", "1 /* multi\nline */ 2", "1 /* a /* b */ 2",
    "1 /* a /* b */ c */ 2", "/* oops", "/* a */ */", "/**/", "/*/", "/***/",
    "/* * / */ x", "RETURN 1 //", "RETURN 1 // c\n", "RETURN 1 //\n//\n 2",
    "a / b", "a //b\n/ c", "a /* x */ / b", "// only", "/* only */",
    "'// not a comment'", "`/* nor this */`", "x /* \n\n */ y\n /* */ z",
    # operators
    "<= >= <> =~ += ..", "( ) [ ] { } , : ; . | + - * / % ^ = < > $",
    "<-->", "<=>", "...", "....", "=~~", "+==", "<>=", "-[r]->", "<-[]-",
    "a<-b", "a< -b", "$p $1 $`x y`",
    "@", "#", "&", "!", "~", "a ? b", "x\\y", "²", "1²",
    "½", "a\n@", "a\n  €",
    # multi-line statements
    "MATCH (n)\n  WHERE n.x = 1\nRETURN n",
    "MATCH (n)\r\n  WHERE n.x = 'a\r\nb'\r\nRETURN n",
    "MATCH (n) // c\n\tWHERE n.`a\nb` = 1 /* x\ny */ RETURN\n\n  n",
    "MATCH (a)-[:R*1..3]->(b)\nWHERE a.x >= 1.5e3 AND b.s = 'q'\n"
    "RETURN a, b ORDER BY a.x DESC LIMIT 0x10",
]


def _fuzz_samples(per_strategy):
    import fuzztools

    strategies = dict(fuzztools.READ_STRATEGIES)
    strategies.update(fuzztools.UPDATE_STRATEGIES)
    return fuzztools.sample_corpus(strategies, per_strategy)


def _tck_texts():
    from repro.tck import parse_feature
    from repro.tck.scenarios import ALL_FEATURES

    texts = []
    for name in sorted(ALL_FEATURES):
        for scenario in parse_feature(ALL_FEATURES[name]).scenarios:
            texts.extend(scenario.setup_queries)
            if scenario.query is not None:
                texts.append(scenario.query)
    return texts


def _observe(text):
    """What ``tokenize`` does with ``text``, in the golden file's form."""
    try:
        tokens = tokenize(text)
    except Exception as error:  # the old scanner leaked two ValueErrors
        return [text, None, [
            type(error).__name__, str(error),
            getattr(error, "line", None), getattr(error, "column", None),
        ]]
    return [text, [[t.kind, t.text, t.line, t.column] for t in tokens]]


#: Inputs the old scanner let escape as bare ``ValueError`` /
#: ``OverflowError`` (from ``int('0x', 16)`` and ``chr()``), or lexed as
#: an INTEGER that ``int()`` then refused in the parser (``str.isdigit``
#: accepts superscripts).  All are syntax errors with a position now.
_FIXED = {
    "RETURN 0x": ("malformed hexadecimal literal '0x'", 1, 8),
    "RETURN 0xg": ("malformed hexadecimal literal '0x'", 1, 8),
    "0X": ("malformed hexadecimal literal '0X'", 1, 1),
    "'\\UFFFFFFFF'": ("bad unicode escape", 1, 4),
    "²": ("unexpected character '²'", 1, 1),
    "1²": ("unexpected character '²'", 1, 2),
}


def _golden_rows():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


class TestGoldenConformance:
    """Token for token, error for error, what the old scanner produced."""

    def test_corpus_is_the_recorded_one(self):
        rows = _golden_rows()
        texts = {row[0] for row in rows}
        assert len(rows) == len(texts) >= 600
        assert texts >= set(_EDGE_TEXTS)
        assert texts >= set(_tck_texts())
        assert set(_FIXED) <= texts

    def test_every_text_lexes_as_recorded(self):
        mismatches = []
        for row in _golden_rows():
            if row[0] in _FIXED:
                continue
            assert row[1] is not None or row[2][0] == "CypherSyntaxError", row
            observed = _observe(row[0])
            if observed != row:
                mismatches.append((row, observed))
        assert not mismatches, mismatches[:3]

    @pytest.mark.parametrize("text", sorted(_FIXED))
    def test_former_escapes_are_syntax_errors(self, text):
        message, line, column = _FIXED[text]
        with pytest.raises(CypherSyntaxError) as raised:
            tokenize(text)
        assert (raised.value.line, raised.value.column) == (line, column)
        assert str(raised.value) == "line %d, column %d: %s" % (
            line, column, message
        )

    @pytest.mark.parametrize("query", [
        "RETURN 0x", "RETURN 0xg", "RETURN 1²", "RETURN ²", "RETURN ٣",
    ])
    def test_engine_raises_a_cypher_error_not_value_error(self, query):
        from repro import CypherEngine
        from repro.exceptions import CypherError

        for mode in ("interpreter", "planner"):
            with pytest.raises(CypherError):
                CypherEngine().run(query, mode=mode)

    def test_upper_is_precomputed_and_tokens_are_slotted(self):
        token = tokenize("match")[0]
        assert token.upper == "MATCH" and token.is_keyword("MATCH")
        assert not hasattr(token, "__dict__")
        assert tokenize("`a b`")[0].upper == "A B"
        assert tokenize("<=")[0].upper == "<="


if __name__ == "__main__":
    rows = _golden_rows()
    known = {row[0] for row in rows}
    drifted = sum(_observe(row[0]) != row for row in rows)
    corpus = dict.fromkeys(_tck_texts() + _fuzz_samples(25) + _EDGE_TEXTS)
    added = [_observe(text) for text in corpus if text not in known]
    with open(sys.argv[1] if len(sys.argv) > 1 else GOLDEN, "w",
              encoding="utf-8") as handle:
        json.dump(rows + added, handle,
                  ensure_ascii=True, separators=(",", ":"))
        handle.write("\n")
    print("kept %d rows, appended %d; %d kept texts lex differently now"
          % (len(rows), len(added), drifted))
