"""Lexer and recursive-descent parser for Cypher 9 (+ Cypher 10 graph clauses).

The concrete syntax follows the paper's Figures 3 and 5, extended with the
constructs the paper's own examples use (ORDER BY / SKIP / LIMIT, DISTINCT,
label predicates, collect/count aggregates, update clauses, FROM GRAPH /
RETURN GRAPH).  ``parse_query`` is the main entry point.
"""

from repro.parser.lexer import tokenize
from repro.parser.parser import (
    LIFTED_PREFIX,
    Parser,
    literal_value,
    parse_expression,
    parse_pattern,
    parse_query,
    skeleton_of,
)

__all__ = [
    "tokenize",
    "Parser",
    "LIFTED_PREFIX",
    "literal_value",
    "skeleton_of",
    "parse_query",
    "parse_expression",
    "parse_pattern",
]
