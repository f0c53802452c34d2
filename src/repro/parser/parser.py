"""Recursive-descent parser for Cypher.

Grammar sources: the paper's Figure 3 (patterns) and Figure 5
(expressions / queries / clauses), extended with the constructs the
paper's running examples use: DISTINCT, ORDER BY / SKIP / LIMIT, label
predicate expressions, update clauses, CASE, list/pattern comprehensions,
quantified predicates, and the Cypher 10 graph clauses of Section 6.

The parser is hand-written with one-token lookahead plus cheap
backtracking (save/restore of the token index) in the few genuinely
ambiguous spots: ``(`` opening either a parenthesized expression or a
pattern predicate, and ``[`` opening a list literal, a list
comprehension or a pattern comprehension.

Lifting (auto-parameterisation)
-------------------------------
``Parser(tokens, lift=True)`` parses some literal atoms to
``ex.Parameter("#<ordinal>")`` instead of ``ex.Literal(value)`` and
reports which in :attr:`Parser.lift_mask`, so that the engine can plan a
statement once per *shape* and bind the values per run.  The rule is
the parser's alone.  An INTEGER/FLOAT/STRING token is lifted only where
it is

* the whole value of a property-map entry of a node or relationship
  pattern, or
* a direct operand of ``= <> < <= > >=`` (a comparison of two
  constants, ``WHERE 1 = 1``, lifts like any other),

and only inside a ``MATCH`` / ``OPTIONAL MATCH`` pattern or the
``WHERE`` of ``MATCH`` / ``OPTIONAL MATCH`` / ``WITH``.  Everything else
keeps its literal because something downstream reads its *value* or its
*text*: projection items (an un-aliased ``RETURN n.x = 5`` names its
column after the text), ``ORDER BY``, ``SKIP`` / ``LIMIT`` (top-k
sizing), ``SET`` and the patterns of ``CREATE`` / ``MERGE``, list and
map literals (the planner reads an ``IN`` list's length), variable-length
bounds, ``$1``-style parameter names, and ``TRUE`` / ``FALSE`` / ``NULL``
(not literal tokens at all).

The set of lifted ordinals is a function of the statement's *skeleton*
— its token texts with every literal token replaced by its kind
(:func:`skeleton_of`).  The parser branches on a token's kind and, for
identifiers and operators, its text; it never looks at the text of an
INTEGER, FLOAT or STRING token to decide where to go next.  Two texts
with equal skeletons therefore walk the same path, backtracking
included, and lift the same ordinals: the engine may learn the mask
from the first text of a shape and apply it to every later one without
parsing it.
"""

from __future__ import annotations

from repro.ast import clauses as cl
from repro.ast import expressions as ex
from repro.ast import patterns as pt
from repro.ast import queries as qu
from repro.exceptions import CypherSyntaxError
from repro.parser.lexer import tokenize
from repro.parser.tokens import (
    END,
    FLOAT,
    IDENT,
    INTEGER,
    LITERAL_KINDS,
    OPERATOR,
    STRING,
)

_CLAUSE_STARTERS = frozenset(
    {
        "MATCH",
        "OPTIONAL",
        "WITH",
        "RETURN",
        "UNWIND",
        "CREATE",
        "DELETE",
        "DETACH",
        "SET",
        "REMOVE",
        "MERGE",
        "FROM",
    }
)

_QUANTIFIERS = frozenset({"all", "any", "none", "single"})

_EXPRESSION_STOPPERS = frozenset(
    {
        "AS",
        "ORDER",
        "SKIP",
        "LIMIT",
        "WHERE",
        "WHEN",
        "THEN",
        "ELSE",
        "END",
        "ASC",
        "ASCENDING",
        "DESC",
        "DESCENDING",
        "UNION",
        "ON",
    }
) | _CLAUSE_STARTERS


#: What a literal token stands for in a skeleton; ``#`` starts neither
#: an identifier nor an operator, so a mark never equals a token text.
_LITERAL_MARKS = {INTEGER: "#i", FLOAT: "#f", STRING: "#s"}

#: Prefix of the parameter names lifting invents.  Query text can only
#: spell such a name with a backtick identifier (``$`#0```).
LIFTED_PREFIX = "#"


def _lifted_name(ordinal):
    return "%s%d" % (LIFTED_PREFIX, ordinal)


def literal_value(token):
    """The value an INTEGER, FLOAT or STRING token denotes."""
    kind = token.kind
    if kind == INTEGER:
        return int(token.text)
    if kind == FLOAT:
        return float(token.text)
    return token.text


def skeleton_of(tokens):
    """``(skeleton, literal tokens)`` of a lexed statement.

    The skeleton is the tuple of token texts with each literal token
    replaced by a mark of its kind; the literal tokens come back in
    order, so "literal ordinal *i*" means the same to the parser and to
    whoever applies a lift mask.  Only meaningful for source text
    without backticks: a quoted identifier may spell an operator.
    """
    marks = _LITERAL_MARKS
    parts = []
    literals = []
    for token in tokens:
        mark = marks.get(token.kind)
        if mark is None:
            parts.append(token.text)
        else:
            parts.append(mark)
            literals.append(token)
    return tuple(parts), literals


class Parser:
    """Parses one query (or expression / pattern).

    ``source`` is query text or the token list :func:`tokenize` made of
    it.  With ``lift`` the parser auto-parameterises (see the module
    docstring) and :attr:`lift_mask` says which literals it replaced.
    """

    def __init__(self, source, lift=False):
        self.tokens = tokenize(source) if isinstance(source, str) else source
        self.position = 0
        #: True while parsing a region whose literals may be lifted.
        self._lifting = False
        self._lift = lift
        #: token position -> literal ordinal, for every literal token.
        self._ordinals = {}
        #: Token positions parsed to a Parameter (see :meth:`_restore`).
        self._lifted_positions = []
        if lift:
            ordinal = 0
            for position, token in enumerate(self.tokens):
                if token.kind in LITERAL_KINDS:
                    self._ordinals[position] = ordinal
                    ordinal += 1

    @property
    def lift_mask(self):
        """Per literal ordinal: the parameter name it became, or None."""
        names = [None] * len(self._ordinals)
        for position in self._lifted_positions:
            ordinal = self._ordinals[position]
            names[ordinal] = _lifted_name(ordinal)
        return tuple(names)

    def _lift_at(self, position):
        """The Parameter standing in for the literal token at ``position``."""
        self._lifted_positions.append(position)
        return ex.Parameter(_lifted_name(self._ordinals[position]))

    # ------------------------------------------------------------------
    # Token plumbing
    # ------------------------------------------------------------------

    def _peek(self, offset=0):
        index = min(self.position + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self):
        token = self._peek()
        if token.kind != END:
            self.position += 1
        return token

    def _error(self, message, token=None):
        token = token or self._peek()
        raise CypherSyntaxError(message, token.line, token.column)

    def _at_operator(self, text, offset=0):
        token = self._peek(offset)
        return token.kind == OPERATOR and token.text == text

    def _accept_operator(self, text):
        if self._at_operator(text):
            return self._advance()
        return None

    def _expect_operator(self, text):
        if not self._at_operator(text):
            self._error("expected %r, found %r" % (text, self._peek().text))
        return self._advance()

    def _at_keyword(self, word, offset=0):
        token = self._peek(offset)
        return token.kind == IDENT and token.upper == word

    def _accept_keyword(self, word):
        if self._at_keyword(word):
            return self._advance()
        return None

    def _expect_keyword(self, word):
        if not self._at_keyword(word):
            self._error("expected %s, found %r" % (word, self._peek().text))
        return self._advance()

    def _expect_identifier(self, what="identifier"):
        token = self._peek()
        if token.kind != IDENT:
            self._error("expected %s, found %r" % (what, token.text))
        return self._advance().text

    def _save(self):
        return self.position, self._lifting

    def _restore(self, mark):
        self.position, self._lifting = mark
        if self._lifted_positions:
            # A backtracked region is parsed again, perhaps as something
            # that does not lift: forget what the failed attempt lifted.
            self._lifted_positions = [
                position for position in self._lifted_positions
                if position < self.position
            ]

    def _at_clause_start(self):
        token = self._peek()
        if token.kind != IDENT:
            return False
        word = token.upper
        if word == "QUERY":
            return self._at_keyword("GRAPH", 1)
        return word in _CLAUSE_STARTERS

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def parse_query(self):
        query = self._parse_single_query()
        while self._at_keyword("UNION"):
            self._advance()
            union_all = bool(self._accept_keyword("ALL"))
            right = self._parse_single_query()
            query = qu.UnionQuery(query, right, union_all)
        if self._accept_operator(";"):
            pass
        if self._peek().kind != END:
            self._error("unexpected input after query: %r" % self._peek().text)
        return query

    def _parse_single_query(self):
        clauses = []
        while self._at_clause_start():
            clause = self._parse_clause()
            clauses.append(clause)
            if isinstance(clause, cl.Return):
                break
        if not clauses:
            self._error("expected a clause, found %r" % self._peek().text)
        self._validate_clause_order(clauses)
        return qu.SingleQuery(tuple(clauses))

    def _validate_clause_order(self, clauses):
        for clause in clauses[:-1]:
            if isinstance(clause, cl.Return):
                self._error("RETURN can only be the final clause")
        updating = (cl.Create, cl.Delete, cl.SetClause, cl.RemoveClause, cl.Merge)
        last = clauses[-1]
        if not isinstance(last, (cl.Return, cl.ReturnGraph) + updating):
            if isinstance(last, (cl.Match, cl.Unwind, cl.With, cl.FromGraph)):
                self._error(
                    "query must end with RETURN or an updating clause"
                )

    # ------------------------------------------------------------------
    # Clauses
    # ------------------------------------------------------------------

    def _parse_clause(self):
        if self._at_keyword("OPTIONAL"):
            self._advance()
            self._expect_keyword("MATCH")
            return self._parse_match(optional=True)
        if self._accept_keyword("MATCH"):
            return self._parse_match(optional=False)
        if self._accept_keyword("WITH"):
            return self._parse_with()
        if self._at_keyword("RETURN"):
            self._advance()
            if self._at_keyword("GRAPH"):
                return self._parse_return_graph()
            return cl.Return(self._parse_projection())
        if self._accept_keyword("UNWIND"):
            expression = self.parse_expression()
            self._expect_keyword("AS")
            alias = self._expect_identifier("alias")
            return cl.Unwind(expression, alias)
        if self._accept_keyword("CREATE"):
            return cl.Create(self._parse_pattern_tuple())
        if self._at_keyword("DETACH"):
            self._advance()
            self._expect_keyword("DELETE")
            return self._parse_delete(detach=True)
        if self._accept_keyword("DELETE"):
            return self._parse_delete(detach=False)
        if self._accept_keyword("SET"):
            return cl.SetClause(tuple(self._parse_set_items()))
        if self._accept_keyword("REMOVE"):
            return cl.RemoveClause(tuple(self._parse_remove_items()))
        if self._accept_keyword("MERGE"):
            return self._parse_merge()
        if self._at_keyword("FROM"):
            self._advance()
            self._expect_keyword("GRAPH")
            return self._parse_from_graph()
        if self._at_keyword("QUERY"):
            self._advance()
            self._expect_keyword("GRAPH")
            name = self._expect_identifier("graph name")
            return cl.FromGraph(name)
        self._error("expected a clause, found %r" % self._peek().text)

    def _parse_match(self, optional):
        self._lifting = self._lift
        pattern = self._parse_pattern_tuple()
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        self._lifting = False
        return cl.Match(pattern, optional=optional, where=where)

    def _parse_with(self):
        projection = self._parse_projection()
        where = None
        if self._accept_keyword("WHERE"):
            self._lifting = self._lift
            where = self.parse_expression()
            self._lifting = False
        return cl.With(projection, where=where)

    def _parse_projection(self):
        distinct = bool(self._accept_keyword("DISTINCT"))
        star = False
        items = []
        if self._accept_operator("*"):
            star = True
            if self._accept_operator(","):
                items = self._parse_return_items()
        else:
            items = self._parse_return_items()
        order_by = ()
        if self._at_keyword("ORDER"):
            self._advance()
            self._expect_keyword("BY")
            order_by = tuple(self._parse_sort_items())
        skip = None
        if self._accept_keyword("SKIP"):
            skip = self.parse_expression()
        limit = None
        if self._accept_keyword("LIMIT"):
            limit = self.parse_expression()
        return cl.Projection(
            star=star,
            items=tuple(items),
            distinct=distinct,
            order_by=order_by,
            skip=skip,
            limit=limit,
        )

    def _parse_return_items(self):
        items = [self._parse_return_item()]
        while self._accept_operator(","):
            items.append(self._parse_return_item())
        return items

    def _parse_return_item(self):
        expression = self.parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect_identifier("alias")
        return cl.ReturnItem(expression, alias)

    def _parse_sort_items(self):
        items = [self._parse_sort_item()]
        while self._accept_operator(","):
            items.append(self._parse_sort_item())
        return items

    def _parse_sort_item(self):
        expression = self.parse_expression()
        ascending = True
        if self._accept_keyword("DESC") or self._accept_keyword("DESCENDING"):
            ascending = False
        elif self._accept_keyword("ASC") or self._accept_keyword("ASCENDING"):
            ascending = True
        return cl.SortItem(expression, ascending)

    def _parse_delete(self, detach):
        expressions = [self.parse_expression()]
        while self._accept_operator(","):
            expressions.append(self.parse_expression())
        return cl.Delete(tuple(expressions), detach=detach)

    def _parse_set_items(self):
        items = [self._parse_set_item()]
        while self._accept_operator(","):
            items.append(self._parse_set_item())
        return items

    def _parse_set_item(self):
        # SET a:Label...
        if self._peek().kind == IDENT and self._at_operator(":", 1):
            name = self._advance().text
            labels = self._parse_label_sequence()
            return cl.SetLabels(name, labels)
        target = self._parse_postfix_expression()
        if isinstance(target, ex.Variable):
            if self._accept_operator("+="):
                return cl.SetVariable(target.name, self.parse_expression(), merge=True)
            self._expect_operator("=")
            return cl.SetVariable(target.name, self.parse_expression(), merge=False)
        if isinstance(target, ex.PropertyAccess):
            self._expect_operator("=")
            return cl.SetProperty(target.subject, target.key, self.parse_expression())
        self._error("cannot SET %r" % (target,))

    def _parse_remove_items(self):
        items = [self._parse_remove_item()]
        while self._accept_operator(","):
            items.append(self._parse_remove_item())
        return items

    def _parse_remove_item(self):
        if self._peek().kind == IDENT and self._at_operator(":", 1):
            name = self._advance().text
            labels = self._parse_label_sequence()
            return cl.RemoveLabels(name, labels)
        target = self._parse_postfix_expression()
        if isinstance(target, ex.PropertyAccess):
            return cl.RemoveProperty(target.subject, target.key)
        self._error("cannot REMOVE %r" % (target,))

    def _parse_merge(self):
        pattern = self.parse_path_pattern()
        on_create = []
        on_match = []
        while self._at_keyword("ON"):
            self._advance()
            if self._accept_keyword("CREATE"):
                self._expect_keyword("SET")
                on_create.extend(self._parse_set_items())
            elif self._accept_keyword("MATCH"):
                self._expect_keyword("SET")
                on_match.extend(self._parse_set_items())
            else:
                self._error("expected CREATE or MATCH after ON")
        return cl.Merge(pattern, tuple(on_create), tuple(on_match))

    def _parse_from_graph(self):
        name = self._expect_identifier("graph name")
        uri = None
        if self._accept_keyword("AT"):
            token = self._peek()
            if token.kind != STRING:
                self._error("expected a string after AT")
            uri = self._advance().text
        return cl.FromGraph(name, uri)

    def _parse_return_graph(self):
        self._expect_keyword("GRAPH")
        graph_name = self._expect_identifier("graph name")
        pattern = None
        if self._accept_keyword("OF"):
            pattern = self.parse_path_pattern()
        return cl.ReturnGraph(graph_name, pattern)

    # ------------------------------------------------------------------
    # Patterns (Figure 3)
    # ------------------------------------------------------------------

    def _parse_pattern_tuple(self):
        patterns = [self.parse_path_pattern()]
        while self._accept_operator(","):
            patterns.append(self.parse_path_pattern())
        return tuple(patterns)

    def parse_path_pattern(self):
        """``pattern ::= pattern° | a = pattern°``."""
        name = None
        if (
            self._peek().kind == IDENT
            and self._at_operator("=", 1)
            and self._peek().upper not in _EXPRESSION_STOPPERS
        ):
            name = self._advance().text
            self._advance()  # '='
        return self._parse_anonymous_path_pattern(name)

    def _parse_anonymous_path_pattern(self, name=None):
        elements = [self._parse_node_pattern()]
        while self._at_operator("-") or self._at_operator("<"):
            elements.append(self._parse_relationship_pattern())
            elements.append(self._parse_node_pattern())
        return pt.PathPattern(tuple(elements), name=name)

    def _parse_node_pattern(self):
        self._expect_operator("(")
        name = None
        if self._peek().kind == IDENT and not self._at_operator("(", 0):
            # a bare identifier; labels and map may follow
            name = self._advance().text
        labels = ()
        if self._at_operator(":"):
            labels = self._parse_label_sequence()
        properties = ()
        if self._at_operator("{"):
            properties = self._parse_property_map(pattern=True)
        self._expect_operator(")")
        return pt.NodePattern(name=name, labels=labels, properties=properties)

    def _parse_label_sequence(self):
        labels = []
        while self._accept_operator(":"):
            labels.append(self._expect_identifier("label"))
        return tuple(labels)

    def _parse_property_map(self, pattern=False):
        """``{k: e, …}``: a pattern's property map, or a map expression.

        Only a pattern's map lifts, and only an entry whose whole value
        is one literal token; inside a map *expression* nothing does.
        (A syntax error inside leaves ``_lifting`` as it is: whoever
        catches it backtracks through :meth:`_restore`, which resets it.)
        """
        outside = self._lifting
        self._lifting = lifting = outside and pattern
        self._expect_operator("{")
        items = []
        if not self._at_operator("}"):
            while True:
                key = self._expect_identifier("property key")
                self._expect_operator(":")
                if (
                    lifting
                    and self._peek().kind in LITERAL_KINDS
                    and (self._at_operator(",", 1)
                         or self._at_operator("}", 1))
                ):
                    value = self._lift_at(self.position)
                    self._advance()
                else:
                    value = self.parse_expression()
                items.append((key, value))
                if not self._accept_operator(","):
                    break
        self._expect_operator("}")
        self._lifting = outside
        return tuple(items)

    def _parse_relationship_pattern(self):
        pointing_left = False
        pointing_right = False
        if self._accept_operator("<"):
            pointing_left = True
        self._expect_operator("-")
        name = None
        types = ()
        length = None
        properties = ()
        if self._accept_operator("["):
            if self._peek().kind == IDENT and not self._at_operator(":", 0):
                name = self._advance().text
            if self._at_operator(":"):
                types = self._parse_type_alternatives()
            if self._accept_operator("*"):
                length = self._parse_length_range()
            if self._at_operator("{"):
                properties = self._parse_property_map(pattern=True)
            self._expect_operator("]")
        self._expect_operator("-")
        if self._accept_operator(">"):
            pointing_right = True
        if pointing_left and pointing_right:
            self._error("a relationship pattern cannot point both ways")
        if pointing_left:
            direction = pt.RIGHT_TO_LEFT
        elif pointing_right:
            direction = pt.LEFT_TO_RIGHT
        else:
            direction = pt.UNDIRECTED
        return pt.RelationshipPattern(
            direction=direction,
            name=name,
            types=types,
            properties=properties,
            length=length,
        )

    def _parse_type_alternatives(self):
        self._expect_operator(":")
        types = [self._expect_identifier("relationship type")]
        while self._accept_operator("|"):
            self._accept_operator(":")  # both :A|B and :A|:B are accepted
            types.append(self._expect_identifier("relationship type"))
        return tuple(types)

    def _parse_length_range(self):
        """After the ``*``: ``∗ | ∗d | ∗d1.. | ∗..d2 | ∗d1..d2``."""
        low = None
        high = None
        if self._peek().kind == INTEGER:
            low = int(self._advance().text)
        if self._accept_operator(".."):
            if self._peek().kind == INTEGER:
                high = int(self._advance().text)
        else:
            # '*d' alone fixes the range to exactly d; bare '*' is (nil, nil)
            high = low
        return (low, high)

    # ------------------------------------------------------------------
    # Expressions (Figure 5) — precedence climbing
    # ------------------------------------------------------------------

    def parse_expression(self):
        return self._parse_or()

    def _parse_or(self):
        left = self._parse_xor()
        while self._accept_keyword("OR"):
            left = ex.BinaryLogic("OR", left, self._parse_xor())
        return left

    def _parse_xor(self):
        left = self._parse_and()
        while self._accept_keyword("XOR"):
            left = ex.BinaryLogic("XOR", left, self._parse_and())
        return left

    def _parse_and(self):
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = ex.BinaryLogic("AND", left, self._parse_not())
        return left

    def _parse_not(self):
        if self._accept_keyword("NOT"):
            return ex.Not(self._parse_not())
        return self._parse_comparison()

    _COMPARISON_OPERATORS = ("=", "<>", "<=", ">=", "<", ">")

    def _parse_comparison(self):
        starts = [self.position]
        first = self._parse_predicated()
        operators = []
        operands = [first]
        while True:
            operator = None
            for candidate in self._COMPARISON_OPERATORS:
                if self._at_operator(candidate):
                    operator = candidate
                    break
            if operator is None:
                break
            self._advance()
            operators.append(operator)
            starts.append(self.position)
            operands.append(self._parse_predicated())
        if not operators:
            return first
        if self._lifting:
            # A Literal that starts at a literal token *is* that token:
            # any postfix would have made it something else.
            for index, start in enumerate(starts):
                if (
                    isinstance(operands[index], ex.Literal)
                    and start in self._ordinals
                ):
                    operands[index] = self._lift_at(start)
        return ex.Comparison(tuple(operators), tuple(operands))

    def _parse_predicated(self):
        """Additive expression followed by postfix predicates.

        IN, STARTS WITH, ENDS WITH, CONTAINS, =~, IS [NOT] NULL.
        """
        value = self._parse_additive()
        while True:
            if self._accept_keyword("IN"):
                value = ex.In(value, self._parse_additive())
            elif self._at_keyword("STARTS"):
                self._advance()
                self._expect_keyword("WITH")
                value = ex.StringPredicate("STARTS WITH", value, self._parse_additive())
            elif self._at_keyword("ENDS"):
                self._advance()
                self._expect_keyword("WITH")
                value = ex.StringPredicate("ENDS WITH", value, self._parse_additive())
            elif self._accept_keyword("CONTAINS"):
                value = ex.StringPredicate("CONTAINS", value, self._parse_additive())
            elif self._accept_operator("=~"):
                value = ex.RegexMatch(value, self._parse_additive())
            elif self._at_keyword("IS"):
                self._advance()
                if self._accept_keyword("NOT"):
                    self._expect_keyword("NULL")
                    value = ex.IsNotNull(value)
                else:
                    self._expect_keyword("NULL")
                    value = ex.IsNull(value)
            else:
                return value

    def _parse_additive(self):
        left = self._parse_multiplicative()
        while True:
            if self._accept_operator("+"):
                left = ex.Arithmetic("+", left, self._parse_multiplicative())
            elif self._accept_operator("-"):
                left = ex.Arithmetic("-", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self):
        left = self._parse_power()
        while True:
            if self._accept_operator("*"):
                left = ex.Arithmetic("*", left, self._parse_power())
            elif self._accept_operator("/"):
                left = ex.Arithmetic("/", left, self._parse_power())
            elif self._accept_operator("%"):
                left = ex.Arithmetic("%", left, self._parse_power())
            else:
                return left

    def _parse_power(self):
        left = self._parse_unary()
        while self._accept_operator("^"):
            left = ex.Arithmetic("^", left, self._parse_unary())
        return left

    def _parse_unary(self):
        if self._accept_operator("-"):
            return ex.UnaryMinus(self._parse_unary())
        if self._accept_operator("+"):
            return ex.UnaryPlus(self._parse_unary())
        return self._parse_postfix_expression()

    def _parse_postfix_expression(self):
        value = self._parse_atom()
        while True:
            if self._at_operator(".") and self._peek(1).kind == IDENT:
                self._advance()
                key = self._advance().text
                value = ex.PropertyAccess(value, key)
            elif self._at_operator("["):
                value = self._parse_index_or_slice(value)
            elif self._at_operator(":") and self._peek(1).kind == IDENT:
                labels = self._parse_label_sequence()
                value = ex.LabelPredicate(value, labels)
            else:
                return value

    def _parse_index_or_slice(self, subject):
        self._expect_operator("[")
        start = None
        if not self._at_operator(".."):
            start = self.parse_expression()
        if self._accept_operator(".."):
            end = None
            if not self._at_operator("]"):
                end = self.parse_expression()
            self._expect_operator("]")
            return ex.ListSlice(subject, start, end)
        self._expect_operator("]")
        return ex.ListIndex(subject, start)

    # -- atoms -----------------------------------------------------------

    def _parse_atom(self):
        token = self._peek()
        if token.kind in LITERAL_KINDS:
            self._advance()
            return ex.Literal(literal_value(token))
        if self._at_operator("$"):
            self._advance()
            name = self._peek()
            if name.kind in (IDENT, INTEGER):
                self._advance()
                return ex.Parameter(name.text)
            self._error("expected a parameter name after $")
        if self._at_operator("("):
            return self._parse_parenthesized_or_pattern()
        if self._at_operator("["):
            return self._parse_bracketed()
        if self._at_operator("{"):
            return ex.MapLiteral(self._parse_property_map())
        if token.kind == IDENT:
            return self._parse_identifier_atom()
        self._error("expected an expression, found %r" % token.text)

    def _parse_identifier_atom(self):
        token = self._peek()
        word = token.upper
        if word == "TRUE":
            self._advance()
            return ex.Literal(True)
        if word == "FALSE":
            self._advance()
            return ex.Literal(False)
        if word == "NULL":
            self._advance()
            return ex.Literal(None)
        if word == "CASE":
            return self._parse_case()
        name = token.text
        if self._at_operator("(", 1):
            lowered = name.lower()
            if lowered == "count" and self._at_operator("*", 2) and self._at_operator(")", 3):
                self._advance()  # name
                self._advance()  # (
                self._advance()  # *
                self._advance()  # )
                return ex.CountStar()
            if lowered in _QUANTIFIERS and self._peek(2).kind == IDENT and self._at_keyword("IN", 3):
                return self._parse_quantifier(lowered)
            if lowered == "exists":
                return self._parse_exists()
            if lowered == "reduce" and self._peek(2).kind == IDENT and self._at_operator("=", 3):
                return self._parse_reduce()
            return self._parse_function_call()
        self._advance()
        return ex.Variable(name)

    def _parse_function_call(self):
        name = self._advance().text.lower()
        self._expect_operator("(")
        distinct = bool(self._accept_keyword("DISTINCT"))
        args = []
        if not self._at_operator(")"):
            args.append(self.parse_expression())
            while self._accept_operator(","):
                args.append(self.parse_expression())
        self._expect_operator(")")
        return ex.FunctionCall(name, tuple(args), distinct=distinct)

    def _parse_quantifier(self, quantifier):
        self._advance()  # quantifier word
        self._expect_operator("(")
        variable = self._expect_identifier("variable")
        self._expect_keyword("IN")
        source = self.parse_expression()
        self._expect_keyword("WHERE")
        predicate = self.parse_expression()
        self._expect_operator(")")
        return ex.QuantifiedPredicate(quantifier, variable, source, predicate)

    def _parse_reduce(self):
        """``reduce(acc = init, x IN list | expr)``."""
        self._advance()  # 'reduce'
        self._expect_operator("(")
        accumulator = self._expect_identifier("accumulator")
        self._expect_operator("=")
        init = self.parse_expression()
        self._expect_operator(",")
        variable = self._expect_identifier("variable")
        self._expect_keyword("IN")
        source = self.parse_expression()
        self._expect_operator("|")
        expression = self.parse_expression()
        self._expect_operator(")")
        return ex.Reduce(accumulator, init, variable, source, expression)

    def _parse_exists(self):
        self._advance()  # 'exists'
        self._expect_operator("(")
        mark = self._save()
        try:
            pattern = self._parse_pattern_tuple()
            where = None
            if self._accept_keyword("WHERE"):
                where = self.parse_expression()
            self._expect_operator(")")
            # A bare '(x)' parse would swallow a plain variable; only treat
            # it as a pattern if there is a relationship or a label/property.
            if self._pattern_is_informative(pattern):
                return ex.ExistsSubquery(pattern, where)
            raise CypherSyntaxError("not a pattern")
        except CypherSyntaxError:
            self._restore(mark)
        argument = self.parse_expression()
        self._expect_operator(")")
        return ex.FunctionCall("exists", (argument,))

    @staticmethod
    def _pattern_is_informative(pattern):
        for path in pattern:
            if len(path.elements) > 1:
                return True
            node = path.elements[0]
            if node.labels or node.properties:
                return True
        return False

    def _parse_case(self):
        self._expect_keyword("CASE")
        operand = None
        if not self._at_keyword("WHEN"):
            operand = self.parse_expression()
        alternatives = []
        while self._accept_keyword("WHEN"):
            when = self.parse_expression()
            self._expect_keyword("THEN")
            then = self.parse_expression()
            alternatives.append((when, then))
        if not alternatives:
            self._error("CASE requires at least one WHEN")
        default = None
        if self._accept_keyword("ELSE"):
            default = self.parse_expression()
        self._expect_keyword("END")
        return ex.CaseExpression(operand, tuple(alternatives), default)

    def _parse_parenthesized_or_pattern(self):
        mark = self._save()
        try:
            pattern = self._parse_anonymous_path_pattern()
            if len(pattern.elements) > 1 and not self._at_operator("("):
                return ex.PatternPredicate(pattern)
            raise CypherSyntaxError("not a pattern predicate")
        except CypherSyntaxError:
            self._restore(mark)
        self._expect_operator("(")
        inner = self.parse_expression()
        self._expect_operator(")")
        return inner

    def _parse_bracketed(self):
        # list comprehension?
        if (
            self._peek(1).kind == IDENT
            and self._at_keyword("IN", 2)
            and self._peek(1).upper not in ("TRUE", "FALSE", "NULL")
        ):
            mark = self._save()
            try:
                return self._parse_list_comprehension()
            except CypherSyntaxError:
                self._restore(mark)
        # pattern comprehension?  Either starts at a node pattern or
        # names its path: ``[p = (a)-->(b) | length(p)]``.
        if self._at_operator("(", 1) or (
            self._peek(1).kind == IDENT
            and self._at_operator("=", 2)
            and self._at_operator("(", 3)
        ):
            mark = self._save()
            try:
                return self._parse_pattern_comprehension()
            except CypherSyntaxError:
                self._restore(mark)
        return self._parse_list_literal()

    def _parse_list_comprehension(self):
        self._expect_operator("[")
        variable = self._expect_identifier("variable")
        self._expect_keyword("IN")
        source = self.parse_expression()
        where = None
        projection = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        if self._accept_operator("|"):
            projection = self.parse_expression()
        self._expect_operator("]")
        return ex.ListComprehension(variable, source, where, projection)

    def _parse_pattern_comprehension(self):
        self._expect_operator("[")
        name = None
        if self._peek().kind == IDENT and self._at_operator("=", 1):
            name = self._advance().text
            self._expect_operator("=")
        pattern = self._parse_anonymous_path_pattern(name)
        if len(pattern.elements) == 1:
            self._error("pattern comprehensions need a relationship")
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        self._expect_operator("|")
        projection = self.parse_expression()
        self._expect_operator("]")
        return ex.PatternComprehension(pattern, where, projection)

    def _parse_list_literal(self):
        self._expect_operator("[")
        outside = self._lifting
        self._lifting = False  # nothing inside a list literal lifts
        items = []
        if not self._at_operator("]"):
            items.append(self.parse_expression())
            while self._accept_operator(","):
                items.append(self.parse_expression())
        self._expect_operator("]")
        self._lifting = outside
        return ex.ListLiteral(tuple(items))


# ---------------------------------------------------------------------------
# Public helpers
# ---------------------------------------------------------------------------

def parse_query(source):
    """Parse a complete Cypher query (text or tokens); returns a Query."""
    return Parser(source).parse_query()


def parse_expression(text):
    """Parse a standalone expression (for tests and the REPL)."""
    parser = Parser(text)
    expression = parser.parse_expression()
    if parser._peek().kind != END:
        parser._error("unexpected input after expression")
    return expression


def parse_pattern(text):
    """Parse a standalone path pattern (for tests)."""
    parser = Parser(text)
    pattern = parser.parse_path_pattern()
    if parser._peek().kind != END:
        parser._error("unexpected input after pattern")
    return pattern
