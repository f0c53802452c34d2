"""Query semantics (paper Figure 6).

``output(Q, G) = [[Q]]_G(T())`` — evaluation starts from the table with
one empty tuple, each clause maps table to table, and UNION [ALL]
combines the results of two queries on the *same* input table (with ε for
the duplicate-eliminating variant).

A statement is atomic: :func:`run_statement` commits the write
transactions its update clauses opened when the query finishes and rolls
them all back when anything raises.
"""

from __future__ import annotations

from repro.ast import queries as qu
from repro.exceptions import CypherSemanticError
from repro.graph.catalog import GraphCatalog
from repro.semantics.clauses import apply_clause
from repro.semantics.expressions import Evaluator
from repro.semantics.morphism import EDGE_ISOMORPHISM
from repro.semantics.table import Table


class QueryState:
    """Everything an executing query may touch.

    Holds the current source graph (switchable by Cypher 10's FROM GRAPH),
    the catalog of named graphs, query parameters, the function registry
    and the morphism configuration.  ``result_graphs`` accumulates graphs
    produced by RETURN GRAPH.  ``transactions`` holds the statement's
    write transactions, one per graph it writes.
    """

    def __init__(
        self,
        graph,
        parameters=None,
        functions=None,
        morphism=EDGE_ISOMORPHISM,
        catalog=None,
    ):
        self.catalog = catalog if catalog is not None else GraphCatalog(graph)
        self.graph = graph
        self.parameters = dict(parameters or {})
        self.functions = functions
        self.morphism = morphism
        self.result_graphs = {}
        self.transactions = {}
        self._evaluators = {}

    def evaluator(self):
        """An Evaluator bound to the *current* graph (cached per graph)."""
        key = id(self.graph)
        evaluator = self._evaluators.get(key)
        if evaluator is None:
            evaluator = Evaluator(
                self.graph, self.parameters, self.functions, self.morphism
            )
            self._evaluators[key] = evaluator
        return evaluator

    def transaction(self):
        """The statement's write transaction on the *current* graph.

        Opened by the first update clause that writes this graph (keyed
        like the evaluators, because FROM GRAPH can switch graphs) and
        closed only by :func:`run_statement`.
        """
        key = id(self.graph)
        transaction = self.transactions.get(key)
        if transaction is None:
            transaction = self.graph.write_transaction()
            self.transactions[key] = transaction
        return transaction

    def switch_graph(self, name, uri=None):
        """FROM GRAPH: make a catalog graph the current source graph."""
        self.graph = self.catalog.resolve(name=name, uri=uri)


def run_statement(query, state):
    """``output(Q, G)`` as one atomic statement.

    Commits every write transaction the query opened (one version bump
    per written graph) once its table is complete; on any exception
    rolls them all back, so a failing statement leaves each graph, its
    indexes, version and id counters exactly as before it.
    """
    transactions = state.transactions.values()
    try:
        table = run_query(query, state)
        for transaction in transactions:
            transaction.commit()
    except BaseException:
        for transaction in transactions:
            transaction.rollback()
        raise
    return table


def run_query(query, state, table=None):
    """[[query]]_G applied to ``table`` (default: the unit table T())."""
    if table is None:
        table = Table.unit()
    if isinstance(query, qu.SingleQuery):
        current = table
        for clause in query.clauses:
            current = apply_clause(clause, current, state)
        return current
    if isinstance(query, qu.UnionQuery):
        left = run_query(query.left, state, table)
        right = run_query(query.right, state, table)
        if set(left.fields) != set(right.fields):
            raise CypherSemanticError(
                "UNION sides must project the same fields: %r vs %r"
                % (list(left.fields), list(right.fields))
            )
        combined = Table(
            left.fields,
            left.rows + [_reorder(row, left.fields) for row in right.rows],
        )
        if query.all:
            return combined
        return combined.deduplicate()
    raise CypherSemanticError("cannot execute query %r" % (query,))


def _reorder(row, fields):
    return {field: row.get(field) for field in fields}


def output(query, graph, parameters=None, morphism=EDGE_ISOMORPHISM):
    """``output(Q, G)``: parse nothing, just run an AST query on a graph."""
    state = QueryState(graph, parameters=parameters, morphism=morphism)
    return run_statement(query, state)
