"""Execution of CREATE / DELETE / SET / REMOVE / MERGE.

Each function takes (clause, table, state) and returns the next driving
table, mutating ``state.graph`` along the way.  The semantics follows
Neo4j's documented behaviour for the constructs the paper describes:

* CREATE instantiates its (rigid, directed, single-type) pattern once per
  driving row, binding any new names;
* DELETE collects entities across all rows and removes relationships
  before nodes; non-DETACH deletion of a connected node is an error;
* SET/REMOVE mutate properties and labels per row;
* MERGE matches its pattern per row — every existing match yields a row
  (with ON MATCH applied); if none exists the whole pattern is created
  (with ON CREATE applied), so a MERGE never partially reuses a pattern.

All mutation goes through the store's :class:`StoreTransaction` — the
same change-buffer kernel the planner's physical write operators drive
(:mod:`repro.planner.physical`) — one transaction per statement, held by
the query state and committed or rolled back by
:func:`~repro.semantics.query.run_statement`, so a failing statement
leaves nothing behind and a successful one bumps the version once.
Each clause flushes its buffered deletes when it ends, so deletes stay
two-phase per clause.  The per-row logic in this module is the
*reference* semantics the slotted write pipeline is cross-checked
against.
"""

from __future__ import annotations

from repro.ast import clauses as cl
from repro.ast import patterns as pt
from repro.exceptions import CypherSemanticError, CypherTypeError
from repro.semantics.matching import match_pattern_tuple
from repro.semantics.table import Table
from repro.values.base import NodeId, RelId
from repro.values.path import Path


def apply_update(clause, table, state):
    dispatch = _DISPATCH.get(type(clause))
    if dispatch is None:
        raise CypherSemanticError("not an update clause: %r" % (clause,))
    transaction = state.transaction()
    result = dispatch(clause, table, state, transaction)
    transaction.flush()
    return result


# ---------------------------------------------------------------------------
# CREATE
# ---------------------------------------------------------------------------

def validate_create_pattern(path_pattern):
    """Structural constraints on a CREATE pattern (checked per clause).

    Shared with the planner, which performs the same check at plan time;
    hoisting it out of the row loop keeps the two paths agreeing even on
    an empty driving table.
    """
    for rho in path_pattern.relationship_patterns:
        if rho.length is not None:
            raise CypherSemanticError(
                "CREATE cannot use variable-length relationships"
            )
        if len(rho.types) != 1:
            raise CypherSemanticError(
                "CREATE requires exactly one relationship type"
            )
        if rho.direction == pt.UNDIRECTED:
            raise CypherSemanticError(
                "CREATE requires a directed relationship"
            )


def validate_merge_pattern(path_pattern):
    """Structural constraints on a MERGE pattern (undirected is allowed)."""
    for rho in path_pattern.relationship_patterns:
        if rho.length is not None or len(rho.types) != 1:
            raise CypherSemanticError(
                "MERGE requires rigid single-type relationships"
            )


def _apply_create(clause, table, state, transaction):
    evaluator = state.evaluator()
    for path_pattern in clause.pattern:
        validate_create_pattern(path_pattern)
    new_fields = [
        name
        for name in pt.free_variables(clause.pattern)
        if name not in table.fields
    ]
    rows = []
    for record in table.rows:
        row = dict(record)
        for path_pattern in clause.pattern:
            _create_path(path_pattern, row, transaction, evaluator)
        rows.append(row)
    return Table(table.fields + tuple(new_fields), rows)


def _create_path(path_pattern, row, transaction, evaluator):
    elements = path_pattern.elements
    nodes = []
    rels = []
    current = _create_or_reuse_node(elements[0], row, transaction, evaluator)
    nodes.append(current)
    for index in range(1, len(elements), 2):
        rho = elements[index]
        chi = elements[index + 1]
        next_node = _create_or_reuse_node(chi, row, transaction, evaluator)
        properties = {
            key: evaluator.evaluate(value, row) for key, value in rho.properties
        }
        if rho.direction == pt.LEFT_TO_RIGHT:
            rel = transaction.create_relationship(
                current, next_node, rho.types[0], properties
            )
        else:
            rel = transaction.create_relationship(
                next_node, current, rho.types[0], properties
            )
        if rho.name is not None:
            if rho.name in row:
                raise CypherSemanticError(
                    "relationship variable %r already bound" % rho.name
                )
            row[rho.name] = rel
        rels.append(rel)
        nodes.append(next_node)
        current = next_node
    if path_pattern.name is not None:
        row[path_pattern.name] = Path(tuple(nodes), tuple(rels))


def _create_or_reuse_node(chi, row, transaction, evaluator):
    if chi.name is not None and chi.name in row:
        value = row[chi.name]
        if not isinstance(value, NodeId):
            raise CypherTypeError(
                "cannot CREATE through %r: bound to %r" % (chi.name, value)
            )
        if chi.labels or chi.properties:
            raise CypherSemanticError(
                "cannot add labels or properties to the bound variable %r "
                "inside CREATE" % chi.name
            )
        return value
    properties = {
        key: evaluator.evaluate(value, row) for key, value in chi.properties
    }
    node = transaction.create_node(chi.labels, properties)
    if chi.name is not None:
        row[chi.name] = node
    return node


# ---------------------------------------------------------------------------
# DELETE
# ---------------------------------------------------------------------------

def _apply_delete(clause, table, state, transaction):
    evaluator = state.evaluator()
    detach = clause.detach
    for record in table.rows:
        for expression in clause.expressions:
            transaction.delete_value(
                evaluator.evaluate(expression, record), detach
            )
    transaction.flush()
    return table


# ---------------------------------------------------------------------------
# SET and REMOVE
# ---------------------------------------------------------------------------

def _apply_set_clause(clause, table, state, transaction):
    return _apply_set(clause.items, table, state, transaction)


def _apply_set(items, table, state, transaction, rows=None):
    evaluator = state.evaluator()
    for record in rows if rows is not None else table.rows:
        for item in items:
            _apply_set_item(item, record, state, evaluator, transaction)
    return table


def _apply_set_item(item, record, state, evaluator, transaction):
    graph = state.graph
    if isinstance(item, cl.SetProperty):
        entity = evaluator.evaluate(item.subject, record)
        if entity is None:
            return
        if not isinstance(entity, (NodeId, RelId)):
            raise CypherTypeError("SET expects a node or relationship")
        transaction.set_property(
            entity, item.key, evaluator.evaluate(item.value, record)
        )
        return
    if isinstance(item, cl.SetVariable):
        entity = record.get(item.name)
        if entity is None:
            return
        if not isinstance(entity, (NodeId, RelId)):
            raise CypherTypeError("SET expects a node or relationship")
        value = evaluator.evaluate(item.value, record)
        if isinstance(value, (NodeId, RelId)):
            value = graph.properties(value)
        if not isinstance(value, dict):
            raise CypherTypeError(
                "SET %s = ... expects a map or entity" % item.name
            )
        if item.merge:
            transaction.merge_properties(entity, value)
        else:
            transaction.replace_properties(entity, value)
        return
    if isinstance(item, cl.SetLabels):
        entity = record.get(item.name)
        if entity is None:
            return
        if not isinstance(entity, NodeId):
            raise CypherTypeError("labels can only be set on nodes")
        for label in item.labels:
            transaction.add_label(entity, label)
        return
    raise CypherSemanticError("unknown SET item %r" % (item,))


def _apply_remove(clause, table, state, transaction):
    evaluator = state.evaluator()
    for record in table.rows:
        for item in clause.items:
            if isinstance(item, cl.RemoveProperty):
                entity = evaluator.evaluate(item.subject, record)
                if entity is None:
                    continue
                if not isinstance(entity, (NodeId, RelId)):
                    raise CypherTypeError(
                        "REMOVE expects a node or relationship"
                    )
                transaction.remove_property(entity, item.key)
            elif isinstance(item, cl.RemoveLabels):
                entity = record.get(item.name)
                if entity is None:
                    continue
                if not isinstance(entity, NodeId):
                    raise CypherTypeError("labels can only be removed from nodes")
                for label in item.labels:
                    transaction.remove_label(entity, label)
            else:
                raise CypherSemanticError("unknown REMOVE item %r" % (item,))
    return table


# ---------------------------------------------------------------------------
# MERGE
# ---------------------------------------------------------------------------

def _apply_merge(clause, table, state, transaction):
    evaluator = state.evaluator()
    validate_merge_pattern(clause.pattern)
    new_fields = [
        name
        for name in pt.free_variables((clause.pattern,))
        if name not in table.fields
    ]
    rows = []
    for record in table.rows:
        matches = match_pattern_tuple(
            (clause.pattern,), state.graph, record, evaluator, state.morphism
        )
        if matches:
            for bindings in matches:
                row = dict(record)
                row.update(bindings)
                rows.append(row)
            if clause.on_match:
                _apply_set(
                    clause.on_match, table, state, transaction,
                    rows=rows[-len(matches):],
                )
        else:
            row = dict(record)
            _merge_create(clause.pattern, row, transaction, evaluator)
            rows.append(row)
            if clause.on_create:
                _apply_set(
                    clause.on_create, table, state, transaction, rows=[row]
                )
    return Table(table.fields + tuple(new_fields), rows)


def _merge_create(path_pattern, row, transaction, evaluator):
    """Create the whole pattern; bound endpoints are reused as-is."""
    elements = path_pattern.elements
    nodes = []
    rels = []
    current = _merge_node(elements[0], row, transaction, evaluator)
    nodes.append(current)
    for index in range(1, len(elements), 2):
        rho = elements[index]
        chi = elements[index + 1]
        next_node = _merge_node(chi, row, transaction, evaluator)
        properties = {
            key: evaluator.evaluate(value, row) for key, value in rho.properties
        }
        if rho.direction == pt.RIGHT_TO_LEFT:
            rel = transaction.create_relationship(
                next_node, current, rho.types[0], properties
            )
        else:
            # Undirected MERGE creates left-to-right, as Neo4j does.
            rel = transaction.create_relationship(
                current, next_node, rho.types[0], properties
            )
        if rho.name is not None and rho.name not in row:
            row[rho.name] = rel
        rels.append(rel)
        nodes.append(next_node)
        current = next_node
    if path_pattern.name is not None:
        row[path_pattern.name] = Path(tuple(nodes), tuple(rels))


def _merge_node(chi, row, transaction, evaluator):
    if chi.name is not None and chi.name in row:
        value = row[chi.name]
        if not isinstance(value, NodeId):
            raise CypherTypeError(
                "MERGE through %r: bound to %r" % (chi.name, value)
            )
        return value
    properties = {
        key: evaluator.evaluate(value, row) for key, value in chi.properties
    }
    node = transaction.create_node(chi.labels, properties)
    if chi.name is not None:
        row[chi.name] = node
    return node


_DISPATCH = {
    cl.Create: _apply_create,
    cl.Delete: _apply_delete,
    cl.SetClause: _apply_set_clause,
    cl.RemoveClause: _apply_remove,
    cl.Merge: _apply_merge,
}
