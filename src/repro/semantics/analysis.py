"""Static semantic analysis: variable scoping and aggregation placement.

The paper's semantics assumes well-formed queries (expressions only use
names the assignment defines); real implementations enforce this before
execution.  This pass walks the clause sequence tracking the variables in
scope, and rejects:

* references to variables not in scope (including uses after a WITH that
  did not project them — the Section 3 walkthrough makes a point of ``s``
  going out of scope);
* aggregate functions outside WITH/RETURN projection items;
* nested aggregates;
* re-declaration conflicts (UNWIND alias or CREATE relationship variable
  already bound).

The same walk says whether the statement updates the graph, which is
what the engine routes and guards on.

Pattern property expressions are checked against the *driving* scope, per
the paper's definition (they are evaluated under the assignment u, not
under bindings introduced by the same pattern).
"""

from __future__ import annotations

from repro.ast import clauses as cl
from repro.ast import expressions as ex
from repro.ast import queries as qu
from repro.ast.expressions import contains_aggregate
from repro.ast.patterns import free_variables
from repro.ast.visitor import children
from repro.exceptions import CypherSemanticError


#: The clauses that mutate the graph.
_UPDATING_CLAUSES = (cl.Create, cl.Delete, cl.SetClause, cl.RemoveClause, cl.Merge)


def check_query(query):
    """Validate a parsed query; True if any of its clauses updates.

    Raises CypherSemanticError on violations.
    """
    if isinstance(query, qu.UnionQuery):
        left = check_query(query.left)
        return check_query(query.right) or left
    if not isinstance(query, qu.SingleQuery):
        raise CypherSemanticError("cannot analyse %r" % (query,))
    scope = set()
    updating = False
    for clause in query.clauses:
        scope = _check_clause(clause, scope)
        updating = updating or isinstance(clause, _UPDATING_CLAUSES)
    return updating


# ---------------------------------------------------------------------------
# Clause-level scope transitions
# ---------------------------------------------------------------------------

def _check_clause(clause, scope):
    if isinstance(clause, cl.Match):
        pattern_names = set(free_variables(clause.pattern))
        _check_pattern_expressions(clause.pattern, scope)
        inner = scope | pattern_names
        if clause.where is not None:
            _check_expression(clause.where, inner, allow_aggregates=False)
        return inner
    if isinstance(clause, (cl.With, cl.Return)):
        projection = (
            clause.projection if isinstance(clause, (cl.With, cl.Return)) else None
        )
        new_scope = _check_projection(projection, scope)
        if isinstance(clause, cl.With) and clause.where is not None:
            _check_expression(clause.where, new_scope, allow_aggregates=False)
        return new_scope
    if isinstance(clause, cl.Unwind):
        _check_expression(clause.expression, scope, allow_aggregates=False)
        if clause.alias in scope:
            raise CypherSemanticError(
                "UNWIND alias %r is already in scope" % clause.alias
            )
        return scope | {clause.alias}
    if isinstance(clause, cl.Create):
        _check_pattern_expressions(clause.pattern, scope)
        for path in clause.pattern:
            for rel in path.relationship_patterns:
                if rel.name is not None and rel.name in scope:
                    raise CypherSemanticError(
                        "relationship variable %r already bound" % rel.name
                    )
        return scope | set(free_variables(clause.pattern))
    if isinstance(clause, cl.Delete):
        for expression in clause.expressions:
            _check_expression(expression, scope, allow_aggregates=False)
        return scope
    if isinstance(clause, cl.SetClause):
        _check_set_items(clause.items, scope)
        return scope
    if isinstance(clause, cl.RemoveClause):
        for item in clause.items:
            if isinstance(item, cl.RemoveProperty):
                _check_expression(item.subject, scope, allow_aggregates=False)
            elif item.name not in scope:
                raise CypherSemanticError(
                    "variable not in scope: %s" % item.name
                )
        return scope
    if isinstance(clause, cl.Merge):
        _check_pattern_expressions((clause.pattern,), scope)
        merged = scope | set(free_variables((clause.pattern,)))
        _check_set_items(clause.on_create, merged)
        _check_set_items(clause.on_match, merged)
        return merged
    if isinstance(clause, cl.FromGraph):
        return scope
    if isinstance(clause, cl.ReturnGraph):
        if clause.pattern is not None:
            _check_pattern_expressions((clause.pattern,), scope)
        return scope
    raise CypherSemanticError("cannot analyse clause %r" % (clause,))


def _check_set_items(items, scope):
    for item in items:
        if isinstance(item, cl.SetProperty):
            _check_expression(item.subject, scope, allow_aggregates=False)
            _check_expression(item.value, scope, allow_aggregates=False)
        elif isinstance(item, cl.SetVariable):
            if item.name not in scope:
                raise CypherSemanticError(
                    "variable not in scope: %s" % item.name
                )
            _check_expression(item.value, scope, allow_aggregates=False)
        elif isinstance(item, cl.SetLabels):
            if item.name not in scope:
                raise CypherSemanticError(
                    "variable not in scope: %s" % item.name
                )


def _check_projection(projection, scope):
    items = list(projection.items)
    if projection.star and not scope and not items:
        raise CypherSemanticError(
            "RETURN * is only defined on a table with at least one field"
        )
    new_scope = set(scope) if projection.star else set()
    for item in items:
        _check_expression(item.expression, scope, allow_aggregates=True)
        if item.alias is not None:
            new_scope.add(item.alias)
        elif isinstance(item.expression, ex.Variable):
            new_scope.add(item.expression.name)
        else:
            from repro.ast.printer import print_expression

            new_scope.add(print_expression(item.expression))
    # ORDER BY sees both the projected names and the driving variables
    # (unless DISTINCT/aggregation restricts it — checked at runtime).
    order_scope = scope | new_scope
    for sort in projection.order_by:
        _check_expression(sort.expression, order_scope, allow_aggregates=True)
    for bound in (projection.skip, projection.limit):
        if bound is not None:
            _check_expression(bound, set(), allow_aggregates=False)
    return new_scope


# ---------------------------------------------------------------------------
# Expression-level checks (local scopes, aggregate placement)
# ---------------------------------------------------------------------------

def _check_pattern_expressions(patterns, scope):
    """Property maps inside patterns see only the driving scope."""
    for path in patterns if isinstance(patterns, (list, tuple)) else (patterns,):
        for element in path.elements:
            for _key, expression in element.properties:
                _check_expression(expression, scope, allow_aggregates=False)


def _check_expression(expression, scope, allow_aggregates, inside_aggregate=False):
    if isinstance(expression, ex.Variable):
        if expression.name not in scope:
            raise CypherSemanticError(
                "variable not in scope: %s" % expression.name
            )
        return
    if isinstance(expression, (ex.CountStar,)) or (
        isinstance(expression, ex.FunctionCall)
        and expression.name in ex.AGGREGATE_FUNCTION_NAMES
    ):
        if not allow_aggregates:
            raise CypherSemanticError(
                "aggregates are only allowed in WITH/RETURN projections"
            )
        if inside_aggregate:
            raise CypherSemanticError("aggregations cannot be nested")
        if isinstance(expression, ex.FunctionCall):
            for argument in expression.args:
                _check_expression(
                    argument, scope, allow_aggregates, inside_aggregate=True
                )
        return
    if isinstance(expression, ex.ListComprehension):
        _check_expression(expression.source, scope, allow_aggregates, inside_aggregate)
        inner = scope | {expression.variable}
        if expression.where is not None:
            _check_expression(expression.where, inner, False)
        if expression.projection is not None:
            _check_expression(expression.projection, inner, False)
        return
    if isinstance(expression, ex.QuantifiedPredicate):
        _check_expression(expression.source, scope, allow_aggregates, inside_aggregate)
        _check_expression(
            expression.predicate, scope | {expression.variable}, False
        )
        return
    if isinstance(expression, ex.Reduce):
        _check_expression(expression.init, scope, allow_aggregates, inside_aggregate)
        _check_expression(expression.source, scope, allow_aggregates, inside_aggregate)
        _check_expression(
            expression.expression,
            scope | {expression.accumulator, expression.variable},
            False,
        )
        return
    if isinstance(expression, ex.PatternComprehension):
        local = scope | set(free_variables((expression.pattern,)))
        _check_pattern_expressions((expression.pattern,), scope)
        if expression.where is not None:
            _check_expression(expression.where, local, False)
        _check_expression(expression.projection, local, False)
        return
    if isinstance(expression, (ex.PatternPredicate,)):
        _check_pattern_expressions((expression.pattern,), scope)
        return
    if isinstance(expression, ex.ExistsSubquery):
        _check_pattern_expressions(expression.pattern, scope)
        if expression.where is not None:
            local = scope | set(free_variables(expression.pattern))
            _check_expression(expression.where, local, False)
        return
    for child in children(expression):
        _check_expression(child, scope, allow_aggregates, inside_aggregate)
