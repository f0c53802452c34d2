"""Sargable-predicate extraction for index access paths.

"Sargable" (search-argument-able) conjuncts are the WHERE / inline-map
predicates an index can serve as an *access path*: equality, ``IN``,
half-open or closed ranges, and string prefixes over ``variable.key``.
This module turns a WHERE tree into per-variable :class:`Sargable`
candidates; :mod:`repro.planner.planning` then asks the cost model
whether entering through a ``(label, key)`` index beats the label scan.

An index scan is sound because it never *under*-approximates, and it
is exact wherever the store promises exactness (see
:mod:`repro.graph.store`): a range probe within one comparable segment
returns exactly the nodes the comparison is true of.  So the residual
Filter is the WHERE minus the conjuncts the chosen scan answers exactly
(:func:`served_conjuncts`, :func:`residual`): the ``low``/``high``
conjuncts of a single-key range scan, and ``IS NOT NULL`` on any of an
index's key columns (a node has an entry only when every key column is
non-null).  Everything else — equality and ``IN`` probes (list and map
values over-approximate), ``STARTS WITH``, composite ranges, a second
bound on the same side — stays in the residual Filter, and the inline
property map stays in the scan's node check.
What pushdown changes is which rows the residual ever sees, so a
conjunct is only extracted, and the surrounding WHERE only accepted,
when skipping the pruned rows cannot suppress an error the reference
path would have raised.  :func:`infallible` is the conservative
allowlist behind that: literals, parameters, variables, property /
label access on them, comparisons, ``IN`` over a list *literal* (any
other container can raise the non-list type error per row), string
predicates, ``IS [NOT] NULL`` and the logical connectives.  Arithmetic (division by
zero), function calls, list indexing, comprehensions and anything else
that can raise per-row keeps the whole WHERE off the index path.  (Two
documented corners remain: an unbound parameter and a type-mismatched
variable subject error at probe time rather than per pruned row — the
same statement-level behaviour a production planner exhibits.)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.ast import expressions as ex
from repro.ast import patterns as pt
from repro.ast.visitor import walk
from repro.graph.reachability import best_covering

#: Inequality operators and their meaning as a (bound, inclusive) pair
#: when the property sits on the *left* (``n.k < e``).
_RANGE_OPERATORS = {"<", "<=", ">", ">="}

#: Flip map for bounds written with the property on the right (``e < n.k``).
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


@dataclass(frozen=True)
class Sargable:
    """One index-servable conjunct over ``variable.key``.

    ``kind`` is ``"eq"`` (probe expression in ``value``), ``"in"``
    (list expression in ``value``), ``"range"`` (``low``/``high``
    expressions with inclusivity flags; one side may be open) or
    ``"prefix"`` (prefix expression in ``value``).  ``size_hint`` is the
    plan-time length of an ``IN`` list literal, when known.
    ``conjuncts`` are the WHERE conjuncts the candidate came from (two
    for a merged range, none for an inline-map entry).
    """

    variable: str
    key: str
    kind: str
    value: Optional[object] = None
    low: Optional[object] = None
    low_inclusive: bool = True
    high: Optional[object] = None
    high_inclusive: bool = True
    size_hint: Optional[int] = None
    conjuncts: tuple = field(default=(), compare=False, repr=False)

    def describe(self):
        if self.kind == "eq":
            return "%s.%s = …" % (self.variable, self.key)
        if self.kind == "in":
            return "%s.%s IN …" % (self.variable, self.key)
        if self.kind == "prefix":
            return "%s.%s STARTS WITH …" % (self.variable, self.key)
        parts = []
        if self.low is not None:
            parts.append("… %s %s.%s" % (
                "<=" if self.low_inclusive else "<", self.variable, self.key
            ))
        if self.high is not None:
            parts.append("%s.%s %s …" % (
                self.variable, self.key,
                "<=" if self.high_inclusive else "<",
            ))
        return " AND ".join(parts) or "%s.%s range" % (self.variable, self.key)

    def probe_expressions(self):
        """Every expression the access path evaluates per driving row."""
        return tuple(
            expression
            for expression in (self.value, self.low, self.high)
            if expression is not None
        )


#: Expression node types that cannot raise at evaluation time (given the
#: documented parameter/variable-subject corners).  Everything else —
#: arithmetic, function calls, indexing, slicing, regex against a
#: non-constant pattern, CASE, comprehensions, pattern predicates —
#: keeps the WHERE off the index path.  ``ex.In`` is deliberately
#: absent: ``x IN e`` raises on a non-list container, so it is only
#: admitted (in :func:`infallible` below) when the container is a list
#: literal — an ``IN $param`` therefore vetoes pushdown of the whole
#: WHERE rather than risk pruning a row whose evaluation would have
#: raised on the reference path.
_INFALLIBLE_NODES = (
    ex.Literal,
    ex.Parameter,
    ex.Variable,
    ex.PropertyAccess,
    ex.MapLiteral,
    ex.ListLiteral,
    ex.Comparison,
    ex.StringPredicate,
    ex.BinaryLogic,
    ex.Not,
    ex.IsNull,
    ex.IsNotNull,
    ex.LabelPredicate,
)

#: Probe expressions are held to a tighter list still: they are
#: evaluated once per driving row *before* any candidate row exists, so
#: they must be simple row-local reads.
_PROBE_NODES = (
    ex.Literal,
    ex.Parameter,
    ex.Variable,
    ex.PropertyAccess,
    ex.ListLiteral,
    ex.MapLiteral,
)


def infallible(expression):
    """True when no node of ``expression`` can raise per row (see above)."""
    for node in walk(expression):
        if isinstance(node, ex.In):
            if not isinstance(node.container, ex.ListLiteral):
                return False  # a non-list container raises per row
        elif not isinstance(node, _INFALLIBLE_NODES):
            return False
    return True


def probe_safe(expression):
    """True when ``expression`` qualifies as an index probe value."""
    return all(isinstance(node, _PROBE_NODES) for node in walk(expression))


def conjuncts_of(predicate):
    """Flatten the top-level AND tree of a WHERE into its conjuncts."""
    if isinstance(predicate, ex.BinaryLogic) and predicate.operator == "AND":
        return conjuncts_of(predicate.left) + conjuncts_of(predicate.right)
    return (predicate,)


def free_variables(expression):
    """Variable names an expression reads (scratch-bound names included).

    Over-approximating the free set is fine here: it only makes the
    planner *reject* a pushdown it might have allowed.
    """
    return {
        node.name for node in walk(expression) if isinstance(node, ex.Variable)
    }


def _property_operand(expression):
    """``(variable, key)`` when the expression is ``variable.key``."""
    if isinstance(expression, ex.PropertyAccess) and isinstance(
        expression.subject, ex.Variable
    ):
        return expression.subject.name, expression.key
    return None


def _extract_one(conjunct):
    """The :class:`Sargable` form of one conjunct, or None."""
    sargable = _sargable_of(conjunct)
    if sargable is None:
        return None
    return replace(sargable, conjuncts=(conjunct,))


def _sargable_of(conjunct):
    if isinstance(conjunct, ex.Comparison):
        if len(conjunct.operands) != 2:
            return None
        operator = conjunct.operators[0]
        left, right = conjunct.operands
        subject = _property_operand(left)
        other = right
        if subject is None:
            subject = _property_operand(right)
            other = left
            operator = _FLIPPED.get(operator, operator)
        if subject is None or not probe_safe(other):
            return None
        variable, key = subject
        if operator == "=":
            return Sargable(variable, key, "eq", value=other)
        if operator in _RANGE_OPERATORS:
            if operator in ("<", "<="):
                return Sargable(
                    variable, key, "range",
                    high=other, high_inclusive=operator == "<=",
                )
            return Sargable(
                variable, key, "range",
                low=other, low_inclusive=operator == ">=",
            )
        return None
    if isinstance(conjunct, ex.In):
        subject = _property_operand(conjunct.item)
        if subject is None or not probe_safe(conjunct.container):
            return None
        variable, key = subject
        size = (
            len(conjunct.container.items)
            if isinstance(conjunct.container, ex.ListLiteral)
            else None
        )
        return Sargable(
            variable, key, "in", value=conjunct.container, size_hint=size
        )
    if (
        isinstance(conjunct, ex.StringPredicate)
        and conjunct.operator == "STARTS WITH"
    ):
        subject = _property_operand(conjunct.left)
        if subject is None or not probe_safe(conjunct.right):
            return None
        variable, key = subject
        return Sargable(variable, key, "prefix", value=conjunct.right)
    return None


def _merge_ranges(sargables):
    """Fuse one lower and one upper bound per key into a closed range.

    Only the first bound of each side participates (bounds are
    expressions, so the planner cannot compare them); leftover range
    conjuncts simply stay in the residual filter like everything else.
    """
    merged = []
    open_ranges = {}  # (variable, key) -> index into merged
    for sargable in sargables:
        if sargable.kind != "range":
            merged.append(sargable)
            continue
        slot = (sargable.variable, sargable.key)
        position = open_ranges.get(slot)
        if position is None:
            open_ranges[slot] = len(merged)
            merged.append(sargable)
            continue
        existing = merged[position]
        if existing.low is None and sargable.low is not None:
            merged[position] = replace(
                existing, low=sargable.low,
                low_inclusive=sargable.low_inclusive,
                conjuncts=existing.conjuncts + sargable.conjuncts,
            )
        elif existing.high is None and sargable.high is not None:
            merged[position] = replace(
                existing, high=sargable.high,
                high_inclusive=sargable.high_inclusive,
                conjuncts=existing.conjuncts + sargable.conjuncts,
            )
        # Both sides already bound: the extra conjunct stays residual.
    return merged


def collect_sargable(predicate):
    """``{variable: [Sargable, ...]}`` for one WHERE tree.

    Empty when the WHERE as a whole fails the :func:`infallible` gate —
    pruning rows must not suppress errors the reference path raises.
    """
    if predicate is None or not infallible(predicate):
        return {}
    extracted = []
    for conjunct in conjuncts_of(predicate):
        sargable = _extract_one(conjunct)
        if sargable is not None:
            extracted.append(sargable)
    by_variable = {}
    for sargable in _merge_ranges(extracted):
        by_variable.setdefault(sargable.variable, []).append(sargable)
    return by_variable


def collect_witnesses(predicate):
    """``{variable: {keys proven non-null}}`` for one WHERE tree.

    A composite prefix probe **under-approximates**: a node whose deeper
    key column is null has no index entry at all, so probing only a
    prefix would silently drop rows the predicate accepts.  The planner
    therefore only uses a composite index when every non-probed column
    is *witnessed* non-null by the WHERE itself.  Null-rejecting
    witnesses are the extracted sargable shapes (``=``, ``IN``, ranges
    and ``STARTS WITH`` are never true of null) and top-level
    ``IS NOT NULL`` conjuncts — all gated on the same :func:`infallible`
    check as extraction, because relying on a conjunct to prune rows
    must not suppress errors the reference path would raise.
    """
    if predicate is None or not infallible(predicate):
        return {}
    witnesses = {}
    for conjunct in conjuncts_of(predicate):
        if isinstance(conjunct, ex.IsNotNull):
            subject = _property_operand(conjunct.operand)
        else:
            sargable = _extract_one(conjunct)
            subject = (
                (sargable.variable, sargable.key)
                if sargable is not None else None
            )
        if subject is not None:
            witnesses.setdefault(subject[0], set()).add(subject[1])
    return witnesses


def served_conjuncts(predicate, variable, keys, low=None, high=None):
    """The conjuncts of ``predicate`` an index scan answers exactly.

    The scan binds ``variable`` from an index over ``keys``; ``low`` /
    ``high`` are its range bounds (None for an equality scan).  Served
    are ``variable.k IS NOT NULL`` for every ``k`` in ``keys`` — an
    index entry exists only when every key column is non-null — and,
    for a single-key range scan, the conjuncts its merged range came
    from, recognised by the scan carrying that range's very bound
    expressions.  Nothing is served from a WHERE that fails
    :func:`infallible`.
    """
    if predicate is None or not infallible(predicate):
        return []
    columns = {(variable, key) for key in keys}
    served = [
        conjunct
        for conjunct in conjuncts_of(predicate)
        if isinstance(conjunct, ex.IsNotNull)
        and _property_operand(conjunct.operand) in columns
    ]
    if len(keys) == 1 and (low is not None or high is not None):
        for sargable in collect_sargable(predicate).get(variable, ()):
            if (
                sargable.kind == "range"
                and sargable.key == keys[0]
                and sargable.low is low
                and sargable.high is high
            ):
                served.extend(sargable.conjuncts)
    return served


def residual(predicate, served):
    """``predicate`` without the ``served`` conjuncts (by identity).

    The predicate itself when nothing is served, None when nothing is
    left, else the AND of the remaining conjuncts in their order.
    """
    served_ids = {id(conjunct) for conjunct in served}
    if not served_ids:
        return predicate
    kept = [
        conjunct for conjunct in conjuncts_of(predicate)
        if id(conjunct) not in served_ids
    ]
    if not kept:
        return None
    remaining = kept[0]
    for conjunct in kept[1:]:
        remaining = ex.BinaryLogic("AND", remaining, conjunct)
    return remaining


@dataclass(frozen=True)
class CompositeCandidate:
    """A usable probe over one index's key columns.

    ``equalities`` holds one ``"eq"`` sargable per consumed prefix
    column (in key order), or the one ``"in"`` of a single-key index;
    ``bound`` optionally adds one range / ``STARTS WITH`` sargable on
    the next column.  Every column beyond the probe was witnessed
    non-null, so the index's entry set covers exactly the rows the
    predicates admit (see :func:`collect_witnesses`).
    """

    keys: tuple
    equalities: tuple
    bound: Optional[Sargable] = None

    @property
    def consumed(self):
        return len(self.equalities) + (1 if self.bound is not None else 0)

    def probe_expressions(self):
        expressions = [s.value for s in self.equalities]
        if self.bound is not None:
            expressions.extend(self.bound.probe_expressions())
        return tuple(expressions)

    def describe(self):
        parts = [s.describe() for s in self.equalities]
        if self.bound is not None:
            parts.append(self.bound.describe())
        return " AND ".join(parts)


def match_composite(keys, sargables, witnessed):
    """The longest usable probe of one composite index, or None.

    Greedy longest-prefix matching: consume an equality sargable per
    key column while one exists, then optionally one range / prefix
    sargable on the following column (``IN`` stays single-key only —
    list probes over a composite prefix explode into per-element
    probes, which the cost model has no basis to price).  Usable only
    when every *unconsumed* column appears in ``witnessed`` (the
    consumed ones witness themselves).
    """
    by_key = {}
    for sargable in sargables:
        by_key.setdefault(sargable.key, []).append(sargable)
    equalities = []
    bound = None
    for key in keys:
        here = by_key.get(key, ())
        equality = next((s for s in here if s.kind == "eq"), None)
        if equality is not None:
            equalities.append(equality)
            continue
        bound = next(
            (s for s in here if s.kind in ("range", "prefix")), None
        )
        break
    if not equalities and bound is None:
        return None
    consumed = len(equalities) + (1 if bound is not None else 0)
    for key in keys[consumed:]:
        if key not in witnessed:
            return None
    return CompositeCandidate(
        keys=tuple(keys), equalities=tuple(equalities), bound=bound
    )


@dataclass(frozen=True)
class ReachabilityCandidate:
    """A declared reachability index that can prune one var-length hop.

    ``index_types`` is the declared type set (sorted tuple; None = the
    all-types index) and ``forward`` records the traversal direction the
    probe prunes along: True for ``(a)-[*]->(b)`` walks (prune nodes
    that cannot reach the bound target), False for ``(a)<-[*]-(b)``
    (prune nodes the target cannot reach).
    """

    index_types: Optional[tuple]
    forward: bool

    def describe(self):
        types = (
            "<any>" if self.index_types is None
            else ":" + "|".join(self.index_types)
        )
        return "reach(%s, %s)" % (
            types, "forward" if self.forward else "reverse"
        )


def reachability_candidate(statistics, rel_pattern, into, high):
    """The index probe serving one var-length hop, or None.

    The gate mirrors the probe's soundness conditions: the far endpoint
    must already be bound (``into`` — otherwise there is no target to
    certify against), the pattern must be directed (the indexes store
    directed condensations), and a declared type set must *cover* the
    pattern's types — equal, a superset, or the all-types index, all of
    which only over-approximate and the walk itself is the residual
    verification.

    A finite upper bound never breaks soundness — the compiled probe
    runs the same capped DFS as the plain walk and the index only prunes
    subtrees that cannot reach the target *at all* (a fortiori not
    within ``high`` hops) — so bounded patterns are a pure cost call.
    The probe wins when the cap barely constrains enumeration: once
    ``high`` exceeds the index's condensation diameter (the longest
    component-DAG path), most reachable pairs sit within the permitted
    depth and the bound prunes next to nothing, so the index does the
    pruning instead.  At or below the diameter the cap itself is the
    effective pruner and the plain walk stays.
    """
    if not into:
        return None
    direction = rel_pattern.direction
    if direction == pt.UNDIRECTED:
        return None
    available = {
        None if key is None else frozenset(key): key
        for key in statistics.reachability_index_types()
    }
    if not available:
        return None
    chosen = best_covering(rel_pattern.resolved_types, available)
    if chosen is best_covering.MISS:
        return None
    index_key = available[chosen]
    if high is not None:
        facts = statistics.reachability_indexes.get(index_key) or {}
        diameter = facts.get("condensation_diameter")
        if diameter is None or high <= diameter:
            return None
    return ReachabilityCandidate(
        index_types=index_key,
        forward=direction == pt.LEFT_TO_RIGHT,
    )


def inline_sargables(node_pattern, variable):
    """Equality sargables from a node pattern's inline property map.

    ``(n:L {k: expr})`` is ``n.k = expr`` in disguise; each map entry
    whose value expression passes the probe gate is an equality
    candidate (``variable`` is the planner's name for the pattern, which
    covers anonymous nodes too).  The scan's node check re-verifies
    every entry, so the same over-approximation rules apply.
    """
    sargables = []
    for key, expression in node_pattern.properties:
        if probe_safe(expression):
            sargables.append(Sargable(variable, key, "eq", value=expression))
    return tuple(sargables)
