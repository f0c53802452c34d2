"""Logical plan operators.

The algebra mirrors the paper's description of Neo4j's execution plans:
"largely the same operators as in relational database engines and an
additional operator called Expand", which "utilizes the fact that the
data representation contains direct references from each node via its
edges to the related nodes".

Every operator records its *visible* output fields; rows flowing through
the physical pipeline may additionally carry hidden bindings (names
prefixed with ``#``) for anonymous pattern elements, which exist only to
enforce relationship uniqueness and chain continuity and are stripped by
the next projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


class Operator:
    """Base class; concrete operators are dataclasses with a child tree."""

    __slots__ = ()

    def describe(self, indent=0):
        lines = ["  " * indent + self._describe_line()]
        for child in self._children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _describe_line(self):
        return type(self).__name__

    def _children(self):
        return ()


@dataclass(frozen=True)
class Init(Operator):
    """The unit table T(): one empty row (paper Section 4, 'output')."""

    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Init"


@dataclass(frozen=True)
class Argument(Operator):
    """Yields the per-invocation argument row (inside Optional subplans)."""

    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Argument({})".format(", ".join(self.fields))


@dataclass(frozen=True)
class AllNodesScan(Operator):
    """Bind every node of the graph (nested-loop over the input)."""

    child: Operator
    variable: str
    node_pattern: object  # patterns.NodePattern (labels/props checked inline)
    fields: Tuple[str, ...] = ()
    estimated_rows: Optional[float] = None

    def _describe_line(self):
        return "AllNodesScan({})".format(self.variable)

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class NodeByLabelScan(Operator):
    """Bind nodes from the label index — the planner's selective entry."""

    child: Operator
    variable: str
    label: str
    node_pattern: object
    fields: Tuple[str, ...] = ()
    estimated_rows: Optional[float] = None

    def _describe_line(self):
        return "NodeByLabelScan({}:{})".format(self.variable, self.label)

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class IndexScan(Operator):
    """Bind nodes from a property index: ``=`` or ``IN``.

    The cost model picks this over :class:`NodeByLabelScan` + Filter
    when the NDV-backed estimate says the index prunes more.
    ``index_keys`` is the serving index's declared key tuple (a
    single-key index is the one-column case) and ``probes`` holds the
    sought-value expressions of its leading columns, evaluated once per
    driving row (so a probe over an outer variable is an index
    nested-loop join); fewer probes than keys is a prefix probe.  With
    ``many`` the one probe must evaluate to a list and the scan probes
    each element on the first column (``IN``).  The scan
    **over-approximates** (list and map probes): it returns every node
    whose stored value *may* satisfy the predicate, and the residual
    (the node pattern's property check and the clause's WHERE Filter,
    which keeps every equality conjunct) makes the final call —
    null/type semantics are therefore exactly the label-scan path's.
    Only ``IS NOT NULL`` on a key column leaves the Filter: every
    candidate has an index entry, so every key column non-null.
    """

    child: Operator
    variable: str
    label: str
    index_keys: Tuple[str, ...]
    probes: Tuple[object, ...]  # Expressions, one per consumed column
    node_pattern: object
    many: bool = False
    fields: Tuple[str, ...] = ()
    estimated_rows: Optional[float] = None
    #: ``((key, synthetic field name), …)`` when the scan also serves
    #: projections straight from its stored entry values (covering).
    covered: Tuple[Tuple[str, str], ...] = ()

    def _describe_line(self):
        keys = self.index_keys
        shape = "IN …" if self.many else "= …"
        if len(self.probes) < len(keys):
            shape = "prefix(%d) %s" % (len(self.probes), shape)
        return "IndexScan({}:{}({}) {}{}{})".format(
            self.variable,
            self.label,
            ",".join(keys),
            shape,
            ", covering" if self.covered else "",
            "" if self.estimated_rows is None
            else ", est≈%d rows" % round(self.estimated_rows),
        )

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class IndexRangeScan(Operator):
    """Bind nodes from the index's sorted half: range or prefix probes.

    ``prefix_probes`` are equality probes on the leading columns of
    ``index_keys`` (none on a single-key index); the bounded column is
    ``index_keys[len(prefix_probes)]``.  ``low``/``high`` are bound
    expressions (either may be None for a half-open range); ``prefix``
    serves ``STARTS WITH`` instead.  The scan is **exact**
    (:mod:`repro.graph.store`'s contract), so on a single-key index the
    conjuncts ``low`` and ``high`` came from leave the residual Filter.
    Bounds whose runtime type the sorted structure cannot serve (lists,
    maps, temporals) degrade to the label scan list narrowed to the
    nodes the range is true of, *inside* the operator.  Enumeration is
    index-ordered (value, then node id), identically on the row and
    batch engines.
    """

    child: Operator
    variable: str
    label: str
    index_keys: Tuple[str, ...]
    prefix_probes: Tuple[object, ...]  # Expressions (equality prefix)
    node_pattern: object
    low: Optional[object] = None        # Expression
    low_inclusive: bool = True
    high: Optional[object] = None       # Expression
    high_inclusive: bool = True
    prefix: Optional[object] = None     # Expression (STARTS WITH)
    fields: Tuple[str, ...] = ()
    estimated_rows: Optional[float] = None
    #: Covering projection slots, as on :class:`IndexScan`.
    covered: Tuple[Tuple[str, str], ...] = ()

    def _describe_line(self):
        if self.prefix is not None:
            shape = "STARTS WITH …"
        else:
            parts = []
            if self.low is not None:
                parts.append(">%s …" % ("=" if self.low_inclusive else ""))
            if self.high is not None:
                parts.append("<%s …" % ("=" if self.high_inclusive else ""))
            shape = " AND ".join(parts)
        if self.prefix_probes:
            shape = "eq(%d) %s" % (len(self.prefix_probes), shape)
        return "IndexRangeScan({}:{}({}) {}{}{})".format(
            self.variable,
            self.label,
            ",".join(self.index_keys),
            shape,
            ", covering" if self.covered else "",
            "" if self.estimated_rows is None
            else ", est≈%d rows" % round(self.estimated_rows),
        )

    def _children(self):
        return (self.child,)


def _bound_text(bound):
    """A plan-time-known bound as ``describe`` shows it."""
    from repro.ast.printer import print_expression

    if hasattr(bound, "value"):  # an ex.Literal
        return repr(bound.value)
    return print_expression(bound)


@dataclass(frozen=True)
class IndexOrderedScan(Operator):
    """Enumerate an index in ORDER BY order: the Sort-deleting scan.

    Emits nodes in the composite index's sorted-half order over the
    columns after an equality prefix — exactly the order a stable
    multi-pass Sort over an id-ordered scan would produce (per-group
    ties come out id-ascending) — so the planner substitutes this scan
    and deletes the Sort.  ``directions`` holds one ascending flag per
    ordered column; optional bounds restrict the first ordered column
    and are **plan-time-known**: a literal, or a lifted literal — the
    parameter the engine put in a literal's place, whose kind is part
    of the plan's cache key, so every bind is an orderable scalar like
    the one the planner peeked at.  Never any other expression: a
    runtime bound could degrade to an unordered label scan inside the
    operator, which would be unsound once the Sort is gone.
    Enumeration is lazy, so a downstream Limit stops the index walk
    early (the fused Top-replacement).
    """

    child: Operator
    variable: str
    label: str
    index_keys: Tuple[str, ...]
    prefix_probes: Tuple[object, ...]  # Expressions (equality prefix)
    directions: Tuple[bool, ...]       # ascending flag per ordered column
    node_pattern: object
    low: Optional[object] = None      # Literal or lifted Parameter
    low_inclusive: bool = True
    high: Optional[object] = None     # Literal or lifted Parameter
    high_inclusive: bool = True
    prefix: Optional[object] = None   # STARTS WITH bound, likewise
    covered: Tuple[Tuple[str, str], ...] = ()
    fields: Tuple[str, ...] = ()
    estimated_rows: Optional[float] = None

    def _describe_line(self):
        consumed = len(self.prefix_probes)
        ordered = self.index_keys[consumed:consumed + len(self.directions)]
        order = ", ".join(
            "%s %s" % (key, "ASC" if ascending else "DESC")
            for key, ascending in zip(ordered, self.directions)
        )
        extras = []
        if consumed:
            extras.append("eq(%d)" % consumed)
        if self.low is not None or self.high is not None:
            bounds = []
            if self.low is not None:
                bounds.append(">%s %s" % (
                    "=" if self.low_inclusive else "", _bound_text(self.low),
                ))
            if self.high is not None:
                bounds.append("<%s %s" % (
                    "=" if self.high_inclusive else "", _bound_text(self.high),
                ))
            extras.append(" AND ".join(bounds))
        if self.prefix is not None:
            extras.append("STARTS WITH %s" % _bound_text(self.prefix))
        if self.covered:
            extras.append("covering")
        return "IndexOrderedScan({}:{}({}) order by {}{}{})".format(
            self.variable,
            self.label,
            ",".join(self.index_keys),
            order,
            ("".join(", " + extra for extra in extras)),
            "" if self.estimated_rows is None
            else ", est≈%d rows" % round(self.estimated_rows),
        )

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class NodeCheck(Operator):
    """Verify an already-bound variable against a node pattern."""

    child: Operator
    variable: str
    node_pattern: object
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "NodeCheck({})".format(self.variable)

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class Expand(Operator):
    """The paper's Expand: follow one relationship from a bound node.

    ``into`` distinguishes ExpandAll (bind a fresh target variable) from
    ExpandInto (target already bound; verify we arrived there).
    ``unique_with`` lists the row fields holding relationships bound
    earlier in the same MATCH (relationship-uniqueness morphisms);
    ``unique_nodes`` lists the current chain's earlier node variables and
    ``unique_segments`` its earlier variable-length segments as
    ``(from_variable, rel_variable)`` pairs — under node isomorphism the
    segment's unbound intermediate nodes also forbid reuse.  All three
    are interpreted by the morphism's
    :class:`~repro.semantics.morphism.UniquenessKernel`.
    """

    child: Operator
    from_variable: str
    to_variable: Optional[str]
    rel_variable: Optional[str]
    rel_pattern: object      # patterns.RelationshipPattern (rigid, length 1)
    node_pattern: object     # target patterns.NodePattern
    into: bool = False
    unique_with: Tuple[str, ...] = ()
    unique_nodes: Tuple[str, ...] = ()
    unique_segments: Tuple[Tuple[str, str], ...] = ()
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        kind = "Into" if self.into else "All"
        types = "|".join(self.rel_pattern.types)
        return "Expand{}({})-[{}{}]-({})".format(
            kind,
            self.from_variable,
            self.rel_variable or "",
            ":" + types if types else "",
            self.to_variable or "?",
        )

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class VarLengthExpand(Operator):
    """Expand a variable-length relationship pattern (``*m..n``)."""

    child: Operator
    from_variable: str
    to_variable: Optional[str]
    rel_variable: Optional[str]
    rel_pattern: object
    node_pattern: object
    low: int = 1
    high: Optional[int] = None
    into: bool = False
    unique_with: Tuple[str, ...] = ()
    unique_nodes: Tuple[str, ...] = ()
    unique_segments: Tuple[Tuple[str, str], ...] = ()
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        types = "|".join(self.rel_pattern.types)
        bound = "{}..{}".format(self.low, self.high if self.high is not None else "")
        return "VarLengthExpand({})-[{}{}*{}]-({})".format(
            self.from_variable,
            self.rel_variable or "",
            ":" + types if types else "",
            bound,
            self.to_variable or "?",
        )

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class ReachabilityProbe(VarLengthExpand):
    """A VarLengthExpand pruned by a reachability index.

    Emission semantics are *identical* to the parent operator — every
    walk that ends at the bound target, in the same DFS order — because
    the index only certifies which continuations can never reach the
    target (the walk itself remains the residual bound/uniqueness/
    property verification).  ``index_types`` names the declared type set
    serving the probe (a sorted tuple, or None for the all-types index);
    ``forward`` is the pruning direction (see
    :class:`repro.planner.access.ReachabilityCandidate`).  Both engines
    fall back to the plain walk when the executing graph (e.g. a
    snapshot view) does not expose the index.
    """

    index_types: object = None
    forward: bool = True
    estimated_rows: object = None

    def _describe_line(self):
        types = "|".join(self.rel_pattern.types)
        bound = "{}..{}".format(
            self.low, self.high if self.high is not None else ""
        )
        index = (
            "<any>" if self.index_types is None
            else ":" + "|".join(self.index_types)
        )
        return (
            "ReachabilityProbe({})-[{}{}*{}]-({}) via reach({}, {})".format(
                self.from_variable,
                self.rel_variable or "",
                ":" + types if types else "",
                bound,
                self.to_variable or "?",
                index,
                "forward" if self.forward else "reverse",
            )
        )


@dataclass(frozen=True)
class ProjectPath(Operator):
    """Assemble a named path (paper Section 4.1) from a matched chain.

    Placed after the chain's scans/expands; reads the element bindings in
    traversal order and binds a :class:`~repro.values.path.Path` value.
    ``steps`` holds one ``(rel_variable, node_variable, var_length)``
    triple per relationship pattern; a variable-length step carries a
    list of relationships whose intermediate nodes are reconstructed by
    walking the adjacency (each traversed relationship determines its far
    endpoint).  ``flip`` marks chains the planner walked from the other
    end: the assembled path is reversed back into pattern order.
    """

    child: Operator
    variable: str
    start_variable: str
    steps: Tuple[Tuple[str, str, bool], ...]
    flip: bool = False
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "ProjectPath({}{})".format(
            self.variable, " flipped" if self.flip else ""
        )

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class Filter(Operator):
    """Keep rows whose predicate evaluates to exactly true."""

    child: Operator
    predicate: object  # Expression
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        from repro.ast.printer import print_expression

        return "Filter({})".format(print_expression(self.predicate))

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class ExtendedProject(Operator):
    """Evaluate projection items, keeping the input bindings alongside.

    Keeping the inputs lets a following Sort see both the aliases and the
    pre-projection variables (``ORDER BY`` may use either); a Strip node
    then reduces rows to the projection's own fields.
    """

    child: Operator
    items: Tuple[Tuple[str, object], ...]  # (output name, Expression)
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Project({})".format(", ".join(name for name, _ in self.items))

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class Strip(Operator):
    """Reduce every row to exactly the given fields (scope boundary)."""

    child: Operator
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Strip({})".format(", ".join(self.fields))

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class Distinct(Operator):
    """ε over the visible fields."""

    child: Operator
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Distinct({})".format(", ".join(self.fields))

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class Aggregate(Operator):
    """Hash aggregation: group by the non-aggregating items (Section 3)."""

    child: Operator
    grouping: Tuple[Tuple[str, object], ...]    # (name, Expression)
    aggregates: Tuple[Tuple[str, object], ...]  # (name, Expression w/ aggs)
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Aggregate(group=[{}], aggregates=[{}])".format(
            ", ".join(name for name, _ in self.grouping),
            ", ".join(name for name, _ in self.aggregates),
        )

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class Sort(Operator):
    child: Operator
    sort_items: Tuple[object, ...]  # clauses.SortItem
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        from repro.ast.printer import print_expression

        keys = ", ".join(
            print_expression(item.expression) + ("" if item.ascending else " DESC")
            for item in self.sort_items
        )
        return "Sort({})".format(keys)

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class Top(Operator):
    """Fused ``ORDER BY … [SKIP s] LIMIT k``: a bounded top-k heap.

    Planned in place of :class:`Sort` whenever the projection also
    carries a LIMIT: instead of materialising and sorting the whole
    input, execution keeps a heap of the best ``limit (+ skip)`` rows
    seen so far and emits them in sort order.  The downstream Skip/Limit
    operators still run (they validate their counts and slice), so the
    observable semantics — including the error for a negative LIMIT —
    are exactly Sort + Skip + Limit.
    """

    child: Operator
    sort_items: Tuple[object, ...]  # clauses.SortItem
    limit: object                   # Expression (row-independent)
    skip: Optional[object] = None   # Expression or None
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        from repro.ast.printer import print_expression

        keys = ", ".join(
            print_expression(item.expression)
            + ("" if item.ascending else " DESC")
            for item in self.sort_items
        )
        return "Top({}{})".format(keys, ", +skip" if self.skip is not None else "")

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class Skip(Operator):
    child: Operator
    count: object  # Expression
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Skip"

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class Limit(Operator):
    child: Operator
    count: object  # Expression
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Limit"

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class Unwind(Operator):
    child: Operator
    expression: object
    alias: str
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Unwind(... AS {})".format(self.alias)

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class OptionalApply(Operator):
    """OPTIONAL MATCH: run the inner plan per row; pad with nulls if empty."""

    child: Operator
    inner: Operator          # leaf is Argument
    pad_names: Tuple[str, ...] = ()
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Optional(pad=[{}])".format(", ".join(self.pad_names))

    def _children(self):
        return (self.child, self.inner)


@dataclass(frozen=True)
class Eager(Operator):
    """Barrier: fully materialise the child before yielding anything.

    Cypher's snapshot semantics — a clause's writes must not be visible
    to that clause's own reads — is trivially satisfied by the reference
    interpreter (it materialises every driving table), but the slotted
    pipeline streams rows lazily.  The planner therefore places an Eager
    in front of every updating operator, so the scans and expands
    upstream finish reading the pre-clause snapshot before the first
    write lands.  (The write operators additionally settle *all* their
    writes before emitting rows, acting as the downstream half of the
    same barrier.)
    """

    child: Operator
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Eager"

    def _children(self):
        return (self.child,)


def _pattern_names(patterns):
    """The visible variables a pattern tuple binds, for describe lines."""
    from repro.ast.patterns import free_variables

    return ", ".join(free_variables(patterns))


@dataclass(frozen=True)
class CreatePattern(Operator):
    """Instantiate rigid CREATE patterns once per driving row."""

    child: Operator
    patterns: Tuple[object, ...]  # patterns.PathPattern (validated rigid)
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Create({})".format(_pattern_names(self.patterns))

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class MergePattern(Operator):
    """MERGE: per row, bind every match of ``inner`` or create ``pattern``.

    ``inner`` is a compiled match subplan over the merge pattern (leaf
    :class:`Argument`), exactly like :class:`OptionalApply`'s inner —
    it re-reads the live store per driving row, so a MERGE observes the
    rows an earlier row of the same clause created (Neo4j's documented
    behaviour).  ``on_create`` / ``on_match`` carry the SET items.
    """

    child: Operator
    pattern: object           # patterns.PathPattern (validated rigid)
    inner: Operator
    on_create: Tuple[object, ...] = ()
    on_match: Tuple[object, ...] = ()
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Merge({})".format(_pattern_names((self.pattern,)))

    def _children(self):
        return (self.child, self.inner)


def _set_item_names(items):
    from repro.ast import clauses as cl
    from repro.ast.printer import print_expression

    parts = []
    for item in items:
        if isinstance(item, cl.SetProperty):
            parts.append(
                "%s.%s" % (print_expression(item.subject), item.key)
            )
        elif isinstance(item, cl.SetVariable):
            parts.append("%s %s= ..." % (item.name, "+" if item.merge else ""))
        elif isinstance(item, cl.SetLabels):
            parts.append(item.name + "".join(":" + l for l in item.labels))
        elif isinstance(item, cl.RemoveProperty):
            parts.append(
                "%s.%s" % (print_expression(item.subject), item.key)
            )
        elif isinstance(item, cl.RemoveLabels):
            parts.append(item.name + "".join(":" + l for l in item.labels))
        else:
            parts.append(repr(item))
    return ", ".join(parts)


@dataclass(frozen=True)
class SetProperties(Operator):
    """Apply SET items (property / map / label writes) once per row."""

    child: Operator
    items: Tuple[object, ...]  # SetProperty | SetVariable | SetLabels
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "SetProperties({})".format(_set_item_names(self.items))

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class RemoveItems(Operator):
    """Apply REMOVE items (property / label removals) once per row."""

    child: Operator
    items: Tuple[object, ...]  # RemoveProperty | RemoveLabels
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "RemoveItems({})".format(_set_item_names(self.items))

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class DeleteEntities(Operator):
    """Collect DELETE expression values over all rows, then delete.

    The deletions land in the store transaction's change buffer and are
    flushed once after the last row — relationships before nodes, the
    same two-phase order as the reference executor.
    """

    child: Operator
    expressions: Tuple[object, ...]
    detach: bool = False
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        from repro.ast.printer import print_expression

        return "{}Delete({})".format(
            "Detach" if self.detach else "",
            ", ".join(print_expression(e) for e in self.expressions),
        )

    def _children(self):
        return (self.child,)


@dataclass(frozen=True)
class Union(Operator):
    left: Operator
    right: Operator
    all: bool = False
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "Union{}".format(" ALL" if self.all else "")

    def _children(self):
        return (self.left, self.right)
