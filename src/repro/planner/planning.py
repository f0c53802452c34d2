"""Translate a query AST into a logical operator tree.

Planning follows the shape the paper sketches for Neo4j: pick a cheap
entry point per pattern chain — a property-index seek where one serves
a sargable WHERE/inline-map conjunct and the NDV-backed estimate beats
the label scan (:mod:`repro.planner.access` extracts the candidates,
:class:`~repro.planner.cost.CostModel` prices them), the label index
otherwise — then traverse with Expand steps; chains are ordered
greedily by estimated entry cardinality, and for each chain both
endpoints are costed and the cheaper one chosen (a compact stand-in
for IDP's bottom-up join-order search, which degenerates to exactly
this on path-shaped join graphs).  Index pushdown removes a predicate
only where the chosen scan answers it exactly (a single-key range's
bounds, ``IS NOT NULL`` on an index key — see
:func:`~repro.planner.access.served_conjuncts`); the rest of the WHERE
survives as the residual Filter, so the access path never changes what
a row must satisfy.

The planner covers the *entire* standard language — reads and updates.
On the read side: MATCH / OPTIONAL MATCH / WHERE / WITH / UNWIND /
RETURN / UNION, variable-length patterns, aggregation, named paths
(assembled in-pipeline by ``ProjectPath``), and all three of Section 8's
configurable morphisms — edge isomorphism, node isomorphism and
homomorphism — via the morphism-parameterised uniqueness kernel.
List comprehensions, quantifiers and ``reduce`` compile to
scratch-slot closures (:mod:`repro.semantics.compile`); pattern-shaped
expressions evaluate through the reference matcher.  On the write
side: CREATE / MERGE / SET / REMOVE / DELETE plan to slotted write
operators behind an explicit ``Eager`` barrier (Cypher's writes must not
be visible to the writing clause's own reads; the barrier finishes the
upstream scans on the pre-clause snapshot before the first write lands),
with MERGE carrying a compiled match subplan it re-runs per driving row
and all mutations flowing through the store's change-buffer transaction
(:class:`~repro.graph.store.StoreTransaction`).  Only the Cypher 10
graph clauses (FROM GRAPH / RETURN GRAPH) still raise
:class:`UnsupportedFeature` and fall back to the reference
interpreter — by construction the two paths agree on everything both
support.
"""

from __future__ import annotations

from repro.ast import clauses as cl
from repro.ast import expressions as ex
from repro.ast import patterns as pt
from repro.ast import queries as qu
from repro.ast.expressions import contains_aggregate
from repro.exceptions import CypherSemanticError, UnsupportedFeature
from repro.planner import access
from repro.planner import logical as lg
from repro.planner.cost import CostModel
from repro.semantics.morphism import EDGE_ISOMORPHISM

#: Immutable empty sargable map shared by clauses without a WHERE.
_NO_SARGABLES = {}


def plan_query(query, graph, morphism=EDGE_ISOMORPHISM, parameters=None):
    """Plan a parsed query against a graph; returns the root Operator.

    ``parameters`` are values the planner may *peek* at: where it would
    read a literal's value (pricing a range off the histogram, keeping a
    bound on an index-ordered scan) it reads a named parameter's value
    the same way, and emits the same operators with the parameter as
    the bound.  The engine passes the literals it lifted out of the
    statement text and nothing else (see
    :class:`~repro.planner.cost.CostModel`).
    """
    builder = _PlanBuilder(graph, morphism, parameters)
    return builder.plan(query)


def plan_depends_on_statistics(plan):
    """True if re-planning after a store mutation could change the plan.

    Plan *choices* — entry label, chain order, endpoint direction — come
    from :class:`~repro.planner.cost.CostModel` statistics.  A plan whose
    MATCH part is a single label-free ``AllNodesScan`` (or that scans
    nothing at all, e.g. ``RETURN 1``) offered the cost model no choice:
    its :func:`plan_statistics_footprint` is empty, so no amount of
    drift makes the engine's plan cache re-plan it.
    """
    return any(plan_statistics_footprint(plan))


_SCANS = (
    lg.AllNodesScan,
    lg.NodeByLabelScan,
    lg.IndexScan,
    lg.IndexRangeScan,
    lg.IndexOrderedScan,
)


def plan_statistics_footprint(plan):
    """``(labels, types, whole_graph)``: the counters the plan was costed on.

    The labels and relationship types the plan's scans and expands name
    (entry label, the other labels of the scanned pattern, each expand's
    types and target labels), plus ``whole_graph`` when an untyped
    expand or a label-free ``AllNodesScan`` that had competition took
    part.  All three are empty/False exactly when
    :func:`plan_depends_on_statistics` is False.  The engine's plan cache
    stores :func:`footprint_counts` of this next to the plan and
    re-reads them when the store's version has moved: the plan stays
    while every count is within 2x of what the cost model saw.
    """
    labels = set()
    types = set()
    untyped_expand = False
    free_scans = 0
    stack = [plan]
    while stack:
        op = stack.pop()
        if isinstance(op, _SCANS):
            labels.update(op.node_pattern.labels)
            if not op.node_pattern.labels:
                free_scans += 1
        elif isinstance(op, (lg.Expand, lg.VarLengthExpand)):
            labels.update(op.node_pattern.labels)
            if op.rel_pattern.types:
                types.update(op.rel_pattern.types)
            else:
                untyped_expand = True
        stack.extend(op._children())
    # One label-free scan on its own offered the cost model no choice.
    competing = free_scans > 1 or bool(free_scans and (labels or types))
    return (
        tuple(sorted(labels)), tuple(sorted(types)),
        untyped_expand or competing,
    )


def footprint_counts(footprint, graph):
    """``count + 1`` per footprint entry, off the store's O(1) counters."""
    labels, types, whole_graph = footprint
    counts = [graph.label_count(label) + 1 for label in labels]
    counts.extend(graph.type_count(rel_type) + 1 for rel_type in types)
    if whole_graph:
        counts.append(graph.node_count() + 1)
        counts.append(graph.relationship_count() + 1)
    return counts


class _PlanBuilder:
    def __init__(self, graph, morphism, peeked=None):
        self.cost = CostModel(graph, peeked)
        self.morphism = morphism
        self._hidden_counter = 0

    # ------------------------------------------------------------------

    def plan(self, query):
        if isinstance(query, qu.UnionQuery):
            left = self.plan(query.left)
            right = self.plan(query.right)
            if set(left.fields) != set(right.fields):
                raise CypherSemanticError(
                    "UNION sides must project the same fields"
                )
            return lg.Union(left, right, all=query.all, fields=left.fields)
        if isinstance(query, qu.SingleQuery):
            return self._plan_single(query)
        raise UnsupportedFeature("cannot plan %r" % (query,))

    def _plan_single(self, query):
        plan = lg.Init()
        for clause in query.clauses:
            plan = self._plan_clause(clause, plan)
        return _apply_covering(plan)

    def _plan_clause(self, clause, plan):
        if isinstance(clause, cl.Match):
            return self._plan_match(clause, plan)
        if isinstance(clause, cl.With):
            return self._plan_projection(
                clause.projection, plan, where=clause.where
            )
        if isinstance(clause, cl.Return):
            return self._plan_projection(clause.projection, plan, where=None)
        if isinstance(clause, cl.Unwind):
            if clause.alias in plan.fields:
                raise CypherSemanticError(
                    "UNWIND alias %r is already in scope" % clause.alias
                )
            return lg.Unwind(
                plan,
                clause.expression,
                clause.alias,
                fields=plan.fields + (clause.alias,),
            )
        if isinstance(clause, cl.Create):
            return self._plan_create(clause, plan)
        if isinstance(clause, cl.Merge):
            return self._plan_merge(clause, plan)
        if isinstance(clause, cl.SetClause):
            return lg.SetProperties(
                self._barrier(plan), clause.items, fields=plan.fields
            )
        if isinstance(clause, cl.RemoveClause):
            return lg.RemoveItems(
                self._barrier(plan), clause.items, fields=plan.fields
            )
        if isinstance(clause, cl.Delete):
            return lg.DeleteEntities(
                self._barrier(plan),
                clause.expressions,
                detach=clause.detach,
                fields=plan.fields,
            )
        raise UnsupportedFeature(
            "the planner does not handle %s; using the interpreter"
            % type(clause).__name__
        )

    # ------------------------------------------------------------------
    # Updating-clause planning
    # ------------------------------------------------------------------

    def _barrier(self, plan):
        """An Eager in front of a write operator, where one is needed.

        ``Init`` and the write operators are already barriers (the unit
        table reads nothing; write operators settle every write before
        emitting), so stacked update clauses pay for one materialisation
        each, not two.
        """
        if isinstance(
            plan,
            (
                lg.Init,
                lg.Eager,
                lg.CreatePattern,
                lg.MergePattern,
                lg.SetProperties,
                lg.RemoveItems,
                lg.DeleteEntities,
            ),
        ):
            return plan
        return lg.Eager(plan, fields=plan.fields)

    def _plan_create(self, clause, plan):
        from repro.updates.executor import validate_create_pattern

        for path_pattern in clause.pattern:
            validate_create_pattern(path_pattern)
        new_names = tuple(
            name
            for name in pt.free_variables(clause.pattern)
            if name not in plan.fields
        )
        return lg.CreatePattern(
            self._barrier(plan),
            tuple(clause.pattern),
            fields=plan.fields + new_names,
        )

    def _plan_merge(self, clause, plan):
        from repro.updates.executor import validate_merge_pattern

        validate_merge_pattern(clause.pattern)
        barrier = self._barrier(plan)
        argument = lg.Argument(fields=plan.fields)
        inner = self._plan_pattern_tuple(argument, (clause.pattern,))
        new_names = tuple(
            name
            for name in pt.free_variables((clause.pattern,))
            if name not in plan.fields
        )
        return lg.MergePattern(
            barrier,
            clause.pattern,
            inner,
            on_create=tuple(clause.on_create),
            on_match=tuple(clause.on_match),
            fields=plan.fields + new_names,
        )

    # ------------------------------------------------------------------
    # MATCH planning
    # ------------------------------------------------------------------

    def _hidden(self, kind):
        self._hidden_counter += 1
        return "#{}{}".format(kind, self._hidden_counter)

    def _plan_match(self, clause, plan):
        # Sargable conjuncts of this MATCH's WHERE steer access-path
        # and chain-order choices; the residual Filter is the WHERE
        # minus what the chosen index scans answer exactly, so the
        # extraction never changes what a row must satisfy — only how
        # candidate rows are found.
        sargables = access.collect_sargable(clause.where)
        witnesses = access.collect_witnesses(clause.where)
        if clause.optional:
            argument = lg.Argument(fields=plan.fields)
            inner = self._plan_pattern_tuple(
                argument, clause.pattern, sargables, witnesses
            )
            inner = _residual_filter(inner, argument, clause.where)
            pad = tuple(
                name for name in inner.fields if name not in plan.fields
            )
            return lg.OptionalApply(
                plan, inner, pad_names=pad, fields=plan.fields + pad
            )
        matched = self._plan_pattern_tuple(
            plan, clause.pattern, sargables, witnesses
        )
        return _residual_filter(matched, plan, clause.where)

    def _usable_sargables(self, variable, sargables, bound):
        """The variable's sargable conjuncts whose probes are in scope.

        A probe evaluates per driving row, *before* the scan binds its
        variable, so every variable it reads must already be bound —
        probes over outer bindings make the scan an index nested-loop
        join; anything else is rejected here.
        """
        usable = []
        for sargable in sargables.get(variable, ()):
            if all(
                access.free_variables(expression) <= bound
                for expression in sargable.probe_expressions()
            ):
                usable.append(sargable)
        return usable

    def _probe_deferral(self, chain, bound, other_names):
        """True when planning ``chain`` now would forfeit an enabled probe.

        A reachability index can only serve a var-length hop whose far
        endpoint is *already bound* (there must be a target to certify
        against).  When such a hop's endpoint is still unbound but is
        named by another remaining chain, deferring this chain lets that
        chain bind the endpoint first — turning an unbounded enumeration
        into an index probe.  Without a covering index this never fires,
        so plans on index-less graphs are byte-identical to before.
        """
        elements = chain.elements
        for index in range(1, len(elements), 2):
            rho = elements[index]
            if not rho.is_variable_length:
                continue
            _low, high = rho.resolved_range()
            if self.cost.reachability_probe(rho, True, high) is None:
                continue
            for endpoint in (elements[index - 1], elements[index + 1]):
                name = endpoint.name
                if name is not None and name not in bound and name in other_names:
                    return True
        return False

    def _plan_pattern_tuple(
        self, plan, patterns, sargables=_NO_SARGABLES,
        witnesses=_NO_SARGABLES,
    ):
        bound = set(plan.fields)
        unique_rels = []
        remaining = list(patterns)
        while remaining:
            best = None
            for index, chain in enumerate(remaining):
                other_names = {
                    element.name
                    for position, other in enumerate(remaining)
                    if position != index
                    for element in other.node_patterns
                    if element.name is not None
                }
                defer = self._probe_deferral(chain, bound, other_names)
                for reverse in (False, True):
                    endpoint = (
                        chain.node_patterns[-1]
                        if reverse
                        else chain.node_patterns[0]
                    )
                    cardinality = self.cost.node_pattern_cardinality(
                        endpoint,
                        bound,
                        self._usable_sargables(
                            endpoint.name, sargables, bound
                        )
                        if endpoint.name is not None
                        else (),
                    )
                    key = (defer, cardinality, index, reverse)
                    if best is None or key < best[0]:
                        best = (key, index, reverse)
            _key, index, reverse = best
            chain = remaining.pop(index)
            if reverse:
                chain = _reverse_chain(chain)
            plan = self._plan_chain(
                plan, chain, bound, unique_rels, flipped=reverse,
                sargables=sargables, witnesses=witnesses,
            )
        return plan

    def _entry_scan(
        self, plan, name, pattern, bound, sargables, fields,
        witnesses=_NO_SARGABLES,
    ):
        """The cost-chosen access path binding a chain's entry node.

        Candidates: the label scan over the most selective label; for
        every single-key ``(label of the pattern, key)`` index, each
        usable sargable conjunct (WHERE-extracted or from the inline
        property map); and for every composite index, the longest
        usable equality prefix plus at most one range/prefix column
        (usable only when the remaining columns are witnessed non-null —
        a composite entry only exists when *every* column is non-null,
        so an unwitnessed prefix probe would under-approximate).
        Estimates come from the live NDV / prefix-NDV / histogram
        counters; the index wins ties because it reads at most the rows
        the label scan would.  Without labels there is no index to
        enter through and the scan stays AllNodesScan.
        """
        stats = self.cost.statistics
        entry_label = self.cost.best_entry_label(pattern)
        if entry_label is None:
            return lg.AllNodesScan(
                plan, name, pattern, fields=fields,
                estimated_rows=float(stats.node_count),
            )
        label_estimate = float(stats.nodes_with_label(entry_label))
        candidates = self._usable_sargables(name, sargables, bound)
        candidates += [
            sargable
            for sargable in access.inline_sargables(pattern, name)
            if all(
                access.free_variables(expression) <= bound
                for expression in sargable.probe_expressions()
            )
        ]
        best = None
        for label in pattern.labels:
            for sargable in candidates:
                if not stats.has_property_index(label, sargable.key):
                    continue
                estimate = self.cost.index_entry_estimate(
                    label, sargable.key, sargable
                )
                if estimate is None:
                    continue
                if best is None or estimate < best[0]:
                    best = (estimate, label, sargable)
        witnessed = set(witnesses.get(name, ())) if name is not None else set()
        witnessed.update(key for key, _expression in pattern.properties)
        for label in pattern.labels:
            for keys in stats.composite_indexes(label):
                if len(keys) == 1:
                    continue  # priced by the single-key loop above
                candidate = access.match_composite(
                    keys, candidates, witnessed
                )
                if candidate is None:
                    continue
                estimate = self.cost.composite_entry_estimate(
                    label, candidate
                )
                if estimate is None:
                    continue
                if best is None or estimate < best[0]:
                    best = (estimate, label, candidate)
        if best is not None and best[0] <= label_estimate:
            estimate, label, chosen = best
            if not isinstance(chosen, access.CompositeCandidate):
                # A single-key index is the one-column composite.
                bounded = chosen.kind in ("range", "prefix")
                chosen = access.CompositeCandidate(
                    keys=(chosen.key,),
                    equalities=() if bounded else (chosen,),
                    bound=chosen if bounded else None,
                )
            return self._composite_scan(
                plan, name, label, chosen, pattern, fields, estimate
            )
        return lg.NodeByLabelScan(
            plan, name, entry_label, pattern, fields=fields,
            estimated_rows=label_estimate,
        )

    def _composite_scan(
        self, plan, name, label, candidate, pattern, fields, estimate,
    ):
        """The index scan serving one ``access.CompositeCandidate``.

        Every index scan is built here; a single-key index is the
        one-column case.
        """
        probes = tuple(s.value for s in candidate.equalities)
        if candidate.bound is None:
            return lg.IndexScan(
                plan, name, label, candidate.keys, probes, pattern,
                many=candidate.equalities[0].kind == "in", fields=fields,
                estimated_rows=estimate,
            )
        bound = candidate.bound
        return lg.IndexRangeScan(
            plan, name, label, candidate.keys, probes, pattern,
            low=bound.low,
            low_inclusive=bound.low_inclusive,
            high=bound.high,
            high_inclusive=bound.high_inclusive,
            prefix=bound.value if bound.kind == "prefix" else None,
            fields=fields,
            estimated_rows=estimate,
        )

    def _plan_chain(
        self, plan, chain, bound, unique_rels, flipped=False,
        sargables=_NO_SARGABLES, witnesses=_NO_SARGABLES,
    ):
        elements = chain.elements
        first = elements[0]
        current_name = first.name or self._hidden("node")
        visible = list(plan.fields)
        # Node variables of *this* chain in traversal order: node
        # isomorphism is scoped per path pattern, matching the matcher.
        # Variable-length segments are tracked separately because their
        # intermediate nodes (unbound to any slot) also count.
        chain_nodes = [current_name]
        chain_segments = []
        path_steps = []

        if current_name in bound:
            if first.labels or first.properties:
                plan = lg.NodeCheck(
                    plan, current_name, first, fields=tuple(visible)
                )
        else:
            if not _is_hidden(current_name):
                visible.append(current_name)
            plan = self._entry_scan(
                plan, current_name, first, bound, sargables, tuple(visible),
                witnesses,
            )
            bound.add(current_name)

        for index in range(1, len(elements), 2):
            rho = elements[index]
            chi = elements[index + 1]
            to_name = chi.name or self._hidden("node")
            into = to_name in bound
            rel_prebound = rho.name is not None and rho.name in bound
            rel_name = (
                self._hidden("rel") if rel_prebound else (rho.name or self._hidden("rel"))
            )
            if not into and not _is_hidden(to_name):
                visible.append(to_name)
            if rho.name is not None and not rel_prebound and not _is_hidden(rel_name):
                visible.append(rel_name)
            unique = (
                tuple(unique_rels)
                if self.morphism.forbids_repeated_relationships
                else ()
            )
            if self.morphism.forbids_repeated_nodes:
                unique_nodes = tuple(chain_nodes)
                unique_segments = tuple(chain_segments)
            else:
                unique_nodes = ()
                unique_segments = ()
            low, high = rho.resolved_range()
            if rho.is_variable_length:
                probe = self.cost.reachability_probe(rho, into, high)
                if probe is not None:
                    plan = lg.ReachabilityProbe(
                        plan,
                        from_variable=current_name,
                        to_variable=to_name,
                        rel_variable=rel_name,
                        rel_pattern=rho,
                        node_pattern=chi,
                        low=low,
                        high=high,
                        into=into,
                        unique_with=unique,
                        unique_nodes=unique_nodes,
                        unique_segments=unique_segments,
                        fields=tuple(visible),
                        index_types=probe.index_types,
                        forward=probe.forward,
                    )
                else:
                    plan = lg.VarLengthExpand(
                        plan,
                        from_variable=current_name,
                        to_variable=to_name,
                        rel_variable=rel_name,
                        rel_pattern=rho,
                        node_pattern=chi,
                        low=low,
                        high=high,
                        into=into,
                        unique_with=unique,
                        unique_nodes=unique_nodes,
                        unique_segments=unique_segments,
                        fields=tuple(visible),
                    )
                chain_segments.append((current_name, rel_name))
            else:
                plan = lg.Expand(
                    plan,
                    from_variable=current_name,
                    to_variable=to_name,
                    rel_variable=rel_name,
                    rel_pattern=rho,
                    node_pattern=chi,
                    into=into,
                    unique_with=unique,
                    unique_nodes=unique_nodes,
                    unique_segments=unique_segments,
                    fields=tuple(visible),
                )
            if rel_prebound:
                # A relationship variable from an earlier clause constrains
                # this traversal: keep only rows where they coincide.
                plan = lg.Filter(
                    plan,
                    ex.Comparison(
                        ("=",),
                        (ex.Variable(rel_name), ex.Variable(rho.name)),
                    ),
                    fields=tuple(visible),
                )
            path_steps.append((rel_name, to_name, rho.is_variable_length))
            unique_rels.append(rel_name)
            chain_nodes.append(to_name)
            bound.add(rel_name)
            bound.add(to_name)
            current_name = to_name
        if chain.name is not None:
            plan = self._plan_named_path(
                plan, chain.name, chain_nodes[0], path_steps, flipped,
                bound, visible,
            )
        return plan

    def _plan_named_path(
        self, plan, path_name, start_name, path_steps, flipped, bound, visible
    ):
        """Bind ``path_name`` to the chain's traversal (Section 4.1 paths).

        A re-used path name (``MATCH p = ... MATCH p = ...``) assembles
        into a hidden slot and keeps only rows where the two paths
        coincide, mirroring the matcher's consistency check.
        """
        rebound = path_name in bound
        target = self._hidden("path") if rebound else path_name
        if not rebound:
            visible.append(path_name)
            bound.add(path_name)
        plan = lg.ProjectPath(
            plan,
            variable=target,
            start_variable=start_name,
            steps=tuple(path_steps),
            flip=flipped,
            fields=tuple(visible),
        )
        if rebound:
            plan = lg.Filter(
                plan,
                ex.Comparison(
                    ("=",),
                    (ex.Variable(target), ex.Variable(path_name)),
                ),
                fields=tuple(visible),
            )
        return plan

    # ------------------------------------------------------------------
    # WITH / RETURN planning
    # ------------------------------------------------------------------

    def _plan_projection(self, projection, plan, where):
        items = []
        if projection.star:
            if not plan.fields and not projection.items:
                raise CypherSemanticError(
                    "RETURN * is only defined on a table with at least one field"
                )
            for name in plan.fields:
                items.append(cl.ReturnItem(ex.Variable(name), name))
        items.extend(projection.items)
        if not items:
            raise CypherSemanticError("nothing to project")

        from repro.semantics.clauses import _output_names

        names = _output_names(items)
        aggregating = [contains_aggregate(item.expression) for item in items]

        if any(aggregating):
            grouping = tuple(
                (name, item.expression)
                for name, item, is_agg in zip(names, items, aggregating)
                if not is_agg
            )
            aggregates = tuple(
                (name, item.expression)
                for name, item, is_agg in zip(names, items, aggregating)
                if is_agg
            )
            plan = lg.Aggregate(
                plan, grouping, aggregates, fields=tuple(names)
            )
            if projection.distinct:
                plan = lg.Distinct(plan, fields=plan.fields)
            if projection.order_by:
                plan = lg.Sort(plan, projection.order_by, fields=plan.fields)
        else:
            projected = tuple(
                (name, item.expression) for name, item in zip(names, items)
            )
            plan = lg.ExtendedProject(
                plan, projected, fields=tuple(names)
            )
            if projection.distinct:
                plan = lg.Strip(plan, fields=tuple(names))
                plan = lg.Distinct(plan, fields=tuple(names))
                if projection.order_by:
                    plan = lg.Sort(
                        plan, projection.order_by, fields=plan.fields
                    )
            else:
                if projection.order_by:
                    plan = lg.Sort(
                        plan, projection.order_by, fields=plan.fields
                    )
                plan = lg.Strip(plan, fields=tuple(names))
        if projection.skip is not None:
            plan = lg.Skip(plan, projection.skip, fields=plan.fields)
        if projection.limit is not None:
            plan = lg.Limit(plan, projection.limit, fields=plan.fields)
        if projection.order_by:
            plan = self._provide_order(plan)
        if projection.limit is not None:
            plan = _fuse_top_k(plan)
        if where is not None:
            plan = lg.Filter(plan, where, fields=plan.fields)
        return plan

    # ------------------------------------------------------------------
    # Order-aware rewrite: Sort deletion over index-provided order
    # ------------------------------------------------------------------

    def _provide_order(self, plan):
        """Delete a Sort whose order the source index already provides.

        The rewrite fires on linear single-scan read plans whose ORDER
        BY columns continue the index key tuple right after the scan's
        consumed columns: the scan becomes an
        :class:`~repro.planner.logical.IndexOrderedScan` enumerating the
        index's sorted half in exactly the order the deleted Sort would
        have produced (ordered-column groups in ``sort_key`` order, ties
        id-ascending — the stable multi-pass Sort over an id-ordered
        scan, reproduced).  A downstream Limit then bounds the lazy
        index walk instead of fusing into a Top heap.

        Soundness gates, each of which bails to the unrewritten plan:

        * every operator between the Sort and the scan must be
          streaming and order-preserving (Filter / ExtendedProject /
          Strip / Distinct) — anything else may reorder rows;
        * every sort item must resolve — through the projection alias
          maps — to a property of the scan variable itself;
        * a range/STARTS WITH scan may keep its bound only when the
          bound's value is known at plan time (a literal, or a lifted
          literal the planner may peek at): a row-dependent bound can
          degrade to an unordered label scan *inside* the operator at
          runtime, which is unsound once the Sort is gone;
        * replacing a plain label scan requires every index column to
          be witnessed non-null (inline property map or null-rejecting
          WHERE conjunct), because the index omits exactly the nodes
          with a null column — without the witness those nodes would be
          silently dropped instead of sorted last.
        """
        from dataclasses import replace

        wrappers = []
        node = plan
        while isinstance(node, (lg.Limit, lg.Skip, lg.Strip)):
            wrappers.append(node)
            node = node.child
        if not isinstance(node, lg.Sort):
            return plan
        sort = node
        chain = []
        node = sort.child
        while isinstance(
            node, (lg.ExtendedProject, lg.Filter, lg.Strip, lg.Distinct)
        ):
            chain.append(node)
            node = node.child
        scan = node
        if not isinstance(
            scan, (lg.NodeByLabelScan, lg.IndexScan, lg.IndexRangeScan)
        ):
            return plan
        if not isinstance(scan.child, lg.Init):
            return plan
        if isinstance(scan, lg.IndexScan) and scan.many:
            return plan
        resolved = []
        for item in sort.sort_items:
            column = _resolve_sort_column(item.expression, chain)
            if column is None or column[0] != scan.variable:
                return plan
            resolved.append((column[1], item.ascending))
        ordered_keys = tuple(key for key, _ascending in resolved)
        directions = tuple(ascending for _key, ascending in resolved)

        if isinstance(scan, lg.NodeByLabelScan):
            replacement = self._ordered_label_replacement(
                scan, chain, ordered_keys, directions
            )
        else:
            replacement = _ordered_index_replacement(
                scan, ordered_keys, directions, self.cost.plan_time_value
            )
        if replacement is None:
            return plan
        if chain and isinstance(chain[-1], lg.Filter):
            # The MATCH's Filter sits right on the scan: drop what the
            # ordered scan now answers exactly (IS NOT NULL on its keys).
            bottom = chain.pop()
            predicate = _trimmed(bottom.predicate, replacement)
            if predicate is not None:
                chain.append(replace(bottom, predicate=predicate))
        node = replacement
        for op in reversed(chain):
            node = replace(op, child=node)
        for wrapper in reversed(wrappers):
            node = replace(wrapper, child=node)
        return node

    def _ordered_label_replacement(self, scan, chain, ordered_keys,
                                   directions):
        """An IndexOrderedScan standing in for a whole label scan, or None.

        Usable only when some index on the label leads with the ORDER BY
        columns *and* every index column is witnessed non-null (the
        index enumerates exactly the label nodes with all columns
        non-null; the witnesses prove the plan's own predicates already
        rejected the rest).  Among usable indexes the narrowest wins —
        fewer trailing columns means shallower enumeration.
        """
        stats = self.cost.statistics
        witnessed = set(
            key for key, _expression in scan.node_pattern.properties
        )
        for op in chain:
            if isinstance(op, lg.Filter):
                for_scan = access.collect_witnesses(op.predicate)
                witnessed.update(for_scan.get(scan.variable, ()))
        best = None
        for keys in stats.composite_indexes(scan.label):
            if keys[:len(ordered_keys)] != ordered_keys:
                continue
            if not all(key in witnessed for key in keys):
                continue
            if best is None or len(keys) < len(best):
                best = keys
        if best is None:
            return None
        return lg.IndexOrderedScan(
            scan.child, scan.variable, scan.label, best, (), directions,
            scan.node_pattern, fields=scan.fields,
            estimated_rows=float(stats.indexed_entries(scan.label, best)),
        )


def _trimmed(predicate, scan):
    """``predicate`` minus the conjuncts index ``scan`` answers exactly."""
    return access.residual(predicate, access.served_conjuncts(
        predicate, scan.variable, scan.index_keys,
        getattr(scan, "low", None), getattr(scan, "high", None),
    ))


def _residual_filter(plan, below, where):
    """The residual ``Filter`` of a MATCH's WHERE over its pattern plan.

    ``below`` is the plan the pattern was planned on: every index scan
    between it and ``plan`` was chosen for this clause, and the
    conjuncts those scans answer exactly leave the Filter — which goes
    altogether when nothing is left.
    """
    if where is None:
        return plan
    predicate = where
    node = plan
    while node is not below:
        if isinstance(node, (lg.IndexScan, lg.IndexRangeScan)):
            predicate = _trimmed(predicate, node)
            if predicate is None:
                return plan
        node = node.child
    return lg.Filter(plan, predicate, fields=plan.fields)


def _fuse_top_k(plan):
    """Rewrite ``Limit(…(Sort(X)))`` into ``Limit(…(Top(X)))``.

    ``ORDER BY … LIMIT k`` used to materialise and sort the whole input;
    the fused :class:`~repro.planner.logical.Top` keeps a bounded heap of
    the best ``k`` (+ SKIP offset) rows instead.  Only Skip and Strip may
    sit between the Limit and its Sort (the shapes ``_plan_projection``
    emits); anything else leaves the plan untouched.
    """
    from dataclasses import replace

    if not isinstance(plan, lg.Limit):
        return plan
    wrappers = []
    node = plan.child
    skip_count = None
    while isinstance(node, (lg.Skip, lg.Strip)):
        if isinstance(node, lg.Skip):
            skip_count = node.count
        wrappers.append(node)
        node = node.child
    if not isinstance(node, lg.Sort):
        return plan
    rebuilt = lg.Top(
        node.child,
        node.sort_items,
        limit=plan.count,
        skip=skip_count,
        fields=node.fields,
    )
    for wrapper in reversed(wrappers):
        rebuilt = replace(wrapper, child=rebuilt)
    return replace(plan, child=rebuilt)


def _resolve_sort_column(expression, chain):
    """Resolve a sort expression to ``(variable, key)`` through aliases.

    Walks the operator chain top-down, substituting projection aliases
    (``WITH n.age AS age ... ORDER BY age``) until the expression either
    is exactly a property access on one variable — returned — or proves
    to be anything else — None.  Substitution handles shadowing: by the
    time the walk reaches the scan, the variable names mean what the
    scan bound, not what a later projection rebound.
    """
    expr = expression
    for op in chain:
        if not isinstance(op, lg.ExtendedProject):
            continue
        items = dict(op.items)
        if isinstance(expr, ex.Variable) and expr.name in items:
            expr = items[expr.name]
        elif (
            isinstance(expr, ex.PropertyAccess)
            and isinstance(expr.subject, ex.Variable)
            and expr.subject.name in items
        ):
            base = items[expr.subject.name]
            if not isinstance(base, ex.Variable):
                return None
            expr = ex.PropertyAccess(base, expr.key)
    if (
        isinstance(expr, ex.PropertyAccess)
        and isinstance(expr.subject, ex.Variable)
    ):
        return expr.subject.name, expr.key
    return None


def _order_safe(value):
    """True for a bound value an ordered scan may carry.

    Orderable scalars only — a null (or a value outside the index's
    sorted segments) degrades the scan to an unordered fallback, unsound
    once the Sort is deleted.  NaN is excluded for the same reason range
    probes exclude it: no value compares with it.
    """
    if isinstance(value, float):
        return value == value
    return isinstance(value, (bool, int, str))


def _ordered_index_replacement(scan, ordered_keys, directions,
                               plan_time_value):
    """The IndexOrderedScan equivalent of an index scan, or None.

    The ORDER BY columns must continue the index key tuple exactly where
    the scan's consumed columns stop: an equality prefix fixes its
    columns to single values, so enumeration order over the *next*
    columns is total order over the emitted rows.  A bound survives as
    the expression it is — a literal, or the parameter a lifted literal
    became — once ``plan_time_value`` shows its value is order-safe;
    any other bound is evaluated per row at runtime and bails.
    """
    keys = scan.index_keys
    low = high = prefix = None
    low_inclusive = high_inclusive = True
    if isinstance(scan, lg.IndexScan):
        probes = scan.probes
        consumed = len(probes)
    else:
        probes = scan.prefix_probes
        consumed = len(probes)
        low_inclusive, high_inclusive = scan.low_inclusive, scan.high_inclusive
        if scan.prefix is not None:
            prefix = scan.prefix
            if not isinstance(plan_time_value(prefix), str):
                return None
        else:
            low, high = scan.low, scan.high
            for bound in (low, high):
                if bound is not None and not _order_safe(
                    plan_time_value(bound)
                ):
                    return None
        # The bound restricts the *first ordered* column, so that very
        # column must lead the ORDER BY for the bound to survive.
        if keys[consumed] != ordered_keys[0]:
            return None
    if keys[consumed:consumed + len(ordered_keys)] != ordered_keys:
        return None
    return lg.IndexOrderedScan(
        scan.child, scan.variable, scan.label, keys, probes, directions,
        scan.node_pattern,
        low=low, low_inclusive=low_inclusive,
        high=high, high_inclusive=high_inclusive,
        prefix=prefix,
        fields=scan.fields, estimated_rows=scan.estimated_rows,
    )


#: Operators a covering rewrite may pass through: linear, read-only,
#: streaming.  Anything else (writes, applies, unions, expands — whose
#: rows are not one-to-one with scan rows) leaves the plan untouched.
_COVER_SAFE = (
    lg.Filter, lg.ExtendedProject, lg.Strip, lg.Distinct,
    lg.Sort, lg.Top, lg.Skip, lg.Limit,
)


def _apply_covering(plan):
    """Serve projected columns straight from index entries where possible.

    On a linear read plan whose source is an index scan, any projection
    item or sort key that is *exactly* ``scanvar.key`` for an indexed
    column is rewritten to read a synthetic covered slot the scan fills
    from its own index entry — the property map is never touched for
    those columns.  Values are identical by construction (the entry is
    maintained from the same map), so this is pure access-path change;
    the rewrite stops at the first Strip above the scan because Strip
    resets unlisted slots, and bails entirely if a projection rebinds
    the scan variable below that point.
    """
    from dataclasses import replace

    chain = []
    node = plan
    while isinstance(node, _COVER_SAFE):
        chain.append(node)
        node = node.child
    scan = node
    if not isinstance(
        scan, (lg.IndexScan, lg.IndexRangeScan, lg.IndexOrderedScan)
    ):
        return plan
    if not isinstance(scan.child, lg.Init):
        return plan
    variable = scan.variable
    keys = scan.index_keys

    # Ops between the scan and the first Strip above it, leaf upward:
    # only these still see the covered slots.
    eligible = []
    for op in reversed(chain):
        if isinstance(op, lg.Strip):
            break
        eligible.append(op)
    for op in eligible:
        if isinstance(op, lg.ExtendedProject) and any(
            name == variable for name, _expression in op.items
        ):
            return plan

    covered = {}

    def synthetic(key):
        name = covered.get(key)
        if name is None:
            name = "#cover:%s.%s" % (variable, key)
            covered[key] = name
        return name

    def covered_read(expression):
        if (
            isinstance(expression, ex.PropertyAccess)
            and isinstance(expression.subject, ex.Variable)
            and expression.subject.name == variable
            and expression.key in keys
        ):
            return ex.Variable(synthetic(expression.key))
        return None

    rewritten = {}
    for op in eligible:
        if isinstance(op, lg.ExtendedProject):
            items, changed = [], False
            for name, expression in op.items:
                replacement = covered_read(expression)
                if replacement is not None:
                    changed = True
                    items.append((name, replacement))
                else:
                    items.append((name, expression))
            if changed:
                rewritten[id(op)] = replace(op, items=tuple(items))
        elif isinstance(op, (lg.Sort, lg.Top)):
            items, changed = [], False
            for item in op.sort_items:
                replacement = covered_read(item.expression)
                if replacement is not None:
                    changed = True
                    items.append(replace(item, expression=replacement))
                else:
                    items.append(item)
            if changed:
                rewritten[id(op)] = replace(op, sort_items=tuple(items))
    if not covered:
        return plan
    node = replace(
        scan,
        covered=tuple(covered.items()),
        fields=scan.fields + tuple(covered.values()),
    )
    for op in reversed(chain):
        node = replace(rewritten.get(id(op), op), child=node)
    return node


def _is_hidden(name):
    return name.startswith("#")


def _reverse_chain(chain):
    """Walk a path pattern from its other end (flip every direction)."""
    flipped = []
    for element in reversed(chain.elements):
        if isinstance(element, pt.RelationshipPattern):
            if element.direction == pt.LEFT_TO_RIGHT:
                direction = pt.RIGHT_TO_LEFT
            elif element.direction == pt.RIGHT_TO_LEFT:
                direction = pt.LEFT_TO_RIGHT
            else:
                direction = pt.UNDIRECTED
            flipped.append(
                pt.RelationshipPattern(
                    direction=direction,
                    name=element.name,
                    types=element.types,
                    properties=element.properties,
                    length=element.length,
                )
            )
        else:
            flipped.append(element)
    return pt.PathPattern(tuple(flipped), name=chain.name)
