"""Cardinality estimation for plan choices (paper Section 2).

Neo4j plans with "the IDP algorithm, using a cost model" over store
statistics; here the choices that matter are (a) which end of a pattern
chain to start from, (b) which label index to enter through, and (c) the
order in which chains of one MATCH are planned.  The estimates below are
the standard textbook ones over :class:`GraphStatistics`.
"""

from __future__ import annotations

import weakref

from repro.ast import expressions as ex
from repro.graph.statistics import GraphStatistics

#: *Fallback* selectivity of one property-equality predicate, used only
#: when no property index tracks the (label, key) pair — with an index,
#: equality selectivity is ``1/NDV`` from live distinct-value counters.
PROPERTY_SELECTIVITY = 0.1

#: Textbook fallback selectivity of one half-open range (or prefix)
#: predicate; a closed range (both bounds) compounds two of them.
RANGE_SELECTIVITY = 1.0 / 3.0

#: Assumed element count of an ``IN`` list whose length is not a plan
#: -time constant (e.g. a parameter).
IN_LIST_DEFAULT_SIZE = 3

#: Statistics snapshots per store, keyed on the store's mutation version.
#: Like a production engine, we do not rescan the store on every query —
#: the counters are maintained incrementally (here: recomputed only when
#: the version moved).
_statistics_cache = weakref.WeakKeyDictionary()


def statistics_for(graph):
    """A (possibly cached) GraphStatistics snapshot for ``graph``."""
    version = getattr(graph, "version", None)
    if version is not None:
        try:
            cached_version, cached = _statistics_cache[graph]
            if cached_version == version:
                return cached
        except (KeyError, TypeError):
            pass
    statistics = GraphStatistics(graph)
    if version is not None:
        try:
            _statistics_cache[graph] = (version, statistics)
        except TypeError:
            pass  # unhashable / non-weakrefable graphs just skip the cache
    return statistics


#: "No plan-time value": what :meth:`CostModel.plan_time_value` answers
#: for a bound only the run knows (``None`` is a value — a literal null).
MISSING = object()


class CostModel:
    """Cardinality estimates over a statistics snapshot.

    ``peeked`` maps parameter names to values the planner may read at
    plan time.  The engine passes the values it *lifted* out of the
    statement's literals and nothing else: their kinds are part of the
    plan's cache key, so every later bind of the plan is a value of the
    same kind.  User parameters are never peeked.
    """

    def __init__(self, graph, peeked=None):
        self.statistics = statistics_for(graph)
        self.peeked = peeked or {}

    def plan_time_value(self, expression):
        """The plan-time value of a bound expression, or :data:`MISSING`.

        A literal's value, or the peeked value of a lifted literal: the
        one question the planner asks of a bound's *value* — here to
        price a range off the histogram, in
        :mod:`repro.planner.planning` to decide whether an ordered scan
        may keep the bound.
        """
        if isinstance(expression, ex.Literal):
            return expression.value
        if isinstance(expression, ex.Parameter):
            return self.peeked.get(expression.name, MISSING)
        return MISSING

    # -- entry points -------------------------------------------------------

    def node_pattern_cardinality(self, node_pattern, bound, sargables=()):
        """Expected matches when this node pattern starts a chain.

        ``sargables`` are the WHERE conjuncts the planner extracted for
        this pattern's variable (see :mod:`repro.planner.access`); they
        sharpen the estimate with the same NDV-backed selectivities the
        access-path choice uses, so chain ordering and endpoint choice
        react to real statistics — the entry point flips when NDV does.
        """
        if node_pattern.name is not None and node_pattern.name in bound:
            return 1.0
        stats = self.statistics
        labels = node_pattern.labels
        if labels:
            estimate = min(
                stats.nodes_with_label(label) for label in labels
            )
        else:
            estimate = stats.node_count
        estimate = float(max(estimate, 0))
        for key, _expression in node_pattern.properties:
            estimate *= self.equality_selectivity(labels, key)
        for sargable in sargables:
            estimate *= self.sargable_selectivity(labels, sargable)
        return max(estimate, 0.0)

    def equality_selectivity(self, labels, key):
        """Selectivity of ``n.key = <value>`` given the pattern's labels.

        ``1/NDV`` from the live counters of the best index tracking the
        key under any of the labels; :data:`PROPERTY_SELECTIVITY` when no
        index covers the pair (the pre-index behaviour, now a fallback).
        """
        best = None
        stats = self.statistics
        for label in labels:
            ndv = stats.property_ndv(label, key)
            if ndv:
                selectivity = 1.0 / ndv
                if best is None or selectivity < best:
                    best = selectivity
        return best if best is not None else PROPERTY_SELECTIVITY

    def sargable_selectivity(self, labels, sargable):
        """Estimated selectivity of one extracted sargable conjunct."""
        kind = sargable.kind
        if kind == "eq":
            return self.equality_selectivity(labels, sargable.key)
        if kind == "in":
            size = sargable.size_hint
            if size is None:
                size = IN_LIST_DEFAULT_SIZE
            return min(
                1.0,
                size * self.equality_selectivity(labels, sargable.key),
            )
        if kind == "range":
            bounds = (sargable.low is not None) + (sargable.high is not None)
            return RANGE_SELECTIVITY ** max(bounds, 1)
        return RANGE_SELECTIVITY  # prefix

    def index_entry_estimate(self, label, key, sargable):
        """Expected rows out of an index scan serving ``sargable``.

        Starts from the index's *entry* count (label nodes that have the
        key at all — others can never qualify), not the label count.
        """
        stats = self.statistics
        entries = stats.indexed_entries(label, key)
        if entries is None:
            return None
        kind = sargable.kind
        if kind == "eq":
            ndv = stats.property_ndv(label, key) or 1
            return entries / float(ndv)
        if kind == "in":
            ndv = stats.property_ndv(label, key) or 1
            size = sargable.size_hint
            if size is None:
                size = IN_LIST_DEFAULT_SIZE
            return min(float(entries), size * entries / float(ndv))
        return entries * self.bound_selectivity(label, (key,), 0, sargable)

    def bound_selectivity(self, label, keys, column, sargable):
        """Selectivity of one range/prefix sargable on an indexed column.

        Histogram-backed when every present bound is known at plan time
        — a literal, or a literal the engine lifted and let the planner
        peek at (:meth:`plan_time_value`): an equi-depth histogram over
        the live distribution replaces the flat
        :data:`RANGE_SELECTIVITY` guess.  The textbook constant
        otherwise — user parameters and row-dependent bounds have no
        value to consult the histogram with.  Floored at a small epsilon
        so an empty-looking range still prices strictly positive.
        """
        stats = self.statistics
        if sargable.kind == "prefix":
            value = self.plan_time_value(sargable.value)
            if isinstance(value, str):
                fraction = stats.starts_with_fraction(
                    label, keys, column, value
                )
                if fraction is not None:
                    return max(fraction, 1e-6)
            return RANGE_SELECTIVITY
        low = (
            self.plan_time_value(sargable.low)
            if sargable.low is not None else None
        )
        high = (
            self.plan_time_value(sargable.high)
            if sargable.high is not None else None
        )
        if low is not MISSING and high is not MISSING:
            fraction = stats.range_fraction(
                label, keys, column,
                low, sargable.low_inclusive, high, sargable.high_inclusive,
            )
            if fraction is not None:
                return max(fraction, 1e-6)
        bounds = (sargable.low is not None) + (sargable.high is not None)
        return RANGE_SELECTIVITY ** max(bounds, 1)

    def composite_entry_estimate(self, label, candidate):
        """Expected rows out of a composite-index probe, or None.

        The equality prefix divides entries by the *prefix NDV* of the
        consumed length — a direct measurement, so functionally
        dependent columns (whose deeper prefix NDV barely grows) don't
        get the spurious per-column selectivity product independence
        would give.  A trailing range/prefix bound multiplies in its
        histogram-backed selectivity on the bound column.
        """
        stats = self.statistics
        keys = candidate.keys
        entries = stats.indexed_entries(label, keys)
        if entries is None:
            return None
        estimate = float(entries)
        consumed = len(candidate.equalities)
        if consumed:
            ndv = stats.prefix_ndv(label, keys, consumed) or 1
            estimate = entries / float(ndv)
        if candidate.bound is not None:
            estimate *= self.bound_selectivity(
                label, keys, consumed, candidate.bound
            )
        return estimate

    def best_entry_label(self, node_pattern):
        """The most selective label of a node pattern (or None)."""
        if not node_pattern.labels:
            return None
        stats = self.statistics
        return min(
            node_pattern.labels,
            key=lambda label: stats.nodes_with_label(label),
        )

    # -- traversal ---------------------------------------------------------------

    def reachability_probe(self, rel_pattern, into, high):
        """The reachability index serving one var-length hop, or None.

        Delegates the soundness gate (bound target, directed, unbounded
        above, covering type set) to
        :func:`repro.planner.access.reachability_candidate`; this seam
        exists so the choice keys on the same statistics snapshot every
        other access-path decision uses — declaring or dropping an index
        bumps the version, which invalidates cached plans.
        """
        from repro.planner.access import reachability_candidate

        return reachability_candidate(
            self.statistics, rel_pattern, into, high
        )
