"""Graph statistics for the cost-based planner (paper Section 2).

Neo4j's planner uses a cost model over store statistics [21]; we compute
the equivalent counters from the in-memory store: label cardinalities,
relationship-type cardinalities, and average degrees by (label, type,
direction), which drive Expand cost estimates.

Stores that maintain inverted indexes expose
``label_cardinalities()`` / ``type_cardinalities()`` (see
:class:`~repro.graph.store.MemoryGraph`); building a snapshot from those
hooks is O(#labels + #types) instead of a full O(N + R) rescan, which
keeps planning cheap even though the snapshot cache in
:mod:`repro.planner.cost` is invalidated by every store mutation.

Stores with property indexes additionally expose
``index_statistics()`` — ``{(label, keys): (ndv, entries)}`` — whose
NDV (number of distinct values) and entry counters are maintained
incrementally by the index itself.  They power the cost model's
equality selectivity (``1/NDV`` instead of the hard-coded default) and
the index-vs-label-scan access-path choice.  Composite indexes also
surface per-prefix NDVs (so correlated key columns don't multiply
per-column selectivities into nonsense — the functional-dependency
point of "Computing Join Queries with Functional Dependencies") and
lazily-built equi-depth :class:`ColumnHistogram`\\ s per indexed column,
replacing the flat ``RANGE_SELECTIVITY`` constant for literal-bounded
range estimates.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left, bisect_right


class ColumnHistogram:
    """Equi-depth histogram over one indexed column.

    Built from the index's per-column value distribution
    (``{segment: [(value, entry count), …] sorted}``).  Segments with at
    most :data:`BUCKETS` distinct values keep the exact distribution
    (bisect over it answers any range precisely); larger ones compress
    to ~``BUCKETS`` equi-depth boundaries with exact cumulative counts
    at each boundary, and numeric probes interpolate linearly inside a
    bucket — sub-bucket resolution is what keeps ~1%-selectivity range
    estimates within 2x instead of the flat constant's >10x.

    Fractions are relative to **all** entries of the column (every
    entry's column is non-null by the index contract), so
    ``entries × fraction`` is directly the row estimate.
    """

    BUCKETS = 64

    def __init__(self, distribution):
        self.total = sum(
            count
            for pairs in distribution.values()
            for _value, count in pairs
        )
        self._segments = {}
        for segment, pairs in distribution.items():
            if not pairs:
                continue
            values = [value for value, _count in pairs]
            cums = []
            running = 0
            for _value, count in pairs:
                running += count
                cums.append(running)
            if len(values) > self.BUCKETS:
                step = max(1, len(values) // self.BUCKETS)
                picks = list(range(0, len(values), step))
                if picks[-1] != len(values) - 1:
                    picks.append(len(values) - 1)
                values = [values[i] for i in picks]
                cums = [cums[i] for i in picks]
            self._segments[segment] = (values, cums, running)

    @staticmethod
    def _segment_for(value):
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, (int, float)):
            return None if value != value else "num"
        if isinstance(value, str):
            return "str"
        return None

    def _cumulative(self, segment, value, inclusive):
        """Estimated entries whose column value is <= (or <) ``value``."""
        values, cums, seg_total = self._segments[segment]
        position = (
            bisect_right(values, value)
            if inclusive
            else bisect_left(values, value)
        )
        if position == 0:
            return 0.0
        if position >= len(values):
            # Above (or at, inclusive) the last kept boundary.
            if not inclusive and values[-1] == value:
                return float(cums[-2]) if len(cums) > 1 else 0.0
            return float(seg_total)
        below = float(cums[position - 1])
        if segment == "num" and values[position] != values[position - 1]:
            span = values[position] - values[position - 1]
            # Distinct neighbours can still span 0.0: an int past 2**53
            # beside the float it rounds to.
            into = (value - values[position - 1]) / span if span else 0.0
            if 0.0 < into < 1.0:
                below += into * (cums[position] - cums[position - 1])
        return below

    def fraction(self, low, low_inclusive, high, high_inclusive):
        """Estimated fraction of entries inside the bounds, or None.

        None means the bounds fall outside the comparable scalar
        segments (the caller keeps its flat default); disjoint-segment
        or NaN bounds estimate zero, mirroring the index probes.
        """
        bound = low if low is not None else high
        segment = self._segment_for(bound)
        if segment is None:
            return None
        if (
            low is not None and high is not None
            and self._segment_for(high) != segment
        ):
            return 0.0
        if self.total == 0 or segment not in self._segments:
            return 0.0
        seg_total = self._segments[segment][2]
        lo = (
            self._cumulative(segment, low, not low_inclusive)
            if low is not None else 0.0
        )
        hi = (
            self._cumulative(segment, high, high_inclusive)
            if high is not None else float(seg_total)
        )
        return max(hi - lo, 0.0) / float(self.total)

    def prefix_fraction(self, prefix):
        """Estimated fraction of entries whose string starts with ``prefix``."""
        if not isinstance(prefix, str):
            return None
        if self.total == 0 or "str" not in self._segments:
            return 0.0
        # Strings sharing the prefix are exactly the range
        # [prefix, prefix + U+10FFFF…): the sentinel bounds every
        # realistic continuation.
        sentinel = prefix + "\U0010ffff" * 4
        lo = self._cumulative("str", prefix, False)
        hi = self._cumulative("str", sentinel, True)
        return max(hi - lo, 0.0) / float(self.total)


class GraphStatistics:
    """Immutable snapshot of the counters the cost model consumes.

    Histograms are the one lazy part: they are built on first use from
    the live graph (held by weakref so the snapshot cache never keeps a
    graph alive) and only while the graph still sits at the version the
    snapshot was taken at — any mutation makes the snapshot itself
    stale, and the planner's cache replaces it wholesale.
    """

    def __init__(self, graph):
        self.node_count = graph.node_count()
        self.relationship_count = graph.relationship_count()
        label_hook = getattr(graph, "label_cardinalities", None)
        type_hook = getattr(graph, "type_cardinalities", None)
        if label_hook is not None and type_hook is not None:
            self.label_counts = dict(label_hook())
            self.type_counts = dict(type_hook())
        else:
            self.label_counts = {}
            self.type_counts = {}
            for node in graph.nodes():
                for label in graph.labels(node):
                    self.label_counts[label] = (
                        self.label_counts.get(label, 0) + 1
                    )
            for rel in graph.relationships():
                rel_type = graph.rel_type(rel)
                self.type_counts[rel_type] = (
                    self.type_counts.get(rel_type, 0) + 1
                )
        # Each relationship contributes one outgoing and one incoming end,
        # so per-type degree totals coincide with the type cardinalities.
        self._out_degree_totals = dict(self.type_counts)
        self._in_degree_totals = dict(self.type_counts)
        index_hook = getattr(graph, "index_statistics", None)
        self.property_indexes = dict(index_hook()) if index_hook else {}
        prefix_hook = getattr(graph, "index_prefix_ndvs", None)
        self.index_prefix_ndv = {}
        if prefix_hook is not None:
            for label, keys in self.property_indexes:
                key_tuple = self._key_tuple(keys)
                self.index_prefix_ndv[(label, key_tuple)] = tuple(
                    prefix_hook(label, key_tuple)
                )
        reach_hook = getattr(graph, "reachability_statistics", None)
        self.reachability_indexes = dict(reach_hook()) if reach_hook else {}
        try:
            self._graph_ref = weakref.ref(graph)
        except TypeError:
            self._graph_ref = None
        self._graph_version = getattr(graph, "version", None)
        self._histograms = {}

    # -- cardinalities -------------------------------------------------------

    def nodes_with_label(self, label):
        """Estimated |{n : label ∈ λ(n)}| (exact, from the index)."""
        return self.label_counts.get(label, 0)

    def label_selectivity(self, label):
        """Fraction of nodes carrying ``label``; 1.0 on an empty graph."""
        if self.node_count == 0:
            return 1.0
        return self.nodes_with_label(label) / float(self.node_count)

    def relationships_with_type(self, rel_type):
        return self.type_counts.get(rel_type, 0)

    # -- property indexes ----------------------------------------------------

    @staticmethod
    def _key_tuple(keys):
        """Normalise a public index key (str or tuple) to a tuple."""
        if isinstance(keys, str):
            return (keys,)
        return tuple(keys)

    @staticmethod
    def _public_key(keys):
        """The public rendering the store uses: str for single keys."""
        if isinstance(keys, str):
            return keys
        keys = tuple(keys)
        return keys[0] if len(keys) == 1 else keys

    def has_property_index(self, label, keys):
        return (label, self._public_key(keys)) in self.property_indexes

    def property_ndv(self, label, keys):
        """Distinct indexed (full-tuple) values of an index, or None."""
        entry = self.property_indexes.get((label, self._public_key(keys)))
        return entry[0] if entry is not None else None

    def indexed_entries(self, label, keys):
        """Indexed entries of ``(label, keys)``, or None.

        This is the number of ``label`` nodes that *have* every key
        column — the population an index scan draws from, which is what
        equality and range estimates should start from (nodes missing a
        column can never satisfy either predicate).
        """
        entry = self.property_indexes.get((label, self._public_key(keys)))
        return entry[1] if entry is not None else None

    def composite_indexes(self, label):
        """Key tuples of every index on ``label``, single keys included.

        Sorted for deterministic candidate enumeration in the planner.
        """
        return sorted(
            self._key_tuple(keys)
            for indexed_label, keys in self.property_indexes
            if indexed_label == label
        )

    def prefix_ndv(self, label, keys, length):
        """Distinct canonical prefixes of the given length, or None.

        Direct per-prefix counts subsume per-column independence
        assumptions: functionally dependent columns show up as a prefix
        NDV that barely grows with depth.
        """
        ndvs = self.index_prefix_ndv.get((label, self._key_tuple(keys)))
        if ndvs is None or not 1 <= length <= len(ndvs):
            return None
        return ndvs[length - 1]

    # -- histograms ----------------------------------------------------------

    def column_histogram(self, label, keys, column):
        """The equi-depth histogram of one indexed column, or None.

        Built lazily from the live graph on first use; returns None
        once the graph moved past this snapshot's version (the planner
        cache replaces stale snapshots — and their histograms — wholesale).
        """
        keys = self._key_tuple(keys)
        cache_key = (label, keys, column)
        histogram = self._histograms.get(cache_key)
        if histogram is None:
            graph = self._graph_ref() if self._graph_ref is not None else None
            if (
                graph is None
                or getattr(graph, "version", None) != self._graph_version
            ):
                return None
            hook = getattr(graph, "index_column_distribution", None)
            if hook is None:
                return None
            histogram = ColumnHistogram(hook(label, keys, column))
            self._histograms[cache_key] = histogram
        return histogram

    def range_fraction(
        self, label, keys, column, low, low_inclusive, high, high_inclusive,
    ):
        """Histogram-backed range selectivity for one column, or None."""
        histogram = self.column_histogram(label, keys, column)
        if histogram is None:
            return None
        return histogram.fraction(low, low_inclusive, high, high_inclusive)

    def starts_with_fraction(self, label, keys, column, prefix):
        """Histogram-backed STARTS WITH selectivity, or None."""
        histogram = self.column_histogram(label, keys, column)
        if histogram is None:
            return None
        return histogram.prefix_fraction(prefix)

    # -- reachability indexes ------------------------------------------------

    def reachability_index_types(self):
        """Declared reachability type sets (tuples, or None = all types)."""
        return self.reachability_indexes.keys()

    def has_reachability_index(self, types=None):
        key = tuple(sorted(types)) if types else None
        return key in self.reachability_indexes

    # -- degrees ---------------------------------------------------------------

    def average_degree(self, types=None, direction="out"):
        """Mean number of relationships per node, optionally by type.

        ``direction`` is "out", "in" or "both"; "both" counts each
        relationship at both of its endpoints.
        """
        if self.node_count == 0:
            return 0.0
        if types is None:
            total = self.relationship_count
        else:
            total = sum(self.type_counts.get(t, 0) for t in types)
        if direction == "both":
            total *= 2
        return total / float(self.node_count)

    def expand_fanout(self, types=None, direction="out"):
        """Expected output rows per input row of an Expand step.

        A floor of a small epsilon keeps plan costs strictly positive so
        the planner never treats a traversal as free.
        """
        return max(self.average_degree(types, direction), 0.001)

    def __repr__(self):
        return (
            "GraphStatistics(nodes={}, relationships={}, labels={}, "
            "types={})".format(
                self.node_count,
                self.relationship_count,
                dict(sorted(self.label_counts.items())),
                dict(sorted(self.type_counts.items())),
            )
        )
