"""The abstract read interface of a property graph, plus entity views.

Everything downstream of the store — pattern matching, expression
evaluation, planning — programs against :class:`PropertyGraph`, so the
semantics is store-agnostic (the paper's point that different
implementations should agree on the language, not the storage).
"""

from __future__ import annotations

from repro.exceptions import EntityNotFound


class PropertyGraph:
    """Read-only view of ``G = ⟨N, R, src, tgt, ι, λ, τ⟩``."""

    # -- the formal tuple ---------------------------------------------------

    def nodes(self):
        """Iterate over N (all node ids)."""
        raise NotImplementedError

    def relationships(self):
        """Iterate over R (all relationship ids)."""
        raise NotImplementedError

    def src(self, rel_id):
        """The source node of a relationship (the function ``src``)."""
        raise NotImplementedError

    def tgt(self, rel_id):
        """The target node of a relationship (the function ``tgt``)."""
        raise NotImplementedError

    def property_value(self, entity_id, key):
        """``ι(entity, key)``; returns None where ι is undefined."""
        raise NotImplementedError

    def properties(self, entity_id):
        """All defined properties of an entity as a dict (a map value)."""
        raise NotImplementedError

    def labels(self, node_id):
        """``λ(n)`` — the (possibly empty) set of labels of a node."""
        raise NotImplementedError

    def has_label(self, node_id, label):
        """``label ∈ λ(n)``; stores override with an O(1) membership test."""
        return label in self.labels(node_id)

    def node_property(self, node_id, key):
        """``ι(node, key)`` for a node; stores may shortcut the dispatch."""
        return self.property_value(node_id, key)

    def rel_type(self, rel_id):
        """``τ(r)`` — the single type of a relationship."""
        raise NotImplementedError

    # -- membership ----------------------------------------------------------

    def has_node(self, node_id):
        raise NotImplementedError

    def has_relationship(self, rel_id):
        raise NotImplementedError

    # -- index-backed accessors (defaults scan; stores override) -------------

    def nodes_with_label(self, label):
        """All nodes n with ``label ∈ λ(n)``."""
        return (n for n in self.nodes() if label in self.labels(n))

    def outgoing(self, node_id, types=None):
        """Relationship ids whose source is ``node_id``.

        ``types`` optionally restricts to a set of relationship types.
        This is the access path the paper's Expand operator relies on.
        """
        for rel in self.relationships():
            if self.src(rel) == node_id:
                if types is None or self.rel_type(rel) in types:
                    yield rel

    def incoming(self, node_id, types=None):
        """Relationship ids whose target is ``node_id``."""
        for rel in self.relationships():
            if self.tgt(rel) == node_id:
                if types is None or self.rel_type(rel) in types:
                    yield rel

    def touching(self, node_id, types=None):
        """Relationships incident to the node in either direction.

        Self-loops are yielded once.
        """
        seen = set()
        for rel in self.outgoing(node_id, types):
            seen.add(rel)
            yield rel
        for rel in self.incoming(node_id, types):
            if rel not in seen:
                yield rel

    def relationships_with_type(self, rel_type):
        return (
            r for r in self.relationships() if self.rel_type(r) == rel_type
        )

    # -- counting (planner statistics hooks) ---------------------------------

    def node_count(self):
        return sum(1 for _ in self.nodes())

    def relationship_count(self):
        return sum(1 for _ in self.relationships())

    def other_end(self, rel_id, node_id):
        """The endpoint of ``rel_id`` that is not ``node_id``.

        For a self-loop both ends coincide and ``node_id`` is returned.
        """
        source, target = self.src(rel_id), self.tgt(rel_id)
        if source == node_id:
            return target
        if target == node_id:
            return source
        raise EntityNotFound(
            "relationship %r does not touch node %r" % (rel_id, node_id)
        )

    # -- user-facing views ----------------------------------------------------

    def node(self, node_id):
        """A convenience :class:`NodeView` over a node id."""
        if not self.has_node(node_id):
            raise EntityNotFound("no node %r in graph" % (node_id,))
        return NodeView(self, node_id)

    def relationship(self, rel_id):
        """A convenience :class:`RelationshipView` over a relationship id."""
        if not self.has_relationship(rel_id):
            raise EntityNotFound("no relationship %r in graph" % (rel_id,))
        return RelationshipView(self, rel_id)


class NodeView:
    """A lightweight, user-friendly handle on a node in a specific graph."""

    __slots__ = ("graph", "id")

    def __init__(self, graph, node_id):
        self.graph = graph
        self.id = node_id

    @property
    def labels(self):
        return frozenset(self.graph.labels(self.id))

    @property
    def properties(self):
        return dict(self.graph.properties(self.id))

    def __getitem__(self, key):
        return self.graph.property_value(self.id, key)

    def __eq__(self, other):
        return (
            isinstance(other, NodeView)
            and other.id == self.id
            and other.graph is self.graph
        )

    def __hash__(self):
        return hash((id(self.graph), self.id))

    def __repr__(self):
        labels = "".join(":" + label for label in sorted(self.labels))
        return "({}{} {})".format(self.id, labels, self.properties)


class RelationshipView:
    """A lightweight, user-friendly handle on a relationship."""

    __slots__ = ("graph", "id")

    def __init__(self, graph, rel_id):
        self.graph = graph
        self.id = rel_id

    @property
    def type(self):
        return self.graph.rel_type(self.id)

    @property
    def source(self):
        return self.graph.src(self.id)

    @property
    def target(self):
        return self.graph.tgt(self.id)

    @property
    def properties(self):
        return dict(self.graph.properties(self.id))

    def __getitem__(self, key):
        return self.graph.property_value(self.id, key)

    def __eq__(self, other):
        return (
            isinstance(other, RelationshipView)
            and other.id == self.id
            and other.graph is self.graph
        )

    def __hash__(self):
        return hash((id(self.graph), self.id))

    def __repr__(self):
        return "({})-[{}:{} {}]->({})".format(
            self.source, self.id, self.type, self.properties, self.target
        )
