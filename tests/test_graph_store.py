"""Unit tests for the MemoryGraph store (the ⟨N,R,src,tgt,ι,λ,τ⟩ tuple)."""

import pytest

from repro.exceptions import ConstraintViolation, EntityNotFound
from repro.graph.store import MemoryGraph
from repro.values.base import NodeId, RelId


@pytest.fixture
def graph():
    return MemoryGraph()


class TestNodes:
    def test_create_node_assigns_fresh_ids(self, graph):
        first = graph.create_node()
        second = graph.create_node()
        assert first != second
        assert graph.node_count() == 2

    def test_labels_and_properties(self, graph):
        node = graph.create_node(("Person", "Admin"), {"name": "Ann"})
        assert graph.labels(node) == frozenset({"Person", "Admin"})
        assert graph.property_value(node, "name") == "Ann"
        assert graph.properties(node) == {"name": "Ann"}

    def test_iota_is_partial(self, graph):
        node = graph.create_node()
        assert graph.property_value(node, "missing") is None

    def test_null_properties_are_not_stored(self, graph):
        node = graph.create_node((), {"a": None, "b": 1})
        assert graph.properties(node) == {"b": 1}

    def test_label_index(self, graph):
        ann = graph.create_node(("Person",))
        graph.create_node(("Animal",))
        assert list(graph.nodes_with_label("Person")) == [ann]
        assert list(graph.nodes_with_label("Nothing")) == []

    def test_add_and_remove_label_updates_index(self, graph):
        node = graph.create_node()
        graph.add_label(node, "X")
        assert list(graph.nodes_with_label("X")) == [node]
        graph.remove_label(node, "X")
        assert list(graph.nodes_with_label("X")) == []

    def test_unknown_node_raises(self, graph):
        with pytest.raises(EntityNotFound):
            graph.labels(NodeId(99))
        with pytest.raises(EntityNotFound):
            graph.properties(NodeId(99))

    def test_invalid_property_values_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.create_node((), {"bad": object()})
        with pytest.raises(ValueError):
            graph.create_node((), {1: "x"})


class TestRelationships:
    def test_src_tgt_tau(self, graph):
        a, b = graph.create_node(), graph.create_node()
        rel = graph.create_relationship(a, b, "KNOWS", {"since": 1999})
        assert graph.src(rel) == a
        assert graph.tgt(rel) == b
        assert graph.rel_type(rel) == "KNOWS"
        assert graph.property_value(rel, "since") == 1999

    def test_adjacency_lists(self, graph):
        a, b, c = (graph.create_node() for _ in range(3))
        ab = graph.create_relationship(a, b, "R")
        ac = graph.create_relationship(a, c, "R")
        cb = graph.create_relationship(c, b, "S")
        assert set(graph.outgoing(a)) == {ab, ac}
        assert set(graph.incoming(b)) == {ab, cb}
        assert set(graph.outgoing(a, {"R"})) == {ab, ac}
        assert set(graph.incoming(b, {"S"})) == {cb}

    def test_touching_counts_self_loop_once(self, graph):
        node = graph.create_node()
        loop = graph.create_relationship(node, node, "LOOP")
        assert list(graph.touching(node)) == [loop]

    def test_other_end(self, graph):
        a, b = graph.create_node(), graph.create_node()
        rel = graph.create_relationship(a, b, "R")
        assert graph.other_end(rel, a) == b
        assert graph.other_end(rel, b) == a
        stranger = graph.create_node()
        with pytest.raises(EntityNotFound):
            graph.other_end(rel, stranger)

    def test_type_index(self, graph):
        a, b = graph.create_node(), graph.create_node()
        rel = graph.create_relationship(a, b, "R")
        assert list(graph.relationships_with_type("R")) == [rel]
        assert list(graph.relationships_with_type("X")) == []

    def test_endpoints_must_exist(self, graph):
        node = graph.create_node()
        with pytest.raises(EntityNotFound):
            graph.create_relationship(node, NodeId(99), "R")

    def test_type_must_be_nonempty_string(self, graph):
        a, b = graph.create_node(), graph.create_node()
        with pytest.raises(ValueError):
            graph.create_relationship(a, b, "")

    def test_degree(self, graph):
        a, b = graph.create_node(), graph.create_node()
        graph.create_relationship(a, b, "R")
        graph.create_relationship(a, b, "S")
        assert graph.degree(a, "out") == 2
        assert graph.degree(a, "in") == 0
        assert graph.degree(b, "both") == 2
        assert graph.degree(a, "out", rel_type="R") == 1


class TestDeletion:
    def test_delete_relationship(self, graph):
        a, b = graph.create_node(), graph.create_node()
        rel = graph.create_relationship(a, b, "R")
        graph.delete_relationship(rel)
        assert graph.relationship_count() == 0
        assert list(graph.outgoing(a)) == []
        assert list(graph.incoming(b)) == []

    def test_delete_connected_node_requires_detach(self, graph):
        a, b = graph.create_node(), graph.create_node()
        graph.create_relationship(a, b, "R")
        with pytest.raises(ConstraintViolation):
            graph.delete_node(a)
        graph.delete_node(a, detach=True)
        assert graph.node_count() == 1
        assert graph.relationship_count() == 0

    def test_detach_delete_self_loop(self, graph):
        node = graph.create_node()
        graph.create_relationship(node, node, "LOOP")
        graph.delete_node(node, detach=True)
        assert graph.node_count() == 0
        assert graph.relationship_count() == 0

    def test_delete_unknown_entities_raise(self, graph):
        with pytest.raises(EntityNotFound):
            graph.delete_node(NodeId(9))
        with pytest.raises(EntityNotFound):
            graph.delete_relationship(RelId(9))


class TestMutation:
    def test_set_property_and_remove(self, graph):
        node = graph.create_node()
        graph.set_property(node, "k", 5)
        assert graph.property_value(node, "k") == 5
        graph.set_property(node, "k", None)  # null erases
        assert graph.property_value(node, "k") is None
        graph.set_property(node, "k", 1)
        graph.remove_property(node, "k")
        assert graph.properties(node) == {}

    def test_replace_properties(self, graph):
        node = graph.create_node((), {"a": 1, "b": 2})
        graph.replace_properties(node, {"c": 3})
        assert graph.properties(node) == {"c": 3}

    def test_merge_properties(self, graph):
        node = graph.create_node((), {"a": 1, "b": 2})
        graph.merge_properties(node, {"b": 20, "c": 30, "a": None})
        assert graph.properties(node) == {"b": 20, "c": 30}


class TestCopyAndAdopt:
    def test_copy_is_deep(self, graph):
        node = graph.create_node(("L",), {"list": [1, 2]})
        clone = graph.copy()
        graph.set_property(node, "list", [9])
        graph.add_label(node, "Extra")
        assert clone.property_value(node, "list") == [1, 2]
        assert clone.labels(node) == frozenset({"L"})

    def test_copy_preserves_id_sequence(self, graph):
        graph.create_node()
        clone = graph.copy()
        new_in_clone = clone.create_node()
        new_in_original = graph.create_node()
        assert new_in_clone == new_in_original  # same next id

    def test_adopt_node_preserves_identity(self, graph):
        foreign = NodeId(42)
        graph.adopt_node(foreign, ("Person",), {"name": "Ann"})
        assert graph.has_node(foreign)
        assert graph.labels(foreign) == frozenset({"Person"})
        # and the id counter moved past the adopted id
        assert graph.create_node().value > 42

    def test_adopt_duplicate_rejected(self, graph):
        node = graph.create_node()
        with pytest.raises(ValueError):
            graph.adopt_node(node)

    def test_views(self, graph):
        a = graph.create_node(("Person",), {"name": "Ann"})
        b = graph.create_node()
        rel = graph.create_relationship(a, b, "KNOWS", {"w": 1})
        view = graph.node(a)
        assert view.labels == frozenset({"Person"})
        assert view["name"] == "Ann"
        rel_view = graph.relationship(rel)
        assert rel_view.type == "KNOWS"
        assert rel_view.source == a and rel_view.target == b
        assert rel_view["w"] == 1


class TestTypeSegmentedAdjacency:
    """The segmented access paths behind the slotted executor's Expand."""

    def test_multi_type_filter_preserves_insertion_order(self, graph):
        a, b = graph.create_node(), graph.create_node()
        r1 = graph.create_relationship(a, b, "R")
        s1 = graph.create_relationship(a, b, "S")
        r2 = graph.create_relationship(a, b, "R")
        t1 = graph.create_relationship(a, b, "T")
        assert list(graph.outgoing(a, {"R", "S", "T"})) == [r1, s1, r2, t1]
        assert list(graph.outgoing(a, {"R"})) == [r1, r2]
        assert list(graph.outgoing(a, {"X"})) == []
        assert list(graph.incoming(b, {"S", "T"})) == [s1, t1]

    def test_segments_shrink_on_deletion(self, graph):
        a, b = graph.create_node(), graph.create_node()
        r1 = graph.create_relationship(a, b, "R")
        r2 = graph.create_relationship(a, b, "R")
        graph.delete_relationship(r1)
        assert list(graph.outgoing(a, {"R"})) == [r2]
        graph.delete_relationship(r2)
        assert list(graph.outgoing(a, {"R"})) == []
        assert graph.degree(a, "out", rel_type="R") == 0

    def test_copy_keeps_segments(self, graph):
        a, b = graph.create_node(), graph.create_node()
        rel = graph.create_relationship(a, b, "R")
        clone = graph.copy()
        assert list(clone.outgoing(a, {"R"})) == [rel]
        graph.delete_relationship(rel)
        assert list(clone.outgoing(a, {"R"})) == [rel]
        assert clone.degree(b, "in", rel_type="R") == 1

    def test_cardinality_hooks_match_indexes(self, graph):
        a = graph.create_node(("Person",))
        graph.create_node(("Person", "Admin"))
        graph.create_relationship(a, a, "LOOP")
        assert graph.label_cardinalities() == {"Person": 2, "Admin": 1}
        assert graph.type_cardinalities() == {"LOOP": 1}

    def test_scan_cache_tracks_mutations(self, graph):
        first = graph.create_node(("L",))
        assert list(graph.nodes_with_label("L")) == [first]
        assert list(graph.nodes_with_label("L")) == [first]  # cached call
        second = graph.create_node(("L",))
        assert list(graph.nodes_with_label("L")) == [first, second]
        graph.delete_node(first)
        assert list(graph.nodes_with_label("L")) == [second]


class TestIncrementalDegree:
    """degree() is O(1) off the segment lengths; check every transition."""

    def test_degree_after_create(self, graph):
        a, b = graph.create_node(), graph.create_node()
        assert graph.degree(a) == 0
        graph.create_relationship(a, b, "R")
        graph.create_relationship(b, a, "S")
        assert graph.degree(a, "out") == 1
        assert graph.degree(a, "in") == 1
        assert graph.degree(a, "both") == 2
        assert graph.degree(a, "out", rel_type="S") == 0
        assert graph.degree(a, "in", rel_type="S") == 1

    def test_degree_after_delete(self, graph):
        a, b = graph.create_node(), graph.create_node()
        rel = graph.create_relationship(a, b, "R")
        graph.create_relationship(a, b, "R")
        graph.delete_relationship(rel)
        assert graph.degree(a, "out") == 1
        assert graph.degree(a, "out", rel_type="R") == 1
        assert graph.degree(b, "in") == 1

    def test_degree_after_detach_delete(self, graph):
        a, b, c = (graph.create_node() for _ in range(3))
        graph.create_relationship(a, b, "R")
        graph.create_relationship(c, b, "R")
        graph.delete_node(a, detach=True)
        assert graph.degree(b, "in") == 1
        assert graph.degree(b, "in", rel_type="R") == 1
        assert graph.degree(c, "out") == 1

    def test_self_loop_counts_twice_in_both(self, graph):
        node = graph.create_node()
        graph.create_relationship(node, node, "LOOP")
        assert graph.degree(node, "out") == 1
        assert graph.degree(node, "in") == 1
        assert graph.degree(node, "both") == 2


class TestSelfLoopDeletion:
    """Regression: incident-edge collection must not double-count loops.

    delete_node gathers outgoing plus incoming-minus-outgoing (now via a
    set, not an O(d) list probe); a self-loop appears in both lists and
    must be deleted exactly once.
    """

    def test_delete_node_with_self_loop_and_neighbours(self, graph):
        node, other = graph.create_node(), graph.create_node()
        graph.create_relationship(node, node, "LOOP")
        graph.create_relationship(node, other, "OUT")
        graph.create_relationship(other, node, "IN")
        graph.delete_node(node, detach=True)
        assert graph.node_count() == 1
        assert graph.relationship_count() == 0
        assert list(graph.outgoing(other)) == []
        assert list(graph.incoming(other)) == []

    def test_loop_still_blocks_undetached_delete(self, graph):
        node = graph.create_node()
        graph.create_relationship(node, node, "LOOP")
        with pytest.raises(ConstraintViolation):
            graph.delete_node(node)
        assert graph.has_node(node)

    def test_many_loops_deleted_once_each(self, graph):
        node = graph.create_node()
        for _ in range(5):
            graph.create_relationship(node, node, "LOOP")
        graph.delete_node(node, detach=True)
        assert graph.relationship_count() == 0


class TestIndexAliasing:
    """``copy()`` must never alias index internals.

    A copied graph's indexes must be independent — a shared segment
    list or postings set would let mutations on one graph corrupt the
    other's index silently (reads would drift from a rebuild).
    """

    def make_indexed(self):
        graph = MemoryGraph()
        for value in (1, 1, 2, 3):
            graph.create_node(["L"], {"v": value})
        graph.create_index("L", "v")
        return graph

    def test_mutating_the_copy_leaves_the_original_index_alone(self):
        original = self.make_indexed()
        before = original.index_snapshot("L", "v")
        clone = original.copy()
        clone.create_node(["L"], {"v": 99})
        for node in list(clone.nodes()):
            if clone.property_value(node, "v") == 1:
                clone.set_property(node, "v", 42)
        assert original.index_snapshot("L", "v") == before

    def test_mutating_the_original_leaves_the_copy_alone(self):
        original = self.make_indexed()
        clone = original.copy()
        before = clone.index_snapshot("L", "v")
        original.create_node(["L"], {"v": 77})
        assert clone.index_snapshot("L", "v") == before

