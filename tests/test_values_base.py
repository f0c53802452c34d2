"""Unit tests for identifiers, paths and the value universe (paper §4.1)."""

import copy
import json
import pickle

import pytest

from repro.ast.printer import print_literal
from repro.datasets.paper import figure1_graph
from repro.graph.io import dump_json, load_json
from repro.graph.store import MemoryGraph
from repro.values.base import NodeId, RelId, is_cypher_value, type_name
from repro.values.comparison import equals
from repro.values.ordering import canonical_key, sort_key
from repro.values.path import Path


class TestIdentifiers:
    def test_node_ids_equal_by_value(self):
        assert NodeId(1) == NodeId(1)
        assert NodeId(1) != NodeId(2)

    def test_node_and_rel_ids_are_disjoint(self):
        # N and R are disjoint sets in the paper's model.
        assert NodeId(1) != RelId(1)
        assert hash(NodeId(1)) != hash(RelId(1))

    def test_ids_are_hashable_and_usable_in_sets(self):
        ids = {NodeId(1), NodeId(1), NodeId(2)}
        assert len(ids) == 2

    def test_ids_are_immutable(self):
        node = NodeId(1)
        with pytest.raises(AttributeError):
            node.value = 5

    def test_ids_order_within_their_kind(self):
        assert NodeId(1) < NodeId(2)
        assert sorted([NodeId(3), NodeId(1)]) == [NodeId(1), NodeId(3)]

    def test_id_requires_integer(self):
        with pytest.raises(TypeError):
            NodeId("7")
        with pytest.raises(TypeError):
            RelId(True)

    def test_repr_and_str(self):
        assert repr(NodeId(4)) == "NodeId(4)"
        assert str(NodeId(4)) == "n4"
        assert str(RelId(2)) == "r2"


class TestIdentifiersAreTaggedTuples:
    """What the tuple representation could silently alter, pinned.

    Ids are ``(prefix, value)`` tuples under their own classes so that
    hashing and comparison run in C.  ``NodeId(1) != ("n", 1)`` is *not*
    promised (tuple equality says they are equal; plain tuples are not
    Cypher values and never meet an id), and ordering *across* kinds is
    by prefix rather than a ``TypeError`` — nothing compares raw ids
    across kinds, ``sort_key`` ranks the kind first.
    """

    def test_no_python_level_hash_or_comparison(self):
        for cls in (NodeId, RelId, NodeId.__mro__[1]):
            for name in ("__hash__", "__eq__", "__ne__", "__lt__"):
                assert name not in vars(cls), (cls, name)
        assert not hasattr(NodeId(1), "__dict__")

    def test_a_plain_tuple_is_not_a_value_and_an_id_is_not_a_list(self):
        assert not is_cypher_value(("n", 1))
        assert not is_cypher_value([("n", 1)])
        assert (type_name(NodeId(1)), type_name(RelId(1))) == (
            "Node", "Relationship"
        )
        # An id is its own canonical key, and keys no other value's.
        assert canonical_key(NodeId(7)) == NodeId(7)
        assert canonical_key(RelId(7)) == RelId(7)
        for other in (RelId(7), ["n", 7], "n7", 7):
            assert canonical_key(NodeId(7)) != canonical_key(other), other
        assert canonical_key([NodeId(7)]) != canonical_key([["n", 7]])
        assert equals(NodeId(1), NodeId(1)) is True
        assert equals(NodeId(1), RelId(1)) is False
        assert equals(NodeId(1), ["n", 1]) is False
        with pytest.raises(ValueError):
            print_literal(NodeId(1))

    def test_sort_key_ranks_kinds_first_and_is_unchanged(self):
        assert sort_key(NodeId(9)) == (1, 9)
        assert sort_key(RelId(2)) == (2, 2)
        assert sort_key([NodeId(9)]) == (3, ((1, 9),))
        mixed = [RelId(1), NodeId(5), RelId(0), NodeId(2)]
        assert sorted(mixed, key=sort_key) == [
            NodeId(2), NodeId(5), RelId(0), RelId(1)
        ]
        # Raw cross-kind ordering is by prefix: documented, unused.
        assert NodeId(9) < RelId(1)

    @pytest.mark.parametrize("make", [NodeId, RelId])
    def test_pickle_and_copy_round_trip_to_the_same_class(self, make):
        original = make(12)
        for clone in (
            pickle.loads(pickle.dumps(original)),
            copy.copy(original),
            copy.deepcopy(original),
            copy.deepcopy([original])[0],
        ):
            assert type(clone) is make
            assert clone == original and clone.value == 12

    def test_ids_survive_copy(self):
        graph, _ids = figure1_graph()
        clone = graph.copy()
        assert list(clone.nodes()) == list(graph.nodes())
        assert list(clone.relationships()) == list(graph.relationships())
        assert {type(n) for n in clone.nodes()} == {NodeId}
        assert {type(r) for r in clone.relationships()} == {RelId}

    def test_json_io_writes_values_never_ids(self):
        graph, _ids = figure1_graph()
        text = dump_json(graph)
        assert '"n"' not in text and '"r"' not in text
        document = json.loads(text)
        assert all(type(node["id"]) is int for node in document["nodes"])
        loaded = load_json(text)
        assert dump_json(loaded) == text
        assert list(loaded.nodes()) == list(graph.nodes())
        assert list(loaded.relationships()) == list(graph.relationships())


class TestPath:
    def test_single_node_path(self):
        path = Path.single(NodeId(1))
        assert len(path) == 0
        assert path.start == path.end == NodeId(1)

    def test_alternating_sequence(self):
        path = Path((NodeId(1), NodeId(2)), (RelId(1),))
        assert list(path.interleaved()) == [NodeId(1), RelId(1), NodeId(2)]

    def test_length_is_relationship_count(self):
        path = Path((NodeId(1), NodeId(2), NodeId(3)), (RelId(1), RelId(2)))
        assert len(path) == 2

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Path((NodeId(1), NodeId(2)), ())
        with pytest.raises(ValueError):
            Path((NodeId(1),), (RelId(1),))

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            Path((), ())

    def test_type_checks(self):
        with pytest.raises(TypeError):
            Path((1, 2), (RelId(1),))
        with pytest.raises(TypeError):
            Path((NodeId(1), NodeId(2)), (7,))

    def test_concat_requires_shared_endpoint(self):
        left = Path((NodeId(1), NodeId(2)), (RelId(1),))
        right = Path((NodeId(2), NodeId(3)), (RelId(2),))
        joined = left.concat(right)
        assert joined.nodes == (NodeId(1), NodeId(2), NodeId(3))
        assert joined.relationships == (RelId(1), RelId(2))

    def test_concat_mismatch_rejected(self):
        left = Path((NodeId(1), NodeId(2)), (RelId(1),))
        wrong = Path((NodeId(9), NodeId(3)), (RelId(2),))
        with pytest.raises(ValueError):
            left.concat(wrong)

    def test_equality_and_hash(self):
        a = Path((NodeId(1), NodeId(2)), (RelId(1),))
        b = Path((NodeId(1), NodeId(2)), (RelId(1),))
        assert a == b
        assert hash(a) == hash(b)

    def test_distinct_relationships_check(self):
        ok = Path((NodeId(1), NodeId(2), NodeId(1)), (RelId(1), RelId(2)))
        repeated = Path((NodeId(1), NodeId(2), NodeId(1)), (RelId(1), RelId(1)))
        assert ok.has_distinct_relationships()
        assert not repeated.has_distinct_relationships()

    def test_reverse(self):
        path = Path((NodeId(1), NodeId(2), NodeId(3)), (RelId(1), RelId(2)))
        assert path.reverse().nodes == (NodeId(3), NodeId(2), NodeId(1))
        assert path.reverse().relationships == (RelId(2), RelId(1))

    def test_paths_are_immutable(self):
        path = Path.single(NodeId(1))
        with pytest.raises(AttributeError):
            path.nodes = ()


class TestValueUniverse:
    @pytest.mark.parametrize(
        "value",
        [None, True, False, 0, -3, 2.5, "text", [], [1, "a", None],
         {"k": 1}, {"k": [1, {"n": None}]}, NodeId(1), RelId(2),
         Path.single(NodeId(1))],
    )
    def test_members_of_v(self, value):
        assert is_cypher_value(value)

    def test_map_keys_must_be_strings(self):
        assert not is_cypher_value({1: "x"})

    def test_nested_invalid_values_detected(self):
        assert not is_cypher_value([object()])

    @pytest.mark.parametrize(
        "value,name",
        [
            (None, "Null"),
            (True, "Boolean"),
            (1, "Integer"),
            (1.5, "Float"),
            ("s", "String"),
            ([], "List"),
            ({}, "Map"),
            (NodeId(1), "Node"),
            (RelId(1), "Relationship"),
            (Path.single(NodeId(1)), "Path"),
        ],
    )
    def test_type_names(self, value, name):
        assert type_name(value) == name
