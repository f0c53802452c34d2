"""Unit tests for the incremental reachability index.

The core contract, checked by brute force on small random graphs:
``reachable(u, v)`` equals membership in the transitive closure after
*every* mutation, and the canonical snapshot of the incrementally
maintained condensation equals a from-scratch ``build`` at every step.
The shape-specific paths — interval containment on forests, GRAIL
pruning on DAGs, SCC merge on cycle-closing inserts and local re-split
on intra-component deletes — all funnel through the same two checks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.reachability import (
    ReachabilityIndex,
    best_covering,
    reachability_key,
)

from fuzztools import fixture_graph


def brute_closure(edges):
    """Transitive-closure pairs of ``{rel: (src, tgt)}`` by iteration."""
    adjacency = {}
    for source, target in edges.values():
        adjacency.setdefault(source, set()).add(target)
    closure = {
        (node, node)
        for pair in edges.values()
        for node in pair
    }
    closure.update(
        (source, target)
        for source, targets in adjacency.items()
        for target in targets
    )
    changed = True
    while changed:
        changed = False
        for source, middle in list(closure):
            for target in adjacency.get(middle, ()):
                if (source, target) not in closure:
                    closure.add((source, target))
                    changed = True
    return closure


def assert_matches_brute_force(index, edges):
    nodes = sorted({node for pair in edges.values() for node in pair})
    closure = brute_closure(edges)
    for source in nodes:
        for target in nodes:
            expected = source == target or (source, target) in closure
            assert index.reachable(source, target) == expected, (
                source, target, sorted(edges.items())
            )
    rebuilt = ReachabilityIndex(index.types)
    rebuilt.build(
        (rel, source, target)
        for rel, (source, target) in edges.items()
    )
    assert index.snapshot() == rebuilt.snapshot(), sorted(edges.items())


@st.composite
def mutation_scripts(draw):
    """Interleaved adds and removes over a small node universe."""
    count = draw(st.integers(min_value=2, max_value=8))
    steps = []
    live = []
    next_rel = 0
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        if live and draw(st.integers(min_value=0, max_value=3)) == 0:
            victim = live.pop(draw(
                st.integers(min_value=0, max_value=len(live) - 1)
            ))
            steps.append(("remove", victim, None, None))
        else:
            source = draw(st.integers(min_value=0, max_value=count - 1))
            target = draw(st.integers(min_value=0, max_value=count - 1))
            steps.append(("add", next_rel, source, target))
            live.append(next_rel)
            next_rel += 1
    return steps


class TestBruteForceDifferential:
    @settings(max_examples=60, deadline=None)
    @given(script=mutation_scripts())
    def test_incremental_equals_closure_and_rebuild(self, script):
        index = ReachabilityIndex(None)
        edges = {}
        for action, rel, source, target in script:
            if action == "add":
                index.add_edge(rel, source, target)
                edges[rel] = (source, target)
            else:
                index.remove_edge(rel)
                del edges[rel]
            assert_matches_brute_force(index, edges)

    def test_deep_chain_is_iterative(self):
        index = ReachabilityIndex(None)
        depth = 5000
        for step in range(depth):
            index.add_edge(step, step, step + 1)
        assert index.reachable(0, depth)
        assert not index.reachable(depth, 0)
        assert index.statistics()["components"] == depth + 1

    def test_deep_cycle_merge_and_resplit(self):
        index = ReachabilityIndex(None)
        size = 2000
        for step in range(size):
            index.add_edge(step, step, (step + 1) % size)
        assert index.statistics()["components"] == 1
        assert index.reachable(size - 1, 0)
        index.remove_edge(size - 1)
        assert index.statistics()["components"] == size
        assert index.reachable(0, size - 1)
        assert not index.reachable(size - 1, 0)

    def test_redundant_edge_removal_runs_no_tarjan(self, monkeypatch):
        """Only a delete that can split the component pays for Tarjan.

        A ring with one chord, and a self-loop on the ring: dropping the
        chord or the loop leaves the endpoints connected round the ring,
        so the early-exit search answers and Tarjan never runs; dropping
        a ring edge afterwards is a bridge delete and must still split.
        """
        index = ReachabilityIndex(None)
        size = 6
        edges = {step: (step, (step + 1) % size) for step in range(size)}
        edges["chord"] = (0, 3)
        edges["loop"] = (2, 2)
        for rel, (source, target) in edges.items():
            index.add_edge(rel, source, target)
        tarjans = []
        original = ReachabilityIndex._tarjan

        def counting(self, nodes, local):
            tarjans.append(len(nodes))
            return original(self, nodes, local)

        monkeypatch.setattr(ReachabilityIndex, "_tarjan", counting)
        for rel in ("chord", "loop"):
            index.remove_edge(rel)
            del edges[rel]
            assert index.statistics()["components"] == 1
        assert tarjans == []
        monkeypatch.undo()  # the oracle's rebuild may run Tarjan freely
        assert_matches_brute_force(index, edges)
        monkeypatch.setattr(ReachabilityIndex, "_tarjan", counting)
        index.remove_edge(2)  # 2→3 was the only way on: the ring opens
        del edges[2]
        assert tarjans == [size]
        assert index.statistics()["components"] == size
        monkeypatch.undo()
        assert_matches_brute_force(index, edges)


class TestEdgeCases:
    def test_zero_length_and_untracked_nodes(self):
        index = ReachabilityIndex(None)
        assert index.reachable("ghost", "ghost")
        assert not index.reachable("ghost", "other")
        index.add_edge(0, "a", "b")
        assert index.reachable("a", "a")
        assert not index.reachable("b", "a")
        assert not index.reachable("a", "ghost")

    def test_self_loop(self):
        index = ReachabilityIndex(None)
        index.add_edge(0, "a", "a")
        assert index.reachable("a", "a")
        index.remove_edge(0)
        assert index.snapshot() == ReachabilityIndex(None).snapshot()

    def test_add_and_remove_are_idempotent(self):
        index = ReachabilityIndex(None)
        index.add_edge(0, "a", "b")
        before = index.snapshot()
        index.add_edge(0, "a", "b")
        assert index.snapshot() == before
        index.remove_edge(0)
        after = index.snapshot()
        index.remove_edge(0)
        assert index.snapshot() == after

    def test_parallel_edges_keep_reachability_until_last_removal(self):
        index = ReachabilityIndex(None)
        index.add_edge(0, "a", "b")
        index.add_edge(1, "a", "b")
        index.remove_edge(0)
        assert index.reachable("a", "b")
        index.remove_edge(1)
        assert not index.reachable("a", "b")

    def test_covers_respects_the_type_set(self):
        assert ReachabilityIndex(None).covers("anything")
        typed = ReachabilityIndex(frozenset(["R", "S"]))
        assert typed.covers("R")
        assert not typed.covers("T")


class TestCoveringSelection:
    def test_key_normalisation(self):
        assert reachability_key(None) is None
        assert reachability_key([]) is None
        assert reachability_key(["R", "R", "S"]) == frozenset(["R", "S"])

    def test_exact_beats_superset_beats_all_types(self):
        available = {
            None: "all",
            frozenset(["R"]): "exact",
            frozenset(["R", "S"]): "small",
            frozenset(["R", "S", "T"]): "large",
        }
        assert best_covering(frozenset(["R"]), available) == frozenset(["R"])
        assert best_covering(
            frozenset(["S"]), available
        ) == frozenset(["R", "S"])
        assert best_covering(frozenset(["Q"]), available) is None
        assert best_covering(None, available) is None

    def test_untyped_patterns_need_the_all_types_index(self):
        typed_only = {frozenset(["R"]): "exact"}
        assert best_covering(None, typed_only) is best_covering.MISS
        assert best_covering(
            frozenset(["T"]), typed_only
        ) is best_covering.MISS


class TestStoreApi:
    def test_create_drop_and_statistics(self):
        graph = fixture_graph()
        assert graph.create_reachability_index(["R"])
        assert not graph.create_reachability_index(["R"])
        assert graph.has_reachability_index(["R"])
        assert not graph.has_reachability_index()
        assert graph.create_reachability_index()
        assert graph.reachability_indexes() == [None, ("R",)]
        statistics = graph.reachability_statistics()
        assert statistics[("R",)]["types"] == ("R",)
        assert statistics[None]["edges"] == 12
        assert statistics[None]["nodes"] == 9
        assert graph.drop_reachability_index(["R"])
        assert not graph.drop_reachability_index(["R"])
        assert graph.reachability_indexes() == [None]

    def test_invalid_types_raise(self):
        graph = fixture_graph()
        with pytest.raises(ValueError):
            graph.create_reachability_index([""])
        with pytest.raises(ValueError):
            graph.create_reachability_index([1])

    def test_index_for_prefers_the_tightest_cover(self):
        graph = fixture_graph()
        graph.create_reachability_index()
        graph.create_reachability_index(["R"])
        graph.create_reachability_index(["R", "S"])
        assert graph.reachability_index_for(["R"]).types == frozenset(["R"])
        assert graph.reachability_index_for(["S"]).types == frozenset(
            ["R", "S"]
        )
        assert graph.reachability_index_for(["R", "T"]).types is None
        assert graph.reachability_index_for().types is None
        assert fixture_graph().reachability_index_for(["R"]) is None

    def test_shortest_path_agrees_with_and_without_index(self):
        from repro.algorithms.paths import shortest_path

        from fuzztools import reachability_fixture_graph

        plain = fixture_graph()
        indexed = reachability_fixture_graph()
        nodes = sorted(plain.nodes())
        for rel_types in (None, ["R"], ["S"]):
            for directed in (True, False):
                for source in nodes:
                    for target in nodes:
                        without = shortest_path(
                            plain, source, target, rel_types, directed
                        )
                        with_index = shortest_path(
                            indexed, source, target, rel_types, directed
                        )
                        assert (without is None) == (with_index is None), (
                            source, target, rel_types, directed
                        )
                        if without is not None:
                            # Equal-length ties may resolve differently
                            # once dead subtrees are pruned.
                            assert len(without) == len(with_index)

    def test_maintenance_tracks_only_covered_types(self):
        graph = fixture_graph()
        graph.create_reachability_index(["S"])
        engine_edges = graph.reachability_statistics()[("S",)]["edges"]
        assert engine_edges == 5  # the fixture's :S relationships
        snapshot = graph.reachability_snapshot(["S"])
        rebuilt = graph.copy()
        assert rebuilt.reachability_snapshot(["S"]) == snapshot
