"""Integration: the paper's Section 3 industry queries on synthetic data
(E2 network management, E3 fraud detection)."""

from collections import Counter

import networkx as nx
import pytest

from repro.datasets.datacenter import datacenter_graph
from repro.datasets.fraud import fraud_graph

from fuzztools import run_both

NETWORK_QUERY = (
    "MATCH (svc:Service)<-[:DEPENDS_ON*]-(dep:Service) "
    "RETURN svc, count(DISTINCT dep) AS dependents "
    "ORDER BY dependents DESC "
    "LIMIT 1"
)

FRAUD_QUERY = (
    "MATCH (accHolder:AccountHolder)-[:HAS]->(pInfo) "
    "WHERE pInfo:SSN OR pInfo:PhoneNumber OR pInfo:Address "
    "WITH pInfo, "
    "collect(accHolder.uniqueId) AS accountHolders, "
    "count(*) AS fraudRingCount "
    "WHERE fraudRingCount > 1 "
    "RETURN accountHolders, "
    "labels(pInfo) AS personalInformation, "
    "fraudRingCount"
)


class TestNetworkManagement:
    """'returns the component that is depended upon — both directly and
    indirectly — by the largest number of entities.'"""

    def test_against_networkx_ground_truth(self):
        graph, _layers = datacenter_graph(layers=4, width=5, fanout=2, seed=3)
        # ground truth: transitive dependents per service, via networkx
        digraph = nx.DiGraph()
        for rel in graph.relationships():
            digraph.add_edge(graph.src(rel), graph.tgt(rel))
        for node in graph.nodes():
            digraph.add_node(node)
        dependents = {
            node: len(nx.ancestors(digraph, node)) for node in digraph.nodes
        }
        best_count = max(dependents.values())

        result = run_both(graph, NETWORK_QUERY)
        record = result.single()
        assert record["dependents"] == best_count
        assert dependents[record["svc"]] == best_count

    def test_core_layer_wins(self):
        graph, layers = datacenter_graph(layers=3, width=4, fanout=2, seed=1)
        result = run_both(graph, NETWORK_QUERY)
        winner = result.single()["svc"]
        assert winner in layers[0]  # the core layer accumulates dependents


class TestFraudDetection:
    """'returns details regarding a potential fraud ring, in which distinct
    account holders share personal information.'"""

    def test_planted_rings_are_found(self):
        graph, planted = fraud_graph(holders=20, rings=3, ring_size=3, seed=7)
        result = run_both(graph, FRAUD_QUERY)
        found_counts = {
            tuple(sorted(record["accountHolders"])): record["fraudRingCount"]
            for record in result.records
        }
        assert len(result) == len(planted)
        for ring in planted:
            members = tuple(
                sorted(
                    graph.property_value(member, "uniqueId")
                    for member in ring["members"]
                )
            )
            assert members in found_counts
            assert found_counts[members] == len(ring["members"])

    def test_labels_function_reports_pii_kind(self):
        graph, planted = fraud_graph(holders=12, rings=1, ring_size=4, seed=5)
        result = run_both(graph, FRAUD_QUERY)
        record = result.single()
        assert record["personalInformation"] == [planted[0]["label"]]

    def test_no_rings_no_rows(self):
        graph, _ = fraud_graph(holders=10, rings=0, seed=2)
        result = run_both(graph, FRAUD_QUERY)
        assert len(result) == 0


class TestCitationWorkload:
    def test_supervision_counts_match_direct_count(self):
        from repro.datasets.citations import citation_network

        graph, handles = citation_network(
            publications=25, researchers=6, students=8, seed=11
        )
        result = run_both(
            graph,
            "MATCH (r:Researcher) "
            "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
            "RETURN r, count(s) AS supervised",
        )
        for record in result.records:
            expected = sum(
                1
                for rel in graph.outgoing(record["r"])
                if graph.rel_type(rel) == "SUPERVISES"
            )
            assert record["supervised"] == expected

    def test_citation_dag_terminates_and_counts(self):
        from repro.datasets.citations import citation_network

        graph, handles = citation_network(publications=20, seed=4)
        result = run_both(
            graph,
            "MATCH (p:Publication)<-[:CITES*]-(q:Publication) "
            "RETURN p, count(DISTINCT q) AS citers",
        )
        digraph = nx.DiGraph()
        for rel in graph.relationships_with_type("CITES"):
            digraph.add_edge(graph.src(rel), graph.tgt(rel))
        for record in result.records:
            expected = len(nx.ancestors(digraph, record["p"]))
            assert record["citers"] == expected
