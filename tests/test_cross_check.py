"""Integration: reference interpreter ≡ planner on a wide query corpus.

The paper argues a formal semantics "paves a way to a reference
implementation against which others will be compared" — this module is
that comparison, run over every read-query construct both paths support,
on the paper's graphs and on seeded random graphs.
"""

import random

import pytest

from repro.datasets.citations import citation_network
from repro.datasets.paper import figure1_graph, figure4_graph
from repro.datasets.social import social_graph
from repro.graph.store import MemoryGraph

from fuzztools import run_both

QUERY_CORPUS = [
    "MATCH (n) RETURN n",
    "MATCH (n:Researcher) RETURN n.name",
    "MATCH (a)-[r]->(b) RETURN a, r, b",
    "MATCH (a)-[:AUTHORS]->(p) RETURN a.name, p.acmid",
    "MATCH (a)<-[:CITES]-(b) RETURN a, b",
    "MATCH (a)-[:CITES]-(b) RETURN a, b",
    "MATCH (a)-[:CITES*]->(b) RETURN a, b",
    "MATCH (a)-[:CITES*1..2]->(b) RETURN a, b",
    "MATCH (a)-[rs:CITES*0..2]->(b) RETURN a, size(rs) AS hops, b",
    "MATCH (a)-[:AUTHORS]->(p)<-[:CITES]-(q) RETURN a, p, q",
    "MATCH (a:Researcher), (s:Student) RETURN a.name, s.name",
    "MATCH (a)-[:SUPERVISES]->(s) WHERE s.name CONTAINS 'n' RETURN s.name",
    "MATCH (n) WHERE n:Researcher OR n:Student RETURN n.name",
    "MATCH (n) WHERE exists((n)-[:AUTHORS]->()) RETURN n.name",
    "MATCH (n) WHERE (n)-[:SUPERVISES]->(:Student) RETURN n.name",
    "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s) RETURN r, s",
    "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:AUTHORS]->(p) "
    "WHERE p.acmid > 230 RETURN r.name, p.acmid",
    "MATCH (n) RETURN labels(n) AS l, count(*) AS c",
    "MATCH (n:Publication) RETURN count(n.acmid) AS c, sum(n.acmid) AS s, "
    "min(n.acmid) AS lo, max(n.acmid) AS hi, avg(n.acmid) AS mean",
    "MATCH (r:Researcher)-[:AUTHORS]->(p) "
    "RETURN r.name, collect(p.acmid) AS ids",
    "MATCH (r:Researcher) OPTIONAL MATCH (r)-[:SUPERVISES]->(s) "
    "WITH r, count(s) AS c WHERE c > 0 RETURN r.name, c",
    "MATCH (n) RETURN DISTINCT labels(n) AS l",
    "MATCH (n:Publication) RETURN n.acmid AS id ORDER BY id DESC LIMIT 3",
    "MATCH (n:Publication) RETURN n.acmid AS id ORDER BY id SKIP 2",
    "MATCH (n) WITH n.acmid AS id WHERE id IS NOT NULL "
    "RETURN id ORDER BY id",
    "UNWIND [3, 1, 2] AS x RETURN x ORDER BY x",
    "UNWIND [1, 2] AS x UNWIND [10, 20] AS y RETURN x + y AS s",
    "MATCH (n:Researcher) RETURN n.name AS name UNION "
    "MATCH (s:Student) RETURN s.name AS name",
    "MATCH (n:Researcher) RETURN 1 AS one UNION ALL "
    "MATCH (s:Student) RETURN 1 AS one",
    "MATCH (a)-[:SUPERVISES|AUTHORS]->(x) RETURN a, x",
    "MATCH (p:Publication) RETURN CASE WHEN p.acmid > 230 THEN 'new' "
    "ELSE 'old' END AS era, count(*) AS c",
    "MATCH (r:Researcher) RETURN [x IN [1, 2, 3] WHERE x > 1 | x * 2] AS listed",
    "MATCH (a)-->(b)-->(c) RETURN count(*) AS chains",
    "MATCH (a)-->(b), (b)-->(c) RETURN count(*) AS chains",
    "MATCH (x)-[*2]-(y) RETURN count(*) AS n",
    "RETURN 1 + 1 AS two",
]


@pytest.mark.parametrize("query", QUERY_CORPUS)
def test_corpus_on_figure1(figure1, query):
    graph, _ = figure1
    run_both(graph, query)


@pytest.mark.parametrize("query", QUERY_CORPUS)
def test_corpus_on_figure4(query):
    graph, _ = figure4_graph()
    run_both(graph, query)


def random_graph(seed, nodes=12, edges=20):
    rng = random.Random(seed)
    graph = MemoryGraph()
    labels = ("Researcher", "Student", "Publication")
    ids = [
        graph.create_node(
            (rng.choice(labels),),
            {"name": "n%d" % index, "acmid": rng.randint(100, 300)},
        )
        for index in range(nodes)
    ]
    types = ("AUTHORS", "CITES", "SUPERVISES")
    for _ in range(edges):
        graph.create_relationship(
            rng.choice(ids), rng.choice(ids), rng.choice(types)
        )
    return graph


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "query",
    [
        "MATCH (a)-[r]->(b) RETURN a, r, b",
        "MATCH (a)-[:CITES*1..2]->(b) RETURN a, b",
        "MATCH (a)-[rs:CITES*0..2]-(b) RETURN a, size(rs) AS n, b",
        "MATCH (a:Researcher) OPTIONAL MATCH (a)-[:AUTHORS]->(p) RETURN a, p",
        "MATCH (n) RETURN labels(n) AS l, count(*) AS c",
        "MATCH (a)-->(b)-->(c) RETURN count(*) AS n",
        "MATCH (a)-->(a) RETURN count(*) AS loops",
    ],
)
def test_corpus_on_random_graphs(seed, query):
    run_both(random_graph(seed), query)


def test_corpus_on_generators():
    graph, _ = citation_network(publications=15, researchers=4, students=5, seed=2)
    run_both(graph, "MATCH (p:Publication)<-[:CITES*]-(q) RETURN p, count(DISTINCT q) AS c")
    social, _ = social_graph(people=12, avg_friends=3, seed=2)
    run_both(
        social,
        "MATCH (a)-[f1:FRIEND]-()-[f2:FRIEND]-(b) "
        "WHERE f1.since < f2.since RETURN count(*) AS n",
    )
