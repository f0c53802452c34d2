"""Integration: the paper's Section 3 walkthrough, table by table (E1).

The running query is executed in staged prefixes and every intermediate
table the paper prints — Figure 2(a), Figure 2(b), the line-4 table, the
line-5 table with its two † duplicate rows, and the final result — is
checked cell for cell, on both execution paths.
"""

from collections import Counter

import pytest

from fuzztools import run_both


def bag(result, *columns):
    return Counter(
        tuple(record[column] for column in columns)
        for record in result.records
    )


class TestFigure2a:
    """Variable bindings after lines 1–2 (Figure 2a)."""

    def test_bindings(self, figure1):
        graph, ids = figure1
        result = run_both(
            graph,
            "MATCH (r:Researcher) "
            "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
            "RETURN r, s",
        )
        assert bag(result, "r", "s") == Counter(
            {
                (ids["n1"], None): 1,
                (ids["n6"], ids["n7"]): 1,
                (ids["n6"], ids["n8"]): 1,
                (ids["n10"], ids["n7"]): 1,
            }
        )


class TestFigure2b:
    """Bindings after the WITH in line 3 (Figure 2b)."""

    def test_bindings(self, figure1):
        graph, ids = figure1
        result = run_both(
            graph,
            "MATCH (r:Researcher) "
            "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
            "WITH r, count(s) AS studentsSupervised "
            "RETURN r, studentsSupervised",
        )
        assert bag(result, "r", "studentsSupervised") == Counter(
            {
                (ids["n1"], 0): 1,
                (ids["n6"], 2): 1,
                (ids["n10"], 1): 1,
            }
        )

    def test_s_goes_out_of_scope(self, figure1):
        from repro import CypherEngine
        from repro.exceptions import CypherSemanticError

        graph, _ = figure1
        engine = CypherEngine(graph)
        with pytest.raises(CypherSemanticError):
            engine.run(
                "MATCH (r:Researcher) "
                "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
                "WITH r, count(s) AS c RETURN s"
            )


class TestLine4Table:
    """After MATCH (r)-[:AUTHORS]->(p1:Publication): Thor drops out."""

    def test_bindings(self, figure1):
        graph, ids = figure1
        result = run_both(
            graph,
            "MATCH (r:Researcher) "
            "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
            "WITH r, count(s) AS studentsSupervised "
            "MATCH (r)-[:AUTHORS]->(p1:Publication) "
            "RETURN r, studentsSupervised, p1",
        )
        assert bag(result, "r", "studentsSupervised", "p1") == Counter(
            {
                (ids["n1"], 0, ids["n2"]): 1,
                (ids["n6"], 2, ids["n5"]): 1,
                (ids["n6"], 2, ids["n9"]): 1,
            }
        )


class TestLine5Table:
    """After OPTIONAL MATCH (p1)<-[:CITES*]-(p2): six rows, two identical
    (the † rows — n9 reaches n2 through both n5 and n4)."""

    def test_bindings_with_duplicates(self, figure1):
        graph, ids = figure1
        result = run_both(
            graph,
            "MATCH (r:Researcher) "
            "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
            "WITH r, count(s) AS studentsSupervised "
            "MATCH (r)-[:AUTHORS]->(p1:Publication) "
            "OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) "
            "RETURN r, studentsSupervised, p1, p2",
        )
        assert bag(result, "r", "studentsSupervised", "p1", "p2") == Counter(
            {
                (ids["n1"], 0, ids["n2"], ids["n4"]): 1,
                (ids["n1"], 0, ids["n2"], ids["n9"]): 2,  # the † rows
                (ids["n1"], 0, ids["n2"], ids["n5"]): 1,
                (ids["n6"], 2, ids["n5"], ids["n9"]): 1,
                (ids["n6"], 2, ids["n9"], None): 1,
            }
        )

    def test_exactly_six_rows(self, figure1):
        graph, _ = figure1
        result = run_both(
            graph,
            "MATCH (r:Researcher) "
            "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
            "WITH r, count(s) AS studentsSupervised "
            "MATCH (r)-[:AUTHORS]->(p1:Publication) "
            "OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) "
            "RETURN r, studentsSupervised, p1, p2",
        )
        assert len(result) == 6


FULL_QUERY = (
    "MATCH (r:Researcher) "
    "OPTIONAL MATCH (r)-[:SUPERVISES]->(s:Student) "
    "WITH r, count(s) AS studentsSupervised "
    "MATCH (r)-[:AUTHORS]->(p1:Publication) "
    "OPTIONAL MATCH (p1)<-[:CITES*]-(p2:Publication) "
    "RETURN r.name, studentsSupervised, "
    "count(DISTINCT p2) AS citedCount"
)


class TestFinalResult:
    """The paper's final table: Nils 0 3 / Elin 2 1."""

    def test_result(self, figure1):
        graph, _ = figure1
        result = run_both(graph, FULL_QUERY)
        assert bag(result, "r.name", "studentsSupervised", "citedCount") == (
            Counter({("Nils", 0, 3): 1, ("Elin", 2, 1): 1})
        )

    def test_column_names_match_the_paper(self, figure1):
        graph, _ = figure1
        result = run_both(graph, FULL_QUERY)
        assert result.columns == [
            "r.name", "studentsSupervised", "citedCount",
        ]

    def test_count_distinct_matters(self, figure1):
        # Without DISTINCT, Nils would count the duplicate n9 twice.
        graph, _ = figure1
        result = run_both(
            graph,
            FULL_QUERY.replace("count(DISTINCT p2)", "count(p2)"),
        )
        assert bag(result, "r.name", "citedCount") == Counter(
            {("Nils", 4): 1, ("Elin", 1): 1}
        )
