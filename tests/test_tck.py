"""Run every mini-TCK scenario suite on both execution paths, plus unit
tests for the runner itself."""

import pytest

from repro.tck import TckRunner, parse_feature
from repro.tck.scenarios import ALL_FEATURES


#: The features ``python -m repro.cli selftest`` runs: coverage, morsel
#: boundaries, writes and index-backed predicates.
SMOKE_FEATURES = ("match_basic", "aggregation", "batching", "updates", "indexes")


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.smoke)
    if name in SMOKE_FEATURES else name
    for name in sorted(ALL_FEATURES)
])
def test_feature_suite(name):
    TckRunner().run_feature(ALL_FEATURES[name])


class TestRunnerParsing:
    def test_parse_feature_structure(self):
        feature = parse_feature(ALL_FEATURES["match_basic"])
        assert feature.name == "MATCH basics"
        assert len(feature.scenarios) >= 10
        first = feature.scenarios[0]
        assert first.query is not None
        assert first.expected_columns is not None

    def test_unknown_step_rejected(self):
        with pytest.raises(ValueError):
            parse_feature("Scenario: x\n  Whenever something odd happens")

    def test_unterminated_block_rejected(self):
        with pytest.raises(ValueError):
            parse_feature(
                'Scenario: x\n  When executing query:\n    """\n    RETURN 1'
            )


class TestRunnerAssertions:
    def test_detects_wrong_expectation(self):
        feature = """
Feature: failing
  Scenario: wrong value
    Given an empty graph
    When executing query:
      '''
      RETURN 1 AS x
      '''
    Then the result should be, in any order:
      | x |
      | 2 |
"""
        with pytest.raises(AssertionError):
            TckRunner().run_feature(feature)

    def test_detects_extra_rows(self):
        feature = """
Feature: failing
  Scenario: extra row
    Given an empty graph
    When executing query:
      '''
      UNWIND [1, 2] AS x RETURN x
      '''
    Then the result should be, in any order:
      | x |
      | 1 |
"""
        with pytest.raises(AssertionError):
            TckRunner().run_feature(feature)

    def test_detects_wrong_order(self):
        feature = """
Feature: failing
  Scenario: order matters
    Given an empty graph
    When executing query:
      '''
      UNWIND [2, 1] AS x RETURN x ORDER BY x
      '''
    Then the result should be, in order:
      | x |
      | 2 |
      | 1 |
"""
        with pytest.raises(AssertionError):
            TckRunner().run_feature(feature)

    def test_node_descriptor_cells(self):
        feature = """
Feature: descriptors
  Scenario: node cells
    Given an empty graph
    And having executed:
      '''
      CREATE (:Person {name: 'Ann'})
      '''
    When executing query:
      '''
      MATCH (p:Person) RETURN p
      '''
    Then the result should be, in any order:
      | p                       |
      | (:Person {name: 'Ann'}) |
"""
        TckRunner().run_feature(feature)

    def test_relationship_descriptor_cells(self):
        feature = """
Feature: descriptors
  Scenario: relationship cells
    Given an empty graph
    And having executed:
      '''
      CREATE ()-[:KNOWS {since: 1999}]->()
      '''
    When executing query:
      '''
      MATCH ()-[r]->() RETURN r
      '''
    Then the result should be, in any order:
      | r                       |
      | [:KNOWS {since: 1999}]  |
"""
        TckRunner().run_feature(feature)

    def test_expected_error_mismatch_detected(self):
        feature = """
Feature: failing
  Scenario: expects an error that never comes
    Given an empty graph
    When executing query:
      '''
      RETURN 1 AS x
      '''
    Then a TypeError should be raised
"""
        with pytest.raises(AssertionError):
            TckRunner().run_feature(feature)
