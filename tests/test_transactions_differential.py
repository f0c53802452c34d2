"""Differential harness for transactional sessions (PR 6).

Fuzzes multi-statement transaction scripts — begin → mixed updates →
commit/rollback, statements drawn from the shared update corpus — and
holds the session machinery to two invariants:

* **executor agreement**: the same script replayed through sessions on
  the reference interpreter, the row engine and the batch engine leaves
  byte-identical final stores (the single-statement differential's
  guarantee, lifted to transactions);
* **semantic baseline**: the final store equals replaying only the
  *durable* statements (auto-committed plus committed-transaction ones,
  rolled-back blocks dropped) with plain auto-commit — transactions add
  atomicity, never new semantics.

Indexed clones run the same scripts so rollback's index restoration is
fuzzed too (checked against a from-scratch rebuild every time).
"""

from hypothesis import given, settings

from repro import CypherEngine
from repro.exceptions import CypherError
from repro.values.ordering import canonical_key

from fuzztools import (
    apply_script,
    assert_indexes_consistent,
    committed_statements,
    composite_indexed_fixture_graph,
    fixture_graph,
    graph_state,
    indexed_fixture_graph,
    transaction_scripts,
)

_MODES = ("interpreter", "row", "batch")


def _property_indexes(graph):
    return [graph._index(label, keys) for label, keys in graph.indexes()]


def _warm_sorted_halves(graph):
    """Build every live prefix's segment memo, as a range probe would."""
    for index in _property_indexes(graph):
        for prefix in list(index._children):
            index._segment(prefix, "num")


def assert_buckets_aligned(graph):
    """Each memoised segment's bucket list is, *by identity*, the
    ``_ids_by_prefix`` bucket of each of its sorted payloads — and a
    range over the whole segment gathers what the per-value path does."""
    checked = 0
    for index in _property_indexes(graph):
        for prefix, segments in index._segments.items():
            assert prefix in index._children
            for tag, (payloads, buckets) in segments.items():
                assert payloads == sorted(payloads)
                assert len(buckets) == len(payloads)
                for payload, bucket in zip(payloads, buckets):
                    assert bucket is index._ids_by_prefix[
                        prefix + (canonical_key(payload),)
                    ], (index, prefix, tag, payload)
                    assert bucket
                checked += len(payloads)
            if len(prefix) == 0 and segments["num"][0]:
                low = segments["num"][0][0]
                assert index.range_ids(low, True, None, True) == (
                    index._gather(prefix, "num", segments["num"][0])
                )
    return checked


def _replay(script, make_graph, mode):
    graph = make_graph()
    apply_script(CypherEngine(graph), script, mode=mode)
    return graph


class TestScriptedSessions:
    @settings(max_examples=40, deadline=None)
    @given(script=transaction_scripts())
    def test_three_executor_agreement(self, script):
        states = {
            mode: graph_state(_replay(script, fixture_graph, mode))
            for mode in _MODES
        }
        assert states["row"] == states["interpreter"], script
        assert states["batch"] == states["interpreter"], script

    @settings(max_examples=40, deadline=None)
    @given(script=transaction_scripts())
    def test_equals_durable_statement_replay(self, script):
        scripted = _replay(script, fixture_graph, None)
        baseline = fixture_graph()
        engine = CypherEngine(baseline)
        for statement in committed_statements(script):
            try:
                engine.run(statement)
            except CypherError:
                # a failing statement is atomic in both, statement by
                # statement — the state comparison holds them to it
                pass
        assert graph_state(scripted) == graph_state(baseline), script

    @settings(max_examples=30, deadline=None)
    @given(script=transaction_scripts())
    def test_indexes_survive_scripted_transactions(self, script):
        graph = _replay(script, indexed_fixture_graph, None)
        assert_indexes_consistent(graph)
        plain = _replay(script, fixture_graph, None)
        assert graph_state(graph) == graph_state(plain), script

    @settings(max_examples=30, deadline=None)
    @given(script=transaction_scripts())
    def test_aligned_buckets_survive_scripted_transactions(self, script):
        for make_graph in (
            indexed_fixture_graph, composite_indexed_fixture_graph
        ):
            graph = make_graph()
            _warm_sorted_halves(graph)
            assert assert_buckets_aligned(graph) > 0
            apply_script(CypherEngine(graph), script, mode=None)
            assert_indexes_consistent(graph)
            assert_buckets_aligned(graph)


class TestAlignedBuckets:
    """The sorted half keeps each payload's id bucket beside it; the
    bucket is the hash half's own dict, so only a value appearing or
    vanishing moves the list."""

    @staticmethod
    def _graph(composite):
        graph = indexed_fixture_graph()
        if composite:
            graph = composite_indexed_fixture_graph()
        engine = CypherEngine(graph)
        engine.run("UNWIND range(10, 29) AS i CREATE (:A {v: i, name: 'u'})")
        _warm_sorted_halves(graph)
        return graph, engine

    @staticmethod
    def _index_on_v(graph):
        """``:A(v)``, or the composite ``:A(v, name)``."""
        (index,) = [
            index for index in _property_indexes(graph)
            if index.label == "A" and index.keys[0] == "v"
        ]
        return index

    @staticmethod
    def _range(graph, engine, low):
        """``index_range`` ids, checked against the plain definition."""
        ids = TestAlignedBuckets._index_on_v(graph).range_ids(
            low, True, None, True
        )
        want = engine.run(
            "MATCH (a:A) WHERE a.v >= $low RETURN id(a) AS i, a.v AS v "
            "ORDER BY v, i", {"low": low}, mode="interpreter",
        ).values("i")
        assert [node.value for node in ids] == want
        return ids

    def test_unique_values_chain_and_shared_values_gather(self):
        for composite in (False, True):
            graph, engine = self._graph(composite)
            assert_buckets_aligned(graph)
            # 10..29 are one id each: the C path.
            assert len(self._range(graph, engine, 10)) == 20
            # A second id under 17: the bucket grows from one id to two
            # *in place*, the gather leaves the C path, ids stay ordered.
            engine.run("CREATE (:A {v: 17, name: 'twin'})")
            assert_buckets_aligned(graph)
            ids = self._range(graph, engine, 10)
            assert len(ids) == 21
            # ... inserted out of id order, too (a low id joins last).
            engine.run("MATCH (a:A) WHERE a.v = 3 SET a.v = 25")
            assert_buckets_aligned(graph)
            assert len(self._range(graph, engine, 10)) == 22

    def test_a_value_whose_last_id_goes_and_comes_back(self):
        for composite in (False, True):
            graph, engine = self._graph(composite)
            index = self._index_on_v(graph)
            before = index._ids_by_prefix[(20,)]
            members = list(before)
            engine.run("MATCH (a:A) WHERE a.v = 20 SET a.v = 120")
            assert_buckets_aligned(graph)
            assert 20 not in index._segments[()]["num"][0]
            assert len(self._range(graph, engine, 10)) == 20
            engine.run("MATCH (a:A) WHERE a.v = 120 SET a.v = 20")
            assert_buckets_aligned(graph)
            after = index._ids_by_prefix[(20,)]
            assert after is not before and list(after) == members
            assert not before  # the old dict died empty
            assert len(self._range(graph, engine, 10)) == 20
            # The same inside a transaction, rolled back and committed.
            with engine.session() as session:
                for ending in ("rollback", "commit"):
                    session.begin()
                    session.run("MATCH (a:A) WHERE a.v = 21 DETACH DELETE a")
                    session.run("MATCH (a:A) WHERE a.v = 22 REMOVE a.v")
                    session.run("CREATE (:A {v: 21.0, name: 'float'})")
                    assert_buckets_aligned(graph)
                    getattr(session, ending)()
                    assert_buckets_aligned(graph)
                    assert_indexes_consistent(graph)
            assert len(self._range(graph, engine, 10)) == 19
