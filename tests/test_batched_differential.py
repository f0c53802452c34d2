"""Differential harness: interpreter ≡ row ≡ batch planner.

Runs the *full* fuzz corpus (reads and updates, same generators as
``test_fuzz_queries`` via :mod:`fuzztools`) through all three executors
and holds them to:

* **identical result bags** — duplicates included, on every query;
* **byte-identical final stores** on updating queries (canonical,
  id-inclusive snapshots of clones, one per executor);
* **honest mode reporting** — a read plan the batch engine claims
  (:func:`repro.planner.batch.plan_supports_batch`) must actually run
  batched (``execution_mode == "batch"``), mode ``"row"`` must always
  run row-wise, and update statements must run row-wise even when batch
  execution is requested (their mutations batch through the store
  transaction instead);
* **morsel-size independence** — every read also runs batched at the
  small morsel sizes of :data:`SMALL_MORSEL_SIZES`, so the 9-node corpus
  graph spans several morsels and every batch compiler crosses morsel
  boundaries; a batch-claimed plan must then produce **record-identical
  output, order included**, to the default-morsel batch run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CypherEngine, CypherError
from repro.exceptions import CypherTypeError
from repro.functions.aggregates import make_aggregate
from repro.graph.snapshot import SnapshotGraph
from repro.graph.store import MemoryGraph
from repro.planner.batch import plan_supports_batch

from fuzztools import (
    GRAPH,
    MORPHISMS,
    READ_STRATEGIES,
    comprehension_queries,
    create_update_queries,
    delete_queries,
    graph_state,
    match_queries,
    merge_queries,
    named_path_queries,
    pipeline_queries,
    set_remove_queries,
    two_clause_queries,
    two_hop_queries,
)


#: Morsel sizes for the small-morsel sweep: both cut the 9-node corpus
#: graph into several morsels per scan.
SMALL_MORSEL_SIZES = (4, 7)


def _assert_small_morsels_agree(query, interpreted, batch, **kwargs):
    """Batch runs at :data:`SMALL_MORSEL_SIZES` against the reference
    bag and, for claimed plans, the default-morsel batch records."""
    for morsel_size in SMALL_MORSEL_SIZES:
        small = CypherEngine(GRAPH, morsel_size=morsel_size, **kwargs).run(
            query, mode="batch"
        )
        assert small.executed_by == "planner", (query, morsel_size)
        assert interpreted.table.same_bag(small.table), (query, morsel_size)
        if plan_supports_batch(small.plan):
            assert small.execution_mode == "batch", (query, morsel_size)
            assert small.records == batch.records, (query, morsel_size)


def _assert_read_differential(query, morphism=None):
    kwargs = {} if morphism is None else {"morphism": MORPHISMS[morphism]}
    engine = CypherEngine(GRAPH, **kwargs)
    interpreted = engine.run(query, mode="interpreter")
    row = engine.run(query, mode="row")
    batch = engine.run(query, mode="batch")
    assert row.executed_by == "planner", query
    assert row.execution_mode == "row", query
    assert batch.executed_by == "planner", query
    if plan_supports_batch(batch.plan):
        # The claim is binding: a supported read plan must not silently
        # degrade to row execution.
        assert batch.execution_mode == "batch", query
    assert interpreted.table.same_bag(row.table), query
    assert interpreted.table.same_bag(batch.table), query
    _assert_small_morsels_agree(query, interpreted, batch, **kwargs)


def _assert_update_differential(query):
    clones = {
        "interpreter": GRAPH.copy(),
        "row": GRAPH.copy(),
        "batch": GRAPH.copy(),
    }
    results = {
        mode: CypherEngine(graph).run(query, mode=mode)
        for mode, graph in clones.items()
    }
    assert results["row"].executed_by == "planner", query
    assert results["batch"].executed_by == "planner", query
    # Updates stay row-wise by design, whatever mode was requested.
    assert results["batch"].execution_mode == "row", query
    reference = results["interpreter"].table
    assert reference.same_bag(results["row"].table), query
    assert reference.same_bag(results["batch"].table), query
    reference_state = graph_state(clones["interpreter"])
    assert reference_state == graph_state(clones["row"]), query
    assert reference_state == graph_state(clones["batch"]), query


class TestReadDifferential:
    """Three-way agreement on every read strategy of the corpus."""

    @pytest.mark.smoke
    @settings(max_examples=60, deadline=None)
    @given(query=match_queries())
    def test_match(self, query):
        _assert_read_differential(query)

    @settings(max_examples=50, deadline=None)
    @given(query=two_hop_queries())
    def test_two_hop(self, query):
        _assert_read_differential(query)

    @settings(max_examples=50, deadline=None)
    @given(query=pipeline_queries())
    def test_pipeline(self, query):
        _assert_read_differential(query)

    @pytest.mark.smoke
    @settings(max_examples=40, deadline=None)
    @given(query=two_clause_queries())
    def test_optional_chain(self, query):
        _assert_read_differential(query)

    @pytest.mark.smoke
    @settings(max_examples=50, deadline=None)
    @given(query=named_path_queries())
    def test_named_path(self, query):
        _assert_read_differential(query)

    @settings(max_examples=50, deadline=None)
    @given(query=comprehension_queries())
    def test_comprehension(self, query):
        _assert_read_differential(query)

    @settings(max_examples=40, deadline=None)
    @given(
        query=match_queries(),
        morphism=st.sampled_from(sorted(MORPHISMS)),
    )
    def test_match_under_all_morphisms(self, query, morphism):
        _assert_read_differential(query, morphism=morphism)


class TestUpdateDifferential:
    """Three-way agreement on updating queries, final stores included."""

    @pytest.mark.smoke
    @settings(max_examples=50, deadline=None)
    @given(query=create_update_queries())
    def test_create(self, query):
        _assert_update_differential(query)

    @pytest.mark.smoke
    @settings(max_examples=50, deadline=None)
    @given(query=set_remove_queries())
    def test_set_remove(self, query):
        _assert_update_differential(query)

    @pytest.mark.smoke
    @settings(max_examples=25, deadline=None)
    @given(query=delete_queries())
    def test_delete(self, query):
        _assert_update_differential(query)

    @pytest.mark.smoke
    @settings(max_examples=50, deadline=None)
    @given(query=merge_queries())
    def test_merge(self, query):
        _assert_update_differential(query)

    @settings(max_examples=30, deadline=None)
    @given(
        first=create_update_queries().filter(lambda q: " RETURN " not in q),
        second=set_remove_queries().filter(lambda q: " RETURN " not in q),
    )
    def test_read_after_update_stays_in_lockstep(self, first, second):
        """Mutate, then read back in all three modes on the same store."""
        clones = {
            "interpreter": GRAPH.copy(),
            "row": GRAPH.copy(),
            "batch": GRAPH.copy(),
        }
        probe = "MATCH (n) RETURN count(n) AS n"
        tables = {}
        for mode, graph in clones.items():
            engine = CypherEngine(graph)
            engine.run(first, mode=mode)
            engine.run(second, mode=mode)
            tables[mode] = engine.run(probe, mode=mode).table
        reference_state = graph_state(clones["interpreter"])
        assert reference_state == graph_state(clones["row"])
        assert reference_state == graph_state(clones["batch"])
        assert tables["interpreter"].same_bag(tables["row"])
        assert tables["interpreter"].same_bag(tables["batch"])


@pytest.mark.smoke
class TestBatchClaimSweep:
    """The published claim set is consistent with the corpus shapes."""

    def test_every_read_strategy_reaches_batch_mode(self):
        """Each strategy family contains plans the batch engine claims.

        Guards against the claim set silently shrinking to nothing for a
        whole query family (e.g. a new operator sneaking into every
        aggregation plan without a batch implementation).
        """
        samples = {
            "match": "MATCH (a:A)-[:R]->(b) RETURN a.v AS av, b.v AS bv",
            "two_hop": "MATCH (a)-[:R]->(b)-[:S]->(c) RETURN count(*) AS n",
            "pipeline": (
                "MATCH (a:A)-[:R]->(b) WITH a.v AS g, count(b) AS c "
                "RETURN g, c ORDER BY g"
            ),
            "aggregate": "MATCH (n) RETURN n.v AS v, count(*) AS c",
            "top_k": "MATCH (n) RETURN n.v AS v ORDER BY v DESC LIMIT 3",
            # In the claim since the frontier-BFS batch implementation.
            "var_length": "MATCH (a)-[:R*1..2]->(b) RETURN count(*) AS n",
        }
        assert set(READ_STRATEGIES) >= {"match", "two_hop", "pipeline"}
        for name, query in samples.items():
            result = CypherEngine(GRAPH).run(query, mode="batch")
            assert result.execution_mode == "batch", (name, query)

    def test_unsupported_shapes_report_row_mode(self):
        engine = CypherEngine(GRAPH)
        for query in (
            "MATCH p = (a)-[:R]->(b) RETURN length(p) AS l",  # named path
            "MATCH (a:A) OPTIONAL MATCH (a)-[:S]->(c) RETURN a, c",
            "RETURN 1 AS x UNION RETURN 2 AS x",
        ):
            result = engine.run(query, mode="batch")
            assert result.executed_by == "planner", query
            assert result.execution_mode == "row", query


#: Fixed shapes for the operators that hold state across morsels.
_MERGE_QUERIES = (
    ("ordered", "MATCH (a)-[:R]->(b) RETURN a.v AS av, b.v AS bv"),
    ("aggregate", "MATCH (n) RETURN n.v AS v, count(*) AS c, collect(n.w) AS ws"),
    ("sort", "MATCH (n) RETURN n.v AS v, n.w AS w ORDER BY n.v DESC, n.w"),
    ("top", "MATCH (n) RETURN n.v AS v ORDER BY n.v LIMIT 4"),
    ("distinct", "MATCH (n) RETURN DISTINCT n.v AS v"),
)


class TestMorselBoundaries:
    """Sort / Top / Aggregate / Distinct across morsel boundaries."""

    @pytest.mark.parametrize(
        "query", [q for _m, q in _MERGE_QUERIES],
        ids=[m for m, _q in _MERGE_QUERIES],
    )
    def test_stateful_operators_agree_at_small_morsels(self, query):
        engine = CypherEngine(GRAPH)
        interpreted = engine.run(query, mode="interpreter")
        batch = engine.run(query, mode="batch")
        assert batch.execution_mode == "batch"
        _assert_small_morsels_agree(query, interpreted, batch)

    #: One row per morsel, an exact multiple of the 9-node graph (3),
    #: and sizes that leave a short last morsel.
    @pytest.mark.parametrize("morsel_size", (1, 2, 3, 4, 7))
    @pytest.mark.parametrize(
        "query", [q for _m, q in _MERGE_QUERIES],
        ids=[m for m, _q in _MERGE_QUERIES],
    )
    def test_same_records_every_run_at_every_morsel_size(
        self, query, morsel_size
    ):
        reference = CypherEngine(GRAPH).run(query, mode="batch")
        engine = CypherEngine(GRAPH, morsel_size=morsel_size)
        first = engine.run(query, mode="batch")
        second = engine.run(query, mode="batch")
        assert first.execution_mode == "batch"
        assert first.records == second.records
        assert first.records == reference.records


# ---------------------------------------------------------------------------
# Column kernels: accumulators that take columns, Counter-grouped counts,
# pass-through AND/OR, label-only Expand checks
# ---------------------------------------------------------------------------

MORSEL_SIZES = (1, 4, 256)


def _property_graph(rows):
    """One ``:V`` node per dict, in order; a None property is left unset."""
    graph = MemoryGraph()
    for position, properties in enumerate(rows):
        stored = {k: v for k, v in properties.items() if v is not None}
        stored["i"] = position
        graph.create_node(("V",), stored)
    return graph


def _outcome(run, query, mode, ordered=True):
    """Records (as a list, or as a bag when not ``ordered``) or the error."""
    try:
        records = run(query, mode=mode).records
    except CypherError as error:
        return ("error", type(error), str(error))
    return ("rows", records if ordered else sorted(records, key=repr))


def _assert_batch_is_interpreter(graph, query, ordered=True):
    """Same records — in the same order over a single scan, where both
    executors enumerate by node id — or the same error, at every morsel."""
    for morsel_size in MORSEL_SIZES:
        engine = CypherEngine(graph, morsel_size=morsel_size)
        want = _outcome(engine.run, query, "interpreter", ordered)
        assert _outcome(engine.run, query, "batch", ordered) == want, (
            query, morsel_size
        )
        if want[0] == "rows":
            result = engine.run(query, mode="batch")
            assert result.execution_mode == "batch", query
    return want


class TestColumnKernels:
    COLUMNS = {
        "all-null": [None] * 6,
        "int-null": [1, None, 2, None, 3, 0, -4, None],
        "int-float": [1, 2.5, 3, 0.1, 7, 0.2, 5],
        "float-then-ints": [0.1, 1, 2, 3, 4, 5, 6, 7, 8, 9],
        "big-ints": [2 ** 62, 2 ** 62, None, 2 ** 63, -1],
        "int-bool": [1, 2, True, 3, None],
        "strings": ["a", None, "b", "a"],
    }
    AGGREGATES = [
        "count(n.x) AS c",
        "sum(n.x) AS s",
        "count(n.x) AS c, sum(n.x) AS s",
        "count(DISTINCT n.x) AS c",
        "sum(DISTINCT n.x) AS s",
        "count(*) AS r, count(n.x) AS c",
    ]

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_global_count_and_sum(self, column, aggregate):
        graph = _property_graph([{"x": x} for x in self.COLUMNS[column]])
        want = _assert_batch_is_interpreter(
            graph, "MATCH (n:V) RETURN " + aggregate
        )
        if "sum" in aggregate and column in ("int-bool", "strings"):
            bad = "True" if column == "int-bool" else "'a'"
            assert want == (
                "error", CypherTypeError, "sum() expects numbers, got " + bad
            )
        else:
            assert want[0] == "rows"

    def test_distinct_takes_the_per_value_path(self):
        for name in ("count", "sum"):
            accumulator = make_aggregate(name, distinct=True)
            accumulator.include_column([1, 1.0, None, 2, 1])
            assert accumulator.result() == (2 if name == "count" else 3)

    #: Keys ``1`` / ``1.0`` share a group (first-seen value reported),
    #: ``'1'`` and null have their own; groups 2 and 3 are first seen
    #: after the first morsel at sizes 1 and 4; group 2 counts zero.
    GROUPED = [
        {"k": 1, "j": "a", "x": 5},
        {"k": 1.0, "j": "a", "x": None},
        {"k": "1", "j": "a", "x": 7},
        {"k": None, "j": "b", "x": 1},
        {"k": 1, "j": "b", "x": None},
        {"k": 2, "j": "a", "x": None},
        {"k": "1", "j": "a", "x": None},
        {"k": None, "j": "b", "x": None},
        {"k": 3, "j": None, "x": 4},
        {"k": 1.0, "j": "a", "x": 2.5},
        {"k": 2, "j": "a", "x": None},
    ]

    @pytest.mark.parametrize("returning", [
        "n.k AS k, count(n.x) AS c",
        "n.k AS k, count(*) AS c",
        "n.k AS k, n.j AS j, count(n.x) AS c",
        "n.k AS k, n.j AS j, count(*) AS c",
        "n.k AS k, count(DISTINCT n.x) AS c",
        "n.k AS k, sum(n.x) AS s",
        "n.k AS k, count(n.x) AS c, count(*) AS r",
        "n.k AS k, count(n.x) AS c ORDER BY c DESC, k LIMIT 3",
        "count(n.x) AS c, n.k AS k ORDER BY k DESC, c SKIP 1 LIMIT 2",
    ])
    def test_grouped_count(self, returning):
        graph = _property_graph(self.GROUPED)
        want = _assert_batch_is_interpreter(
            graph, "MATCH (n:V) RETURN " + returning
        )
        assert want[0] == "rows"

    def test_grouped_count_reports_the_first_seen_key_value(self):
        graph = _property_graph(self.GROUPED)
        for morsel_size in MORSEL_SIZES:
            records = CypherEngine(graph, morsel_size=morsel_size).run(
                "MATCH (n:V) RETURN n.k AS k, count(n.x) AS c", mode="batch"
            ).records
            assert [(type(r["k"]), r["k"], r["c"]) for r in records] == [
                (int, 1, 2), (str, "1", 1), (type(None), None, 1),
                (int, 2, 0), (int, 3, 1),
            ]

    #: ``i`` is the node's position (0..7); ``x`` holds ints, so ``n.x``
    #: alone is a non-Boolean operand; ``z`` is 0 on one row, so
    #: ``1 / n.z`` raises exactly where it is evaluated.
    LOGIC = [
        {"x": 1, "z": 1}, {"x": None, "z": 1}, {"x": 3, "z": 0},
        {"x": 0, "z": 2}, {"x": None, "z": 1}, {"x": 5, "z": 1},
        {"x": 2, "z": 1}, {"x": 9, "z": 3},
    ]
    LEFTS = {
        "all-true": "n.i >= 0",
        "all-false": "n.i < 0",
        "mixed": "n.i % 2 = 0",
        "null-left": "n.x > 0",
    }
    RIGHTS = ["n.x > 1", "n.x", "1 / n.z = 1", "n.x IS NULL", "null"]

    @pytest.mark.parametrize("left", sorted(LEFTS))
    @pytest.mark.parametrize("right", RIGHTS)
    @pytest.mark.parametrize("connective", ["AND", "OR"])
    def test_connectives_keep_their_short_circuit(
        self, left, right, connective
    ):
        graph = _property_graph(self.LOGIC)
        predicate = "%s %s %s" % (self.LEFTS[left], connective, right)
        for query in (
            "MATCH (n:V) WHERE %s RETURN n.i AS i" % predicate,
            "MATCH (n:V) RETURN n.i AS i, (%s) AS v" % predicate,
            "MATCH (n:V) WHERE (%s) AND (n.i >= 0 OR %s) RETURN n.i AS i"
            % (predicate, right),
        ):
            want = _assert_batch_is_interpreter(graph, query)
        # The deciding side suppresses the right operand's error; the
        # side that decides nowhere lets it through.
        suppressed = (left, connective) in (
            ("all-false", "AND"), ("all-true", "OR")
        )
        if left.startswith("all-") and right in ("n.x", "1 / n.z = 1"):
            want = _assert_batch_is_interpreter(
                graph, "MATCH (n:V) RETURN (%s) AS v" % predicate
            )
            assert (want[0] == "rows") == suppressed, predicate

    @staticmethod
    def _labelled_graph():
        graph = MemoryGraph()
        # Fewer sources than carriers of any target label, so the planner
        # scans :S and the label check lands on the Expand's target.
        sources = [graph.create_node(("S",), {"i": i}) for i in range(3)]
        targets = [
            graph.create_node(labels, {"i": 10 + i})
            for i, labels in enumerate([
                ("L1", "L2"), ("L1",), ("L2",), (), ("L2", "L1", "L3"),
                ("L1", "L2"), ("L1", "L3"), ("L2", "L3"), ("L1", "L2", "L3"),
                ("L3",),
            ])
        ]
        for i, source in enumerate(sources):
            for j, target in enumerate(targets):
                if (i + j) % 2 == 0 or j == 0:
                    graph.create_relationship(source, target, "T")
                if (i * j) % 3 == 1:
                    graph.create_relationship(target, source, "U")
        return graph

    EXPANDS = [
        "MATCH (a:S)-[:T]->(b:L1:L2) RETURN a.i AS a, b.i AS b",
        "MATCH (a:S)-[:T]->(b:L1) RETURN a.i AS a, b.i AS b",
        "MATCH (a:S)-[:T]->(b:Absent) RETURN a.i AS a, b.i AS b",
        "MATCH (a:S)-[r]-(b:L2) RETURN a.i AS a, type(r) AS t, b.i AS b",
        "MATCH (a:S)<-[:U]-(b:L2:L3) RETURN a.i AS a, count(b) AS c",
    ]

    @pytest.mark.parametrize("query", EXPANDS)
    def test_label_only_expand(self, query):
        want = _assert_batch_is_interpreter(
            self._labelled_graph(), query, ordered=False
        )
        assert want[0] == "rows"
        if "Absent" not in query:
            assert want[1]

    @pytest.mark.parametrize("query", EXPANDS)
    def test_label_only_expand_inside_a_transaction(self, query):
        """A target deleted, relabelled or created by the open transaction."""
        for morsel_size in MORSEL_SIZES:
            engine = CypherEngine(
                self._labelled_graph(), morsel_size=morsel_size
            )
            with engine.session() as session:
                session.begin()
                session.run("MATCH (b {i: 10}) DETACH DELETE b")
                session.run("MATCH (b {i: 11}) SET b:L2 REMOVE b:L1")
                session.run(
                    "MATCH (a:S {i: 1}) CREATE (a)-[:T]->(:L1:L2 {i: 20})"
                )
                want = _outcome(session.run, query, "interpreter", False)
                assert want[0] == "rows"
                assert _outcome(session.run, query, "batch", False) == want
                session.rollback()

    @pytest.mark.parametrize("query", EXPANDS)
    def test_label_only_expand_on_a_dirty_pin(self, query):
        graph = self._labelled_graph()
        want = _outcome(
            CypherEngine(graph.copy()).run, query, "interpreter", False
        )
        for morsel_size in MORSEL_SIZES:
            engine = CypherEngine(graph.copy(), morsel_size=morsel_size)
            with engine.session() as session:
                snapshot = session.snapshot()
                engine.run("MATCH (b {i: 10}) DETACH DELETE b")
                engine.run("MATCH (b {i: 11}) SET b:L2 REMOVE b:L1")
                engine.run("MATCH (b {i: 14}) REMOVE b:L3")
                engine.run(
                    "MATCH (a:S {i: 1}) CREATE (a)-[:T]->(:L1:L2 {i: 20})"
                )
                assert isinstance(snapshot.graph, SnapshotGraph)
                assert _outcome(snapshot.run, query, "batch", False) == want


class TestScalarComparisonKernel:
    """One scalar side (literal or parameter): an all-int column against
    an int compares in C, everything else takes the per-value verdict —
    same verdicts and the same error class as the interpreter, whatever
    the column and the scalar hold."""

    COLUMNS = {
        "all-int": [3, 1, 4, 1, 5, 9, 2, 6],
        "int-null": [3, None, 4, None, 5, 0],
        "int-float": [3, 2.5, 4, 0.5, float("nan"), 7],
        "int-bool": [3, True, 4, False, 1],
        "all-str": ["b", "a", "c", "a"],
    }
    #: name -> (literal spelling or None for parameter-only, value)
    SCALARS = {
        "int": ("3", 3),
        "null": ("null", None),
        "float": ("1.5", 1.5),
        "bool": ("true", True),
        "str": ("'a'", "a"),
        "nan": (None, float("nan")),
        "list": ("[1]", [1]),
    }
    SHAPES = ["n.x >= %s", "%s < n.x", "n.x < %s", "%s <= n.x"]

    @staticmethod
    def _outcome(engine, query, parameters, mode):
        try:
            records = engine.run(query, parameters, mode=mode).records
        except CypherError as error:
            return ("error", type(error))
        return ("rows", records)

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    @pytest.mark.parametrize("scalar", sorted(SCALARS))
    def test_verdicts_and_errors_match_the_interpreter(self, column, scalar):
        graph = _property_graph([{"x": x} for x in self.COLUMNS[column]])
        literal, value = self.SCALARS[scalar]
        spellings = [("$s", {"s": value})]
        if literal is not None:
            spellings.append((literal, {}))
        for morsel_size in (4, 256):
            engine = CypherEngine(graph, morsel_size=morsel_size)
            for shape in self.SHAPES:
                for spelling, parameters in spellings:
                    predicate = shape % spelling
                    for query in (
                        "MATCH (n:V) RETURN n.i AS i, %s AS v" % predicate,
                        "MATCH (n:V) WHERE %s "
                        "RETURN count(n) AS c, sum(n.i) AS s" % predicate,
                    ):
                        want = self._outcome(
                            engine, query, parameters, "interpreter"
                        )
                        got = self._outcome(engine, query, parameters, "batch")
                        # NaN verdict columns never hold NaN itself, so
                        # plain equality is exact here.
                        assert got == want, (query, parameters, morsel_size)

    def test_an_unbound_scalar_raises_like_the_interpreter(self):
        from repro.exceptions import ParameterNotBound

        graph = _property_graph([{"x": 1}, {"x": 2}])
        for query in (
            "MATCH (n:V) WHERE n.x >= $s RETURN n.i AS i",
            "MATCH (n:V) WHERE $s < n.x RETURN n.i AS i",
        ):
            for mode in ("interpreter", "batch"):
                with pytest.raises(ParameterNotBound):
                    CypherEngine(graph).run(query, mode=mode)

    def test_arithmetic_against_a_scalar(self):
        """The same door serves ``n.x + $k`` / ``n.x * 2``."""
        for column in ("all-int", "int-null", "int-float", "all-str"):
            graph = _property_graph([{"x": x} for x in self.COLUMNS[column]])
            engine = CypherEngine(graph)
            for text, parameters in (
                ("n.x + $k", {"k": 2}), ("n.x * 2", {}), ("n.x - $k", {"k": 0.5}),
                ("n.x + $k", {"k": "s"}), ("n.x * $k", {"k": None}),
            ):
                query = "MATCH (n:V) RETURN n.i AS i, %s AS v" % text
                want = self._outcome(engine, query, parameters, "interpreter")
                got = self._outcome(engine, query, parameters, "batch")
                assert repr(got) == repr(want), (query, parameters)


class TestSelectionRoots:
    """``WHERE`` keeps rows whose verdict *is* ``true``: a comparison,
    connective or null test is compressed by truthiness, any other root
    — a stored ``1`` is not true — keeps the strict test."""

    ROWS = [
        {"b": True, "x": 1}, {"b": 1, "x": 2}, {"b": False, "x": None},
        {"b": None, "x": 0}, {"b": "yes", "x": 5}, {"b": True, "x": None},
        {"b": 1.0, "x": 7}, {"b": [True], "x": 3},
    ]
    PREDICATES = [
        "n.b",                                      # bare property
        "CASE WHEN n.x > 1 THEN n.b ELSE true END",
        "coalesce(n.b, true)",                      # function call
        "n.b = true",
        "n.x > 1",
        "NOT n.x > 1",
        "n.x IS NULL",
        "n.x IS NOT NULL",
        "n.x > 1 OR n.x IS NULL",
        "n.x > 0 AND n.x < 6",
        "n.x > 1 XOR n.x < 6",
        "1 < n.x < 6",                              # chained comparison
        "$p",
    ]

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_where_is_strictly_true(self, predicate):
        graph = _property_graph(self.ROWS)
        for morsel_size in MORSEL_SIZES:
            engine = CypherEngine(graph, morsel_size=morsel_size)
            query = "MATCH (n:V) WHERE %s RETURN n.i AS i" % predicate
            for p in (True, 1, None):
                want = engine.run(query, {"p": p}, mode="interpreter").records
                got = engine.run(query, {"p": p}, mode="batch")
                assert got.execution_mode == "batch"
                assert got.records == want, (predicate, p, morsel_size)

    def test_a_stored_one_is_not_true(self):
        graph = _property_graph(self.ROWS)
        records = CypherEngine(graph).run(
            "MATCH (n:V) WHERE n.b RETURN n.i AS i", mode="batch"
        ).records
        assert [r["i"] for r in records] == [0, 5]


class TestSingleTypeExpand:
    """``(a)-[:T]->(b)`` / ``(a)<-[:T]-(b)``: one type and one direction
    gather the segmented adjacency in C; a source column holding
    anything but current nodes must give the guarded loop's rows."""

    @staticmethod
    def _graph():
        graph = MemoryGraph()
        nodes = [graph.create_node(("N",), {"i": i}) for i in range(7)]
        # 0: none; 1: one; 2: several (+ another type); 3: a self-loop;
        # 4: one each; 5, 6: targets only.
        for source, target, rel_type in [
            (1, 5, "T"), (2, 5, "T"), (2, 6, "T"), (2, 1, "U"), (2, 0, "T"),
            (3, 3, "T"), (4, 6, "T"), (4, 5, "U"), (6, 5, "T"),
        ]:
            graph.create_relationship(nodes[source], nodes[target], rel_type)
        return graph

    QUERIES = [
        "MATCH (a:N)-[:T]->(b) RETURN a.i AS a, b.i AS b",
        "MATCH (a:N)<-[:T]-(b) RETURN a.i AS a, b.i AS b",
        "MATCH (a:N)-[r:T]->(b:N) RETURN a.i AS a, id(r) AS r, b.i AS b",
        "MATCH (a:N)-[:T]->(b)-[:T]->(c) RETURN a.i AS a, c.i AS c",
        "MATCH (a:N)-[:T]->(b) WHERE a.i >= $low RETURN a.i AS a, count(b) AS c",
        "MATCH (a:N)-[:T|U]->(b) RETURN a.i AS a, b.i AS b",
        "MATCH (a:N)-[:T]-(b) RETURN a.i AS a, b.i AS b",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_expands_match_the_interpreter(self, query):
        graph = self._graph()
        for morsel_size in MORSEL_SIZES:
            engine = CypherEngine(graph, morsel_size=morsel_size)
            want = engine.run(query, {"low": 1}, mode="interpreter").records
            got = engine.run(query, {"low": 1}, mode="batch")
            assert got.execution_mode == "batch"
            assert got.records == want, (query, morsel_size)

    def test_one_to_one_expand_shares_its_input_columns(self):
        """Every source with exactly one ``:T`` edge: the fast path keeps
        the scan's own morsel, so a later ``a.i`` is still a slice."""
        graph = MemoryGraph()
        for i in range(9):
            a = graph.create_node(("A",), {"i": i})
            graph.create_relationship(
                a, graph.create_node(("B",), {"i": 10 * i}), "T"
            )
        query = (
            "MATCH (a:A)-[:T]->(b) WHERE a.i >= $low "
            "RETURN a.i AS a, b.i AS b"
        )
        for morsel_size in MORSEL_SIZES:
            engine = CypherEngine(graph, morsel_size=morsel_size)
            want = engine.run(query, {"low": 0}, mode="interpreter").records
            got = engine.run(query, {"low": 0}, mode="batch", profile=True)
            assert got.records == want
            (scan,) = [
                path for path in got.access_paths
                if path["entry"] == "label scan :A"
            ]
            assert scan["column_slices"] == {"i": -(-9 // morsel_size)}

    SOURCES = ["null", "1", "'n'", "[a]", "{k: a}", "r", "[1, 2]", "$gone"]

    @pytest.mark.parametrize("direction", ["-[:T]->", "<-[:T]-"])
    def test_sources_that_are_not_current_nodes(self, direction):
        """A null, a scalar, a relationship, a list and a map (unhashable:
        the guarded loop) and a node the store no longer has."""
        graph = self._graph()
        gone = graph.label_scan_ids("N")[4]
        graph.delete_node(gone, detach=True)
        for morsel_size in MORSEL_SIZES:
            engine = CypherEngine(graph, morsel_size=morsel_size)

            def run(query, mode):
                return engine.run(query, {"gone": gone}, mode=mode)

            for source in self.SOURCES:
                query = (
                    "MATCH (a:N)-[r:T]->() WITH a, r ORDER BY id(r) "
                    "UNWIND [a, %s] AS s MATCH (s)%s(b) "
                    "RETURN a.i AS a, b.i AS b" % (source, direction)
                )
                want = _outcome(run, query, "interpreter", False)
                assert want[0] == "rows" and want[1]
                assert _outcome(run, query, "row", False) == want
                assert _outcome(run, query, "batch", False) == want, (
                    query, morsel_size
                )

    def test_a_source_deleted_under_a_held_column(self):
        """``expand_batch`` itself, over a column that still names a node
        the store no longer has: nothing expands from it."""
        graph = self._graph()
        nodes = graph.label_scan_ids("N")[:]
        graph.delete_node(nodes[2], detach=True)
        for direction in ("out", "in"):
            fast = graph.expand_batch(nodes, direction, ("T",))
            slow = graph.expand_batch(nodes, direction, ("T", "T"))
            assert fast == slow
            assert 2 not in fast[0]
        mixed = [nodes[1], None, [nodes[1]], {"k": 1}, 7, "n", nodes[3]]
        assert graph.expand_batch(mixed, "out", ("T",)) == (
            graph.expand_batch(mixed, "out", ("T", "T"))
        )

    @pytest.mark.parametrize("query", QUERIES[:5])
    def test_expand_on_a_dirty_pin(self, query):
        graph = self._graph()
        want = _outcome(
            lambda q, mode: CypherEngine(graph.copy()).run(
                q, {"low": 1}, mode=mode
            ),
            query, "interpreter", False,
        )
        for morsel_size in MORSEL_SIZES:
            engine = CypherEngine(graph.copy(), morsel_size=morsel_size)
            with engine.session() as session:
                snapshot = session.snapshot()
                engine.run("MATCH (a:N {i: 2})-[r:T]->() DELETE r")
                engine.run("MATCH (a:N {i: 0}), (b:N {i: 5}) CREATE (a)-[:T]->(b)")
                engine.run("MATCH (a:N {i: 4}) SET a.i = 40")
                assert isinstance(snapshot.graph, SnapshotGraph)
                got = _outcome(
                    lambda q, mode: snapshot.run(q, {"low": 1}, mode=mode),
                    query, "batch", False,
                )
                assert got == want, (query, morsel_size)
