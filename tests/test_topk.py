"""Regression: ``ORDER BY … LIMIT k`` is a bounded top-k heap, not a full sort.

Before this fix the planner materialised and sorted the entire input and
then sliced off k rows.  The fused ``Top`` operator keeps a heap of at
most k (+ SKIP offset) rows; these tests pin both the semantics (exactly
the stable Sort + Skip + Limit results, ties, directions and error cases
included, on the row *and* batch engines) and the bound itself via the
observable ``TOPK_STATS`` counters: on a large shuffled input the heap
never exceeds k rows and only a small tail of candidates is ever
materialised — far below the input size, and within k + one morsel.

The batch engine's ``Top`` keeps its k rows as columns and re-sorts them
with each arriving morsel instead of pushing row objects through a heap
(same counters: ``heap_max`` is the rows retained by a truncation,
``pushed`` the new rows that survived one); ``TestBatchTopAcrossMorsels``
holds it to the interpreter's order at morsel sizes 1, 4 and 256.

The last class pins the batch engine's *ramped* index walks: a lazily
chunked index scan emits morsels of 16, 32, … rows up to the morsel
size, so a ``LIMIT k`` above an ordered index reads about k entries —
counted through ``access_paths`` — and results at every ramp boundary
equal the row engine's.
"""

import random

import pytest

from repro import CypherEngine
from repro.exceptions import CypherRuntimeError
from repro.graph.store import MemoryGraph
from repro.planner.batch import DEFAULT_MORSEL_SIZE, FIRST_MORSEL_SIZE
from repro.planner.physical import TOPK_STATS

N_ROWS = 5000
K = 10


def _reset_stats():
    TOPK_STATS["pushed"] = 0
    TOPK_STATS["heap_max"] = 0


def big_graph():
    graph = MemoryGraph()
    values = list(range(N_ROWS))
    random.Random(20260728).shuffle(values)
    for value in values:
        graph.create_node(("Item",), {"v": value, "tie": value % 5})
    return graph


@pytest.fixture(scope="module")
def graph():
    return big_graph()


class TestTopKBound:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_touches_at_most_k_plus_morsel_rows(self, graph, mode):
        engine = CypherEngine(graph)
        _reset_stats()
        result = engine.run(
            "MATCH (n:Item) RETURN n.v AS v ORDER BY v LIMIT %d" % K,
            mode=mode,
        )
        assert result.values("v") == list(range(K))
        assert TOPK_STATS["heap_max"] <= K
        assert TOPK_STATS["pushed"] <= K + DEFAULT_MORSEL_SIZE
        assert TOPK_STATS["pushed"] < N_ROWS // 10

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_skip_widens_the_heap_but_stays_bounded(self, graph, mode):
        engine = CypherEngine(graph)
        _reset_stats()
        result = engine.run(
            "MATCH (n:Item) RETURN n.v AS v ORDER BY v SKIP 7 LIMIT %d" % K,
            mode=mode,
        )
        assert result.values("v") == list(range(7, 7 + K))
        assert TOPK_STATS["heap_max"] <= K + 7

    def test_plan_fuses_sort_into_top(self, graph):
        engine = CypherEngine(graph)
        plan = engine.explain(
            "MATCH (n:Item) RETURN n.v AS v ORDER BY v LIMIT 3"
        )
        assert "Top" in plan
        assert "Sort" not in plan

    def test_order_by_without_limit_is_not_fused(self, graph):
        engine = CypherEngine(graph)
        plan = engine.explain("MATCH (n:Item) RETURN n.v AS v ORDER BY v")
        assert "Sort" in plan
        assert "Top" not in plan


class TestTopKSemantics:
    """Top must be observationally identical to Sort + Skip + Limit."""

    QUERIES = [
        "MATCH (n:Item) RETURN n.v AS v ORDER BY v LIMIT 13",
        "MATCH (n:Item) RETURN n.v AS v ORDER BY v DESC LIMIT 13",
        # Ties on the major key: stability across the cut line matters.
        "MATCH (n:Item) RETURN n.tie AS t, n.v AS v "
        "ORDER BY t, v DESC LIMIT 9",
        "MATCH (n:Item) RETURN n.tie AS t, n.v AS v "
        "ORDER BY t DESC, v LIMIT 9",
        "MATCH (n:Item) WHERE n.v < 40 RETURN n.v % 7 AS m "
        "ORDER BY m LIMIT 5",
        "MATCH (n:Item) RETURN n.v AS v ORDER BY v SKIP 3 LIMIT 4",
        "MATCH (n:Item) RETURN n.v AS v ORDER BY v LIMIT 99999",  # k > input
        "MATCH (n:Item) WITH n.v AS v ORDER BY v DESC LIMIT 6 "
        "RETURN sum(v) AS s",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_matches_interpreter(self, graph, query, mode):
        engine = CypherEngine(graph)
        reference = engine.run(query, mode="interpreter")
        top = engine.run(query, mode=mode)
        # Sorted output: row order is observable, not just the bag.
        assert reference.records == top.records, (mode, query)

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_parameterised_limit_reuses_the_cached_plan(self, graph, mode):
        engine = CypherEngine(graph)
        query = "MATCH (n:Item) RETURN n.v AS v ORDER BY v LIMIT $k"
        first = engine.run(query, parameters={"k": 4}, mode=mode)
        misses = engine.plan_cache_misses
        second = engine.run(query, parameters={"k": 6}, mode=mode)
        assert engine.plan_cache_misses == misses  # hit: same plan, new k
        assert first.values("v") == list(range(4))
        assert second.values("v") == list(range(6))

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_negative_limit_raises_like_limit(self, graph, mode):
        engine = CypherEngine(graph)
        with pytest.raises(CypherRuntimeError):
            engine.run(
                "MATCH (n:Item) RETURN n.v AS v ORDER BY v LIMIT -1",
                mode=mode,
            )

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_limit_zero_is_empty_without_touching_rows(self, graph, mode):
        engine = CypherEngine(graph)
        _reset_stats()
        result = engine.run(
            "MATCH (n:Item) RETURN n.v AS v ORDER BY v LIMIT 0", mode=mode
        )
        assert len(result) == 0
        assert TOPK_STATS["pushed"] == 0


class TestBatchTopAcrossMorsels:
    """The batch Top sorts retained + new rows per morsel and truncates:
    whatever the morsel size, ties break by arrival like Sort + Limit."""

    MIXED = [3, "b", None, 2.5, True, "a", 1, None, False, 7, "b", 3.0]

    @pytest.fixture(scope="class")
    def graph(self):
        graph = MemoryGraph()
        for i in range(41):
            properties = {"i": i, "t": i % 3, "v": (i * 17) % 41}
            if self.MIXED[i % 12] is not None:
                properties["m"] = self.MIXED[i % 12]
            graph.create_node(("Item",), properties)
        return graph

    #: ``(ORDER BY … tail, k = SKIP + LIMIT)``
    TAILS = [
        ("ORDER BY t LIMIT 7", 7),             # ties straddle every morsel
        ("ORDER BY t DESC LIMIT 20", 20),
        ("ORDER BY t DESC, v LIMIT 9", 9),
        ("ORDER BY t, v DESC LIMIT 9", 9),
        ("ORDER BY t, m DESC, v LIMIT 11", 11),
        ("ORDER BY m LIMIT 12", 12),           # mixed types, nulls last
        ("ORDER BY m DESC LIMIT 12", 12),      # ... and first
        ("ORDER BY m DESC, t LIMIT 30", 30),
        ("ORDER BY t SKIP 5 LIMIT 6", 11),
        ("ORDER BY v DESC SKIP 38 LIMIT 10", 48),  # runs past the end
        ("ORDER BY t LIMIT 1000", 1000),       # k above the row count
        ("ORDER BY t SKIP 41 LIMIT 3", 44),
        ("ORDER BY t LIMIT 0", 0),
    ]

    @pytest.mark.parametrize("tail,k", TAILS)
    @pytest.mark.parametrize("morsel_size", [1, 4, 256])
    def test_matches_interpreter_and_row(self, graph, tail, k, morsel_size):
        query = (
            "MATCH (n:Item) RETURN n.i AS i, n.t AS t, n.v AS v, n.m AS m "
            + tail
        )
        engine = CypherEngine(graph, morsel_size=morsel_size)
        reference = engine.run(query, mode="interpreter").records
        _reset_stats()
        batch = engine.run(query, mode="batch")
        assert batch.execution_mode == "batch"
        assert "Top" in batch.plan.describe()
        assert batch.records == reference, (tail, morsel_size)
        assert TOPK_STATS["heap_max"] == min(k, 41)  # rows retained
        assert min(k, 41) <= TOPK_STATS["pushed"] <= 41
        assert engine.run(query, mode="row").records == reference


class TestKeyColumns:
    """Sort and Top order an all-int or all-str column by its values, and
    a column of self-keyed values (ints, strs, ids) is its own grouping
    key; any other column takes the per-value ``sort_key`` /
    ``canonical_key``.  Either way the order, the ties and the groups are
    the interpreter's — also when morsels of one column hold different
    types (the ``-then-`` columns change type after eight rows, two
    morsels at size 4)."""

    COLUMNS = {
        "all-int": [5, 3, 5, -1, 3, 2 ** 70, 0, 3, 5, -1, 8],
        "all-str": ["b", "a", "", "b", "ab", "a", "B", "b", "a", "c", ""],
        "int-float": [5, 2.5, 5, 5.0, -1, float("nan"), 3, 2.5, 0, 3, 3.0],
        "one-ish": [1, 1.0, "1", None, 1, "1", None, 1.0, True, 1, "1"],
        "int-null": [2, None, 1, None, 2, 1, None, 3, 2, 1, None],
        "int-then-float": [3, 1, 2, 3, 1, 2, 3, 1,
                           3.0, 1.0, 2.0, 2.0, 1.0, 3.0, 3.0, 2.0],
        "bool-then-int": [True, False, True, True, False, True, False, True,
                          1, 0, 1, 1, 0, 1],
        "str-then-int": ["1", "2", "1", "2", "2", "1", "1", "2",
                         1, 2, 1, 2, 2, 1],
        "float-nan": [1.5, 0.0, 2.5, 1.5, 0.0, 2.5, 1.5, 0.0,
                      float("nan"), -0.0, 1.5, float("nan"), 0, -0.0, 2.5],
    }
    TAILS = [
        "ORDER BY k",
        "ORDER BY k DESC",
        "ORDER BY k LIMIT 4",
        "ORDER BY k DESC LIMIT 4",
        "ORDER BY k, i DESC LIMIT 7",
        "ORDER BY k DESC SKIP 2 LIMIT 5",
        "ORDER BY k LIMIT 100",
    ]

    @staticmethod
    def _graph(column):
        graph = MemoryGraph()
        for i, value in enumerate(column):
            properties = {"i": i}
            if value is not None:
                properties["k"] = value
            graph.create_node(("Item",), properties)
        return graph

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    @pytest.mark.parametrize("morsel_size", [1, 4, 256])
    def test_order_and_limit(self, column, morsel_size):
        engine = CypherEngine(
            self._graph(self.COLUMNS[column]), morsel_size=morsel_size
        )
        for tail in self.TAILS:
            query = "MATCH (n:Item) RETURN n.i AS i, n.k AS k " + tail
            want = engine.run(query, mode="interpreter").records
            batch = engine.run(query, mode="batch")
            assert batch.execution_mode == "batch"
            # repr: NaN is not equal to itself, and 1 / 1.0 / True must
            # come back as the value each row stored.
            assert repr(batch.records) == repr(want), (tail, morsel_size)
            assert repr(engine.run(query, mode="row").records) == repr(want)

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    @pytest.mark.parametrize("morsel_size", [1, 4, 256])
    def test_grouping(self, column, morsel_size):
        engine = CypherEngine(
            self._graph(self.COLUMNS[column]), morsel_size=morsel_size
        )
        for returning in (
            "n.k AS k, count(*) AS c",
            "n.k AS k, count(n.i) AS c",
            "n.k AS k, count(n.k) AS c",
            "n.k AS k, sum(n.i) AS s",
            "n.k AS k, n.i % 2 AS j, count(n.k) AS c",
            "DISTINCT n.k AS k",
            "n.k AS k, count(*) AS c ORDER BY c DESC, k LIMIT 3",
        ):
            query = "MATCH (n:Item) RETURN " + returning
            want = engine.run(query, mode="interpreter").records
            batch = engine.run(query, mode="batch")
            assert batch.execution_mode == "batch"
            assert repr(batch.records) == repr(want), (returning, morsel_size)

    @pytest.mark.smoke
    @pytest.mark.parametrize("morsel_size", [1, 4, 256])
    def test_node_keys_and_union(self, morsel_size):
        """Nodes repeated across morsels group and count as one; UNION
        de-duplicates a column that changes type across morsels."""
        column = self.COLUMNS["str-then-int"] + self.COLUMNS["int-then-float"]
        graph = self._graph(column)
        items = list(graph.nodes())
        for i, source in enumerate(items):
            for target in (items[i % 3], items[(i * 7) % 5]):
                graph.create_relationship(source, target, "R")
        engine = CypherEngine(graph, morsel_size=morsel_size)
        for query in (
            "MATCH (:Item)-[:R]->(b) RETURN b, count(*) AS c",
            "MATCH (:Item)-[:R]->(b) RETURN b.k AS k, b, count(*) AS c",
            "MATCH (:Item)-[:R]->(b) RETURN count(DISTINCT b) AS c",
            "MATCH (a:Item)-[:R]->(b) "
            "RETURN a.k AS k, count(DISTINCT b) AS c",
            "MATCH (:Item)-[r:R]->() RETURN count(DISTINCT r) AS c",
            "MATCH (:Item)-[:R]->(b) RETURN DISTINCT b",
            "MATCH (n:Item) RETURN n.k AS k "
            "UNION MATCH (:Item)-[:R]->(n) RETURN n.k AS k",
        ):
            want = engine.run(query, mode="interpreter").records
            for mode in ("row", "batch"):
                got = engine.run(query, mode=mode).records
                assert repr(got) == repr(want), (query, mode, morsel_size)

    def test_zipped_keys_are_the_reference_keys(self):
        """The column keys order and group exactly as the per-value
        reference keys: the same stable permutation either way round,
        and the same equality relation on every pair of rows."""
        from repro.planner.batch import _canonical_column, _sort_keys
        from repro.values.ordering import canonical_key, sort_key

        for name, column in self.COLUMNS.items():
            keyed, reference = _sort_keys(column), list(map(sort_key, column))
            for descending in (False, True):
                got, want = list(range(len(column))), list(range(len(column)))
                got.sort(key=keyed.__getitem__, reverse=descending)
                want.sort(key=reference.__getitem__, reverse=descending)
                assert got == want, (name, descending)
            keyed = _canonical_column(column)
            reference = list(map(canonical_key, column))
            for i in range(len(column)):
                for j in range(len(column)):
                    assert (keyed[i] == keyed[j]) == (
                        reference[i] == reference[j]
                    ), (name, column[i], column[j])
        assert _sort_keys([]) == [] and _canonical_column([]) == []


# ---------------------------------------------------------------------------
# Ramped first morsels of lazily chunked index scans
# ---------------------------------------------------------------------------

def ramp_boundaries(morsel=DEFAULT_MORSEL_SIZE):
    """Chunk sizes 16, 32, … and the cumulative rows where a morsel ends."""
    sizes, size = [], min(FIRST_MORSEL_SIZE, morsel)
    while size < morsel:
        sizes.append(size)
        size = min(2 * size, morsel)
    sizes += [morsel, morsel]
    cumulative = [sum(sizes[:end]) for end in range(1, len(sizes) + 1)]
    return sorted(set(sizes) | set(cumulative))


def stamped_graph(count):
    graph = MemoryGraph()
    graph.create_index("Post", "created")
    graph.create_index("Owner", "id")
    owners = [
        graph.create_node(("Owner",), {"id": owner, "low": owner * 100})
        for owner in range(3)
    ]
    stamps = list(range(count))
    random.Random(count).shuffle(stamps)
    for stamp in stamps:
        post = graph.create_node(
            ("Post",), {"created": stamp, "owner": stamp % 3}
        )
        graph.create_relationship(owners[stamp % 3], post, "WROTE")
    return graph


class TestRampedIndexWalk:
    TOP = (
        "MATCH (p:Post) WHERE p.created IS NOT NULL "
        "RETURN p.created AS c ORDER BY c DESC LIMIT $k"
    )

    def test_boundaries_are_the_doubling_sizes_and_their_sums(self):
        assert ramp_boundaries() == [
            16, 32, 48, 64, 112, 128, 240, 256, 496, 752,
        ]
        assert ramp_boundaries(4) == [4, 8]
        assert ramp_boundaries(24) == [16, 24, 40, 64]

    def test_limit_over_an_ordered_index_reads_k_entries_not_a_morsel(self):
        engine = CypherEngine(stamped_graph(1000))
        walked = {}
        for mode in ("row", "batch"):
            result = engine.run(self.TOP, {"k": 5}, mode=mode, profile=True)
            assert result.execution_mode == mode
            assert result.values("c") == [999, 998, 997, 996, 995]
            (path,) = result.access_paths
            assert path["entry"] == "index ordered :Post(created) DESC"
            walked[mode] = path["actual_rows"]
        assert walked["row"] == 5
        assert walked["batch"] <= FIRST_MORSEL_SIZE < DEFAULT_MORSEL_SIZE
        # A larger k climbs the ramp: 16 + 32 entries serve LIMIT 20.
        result = engine.run(self.TOP, {"k": 20}, mode="batch", profile=True)
        assert result.access_paths[0]["actual_rows"] == 48
        assert result.values("c") == list(range(999, 979, -1))

    @pytest.mark.parametrize("boundary", ramp_boundaries())
    def test_scans_and_limits_agree_at_every_ramp_boundary(self, boundary):
        range_scan = "MATCH (p:Post) WHERE p.created >= 0 RETURN p.created AS c"
        limited = (
            "MATCH (p:Post) WHERE p.created >= 0 "
            "RETURN p.created AS c LIMIT $k"
        )
        for count in (boundary - 1, boundary, boundary + 1):
            engine = CypherEngine(stamped_graph(count))
            assert "IndexRangeScan" in engine.explain(range_scan)
            row = engine.run(range_scan, mode="row")
            batch = engine.run(range_scan, mode="batch")
            assert batch.execution_mode == "batch"
            assert batch.records == row.records
            assert len(batch.records) == count
            for k in (boundary - 1, boundary, boundary + 1):
                assert (
                    engine.run(limited, {"k": k}, mode="batch").records
                    == engine.run(limited, {"k": k}, mode="row").records
                )
            assert (
                engine.run(self.TOP, {"k": boundary}, mode="batch").records
                == engine.run(self.TOP, {"k": boundary}, mode="row").records
            )

    @pytest.mark.parametrize("morsel_size", [1, 4, 16, 20, 1000])
    def test_nested_probes_carry_the_ramp_across_driving_rows(
        self, morsel_size
    ):
        """One probe per driving row; the chunk size never restarts."""
        graph = stamped_graph(300)
        nested = (
            "MATCH (o:Owner), (p:Post) WHERE p.created >= o.low "
            "RETURN o.id AS owner, p.created AS c"
        )
        row = CypherEngine(graph).run(nested, mode="row")
        batch = CypherEngine(graph, morsel_size=morsel_size).run(
            nested, mode="batch", profile=True
        )
        assert batch.execution_mode == "batch"
        assert batch.records == row.records
        assert len(row.records) == 300 + 200 + 100
        probed = [
            path for path in batch.access_paths
            if path["entry"].startswith("index range :Post(created)")
        ]
        assert [path["actual_rows"] for path in probed] == [600]
