"""Unit tests: ColumnCompiler closures and the store's bulk column APIs.

Each compiled column closure must agree element-for-element with the row
compiler it shadows — including null propagation, type errors, the
constant-operand specialisations, and AND/OR's *masked* short-circuit
(the right operand is never evaluated on rows the left side decided,
so a pruned side that would raise must not raise).
"""

import pytest

from repro import CypherEngine
from repro.exceptions import CypherTypeError, ParameterNotBound
from repro.graph.snapshot import SnapshotGraph
from repro.graph.store import MemoryGraph
from repro.parser import parse_expression
from repro.planner.slots import SlotMap
from repro.semantics.compile import (
    MISSING,
    ColumnCompiler,
    ExpressionCompiler,
)
from repro.semantics.expressions import Evaluator
from repro.values.base import NodeId


@pytest.fixture
def graph():
    g = MemoryGraph()
    nodes = [
        g.create_node(("P",), {"v": i, "name": "p%d" % i, "f": i / 2})
        for i in range(6)
    ]
    g.create_relationship(nodes[0], nodes[1], "R", {"w": 7})
    g.create_relationship(nodes[1], nodes[2], "S", {"w": 8})
    g.create_relationship(nodes[2], nodes[0], "R", {"w": 9})
    return g


def make_compilers(graph, names=("a", "b"), parameters=None):
    slots = SlotMap(names)
    evaluator = Evaluator(graph, parameters)
    rows = ExpressionCompiler(evaluator, slots)
    return slots, rows, ColumnCompiler(rows)


def batch_from(slots, **columns):
    """(n, cols) with the named columns bound, everything else unbound."""
    n = len(next(iter(columns.values())))
    cols = [None] * len(slots)
    for name, column in columns.items():
        assert len(column) == n
        cols[slots[name]] = column
    return n, cols


def assert_column_matches_rows(graph, text, slots, rows, columns, batch):
    """The compiled column equals the row closure applied per row.

    If the row path raises on some row, the column path must raise the
    same error class for the batch (element order makes it the same
    first-failing element).
    """
    from repro.exceptions import CypherError

    expression = parse_expression(text)
    column_fn = columns.compile(expression)
    row_fn = rows.compile(expression)
    n, cols = batch
    expected = []
    error = None
    for index in range(n):
        row = [MISSING] * len(slots)
        for slot, col in enumerate(cols):
            if col is not None:
                row[slot] = col[index]
        try:
            expected.append(row_fn(row))
        except CypherError as raised:
            error = type(raised)
            break
    if error is not None:
        with pytest.raises(error):
            column_fn(n, cols)
        return
    assert column_fn(n, cols) == expected, text


VECTOR_EXPRESSIONS = [
    "a.v",                     # bulk property fast path
    "a.v + 1",                 # const-right arithmetic specialisation
    "a.v * b.v",
    "a.v - b.v",
    "a.v % 2",                 # general arithmetic (row fast path reused)
    "a.v / 2",
    "a.v > 2",                 # const-right comparison specialisation
    "a.v >= b.v",
    "a.v = b.v",
    "a.v <> 3",
    "a.v < b.v",
    "a.v <= 2",
    "1 + 2",                   # folded constant column
    "a.v IS NULL",
    "a.v IS NOT NULL",
    "NOT a.v > 2",
    "a.v > 1 AND b.v > 1",
    "a.v > 4 OR b.v > 4",
    "a.v > 2 XOR b.v > 2",
    "a.name STARTS WITH 'p'",  # elementwise fallback family
    "a.name CONTAINS '1'",
    "a.v IN [1, 2, 3]",
    "a.name =~ 'p[0-9]'",
    "[x IN [a.v, b.v] WHERE x > 1 | x * 10]",   # scratch-row fallback
    "all(x IN [a.v, b.v] WHERE x >= 0)",
    "reduce(s = 0, x IN [a.v, b.v] | s + x)",
    "CASE WHEN a.v > 2 THEN 'hi' ELSE 'lo' END",
    "size([1, 2])",
    "toString(a.v)",
    "coalesce(a.nope, a.v)",
    "a.f",                     # float properties through the bulk path
    "a:P",
    "a:Missing",
]


class TestColumnsAgreeWithRows:
    @pytest.mark.parametrize("text", VECTOR_EXPRESSIONS)
    def test_node_columns(self, graph, text):
        slots, rows, columns = make_compilers(graph)
        nodes = sorted(graph.all_node_ids(), key=lambda n: n.value)
        batch = batch_from(slots, a=nodes, b=list(reversed(nodes)))
        assert_column_matches_rows(graph, text, slots, rows, columns, batch)

    @pytest.mark.parametrize(
        "text",
        [
            "a + 1", "a * 2", "a > 2", "a = b", "a < b",
            "a AND b", "a OR b", "NOT a", "a IS NULL",
        ],
    )
    def test_mixed_scalar_columns(self, graph, text):
        """Ints, floats, nulls and booleans share one column."""
        slots, rows, columns = make_compilers(graph)
        batch = batch_from(
            slots,
            a=[1, None, 2.5, True, 0],
            b=[None, 3, 1, False, 0],
        )
        assert_column_matches_rows(graph, text, slots, rows, columns, batch)

    def test_property_access_on_mixed_column_falls_back(self, graph):
        """Maps, nulls and nodes in one column: per-element semantics."""
        slots, rows, columns = make_compilers(graph)
        node = graph.all_node_ids()[0]
        batch = batch_from(slots, a=[node, {"v": 99}, None])
        assert_column_matches_rows(
            graph, "a.v", slots, rows, columns, batch
        )

    def test_property_access_type_error_matches_row_path(self, graph):
        slots, _rows, columns = make_compilers(graph)
        compiled = columns.compile(parse_expression("a.v"))
        n, cols = batch_from(slots, a=[1])
        with pytest.raises(CypherTypeError):
            compiled(n, cols)

    def test_relationship_property_column(self, graph):
        slots, rows, columns = make_compilers(graph)
        rels = sorted(graph.relationships(), key=lambda r: r.value)
        batch = batch_from(slots, a=rels)
        assert_column_matches_rows(graph, "a.w", slots, rows, columns, batch)

    def test_parameter_column_broadcasts(self, graph):
        slots, rows, columns = make_compilers(
            graph, parameters={"limit": 3}
        )
        nodes = graph.all_node_ids()
        batch = batch_from(slots, a=nodes)
        assert_column_matches_rows(
            graph, "a.v < $limit", slots, rows, columns, batch
        )

    def test_unbound_parameter_raises_only_on_rows(self, graph):
        slots, _rows, columns = make_compilers(graph)
        compiled = columns.compile(parse_expression("$missing"))
        assert compiled(0, [None] * len(slots)) == []
        with pytest.raises(ParameterNotBound):
            compiled(2, batch_from(slots, a=[1, 2])[1])

    def test_empty_batch_yields_empty_columns(self, graph):
        slots, _rows, columns = make_compilers(graph)
        n, cols = 0, [None] * len(slots)
        for text in ("a.v + 1", "a.v > 2 AND b.v > 2", "$p", "1 + 2"):
            assert columns.compile(parse_expression(text))(n, cols) == []

    def test_unbound_variable_raises_like_row_path(self, graph):
        from repro.exceptions import CypherSemanticError

        slots, _rows, columns = make_compilers(graph)
        compiled = columns.compile(parse_expression("a"))
        with pytest.raises(CypherSemanticError):
            compiled(1, [None] * len(slots))


class TestShortCircuitMasking:
    """AND/OR evaluate the right side only on undecided rows."""

    def test_and_skips_divide_by_zero_on_decided_rows(self, graph):
        slots, _rows, columns = make_compilers(graph)
        compiled = columns.compile(parse_expression("a > 0 AND 10 / a > 1"))
        n, cols = batch_from(slots, a=[0, 5, 0, 2])
        # Rows with a = 0 are decided False by the left side; the right
        # side's 10/0 must never run.  (The row engine short-circuits per
        # row; the column engine must reproduce that via masking.)
        assert compiled(n, cols) == [False, True, False, True]

    def test_or_skips_divide_by_zero_on_decided_rows(self, graph):
        slots, _rows, columns = make_compilers(graph)
        compiled = columns.compile(parse_expression("a = 0 OR 10 / a > 4"))
        n, cols = batch_from(slots, a=[0, 5, 0, 2])
        assert compiled(n, cols) == [True, False, True, True]

    def test_fully_decided_left_never_calls_right(self, graph):
        slots, _rows, columns = make_compilers(graph)
        compiled = columns.compile(parse_expression("a > 0 AND 10 / a > 1"))
        n, cols = batch_from(slots, a=[0, 0, 0])
        assert compiled(n, cols) == [False, False, False]

    def test_engine_level_parity_on_guarded_division(self, graph):
        query = (
            "MATCH (n:P) WHERE n.v > 0 AND 10 / n.v >= 2 "
            "RETURN count(*) AS c"
        )
        engine = CypherEngine(graph)
        reference = engine.run(query, mode="interpreter")
        for mode in ("row", "batch"):
            result = engine.run(query, mode=mode)
            assert reference.table.same_bag(result.table), mode


class TestSelection:
    def test_selection_keeps_only_strict_true(self, graph):
        slots, _rows, columns = make_compilers(graph)
        selection = columns.compile_selection(parse_expression("a > 1"))
        n, cols = batch_from(slots, a=[0, 2, None, 3, True])
        # None (null comparison) and the boolean-vs-int comparison are
        # not strictly true: only indexes 1 and 3 survive.
        assert selection(n, cols) == [1, 3]


class TestBulkStoreApis:
    def test_all_node_ids_is_a_fresh_list(self, graph):
        ids = graph.all_node_ids()
        ids.append("sentinel")
        assert "sentinel" not in graph.all_node_ids()
        assert len(graph.all_node_ids()) == graph.node_count()

    def test_label_scan_ids_sorted_and_cached(self, graph):
        first = graph.label_scan_ids("P")
        assert first == sorted(first, key=lambda n: n.value)
        assert graph.label_scan_ids("P") is first  # memoised per version
        assert graph.label_scan_ids("Missing") == []

    def test_node_property_column_matches_scalar_reads(self, graph):
        nodes = graph.all_node_ids()
        assert graph.node_property_column(nodes, "v") == [
            graph.node_property(node, "v") for node in nodes
        ]
        with pytest.raises((KeyError, TypeError)):
            graph.node_property_column([NodeId(999999)], "v")

    @pytest.mark.parametrize("direction", ["out", "in", "both"])
    @pytest.mark.parametrize("types", [None, frozenset({"R"}),
                                       frozenset({"R", "S"})])
    def test_expand_batch_matches_per_row_accessors(
        self, graph, direction, types
    ):
        nodes = graph.all_node_ids()
        origins, rels, targets = graph.expand_batch(nodes, direction, types)
        position = 0
        step = {
            "out": graph.outgoing, "in": graph.incoming,
            "both": graph.touching,
        }[direction]
        for index, node in enumerate(nodes):
            for rel in step(node, types):
                assert origins[position] == index
                assert rels[position] == rel
                if direction == "out":
                    assert targets[position] == graph.tgt(rel)
                elif direction == "in":
                    assert targets[position] == graph.src(rel)
                else:
                    assert targets[position] == graph.other_end(rel, node)
                position += 1
        assert position == len(origins) == len(rels) == len(targets)

    def test_expand_batch_skips_non_nodes(self, graph):
        node = graph.all_node_ids()[0]
        origins, rels, targets = graph.expand_batch(
            [None, 5, node, NodeId(424242)], "out", None
        )
        assert set(origins) <= {2}

    def test_self_loop_expands_once_in_both_direction(self):
        g = MemoryGraph()
        n = g.create_node(("L",), {})
        g.create_relationship(n, n, "SELF")
        origins, rels, targets = g.expand_batch([n], "both", None)
        assert len(rels) == 1
        assert targets == [n]


class TestLabelAlignedColumns:
    """``label_property_column`` is an auxiliary structure: whenever it
    answers at all, it equals its from-scratch definition —
    ``node_property_column(label_scan_ids(l), k)`` — and a batch scan
    reading through it equals the interpreter, after every kind of
    write, inside and outside transactions."""

    LABELS = ("L", "M")
    KEYS = ("v", "w")
    READ = "MATCH (n:L) WHERE n.v >= $x RETURN count(n) AS c, sum(n.v) AS s"

    #: Every raw mutator a column could go stale under, plus the four
    #: that move the scan list instead.
    STEPS = (
        "MATCH (n:L {i: 3}) SET n.v = 100",
        "MATCH (n:L {i: 4}) REMOVE n.v",
        "MATCH (n:L {i: 5}) SET n = {i: 5, v: -7}",
        "MATCH (n:L {i: 6}) SET n += {v: 60, w: null}",
        "MATCH (n:M {i: 41}) SET n:L",
        "MATCH (n:L {i: 7}) REMOVE n:L",
        "CREATE (:L {i: 90, v: 9}), (:L:M {i: 91, v: 91, w: 1})",
        "MATCH (n:L {i: 8}) DETACH DELETE n",
    )

    @staticmethod
    def _graph():
        g = MemoryGraph()
        for i in range(12):
            g.create_node(("L",), {"i": i, "v": i % 5, "w": i * 2})
        for i in range(40, 44):
            g.create_node(("M",), {"i": i, "v": i})
        return g

    def _check(self, graph, run):
        """Columns ≡ rebuilt (or refused); batch read ≡ interpreter."""
        for label in self.LABELS:
            ids = graph.label_scan_ids(label)
            for key in self.KEYS:
                for _twice in range(2):  # the fill, then the memo
                    column = graph.label_property_column(label, key, ids)
                    assert column is None or column == (
                        graph.node_property_column(ids, key)
                    ), (label, key)
        for x in (0, 3):
            want = run(self.READ, {"x": x}, mode="interpreter").records
            got = run(self.READ, {"x": x}, mode="batch", profile=True)
            assert got.execution_mode == "batch"
            assert got.records == want
            # ... and the read really went through the aligned column.
            assert got.access_paths[0]["column_slices"].get("v")

    @pytest.mark.smoke
    def test_maintained_equals_rebuilt_through_a_scripted_session(self):
        graph = self._graph()
        engine = CypherEngine(graph)
        self._check(graph, engine.run)
        with engine.session() as session:
            for ending in ("rollback", "commit"):
                session.begin()
                for step in self.STEPS:
                    session.run(step)
                    self._check(graph, session.run)
                getattr(session, ending)()
                self._check(graph, session.run)
        self._check(graph, engine.run)

    def test_auto_committed_writes(self):
        graph = self._graph()
        engine = CypherEngine(graph)
        for step in self.STEPS:
            self._check(graph, engine.run)  # warm before every write
            engine.run(step)
        self._check(graph, engine.run)

    def test_a_failed_statement_rolled_back_inside_a_session(self):
        from repro.exceptions import QueryCancelled
        from repro.functions.registry import default_registry
        from repro.runtime.cancel import CancelToken

        token = CancelToken()
        calls = [0]

        def tripwire(context, value):
            calls[0] += 1
            if calls[0] == 40:
                token.cancel()
            return value

        registry = default_registry()
        registry.register("tripwire", tripwire, min_arity=1, max_arity=1)
        graph = MemoryGraph()
        for i in range(600):
            graph.create_node(("L",), {"i": i, "v": i % 5, "w": i})
        engine = CypherEngine(graph, functions=registry)
        with engine.session() as session:
            session.begin()
            session.run(self.STEPS[0])
            self._check(graph, session.run)
            applied = graph.node_property_column(graph.label_scan_ids("L"), "v")
            with pytest.raises(QueryCancelled):
                session.run(
                    "MATCH (n:L) SET n.v = tripwire(n.v) + 1000", cancel=token
                )
            assert calls[0] >= 40  # some rows were written, then unwound
            self._check(graph, session.run)
            assert applied == graph.node_property_column(
                graph.label_scan_ids("L"), "v"
            )
            session.commit()
        self._check(graph, engine.run)

    def test_a_copy_starts_cold(self):
        graph = self._graph()
        engine = CypherEngine(graph)
        self._check(graph, engine.run)
        assert graph._column_cache
        clone = graph.copy()
        assert not clone._column_cache
        self._check(clone, CypherEngine(clone).run)

    def test_a_stale_scan_list_is_refused(self):
        graph = self._graph()
        ids = graph.label_scan_ids("L")
        assert graph.label_property_column("L", "v", ids) is not None
        assert graph.label_property_column("L", "v", list(ids)) is None
        graph.delete_node(ids[3])
        assert graph.label_property_column("L", "v", ids) is None
        fresh = graph.label_scan_ids("L")
        assert fresh is not ids and len(fresh) == len(ids) - 1
        assert graph.label_property_column("L", "v", fresh) == (
            graph.node_property_column(fresh, "v")
        )
        # A create appends to the warm list in place: same list, longer.
        with CypherEngine(graph).session() as session:
            session.begin()
            warm = graph.label_scan_ids("L")
            before = graph.label_property_column("L", "v", warm)
            session.run("CREATE (:L {i: 99, v: 99})")
            assert graph.label_scan_ids("L") is warm
            after = graph.label_property_column("L", "v", warm)
            assert after == before + [99] and len(after) == len(warm)
            session.rollback()
        assert graph.label_property_column("L", "v", warm) is None

    @pytest.mark.smoke
    def test_snapshot_pins_clean_and_dirty(self):
        graph = self._graph()
        engine = CypherEngine(graph)
        want = engine.run(self.READ, {"x": 2}, mode="interpreter").records
        with engine.session() as session:
            snapshot = session.snapshot()
            view = snapshot.graph
            ids = view.label_scan_ids("L")
            assert view.label_property_column("L", "v", ids) is (
                graph.label_property_column("L", "v", ids)
            )
            clean = snapshot.run(
                self.READ, {"x": 2}, mode="batch", profile=True
            )
            assert clean.records == want
            assert clean.access_paths[0]["column_slices"] == {"v": 1}
            engine.run("MATCH (n:L {i: 3}) SET n.v = 100")
            view = snapshot.graph
            assert isinstance(view, SnapshotGraph)
            assert view.label_property_column(
                "L", "v", view.label_scan_ids("L")
            ) is None
            dirty = snapshot.run(
                self.READ, {"x": 2}, mode="batch", profile=True
            )
            assert dirty.records == want  # the pin-time answer, gathered
            assert dirty.access_paths[0]["column_slices"] == {}
        assert engine.run(self.READ, {"x": 2}, mode="batch").records != want

    def test_fault_injection_across_a_property_write(self):
        """Crash at every site of one transaction that writes a property
        with the column warm: after the rollback the column is the
        pre-transaction one again (or refused) and the read agrees."""
        from repro.graph.store import FaultInjector, InjectedFault

        def workload(graph):
            with CypherEngine(graph).session() as session:
                session.begin()
                session.run("MATCH (n:L) WHERE n.i < 4 SET n.v = n.v + 10")
                session.run("MATCH (n:L {i: 5}) SET n += {v: 1, w: 2}")
                session.run("MATCH (n:L {i: 6}) REMOVE n.v")
                session.commit()

        def warmed():
            graph = self._graph()
            graph.create_index("L", "w")  # index sites in the sweep too
            self._check(graph, CypherEngine(graph).run)
            return graph

        tracer = FaultInjector()
        traced = warmed()
        traced.install_fault_injector(tracer)
        workload(traced)
        traced.install_fault_injector(None)
        self._check(traced, CypherEngine(traced).run)
        assert tracer.counts["set_property"] == 4
        pristine = warmed()
        pristine_column = pristine.node_property_column(
            pristine.label_scan_ids("L"), "v"
        )
        for ordinal in range(1, tracer.total + 1):
            graph = warmed()
            graph.install_fault_injector(FaultInjector(arm_at=ordinal))
            with pytest.raises(InjectedFault):
                workload(graph)
            graph.install_fault_injector(None)
            self._check(graph, CypherEngine(graph).run)
            assert graph.node_property_column(
                graph.label_scan_ids("L"), "v"
            ) == pristine_column, ordinal
