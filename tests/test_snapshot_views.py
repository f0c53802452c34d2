"""The snapshot view: one differential, generic over access paths.

``session.snapshot()`` promises ``⟦Q⟧_G`` for the ``G`` current when the
pin was taken, whatever the writer does afterwards.  A dirty pin reads
through :class:`~repro.graph.snapshot.SnapshotGraph`, which answers
every access path — label scans, all six index probe kinds, ordered
index walks, covering reads, bulk columns — as the live store's answer
corrected by the pin's delta.  The differential below therefore has one
oracle, a ``graph.copy()`` taken at pin time, and one loop: hypothesis
writer scripts (indexed and covered keys, label flips, creates, detach
deletes, relationship churn, transactions committed, rolled back and
left open) run between the pin and reads on both engines, after every
step.

The second half proves properties by inspection rather than timing: a
dirty read names its index entry, costs the shared plan cache nothing,
follows index DDL, and a write under a live pin preserves entities,
never labels.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzztools
from repro import CypherEngine, CypherError
from repro.exceptions import EntityNotFound, TransactionError
from repro.graph.snapshot import SnapshotGraph
from repro.graph.store import MemoryGraph
from repro.values.base import NodeId, RelId


def padded(graph):
    """``graph`` plus 30 more nodes per label.

    The fixture graphs are small enough that the cost model often
    prefers a label scan; the padding tips it to the index entries, so
    the same corpus exercises both kinds of access path on a view.
    """
    graph = graph.copy()
    for i in range(90):
        graph.create_node(
            ("ABC"[i % 3],), {"v": i % 7, "name": "node-%d" % (100 + i)}
        )
    return graph


BASES = {
    "indexed": fuzztools.INDEXED_GRAPH,
    "composite": fuzztools.COMPOSITE_INDEXED_GRAPH,
    "indexed-padded": padded(fuzztools.INDEXED_GRAPH),
    "composite-padded": padded(fuzztools.COMPOSITE_INDEXED_GRAPH),
}

#: Reads beyond ``sargable_queries``: index-provided ORDER BY (ASC,
#: DESC, mixed composite directions, bounded, under an equality
#: prefix), covering projections, composite seeks and prefix probes.
#: Every ORDER BY here is total over the projected columns or leaves
#: ties to node-id order, which the view's ordered merge reproduces.
VIEW_QUERIES = [
    "MATCH (a:A) WHERE a.v IS NOT NULL "
    "RETURN a.v AS v, a.name AS n ORDER BY v LIMIT 3",
    "MATCH (a:A) WHERE a.v IS NOT NULL "
    "RETURN a.v AS v, a.name AS n ORDER BY v DESC LIMIT 4",
    "MATCH (a:B) WHERE a.v >= 1 RETURN a.v AS v, a.name AS n ORDER BY v DESC",
    "MATCH (a:A) WHERE a.name STARTS WITH 'node' "
    "RETURN a.name AS n ORDER BY n DESC LIMIT 2",
    "MATCH (a:A) WHERE a.v IS NOT NULL AND a.name IS NOT NULL "
    "RETURN a.v AS v, a.name AS n ORDER BY v DESC, n ASC LIMIT 5",
    "MATCH (a:C) WHERE a.name IS NOT NULL AND a.v IS NOT NULL "
    "RETURN a.name AS n, a.v AS v ORDER BY n ASC, v DESC LIMIT 6",
    "MATCH (a:A) WHERE a.v = 1 AND a.name IS NOT NULL "
    "RETURN a.name AS n ORDER BY n DESC",
    "MATCH (a:A) WHERE a.v > 0 RETURN a.v AS v",
    "MATCH (a:A) WHERE a.v = 1 AND a.name STARTS WITH 'node' "
    "RETURN a.v AS v, a.name AS n",
    "MATCH (a:A) WHERE a.v = 2 AND a.name >= 'node-2' "
    "RETURN a.v AS v, a.name AS n",
    "MATCH (a:B) WHERE a.v = 1 AND a.name = 'node-1' RETURN count(*) AS c",
    "MATCH (a:A) WHERE a.v IN [0, 3, 1.0] RETURN a.name AS n",
    "MATCH (a:C) WHERE a.v IN [2, 5, null] RETURN a.name AS n",
    "MATCH (a:B) WHERE a.name STARTS WITH 'node-1' RETURN a.name AS n",
    "MATCH (a:A)-[:R|S]-(b) RETURN a.name AS a, b.name AS b",
    "MATCH (n) RETURN labels(n) AS ls, count(*) AS c",
    "MATCH ()-[r]->() RETURN type(r) AS t, count(*) AS c",
]

#: Writer statements aimed at what a view must correct: indexed and
#: covered keys (type-changing, int→float within one bucket, removed),
#: entries created and deleted under indexed labels, relationship churn.
VIEW_STATEMENTS = [
    "MATCH (a:A) WITH a ORDER BY a.name SET a.name = 'renamed-' + a.name",
    "MATCH (a:B) WITH a ORDER BY a.name SET a.v = a.v + 0.5",
    "MATCH (a:A) WHERE a.v = 1 SET a.v = 1.0",
    "MATCH (a:C) WITH a ORDER BY a.name REMOVE a.name",
    "MATCH (a:A) WHERE a.v >= 2 SET a.v = 0",
    "CREATE (:A {v: 1, name: 'node-new'})",
    "CREATE (:B {v: 2.0, name: 'node-10'})-[:R]->(:C {v: 3, name: 'z'})",
    "MATCH (a:A)-[r:R]->() DELETE r",
    "MATCH (a:A), (b:B) WHERE a.v = b.v CREATE (a)-[:R]->(b)",
    "MATCH (a:B) WHERE a.v <= 1 DETACH DELETE a",
    "MATCH (a:C) SET a:A REMOVE a:C",
]


@st.composite
def writer_scripts(draw):
    """Writer steps between pin and read; the last transaction may stay
    open, so reads also run beside uncommitted writes."""
    statement = st.one_of(
        fuzztools.indexed_update_queries(), st.sampled_from(VIEW_STATEMENTS)
    )
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            steps.append(("begin",))
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                steps.append(("run", draw(statement)))
            end = draw(st.sampled_from(["commit", "rollback", "leave open"]))
            if end == "leave open":
                break
            steps.append((end,))
        else:
            steps.append(("run", draw(statement)))
    return steps


view_reads = st.lists(
    st.one_of(fuzztools.sargable_queries(), st.sampled_from(VIEW_QUERIES)),
    min_size=2, max_size=5, unique=True,
)


def assert_view_agrees(snapshot, oracle, queries, context=""):
    for query in queries:
        for mode in ("row", "batch"):
            got = snapshot.run(query, mode=mode)
            want = oracle.run(query, mode=mode)
            assert want.table.same_bag(got.table), (context, mode, query)
            if "ORDER BY" in query:
                assert got.records == want.records, (context, mode, query)


#: Probe values for the store-level comparison: every sorted segment,
#: an int/float bucket pair, a miss, null, NaN, an unsegmented list.
PROBE_VALUES = [
    0, 1, 1.0, 2, 6.5, 99, "node-1", "node-10", "renamed-node-0", "z",
    True, None, float("nan"), [1],
]


def assert_surface_agrees(view, copy, live):
    """The view's store-level answers equal the pin-time copy's, exactly.

    Lists are compared as lists: a probe on a view enumerates in the
    probe's own order (id order; value-then-id for ranges; index order
    for ordered walks), which is what makes a view indistinguishable
    from the store it pins even where no ORDER BY observes the order.
    """
    assert sorted(view.all_node_ids()) == sorted(copy.all_node_ids())
    assert sorted(view.relationships()) == sorted(copy.relationships())
    for node in copy.all_node_ids():
        assert view.labels(node) == copy.labels(node)
        assert view.has_label(node, "A") == copy.has_label(node, "A")
        assert view.properties(node) == copy.properties(node)
        assert view.property_value(node, "v") == copy.node_property(node, "v")
        for direction in ("out", "in", "both"):
            assert view.degree(node, direction) == copy.degree(node, direction)
            assert view.degree(node, direction, "R") == (
                copy.degree(node, direction, "R")
            )
        for types in (None, ["R"], ["S", "R", "Link"]):
            assert list(view.outgoing(node, types)) == list(
                copy.outgoing(node, types)
            )
            assert list(view.incoming(node, types)) == list(
                copy.incoming(node, types)
            )
    for rel in copy.relationships():
        assert view.has_relationship(rel)
        assert (view.src(rel), view.tgt(rel), view.rel_type(rel)) == (
            copy.src(rel), copy.tgt(rel), copy.rel_type(rel)
        )
        assert view.properties(rel) == copy.properties(rel)
        assert view.property_value(rel, "w") == copy.property_value(rel, "w")
    for node in live.all_node_ids():
        if not copy.has_node(node):  # created after the pin
            assert not view.has_node(node)
            with pytest.raises(EntityNotFound):
                view.labels(node)
            with pytest.raises(KeyError):
                view.node_property_column([node], "v")
    for rel in live.relationships():
        if not copy.has_relationship(rel):
            assert not view.has_relationship(rel)
            with pytest.raises(EntityNotFound):
                view.rel_type(rel)
    assert view.node_count() == copy.node_count()
    assert view.relationship_count() == copy.relationship_count()
    assert view.label_cardinalities() == {
        label: n for label, n in copy.label_cardinalities().items() if n
    }
    assert view.type_cardinalities() == {
        t: n for t, n in copy.type_cardinalities().items() if n
    }
    for label in set(copy.all_labels()) | {"A", "B", "C", "Nope"}:
        assert view.label_scan_ids(label) == copy.label_scan_ids(label)
        assert view.label_count(label) == copy.label_count(label)
        assert view.has_label_nodes(label) == copy.has_label_nodes(label)
    for rel_type in set(copy.all_types()) | {"R", "S", "Nope"}:
        assert list(view.relationships_with_type(rel_type)) == list(
            copy.relationships_with_type(rel_type)
        )
        assert view.type_count(rel_type) == copy.type_count(rel_type)
    assert view.all_labels() == sorted(view.label_cardinalities())
    assert view.all_types() == sorted(view.type_cardinalities())
    nowhere = NodeId(10 ** 6)
    assert not view.has_node(nowhere)
    assert not view.has_relationship(RelId(10 ** 6))
    # A column holding a non-node (even an unhashable one) expands the
    # nodes around it exactly as the copy does.
    sources = copy.all_node_ids() + [[1], None, nowhere]
    for direction in ("out", "in", "both"):
        assert view.expand_batch(sources, direction, ("R", "S")) == (
            copy.expand_batch(sources, direction, ("R", "S"))
        )
    # The index set and its statistics are the live store's own.
    assert view.indexes() == live.indexes() == copy.indexes()
    assert view.index_statistics() == live.index_statistics()
    for label, keys in copy.indexes():
        assert view.has_index(label, keys)
        assert view.index_prefix_ndvs(label, keys) == (
            live.index_prefix_ndvs(label, keys)
        )
        assert view.index_column_distribution(label, keys, 0) == (
            live.index_column_distribution(label, keys, 0)
        )
        depth = 1 if isinstance(keys, str) else len(keys)
        cover_view = view.index_cover_getter(label, keys)
        cover_copy = copy.index_cover_getter(label, keys)
        for node in copy.label_scan_ids(label):
            covered = cover_view(node)
            assert covered is None or covered == cover_copy(node)
        for value in PROBE_VALUES:
            if isinstance(keys, str):
                assert view.index_probe(label, keys, (value,)) == (
                    copy.index_probe(label, keys, (value,))
                )
                assert view.index_seek_range(
                    label, keys, (), value, True, None, True
                ) == copy.index_seek_range(
                    label, keys, (), value, True, None, True
                )
                # A null STARTS WITH operand is answered by the caller:
                # the store reads it as "no prefix given".
                if value is not None:
                    assert view.index_seek_range(
                        label, keys, (), None, True, None, True, value
                    ) == copy.index_seek_range(
                        label, keys, (), None, True, None, True, value
                    )
            for prefix in ((), (value,)):
                if len(prefix) >= depth:
                    continue
                assert view.index_probe(label, keys, prefix + (1,)) == (
                    copy.index_probe(label, keys, prefix + (1,))
                )
                for bounds in ((0, False, 3, True), ("node-1", True, None, True)):
                    assert view.index_seek_range(
                        label, keys, prefix, *bounds
                    ) == copy.index_seek_range(label, keys, prefix, *bounds)
                assert view.index_seek_range(
                    label, keys, prefix, None, True, None, True, "node-1"
                ) == copy.index_seek_range(
                    label, keys, prefix, None, True, None, True, "node-1"
                )
                for directions in ((True,), (False,)):
                    assert list(
                        view.index_ordered(label, keys, prefix, directions)
                    ) == list(
                        copy.index_ordered(label, keys, prefix, directions)
                    )
        if isinstance(keys, str):
            assert view.index_lookup_many(label, keys, PROBE_VALUES) == (
                copy.index_lookup_many(label, keys, PROBE_VALUES)
            )
        else:
            for directions in ((True, False), (False, True), (False, False)):
                assert list(
                    view.index_ordered(label, keys, (), directions)
                ) == list(copy.index_ordered(label, keys, (), directions))
            assert list(view.index_ordered(
                label, keys, (), (False, True), low=0, high=2.5
            )) == list(copy.index_ordered(
                label, keys, (), (False, True), low=0, high=2.5
            ))


class TestViewDifferential:
    @pytest.mark.parametrize("base", sorted(BASES))
    @settings(max_examples=20, deadline=None)
    @given(script=writer_scripts(), queries=view_reads)
    def test_view_equals_copy_taken_at_pin_time(self, base, script, queries):
        graph = BASES[base].copy()
        engine = CypherEngine(graph)
        with engine.session() as reader, engine.session() as writer:
            snapshot = reader.snapshot()
            oracle = CypherEngine(graph.copy())
            assert_view_agrees(snapshot, oracle, queries, "clean")
            for number, step in enumerate(script):
                if step[0] == "begin":
                    writer.begin()
                elif step[0] == "run":
                    try:
                        writer.run(step[1])
                    except CypherError:
                        pass  # the statement rolled back, like apply_script
                elif step[0] == "commit":
                    writer.commit()
                else:
                    writer.rollback()
                assert_view_agrees(
                    snapshot, oracle, queries, (number, step)
                )
                if number in (0, len(script) - 1):
                    assert_surface_agrees(snapshot.graph, oracle.graph, graph)
            assert snapshot.version == oracle.graph.version
        fuzztools.assert_indexes_consistent(graph)

    def test_views_are_read_only(self):
        engine = CypherEngine(fuzztools.fixture_graph())
        with engine.session() as session:
            snapshot = dirty_snapshot(engine, session)
            with pytest.raises(TransactionError, match="read-only"):
                snapshot.graph.write_transaction()
            with pytest.raises(TransactionError, match="read-only view"):
                snapshot.run("MATCH (a:A) SET a.v = 0")
            assert "SnapshotGraph(v" in repr(snapshot.graph)
            assert "dirty" in repr(snapshot.pin)

    def test_uncommitted_writes_are_invisible_through_every_probe_kind(self):
        """A transactional snapshot beside its own session's open writes."""
        engine = CypherEngine(padded(fuzztools.COMPOSITE_INDEXED_GRAPH))
        engine.create_index("B", "name")
        engine.create_index("C", "v")
        oracle = CypherEngine(engine.graph.copy())
        with engine.session() as session:
            session.begin()
            snapshot = session.snapshot()
            for statement in VIEW_STATEMENTS:
                session.run(statement)
            assert not snapshot.pin.clean
            entries = set()
            for query in VIEW_QUERIES:
                result = snapshot.run(query, profile=True)
                entries.update(
                    path["entry"].split(" :")[0]
                    for path in result.access_paths
                )
            assert entries >= {
                "index seek", "index IN", "index range", "index prefix",
                "index ordered", "label scan",
            }, entries
            assert_view_agrees(snapshot, oracle, VIEW_QUERIES)
            session.rollback()


# ---------------------------------------------------------------------------
# Proofs by inspection
# ---------------------------------------------------------------------------

POINT = "MATCH (a:A) WHERE a.v = $v RETURN a.name AS n"
RANGE = "MATCH (a:A) WHERE a.v >= $lo AND a.v < $hi RETURN count(*) AS c"
ORDERED = (
    "MATCH (a:A) WHERE a.v IS NOT NULL "
    "RETURN a.v AS v, a.name AS n ORDER BY v DESC LIMIT 3"
)
WARM_TEXTS = (
    (POINT, {"v": 1}), (RANGE, {"lo": 1, "hi": 3}), (ORDERED, None),
)
DIRTYING = (
    "MATCH (a:A) WHERE a.v = 1 SET a.v = 6",
    "CREATE (:A {v: 1, name: 'late'})",
    "MATCH (a:A) WHERE a.v = 2 DETACH DELETE a",
)


def dirty_snapshot(engine, session):
    """A snapshot whose pin the three DIRTYING statements diverged."""
    snapshot = session.snapshot()
    for statement in DIRTYING:
        engine.run(statement)
    assert not snapshot.pin.clean
    assert isinstance(snapshot.graph, SnapshotGraph)
    return snapshot


def entries_of(result):
    return [path["entry"] for path in result.access_paths]


class TestDirtyViewsKeepIndexesAndPlans:
    def engine(self):
        return CypherEngine(padded(fuzztools.INDEXED_GRAPH))

    @pytest.mark.smoke
    def test_dirty_reads_name_their_index_entry(self):
        engine = self.engine()
        oracle = CypherEngine(engine.graph.copy())
        with engine.session() as session:
            snapshot = dirty_snapshot(engine, session)
            for (text, parameters), entry in zip(WARM_TEXTS, (
                "index seek :A(v)", "index range :A(v)",
                "index ordered :A(v) DESC",
            )):
                for mode in ("row", "batch"):
                    got = snapshot.run(
                        text, parameters, mode=mode, profile=True
                    )
                    assert entries_of(got) == [entry]
                    want = oracle.run(text, parameters, mode=mode)
                    assert got.records == want.records
                    live = engine.run(text, parameters, mode=mode)
                    assert live.records != got.records

    def test_dirty_reads_of_warm_texts_cost_the_plan_cache_nothing(self):
        engine = self.engine()
        for text, parameters in WARM_TEXTS:
            engine.run(text, parameters)
        with engine.session() as session:
            snapshot = dirty_snapshot(engine, session)
            before = engine.plan_cache_info()
            for text, parameters in WARM_TEXTS:
                snapshot.run(text, parameters)
            after = engine.plan_cache_info()
            assert after["misses"] == before["misses"]
            assert after["hits"] == before["hits"] + len(WARM_TEXTS)
            info = engine.snapshot_info()
            assert info["dirty_reads"] == len(WARM_TEXTS)
            assert info["clean_reads"] == 0

    def test_create_index_under_a_dirty_pin_is_probed_and_corrected(self):
        engine = self.engine()
        engine.drop_index("A", "v")
        oracle = CypherEngine(engine.graph.copy())
        with engine.session() as session:
            snapshot = dirty_snapshot(engine, session)
            scanned = snapshot.run(POINT, {"v": 1}, profile=True)
            assert entries_of(scanned) == ["label scan :A"]
            engine.create_index("A", "v")
            probed = snapshot.run(POINT, {"v": 1}, profile=True)
            assert entries_of(probed) == ["index seek :A(v)"]
            want = oracle.run(POINT, {"v": 1})
            assert want.table.same_bag(scanned.table)
            assert want.table.same_bag(probed.table)
            assert snapshot.graph.schema_version == (
                engine.graph.schema_version
            )

    def test_dropped_index_is_never_probed_through_a_view(self):
        engine = self.engine()
        oracle = CypherEngine(engine.graph.copy())
        with engine.session() as session:
            snapshot = dirty_snapshot(engine, session)
            assert entries_of(
                snapshot.run(POINT, {"v": 1}, profile=True)
            ) == ["index seek :A(v)"]
            engine.drop_index("A", "v")
            evicted = engine.plan_cache_info()["evicted_schema"]
            after = snapshot.run(POINT, {"v": 1}, profile=True)
            assert entries_of(after) == ["label scan :A"]
            assert engine.plan_cache_info()["evicted_schema"] == evicted + 1
            assert oracle.run(POINT, {"v": 1}).table.same_bag(after.table)

    def test_reachability_probe_plan_degrades_to_the_walk(self):
        """A deleted edge would make the live index under-approximate."""
        graph = fuzztools.REACHABILITY_GRAPH.copy()
        engine = CypherEngine(graph)
        oracle = CypherEngine(fuzztools.fixture_graph())  # unindexed walk
        query = (
            "MATCH (a {name: 'node-0'}), (b {name: 'node-4'}) "
            "MATCH (a)-[:R*]->(b) RETURN count(*) AS c"
        )
        live_before = engine.run(query)
        assert "ReachabilityProbe" in live_before.plan.describe()
        with engine.session() as session:
            snapshot = session.snapshot()
            engine.run("MATCH ({name: 'node-2'})-[r:R]->() DELETE r")
            assert not hasattr(snapshot.graph, "reachability_index_for")
            for mode in ("row", "batch"):
                got = snapshot.run(query, mode=mode)
                assert "ReachabilityProbe" in got.plan.describe()
                assert got.records == oracle.run(query, mode=mode).records
                assert got.records == live_before.records
            assert engine.run(query).records != live_before.records


class _NoScanSet(set):
    """A label's or type's member set that refuses to be walked whole."""

    def __iter__(self):
        raise AssertionError("a write under a pin walked a whole label/type")


class TestWritesUnderAPinPreserveEntitiesOnly:
    def test_writes_do_no_per_label_work_and_delta_is_bounded(self):
        engine = CypherEngine(padded(fuzztools.INDEXED_GRAPH))
        graph = engine.graph
        with engine.session() as reader:
            snapshot = reader.snapshot()
            pin = snapshot.pin
            assert not hasattr(pin, "labels") and not hasattr(pin, "types")
            # From here on, iterating any label's or type's member set —
            # what sorting it for a preserved list would do — fails.
            graph._label_index = {
                label: _NoScanSet(nodes)
                for label, nodes in graph._label_index.items()
            }
            graph._type_index = {
                rel_type: _NoScanSet(rels)
                for rel_type, rels in graph._type_index.items()
            }
            transaction = graph.write_transaction()
            a = transaction.create_node(("A", "Fresh"), {"v": 1})
            b, c = transaction.create_nodes(("B",), [{"v": 2}, {"v": 3}])
            r = transaction.create_relationship(a, b, "R", {"w": 1})
            (s,) = transaction.create_relationships("S", [(b, c, None)])
            transaction.set_property(a, "v", 5)
            transaction.set_property(r, "w", 2)
            transaction.add_label(c, "A")
            transaction.remove_label(c, "B")
            transaction.delete_relationship(s)
            transaction.delete_node(c)
            transaction.flush()
            touched = {a, b, c, r, s}
            assert set(pin.nodes) | set(pin.rels) <= touched
            assert set(pin.adjacency) <= {a, b, c}
            assert (
                len(pin.nodes) + len(pin.rels) + len(pin.adjacency)
                <= len(touched) + 3
            )
            transaction.rollback()  # undo replay preserves nothing new
            assert set(pin.nodes) | set(pin.rels) <= touched
        info = graph.pin_info()
        assert info["largest_delta"] == 8
        assert info["preimages"] == {
            "node": 3, "relationship": 2, "adjacency": 3,
        }


class TestReleasedSnapshots:
    QUERY = "MATCH (n:P) RETURN count(*) AS c"

    @pytest.mark.smoke
    def test_session_close_releases_the_snapshot(self):
        engine = CypherEngine(MemoryGraph())
        session = engine.session()
        snapshot = session.snapshot()
        assert snapshot.run(self.QUERY).value() == 0
        session.close()
        engine.run("CREATE (:P)")
        with pytest.raises(TransactionError, match="snapshot released"):
            snapshot.run(self.QUERY)
        with pytest.raises(TransactionError, match="snapshot released"):
            snapshot.graph
        assert snapshot.version == 0  # still names the version it had

    @pytest.mark.parametrize("end", ["commit", "rollback"])
    def test_transaction_end_releases_a_transactional_snapshot(self, end):
        engine = CypherEngine(MemoryGraph())
        with engine.session() as session:
            session.begin()
            snapshot = session.snapshot()
            session.run("CREATE (:P)")
            assert snapshot.run(self.QUERY).value() == 0
            getattr(session, end)()
            with pytest.raises(TransactionError, match="snapshot released"):
                snapshot.run(self.QUERY)
            fresh = session.snapshot()  # a new pin, not the released one
            assert fresh is not snapshot
            assert fresh.run(self.QUERY).value() == (end == "commit")


class TestSnapshotCountsAcrossMorsels:
    """A pinned ``count(*)`` whose scan spans several morsels."""

    COUNT = "MATCH (n) RETURN count(*) AS c"

    def engine(self):
        return CypherEngine(fuzztools.GRAPH.copy(), morsel_size=2)

    def test_snapshot_ignores_a_later_commit(self):
        engine = self.engine()
        with engine.session() as session:
            snapshot = session.snapshot()
            before = snapshot.run(self.COUNT)
            engine.run("CREATE (:Zed {v: 1})")  # commits a new version
            after = snapshot.run(self.COUNT)
            assert after.execution_mode == "batch"
            assert before.value() == after.value()
        assert engine.run(self.COUNT).value() == before.value() + 1

    def test_snapshot_ignores_an_open_writers_create(self):
        engine = self.engine()
        baseline = engine.run(self.COUNT).value()
        with engine.session() as writer:
            writer.begin()
            with engine.session() as reader:
                snapshot = reader.snapshot()
                writer.run("CREATE (:Zed {v: 1})")  # uncommitted
                seen = snapshot.run(self.COUNT)
                assert seen.execution_mode == "batch"
                assert seen.value() == baseline
            writer.rollback()
        assert engine.run(self.COUNT).value() == baseline

    def test_clean_then_dirty_pin_reads_the_same_count(self):
        engine = self.engine()
        baseline = engine.run(self.COUNT).value()
        with engine.session() as session:
            snapshot = session.snapshot()
            for dirty in (False, True):
                if dirty:
                    engine.run("CREATE (:Zed {v: 1})")
                assert snapshot.pin.clean is not dirty
                result = snapshot.run(self.COUNT)
                assert result.execution_mode == "batch"
                assert result.value() == baseline
        assert engine.run(self.COUNT).value() == baseline + 1


class TestSnapshotCounters:
    def test_pins_reads_and_preimages_are_counted(self):
        engine = CypherEngine(fuzztools.fixture_graph())
        assert engine.snapshot_info() == {
            "pins": {
                "taken": 0, "refused": 0, "live": 0,
                "preimages": {"node": 0, "relationship": 0, "adjacency": 0},
                "largest_delta": 0,
            },
            "clean_reads": 0, "dirty_reads": 0,
        }
        with engine.session() as writer, engine.session() as reader:
            writer.begin()
            writer.run("CREATE (:A {v: 9})")
            with pytest.raises(TransactionError):
                reader.snapshot()
            writer.commit()
            snapshot = reader.snapshot()
            snapshot.run("MATCH (a:A) RETURN count(*) AS c")
            writer.run("MATCH (a:A {v: 9}) SET a.v = 10")
            snapshot.run("MATCH (a:A) RETURN count(*) AS c")
            info = engine.snapshot_info()
            assert (info["clean_reads"], info["dirty_reads"]) == (1, 1)
            assert info["pins"]["live"] == 1
            assert info["pins"]["preimages"]["node"] == 1
        info = engine.snapshot_info()["pins"]
        assert (info["taken"], info["refused"], info["live"]) == (1, 1, 0)
        assert info["largest_delta"] == 1

    def test_cli_prints_them_beside_the_plan_cache_counters(self, capsys):
        from repro.cli import Shell, main

        assert main(["explain", "MATCH (n) RETURN n"]) == 0
        assert "snapshots: 0 pin(s) taken, 0 refused, 0 live" in (
            capsys.readouterr().out
        )
        output = io.StringIO()
        shell = Shell(output=output)
        shell.engine.session().snapshot().run("RETURN 1 AS x")
        shell.handle(":schema")
        shell.handle(":explain RETURN 1 AS x")
        reports = [
            line for line in output.getvalue().splitlines()
            if line.startswith("snapshots:")
        ]
        assert len(reports) == 2
        assert "1 pin(s) taken" in reports[0]
        assert "reads: 1 clean, 0 dirty" in reports[1]
