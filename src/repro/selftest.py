"""A self-contained correctness smoke suite: ``python -m repro.cli selftest``.

CI-friendly distillation of the repository's two big differential
harnesses, runnable without pytest or the tests/ tree:

* a **differential corpus** — a fixed set of read and update queries over
  a structurally rich little graph, each executed by the reference
  interpreter, the row-wise planner and the vectorised batch engine;
  reads must agree as bags (and claimed plans must actually run
  batched), updates must additionally leave byte-identical stores;
* an **index-maintenance smoke set** — a create → update → delete
  statement sequence over an indexed clone of the same graph; the probe
  queries afterwards must actually enter through the index (plan
  inspected, not trusted) and agree with a filter-only run on an
  unindexed clone;
* a **plan-cache smoke set** — the same parameterised write and read
  around a commit (must be cache hits) and around ``create_index`` (must
  be misses, and the re-planned read must enter through the new index);
* an **auto-parameterisation smoke set** — fifty ad hoc texts of one
  shape must cost one plan (one miss, forty-nine hits through the shape
  key), answer like the interpreter, and see a write that lands between
  two of them;
* a **crash-recovery smoke set** — a transactional session driven into
  injected faults at a first, interior and commit-flush mutation site;
  each crash must leave store and index equal to an untouched clone and
  the engine still answering queries;
* the **TCK smoke set** — a handful of scenario suites (including the
  morsel-boundary and index features) through the full multi-mode TCK
  runner.

Exit status 0 means every check passed; failures print the offending
query/scenario and return 1, so the command can gate a commit.
"""

from __future__ import annotations

from repro.graph.builder import GraphBuilder
from repro.runtime.engine import CypherEngine
from repro.values.ordering import canonical_key

#: Read queries: every batch-engine operator plus the row-only shapes.
READ_CORPUS = [
    "MATCH (n) RETURN count(*) AS c",
    "MATCH (a:A) RETURN a.v AS v ORDER BY v",
    "MATCH (a:A)-[:R]->(b) RETURN a.v AS av, b.v AS bv ORDER BY av, bv",
    "MATCH (a)-[r:R|S]->(b) WHERE r.w >= 1 RETURN count(*) AS c",
    "MATCH (a)-->(b)-->(c) RETURN count(*) AS paths",
    "MATCH (a:B) WHERE a.v > 1 OR a.name CONTAINS '4' RETURN a.name AS n",
    "MATCH (a) RETURN a.v AS g, count(*) AS c ORDER BY g",
    "MATCH (a) RETURN DISTINCT a.v AS v ORDER BY v",
    "MATCH (a) RETURN a.v AS v ORDER BY v DESC LIMIT 3",
    "MATCH (a) WITH a.v AS v ORDER BY v SKIP 2 LIMIT 4 RETURN sum(v) AS s",
    "UNWIND [3, 1, 2] AS x RETURN x * 10 AS y ORDER BY y",
    "MATCH (a:A) WITH collect(a.v) AS vs RETURN size(vs) AS n",
    "MATCH (a) WHERE all(x IN [a.v] WHERE x >= 0) RETURN count(*) AS c",
    # Batch-claimed since the frontier-BFS var-length implementation:
    "MATCH (a)-[:R*1..2]->(b) RETURN count(*) AS c",
    # Row-engine-only shapes (still differential against the interpreter):
    "MATCH p = (a:A)-[:R]->(b) RETURN length(p) AS l, count(*) AS c",
    "MATCH (a:A) OPTIONAL MATCH (a)-[:S]->(c) RETURN a.v AS v, c.v AS cv "
    "ORDER BY v, cv",
    "RETURN 1 AS x UNION RETURN 2 AS x",
]

#: Update queries: ordered drivers, so final stores must match exactly.
UPDATE_CORPUS = [
    "UNWIND range(1, 5) AS i CREATE (:N {v: i})",
    "MATCH (a:A) WITH a ORDER BY a.name CREATE (a)-[:W {src: a.v}]->(:New)",
    "MATCH (a) WITH a ORDER BY a.name SET a.w = a.v * 2, a:Seen",
    "MATCH ()-[r:S]->() DELETE r",
    "MATCH (a:C) DETACH DELETE a",
    "UNWIND [0, 1, 2, 3] AS v MERGE (n:A {v: v}) "
    "ON CREATE SET n.created = 1 ON MATCH SET n.hits = 1",
    "MATCH (a:B) WITH a ORDER BY a.name REMOVE a.v, a:B",
]

#: TCK suites for the smoke set (coverage + morsel boundaries + writes
#: + index-backed predicates).
TCK_SMOKE = ("match_basic", "aggregation", "batching", "updates", "indexes")

_MODES = ("interpreter", "row", "batch")

#: The index-maintenance smoke sequence: create, update, delete — each
#: mutating entries of the :A(v) index declared on the indexed clone.
INDEX_SMOKE_STATEMENTS = (
    "UNWIND range(10, 14) AS i CREATE (:A {v: i, name: 'fresh-' + "
    "toString(i)})",
    "MATCH (a:A) WHERE a.v = 11 SET a.v = 99",
    "MATCH (a:A) WHERE a.v = 13 REMOVE a.v",
    "MATCH (a:A) WHERE a.v = 12 DETACH DELETE a",
)

#: Probe queries that must (a) enter through the index on the indexed
#: clone and (b) agree with the unindexed, filter-only clone.
INDEX_SMOKE_PROBES = (
    "MATCH (a:A) WHERE a.v = 99 RETURN count(*) AS c",
    "MATCH (a:A) WHERE a.v = 13 RETURN count(*) AS c",
    "MATCH (a:A) WHERE a.v >= 10 RETURN a.v AS v ORDER BY v",
    "MATCH (a:A) WHERE a.v IN [10, 12, 14] RETURN count(*) AS c",
)


def fixture_graph():
    """Three labels, two relationship types, a cycle and a self-loop."""
    builder = GraphBuilder()
    labels = ["A", "B", "C"]
    for index in range(9):
        builder.node(
            "n%d" % index,
            labels[index % 3],
            v=index % 4,
            name="node-%d" % index,
        )
    edges = [
        (0, 1, "R"), (1, 2, "R"), (2, 3, "R"), (3, 4, "S"), (4, 5, "S"),
        (5, 0, "R"), (0, 2, "S"), (2, 4, "R"), (6, 7, "R"), (7, 6, "S"),
        (8, 8, "R"), (1, 4, "S"),
    ]
    for position, (source, target, rel_type) in enumerate(edges):
        builder.rel("n%d" % source, rel_type, "n%d" % target, w=position % 3)
    graph, _ = builder.build()
    return graph


def graph_state(graph):
    """Canonical, id-inclusive snapshot for final-store comparison."""
    nodes = sorted(
        (
            node.value,
            tuple(sorted(graph.labels(node))),
            canonical_key(graph.properties(node)),
        )
        for node in graph.nodes()
    )
    rels = sorted(
        (
            rel.value,
            graph.src(rel).value,
            graph.tgt(rel).value,
            graph.rel_type(rel),
            canonical_key(graph.properties(rel)),
        )
        for rel in graph.relationships()
    )
    return nodes, rels


def _check_read(query, graph, failures):
    from repro.planner.batch import plan_supports_batch

    engine = CypherEngine(graph)
    reference = engine.run(query, mode="interpreter")
    for mode in ("row", "batch"):
        result = engine.run(query, mode=mode)
        if result.executed_by != "planner":
            failures.append("%s: fell back to interpreter in %r" % (query, mode))
            continue
        if mode == "row" and result.execution_mode != "row":
            failures.append("%s: row mode ran %r" % (query, result.execution_mode))
        if (
            mode == "batch"
            and plan_supports_batch(result.plan)
            and result.execution_mode != "batch"
        ):
            failures.append(
                "%s: batch-claimed plan ran %r" % (query, result.execution_mode)
            )
        if not reference.table.same_bag(result.table):
            failures.append("%s: %s-mode result bag diverged" % (query, mode))


def _check_update(query, graph, failures):
    clones = {mode: graph.copy() for mode in _MODES}
    results = {}
    for mode, clone in clones.items():
        try:
            results[mode] = CypherEngine(clone).run(query, mode=mode)
        except Exception as error:  # noqa: BLE001 — report, don't crash
            failures.append("%s: %s mode raised %r" % (query, mode, error))
            return
    reference = results["interpreter"].table
    reference_state = graph_state(clones["interpreter"])
    for mode in ("row", "batch"):
        if not reference.same_bag(results[mode].table):
            failures.append("%s: %s-mode result bag diverged" % (query, mode))
        if graph_state(clones[mode]) != reference_state:
            failures.append("%s: %s-mode final store diverged" % (query, mode))


def _check_index_smoke(failures):
    """Create → update → delete on an indexed clone, then probe.

    Probes must *prove* the index path — the plan is walked for an
    IndexScan / IndexRangeScan operator, falling back silently would
    pass the bag check and still fail here — and their results must
    match a filter-only run on an unindexed clone with identical data.
    """
    indexed = fixture_graph()
    indexed.create_index("A", "v")
    plain = fixture_graph()
    indexed_engine = CypherEngine(indexed)
    plain_engine = CypherEngine(plain)
    for statement in INDEX_SMOKE_STATEMENTS:
        indexed_engine.run(statement)
        plain_engine.run(statement)
    if graph_state(indexed) != graph_state(plain):
        failures.append("index smoke: indexed and plain stores diverged")
        return
    for query in INDEX_SMOKE_PROBES:
        result = indexed_engine.run(query)
        if not _plan_enters_index(result.plan):
            failures.append(
                "index smoke: %s did not enter through the index" % query
            )
        reference = plain_engine.run(query)
        if not reference.table.same_bag(result.table):
            failures.append(
                "index smoke: %s disagrees with the filter-only run" % query
            )


def _plan_enters_index(plan):
    """True when the plan provably uses a property-index access path."""
    from repro.planner import logical as lg

    stack = [plan]
    while stack:
        op = stack.pop()
        if isinstance(
            op, (lg.IndexScan, lg.IndexRangeScan, lg.IndexOrderedScan)
        ):
            return True
        stack.extend(op._children())
    return False


#: The plan-cache smoke pair: one parameterised write and one
#: parameterised read over the same label and key.
PLAN_CACHE_SMOKE_WRITE = "CREATE (:A {v: $v, name: 'cached'})"
PLAN_CACHE_SMOKE_READ = "MATCH (a:A) WHERE a.v = $v RETURN count(*) AS c"


def _check_plan_cache_smoke(failures):
    """Commits keep plans; index DDL drops them, and the re-plan uses it.

    The same two texts run around a commit (both must be cache hits —
    a commit costs no statement its plan) and around ``create_index``
    (both must be misses — the schema epoch moved), after which the
    read must provably enter through the new index.
    """
    engine = CypherEngine(fixture_graph())

    def round_trip(v):
        engine.run(PLAN_CACHE_SMOKE_WRITE, parameters={"v": v})
        return engine.run(PLAN_CACHE_SMOKE_READ, parameters={"v": v})

    round_trip(50)
    before = engine.plan_cache_info()
    round_trip(51)  # crosses the first round's commit, and its own
    after = engine.plan_cache_info()
    if (after["hits"], after["misses"]) != (
        before["hits"] + 2, before["misses"]
    ):
        failures.append("plan cache smoke: a commit evicted a cached plan")
    engine.create_index("A", "v")
    result = round_trip(52)
    final = engine.plan_cache_info()
    if final["misses"] != after["misses"] + 2 or final["evicted_schema"] != 2:
        failures.append("plan cache smoke: create_index kept a cached plan")
    if not _plan_enters_index(result.plan):
        failures.append(
            "plan cache smoke: the post-DDL plan did not enter through "
            "the new index"
        )
    if result.value("c") != 1:
        failures.append("plan cache smoke: the re-planned read is wrong")


#: The auto-parameterisation smoke: one shape, the literal varied.
LIFT_SMOKE_READ = "MATCH (a:A) WHERE a.v >= %d RETURN count(*) AS c"
LIFT_SMOKE_WRITE = "CREATE (:A {v: 1000, name: 'lifted'})"
LIFT_SMOKE_TEXTS = 50


def _check_lift_smoke(failures):
    """Fifty ad hoc texts of one shape: one plan, the right answers.

    The texts differ in a literal only, so the first plans the shape and
    every later one must arrive through the shape key; each answer is
    compared with the interpreter's, and a write between two of the
    texts must be visible to the next (the plan is shared, the data is
    not).
    """
    engine = CypherEngine(fixture_graph())
    oracle = CypherEngine(engine.graph, mode="interpreter")
    before = engine.plan_cache_info()
    for value in range(LIFT_SMOKE_TEXTS):
        text = LIFT_SMOKE_READ % value
        if engine.run(text).value("c") != oracle.run(text).value("c"):
            failures.append("lift smoke: wrong answer for %s" % text)
    after = engine.plan_cache_info()
    if (
        after["misses"] - before["misses"],
        after["lifted_hits"] - before["lifted_hits"],
    ) != (1, LIFT_SMOKE_TEXTS - 1):
        failures.append(
            "lift smoke: %d texts of one shape cost %d misses, %d shape hits"
            % (
                LIFT_SMOKE_TEXTS,
                after["misses"] - before["misses"],
                after["lifted_hits"] - before["lifted_hits"],
            )
        )
    probe = LIFT_SMOKE_READ % 999
    seen = engine.run(probe).value("c")
    engine.run(LIFT_SMOKE_WRITE)
    if engine.run(LIFT_SMOKE_READ % 998).value("c") != seen + 1:
        failures.append("lift smoke: a shape hit missed a committed write")


#: The prepared-pipeline smoke: one parameterised read per engine, run,
#: written under, and run again on the pipeline the first run parked.
PIPELINE_SMOKE_READ = "MATCH (a:A) WHERE a.v >= $low RETURN a.name AS name"
PIPELINE_SMOKE_WRITE = (
    "MATCH (a:A) WHERE a.v >= $low SET a.name = a.name + '!'"
)
PIPELINE_SMOKE_ERROR = "UNWIND $xs AS x RETURN x * 2 AS y"


def _check_pipeline_smoke(failures):
    """A parked pipeline answers like a fresh compile, on both engines.

    Run → write → run must see the write (the property memos are reset
    between executions — the read matches a single node, so the row
    engine's identity-compared memo would otherwise hit), a parameter
    left unbound after a bound run must raise, and a run that failed
    mid-stream must leave nothing behind.  The re-run is checked to
    have *taken* the parked pipeline, so the smoke cannot pass by
    silently compiling each time.
    """
    from repro.exceptions import CypherTypeError, ParameterNotBound
    from repro.planner.physical import PIPELINE_STATS

    for mode in ("row", "batch"):
        engine = CypherEngine(fixture_graph())
        oracle = CypherEngine(engine.graph.copy(), mode="interpreter")

        def read(parameters):
            return engine.run(PIPELINE_SMOKE_READ, parameters, mode=mode)

        first = read({"low": 3})
        if first.execution_mode != mode:
            failures.append("pipeline smoke [%s]: ran %s" % (
                mode, first.execution_mode,
            ))
        for target in (engine, oracle):
            target.run(PIPELINE_SMOKE_WRITE, {"low": 3})
        reused = PIPELINE_STATS["reused"]
        again = read({"low": 3})
        want = oracle.run(PIPELINE_SMOKE_READ, {"low": 3})
        if PIPELINE_STATS["reused"] != reused + 1:
            failures.append(
                "pipeline smoke [%s]: the re-run compiled again" % mode
            )
        if not again.table.same_bag(want.table) or again.table.same_bag(
            first.table
        ):
            failures.append(
                "pipeline smoke [%s]: the re-run missed the write" % mode
            )
        try:
            read({})
        except ParameterNotBound:
            pass
        else:
            failures.append(
                "pipeline smoke [%s]: an unbound parameter kept the "
                "previous run's value" % mode
            )
        good = {"xs": [1, 2, 3]}
        clean = engine.run(PIPELINE_SMOKE_ERROR, good, mode=mode).records
        try:
            engine.run(PIPELINE_SMOKE_ERROR, {"xs": [1, "two", 3]}, mode=mode)
        except CypherTypeError:
            pass
        else:
            failures.append("pipeline smoke [%s]: no type error" % mode)
        rerun = engine.run(PIPELINE_SMOKE_ERROR, good, mode=mode).records
        if rerun != clean or clean != [{"y": 2}, {"y": 4}, {"y": 6}]:
            failures.append(
                "pipeline smoke [%s]: a failed run leaked into the next"
                % mode
            )


#: The aligned-column smoke: a label scan whose filter reads the store's
#: label-aligned column, and a write that moves a row across the filter.
ALIGNED_SMOKE_READ = (
    "MATCH (a:A) WHERE a.v >= $low RETURN count(a) AS c, sum(a.v) AS s"
)
ALIGNED_SMOKE_WRITE = "MATCH (a:A) WHERE a.v = $low SET a.v = a.v - 100"


def _check_aligned_column_smoke(failures):
    """Four batch reads against the interpreter — before a write, inside
    the writing transaction, on a snapshot pinned before it, after the
    rollback — each also checked for whether its morsels were *served*
    as slices: neither a stale slice nor a dead fast path passes."""
    low = {"low": 2}
    engine = CypherEngine(fixture_graph())

    def check(name, target, want, served):
        result = target.run(ALIGNED_SMOKE_READ, low, mode="batch", profile=True)
        slices = result.access_paths[0]["column_slices"]
        if result.records != want or bool(slices) != served:
            failures.append("aligned columns: %s answered %r (want %r), %s" % (
                name, result.records, want,
                "served a slice" if slices else "refused one",
            ))

    before = engine.run(ALIGNED_SMOKE_READ, low, mode="interpreter").records
    reader = engine.session()
    snapshot = reader.snapshot()
    check("first read", engine, before, True)
    with engine.session() as writer:
        writer.begin()
        writer.run(ALIGNED_SMOKE_WRITE, low)
        written = writer.run(
            ALIGNED_SMOKE_READ, low, mode="interpreter"
        ).records
        check("read in the transaction", writer, written, True)
        check("read on the older pin", snapshot, before, False)
    reader.close()
    check("read after rollback", engine, before, True)
    if written == before:
        failures.append("aligned columns: the write never changed the answer")


#: The snapshot-under-writes smoke: committed writes on the indexed key
#: (SET, CREATE, DETACH DELETE) plus one statement left uncommitted …
SNAPSHOT_SMOKE_COMMITTED = INDEX_SMOKE_STATEMENTS[1:] + (
    "CREATE (:A {v: 10, name: 'late'})",
)
SNAPSHOT_SMOKE_UNCOMMITTED = "MATCH (a:A) WHERE a.v = 14 SET a.v = 10"

#: … and the indexed point, range and ordered reads that must still
#: return the pin-time answers, through the index.
SNAPSHOT_SMOKE_READS = (
    "MATCH (a:A) WHERE a.v = 11 RETURN a.name AS n",
    "MATCH (a:A) WHERE a.v >= 10 AND a.v < 14 RETURN count(*) AS c",
    "MATCH (a:A) WHERE a.v IS NOT NULL "
    "RETURN a.v AS v, a.name AS n ORDER BY v DESC LIMIT 3",
)


def _check_snapshot_smoke(failures):
    """Pin → writes → indexed reads on the dirty view; then release.

    The reads must equal a copy taken at pin time, must *prove* the
    index path on the view (profiled access paths, so a silent label
    scan fails here), and once the session is closed the retained
    snapshot must refuse to answer rather than read the live version.
    """
    from repro.exceptions import TransactionError

    graph = fixture_graph()
    graph.create_index("A", "v")
    engine = CypherEngine(graph)
    engine.run(INDEX_SMOKE_STATEMENTS[0])
    pinned = CypherEngine(graph.copy())
    reader = engine.session()
    snapshot = reader.snapshot()
    with engine.session() as writer:
        for statement in SNAPSHOT_SMOKE_COMMITTED:
            writer.run(statement)
        writer.begin()
        writer.run(SNAPSHOT_SMOKE_UNCOMMITTED)
        for query in SNAPSHOT_SMOKE_READS:
            for mode in ("row", "batch"):
                result = snapshot.run(query, mode=mode, profile=True)
                if result.records != pinned.run(query, mode=mode).records:
                    failures.append(
                        "snapshot smoke: %s (%s) left the pinned version"
                        % (query, mode)
                    )
                if not all(
                    path["entry"].startswith("index")
                    for path in result.access_paths
                ):
                    failures.append(
                        "snapshot smoke: %s (%s) did not read the view "
                        "through the index" % (query, mode)
                    )
        if engine.run(SNAPSHOT_SMOKE_READS[0]).records == (
            pinned.run(SNAPSHOT_SMOKE_READS[0]).records
        ):
            failures.append("snapshot smoke: the writes never diverged")
    reader.close()
    try:
        snapshot.run(SNAPSHOT_SMOKE_READS[0])
    except TransactionError:
        pass
    else:
        failures.append("snapshot smoke: a released snapshot still answered")


#: The composite-index smoke sequence: mutate every column of the
#: declared :A(v, name) index — entry growth, recompute, column removal
#: (which must *drop* the whole entry), node deletion.
COMPOSITE_SMOKE_STATEMENTS = (
    "UNWIND range(20, 24) AS i CREATE (:A {v: i, name: 'comp-' + "
    "toString(i)})",
    "MATCH (a:A) WHERE a.v = 21 SET a.name = 'renamed'",
    "MATCH (a:A) WHERE a.v = 23 REMOVE a.name",
    "MATCH (a:A) WHERE a.v = 22 DETACH DELETE a",
)

#: Multi-column probes that must enter through the composite index on
#: the indexed clone (plan-inspected) and agree with the plain clone.
COMPOSITE_SMOKE_PROBES = (
    "MATCH (a:A) WHERE a.v = 21 AND a.name = 'renamed' "
    "RETURN count(*) AS c",
    "MATCH (a:A) WHERE a.v = 20 AND a.name STARTS WITH 'comp' "
    "RETURN a.name AS n",
    "MATCH (a:A) WHERE a.v >= 20 AND a.name IS NOT NULL "
    "RETURN a.v AS v, a.name AS n ORDER BY v",
)


def _check_composite_index_smoke(failures):
    """Create → probe (plan-proven) → update → drop, composite edition.

    Same discipline as the single-key smoke — the probes must provably
    enter through the ``:A(v, name)`` composite index and agree with a
    filter-only clone — plus the drop: after ``drop_index`` the same
    probes must re-plan off the index and still agree.
    """
    indexed = fixture_graph()
    indexed.create_index("A", "v", "name")
    plain = fixture_graph()
    indexed_engine = CypherEngine(indexed)
    plain_engine = CypherEngine(plain)
    for statement in COMPOSITE_SMOKE_STATEMENTS:
        indexed_engine.run(statement)
        plain_engine.run(statement)
    if graph_state(indexed) != graph_state(plain):
        failures.append(
            "composite smoke: indexed and plain stores diverged"
        )
        return
    for query in COMPOSITE_SMOKE_PROBES:
        result = indexed_engine.run(query)
        if not _plan_enters_index(result.plan):
            failures.append(
                "composite smoke: %s did not enter through the index"
                % query
            )
        reference = plain_engine.run(query)
        if not reference.table.same_bag(result.table):
            failures.append(
                "composite smoke: %s disagrees with the filter-only run"
                % query
            )
    indexed_engine.drop_index("A", "v", "name")
    for query in COMPOSITE_SMOKE_PROBES:
        result = indexed_engine.run(query)
        if _plan_enters_index(result.plan):
            failures.append(
                "composite smoke: %s still claims an index after drop"
                % query
            )
        reference = plain_engine.run(query)
        if not reference.table.same_bag(result.table):
            failures.append(
                "composite smoke: %s diverged after index drop" % query
            )


#: The reachability-maintenance smoke sequence: extend the :R chain,
#: close a cycle, then cut it — each reshaping the condensation the
#: declared reachability indexes maintain incrementally.
REACHABILITY_SMOKE_STATEMENTS = (
    "MATCH (a {name: 'node-4'}), (b {name: 'node-6'}) CREATE (a)-[:R]->(b)",
    "MATCH (a {name: 'node-6'}), (b {name: 'node-0'}) CREATE (a)-[:R]->(b)",
    "MATCH (a {name: 'node-4'})-[r:S]->(b {name: 'node-5'}) DELETE r",
)

#: Probe queries that must take the ReachabilityProbe access path on the
#: indexed clone and agree with a DFS-only run on a plain clone.
REACHABILITY_SMOKE_PROBES = (
    "MATCH (a {name: 'node-0'}), (b {name: 'node-6'}) "
    "MATCH (a)-[:R*]->(b) RETURN count(*) AS c",
    "MATCH (a {name: 'node-3'}), (b {name: 'node-1'}) "
    "MATCH (a)<-[:R*]-(b) RETURN count(*) AS c",
    "MATCH (a {name: 'node-0'}), (b {name: 'node-5'}) "
    "MATCH p = (a)-[*]->(b) RETURN length(p) AS len ORDER BY len LIMIT 3",
)


def _check_reachability_smoke(failures):
    """Create → mutate → probe against the reachability index.

    Mirrors the property-index smoke: probes must *prove* the probe
    path — the plan is walked for a ReachabilityProbe operator — and
    their results must match a DFS-only run on an unindexed clone, and
    the maintained condensation must equal a from-scratch rebuild after
    the mutations.
    """
    from repro.planner import logical as lg

    indexed = fixture_graph()
    indexed.create_reachability_index()
    indexed.create_reachability_index(["R"])
    plain = fixture_graph()
    indexed_engine = CypherEngine(indexed)
    plain_engine = CypherEngine(plain)
    for statement in REACHABILITY_SMOKE_STATEMENTS:
        indexed_engine.run(statement)
        plain_engine.run(statement)
    if graph_state(indexed) != graph_state(plain):
        failures.append(
            "reachability smoke: indexed and plain stores diverged"
        )
        return
    rebuilt = indexed.copy()
    for types in indexed.reachability_indexes():
        if indexed.reachability_snapshot(types) != (
            rebuilt.reachability_snapshot(types)
        ):
            failures.append(
                "reachability smoke: maintained index %r differs from a "
                "rebuild" % (types,)
            )
    for query in REACHABILITY_SMOKE_PROBES:
        result = indexed_engine.run(query)
        stack = [result.plan]
        hit = False
        while stack:
            op = stack.pop()
            if isinstance(op, lg.ReachabilityProbe):
                hit = True
            stack.extend(op._children())
        if not hit:
            failures.append(
                "reachability smoke: %s did not take the probe path" % query
            )
        reference = plain_engine.run(query)
        if not reference.table.same_bag(result.table):
            failures.append(
                "reachability smoke: %s disagrees with the DFS-only run"
                % query
            )


#: Session statements for the crash-recovery smoke: every mutation kind,
#: so a crash point lands in create, set, remove, delete and index
#: maintenance alike.
CRASH_SMOKE_STATEMENTS = (
    "UNWIND range(20, 24) AS i CREATE (:A {v: i, name: 'tx-' + toString(i)})",
    "MATCH (a:A) WHERE a.v >= 20 SET a.v = a.v + 100, a:Fresh",
    "MATCH (a:B) WITH a ORDER BY a.name LIMIT 2 REMOVE a.v",
    "MATCH (a:C) WITH a ORDER BY a.name LIMIT 1 DETACH DELETE a",
)


def _check_crash_recovery(failures):
    """Fault-injected sessions must leave a usable, unchanged engine.

    An injector arms one crash point at a time — first mutation, an
    interior site, then the commit flush itself.  Each crash aborts the
    session; afterwards the store **and** its index must equal an
    untouched indexed clone (state compared, index probed), and the
    engine must still run statements.
    """
    from repro.graph.store import FaultInjector, InjectedFault

    def fresh():
        graph = fixture_graph()
        graph.create_index("A", "v")
        return graph

    pristine_state = graph_state(fresh())
    pristine_index = fresh().index_statistics()

    counter = FaultInjector()
    graph = fresh()
    with CypherEngine(graph).session() as session:
        session.begin()
        previous = graph.install_fault_injector(counter)
        try:
            for statement in CRASH_SMOKE_STATEMENTS:
                session.run(statement)
            session.commit()
        finally:
            graph.install_fault_injector(previous)
    if counter.total == 0:
        failures.append("crash smoke: no fault sites reached")
        return

    # First site, a mid-transaction site, and the final (commit-flush).
    for ordinal in sorted({1, counter.total // 2, counter.total}):
        graph = fresh()
        engine = CypherEngine(graph)
        injector = FaultInjector(arm_at=ordinal)
        previous = graph.install_fault_injector(injector)
        crashed = False
        try:
            with engine.session() as session:
                session.begin()
                for statement in CRASH_SMOKE_STATEMENTS:
                    session.run(statement)
                session.commit()
        except InjectedFault:
            crashed = True
        finally:
            graph.install_fault_injector(previous)
        if not crashed:
            failures.append(
                "crash smoke: site %d did not fire (%d sites)"
                % (ordinal, counter.total)
            )
            continue
        if graph_state(graph) != pristine_state:
            failures.append(
                "crash smoke: store diverged after crash at site %d" % ordinal
            )
        if graph.index_statistics() != pristine_index:
            failures.append(
                "crash smoke: index diverged after crash at site %d" % ordinal
            )
        survivor = engine.run("MATCH (a:A) RETURN count(*) AS c")
        if list(survivor.table) != [{"c": 3}]:
            failures.append(
                "crash smoke: engine unusable after crash at site %d" % ordinal
            )


#: Macro smoke shape: tiny scale, short writer, hard wall-clock cap.
MACRO_SMOKE_SCALE = 0.01
MACRO_SMOKE_TXNS = 12
MACRO_SMOKE_BUDGET_S = 30.0


def _check_macro_smoke(failures):
    """Generate → ingest → concurrent mixed drive → differential.

    The end-to-end macro path: a scale-0.01 social dataset streams
    through the deferred-index CSV ingest (checked byte-identical to the
    direct emission), then the mixed read/write driver runs under a
    wall-clock budget, and the live store must equal a serial replay of
    the committed transaction log — with zero reader errors, snapshot
    invariant violations or version regressions.
    """
    import os
    import sys

    from repro.datasets import ldbc_social
    from repro.graph.ingest import ingest_csv
    from repro.graph.store import MemoryGraph

    benchmarks_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)
        ))),
        "benchmarks",
    )
    if not os.path.isdir(benchmarks_dir):
        failures.append("macro smoke: benchmarks/ not found (no driver)")
        return
    if benchmarks_dir not in sys.path:
        sys.path.insert(0, benchmarks_dir)
    from workload import MacroWorkload, dataset_handles, prepare, replay

    dataset = ldbc_social(scale=MACRO_SMOKE_SCALE, seed=0)
    graph = MemoryGraph()
    graph.create_index("Person", "id")
    graph.create_reachability_index(["KNOWS"])
    ingest_csv(
        graph,
        [(t.name + ".csv", list(dataset.csv_lines(t)))
         for t in dataset.tables],
    )
    if graph_state(graph) != graph_state(dataset.to_graph()):
        failures.append("macro smoke: CSV ingest diverged from emission")
        return
    engine = CypherEngine(graph)
    prepare(engine)
    baseline = graph.copy()
    driver = MacroWorkload(
        engine, *dataset_handles(dataset),
        update_txns=MACRO_SMOKE_TXNS, readers=2,
        budget_s=MACRO_SMOKE_BUDGET_S, seed=0,
    )
    result = driver.run()
    for error in result.errors:
        failures.append("macro smoke: driver error %s" % error)
    for violation in result.invariant_failures:
        failures.append("macro smoke: snapshot invariant %s" % violation)
    for regression in result.version_regressions:
        failures.append(
            "macro smoke: snapshot version regressed %r" % (regression,)
        )
    if result.committed == 0:
        failures.append("macro smoke: writer never committed")
        return
    replayed = replay(CypherEngine(baseline), result.committed_log)
    if graph_state(replayed) != graph_state(engine.graph):
        failures.append(
            "macro smoke: serial replay diverged from the concurrent store"
        )
    return result


def run_selftest(output=print):
    """Run the whole suite; returns the number of failures."""
    failures = []
    graph = fixture_graph()
    for query in READ_CORPUS:
        _check_read(query, graph, failures)
    output(
        "differential reads:   %2d queries x %d modes"
        % (len(READ_CORPUS), len(_MODES))
    )
    for query in UPDATE_CORPUS:
        _check_update(query, graph, failures)
    output(
        "differential updates: %2d queries x %d modes (stores compared)"
        % (len(UPDATE_CORPUS), len(_MODES))
    )
    _check_index_smoke(failures)
    output(
        "index maintenance:    %2d statements, %d index-proven probes"
        % (len(INDEX_SMOKE_STATEMENTS), len(INDEX_SMOKE_PROBES))
    )
    _check_plan_cache_smoke(failures)
    output(
        "plan cache:           hits across a commit, re-plan through a "
        "new index"
    )
    _check_lift_smoke(failures)
    output(
        "auto-parameterise:    %d ad hoc texts of one shape, 1 plan, "
        "interpreter-checked, write seen" % LIFT_SMOKE_TEXTS
    )
    _check_pipeline_smoke(failures)
    output(
        "prepared pipelines:   run, write, re-run on the parked pipeline "
        "x 2 engines; unbound-after-bound; error-then-rerun"
    )
    _check_aligned_column_smoke(failures)
    output(
        "aligned columns:      read, write in an open transaction, re-read in "
        "it and on an older pin, rollback, re-read - 4 interpreter-checked "
        "results, slice served / served fresh / refused / served"
    )
    _check_snapshot_smoke(failures)
    output(
        "snapshot views:       %d writes + 1 uncommitted, %d index-proven "
        "reads, released pin refuses"
        % (len(SNAPSHOT_SMOKE_COMMITTED), len(SNAPSHOT_SMOKE_READS))
    )
    _check_composite_index_smoke(failures)
    output(
        "composite indexes:    %2d statements, %d probes + drop re-plan"
        % (len(COMPOSITE_SMOKE_STATEMENTS), len(COMPOSITE_SMOKE_PROBES))
    )
    _check_reachability_smoke(failures)
    output(
        "reachability probes:  %2d statements, %d probe-proven queries"
        % (len(REACHABILITY_SMOKE_STATEMENTS), len(REACHABILITY_SMOKE_PROBES))
    )
    _check_crash_recovery(failures)
    output(
        "crash recovery:       %2d statements, faults at first/mid/commit "
        "sites" % len(CRASH_SMOKE_STATEMENTS)
    )
    before_macro = len(failures)
    macro = _check_macro_smoke(failures)
    output(
        "macro workload:       scale %.2f ingest + %s txns committed, "
        "%s reads, replay %s"
        % (
            MACRO_SMOKE_SCALE,
            macro.committed if macro else "no",
            macro.reads if macro else 0,
            "matched" if macro and len(failures) == before_macro
            else "DIVERGED",
        )
    )

    from repro.tck import TckRunner
    from repro.tck.scenarios import ALL_FEATURES

    scenario_count = 0
    for name in TCK_SMOKE:
        try:
            feature = TckRunner().run_feature(ALL_FEATURES[name])
        except AssertionError as error:
            failures.append("tck %s: %s" % (name, error))
        else:
            scenario_count += len(feature.scenarios)
    output(
        "tck smoke set:        %2d scenarios over %s"
        % (scenario_count, ", ".join(TCK_SMOKE))
    )

    for failure in failures:
        output("FAIL: %s" % failure)
    output(
        "selftest %s (%d failure%s)"
        % (
            "passed" if not failures else "FAILED",
            len(failures),
            "" if len(failures) == 1 else "s",
        )
    )
    return len(failures)
