"""Reusable fuzz machinery: fixture graph, query strategies, store snapshots.

Extracted from ``test_fuzz_queries.py`` so every differential harness —
planner vs interpreter (``test_fuzz_queries``), row vs batch vs
interpreter (``test_batched_differential``) — drives the *same* corpus:
a new execution mode earns trust against the full generator set, not a
hand-picked subset.

The module exposes:

* :func:`fixture_graph` / :data:`GRAPH` — the structurally rich fixed
  graph (three labels, two relationship types, a cycle, a self-loop,
  parallel paths) every read strategy runs against, and
  :data:`READ_CORPUS`, a fixed list of reads over it;
* read-query strategies (``match_queries``, ``two_hop_queries``,
  ``pipeline_queries``, ``two_clause_queries``, ``named_path_queries``,
  ``comprehension_queries``) and update strategies
  (``create_update_queries``, ``set_remove_queries``, ``delete_queries``,
  ``merge_queries``) — update queries pin their driving-row order so
  mutation sequences are observable and final stores must be
  byte-identical;
* :func:`graph_state` — the canonical, id-inclusive store snapshot used
  to compare final graphs across execution paths (re-exported from
  :mod:`repro.selftest`, which the benchmarks share);
* :data:`READ_STRATEGIES` / :data:`UPDATE_STRATEGIES` — name → strategy
  registries, so a harness can enumerate the whole corpus;
* the index-accelerated access paths (PR 5): ``sargable_queries``
  generates equality/range/``IN``/prefix predicates over indexed *and*
  unindexed properties, :data:`INDEXED_GRAPH` is the fixture graph with
  property indexes declared, and :func:`assert_indexes_consistent`
  checks an incrementally-maintained index against a from-scratch
  rebuild — the differential harness runs the same corpus with and
  without indexes present, so pushdown can never change results.
* the reachability corpus (PR 8): :func:`shaped_graph_specs` generates
  forest / DAG / cyclic graph specs, :func:`build_shaped_graph`
  materialises one with or without reachability indexes,
  :data:`REACHABILITY_GRAPH` is the fixture graph with overlapping
  reachability indexes declared, and
  :func:`assert_reachability_consistent` pins incremental condensation
  maintenance against a from-scratch rebuild;
* the transactional-session corpus (PR 6): ``transaction_scripts``
  generates begin → mixed updates → commit/rollback step lists over the
  shared update strategies, :func:`apply_script` replays one through a
  session, and :func:`committed_statements` flattens it to the
  auto-commit baseline its final store must equal.
* the corpus as a list (PR 16): :func:`sample_corpus` draws a fixed
  number of texts from each strategy of a registry, deterministically,
  and :func:`literal_sibling` rewrites a text into another of the same
  shape — what the golden lexer file and the auto-parameterisation
  tests sweep.
* :func:`run_both` runs one read on the interpreter and the planner and
  asserts the two bags agree (``conftest``'s ``dual_run`` fixture hands
  it out too).
* :func:`assert_rewrite_law` checks ``q ≡ rewrite(q)``: the rewriter is
  a set of laws the executors must honour, not a step of the run path.
"""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CypherEngine, parse_query
from repro.ast.printer import print_query
from repro.graph.builder import GraphBuilder
from repro.rewriter import rewrite_query
from repro.selftest import graph_state  # noqa: F401 — re-exported
from repro.semantics.morphism import (
    EDGE_ISOMORPHISM,
    HOMOMORPHISM,
    NODE_ISOMORPHISM,
)

MORPHISMS = {
    "edge": EDGE_ISOMORPHISM,
    "node": NODE_ISOMORPHISM,
    "homomorphism": HOMOMORPHISM,
}


def run_both(graph, query, parameters=None):
    """Run a read query on both paths and assert they agree.

    Returns the interpreter-path result (row order of the reference
    semantics).  The assertion is bag equality — duplicates included,
    since the paper's semantics is explicitly bag-based.
    """
    engine = CypherEngine(graph)
    interpreted = engine.run(query, parameters=parameters, mode="interpreter")
    planned = engine.run(query, parameters=parameters, mode="planner")
    assert interpreted.table.same_bag(planned.table), (
        "interpreter and planner disagree on %r:\n%s\nvs\n%s"
        % (query, interpreted.records, planned.records)
    )
    return interpreted


def assert_rewrite_law(graph, query):
    """``query`` and its rewrite, printed, agree on every executor.

    One engine runs both texts in each mode; the results must be the
    same bag, and the same list when the query orders its rows.
    """
    rewritten = print_query(rewrite_query(parse_query(query)))
    engine = CypherEngine(graph)
    for mode in ("interpreter", "row", "batch"):
        original = engine.run(query, mode=mode)
        result = engine.run(rewritten, mode=mode)
        assert original.table.same_bag(result.table), (query, rewritten, mode)
        if "ORDER BY" in query:
            assert original.records == result.records, (
                query, rewritten, mode
            )


def fixture_graph():
    """The fixed fuzz graph: 9 nodes over 3 labels, 12 mixed-type edges."""
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
        (8, 8, "R"),  # self-loop
        (1, 4, "S"),
    ]
    for position, (source, target, rel_type) in enumerate(edges):
        builder.rel("n%d" % source, rel_type, "n%d" % target, w=position % 3)
    graph, _ = builder.build()
    return graph


GRAPH = fixture_graph()


#: A fixed list of reads over :func:`fixture_graph`: every batch-engine
#: operator, plus the row-engine-only shapes no strategy draws together
#: (a named path, OPTIONAL MATCH, UNION).
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
    "MATCH (a)-[:R*1..2]->(b) RETURN count(*) AS c",
    "MATCH p = (a:A)-[:R]->(b) RETURN length(p) AS l, count(*) AS c",
    "MATCH (a:A) OPTIONAL MATCH (a)-[:S]->(c) RETURN a.v AS v, c.v AS cv "
    "ORDER BY v, cv",
    "RETURN 1 AS x UNION RETURN 2 AS x",
]


def indexed_fixture_graph():
    """The fixture graph with property indexes on the fuzzed keys.

    Declared *before* reads fuzz over it, so the planner's cost model
    picks index entries wherever they win; the graph contents are
    byte-identical to :func:`fixture_graph`'s, which is what makes the
    with/without-index differential meaningful.
    """
    graph = fixture_graph()
    graph.create_index("A", "v")
    graph.create_index("B", "v")
    graph.create_index("C", "v")
    graph.create_index("A", "name")
    graph.create_index("B", "name")
    return graph


INDEXED_GRAPH = indexed_fixture_graph()


def composite_indexed_fixture_graph():
    """The fixture graph with composite indexes on the fuzzed keys.

    ``(v, name)`` on two labels and the reversed ``(name, v)`` on the
    third, plus one single-key index, so the planner's
    longest-usable-prefix matching, order-provided rewrites and
    single-vs-composite cost tie-breaks all fire against the same
    corpus.  Contents stay byte-identical to :func:`fixture_graph`'s.
    """
    graph = fixture_graph()
    graph.create_index("A", "v", "name")
    graph.create_index("B", "v", "name")
    graph.create_index("C", "name", "v")
    graph.create_index("A", "name")
    return graph


COMPOSITE_INDEXED_GRAPH = composite_indexed_fixture_graph()


def assert_indexes_consistent(graph):
    """Every maintained index must equal a from-scratch rebuild.

    The rebuild comes from ``graph.copy()``, whose indexes are
    reconstructed from the copied data; any divergence means an
    incremental maintenance hook missed a mutation.
    """
    rebuilt = graph.copy()
    for label, key in graph.indexes():
        assert graph.index_snapshot(label, key) == rebuilt.index_snapshot(
            label, key
        ), "index :%s(%s) diverged from a rebuild" % (label, key)

def reachability_fixture_graph():
    """The fixture graph with reachability indexes declared (PR 8).

    Three overlapping type sets — the all-types index, the exact ``:R``
    index and the ``:R|S`` superset — so the planner's covering-set
    preference (exact > smallest superset > all-types) is exercised by
    the same corpus.  The graph contents stay byte-identical to
    :func:`fixture_graph`'s, which is what makes the with/without-index
    differential meaningful.
    """
    graph = fixture_graph()
    graph.create_reachability_index()
    graph.create_reachability_index(["R"])
    graph.create_reachability_index(["R", "S"])
    return graph


REACHABILITY_GRAPH = reachability_fixture_graph()


def assert_reachability_consistent(graph):
    """Every maintained reachability index must equal a rebuild.

    ``graph.copy()`` re-declares its reachability indexes from the
    copied relationships (a from-scratch Tarjan + recount), so any
    divergence in the canonical snapshots means an incremental
    condensation update missed or miscounted a mutation.
    """
    rebuilt = graph.copy()
    for types in graph.reachability_indexes():
        assert graph.reachability_snapshot(types) == (
            rebuilt.reachability_snapshot(types)
        ), "reachability index %r diverged from a rebuild" % (types,)


@st.composite
def shaped_graph_specs(draw):
    """Random graph specs in three shapes: forest, DAG, cyclic.

    Returns ``(shape, node_count, edges)`` with ``edges`` a list of
    ``(source, target, rel_type)`` triples over node indices.  Forests
    parent each node to a strictly earlier one (so components are
    trees), DAGs only add forward edges, and cyclic graphs draw
    unrestricted pairs including self-loops — the shapes the interval
    labels, the SCC condensation and its fallbacks each specialise for.
    """
    shape = draw(st.sampled_from(["forest", "dag", "cyclic"]))
    count = draw(st.integers(min_value=2, max_value=9))
    rel_type = st.sampled_from(["R", "S"])
    edges = []
    if shape == "forest":
        for node in range(1, count):
            if draw(st.booleans()):
                parent = draw(st.integers(min_value=0, max_value=node - 1))
                edges.append((parent, node, draw(rel_type)))
    elif shape == "dag":
        for _ in range(draw(st.integers(min_value=0, max_value=2 * count))):
            source = draw(st.integers(min_value=0, max_value=count - 2))
            target = draw(st.integers(min_value=source + 1,
                                      max_value=count - 1))
            edges.append((source, target, draw(rel_type)))
    else:
        for _ in range(draw(st.integers(min_value=1, max_value=2 * count))):
            source = draw(st.integers(min_value=0, max_value=count - 1))
            target = draw(st.integers(min_value=0, max_value=count - 1))
            edges.append((source, target, draw(rel_type)))
    return shape, count, edges


def build_shaped_graph(count, edges, reachability=False):
    """Materialise a :func:`shaped_graph_specs` spec as a store.

    With ``reachability=True`` the all-types and ``:R`` indexes are
    declared after the build, leaving the data byte-identical to the
    plain variant.
    """
    builder = GraphBuilder()
    for node in range(count):
        builder.node("n%d" % node, "N", v=node % 3, name="node-%d" % node)
    for source, target, rel_type in edges:
        builder.rel("n%d" % source, rel_type, "n%d" % target)
    graph, _ = builder.build()
    if reachability:
        graph.create_reachability_index()
        graph.create_reachability_index(["R"])
    return graph


#: Var-length templates over two endpoint names: probe-eligible shapes
#: (directed, no upper bound, typed/untyped, both directions, lower
#: bounds, named paths) and deliberate decliners (undirected, bounded)
#: in one pool, so the differential pins the gate from both sides.
REACHABILITY_QUERY_TEMPLATES = [
    "MATCH (a {name: %(a)r}), (b {name: %(b)r}) "
    "MATCH (a)-[r:R*]->(b) RETURN count(*) AS c",
    "MATCH (a {name: %(a)r}), (b {name: %(b)r}) "
    "MATCH (a)-[r*]->(b) RETURN size(r) AS n ORDER BY n",
    "MATCH (a {name: %(a)r}), (b {name: %(b)r}) "
    "MATCH (a)<-[r:R|S*]-(b) RETURN count(*) AS c",
    "MATCH (a {name: %(a)r}), (b {name: %(b)r}) "
    "MATCH (a)-[r:R*2..]->(b) RETURN size(r) AS n ORDER BY n",
    "MATCH (a {name: %(a)r}), (b {name: %(b)r}) "
    "MATCH p = (a)-[:R|S*]->(b) RETURN length(p) AS len ORDER BY len",
    "MATCH (a {name: %(a)r}), (b {name: %(b)r}) "
    "MATCH (a)-[r:S*]->(b) RETURN count(*) AS c",
    "MATCH (a {name: %(a)r}), (b {name: %(b)r}) "
    "MATCH (a)-[r:R*]-(b) RETURN count(*) AS c",
    "MATCH (a {name: %(a)r}), (b {name: %(b)r}) "
    "MATCH (a)-[r:R*1..3]->(b) RETURN size(r) AS n ORDER BY n",
    "MATCH (a {name: %(a)r}) MATCH (a)-[r:R*]->(b {name: %(b)r}) "
    "RETURN count(*) AS c",
    # Correlated pattern comprehensions: the lists are compared
    # element-wise, so every executor must keep the reference matcher's
    # emission order, with and without a reachability index declared.
    "MATCH (a {name: %(a)r}), (b {name: %(b)r}) "
    "RETURN size([(a)-[:R*]->(b) | 1]) AS n",
    "MATCH (a {name: %(a)r}), (b {name: %(b)r}) "
    "RETURN [p = (a)-[*]->(b) | length(p)] AS lens",
    "MATCH (a {name: %(a)r}), (b {name: %(b)r}) "
    "RETURN [(a)<-[r:R|S*]-(b) | size(r)] AS sizes",
]


@st.composite
def reachability_cases(draw):
    """A shaped graph spec plus one var-length query over it."""
    shape, count, edges = draw(shaped_graph_specs())
    template = draw(st.sampled_from(REACHABILITY_QUERY_TEMPLATES))
    source = draw(st.integers(min_value=0, max_value=count - 1))
    target = draw(st.integers(min_value=0, max_value=count - 1))
    query = template % {
        "a": "node-%d" % source,
        "b": "node-%d" % target,
    }
    return shape, count, edges, query


label_part = st.sampled_from(["", ":A", ":B", ":C"])
type_part = st.sampled_from(["", ":R", ":S", ":R|S"])
direction = st.sampled_from([("-", "->"), ("<-", "-"), ("-", "-")])
length_part = st.sampled_from(["", "*1..2", "*0..1", "*2"])


@st.composite
def match_queries(draw):
    left, right = draw(direction)
    rel_type = draw(type_part)
    length = draw(length_part)
    rel_body = rel_type + length
    if rel_body:
        rel = "%s[%s]%s" % (left, rel_body, right)
    else:
        rel = {("-", "->"): "-->", ("<-", "-"): "<--", ("-", "-"): "--"}[
            (left, right)
        ]
    pattern = "(a%s)%s(b%s)" % (draw(label_part), rel, draw(label_part))

    where = draw(
        st.sampled_from(
            [
                "",
                " WHERE a.v > 1",
                " WHERE a.v = b.v",
                " WHERE a.v < 2 OR b.v >= 2",
                " WHERE NOT a.v = 0",
                " WHERE a.name CONTAINS '1'",
                " WHERE a.v IN [0, 2]",
                " WHERE a.v >= 1 AND a.v < 3",
                " WHERE a.name STARTS WITH 'node-'",
                " WHERE a.v = 2 AND b.v IN [1, 2, 3]",
            ]
        )
    )
    projection = draw(
        st.sampled_from(
            [
                "RETURN a, b",
                "RETURN a.v AS av, b.v AS bv",
                "RETURN DISTINCT a.v AS av",
                "RETURN count(*) AS n",
                "RETURN a.v AS g, count(b) AS c",
                "RETURN a.v + b.v AS s ORDER BY s",
                "RETURN a.v AS av ORDER BY av DESC LIMIT 3",
                # collect() is omitted without ORDER BY: its list order is
                # implementation-defined and the two paths may enumerate
                # chains from opposite ends
                "RETURN count(b) AS c, sum(b.v) AS s",
            ]
        )
    )
    return "MATCH %s%s %s" % (pattern, where, projection)


@st.composite
def two_hop_queries(draw):
    """Three-node chains, optionally cyclic, with inline property maps."""
    first_rel = draw(st.sampled_from(["-[:R]->", "<-[:R]-", "-[:S]-", "-->"]))
    second_rel = draw(st.sampled_from(["-[:R]->", "<-[:S]-", "-[:R|S]-"]))
    middle = draw(st.sampled_from(["()", "(b)", "(b:B)", "(b {v: 1})"]))
    tail = draw(st.sampled_from(["(c)", "(c:A)", "(a)"]))  # (a) closes a cycle
    where = draw(st.sampled_from(["", " WHERE a.v >= 1", " WHERE a.v <> 2"]))
    projection = draw(
        st.sampled_from(
            [
                "RETURN count(*) AS n",
                "RETURN a.v AS av ORDER BY av LIMIT 5",
                "RETURN DISTINCT a.v AS av ORDER BY av",
                "RETURN a.v AS g, count(*) AS c",
            ]
        )
    )
    return "MATCH (a)%s%s%s%s%s %s" % (
        first_rel, middle, second_rel, tail, where, projection
    )


@st.composite
def pipeline_queries(draw):
    """MATCH → WITH (aggregate or restriction) → RETURN compositions."""
    pattern = "(a%s)-[%s]->(b)" % (
        draw(label_part), draw(st.sampled_from([":R", ":S", ":R|S", ""]))
    )
    stage = draw(
        st.sampled_from(
            [
                "WITH a.v AS g, count(b) AS c WHERE c > 0 "
                "RETURN g, c ORDER BY g",
                "WITH a, b WHERE a.v >= b.v RETURN a.v AS x, b.v AS y "
                "ORDER BY x, y SKIP 1",
                "WITH a.v + b.v AS s RETURN DISTINCT s ORDER BY s",
                "WITH collect(b.v) AS vs RETURN size(vs) AS n",
                "WITH a, max(b.v) AS m RETURN a.name AS name, m "
                "ORDER BY name LIMIT 4",
            ]
        )
    )
    # An UNWIND prefix doubles row multiplicities, which both paths must
    # agree on through the aggregation (u itself dies at the WITH).
    unwind = draw(st.sampled_from(["", "UNWIND [1, 2] AS u "]))
    return "%sMATCH %s %s" % (unwind, pattern, stage)


@st.composite
def two_clause_queries(draw):
    first = draw(match_queries())
    # chain a second hop through OPTIONAL MATCH on the first variable
    head, _, projection = first.partition(" RETURN ")
    second_rel = draw(st.sampled_from(["-[:R]->", "<-[:S]-", "-[:R|S]-"]))
    return (
        head
        + " OPTIONAL MATCH (a)%s(c) RETURN a, c" % second_rel
    )


@st.composite
def named_path_queries(draw):
    """Named paths over rigid and variable-length chains."""
    left, right = draw(direction)
    rel_type = draw(type_part)
    length = draw(st.sampled_from(["", "*1..2", "*0..1", "*2", "*1..3"]))
    rel_body = rel_type + length
    if rel_body:
        rel = "%s[%s]%s" % (left, rel_body, right)
    else:
        rel = {("-", "->"): "-->", ("<-", "-"): "<--", ("-", "-"): "--"}[
            (left, right)
        ]
    pattern = "p = (a%s)%s(b%s)" % (draw(label_part), rel, draw(label_part))
    where = draw(
        st.sampled_from(
            [
                "",
                " WHERE length(p) >= 1",
                " WHERE a.v > 1",
                " WHERE all(x IN nodes(p) WHERE x.v >= 0)",
            ]
        )
    )
    projection = draw(
        st.sampled_from(
            [
                "RETURN p",
                "RETURN length(p) AS len",
                "RETURN [x IN nodes(p) | x.v] AS vs",
                "RETURN size(relationships(p)) AS m, a.v AS av",
                "RETURN length(p) AS len, count(*) AS c",
                "RETURN DISTINCT length(p) AS len ORDER BY len",
            ]
        )
    )
    return "MATCH %s%s %s" % (pattern, where, projection)


@st.composite
def comprehension_queries(draw):
    """Quantifiers, list/pattern comprehensions and reduce()."""
    pattern = "(a%s)-[:R|S]->(b%s)" % (draw(label_part), draw(label_part))
    where = draw(
        st.sampled_from(
            [
                "",
                " WHERE all(x IN [a.v, b.v] WHERE x >= 0)",
                " WHERE any(x IN [a.v, b.v] WHERE x > 2)",
                " WHERE none(x IN [a.v] WHERE x > 3)",
                " WHERE single(x IN [a.v, b.v] WHERE x = 1)",
                " WHERE size([(a)-->(c) | c]) > 0",
                " WHERE exists((a)-[:S]->(c) WHERE c.v > b.v)",
            ]
        )
    )
    projection = draw(
        st.sampled_from(
            [
                "RETURN [x IN [1, 2, 3] WHERE x > a.v | x + b.v] AS xs",
                "RETURN reduce(s = 0, x IN [a.v, b.v, 1] | s + x) AS total",
                "RETURN [(b)-[r]->(c) | c.v] AS fanout, a.v AS av",
                "RETURN size([x IN [a.v, b.v] WHERE x > 1]) AS n, count(*) AS c",
                "RETURN reduce(s = a.v, x IN [1, 2] | s * x) AS product "
                "ORDER BY product",
            ]
        )
    )
    return "MATCH %s%s %s" % (pattern, where, projection)


@st.composite
def sargable_queries(draw):
    """Index-shaped predicates: equality, range, ``IN``, prefix.

    Everything here is sargable *in form*; whether an index actually
    serves it depends on the graph the harness runs it against
    (:data:`GRAPH` has none, :data:`INDEXED_GRAPH` indexes v and name),
    and on the cost model — which is exactly the degree of freedom the
    with/without-index differential pins down.  Probes over missing
    properties (``a.ghost``), cross-variable probes (index nested-loop
    joins), and predicates mixing sargable with residual conjuncts are
    all in the pool.
    """
    label = draw(st.sampled_from(["A", "B", "C"]))
    shape = draw(st.sampled_from(["single", "join", "expand"]))
    predicate = draw(
        st.sampled_from(
            [
                "a.v = 1",
                "a.v = 99",
                "a.v = null",
                "a.ghost = 1",
                "a.v > 1",
                "a.v >= 1 AND a.v < 3",
                "a.v > 0 AND a.v <= 2 AND a.v <> 1",
                "a.v < 'x'",
                "a.name >= 'node-3'",
                "a.v IN [0, 3]",
                "a.v IN [2, 2, null]",
                "a.v IN []",
                "a.name STARTS WITH 'node'",
                "a.name STARTS WITH 'node-1'",
                "a.v = 1 OR a.v = 3",
                "a.v = 2 AND a.name ENDS WITH '5'",
                "NOT a.v = 1 AND a.v <= 2",
            ]
        )
    )
    projection = draw(
        st.sampled_from(
            [
                "RETURN count(*) AS c",
                "RETURN a.v AS v ORDER BY v",
                "RETURN a.name AS n ORDER BY n LIMIT 4",
                "RETURN DISTINCT a.v AS v ORDER BY v",
            ]
        )
    )
    if shape == "single":
        return "MATCH (a:%s) WHERE %s %s" % (label, predicate, projection)
    if shape == "join":
        # The second MATCH probes with the first one's binding in scope:
        # eligible for an index nested-loop join on b.
        other = draw(st.sampled_from(["A", "B"]))
        comparison = draw(
            st.sampled_from(["b.v = a.v", "b.v > a.v", "b.name = a.name"])
        )
        return (
            "MATCH (a:%s) WHERE %s MATCH (b:%s) WHERE %s %s"
            % (label, predicate, other, comparison, projection)
        )
    rel = draw(st.sampled_from(["-[:R]->", "<-[:S]-", "-[:R|S]-"]))
    return "MATCH (a:%s)%s(b) WHERE %s %s" % (label, rel, predicate, projection)


@st.composite
def indexed_update_queries(draw):
    """Updates whose maintenance the indexed differential must survive.

    Drawn from the shared update strategies plus a few index-hostile
    extras (value overwrites to an equal value, type-changing SETs,
    label flips on indexed labels).
    """
    extra = st.sampled_from(
        [
            "MATCH (a:A) WITH a ORDER BY a.name, id(a) SET a.v = a.v",
            "MATCH (a:A) WITH a ORDER BY a.name, id(a) "
            "SET a.v = 'now-a-string'",
            "MATCH (a:B) WITH a ORDER BY a.name, id(a) SET a.v = [a.v]",
            "MATCH (a:C) WITH a ORDER BY a.name, id(a) SET a:A",
            "MATCH (a:A) WHERE a.v = 1 REMOVE a:A",
            "UNWIND [0, 1] AS v MERGE (n:A {v: v}) ON MATCH SET n.hit = 1",
            "MATCH (a:A) WHERE a.v IN [0, 1] DETACH DELETE a",
        ]
    )
    source = draw(
        st.sampled_from(
            ["create", "set_remove", "delete", "merge", "extra"]
        )
    )
    if source == "extra":
        return draw(extra)
    return draw(UPDATE_STRATEGIES[source]())


#: Driving prefixes with a pinned row order (ids must allocate alike).
#: The trailing ids make the order total: rows tied on the names (all
#: null, say) would otherwise come in each executor's own order.
ordered_node_driver = st.sampled_from(
    [
        "MATCH (a:A) WITH a ORDER BY a.name, id(a) ",
        "MATCH (a:B) WITH a ORDER BY a.name, id(a) ",
        "MATCH (a) WITH a ORDER BY a.name, id(a) ",
        "MATCH (a:B)-[:R|S]->(x) WITH a "
        "ORDER BY a.name, x.name, id(a), id(x) ",
    ]
)


@st.composite
def create_update_queries(draw):
    """CREATE driven by UNWIND or an ordered MATCH."""
    shape = draw(st.sampled_from(["unwind", "node", "pair"]))
    if shape == "unwind":
        driver = "UNWIND [0, 1, 2] AS i "
        body = draw(
            st.sampled_from(
                [
                    "CREATE (:N {v: i})",
                    "CREATE (x:N {v: i})-[:W {k: i}]->(y:M)",
                    "CREATE (x:N)-[:W]->(y:M {v: i * 2})",
                    "CREATE p = (x:N {v: i})-[:W]->(:M), (z:Lone)",
                    "CREATE (x:N {v: i}) CREATE (x)-[:W]->(:M)",
                ]
            )
        )
        suffix = draw(
            st.sampled_from(["", " RETURN count(*) AS c", " RETURN i"])
        )
    elif shape == "node":
        driver = draw(ordered_node_driver)
        body = draw(
            st.sampled_from(
                [
                    "CREATE (a)-[:W {src: a.v}]->(:New {v: a.v})",
                    "CREATE (:Twin {of: a.name})",
                    "CREATE (a)-[:W]->(m:Mid)-[:W2]->(n:End {v: a.v + 1})",
                    "CREATE q = (a)<-[:In {w: 0}]-(:Src)",
                ]
            )
        )
        suffix = draw(st.sampled_from(["", " RETURN count(*) AS c"]))
    else:
        driver = (
            "MATCH (a:A), (b:B) WITH a, b "
            "ORDER BY a.name, b.name, id(a), id(b) "
        )
        body = draw(
            st.sampled_from(
                [
                    "CREATE (a)-[:Link]->(b)",
                    "CREATE (a)<-[:Link {m: a.v + b.v}]-(b)",
                    "CREATE (a)-[:Via]->(:Hop {h: 1})<-[:Via2]-(b)",
                ]
            )
        )
        suffix = draw(st.sampled_from(["", " RETURN count(*) AS c"]))
    return driver + body + suffix


@st.composite
def set_remove_queries(draw):
    """SET / REMOVE items over an ordered driving table."""
    target = draw(st.sampled_from(["node", "rel"]))
    if target == "rel":
        driver = (
            "MATCH (x)-[r:R]->(y) WITH x, r, y "
            "ORDER BY x.name, y.name, id(r) "
        )
        body = draw(
            st.sampled_from(
                [
                    "SET r.w = r.w + 10",
                    "SET r.w = null",
                    "SET r += {stamp: x.v}",
                    "REMOVE r.w",
                    "SET r.w = x.v + y.v, r.seen = true",
                ]
            )
        )
    else:
        driver = draw(ordered_node_driver)
        body = draw(
            st.sampled_from(
                [
                    "SET a.w = a.v * 2",
                    "SET a.v = null",
                    "SET a += {z: 1, v: null}",
                    "SET a = {only: a.name}",
                    "SET a:Extra:More",
                    "SET a.u = 1, a.w = a.v, a:Tagged",
                    "REMOVE a.v",
                    "REMOVE a:A",
                    "REMOVE a.v, a:B",
                ]
            )
        )
    suffix = draw(
        st.sampled_from(["", " RETURN count(*) AS c"])
    )
    return driver + body + suffix


@st.composite
def delete_queries(draw):
    """DELETE / DETACH DELETE of nodes, rels, paths and lists."""
    return draw(
        st.sampled_from(
            [
                "MATCH (a:C) DETACH DELETE a",
                "MATCH ()-[r:S]->() DELETE r",
                "MATCH (a)-[r:R]->() DELETE r RETURN count(*) AS c",
                "MATCH (a:B) OPTIONAL MATCH (a)-[r:S]->() "
                "DETACH DELETE a, r",
                "MATCH p = (a:A)-[:R]->(b) DETACH DELETE p",
                "MATCH (a:A) OPTIONAL MATCH (a)-[r]-() DELETE r, a",
                "MATCH (a:C) DETACH DELETE a WITH count(*) AS c "
                "MATCH (n) RETURN c, count(n) AS left",
            ]
        )
    )


@st.composite
def merge_queries(draw):
    """MERGE upserts, with and without ON CREATE / ON MATCH."""
    shape = draw(st.sampled_from(["node", "rel", "free"]))
    if shape == "node":
        driver = "UNWIND [0, 1, 2, 3, 4] AS v "
        pattern = draw(
            st.sampled_from(
                ["MERGE (n:A {v: v})", "MERGE (n:New {v: v})"]
            )
        )
        actions = draw(
            st.sampled_from(
                [
                    "",
                    " ON CREATE SET n.created = 1",
                    " ON MATCH SET n.matched = v",
                    " ON CREATE SET n.created = v ON MATCH SET n.seen = true",
                ]
            )
        )
        suffix = draw(
            st.sampled_from(["", " RETURN count(*) AS c"])
        )
        return driver + pattern + actions + suffix
    if shape == "rel":
        driver = (
            "MATCH (a:A), (b:B) WITH a, b "
            "ORDER BY a.name, b.name, id(a), id(b) "
        )
        pattern = draw(
            st.sampled_from(
                [
                    "MERGE (a)-[r:R]->(b)",
                    "MERGE (a)-[r:S]-(b)",
                    "MERGE (a)-[r:Up {k: 1}]->(b)",
                ]
            )
        )
        actions = draw(
            st.sampled_from(["", " ON CREATE SET r.fresh = 1"])
        )
        return driver + pattern + actions + " RETURN count(*) AS c"
    pattern = draw(
        st.sampled_from(
            [
                "MERGE (x {v: 1})",
                "MERGE (x:C {v: 2})",
                "MERGE (x:Ghost {v: 9})",
            ]
        )
    )
    return pattern + " RETURN count(*) AS c"


@st.composite
def transaction_scripts(draw):
    """Multi-statement session scripts: begin → updates → commit/rollback.

    A script is a list of steps — ``("begin",)``, ``("run", statement)``,
    ``("commit",)``, ``("rollback",)`` — mixing explicit transactions
    (one to three statements each, committed or rolled back) with
    auto-committed statements between them.  Statements come from the
    shared update strategies, so the transactional corpus inherits every
    mutation shape the single-statement differential already covers.
    """
    update = st.one_of([factory() for factory in UPDATE_STRATEGIES.values()])
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            steps.append(("begin",))
            for _ in range(draw(st.integers(min_value=1, max_value=3))):
                steps.append(("run", draw(update)))
            steps.append((draw(st.sampled_from(["commit", "rollback"])),))
        else:
            steps.append(("run", draw(update)))
    return steps


def committed_statements(script):
    """The statements a script durably applies, in order.

    Statements of a rolled-back transaction vanish; auto-committed and
    committed-transaction statements survive.  Replaying this list with
    plain auto-commit must produce the same final store as the script —
    the semantic baseline the session differential checks against.
    """
    durable = []
    block = None
    for step in script:
        if step[0] == "begin":
            block = []
        elif step[0] == "run":
            (durable if block is None else block).append(step[1])
        elif step[0] == "commit":
            durable.extend(block)
            block = None
        elif step[0] == "rollback":
            block = None
    return durable


def apply_script(engine, script, mode=None):
    """Replay a transaction script through one engine's session API.

    Statement errors don't abort the script: a failing statement rolls
    back its own changes (every statement is atomic) and the
    transaction carries on to its commit or rollback — exactly what
    :func:`committed_statements`'s auto-commit baseline reproduces by
    also continuing past errors.
    """
    from repro.exceptions import CypherError

    with engine.session() as session:
        for step in script:
            if step[0] == "begin":
                session.begin()
            elif step[0] == "run":
                try:
                    session.run(step[1], mode=mode)
                except CypherError:
                    pass
            elif step[0] == "commit":
                session.commit()
            elif step[0] == "rollback":
                session.rollback()


#: name -> strategy factory, so harnesses can sweep the whole corpus.
READ_STRATEGIES = {
    "match": match_queries,
    "two_hop": two_hop_queries,
    "pipeline": pipeline_queries,
    "two_clause": two_clause_queries,
    "named_path": named_path_queries,
    "comprehension": comprehension_queries,
    "sargable": sargable_queries,
}

UPDATE_STRATEGIES = {
    "create": create_update_queries,
    "set_remove": set_remove_queries,
    "delete": delete_queries,
    "merge": merge_queries,
}


def sample_corpus(strategies, per_strategy):
    """``per_strategy`` texts from each strategy, the same on every run."""
    texts = []
    for name in sorted(strategies):
        @settings(
            max_examples=per_strategy, derandomize=True, database=None,
            deadline=None, suppress_health_check=list(HealthCheck),
        )
        @given(strategies[name]())
        def collect(text):
            texts.append(text)

        collect()
    return list(dict.fromkeys(texts))


_SIBLING_INTEGER = re.compile(r"(?<=[=<>:] )\d+\b")


def literal_sibling(text):
    """``text`` with every compared or mapped integer one larger.

    Integers after ``= < > :`` move (comparison operands and property
    map values: what auto-parameterisation may lift, and a few it may
    not); list elements, ``LIMIT`` and hop bounds stay, so the sibling
    is a valid query of the same shape.
    """
    return _SIBLING_INTEGER.sub(
        lambda match: str(int(match.group()) + 1), text
    )
