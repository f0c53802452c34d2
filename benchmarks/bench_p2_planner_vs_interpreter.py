"""P2: cost-based planning vs. the naive reference interpreter.

The reference interpreter enumerates match() by trying every node as a
chain start; the planner enters through the most selective label index
(the Section 2 design).  On a label-selective query the planner's
advantage must grow with graph size — the crossover the cost model exists
to buy.
"""

import time

import pytest

from repro import CypherEngine
from repro.graph.store import MemoryGraph
from repro.parser import tokenize

QUERY = (
    "MATCH (a:Rare)-[:LINK]->(b:Common) "
    "WHERE b.i >= 0 RETURN count(*) AS n"
)


def build_graph(commons, rares=3, fanout=2):
    graph = MemoryGraph()
    common_nodes = [
        graph.create_node(("Common",), {"i": index})
        for index in range(commons)
    ]
    for rare_index in range(rares):
        rare = graph.create_node(("Rare",), {"i": rare_index})
        for offset in range(fanout):
            graph.create_relationship(
                rare, common_nodes[(rare_index + offset) % commons], "LINK"
            )
    # noise edges among the common nodes
    for index in range(commons - 1):
        graph.create_relationship(
            common_nodes[index], common_nodes[index + 1], "NEXT"
        )
    return graph


def _time(callable_, repeats=3):
    callable_()  # warm-up: imports, statistics cache
    started = time.perf_counter()
    for _ in range(repeats):
        result = callable_()
    return (time.perf_counter() - started) / repeats, result


def test_p2_same_answers():
    graph = build_graph(commons=200)
    engine = CypherEngine(graph)
    interpreted = engine.run(QUERY, mode="interpreter")
    planned = engine.run(QUERY, mode="planner")
    assert interpreted.table.same_bag(planned.table)


def test_p2_planner_wins_and_gap_grows(table_report):
    rows = []
    ratios = []
    for commons in (100, 800, 6400):
        graph = build_graph(commons)
        engine = CypherEngine(graph)
        planner_seconds, planned = _time(
            lambda: engine.run(QUERY, mode="planner").value()
        )
        interpreter_seconds, interpreted = _time(
            lambda: engine.run(QUERY, mode="interpreter").value()
        )
        assert planned == interpreted == 6
        ratio = interpreter_seconds / max(planner_seconds, 1e-9)
        ratios.append(ratio)
        rows.append(
            (commons, "%.3f ms" % (planner_seconds * 1e3),
             "%.3f ms" % (interpreter_seconds * 1e3), "%.1fx" % ratio)
        )
    table_report(
        "P2 — planner (label-index entry) vs reference interpreter",
        ["common nodes", "planner", "interpreter", "interp/planner"],
        rows,
    )
    assert ratios[-1] > 1.0
    assert ratios[-1] > ratios[0]


@pytest.mark.parametrize("mode", ["planner", "interpreter"])
def test_p2_benchmark(benchmark, mode):
    graph = build_graph(commons=400)
    engine = CypherEngine(graph)
    result = benchmark(engine.run, QUERY, mode=mode)
    assert result.value() == 6


#: Statements of the sizes the end-to-end benchmark lexes (25-40 tokens).
LEXED = [
    QUERY,
    "MATCH (p:Person {id: 'p933'})-[:KNOWS]-(f:Person) "
    "RETURN f.id AS id, f.firstName AS firstName ORDER BY id",
    "MATCH (m:Post) WHERE m.creationDate >= 1287654321 AND "
    "m.creationDate < 1287913521 RETURN count(m) AS n",
    "MATCH (m:Post) WHERE m.creationDate <= 1287654321 RETURN m.id AS id, "
    "m.creationDate AS created ORDER BY created DESC LIMIT 10",
]

#: The lexer is the one front-end stage an ad hoc statement still pays
#: on every run; the per-character scanner it replaced managed 0.29 M.
TOKENS_PER_SECOND_FLOOR = 1.0e6


def test_p2_lexer_tokens_per_second(table_report, pipeline_record):
    """Best of 15 samples: the rate a quiet core sustains."""
    tokens = sum(len(tokenize(text)) for text in LEXED)
    samples = []
    for _ in range(15):
        started = time.perf_counter()
        for _ in range(200):
            for text in LEXED:
                tokenize(text)
        samples.append((time.perf_counter() - started) / 200)
    seconds = min(samples)
    rate = tokens / seconds
    table_report(
        "P2 — lexer throughput (one master regex over the terminal table)",
        ["statements", "tokens", "per statement", "tokens/s"],
        [(
            len(LEXED), tokens,
            "%.1f µs" % (seconds / len(LEXED) * 1e6),
            "%.2f M (floor %.1f M)" % (rate / 1e6, TOKENS_PER_SECOND_FLOOR / 1e6),
        )],
    )
    pipeline_record("parser", "p2_tokens_per_s", {
        "tokens_per_s": round(rate),
        "statement_us": round(seconds / len(LEXED) * 1e6, 1),
        "tokens": tokens,
    })
    assert rate >= TOKENS_PER_SECOND_FLOOR, "%.2f M tokens/s" % (rate / 1e6)
