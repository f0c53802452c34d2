"""Layer probes that do not depend on which workload is being traced.

The result line of a traced run must carry every per-layer metric on
every workload, so the layers a workload does not itself exercise
(store writes under a read workload, pins under a single client, …) are
measured here by one fixed, seeded probe each — the same probe in every
traced run, on copies, so the workload's own phases are not disturbed.
"""

from __future__ import annotations

import time

from repro import CypherEngine, GraphStatistics, MemoryGraph
from repro.graph.ingest import ingest_csv
from repro.graph.reachability import ReachabilityIndex
from repro.values import RelId

from stats import median
from workloads import (
    ANALYTIC,
    INTERACTIVE,
    MixedWorkload,
    ReadWorkload,
    Spans,
    UpdateWorkload,
    seeded,
)
from world import PROPERTY_INDEXES, declare_indexes, render_csv

_clock = time.perf_counter_ns


def _per_call(calls, function):
    """Median ns of ``function(argument)`` over ``calls``."""
    samples = []
    for argument in calls:
        started = _clock()
        function(argument)
        samples.append(_clock() - started)
    return median(samples)


def _us(ns):
    return ns / 1e3


def store_reads(world, count, rng, put):
    graph, h = world.graph, world.handles
    person_ids = world.report.id_maps["Person"]
    persons = [rng.choice(h.persons) for _ in range(count)]
    nodes = [person_ids[pid] for pid in persons]
    put("store.index_lookup_us", _us(_per_call(
        persons, lambda pid: graph.index_lookup("Person", "id", pid))), "us")
    put("store.node_property_us", _us(_per_call(
        nodes, lambda node: graph.node_property(node, "firstName"))), "us")

    rels = 0
    started = _clock()
    for node in nodes:
        rels += len(list(graph.outgoing(node, ["KNOWS"])))
        rels += len(list(graph.incoming(node, ["KNOWS"])))
    put("store.expand_us_per_rel", _us(_clock() - started) / max(rels, 1), "us")

    repeats = max(1, count // 100)
    comments = graph.label_scan_ids("Comment")
    thousands = max(len(comments), 1) / 1000.0
    put("store.label_scan_us_per_knode", _us(_per_call(
        range(repeats), lambda _: list(graph.label_scan_ids("Comment"))))
        / thousands, "us")
    put("store.property_column_us_per_knode", _us(_per_call(
        range(repeats),
        lambda _: graph.node_property_column(comments, "length")))
        / thousands, "us")
    everyone = graph.label_scan_ids("Person")
    started = _clock()
    for _ in range(repeats):
        found = len(graph.expand_batch(everyone, "both", ["KNOWS"])[1])
    put("store.expand_batch_us_per_krel",
        _us(_clock() - started) / repeats / (max(found, 1) / 1000.0), "us")

    put("statistics.build_us", _us(_per_call(
        range(repeats), lambda _: GraphStatistics(graph))), "us")
    index = graph.reachability_index_for(["KNOWS"])
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(count)]
    index.reachable(*pairs[0])  # labels are recomputed lazily: pay it first
    put("reachability.reachable_us", _us(_per_call(
        pairs, lambda pair: index.reachable(*pair))), "us")


def store_writes(world, count, rng, put):
    h = world.handles
    person_ids = world.report.id_maps["Person"]
    message_ids = world.report.id_maps["Message"]
    started = time.perf_counter()
    indexed = world.graph.copy()
    put("store.copy_s", time.perf_counter() - started, "s")
    bare = world.graph.copy()
    for label, key in PROPERTY_INDEXES:
        bare.drop_index(label, key)

    def create_posts(graph):
        transaction = graph.write_transaction()
        started = _clock()
        created = [
            transaction.create_node(("Post",), {
                "id": "c%d" % i, "content": "probe", "length": 5,
                "creationDate": i,
            })
            for i in range(count)
        ]
        elapsed = _clock() - started
        transaction.commit()
        return elapsed, created

    with_indexes, created = create_posts(indexed)
    without_indexes, _ = create_posts(bare)
    put("store.create_node_us", _us(with_indexes) / count, "us")
    # Post(id) and Post(creationDate): two index entries per created node.
    put("store.index_entry_us",
        _us(with_indexes - without_indexes) / (2 * count), "us")

    persons = [person_ids[rng.choice(h.persons)] for _ in range(count)]
    messages = [message_ids[rng.choice(h.posts)] for _ in range(count)]
    transaction = indexed.write_transaction()
    started = _clock()
    likes = [
        transaction.create_relationship(person, message, "LIKES", {"w": 1})
        for person, message in zip(persons, messages)
    ]
    put("store.create_relationship_us", _us(_clock() - started) / count, "us")
    started = _clock()
    for node in created:
        transaction.set_property(node, "content", "probed")
    put("store.set_property_us", _us(_clock() - started) / count, "us")
    transaction.commit()
    transaction = indexed.write_transaction()
    started = _clock()
    for rel in likes:
        transaction.delete_relationship(rel)
    put("store.delete_relationship_us", _us(_clock() - started) / count, "us")
    transaction.commit()

    def small_commit(node):
        transaction = indexed.write_transaction()
        transaction.set_property(node, "length", 6)
        started = _clock()
        transaction.commit()
        return _clock() - started

    put("store.txn_commit_us",
        _us(median([small_commit(node) for node in created])), "us")

    knows = ReachabilityIndex(frozenset(["KNOWS"]))
    graph = world.graph
    knows.build(
        (rel, graph.src(rel), graph.tgt(rel))
        for rel in graph.relationships_with_type("KNOWS")
    )
    edges = [
        (RelId(10 ** 9 + i), rng.choice(persons), rng.choice(persons))
        for i in range(count)
    ]
    put("reachability.add_edge_us", _us(_per_call(
        edges, lambda edge: knows.add_edge(*edge))), "us")


def ingest_breakdown(world, put):
    timings, report = world.timings, world.report
    rows = report.nodes_created + report.relationships_created
    put("dataset.generate_s", timings["generate"], "s")
    put("dataset.csv_render_s", timings["csv_render"], "s")
    put("dataset.nodes", report.nodes_created, "count")
    put("dataset.relationships", report.relationships_created, "count")
    put("ingest.s", timings["ingest"], "s")
    put("ingest.rows_per_s", rows / timings["ingest"], "1/s")
    # The deferred build is the same work as declaring the indexes on
    # the loaded store, so time exactly that, back to back with the load.
    graph = MemoryGraph()
    started = time.perf_counter()
    ingest_csv(graph, render_csv(world.dataset), batch_size=1000)
    loaded = time.perf_counter()
    declare_indexes(graph)
    built = time.perf_counter()
    put("ingest.index_build_share",
        (built - loaded) / (built - started), "ratio")


def session_probes(world, seed, sizes, put):
    """Sessions, transactions and pins, each on its own copy: the
    update and mixed probes replay the same stream from its start."""
    engine = CypherEngine(world.graph.copy())
    count = sizes.census_calls

    def open_close(_):
        with engine.session():
            pass

    put("session.open_close_us", _us(_per_call(range(count), open_close)), "us")

    reads = ReadWorkload("census", INTERACTIVE[:1]).bind(world, seed)
    ops = reads.make_ops(count)
    # Alternating, so both sides see the same host.
    direct, through = [], []
    with engine.session() as session:
        for _, text, parameters in ops:
            started = _clock()
            engine.run(text, parameters).records
            middle = _clock()
            session.run(text, parameters).records
            through.append(_clock() - middle)
            direct.append(middle - started)
    put("session.stmt_overhead_us",
        _us(median(through) - median(direct)), "us")

    updates = UpdateWorkload().bind(world, seed, engine=engine)
    spans = Spans()
    out = updates.run_pass(sizes.census_transactions, spans)
    updates.close()
    commit = median(spans.durations("commit"))
    put("session.commit_us", _us(commit), "us")
    put("session.rollback_us", _us(median(spans.durations("rollback"))), "us")
    for kind, name in enumerate(updates.template_names):
        put("op.%s.p50_us" % name, _us(median(
            [ns for ns, k in zip(out.latencies, out.templates) if k == kind]
        )), "us")

    engine = CypherEngine(world.graph.copy())
    mixed = MixedWorkload().bind(world, seed, engine=engine)
    spans = Spans()
    mixed.run_pass(sizes.census_mixed_reads, spans)
    mixed.close()
    reads_done = mixed.clean_reads + mixed.overlay_reads
    put("session.pin_us", _us(median(spans.durations("pin"))), "us")
    put("session.pin_attempts", mixed.pin_attempts, "count")
    put("session.pin_refused", mixed.pin_refused, "count")
    put("session.pin_refused_share",
        mixed.pin_refused / mixed.pin_attempts, "ratio")
    put("snapshot.overlay_read_share", mixed.overlay_reads / reads_done, "ratio")
    put("snapshot.clean_read_us",
        _us(median(spans.durations("read.clean"))), "us")
    put("snapshot.overlay_read_us",
        _us(median(spans.durations("read.overlay"))), "us")
    pinned = median(spans.durations("writer.commit_pinned"))
    put("snapshot.commit_us_with_pin", _us(pinned), "us")
    put("snapshot.cow_commit_penalty_us", _us(pinned - commit), "us")


def template_census(world, seed, sizes, put):
    """``op.<template>.p50_us`` for the 13 read templates, warm."""
    for family, templates, count in (
        ("interactive", INTERACTIVE, sizes.census_reads),
        ("analytic", ANALYTIC, sizes.census_analytic),
    ):
        reads = ReadWorkload("census-" + family, templates).bind(world, seed)
        reads.run_pass(len(templates))  # plan every template once
        out = reads.run_pass(count)
        for index, template in enumerate(templates):
            put("op.%s.p50_us" % template.name, _us(median(
                [ns for ns, t in zip(out.latencies, out.templates) if t == index]
            )), "us")


def run_census(world, seed, sizes, put):
    rng = seeded(seed, "census")
    ingest_breakdown(world, put)
    store_reads(world, sizes.census_calls, rng, put)
    template_census(world, seed, sizes, put)
    store_writes(world, sizes.census_writes, rng, put)
    session_probes(world, seed, sizes, put)
