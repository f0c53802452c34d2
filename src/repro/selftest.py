"""The canonical store snapshot every differential harness compares.

``python -m repro.cli selftest`` (see :func:`repro.cli.selftest_main`)
owns no checks of its own: it runs the tier-1 tests marked ``smoke``
under the repository's ``tests/`` directory, so the quick gate and the
full suite never disagree about what "correct" means.  What stays here
is :func:`graph_state`, which those tests, the benchmarks and the
end-to-end verify phase all compare final stores with.
"""

from __future__ import annotations

from repro.values.ordering import canonical_key


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
