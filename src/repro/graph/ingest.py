"""Streaming bulk CSV ingest with deferred index builds.

The loader reads neo4j-admin-style CSV tables — node files carry an
``:ID(namespace)`` column plus ``:LABEL`` and typed property columns
(``age:int``, ``score:float``, ``active:bool``; untyped columns are
strings), relationship files carry ``:START_ID(ns)`` / ``:END_ID(ns)`` /
``:TYPE`` — and batches the rows through the store's bulk mutator
halves: :meth:`~repro.graph.store.StoreTransaction.create_nodes` and
:meth:`~repro.graph.store.StoreTransaction.create_relationships`.  Rows
stream through a bounded batch buffer; the whole file set is never
materialised.

Two properties distinguish this path from per-row loading:

* **one transaction, exact rollback** — the whole ingest runs inside a
  single pre-image-recording :class:`StoreTransaction`; a mid-stream failure
  (malformed row, dangling reference, duplicate id, injected fault)
  rolls the store back to its pre-ingest state exactly, and the
  declared indexes are restored too;
* **deferred index builds** — with ``defer_indexes=True`` (the
  default), declared property and reachability indexes are dropped up
  front and rebuilt *once* at ingest end from their bulk-build paths
  (one sort per index segment, one Tarjan per reachability index),
  instead of being maintained per row.  Incremental maintenance and
  rebuild produce identical indexes by the store's own
  maintenance-vs-rebuild contract, so the only difference is the cost.

External ids resolve within one ingest run: every node row registers
its id under its namespace, and relationship rows look endpoints up in
those maps.  Node tables load before relationship tables regardless of
argument order (relative order within each kind is preserved, which is
what makes repeated ingests of the same table set id-deterministic).
"""

from __future__ import annotations

import csv
import os
import time

from repro.exceptions import CypherError


class IngestError(CypherError):
    """A malformed header, unresolvable reference or duplicate id."""


class IngestReport:
    """What one ingest run did, for callers and the CLI to print."""

    def __init__(self):
        self.nodes_created = 0
        self.relationships_created = 0
        self.batches = 0
        self.tables = []  # (name, kind, rows)
        self.property_indexes = []       # rebuilt or maintained (label, key)
        self.reachability_indexes = []   # rebuilt or maintained type sets
        self.deferred = True
        self.elapsed_s = 0.0
        self.id_maps = {}  # namespace -> {external id -> NodeId}

    def summary(self):
        return (
            "%d node(s), %d relationship(s) from %d table(s) "
            "in %d batch(es), %.3fs (%s index maintenance: %d property, "
            "%d reachability)"
            % (
                self.nodes_created,
                self.relationships_created,
                len(self.tables),
                self.batches,
                self.elapsed_s,
                "deferred" if self.deferred else "incremental",
                len(self.property_indexes),
                len(self.reachability_indexes),
            )
        )

    def __repr__(self):
        return "IngestReport(%s)" % self.summary()


def _parse_value(kind, raw):
    if raw == "":
        return None  # absent property
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind == "bool":
        if raw in ("true", "True"):
            return True
        if raw in ("false", "False"):
            return False
        raise IngestError("bad bool literal %r" % (raw,))
    return raw


class _Header:
    """One parsed CSV header: column roles and property converters."""

    __slots__ = (
        "kind", "id_at", "namespace", "label_at",
        "start_at", "start_namespace", "end_at", "end_namespace",
        "type_at", "properties",
    )

    def __init__(self, name, columns):
        self.kind = None
        self.id_at = self.label_at = None
        self.start_at = self.end_at = self.type_at = None
        self.namespace = self.start_namespace = self.end_namespace = None
        self.properties = []  # (position, key, value kind)
        for position, column in enumerate(columns):
            if column.startswith(":ID"):
                self.id_at = position
                self.namespace = _namespace_of(column, name)
            elif column == ":LABEL":
                self.label_at = position
            elif column.startswith(":START_ID"):
                self.start_at = position
                self.start_namespace = _namespace_of(column, name)
            elif column.startswith(":END_ID"):
                self.end_at = position
                self.end_namespace = _namespace_of(column, name)
            elif column == ":TYPE":
                self.type_at = position
            elif column.startswith(":"):
                raise IngestError(
                    "%s: unknown reserved column %r" % (name, column)
                )
            else:
                key, _, kind = column.partition(":")
                if not key:
                    raise IngestError(
                        "%s: property column with empty name %r"
                        % (name, column)
                    )
                self.properties.append((position, key, kind or "str"))
        if self.id_at is not None:
            if self.start_at is not None or self.end_at is not None:
                raise IngestError(
                    "%s: a table is either nodes (:ID) or relationships "
                    "(:START_ID/:END_ID), not both" % name
                )
            self.kind = "nodes"
        elif self.start_at is not None and self.end_at is not None:
            if self.type_at is None:
                raise IngestError(
                    "%s: relationship table without a :TYPE column" % name
                )
            self.kind = "relationships"
        else:
            raise IngestError(
                "%s: header declares neither :ID nor :START_ID/:END_ID"
                % name
            )

    def node_row(self, row, name):
        labels = ()
        if self.label_at is not None and row[self.label_at]:
            labels = tuple(row[self.label_at].split(";"))
        properties = {}
        for position, key, kind in self.properties:
            value = _parse_value(kind, row[position])
            if value is not None:
                properties[key] = value
        return row[self.id_at], labels, properties

    def rel_row(self, row, name):
        rel_type = row[self.type_at]
        if not rel_type:
            raise IngestError("%s: row with empty :TYPE" % name)
        properties = {}
        for position, key, kind in self.properties:
            value = _parse_value(kind, row[position])
            if value is not None:
                properties[key] = value
        return row[self.start_at], row[self.end_at], rel_type, properties


def _namespace_of(column, name):
    if "(" not in column:
        return ""
    if not column.endswith(")"):
        raise IngestError("%s: malformed id column %r" % (name, column))
    return column[column.index("(") + 1:-1]


def _open_sources(sources, handles):
    """Normalise to ``(name, row_iterator)`` pairs, headers unread.

    Accepts a directory path (all ``*.csv`` inside, sorted), file
    paths, or ``(name, lines)`` pairs for already-streaming input.
    Opened file objects are appended to ``handles`` for the caller to
    close.
    """
    if isinstance(sources, str):
        sources = [sources]
    for source in sources:
        if isinstance(source, str):
            if os.path.isdir(source):
                for entry in sorted(os.listdir(source)):
                    if entry.endswith(".csv"):
                        handle = open(
                            os.path.join(source, entry), newline=""
                        )
                        handles.append(handle)
                        yield entry, csv.reader(handle)
            else:
                handle = open(source, newline="")
                handles.append(handle)
                yield os.path.basename(source), csv.reader(handle)
        else:
            name, lines = source
            yield name, csv.reader(iter(lines))


def ingest_csv(graph, sources, batch_size=1000, defer_indexes=True):
    """Bulk-load CSV tables into ``graph``; returns an :class:`IngestReport`.

    ``sources`` is a directory, a list of file paths, or ``(name,
    lines)`` pairs.  ``batch_size`` rows accumulate per bulk create
    (``1`` degenerates to the per-row mutators — the incremental
    baseline the benchmark compares against).  With ``defer_indexes``
    the declared property/reachability indexes are dropped first and
    rebuilt once at the end; on any failure the store *and* its indexes
    are restored to their pre-ingest state before the error propagates.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    started = time.perf_counter()
    report = IngestReport()
    report.deferred = bool(defer_indexes)
    report.property_indexes = graph.indexes()
    report.reachability_indexes = graph.reachability_indexes()

    handles = []
    try:
        tables = []
        for name, rows in _open_sources(sources, handles):
            try:
                columns = next(rows)
            except StopIteration:
                raise IngestError("%s: empty file (no header row)" % name)
            tables.append((name, _Header(name, columns), rows))
        # Nodes before relationships, relative order preserved per kind:
        # endpoint references always resolve, and id assignment depends
        # only on the table set, not the argument order.
        tables.sort(key=lambda entry: entry[1].kind != "nodes")

        transaction = graph.write_transaction()
        id_maps = report.id_maps
        try:
            if defer_indexes:
                for label, key in report.property_indexes:
                    graph.drop_index(label, key)
                for types in report.reachability_indexes:
                    graph.drop_reachability_index(types)
            for name, header, rows in tables:
                count = _load_table(
                    transaction, header, rows, name, id_maps, batch_size,
                    report,
                )
                report.tables.append((name, header.kind, count))
            transaction.commit()
        except BaseException:
            transaction.rollback()
            if defer_indexes:
                # The rolled-back store equals the pre-ingest store, so
                # rebuilding restores exactly the dropped index contents.
                for label, key in report.property_indexes:
                    graph.create_index(label, key)
                for types in report.reachability_indexes:
                    graph.create_reachability_index(types)
            raise
        if defer_indexes:
            for label, key in report.property_indexes:
                graph.create_index(label, key)
            for types in report.reachability_indexes:
                graph.create_reachability_index(types)
        report.nodes_created = transaction.nodes_created
        report.relationships_created = transaction.relationships_created
    finally:
        for handle in handles:
            handle.close()
    report.elapsed_s = time.perf_counter() - started
    return report


def _load_table(transaction, header, rows, name, id_maps, batch_size, report):
    if header.kind == "nodes":
        return _load_nodes(
            transaction, header, rows, name, id_maps, batch_size, report
        )
    return _load_rels(
        transaction, header, rows, name, id_maps, batch_size, report
    )


def _load_nodes(transaction, header, rows, name, id_maps, batch_size, report):
    ids = id_maps.setdefault(header.namespace, {})
    batch_labels = None
    externals = []
    batch = []

    def flush():
        if not batch:
            return
        report.batches += 1
        if batch_size == 1:
            created = [
                transaction.create_node(batch_labels, properties)
                for properties in batch
            ]
        else:
            created = transaction.create_nodes(batch_labels, batch)
        for external, node in zip(externals, created):
            ids[external] = node
        externals.clear()
        batch.clear()

    count = 0
    for row in rows:
        external, labels, properties = header.node_row(row, name)
        if external in ids:
            raise IngestError(
                "%s: duplicate id %r in namespace %r"
                % (name, external, header.namespace)
            )
        if labels != batch_labels or len(batch) >= batch_size:
            flush()
            batch_labels = labels
        ids[external] = None  # reserve: duplicates inside one batch fail too
        externals.append(external)
        batch.append(properties)
        count += 1
    flush()
    return count


def _load_rels(transaction, header, rows, name, id_maps, batch_size, report):
    start_ids = id_maps.get(header.start_namespace, {})
    end_ids = id_maps.get(header.end_namespace, {})
    batch_type = None
    batch = []

    def flush():
        if not batch:
            return
        report.batches += 1
        if batch_size == 1:
            for triple in batch:
                transaction.create_relationship(
                    triple[0], triple[1], batch_type, triple[2]
                )
        else:
            transaction.create_relationships(batch_type, batch)
        batch.clear()

    count = 0
    for row in rows:
        start, end, rel_type, properties = header.rel_row(row, name)
        source = start_ids.get(start)
        target = end_ids.get(end)
        if source is None:
            raise IngestError(
                "%s: unresolved start id %r in namespace %r"
                % (name, start, header.start_namespace)
            )
        if target is None:
            raise IngestError(
                "%s: unresolved end id %r in namespace %r"
                % (name, end, header.end_namespace)
            )
        if rel_type != batch_type or len(batch) >= batch_size:
            flush()
            batch_type = rel_type
        batch.append((source, target, properties))
        count += 1
    flush()
    return count
