"""Copy-on-write version pins and the snapshot read overlay.

A :class:`VersionPin` freezes one store version *without copying the
store*: :meth:`MemoryGraph.pin_version` registers the pin, and from then
on every raw mutator preserves the **pre-image** of whatever it is about
to touch into the pin's delta maps — first write wins, later writes to
the same entity find the entry already present and pay one dict probe.
A reader that wants the pinned version layers :class:`SnapshotGraph`
over the pin: entities with a preserved pre-image read from the delta,
everything else falls through to the live store's internals, which are
by construction unchanged since the pin for those entities.

The overlay implements the full :class:`~repro.graph.model.PropertyGraph`
read interface *plus* the bulk column APIs the batch engine needs
(``all_node_ids`` / ``label_scan_ids`` / ``node_property_column`` /
``expand_batch``) and the statistics hooks, so both the row and the
batch executors run against a snapshot through the exact same access
paths they use on the live store.  What it deliberately does **not**
expose is the property-index probe surface: index contents track the
live version, so the overlay reports no indexes and the planner enters
through label scans with residual filters — same results, index-free
access paths (the residual predicate always decides; see the
over-approximation contract in :mod:`repro.graph.store`).

Soundness of the fall-through rests on two invariants:

* every mutator preserves *before* it mutates, covering node state,
  relationship state, both endpoints' adjacency, and label/type
  membership lists for everything it touches;
* execution is cooperative and single-threaded — no mutation lands
  between two reads of one query — so "no delta entry" always means
  "identical to pin time", never "not preserved yet".
"""

from __future__ import annotations

from repro.exceptions import EntityNotFound, TransactionError
from repro.graph.model import PropertyGraph
from repro.values.base import NodeId


def _id_value(identifier):
    return identifier.value


#: Delta marker: the entity did not exist when the pin was taken (it was
#: created afterwards), so the snapshot must not show it.
ABSENT = object()


class VersionPin:
    """The pre-images one pinned version needs, filled copy-on-write."""

    __slots__ = (
        "base",
        "version",
        "refs",
        "node_count",
        "rel_count",
        "nodes",       # NodeId -> (label set, property dict) | ABSENT
        "rels",        # RelId -> (src, tgt, type, property dict) | ABSENT
        "adjacency",   # NodeId -> (out, in, out_by_type, in_by_type)
        "labels",      # label -> id-sorted node list at pin time
        "types",       # type -> id-sorted rel list at pin time
    )

    def __init__(self, graph):
        self.base = graph
        self.version = graph._version
        self.refs = 1
        self.node_count = len(graph._node_labels)
        self.rel_count = len(graph._rel_endpoints)
        self.nodes = {}
        self.rels = {}
        self.adjacency = {}
        self.labels = {}
        self.types = {}

    @property
    def clean(self):
        """True while nothing has mutated since the pin was taken."""
        return not (
            self.nodes or self.rels or self.adjacency
            or self.labels or self.types
        )

    # -- pre-image capture (called by the store *before* each mutation) ----

    def preserve_node(self, graph, node_id):
        if node_id not in self.nodes:
            labels = graph._node_labels.get(node_id)
            if labels is None:
                self.nodes[node_id] = ABSENT
            else:
                self.nodes[node_id] = (
                    set(labels),
                    dict(graph._node_properties[node_id]),
                )

    def preserve_rel(self, graph, rel_id):
        if rel_id not in self.rels:
            endpoints = graph._rel_endpoints.get(rel_id)
            if endpoints is None:
                self.rels[rel_id] = ABSENT
            else:
                self.rels[rel_id] = (
                    endpoints[0],
                    endpoints[1],
                    graph._rel_types[rel_id],
                    dict(graph._rel_properties[rel_id]),
                )

    def preserve_adjacency(self, graph, node_id):
        if node_id not in self.adjacency:
            self.adjacency[node_id] = (
                list(graph._outgoing.get(node_id, ())),
                list(graph._incoming.get(node_id, ())),
                {
                    t: list(rels)
                    for t, rels in graph._outgoing_by_type.get(
                        node_id, {}
                    ).items()
                },
                {
                    t: list(rels)
                    for t, rels in graph._incoming_by_type.get(
                        node_id, {}
                    ).items()
                },
            )

    def preserve_label(self, graph, label):
        if label not in self.labels:
            self.labels[label] = sorted(
                graph._label_index.get(label, ()), key=_id_value
            )

    def preserve_type(self, graph, rel_type):
        if rel_type not in self.types:
            self.types[rel_type] = sorted(
                graph._type_index.get(rel_type, ()), key=_id_value
            )

    def __repr__(self):
        return "VersionPin(v%d, refs=%d, %s)" % (
            self.version,
            self.refs,
            "clean" if self.clean else "dirty",
        )


class SnapshotGraph(PropertyGraph):
    """A read-only property graph fixed at one pinned store version.

    Reads consult the pin's pre-image deltas first and fall through to
    the live store's internals otherwise (sound per the module
    docstring).  The write surface raises :class:`TransactionError`.
    """

    #: The bulk column APIs below make batch execution eligible.
    supports_bulk_scans = True

    def __init__(self, pin):
        self._pin = pin

    @property
    def version(self):
        """The pinned version — stable, so statistics caches stay warm."""
        return self._pin.version

    #: The schema epoch never moves: the overlay advertises no indexes.
    schema_version = 0

    # -- node state ---------------------------------------------------------

    def _node_state(self, node_id):
        """(labels, properties) at pin time, or None if not a node then."""
        pin = self._pin
        state = pin.nodes.get(node_id)
        if state is None:
            labels = pin.base._node_labels.get(node_id)
            if labels is None:
                return None
            return labels, pin.base._node_properties[node_id]
        if state is ABSENT:
            return None
        return state

    def _rel_state(self, rel_id):
        """(src, tgt, type, properties) at pin time, or None."""
        pin = self._pin
        state = pin.rels.get(rel_id)
        if state is None:
            endpoints = pin.base._rel_endpoints.get(rel_id)
            if endpoints is None:
                return None
            return (
                endpoints[0],
                endpoints[1],
                pin.base._rel_types[rel_id],
                pin.base._rel_properties[rel_id],
            )
        if state is ABSENT:
            return None
        return state

    def _require_node(self, node_id):
        state = self._node_state(node_id)
        if state is None:
            raise EntityNotFound("no node %r in graph" % (node_id,))
        return state

    def _require_rel(self, rel_id):
        state = self._rel_state(rel_id)
        if state is None:
            raise EntityNotFound("no relationship %r in graph" % (rel_id,))
        return state

    # -- PropertyGraph read interface ---------------------------------------

    def nodes(self):
        return iter(self.all_node_ids())

    def relationships(self):
        pin = self._pin
        overlay = pin.rels
        merged = [r for r in pin.base._rel_endpoints if r not in overlay]
        merged.extend(r for r, s in overlay.items() if s is not ABSENT)
        merged.sort(key=_id_value)
        return iter(merged)

    def src(self, rel_id):
        return self._require_rel(rel_id)[0]

    def tgt(self, rel_id):
        return self._require_rel(rel_id)[1]

    def rel_type(self, rel_id):
        return self._require_rel(rel_id)[2]

    def property_value(self, entity_id, key):
        if isinstance(entity_id, NodeId):
            return self._require_node(entity_id)[1].get(key)
        return self._require_rel(entity_id)[3].get(key)

    def properties(self, entity_id):
        if isinstance(entity_id, NodeId):
            return dict(self._require_node(entity_id)[1])
        return dict(self._require_rel(entity_id)[3])

    def labels(self, node_id):
        return frozenset(self._require_node(node_id)[0])

    def has_label(self, node_id, label):
        return label in self._require_node(node_id)[0]

    def node_property(self, node_id, key):
        return self._require_node(node_id)[1].get(key)

    def has_node(self, node_id):
        return self._node_state(node_id) is not None

    def has_relationship(self, rel_id):
        return self._rel_state(rel_id) is not None

    def node_count(self):
        return self._pin.node_count

    def relationship_count(self):
        return self._pin.rel_count

    # -- adjacency ----------------------------------------------------------

    def _adjacency(self, node_id):
        """Pin-time (out, in, out_by_type, in_by_type), delta-first."""
        pin = self._pin
        preserved = pin.adjacency.get(node_id)
        if preserved is not None:
            return preserved
        base = pin.base
        return (
            base._outgoing.get(node_id, ()),
            base._incoming.get(node_id, ()),
            base._outgoing_by_type.get(node_id, _EMPTY),
            base._incoming_by_type.get(node_id, _EMPTY),
        )

    @staticmethod
    def _typed(segments, types):
        merged = [
            rel
            for t in dict.fromkeys(types)
            for rel in segments.get(t, ())
        ]
        merged.sort(key=_id_value)
        return iter(merged)

    def outgoing(self, node_id, types=None):
        out, _inc, out_by_type, _in_by_type = self._adjacency(node_id)
        if types is None:
            return iter(out)
        return self._typed(out_by_type, types)

    def incoming(self, node_id, types=None):
        _out, inc, _out_by_type, in_by_type = self._adjacency(node_id)
        if types is None:
            return iter(inc)
        return self._typed(in_by_type, types)

    def degree(self, node_id, direction="both", rel_type=None):
        out, inc, out_by_type, in_by_type = self._adjacency(node_id)
        if rel_type is None:
            n_out, n_in = len(out), len(inc)
        else:
            n_out = len(out_by_type.get(rel_type, ()))
            n_in = len(in_by_type.get(rel_type, ()))
        if direction == "out":
            return n_out
        if direction == "in":
            return n_in
        return n_out + n_in

    # -- scans and bulk columns (batch-engine substrate) --------------------

    def all_node_ids(self):
        pin = self._pin
        overlay = pin.nodes
        if not overlay:
            return pin.base.all_node_ids()
        merged = [n for n in pin.base._node_labels if n not in overlay]
        merged.extend(n for n, s in overlay.items() if s is not ABSENT)
        merged.sort(key=_id_value)
        return merged

    def label_scan_ids(self, label):
        pin = self._pin
        preserved = pin.labels.get(label)
        if preserved is not None:
            return preserved
        # Membership mutations always preserve the label list first, so
        # no delta entry means the live scan list equals pin time.
        return pin.base._cached_scan("label", label)

    def has_label_nodes(self, label):
        """``bool(label_scan_ids(label))`` without building the scan list."""
        return self.label_count(label) > 0

    def nodes_with_label(self, label):
        return iter(self.label_scan_ids(label))

    def relationships_with_type(self, rel_type):
        pin = self._pin
        preserved = pin.types.get(rel_type)
        if preserved is not None:
            return iter(preserved)
        return iter(pin.base._cached_scan("type", rel_type))

    def node_property_column(self, node_ids, key):
        pin = self._pin
        overlay = pin.nodes
        if not overlay:
            return pin.base.node_property_column(node_ids, key)
        base_properties = pin.base._node_properties
        column = []
        append = column.append
        for node in node_ids:
            state = overlay.get(node)
            if state is None:
                append(base_properties[node].get(key))  # KeyError contract
            elif state is ABSENT:
                raise KeyError(node)
            else:
                append(state[1].get(key))
        return column

    def expand_batch(self, sources, direction, types=None):
        pin = self._pin
        if pin.clean:
            return pin.base.expand_batch(sources, direction, types)
        origins, rels, targets = [], [], []
        end = 1 if direction == "out" else 0
        for index, node in enumerate(sources):
            if not isinstance(node, NodeId) or not self.has_node(node):
                continue
            if direction == "both":
                for rel in self.touching(node, types):
                    source_end, target_end, _t, _p = self._require_rel(rel)
                    origins.append(index)
                    rels.append(rel)
                    targets.append(
                        target_end if source_end == node else source_end
                    )
            else:
                steps = (
                    self.outgoing(node, types)
                    if direction == "out"
                    else self.incoming(node, types)
                )
                for rel in steps:
                    origins.append(index)
                    rels.append(rel)
                    targets.append(self._require_rel(rel)[end])
        return origins, rels, targets

    # -- statistics hooks ----------------------------------------------------

    def label_count(self, label):
        pin = self._pin
        preserved = pin.labels.get(label)
        if preserved is not None:
            return len(preserved)
        return len(pin.base._label_index.get(label, ()))

    def type_count(self, rel_type):
        pin = self._pin
        preserved = pin.types.get(rel_type)
        if preserved is not None:
            return len(preserved)
        return len(pin.base._type_index.get(rel_type, ()))

    def all_labels(self):
        return sorted(self.label_cardinalities())

    def all_types(self):
        return sorted(self.type_cardinalities())

    def label_cardinalities(self):
        pin = self._pin
        counts = {
            label: len(nodes)
            for label, nodes in pin.base._label_index.items()
            if label not in pin.labels
        }
        for label, ids in pin.labels.items():
            counts[label] = len(ids)
        return {label: n for label, n in counts.items() if n}

    def type_cardinalities(self):
        pin = self._pin
        counts = {
            t: len(rels)
            for t, rels in pin.base._type_index.items()
            if t not in pin.types
        }
        for t, ids in pin.types.items():
            counts[t] = len(ids)
        return {t: n for t, n in counts.items() if n}

    # No index surface: the live indexes track the live version, so the
    # snapshot advertises none and plans fall back to label scans whose
    # residual filters preserve the predicate semantics exactly.

    def has_index(self, label, key):
        return False

    def indexes(self):
        return []

    # -- write surface -------------------------------------------------------

    def write_transaction(self, record_undo=False):
        raise TransactionError("snapshot graphs are read-only")

    def __repr__(self):
        return "SnapshotGraph(v%d over %r)" % (self._pin.version, self._pin.base)


_EMPTY = {}
