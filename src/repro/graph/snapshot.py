"""Copy-on-write version pins and the delta-corrected snapshot view.

A :class:`VersionPin` freezes one store version *without copying the
store*: :meth:`MemoryGraph.pin_version` registers the pin, and from then
on every raw mutator preserves the **pre-image** of whatever it is about
to touch into the pin's delta maps — first write wins, later writes to
the same entity find the entry already present and pay one dict probe.
The pin's **delta** is exactly that: the nodes, relationships and
adjacency lists mutated since the pin was taken.  A writer pays one
pre-image per touched entity and nothing per label, type or index.

A reader that wants the pinned version layers :class:`SnapshotGraph`
over the pin.  Everything the view answers is *the live store's answer,
corrected by the delta*, so a read costs what it costs on the live
store plus O(|delta|):

* entity reads consult the pre-image first and fall through to the live
  store's internals otherwise;
* label/type membership and counts are the live inverted index minus
  the touched entities plus the touched entities that carried the name
  at pin time (a node whose labels changed, or that was created or
  deleted, is in ``pin.nodes``; every created or deleted relationship
  is in ``pin.rels``);
* the **property-index surface** is the base store's: the same index
  set, statistics and schema epoch, and every probe — one set for
  single-key and composite indexes alike, a single-key index being the
  one-column case — is the live probe minus the touched nodes, merged
  in probe order with the same probe over a private index of the
  touched nodes' pin-time property maps.
  Plans therefore carry over unchanged between the live store and a
  view of it — a dirty pin keeps its index entries and its cached
  plans.  Both halves are exact for a range probe within one
  comparable segment, so the merge is too: the store's exactness
  contract, on which a plan without a residual range Filter relies,
  holds of the view;
* the bulk column APIs take the base store's fast path whenever the
  batch does not intersect the delta.

**Reachability indexes stay unexposed.**  Delta correction needs a
probe that can be corrected entity by entity; a deleted edge makes the
live condensation *under*-approximate pin-time reachability, which no
residual check can repair.  Both engines degrade a ``ReachabilityProbe``
to the plain walk when ``reachability_index_for`` is absent.

Soundness rests on two invariants:

* **preserve before mutate** — every raw mutator (in-flight
  transactions and undo replay included) records the pre-image of each
  node, relationship and adjacency list it is about to change, so an
  entity *without* a delta entry is byte-identical to pin time: its
  labels, properties, endpoints, adjacency and therefore every index
  entry derived from them.  Conversely every entity whose index entry
  or label/type membership can differ from pin time *has* a delta
  entry;
* **no mutation inside a read** — execution is cooperative and
  single-threaded, so "no delta entry" always means "identical to pin
  time", never "not preserved yet".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import groupby

from repro.exceptions import EntityNotFound, TransactionError
from repro.graph.model import PropertyGraph
from repro.values.base import NodeId
from repro.values.ordering import sort_key


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

    @property
    def clean(self):
        """True while nothing has mutated since the pin was taken."""
        return not (self.nodes or self.rels or self.adjacency)

    def preimages(self):
        """How many pre-images the pin holds, by kind."""
        return {
            "node": len(self.nodes),
            "relationship": len(self.rels),
            "adjacency": len(self.adjacency),
        }

    @property
    def released(self):
        """True once the last reference is gone: nothing preserves for it."""
        return self.refs <= 0

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

    def __repr__(self):
        return "VersionPin(v%d, refs=%d, %s)" % (
            self.version,
            self.refs,
            "clean" if self.clean else "dirty",
        )


class _Descending:
    """A sort key that orders in reverse (one DESC index column)."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __eq__(self, other):
        return self.key == other.key

    def __lt__(self, other):
        return other.key < self.key


def _misses(delta, ids):
    """True when no element of the ``ids`` column is a key of ``delta``."""
    if not delta:
        return True
    try:
        return delta.keys().isdisjoint(ids)
    except TypeError:  # an unhashable non-id value in the column
        return False


def _merge_in_order(live, extra, key):
    """Lazy two-way merge of index-ordered id streams by ``key``."""
    extra = iter(extra)
    pending = next(extra, None)
    pending_key = None if pending is None else key(pending)
    for node in live:
        if pending is not None:
            node_key = key(node)
            while pending is not None and pending_key < node_key:
                yield pending
                pending = next(extra, None)
                if pending is not None:
                    pending_key = key(pending)
        yield node
    while pending is not None:
        yield pending
        pending = next(extra, None)


class SnapshotGraph(PropertyGraph):
    """A read-only property graph fixed at one pinned store version.

    Every read is the live store's answer corrected by the pin's delta
    (sound per the module docstring), index probes included.  The write
    surface raises :class:`TransactionError`.
    """

    #: The bulk column APIs below make batch execution eligible.
    supports_bulk_scans = True

    def __init__(self, pin):
        self._pin = pin
        # Pin-time label/type membership of the touched entities.  A
        # pre-image never changes once preserved and the delta maps only
        # grow, so their sizes stamp everything derived from them.
        self._then_labels = (0, {})
        self._then_types = (0, {})
        self._delta_indexes = {}
        #: id(plan) -> (plan, {variant: [pipeline]}): the executors park
        #: a read's pipeline for this view here, not on the plan, so it
        #: never displaces the live store's; the session clears it when
        #: it releases the pin.
        self.parked_pipelines = {}

    @property
    def version(self):
        """The pinned version — stable, so statistics caches stay warm."""
        return self._pin.version

    @property
    def schema_version(self):
        """The base store's schema epoch: the view has its index set."""
        return self._pin.base.schema_version

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
        touched = pin.rels
        merged = [r for r in pin.base._rel_endpoints if r not in touched]
        merged.extend(r for r, s in touched.items() if s is not ABSENT)
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

    # -- label / type membership: live index ± the delta ---------------------

    @staticmethod
    def _group_touched(touched, names_of):
        """``{name: id-sorted touched entities carrying it at pin time}``."""
        grouped = {}
        for entity, state in touched.items():
            if state is not ABSENT:
                for name in names_of(state):
                    grouped.setdefault(name, []).append(entity)
        for ids in grouped.values():
            ids.sort(key=_id_value)
        return grouped

    def _touched_by_label(self):
        touched = self._pin.nodes
        stamp, grouped = self._then_labels
        if stamp != len(touched):
            grouped = self._group_touched(touched, lambda state: state[0])
            self._then_labels = (len(touched), grouped)
            self._delta_indexes.clear()
        return grouped

    def _touched_by_type(self):
        touched = self._pin.rels
        stamp, grouped = self._then_types
        if stamp != len(touched):
            grouped = self._group_touched(touched, lambda state: state[2:3])
            self._then_types = (len(touched), grouped)
        return grouped

    @staticmethod
    def _count(live, touched, then):
        """Pin-time size of one inverted-index entry: O(|delta|)."""
        return len(live) - len(live.intersection(touched)) + len(then)

    def label_count(self, label):
        pin = self._pin
        return self._count(
            pin.base._label_index.get(label, _NOTHING),
            pin.nodes,
            self._touched_by_label().get(label, ()),
        )

    def type_count(self, rel_type):
        pin = self._pin
        return self._count(
            pin.base._type_index.get(rel_type, _NOTHING),
            pin.rels,
            self._touched_by_type().get(rel_type, ()),
        )

    def has_label_nodes(self, label):
        """``bool(label_scan_ids(label))`` without building the scan list."""
        pin = self._pin
        live = pin.base._label_index.get(label, _NOTHING)
        if len(live) > len(pin.nodes):
            return True  # more carriers than touched nodes: one is untouched
        return self.label_count(label) > 0

    def _scan(self, kind, name, live_index, touched, then):
        """The pin-time scan list of one label or type, id-ordered.

        The live cached list itself when no touched entity carries the
        name now or carried it then; otherwise the live list minus the
        touched entities, merged with the pin-time carriers.
        """
        live = self._pin.base._cached_scan(kind, name)
        if not then and live_index.get(name, _NOTHING).isdisjoint(touched):
            return live
        merged = [entity for entity in live if entity not in touched]
        if then:
            merged.extend(then)
            merged.sort(key=_id_value)
        return merged

    def label_scan_ids(self, label):
        pin = self._pin
        return self._scan(
            "label", label, pin.base._label_index, pin.nodes,
            self._touched_by_label().get(label),
        )

    def nodes_with_label(self, label):
        return iter(self.label_scan_ids(label))

    def relationships_with_type(self, rel_type):
        pin = self._pin
        return iter(self._scan(
            "type", rel_type, pin.base._type_index, pin.rels,
            self._touched_by_type().get(rel_type),
        ))

    def all_labels(self):
        return sorted(self.label_cardinalities())

    def all_types(self):
        return sorted(self.type_cardinalities())

    @staticmethod
    def _cardinalities(live_index, touched, live_names_of, then):
        counts = {name: len(ids) for name, ids in live_index.items()}
        for entity in touched:
            for name in live_names_of(entity):
                counts[name] -= 1
        for name, ids in then.items():
            counts[name] = counts.get(name, 0) + len(ids)
        return {name: n for name, n in counts.items() if n}

    def label_cardinalities(self):
        base = self._pin.base
        node_labels = base._node_labels
        return self._cardinalities(
            base._label_index, self._pin.nodes,
            lambda node: node_labels.get(node, ()),
            self._touched_by_label(),
        )

    def type_cardinalities(self):
        base = self._pin.base
        rel_types = base._rel_types
        return self._cardinalities(
            base._type_index, self._pin.rels,
            lambda rel: (rel_types[rel],) if rel in rel_types else (),
            self._touched_by_type(),
        )

    # -- scans and bulk columns (batch-engine substrate) --------------------

    def all_node_ids(self):
        pin = self._pin
        touched = pin.nodes
        if not touched:
            return pin.base.all_node_ids()
        merged = [n for n in pin.base._node_labels if n not in touched]
        merged.extend(n for n, s in touched.items() if s is not ABSENT)
        merged.sort(key=_id_value)
        return merged

    def node_property_column(self, node_ids, key):
        pin = self._pin
        touched = pin.nodes
        if _misses(touched, node_ids):
            return pin.base.node_property_column(node_ids, key)
        properties = pin.base._node_properties
        maps = [
            touched[node] if node in touched else properties[node]
            for node in node_ids  # KeyError contract: not a node, ever
        ]
        if ABSENT in maps:
            raise KeyError("a node created after the pin")
        return [
            (state[1] if type(state) is tuple else state).get(key)
            for state in maps
        ]

    def label_property_column(self, label, key, ids):
        pin = self._pin
        if pin.nodes:  # a node has a pre-image: live ι is not pin-time ι
            return None
        return pin.base.label_property_column(label, key, ids)

    def has_labels_column(self, node_ids, labels):
        pin = self._pin
        if _misses(pin.nodes, node_ids):  # untouched: live labels are pin-time
            return pin.base.has_labels_column(node_ids, labels)
        required = frozenset(labels)
        return [required <= self._require_node(node)[0] for node in node_ids]

    def expand_batch(self, sources, direction, types=None):
        pin = self._pin
        # An untouched adjacency list holds only relationships that exist
        # unchanged on the live store (create and delete both preserve
        # the two endpoints' lists first), so a batch that misses the
        # delta expands exactly as it would have at pin time.
        if _misses(pin.adjacency, sources):
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

    # -- property indexes: the base store's, delta-corrected -----------------
    #
    # The index set, its statistics and the schema epoch are the base
    # store's own (statistics describe the live contents — estimates,
    # not answers).  Probes are corrected: a node without a delta entry
    # has its pin-time entry in the live index, so the pin-time answer
    # is the live answer minus every touched node, plus the answer of
    # the same probe over an index of the touched nodes' pin-time
    # property maps.

    def has_index(self, label, keys):
        return self._pin.base.has_index(label, keys)

    def indexes(self):
        return self._pin.base.indexes()

    def index_statistics(self):
        return self._pin.base.index_statistics()

    def index_prefix_ndvs(self, label, keys):
        return self._pin.base.index_prefix_ndvs(label, keys)

    def index_column_distribution(self, label, keys, column):
        return self._pin.base.index_column_distribution(label, keys, column)

    def _delta_index(self, label, keys):
        """An index of the touched nodes' pin-time entries, or None.

        Same class, same probe semantics as the live index it corrects;
        None when no touched node carried ``label`` at pin time.
        """
        then = self._touched_by_label().get(label)
        if then is None:
            return None
        keys = (keys,) if isinstance(keys, str) else tuple(keys)
        index = self._delta_indexes.get((label, keys))
        if index is None:
            from repro.graph.store import _PropertyIndex

            index = _PropertyIndex(label, keys)
            nodes = self._pin.nodes
            for node in then:
                index.update(node, nodes[node][1])
            self._delta_indexes[(label, keys)] = index
        return index

    def _entry_values(self, label, keys, delta):
        """``node -> its pin-time entry's column values`` for candidates:
        a touched node's from the delta index, any other's from the
        live index (where it is unchanged)."""
        live_values = self._pin.base.index_cover_getter(label, keys)
        delta_values = delta.entry_values
        touched = self._pin.nodes

        def entry_values(node):
            return (
                delta_values(node) if node in touched else live_values(node)
            )

        return entry_values

    def _entry_key(self, label, keys, delta, columns):
        """``node -> index-order sort key`` over ``(column, ascending)``s.

        Per-column :func:`sort_key` of the pin-time entry, then the id —
        the order the index itself enumerates in.
        """
        entry_values = self._entry_values(label, keys, delta)

        def key(node):
            values = entry_values(node)
            parts = [
                sort_key(values[column]) if ascending
                else _Descending(sort_key(values[column]))
                for column, ascending in columns
            ]
            parts.append(node.value)
            return parts

        return key

    def _corrected(self, label, keys, live, probe, column=None):
        """One probe's pin-time candidates, in the probe's own order.

        ``probe(index)`` repeats the probe on the delta index;
        ``column`` is the bound column of a range/prefix probe (value,
        then id order) and None for the id-ordered equality probes.
        """
        touched = self._pin.nodes
        if not touched:
            return live
        kept = [node for node in live if node not in touched]
        delta = self._delta_index(label, keys)
        extra = probe(delta) if delta is not None else None
        if not extra:
            return live if len(kept) == len(live) else kept
        if column is None:
            kept.extend(extra)
            kept.sort(key=_id_value)
            return kept
        # Both lists are in (column value, id) order and hold values of
        # one comparable segment: splice each run of equal-valued delta
        # entries into the live run of that value, by id.
        entry_values = self._entry_values(label, keys, delta)

        def value_of(node):
            return entry_values(node)[column]

        for value, group in groupby(extra, value_of):
            low = bisect_left(kept, value, key=value_of)
            high = bisect_right(kept, value, lo=low, key=value_of)
            kept[low:high] = sorted(
                kept[low:high] + list(group), key=_id_value
            )
        return kept

    def index_lookup_many(self, label, key, values):
        return self._corrected(
            label, key, self._pin.base.index_lookup_many(label, key, values),
            lambda index: index.lookup_many(values),
        )

    def index_probe(self, label, keys, values):
        values = tuple(values)
        return self._corrected(
            label, keys, self._pin.base.index_probe(label, keys, values),
            lambda index: index.probe(values),
        )

    def index_seek_range(
        self, label, keys, prefix_values,
        low, low_inclusive, high, high_inclusive, starts_with=None,
    ):
        prefix_values = tuple(prefix_values)
        live = self._pin.base.index_seek_range(
            label, keys, prefix_values,
            low, low_inclusive, high, high_inclusive, starts_with,
        )
        if live is None:
            return None  # bounds unsupported: the caller scans the label
        if starts_with is not None:
            def probe(index):
                return index.prefix_ids(starts_with, prefix_values)
        else:
            def probe(index):
                return index.range_ids(
                    low, low_inclusive, high, high_inclusive, prefix_values
                )
        return self._corrected(
            label, keys, live, probe, column=len(prefix_values)
        )

    def index_ordered(
        self, label, keys, prefix_values, directions,
        low=None, low_inclusive=True, high=None, high_inclusive=True,
        starts_with=None,
    ):
        """Lazy ORDER BY enumeration: the live walk minus touched ids,
        merged in index order with the touched nodes' pin-time entries."""
        prefix_values = tuple(prefix_values)
        bounds = (low, low_inclusive, high, high_inclusive, starts_with)
        live = self._pin.base.index_ordered(
            label, keys, prefix_values, directions, *bounds
        )
        touched = self._pin.nodes
        if not touched:
            return live
        live = (node for node in live if node not in touched)
        delta = self._delta_index(label, keys)
        if delta is None:
            return live
        first = len(prefix_values)
        key = self._entry_key(label, keys, delta, [
            (first + offset, ascending)
            for offset, ascending in enumerate(directions)
        ])
        return _merge_in_order(
            live, delta.ordered_ids(prefix_values, directions, *bounds), key
        )

    def index_cover_getter(self, label, keys):
        """Covering reads: a touched node answers None, so the scan
        falls back to the pin-time property map."""
        live_values = self._pin.base.index_cover_getter(label, keys)
        touched = self._pin.nodes

        def entry_values(node):
            return None if node in touched else live_values(node)

        return entry_values

    # -- write surface -------------------------------------------------------

    def write_transaction(self):
        raise TransactionError("snapshot graphs are read-only")

    def __repr__(self):
        return "SnapshotGraph(v%d over %r)" % (self._pin.version, self._pin.base)


_EMPTY = {}
_NOTHING = frozenset()
