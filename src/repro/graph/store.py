"""The in-memory mutable property graph store.

This is the substrate standing in for Neo4j's native store (DESIGN.md §5).
It keeps:

* per-entity property dictionaries (the partial function ι);
* per-node label sets (λ) with an inverted label index;
* per-relationship type (τ) with an inverted type index;
* adjacency lists in both directions, so that Expand can go from a node to
  its relationships to the neighbouring nodes without any index lookup —
  the property the paper highlights ("Expand never needs to read any
  unnecessary data, or proceed via an indirection such as an index").

Access paths (added for the slotted execution engine):

* adjacency is *type-segmented*: next to the plain per-node lists the
  store maintains ``node -> {type: [rels]}`` in both directions, so a
  typed Expand touches exactly the matching relationships instead of
  filtering the full list through a ``rel -> type`` lookup;
* the segment lengths double as incrementally-maintained degree
  counters, making :meth:`degree` O(1) for every (direction, type)
  combination the cost model asks about;
* :meth:`nodes_with_label` / :meth:`relationships_with_type` memoise
  their sorted scan lists keyed on the store ``version``, so repeated
  label scans (every NodeByLabelScan of every query) stop re-sorting;
* :meth:`label_cardinalities` / :meth:`type_cardinalities` expose the
  inverted-index sizes so :class:`~repro.graph.statistics.GraphStatistics`
  builds in O(#labels + #types) instead of O(N + R);
* the *bulk column* APIs (added for the vectorised batch engine,
  :mod:`repro.planner.batch`) fill whole slot columns in one call:
  :meth:`all_node_ids` and :meth:`label_scan_ids` hand back scan lists
  a morsel can slice, :meth:`node_property_column` reads one property
  across a node column straight off the internal dicts, and
  :meth:`expand_batch` walks the adjacency of a whole source column into
  parallel ``(origin index, relationship, neighbour)`` columns, and
  :meth:`has_labels_column` label-checks a neighbour column — no
  per-row method dispatch on any of them.  ``supports_bulk_scans``
  advertises the capability so the engine only picks batch execution on
  stores that have it;
* two auxiliary structures that must always equal their from-scratch
  definition.  :meth:`label_property_column` memoises ι over a label's
  scan list, beside the scan cache; a property write cannot tell which
  labels' columns it staled without reading the node's labels, so every
  raw node-property mutator drops the *whole* cache (one falsy-dict
  check when it is cold), while label changes, creates and deletes are
  covered by what they already do to the scan list it is keyed on.  A
  property index's sorted half keeps each payload's id bucket beside
  it: the buckets are the hash half's own dicts, *shared by reference*
  — an id joining or leaving a live bucket needs no upkeep — and only a
  value appearing or vanishing moves the list, at the bisected position
  its payload moves at.

All adjacency lists (full and segmented) stay sorted by relationship id
because ids are allocated monotonically and appends happen at creation
time; type-filtered iteration over several segments merges them back
into id order, which keeps enumeration order identical to filtering the
full list.

Property indexes (added for the index-accelerated access paths):

* :meth:`create_index` declares a ``(label, k1, k2, …)`` index, a
  single-key one being the one-column case; each
  :class:`_PropertyIndex` keeps a **hash half** (canonical key →
  ordered node set, serving equality and ``IN`` probes) and a **sorted
  half** (one bisectable list of distinct values per comparable scalar
  segment — numbers, strings, booleans — serving range and prefix
  probes in Cypher's ``compare`` semantics);
* maintenance is *incremental*: every raw mutator (create, SET/REMOVE,
  label changes, deletes — and therefore every
  :class:`StoreTransaction`, which drives those raw halves) updates the
  affected index entries in place, inside the same commit that bumps
  the version; nothing is ever rebuilt on write;
* the planner consumes the indexes through :meth:`index_probe` /
  :meth:`index_lookup_many` / :meth:`index_seek_range` /
  :meth:`index_ordered` (id-ordered, value-then-id-ordered or ORDER BY
  order, so row and batch execution enumerate identically) and sizes
  them through
  :meth:`index_statistics` (NDV + entry counts feeding
  :class:`~repro.graph.statistics.GraphStatistics`);
* index reads never under-approximate — a node whose predicate
  evaluates to ``true`` is always returned — and **range probes are
  exact**: a range (or ``STARTS WITH``) probe whose bounds lie in one
  comparable segment (numbers sans NaN, strings, booleans) returns
  exactly the nodes :func:`~repro.values.comparison.compare` says the
  range is true of, so the planner drops those conjuncts from the
  residual Filter (a bound outside the segments answers ``None`` and
  the caller scans the label *and* applies the range itself).
  Equality probes on lists and maps still over-approximate (``equals``
  is unknown with nested nulls) and keep their residual.
  :class:`~repro.graph.snapshot.SnapshotGraph`'s delta-corrected
  probes keep the same contract;
* :attr:`MemoryGraph.schema_version` is the **schema epoch**: it moves
  when the set of property or reachability indexes may have changed
  (the four DDL calls) and never on a data commit, so the engine's plan
  cache can tell "an index this plan names may be gone" apart from
  "some rows changed".

Write transactions (added for the slotted write pipeline):

* :meth:`write_transaction` returns a :class:`StoreTransaction`, the
  single mutation kernel both the planner's physical write operators and
  the reference ``updates/executor.py`` drive — one per statement;
* inside a transaction, creates and property/label changes apply to the
  live structures immediately (clause-level snapshot isolation is the
  planner's ``Eager`` barrier's job, and the interpreter materialises
  its driving tables anyway) but *without* bumping the store version;
* deletes accumulate in a change buffer with deferred visibility — the
  entities stay readable until :meth:`StoreTransaction.flush`, which
  deduplicates across driving rows and removes relationships before
  nodes (non-DETACH violations are checked only after the same flush's
  relationship deletes have landed, exactly like the reference
  executor's two-phase delete);
* :meth:`StoreTransaction.commit` flushes and then bumps the version
  exactly once per transaction, which is what invalidates the
  version-keyed scan caches here and the statistics snapshots in
  :mod:`repro.planner.cost` — a bulk CREATE of 10k nodes costs one
  invalidation, not 10k.

Sessions, rollback, snapshots and fault injection (the transactional
robustness layer):

* **record before mutate**: every raw mutator first records the
  **pre-image** of each node and relationship it touches into the open
  statement's segment (``entity id -> pre-image``, or ``ABSENT`` for an
  entity that did not exist; the first touch per statement wins), and a
  statement has one failure path: whatever raises, its opener calls
  :meth:`StoreTransaction.rollback`, which restores the segment's
  pre-images newest first (with recording and fault injection
  suspended), restores the id counters and clears the scan caches,
  leaving store *and* property indexes exactly as before the statement —
  without a version bump, since the pre-statement version still
  describes the restored contents.  A restore is absolute, so it
  converges from any crash point.  A statement is atomic, whichever
  executor ran it;
* inside a **session scope** (see :mod:`repro.runtime.session`),
  :meth:`write_transaction` hands out :class:`_StatementTransaction`
  facades over one spanning :class:`StoreTransaction`, so the change
  buffer crosses statement boundaries and the single version bump lands
  at session commit; writes outside the session are locked out with
  :class:`TransactionError` while that transaction is open.  A failing
  statement inside the scope unwinds through
  :meth:`_StatementTransaction.rollback` alone, so the session's earlier
  statements stay.  The engine's schema guard runs every schema-checked
  updating statement in such a scope (the caller's, or a one-statement
  scope of its own), so validation is one optional step before the
  commit and a refusal takes the same rollback;
* :meth:`pin_version` freezes the current version copy-on-write: the
  same capture hands each pre-image to every active pin
  (:class:`~repro.graph.snapshot.VersionPin`), which keeps the first
  touch since it was taken — one record per touched entity, shared by
  the segment and the pins, plus the adjacency lists a relationship
  create or delete changes, and nothing per label, type or index — and
  :class:`~repro.graph.snapshot.SnapshotGraph` answers the full read
  interface, index probes included, as the live answer corrected by
  that delta;
* a :class:`FaultInjector` installed via :meth:`install_fault_injector`
  gets a :meth:`~FaultInjector.trip` call at every mutation site —
  creates, deletes, property/label changes, index maintenance, commit
  flush — and can raise :class:`InjectedFault` at any chosen ordinal,
  which is how the crash-recovery harness proves rollback restores the
  store byte-identically from *every* interior state.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import chain, repeat
from operator import and_

from repro.exceptions import (
    ConstraintViolation,
    CypherTypeError,
    EntityNotFound,
    TransactionError,
)
from repro.graph.model import PropertyGraph
from repro.graph.reachability import ReachabilityIndex, best_covering, reachability_key
from repro.graph.snapshot import ABSENT, VersionPin
from repro.values.base import NodeId, RelId
from repro.values.base import is_cypher_value
from repro.values.ordering import canonical_key, sort_key
from repro.values.path import Path


def _id_value(identifier):
    return identifier.value


def _insort_rel(rels, rel_id):
    """Insert a relationship id into a sorted adjacency list, once.

    Rollback resurrects relationships out of creation order, so the
    append-only invariant does not hold there; a guarded insort keeps
    the lists id-sorted (and idempotent under crash-point restores).
    """
    if rel_id not in rels:
        insort(rels, rel_id, key=_id_value)


#: Shared empty set for the label-index misses in has_labels_column.
_NO_NODES = frozenset()

#: Shared empty dict for the segmented-adjacency misses in expand_batch.
_EMPTY_SEGMENTS = {}


def _is_nan(value):
    return isinstance(value, float) and value != value


def _segment_of(key):
    """``(segment, payload)`` of an index key in the sorted half, or None.

    The key's type picks the comparable scalar segment: a number (NaN is
    ``("nan",)``, in no segment) or a string is its own payload, and a
    boolean's key ``("bool", v)`` has payload ``v``.  Mapping a payload
    back is :func:`canonical_key`.
    """
    key_type = type(key)
    if key_type is int or key_type is float:
        return "num", key
    if key_type is str:
        return "str", key
    if key_type is tuple and key[0] == "bool":
        return "bool", key[1]
    return None


class _PropertyIndex:
    """One incremental composite ``(label, k1, k2, …)`` property index.

    A single-key index is the one-column case.  An *entry* exists for a
    node exactly when **every** key column is non-null (Neo4j's
    composite-index contract), and is keyed by the tuple of per-column
    :func:`~repro.values.ordering.canonical_key` forms — the keys
    DISTINCT and grouping use: an int, non-NaN float or string is its
    own key (``1`` and ``1.0`` share a bucket), a boolean is
    ``("bool", v)`` (apart from ``1``) and NaN ``("nan",)``.  The
    **hash half** maps every canonical *prefix* of an entry
    (lengths 1..depth) to its node-id set, so full-tuple equality and
    prefix-equality probes are O(bucket).  The **sorted half** is
    derived per prefix on first probe and from then on maintained in
    place by bisection: the distinct next-column values under
    a prefix, bisectable within each *comparable scalar segment* —
    numbers (NaN excluded: no range predicate is ever true of it),
    strings and booleans, picked by the key's type
    (:func:`_segment_of`) — mirroring
    :func:`~repro.values.comparison.compare`, which only orders within
    those segments.  Values outside the segments (lists, maps,
    temporals) live in the hash half only; a range probe bounded by one
    of those reports "unsupported" and the caller falls back to the
    label scan, narrowed to the nodes the range is true of.  The same
    child-tables drive :meth:`ordered_ids`, the index-provided-ordering
    enumeration behind Sort elimination.

    All mutators are state-driven per node (:meth:`update` recomputes
    the entry from the current property map), so double adds from
    defensive call sites cannot skew the entry count and a rollback
    restore converges from any intermediate state.
    """

    __slots__ = (
        "label", "keys", "_single", "_key0", "_values", "_ids_by_prefix",
        "_children", "_depth_distincts", "_sorted", "_ordered", "_segments",
    )

    def __init__(self, label, keys):
        self.label = label
        self.keys = tuple(keys)
        #: Depth-1 indexes take specialised maintenance paths below —
        #: the per-depth prefix loop costs several dict operations the
        #: single-key (and by far most frequent) shape doesn't need.
        self._single = len(self.keys) == 1
        self._key0 = self.keys[0]
        #: NodeId -> (actual value tuple, canonical tuple).  The actual
        #: values feed covering projections; the canonicals key removal.
        self._values = {}
        #: canonical prefix (len 1..depth) -> dict[NodeId, None].
        self._ids_by_prefix = {}
        #: canonical prefix (len 0..depth-1) -> {child canonical:
        #: representative actual value}.  Equal canonicals have equal
        #: sort keys, so any live representative orders the child.
        self._children = {(): {}}
        #: Distinct canonical prefixes per depth (index 0 = length 1);
        #: the last one is the full-tuple NDV the cost model reads.
        self._depth_distincts = [0] * len(self.keys)
        #: Memoised id-ordered lists per canonical prefix; add/remove on
        #: a prefix invalidates its entry.  Callers must not mutate the
        #: returned lists (the batch engine only slices them, like the
        #: label scan lists).
        self._sorted = {}
        #: Memoised sort_key-ordered children per prefix, as parallel
        #: lists ``(sort keys, child canonicals)``; once built, kept in
        #: order by bisection on the stored keys (see _child_added).
        self._ordered = {}
        #: Memoised per-prefix sorted segments: prefix ->
        #: {"num": (payloads, buckets), "str": …, "bool": …} — sorted
        #: distinct payloads and, parallel to them, their
        #: ``_ids_by_prefix`` bucket dicts, shared by reference (module
        #: docstring); maintained in place like ``_ordered``.
        self._segments = {}

    @property
    def depth(self):
        return len(self.keys)

    # -- maintenance -------------------------------------------------------

    def update(self, node_id, properties):
        """Reconcile this node's entry with its current property map.

        The single maintenance entry point: creates, property changes,
        label flips and rollback restores all land here, and because the
        old state is whatever :attr:`_values` holds, a restore from any
        partial state converges on the rebuilt index.  The depth-1
        branch is :meth:`add` inlined — this method runs once per
        indexed property per write, and the memo upkeep is guarded so a
        bulk ingest (memos all cold) pays no hashing for it.
        """
        if self._single:
            value = properties.get(self._key0)
            if value is None:
                self.discard(node_id)
                return
            canon = (canonical_key(value),)
            existing = self._values.get(node_id)
            if existing is not None:
                if existing[1] == canon:
                    self._values[node_id] = ((value,), canon)
                    return
                self.discard(node_id)
            self._values[node_id] = ((value,), canon)
            ids = self._ids_by_prefix.get(canon)
            if ids is None:
                self._ids_by_prefix[canon] = {node_id: None}
                self._depth_distincts[0] += 1
                self._children[()][canon[0]] = value
                if self._ordered or self._segments:
                    self._child_added((), canon[0], value)
            elif self._sorted:
                ids[node_id] = None
                self._sorted.pop(canon, None)
            else:
                ids[node_id] = None
            return
        values = []
        for key in self.keys:
            value = properties.get(key)
            if value is None:
                self.discard(node_id)
                return
            values.append(value)
        self.add(node_id, tuple(values))

    def update_bulk(self, pairs):
        """:meth:`update` over ``(node id, property map)`` pairs.

        Pair-for-pair identical to calling :meth:`update` in a loop;
        the depth-1 body is repeated here with every ``self`` attribute
        hoisted to a local and the int/str keys (the values themselves)
        inlined — bulk ingest is the one call site hot enough to warrant
        it.
        """
        if not self._single:
            update = self.update
            for node_id, properties in pairs:
                update(node_id, properties)
            return
        key = self._key0
        values_map = self._values
        ids_by_prefix = self._ids_by_prefix
        root = self._children[()]
        distincts = self._depth_distincts
        sorted_memo = self._sorted
        # Memo liveness is monotone within the pass: no reads run here,
        # so an empty memo stays empty and the flags can be hoisted.
        has_sorted = bool(sorted_memo)
        warm_halves = bool(self._ordered or self._segments)
        # Per-call value cache: ingests recur heavily on distinct
        # values, and for a recurring value the key tuple, the entry
        # tuple (immutable, safely shared between nodes) and the target
        # bucket are all fixed.  Only exact ints and strs enter it (no
        # int equals a str, and ``True == 1`` must not alias), and it is
        # dropped whenever a discard or per-node reconcile could delete
        # a bucket out from under it.
        cache = {}
        for node_id, properties in pairs:
            value = properties.get(key)
            if value is None:
                if node_id in values_map:
                    self.discard(node_id)
                    cache.clear()
                continue
            value_type = type(value)
            cacheable = value_type is int or value_type is str
            cached = cache.get(value) if cacheable else None
            if cached is not None:
                canon, entry, ids = cached
                prior = values_map.setdefault(node_id, entry)
                if prior is not entry:
                    values_map[node_id] = prior
                    self.update(node_id, properties)
                    cache.clear()
                    continue
                ids[node_id] = None
                if has_sorted:
                    sorted_memo.pop(canon, None)
                continue
            canon = (value,) if cacheable else (canonical_key(value),)
            entry = ((value,), canon)
            prior = values_map.setdefault(node_id, entry)
            if prior is not entry:
                # Node was already indexed (re-ingest): restore and take
                # the full per-node reconcile.
                values_map[node_id] = prior
                self.update(node_id, properties)
                cache.clear()
                continue
            ids = ids_by_prefix.get(canon)
            if ids is None:
                ids = {node_id: None}
                ids_by_prefix[canon] = ids
                distincts[0] += 1
                root[canon[0]] = value
                if warm_halves:
                    self._child_added((), canon[0], value)
            else:
                ids[node_id] = None
                if has_sorted:
                    sorted_memo.pop(canon, None)
            if cacheable:
                cache[value] = (canon, entry, ids)

    def add(self, node_id, values):
        """Insert/refresh the entry for ``values`` (all columns non-null)."""
        if self._single:
            canon = (canonical_key(values[0]),)
        else:
            canon = tuple([canonical_key(value) for value in values])
        existing = self._values.get(node_id)
        if existing is not None:
            if existing[1] == canon:
                # Same canonical entry; keep the freshest actuals for
                # covering reads (1 vs 1.0 are one canonical value).
                self._values[node_id] = (values, canon)
                return
            self.discard(node_id)
        self._values[node_id] = (values, canon)
        ids_by_prefix = self._ids_by_prefix
        children = self._children
        if self._single:
            # Depth-1 fast path: ``canon[:1] is canon``, the parent
            # prefix is always the root, and a fresh bucket can have no
            # memoised sorted list (discard drops it with the last id).
            ids = ids_by_prefix.get(canon)
            if ids is None:
                ids_by_prefix[canon] = {node_id: None}
                self._depth_distincts[0] += 1
                children[()][canon[0]] = values[0]
                if self._ordered or self._segments:
                    self._child_added((), canon[0], values[0])
            else:
                ids[node_id] = None
                if self._sorted:
                    self._sorted.pop(canon, None)
            return
        for depth in range(len(canon)):
            grown = canon[:depth + 1]
            ids = ids_by_prefix.get(grown)
            if ids is None:
                ids_by_prefix[grown] = {node_id: None}
                self._depth_distincts[depth] += 1
                prefix = canon[:depth]
                bucket = children.get(prefix)
                if bucket is None:
                    bucket = children[prefix] = {}
                bucket[canon[depth]] = values[depth]
                if self._ordered or self._segments:
                    self._child_added(prefix, canon[depth], values[depth])
            else:
                ids[node_id] = None
                if self._sorted:
                    self._sorted.pop(grown, None)

    def discard(self, node_id):
        """Drop the node's entry, whatever it currently is (idempotent)."""
        entry = self._values.pop(node_id, None)
        if entry is None:
            return
        canon = entry[1]
        ids_by_prefix = self._ids_by_prefix
        if self._single:
            ids = ids_by_prefix[canon]
            del ids[node_id]
            if self._sorted:
                self._sorted.pop(canon, None)
            if not ids:
                del ids_by_prefix[canon]
                self._depth_distincts[0] -= 1
                value = self._children[()].pop(canon[0])
                if self._ordered or self._segments:
                    self._child_removed((), canon[0], value)
            return
        for depth in range(len(canon) - 1, -1, -1):
            grown = canon[:depth + 1]
            ids = ids_by_prefix[grown]
            del ids[node_id]
            self._sorted.pop(grown, None)
            if not ids:
                del ids_by_prefix[grown]
                self._depth_distincts[depth] -= 1
                prefix = canon[:depth]
                bucket = self._children[prefix]
                value = bucket.pop(canon[depth])
                if not bucket and prefix:
                    # The prefix itself is gone; so are its memos.
                    del self._children[prefix]
                    self._ordered.pop(prefix, None)
                    self._segments.pop(prefix, None)
                elif self._ordered or self._segments:
                    self._child_removed(prefix, canon[depth], value)

    def _child_added(self, prefix, canonical, value):
        """Insert a new distinct child into ``prefix``'s warm memos.

        The sorted-half memos are maintained in place, by bisection on
        the stored keys: on a near-unique column every write adds or
        removes a distinct value, and dropping the memo would make the
        next range or ordered probe re-sort the whole column.  A cold
        memo (never built) stays cold and costs nothing.
        """
        ordered = self._ordered.get(prefix)
        if ordered is not None:
            keys, children = ordered
            key = sort_key(value)
            position = bisect_left(keys, key)
            keys.insert(position, key)
            children.insert(position, canonical)
        segments = self._segments.get(prefix)
        if segments is not None:
            found = _segment_of(canonical)
            if found is not None:
                name, payload = found
                payloads, buckets = segments[name]
                position = bisect_left(payloads, payload)
                payloads.insert(position, payload)
                buckets.insert(
                    position, self._ids_by_prefix[prefix + (canonical,)]
                )

    def _child_removed(self, prefix, canonical, value):
        """Delete a vanished child from ``prefix``'s warm memos.

        ``value`` is the representative the child was stored under;
        equal canonicals have equal sort keys, so it finds the entry.
        """
        ordered = self._ordered.get(prefix)
        if ordered is not None:
            keys, children = ordered
            position = bisect_left(keys, sort_key(value))
            del keys[position]
            del children[position]
        segments = self._segments.get(prefix)
        if segments is not None:
            found = _segment_of(canonical)
            if found is not None:
                name, payload = found
                payloads, buckets = segments[name]
                position = bisect_left(payloads, payload)
                del payloads[position]
                del buckets[position]

    # -- statistics --------------------------------------------------------

    @property
    def distinct_values(self):
        """NDV of the full key tuple."""
        return self._depth_distincts[-1]

    @property
    def entries(self):
        """Total indexed entries (nodes with every column non-null)."""
        return len(self._values)

    def prefix_ndvs(self):
        """Distinct canonical prefixes per length (1..depth)."""
        return tuple(self._depth_distincts)

    def column_distribution(self, column):
        """``{segment: [(payload, count), …] sorted}`` for one column.

        The histogram source: per distinct comparable value of
        ``column``, the number of entries carrying it (summed over all
        prefixes for deeper columns).  O(distinct prefixes of length
        column+1); built lazily by the statistics snapshot, never on the
        write path.
        """
        tallies = {}
        width = column + 1
        for prefix, ids in self._ids_by_prefix.items():
            if len(prefix) != width:
                continue
            found = _segment_of(prefix[column])
            if found is not None:
                name, payload = found
                slot = tallies.setdefault(name, {})
                slot[payload] = slot.get(payload, 0) + len(ids)
        return {
            name: sorted(counts.items()) for name, counts in tallies.items()
        }

    # -- probes ------------------------------------------------------------

    def _sorted_ids(self, prefix):
        """A prefix's id-ordered node list, memoised until it changes.

        Dead prefixes are never memoised: the maintenance fast paths
        only invalidate prefixes that exist, so caching an empty list
        here could leak a stale [] past a later re-add.
        """
        ids = self._sorted.get(prefix)
        if ids is None:
            bucket = self._ids_by_prefix.get(prefix)
            if bucket is None:
                return []
            ids = sorted(bucket, key=_id_value)
            self._sorted[prefix] = ids
        return ids

    def _canonical_prefix(self, values):
        """Canonical tuple of probe values, or None when unsatisfiable.

        A null or NaN anywhere in an equality prefix makes the whole
        conjunction never-true (``=`` holds of neither).
        """
        canon = []
        for value in values:
            if value is None or _is_nan(value):
                return None
            canon.append(canonical_key(value))
        return tuple(canon)

    def probe(self, values):
        """Equality-prefix probe: id-ordered candidates, possibly memoised.

        ``values`` covers the first ``len(values)`` columns; a
        full-depth tuple is the hash-half point lookup.  Exact for
        scalars; list/map probes over-approximate (``equals`` is unknown
        with nested nulls) and the residual check decides.  Do not
        mutate the result.
        """
        canon = self._canonical_prefix(values)
        if canon is None or canon not in self._ids_by_prefix:
            return []
        return self._sorted_ids(canon)

    def lookup_many(self, values):
        """The union of first-column :meth:`probe` over ``values``."""
        merged = {}
        ids_by_prefix = self._ids_by_prefix
        for value in values:
            if value is None or _is_nan(value):
                continue
            ids = ids_by_prefix.get((canonical_key(value),))
            if ids:
                merged.update(ids)
        return sorted(merged, key=_id_value)

    def _segment(self, prefix, segment_name):
        """One segment under ``prefix``: its sorted distinct payloads
        and, position for position, the id bucket of each."""
        segments = self._segments.get(prefix)
        if segments is None:
            bucket = self._children.get(prefix)
            if bucket is None:
                return [], []  # dead prefix: never memoised (see _sorted_ids)
            members = {"num": [], "str": [], "bool": []}
            for key in bucket:
                found = _segment_of(key)
                if found is not None:
                    members[found[0]].append((found[1], key))
            ids_by_prefix = self._ids_by_prefix
            segments = {}
            for name, pairs in members.items():
                pairs.sort()  # distinct payloads: keys never compared
                segments[name] = (
                    [payload for payload, _key in pairs],
                    [ids_by_prefix[prefix + (key,)] for _p, key in pairs],
                )
            # Published whole: a concurrent reader never sees it partial.
            self._segments[prefix] = segments
        return segments[segment_name]

    def range_ids(
        self, low, low_inclusive, high, high_inclusive, prefix_values=(),
    ):
        """Node ids matching prefix-equality + range, in index order.

        The range applies to the column after the equality prefix;
        enumeration is (column value, then node id) with deeper columns
        unconstrained.  Bounds follow
        :func:`~repro.values.comparison.compare`: a bound outside the
        comparable scalar segments returns ``None`` ("unsupported — scan
        the label instead"); a NaN bound, bounds from two different
        segments, or a never-true equality prefix return the empty list.
        At least one bound must be given.
        """
        prefix = self._canonical_prefix(prefix_values)
        if prefix is None:
            return []
        bound = low if low is not None else high
        segment_name = self._segment_for(bound)
        if segment_name is None:
            return None if not _is_nan(bound) else []
        if low is not None and high is not None:
            if self._segment_for(high) != segment_name:
                # The two bounds admit disjoint value types: no value can
                # satisfy both comparisons, whatever the other bound is.
                return []
        values, buckets = self._segment(prefix, segment_name)
        start = 0
        stop = len(values)
        if low is not None:
            start = (
                bisect_left(values, low)
                if low_inclusive
                else bisect_right(values, low)
            )
        if high is not None:
            stop = (
                bisect_right(values, high)
                if high_inclusive
                else bisect_left(values, high)
            )
        buckets = buckets[start:stop]
        if sum(map(len, buckets)) == len(buckets):
            # One id per value: value order is the whole order.
            return list(chain.from_iterable(buckets))
        return self._gather(prefix, segment_name, values[start:stop])

    def prefix_ids(self, prefix, prefix_values=()):
        """Node ids whose next column starts with ``prefix``, in order.

        Exact: ``STARTS WITH`` is only true of strings, and strings
        sharing a prefix are contiguous in the sorted segment.  A
        non-string prefix matches nothing.
        """
        if not isinstance(prefix, str):
            return []
        equality = self._canonical_prefix(prefix_values)
        if equality is None:
            return []
        values, _buckets = self._segment(equality, "str")
        start = bisect_left(values, prefix)
        matching = []
        for position in range(start, len(values)):
            if not values[position].startswith(prefix):
                break
            matching.append(values[position])
        return self._gather(equality, "str", matching)

    def _segment_for(self, value):
        """The sorted-half segment a range bound selects, or None."""
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, (int, float)):
            return None if _is_nan(value) else "num"
        if isinstance(value, str):
            return "str"
        return None

    def _gather(self, prefix, segment_name, values):
        if segment_name == "bool":
            values = map(canonical_key, values)  # others are their own keys
        out = []
        for value in values:
            grown = prefix + (value,)
            if grown in self._ids_by_prefix:
                out.extend(self._sorted_ids(grown))
        return out

    # -- ordered enumeration (index-provided ORDER BY) ---------------------

    def _ordered_children(self, prefix):
        """Child canonicals under ``prefix`` in global sort order."""
        ordered = self._ordered.get(prefix)
        if ordered is None:
            bucket = self._children.get(prefix)
            if bucket is None:
                return []  # dead prefix: never memoised (see _sorted_ids)
            pairs = sorted(
                (sort_key(value), canonical)
                for canonical, value in bucket.items()
            )
            ordered = self._ordered[prefix] = (
                [key for key, _canonical in pairs],
                [canonical for _key, canonical in pairs],
            )
        return ordered[1]

    def ordered_ids(
        self, prefix_values, directions,
        low=None, low_inclusive=True, high=None, high_inclusive=True,
        starts_with=None,
    ):
        """Entries under an equality prefix in ORDER BY order, lazily.

        ``directions`` gives the ascending flag per ordered column
        (starting right after the equality prefix); optional bounds or a
        string prefix constrain the *first* ordered column, mirroring
        :meth:`range_ids` / :meth:`prefix_ids`.  Enumeration descends
        exactly ``len(directions)`` columns and then yields each group's
        ids ascending — the same tie order a stable Sort over an
        id-ordered scan produces — so deleting the Sort is invisible.
        Lazy so a downstream LIMIT stops the walk early.
        """
        prefix = self._canonical_prefix(prefix_values)
        if prefix is None:
            return

        def emit(prefix, remaining):
            if not remaining:
                yield from self._sorted_ids(prefix)
                return
            children = self._ordered_children(prefix)
            if not remaining[0]:
                children = reversed(children)
            rest = remaining[1:]
            for child in children:
                yield from emit(prefix + (child,), rest)

        directions = tuple(directions)
        if low is None and high is None and starts_with is None:
            yield from emit(prefix, directions)
            return
        if starts_with is not None:
            payloads = []
            if isinstance(starts_with, str):
                candidates, _buckets = self._segment(prefix, "str")
                start = bisect_left(candidates, starts_with)
                for position in range(start, len(candidates)):
                    if not candidates[position].startswith(starts_with):
                        break
                    payloads.append(candidates[position])
            segment_name = "str"
        else:
            bound = low if low is not None else high
            segment_name = self._segment_for(bound)
            if segment_name is None:
                return  # plan-time gate keeps unsupported bounds out
            if (
                low is not None and high is not None
                and self._segment_for(high) != segment_name
            ):
                return
            candidates, _buckets = self._segment(prefix, segment_name)
            start = 0
            stop = len(candidates)
            if low is not None:
                start = (
                    bisect_left(candidates, low)
                    if low_inclusive
                    else bisect_right(candidates, low)
                )
            if high is not None:
                stop = (
                    bisect_right(candidates, high)
                    if high_inclusive
                    else bisect_left(candidates, high)
                )
            payloads = candidates[start:stop]
        if not directions[0]:
            payloads = reversed(payloads)
        rest = directions[1:]
        for payload in payloads:
            grown = prefix + (canonical_key(payload),)
            if grown in self._ids_by_prefix:
                yield from emit(grown, rest)

    # -- covering ----------------------------------------------------------

    def entry_values(self, node_id):
        """The node's stored column values, or None (covering reads)."""
        entry = self._values.get(node_id)
        return entry[0] if entry is not None else None

    def snapshot(self):
        """Canonical content view for maintenance-vs-rebuild checks."""
        grouped = {}
        for node_id, (_values, canon) in self._values.items():
            grouped.setdefault(canon, []).append(node_id.value)
        return {
            canon: tuple(sorted(ids)) for canon, ids in grouped.items()
        }

    def __repr__(self):
        return "_PropertyIndex(:%s(%s), ndv=%d, entries=%d)" % (
            self.label, ",".join(self.keys),
            self.distinct_values, len(self._values),
        )


class InjectedFault(Exception):
    """Raised by an armed :class:`FaultInjector` at a mutation site.

    Deliberately *not* a CypherError: an injected crash models an
    infrastructure failure, so it must not be absorbed by the public
    catch-all at the API boundary (or the CLI's one-line handler).
    """


class FaultInjector:
    """Deterministic crash-point driver over the store's mutation sites.

    The store calls :meth:`trip` (via ``graph._fault``) at the start of
    every raw mutator, inside every index-maintenance hook, and at
    commit flush.  Pass 1 runs with ``arm_at=None`` and just counts the
    sites a workload hits; pass 2 re-runs with ``arm_at=k`` and the
    k-th hit (1-based, in execution order) raises :class:`InjectedFault`
    exactly once.  ``counts`` keeps per-site totals so harnesses can
    report which kinds of sites a corpus exercises.
    """

    __slots__ = ("arm_at", "total", "counts", "fired")

    def __init__(self, arm_at=None):
        self.arm_at = arm_at
        self.total = 0
        self.counts = {}
        self.fired = None  # (site, ordinal) once the armed hit raised

    def trip(self, site):
        self.total += 1
        self.counts[site] = self.counts.get(site, 0) + 1
        if (
            self.arm_at is not None
            and self.total == self.arm_at
            and self.fired is None
        ):
            self.fired = (site, self.total)
            raise InjectedFault(
                "injected crash at mutation site %r (hit #%d)"
                % (site, self.total)
            )


class MemoryGraph(PropertyGraph):
    """A mutable property graph with O(1) id lookups and adjacency lists."""

    #: The batch engine's capability flag: this store implements the bulk
    #: column APIs (all_node_ids / label_scan_ids / node_property_column /
    #: expand_batch / has_labels_column).  Graph views lacking them keep
    #: row-wise execution.
    supports_bulk_scans = True

    def __init__(self):
        self._version = 0  # bumped on every mutation; invalidates cached statistics
        self._schema_version = 0  # bumped when the set of indexes may have changed
        self._next_node_id = 1
        self._next_rel_id = 1
        self._node_labels = {}        # NodeId -> set[str]
        self._node_properties = {}    # NodeId -> dict[str, value]
        self._rel_endpoints = {}      # RelId -> (NodeId src, NodeId tgt)
        self._rel_types = {}          # RelId -> str
        self._rel_properties = {}     # RelId -> dict[str, value]
        self._outgoing = {}           # NodeId -> list[RelId]
        self._incoming = {}           # NodeId -> list[RelId]
        self._outgoing_by_type = {}   # NodeId -> {str: list[RelId]}
        self._incoming_by_type = {}   # NodeId -> {str: list[RelId]}
        self._label_index = {}        # str -> set[NodeId]
        self._type_index = {}         # str -> set[RelId]
        self._scan_cache = {}         # ("label"|"type", name) -> (version, sorted list)
        self._column_cache = {}       # (label, key) -> (label scan list, its ι column)
        self._indexes_by_label = {}   # str -> {str key: _PropertyIndex}
        self._reachability_indexes = {}  # frozenset[str]|None -> ReachabilityIndex
        # Transactional robustness layer (all dormant by default):
        self._pins = []               # active VersionPins (copy-on-write)
        # Pin counters (see pin_info): plain integers, nothing timed.
        self._pins_taken = 0
        self._pins_refused = 0
        self._released_preimages = {
            "node": 0, "relationship": 0, "adjacency": 0,
        }
        self._largest_released_delta = 0
        self._undo = None  # open statement's segment (id -> pre-image)
        self._active_transaction = None  # session-spanning StoreTransaction
        self._transaction_owner = None   # the session owning it
        self._session_scope = None       # session currently executing a statement
        self._fault_injector = None      # FaultInjector or None

    # ------------------------------------------------------------------
    # PropertyGraph read interface
    # ------------------------------------------------------------------

    def nodes(self):
        return iter(list(self._node_labels.keys()))

    def relationships(self):
        return iter(list(self._rel_endpoints.keys()))

    def src(self, rel_id):
        return self._endpoints(rel_id)[0]

    def tgt(self, rel_id):
        return self._endpoints(rel_id)[1]

    def property_value(self, entity_id, key):
        return self._property_map(entity_id).get(key)

    def properties(self, entity_id):
        return dict(self._property_map(entity_id))

    def labels(self, node_id):
        try:
            return frozenset(self._node_labels[node_id])
        except KeyError:
            raise EntityNotFound("no node %r in graph" % (node_id,))

    def has_label(self, node_id, label):
        """``label ∈ λ(n)`` without materialising the label set."""
        labels = self._node_labels.get(node_id)
        if labels is None:
            raise EntityNotFound("no node %r in graph" % (node_id,))
        return label in labels

    def node_property(self, node_id, key):
        """``ι(node, key)`` on the O(1) node-property path (hot scans)."""
        try:
            return self._node_properties[node_id].get(key)
        except KeyError:
            raise EntityNotFound("no node %r in graph" % (node_id,))

    def rel_type(self, rel_id):
        try:
            return self._rel_types[rel_id]
        except KeyError:
            raise EntityNotFound("no relationship %r in graph" % (rel_id,))

    def has_node(self, node_id):
        return node_id in self._node_labels

    def has_relationship(self, rel_id):
        return rel_id in self._rel_endpoints

    def nodes_with_label(self, label):
        return iter(self._cached_scan("label", label))

    def outgoing(self, node_id, types=None):
        if types is None:
            return iter(self._outgoing.get(node_id, ()))
        return self._typed_adjacency(self._outgoing_by_type, node_id, types)

    def incoming(self, node_id, types=None):
        if types is None:
            return iter(self._incoming.get(node_id, ()))
        return self._typed_adjacency(self._incoming_by_type, node_id, types)

    def relationships_with_type(self, rel_type):
        return iter(self._cached_scan("type", rel_type))

    def node_count(self):
        return len(self._node_labels)

    def relationship_count(self):
        return len(self._rel_endpoints)

    def degree(self, node_id, direction="both", rel_type=None):
        """Number of incident relationships — O(1) from segment lengths."""
        if rel_type is None:
            out = len(self._outgoing.get(node_id, ()))
            inc = len(self._incoming.get(node_id, ()))
        else:
            out = len(
                self._outgoing_by_type.get(node_id, {}).get(rel_type, ())
            )
            inc = len(
                self._incoming_by_type.get(node_id, {}).get(rel_type, ())
            )
        if direction == "out":
            return out
        if direction == "in":
            return inc
        return out + inc

    # -- bulk column access (the batch engine's scan/expand substrate) -------

    def all_node_ids(self):
        """Every node id as a fresh list the caller may slice and keep."""
        return list(self._node_labels)

    def label_scan_ids(self, label):
        """The memoised sorted scan list for ``label`` — do not mutate.

        Same list :meth:`nodes_with_label` iterates; handed out directly
        so a batched scan can slice morsels without re-materialising.
        """
        return self._cached_scan("label", label)

    def has_label_nodes(self, label):
        """``bool(label_scan_ids(label))`` without building the scan list.

        The probe scans ask this once per driving row; going through the
        version-keyed scan cache would re-sort the whole label after
        every commit just to learn it is non-empty.
        """
        return bool(self._label_index.get(label))

    def label_count(self, label):
        """Number of nodes carrying ``label`` — O(1)."""
        return len(self._label_index.get(label, ()))

    def type_count(self, rel_type):
        """Number of relationships of ``rel_type`` — O(1)."""
        return len(self._type_index.get(rel_type, ()))

    def node_property_column(self, node_ids, key):
        """``[ι(n, key) for n in node_ids]`` off the internal dicts.

        One bulk call instead of one :meth:`node_property` dispatch per
        row.  Raises ``KeyError`` if an id is not a current node (the
        vectorised compiler catches that and falls back to the
        per-element path with full mixed-type semantics).
        """
        properties = self._node_properties
        return [properties[node].get(key) for node in node_ids]

    def label_property_column(self, label, key, ids):
        """``[ι(n, key) for n in label_scan_ids(label)]``, memoised — or None.

        Vouched for only while ``ids`` *is* the current memoised scan
        list, the column is as long as it (creates append in place) and
        no node property was written since.  Do not mutate the result.
        """
        scan = self._scan_cache.get(("label", label))
        if scan is None or scan[1] is not ids or scan[0] != self._version:
            return None
        entry = self._column_cache.get((label, key))
        if entry is None or entry[0] is not ids or len(entry[1]) != len(ids):
            properties = self._node_properties
            entry = (ids, [properties[node].get(key) for node in ids])
            self._column_cache[label, key] = entry
        return entry[1]

    def has_labels_column(self, node_ids, labels):
        """``[set(labels) ⊆ λ(n) for n in node_ids]`` off the label index.

        The batch Expand's label-only target check: one membership pass
        per label, in C.  ``node_ids`` are current nodes (the neighbours
        :meth:`expand_batch` just returned); anything else reads False.
        """
        mask = None
        for label in labels:
            column = map(
                self._label_index.get(label, _NO_NODES).__contains__, node_ids
            )
            mask = column if mask is None else map(and_, mask, column)
        return list(mask) if mask is not None else [True] * len(node_ids)

    def expand_batch(self, sources, direction, types=None):
        """Adjacency of a whole source column, as parallel columns.

        Returns ``(origins, rels, targets)``: for every relationship
        step from ``sources[i]`` one entry each — the origin row index
        ``i``, the relationship id, and the neighbour reached.  Sources
        that are not current node ids contribute nothing (mirroring the
        row-wise Expand's ``isinstance`` guard).  Enumeration order per
        source matches the per-row accessors exactly: relationship-id
        order within a direction, outgoing before incoming for
        ``"both"`` (self-loops once).
        """
        origins, rels, targets = [], [], []
        endpoints = self._rel_endpoints
        node_labels = self._node_labels
        if direction == "both":
            touching = self.touching
            for index, node in enumerate(sources):
                if not isinstance(node, NodeId) or node not in node_labels:
                    continue
                for rel in touching(node, types):
                    source_end, target_end = endpoints[rel]
                    origins.append(index)
                    rels.append(rel)
                    targets.append(
                        target_end if source_end == node else source_end
                    )
            return origins, rels, targets
        if direction == "out":
            plain, segmented, end = self._outgoing, self._outgoing_by_type, 1
        else:
            plain, segmented, end = self._incoming, self._incoming_by_type, 0
        single = None
        if types is not None and len(types) == 1:
            (single,) = types
            # One type, one direction: two dict reads per source, then C
            # iterators.  A value that is not a current node finds no
            # key (the guard's verdict); an unhashable one (a list, a
            # map) raises and takes the guarded loop below.
            try:
                segments = [
                    segmented.get(node, _EMPTY_SEGMENTS).get(single, ())
                    for node in sources
                ]
            except TypeError:
                pass
            else:
                rels = list(chain.from_iterable(segments))
                count = len(segments)
                if len(rels) == count and all(segments):
                    origins = list(range(count))  # one step per source
                else:
                    origins = list(chain.from_iterable(
                        map(repeat, range(count), map(len, segments))
                    ))
                return origins, rels, [endpoints[rel][end] for rel in rels]
        for index, node in enumerate(sources):
            if not isinstance(node, NodeId) or node not in node_labels:
                continue
            if types is None:
                steps = plain.get(node, ())
            elif single is not None:
                steps = segmented.get(node, _EMPTY_SEGMENTS).get(single, ())
            else:
                steps = self._typed_adjacency(segmented, node, types)
            for rel in steps:
                origins.append(index)
                rels.append(rel)
                targets.append(endpoints[rel][end])
        return origins, rels, targets

    def all_labels(self):
        return sorted(self._label_index.keys())

    def all_types(self):
        return sorted(self._type_index.keys())

    def label_cardinalities(self):
        """``{label: |nodes|}`` straight off the inverted index."""
        return {
            label: len(nodes) for label, nodes in self._label_index.items()
        }

    def type_cardinalities(self):
        """``{type: |relationships|}`` straight off the inverted index."""
        return {t: len(rels) for t, rels in self._type_index.items()}

    # ------------------------------------------------------------------
    # Property indexes
    # ------------------------------------------------------------------

    @staticmethod
    def _index_key_tuple(keys):
        """Normalise a key spec — one string or a key sequence — to a tuple."""
        if isinstance(keys, str):
            return (keys,)
        return tuple(keys)

    @staticmethod
    def _public_index_key(keys):
        """Render a key tuple for the public surface.

        Single-key indexes keep reading as the plain string they always
        were (``("L", "v")`` pairs everywhere); composites surface the
        tuple.
        """
        return keys[0] if len(keys) == 1 else keys

    def create_index(self, label, *keys):
        """Declare a ``(label, k1, k2, …)`` index; returns True if new.

        Accepts the composite columns as varargs or as one sequence
        (``create_index("L", "a", "b")`` ≡ ``create_index("L",
        ("a", "b"))``), so the long-standing two-argument single-key
        call sites keep working unchanged.  The initial build scans the
        label's inverted index once; from then on every mutation
        maintains the entries incrementally (the raw mutators below), so
        an index is never rebuilt on write.  Creating an index bumps the
        schema epoch (:attr:`schema_version`), which is what makes the
        engine re-plan cached statements against the new access path,
        and the data version, which statistics snapshots key on.
        """
        if not isinstance(label, str) or not label:
            raise ValueError("index label must be a non-empty string")
        if len(keys) == 1 and isinstance(keys[0], (list, tuple)):
            keys = tuple(keys[0])
        if not keys:
            raise ValueError("a property index needs at least one key")
        for key in keys:
            if not isinstance(key, str) or not key:
                raise ValueError(
                    "index property key must be a non-empty string"
                )
        if len(set(keys)) != len(keys):
            raise ValueError("index property keys must be distinct")
        if keys in self._indexes_by_label.get(label, _EMPTY_SEGMENTS):
            return False
        index = _PropertyIndex(label, keys)
        properties = self._node_properties
        for node in self._label_index.get(label, ()):
            index.update(node, properties[node])
        self._indexes_by_label.setdefault(label, {})[keys] = index
        self._version += 1
        self._schema_version += 1
        return True

    def drop_index(self, label, keys):
        """Remove a property index; returns True if one existed."""
        indexes = self._indexes_by_label.get(label)
        key_tuple = self._index_key_tuple(keys)
        if not indexes or key_tuple not in indexes:
            return False
        del indexes[key_tuple]
        if not indexes:
            del self._indexes_by_label[label]
        self._version += 1
        self._schema_version += 1
        return True

    def has_index(self, label, keys):
        return self._index_key_tuple(keys) in self._indexes_by_label.get(
            label, _EMPTY_SEGMENTS
        )

    def _index(self, label, keys):
        return self._indexes_by_label[label][self._index_key_tuple(keys)]

    def indexes(self):
        """All declared ``(label, keys)`` pairs, sorted.

        The second component is the plain key string for single-key
        indexes and the key tuple for composites.
        """
        ordered = sorted(
            (label, keys)
            for label, keyed in self._indexes_by_label.items()
            for keys in keyed
        )
        return [
            (label, self._public_index_key(keys)) for label, keys in ordered
        ]

    def index_statistics(self):
        """``{(label, keys): (ndv, entries)}`` for the cost model.

        NDV counts distinct full key tuples; use
        :meth:`index_prefix_ndvs` for the per-prefix counts behind
        composite selectivity.
        """
        return {
            (index.label, self._public_index_key(index.keys)): (
                index.distinct_values, index.entries,
            )
            for _label, keyed in self._indexes_by_label.items()
            for index in keyed.values()
        }

    def index_prefix_ndvs(self, label, keys):
        """Distinct canonical prefixes per prefix length (1..depth)."""
        return self._index(label, keys).prefix_ndvs()

    def index_column_distribution(self, label, keys, column):
        """Per-segment ``[(value, entry count), …]`` for one column.

        The raw material for equi-depth histograms; computed on demand
        from the prefix tables, never maintained on the write path.
        """
        return self._index(label, keys).column_distribution(column)

    def index_lookup(self, label, key, value):
        """Equality probe on a single-key index: ``index_probe`` of one
        value."""
        return self._index(label, key).probe((value,))

    def index_lookup_many(self, label, key, values):
        """``IN`` probe over a value list: deduplicated, id-ordered."""
        return self._index(label, key).lookup_many(values)

    def index_probe(self, label, keys, values):
        """Equality-prefix probe: candidates, id-ordered (see class doc)."""
        return self._index(label, keys).probe(tuple(values))

    def index_seek_range(
        self, label, keys, prefix_values,
        low, low_inclusive, high, high_inclusive, starts_with=None,
    ):
        """Equality-prefix + range/STARTS WITH seek, in index order.

        The bound column sits after ``prefix_values`` (``()`` on a
        single-key index).  Exact; ``None`` means "bounds unsupported —
        scan the label", which is also the answer when neither a bound
        nor ``starts_with`` is given (a null ``STARTS WITH`` operand is
        the caller's to answer).
        """
        index = self._index(label, keys)
        if starts_with is not None:
            return index.prefix_ids(starts_with, tuple(prefix_values))
        return index.range_ids(
            low, low_inclusive, high, high_inclusive, tuple(prefix_values)
        )

    def index_ordered(
        self, label, keys, prefix_values, directions,
        low=None, low_inclusive=True, high=None, high_inclusive=True,
        starts_with=None,
    ):
        """Lazy ORDER BY enumeration over an index (see ``ordered_ids``)."""
        return self._index(label, keys).ordered_ids(
            tuple(prefix_values), directions,
            low, low_inclusive, high, high_inclusive, starts_with,
        )

    def index_cover_getter(self, label, keys):
        """``node_id -> stored column values`` reader for covering scans."""
        return self._index(label, keys).entry_values

    def index_snapshot(self, label, keys):
        """Canonical content of one index (maintenance-vs-rebuild tests)."""
        return self._index(label, keys).snapshot()

    # -- incremental maintenance (called from the raw mutators) -------------

    def _indexes_for(self, label):
        return self._indexes_by_label.get(label, _EMPTY_SEGMENTS)

    def _index_node_created(self, node_id, labels, properties):
        self._fault("index_add")
        for label in labels:
            for index in self._indexes_for(label).values():
                index.update(node_id, properties)

    def _index_node_deleted(self, node_id, labels, properties):
        self._fault("index_remove")
        for label in labels:
            for index in self._indexes_for(label).values():
                index.discard(node_id)

    def _index_property_changed(self, node_id, key, old, new):
        if old is None and new is None:
            return
        self._fault("index_update")
        properties = self._node_properties[node_id]
        for label in self._node_labels[node_id]:
            for index in self._indexes_for(label).values():
                if key in index.keys:
                    index.update(node_id, properties)

    def _index_label_added(self, node_id, label):
        indexes = self._indexes_for(label)
        if not indexes:
            return
        self._fault("index_add")
        properties = self._node_properties[node_id]
        for index in indexes.values():
            index.update(node_id, properties)

    def _index_label_removed(self, node_id, label):
        indexes = self._indexes_for(label)
        if not indexes:
            return
        self._fault("index_remove")
        for index in indexes.values():
            index.discard(node_id)

    # ------------------------------------------------------------------
    # Reachability indexes (see :mod:`repro.graph.reachability`)
    # ------------------------------------------------------------------

    def create_reachability_index(self, types=None):
        """Declare a reachability index over a relationship-type set.

        ``types`` is an iterable of type names, or None for the
        all-types index.  The initial build runs one global Tarjan over
        the matching relationships; from then on the raw relationship
        mutators maintain the condensation incrementally — the index is
        never rebuilt on write.  Bumps the schema epoch (cached plans
        are re-planned, so traversals the index can serve start probing
        it) and the data version; returns True if new.
        """
        key = reachability_key(types)
        if key is not None and not all(
            isinstance(t, str) and t for t in key
        ):
            raise ValueError("reachability types must be non-empty strings")
        if key in self._reachability_indexes:
            return False
        index = ReachabilityIndex(key)
        rel_types = self._rel_types
        index.build(
            (rel_id, source, target)
            for rel_id, (source, target) in self._rel_endpoints.items()
            if index.covers(rel_types[rel_id])
        )
        self._reachability_indexes[key] = index
        self._version += 1
        self._schema_version += 1
        return True

    def drop_reachability_index(self, types=None):
        """Remove a reachability index; returns True if one existed."""
        key = reachability_key(types)
        if key not in self._reachability_indexes:
            return False
        del self._reachability_indexes[key]
        self._version += 1
        self._schema_version += 1
        return True

    def has_reachability_index(self, types=None):
        return reachability_key(types) in self._reachability_indexes

    def reachability_indexes(self):
        """All declared type sets, sorted; None means the all-types index."""
        return sorted(
            (
                None if key is None else tuple(sorted(key))
                for key in self._reachability_indexes
            ),
            key=lambda entry: ((), ) if entry is None else ((1,), entry),
        )

    def reachability_statistics(self):
        """``{types tuple|None: {...size facts...}}`` for the cost model."""
        return {
            None if key is None else tuple(sorted(key)): index.statistics()
            for key, index in self._reachability_indexes.items()
        }

    def reachability_index_for(self, types=None):
        """The best declared index covering a traversal's type set.

        Preference: exact match, then the smallest declared superset,
        then the all-types index (all are sound — a superset index only
        over-approximates, and the probe's walk is the residual check).
        Returns None when nothing covers the requested types.
        """
        if not self._reachability_indexes:
            return None
        chosen = best_covering(
            reachability_key(types), self._reachability_indexes
        )
        if chosen is best_covering.MISS:
            return None
        return self._reachability_indexes[chosen]

    def reachability_snapshot(self, types=None):
        """Canonical content of one index (maintenance-vs-rebuild tests)."""
        return self._reachability_indexes[reachability_key(types)].snapshot()

    # -- incremental maintenance (called from the raw rel mutators) ----------

    def _reachability_rel_created(self, rel_id, source, target, rel_type):
        self._fault("reachability_add")
        for index in self._reachability_indexes.values():
            if index.covers(rel_type):
                index.add_edge(rel_id, source, target)

    def _reachability_rel_deleted(self, rel_id, rel_type):
        self._fault("reachability_remove")
        for index in self._reachability_indexes.values():
            if index.covers(rel_type):
                index.remove_edge(rel_id)

    # ------------------------------------------------------------------
    # Mutation
    #
    # Every public mutator is "bump the version, then apply" — the
    # unversioned ``_raw`` halves are shared with :class:`StoreTransaction`,
    # which batches the bump into a single commit.
    # ------------------------------------------------------------------

    def write_transaction(self):
        """The statement-level entry point to the mutation kernel.

        Outside a session scope this is one :class:`StoreTransaction`
        per statement, recording pre-images so the statement can roll
        back.
        Inside a session scope, all statements share one spanning
        transaction and receive :class:`_StatementTransaction` facades
        over it; while that transaction is open, writes outside the
        session are refused.  Either way the opener commits the
        statement on success and rolls it back on any exception.
        """
        scope = self._session_scope
        if scope is not None:
            return _StatementTransaction(self._session_transaction(scope))
        if self._active_transaction is not None:
            raise TransactionError(
                "a session transaction is open on this graph; commit or "
                "roll it back before writing outside the session"
            )
        return StoreTransaction(self)

    def _session_transaction(self, owner):
        """The session's spanning transaction, opened on first write."""
        transaction = self._active_transaction
        if transaction is None:
            transaction = StoreTransaction(self)
            self._active_transaction = transaction
            self._transaction_owner = owner
        elif self._transaction_owner is not owner:
            raise TransactionError(
                "another session holds this graph's write transaction"
            )
        return transaction

    # -- session scopes (set around each statement a session executes) ------

    def enter_session_scope(self, owner):
        if self._session_scope is not None:
            raise TransactionError("nested session scopes are not supported")
        if (
            self._active_transaction is not None
            and self._transaction_owner is not owner
        ):
            raise TransactionError(
                "another session holds this graph's write transaction"
            )
        self._session_scope = owner

    def exit_session_scope(self):
        self._session_scope = None

    @property
    def in_session_scope(self):
        """True while some owner's statement runs in a session scope."""
        return self._session_scope is not None

    def active_session_transaction(self, owner):
        """The spanning transaction ``owner`` opened, if any."""
        if (
            self._active_transaction is not None
            and self._transaction_owner is owner
        ):
            return self._active_transaction
        return None

    # -- version pins (copy-on-write snapshot substrate) --------------------

    def pin_version(self):
        """Freeze the current version for snapshot readers.

        Cheap: the pin starts empty and fills with pre-images as later
        mutations touch entities (see :class:`VersionPin`).  Pinning
        mid-way through an uncommitted session transaction is refused —
        a snapshot must correspond to a *committed* version.
        """
        transaction = self._active_transaction
        if transaction is not None and transaction.changed:
            self._pins_refused += 1
            raise TransactionError(
                "cannot pin a snapshot while uncommitted session changes "
                "exist; commit or roll back first"
            )
        pin = VersionPin(self)
        self._pins.append(pin)
        self._pins_taken += 1
        return pin

    def release_pin(self, pin):
        """Drop one reference; the pin unregisters at zero."""
        pin.refs -= 1
        if pin.refs == 0:
            self._pins.remove(pin)
            held = pin.preimages()
            for kind, count in held.items():
                self._released_preimages[kind] += count
            self._largest_released_delta = max(
                self._largest_released_delta, sum(held.values())
            )

    def pin_info(self):
        """Pin counters: how often pins were taken or refused, and what
        copy-on-write preserved for them.

        ``preimages`` counts the pre-images preserved by kind over every
        pin so far (released and live); ``largest_delta`` is the most
        pre-images any one pin held when it was released.
        """
        preserved = dict(self._released_preimages)
        for pin in self._pins:
            for kind, count in pin.preimages().items():
                preserved[kind] += count
        return {
            "taken": self._pins_taken,
            "refused": self._pins_refused,
            "live": len(self._pins),
            "preimages": preserved,
            "largest_delta": self._largest_released_delta,
        }

    # -- the change record (record before mutate) ----------------------------

    def _preimage(self, entity_id):
        """An entity's state in the form a pin holds, or ``ABSENT``."""
        if type(entity_id) is NodeId:
            labels = self._node_labels.get(entity_id)
            if labels is None:
                return ABSENT
            return set(labels), dict(self._node_properties[entity_id])
        endpoints = self._rel_endpoints.get(entity_id)
        if endpoints is None:
            return ABSENT
        properties = dict(self._rel_properties[entity_id])
        return (*endpoints, self._rel_types[entity_id], properties)

    def _touch(self, entity_id, ends=()):
        """Record before mutate: capture an entity's pre-image once.

        The open statement's segment keeps the first touch per
        statement, and each live pin the first touch since it was taken;
        both hold the *same* object, so nothing may mutate a recorded
        pre-image.  ``ends`` names the nodes whose adjacency lists a
        relationship create or delete changes: only pins preserve those.
        Returns at once when there is neither a segment nor a live pin.
        """
        segment = self._undo
        if segment is not None and entity_id not in segment:
            before = segment[entity_id] = self._preimage(entity_id)
        elif self._pins:
            before = None  # captured below, for a pin that lacks it
        else:
            return
        for pin in self._pins:
            delta = pin.nodes if type(entity_id) is NodeId else pin.rels
            if entity_id not in delta:
                if before is None:
                    before = self._preimage(entity_id)
                delta[entity_id] = before
            for node_id in ends:
                pin.preserve_adjacency(self, node_id)

    # -- fault injection -----------------------------------------------------

    def install_fault_injector(self, injector):
        """Install (or with None, remove) the injector; returns the old."""
        previous = self._fault_injector
        self._fault_injector = injector
        return previous

    def _fault(self, site):
        injector = self._fault_injector
        if injector is not None:
            injector.trip(site)

    # -- rollback (restores pre-images, newest first) ------------------------

    def _restore(self, entity_id, before):
        """Put one entity back to its recorded pre-image.

        Absolute, so idempotent from any crash point: whatever the
        forward mutation half-applied, the entity ends as recorded.  A
        gone entity is first resurrected bare.  A live pin may share
        ``before``, so the store only copies out of it.
        """
        if type(entity_id) is NodeId:
            present = entity_id in self._node_labels
            if before is ABSENT:
                if present:
                    self._delete_node_raw(entity_id, detach=True)
                return
            labels, properties = before
            if not present:
                self._node_labels[entity_id] = set()
                self._node_properties[entity_id] = {}
            current = self._node_labels[entity_id]
            for label in current - labels:
                self._remove_label_raw(entity_id, label)
            for label in labels - current:
                self._add_label_raw(entity_id, label)
            self._restore_properties(entity_id, properties)
            return
        present = entity_id in self._rel_endpoints
        if before is ABSENT:
            if present:
                self._delete_relationship_raw(entity_id)
            return
        source, target, rel_type, properties = before
        if not present:
            self._rel_endpoints[entity_id] = (source, target)
            self._rel_types[entity_id] = rel_type
            self._rel_properties[entity_id] = {}
            _insort_rel(self._outgoing.setdefault(source, []), entity_id)
            _insort_rel(self._incoming.setdefault(target, []), entity_id)
            by_type = self._outgoing_by_type.setdefault(source, {})
            _insort_rel(by_type.setdefault(rel_type, []), entity_id)
            by_type = self._incoming_by_type.setdefault(target, {})
            _insort_rel(by_type.setdefault(rel_type, []), entity_id)
            self._type_index.setdefault(rel_type, set()).add(entity_id)
            if self._reachability_indexes:
                # add_edge is idempotent per rel id: crash-replay converges.
                self._reachability_rel_created(
                    entity_id, source, target, rel_type
                )
        self._restore_properties(entity_id, properties)

    def _restore_properties(self, entity_id, properties):
        """Set back each key whose value is not the pre-image's own object.

        The pre-image is a shallow copy, so an untouched key still holds
        the very object it recorded.  Identity, not ``==``, decides:
        ``1 == 1.0 == True`` in Python, while the store keeps them apart.
        """
        current = self._property_map(entity_id)
        for key in current.keys() - properties.keys():
            self._set_property_raw(entity_id, key, None)
        for key, value in properties.items():
            if current.get(key) is not value:
                self._set_property_raw(entity_id, key, value)

    def create_node(self, labels=(), properties=None):
        """Add a node; returns its fresh :class:`NodeId`."""
        self._version += 1
        return self._create_node_raw(labels, properties)

    def _create_node_raw(self, labels, properties):
        # Adjacency entries are created lazily on the first incident
        # relationship (readers all .get() with a default), so a bulk
        # node load pays two dict inserts per node, not six.
        # Properties validate before anything lands: a rejected value
        # must not leave a phantom half-node behind.
        self._fault("create_node")
        validated = _validated_properties(properties)
        node_id = NodeId(self._next_node_id)
        self._next_node_id += 1
        label_set = set(labels)
        self._touch(node_id)
        self._node_labels[node_id] = label_set
        self._node_properties[node_id] = validated
        for label in label_set:
            self._label_index.setdefault(label, set()).add(node_id)
            self._note_scan_insert("label", label, node_id)
        if self._indexes_by_label:
            self._index_node_created(node_id, label_set, validated)
        return node_id

    def _create_nodes_bulk_raw(self, labels, properties_list, ids):
        """Create one node per property dict, sharing a label tuple.

        The change buffer's bulk flush: per-node call layers and the
        per-create label-index/scan-cache maintenance are hoisted out of
        the loop (index sets take one ``update``, warm scan lists one
        ``extend``).  Ids are allocated in list order, exactly as the
        per-row path would.  A validation failure mid-batch leaves the
        nodes before it fully created and indexed (properties validate
        before that node's entries land; the ``finally`` indexes the
        prefix), each node recorded as ``ABSENT`` before it lands, which
        is what the statement's rollback restores.  ``ids`` is the
        caller's output list, appended in creation order even when a
        later row raises.
        """
        self._fault("create_nodes")
        node_labels = self._node_labels
        node_properties = self._node_properties
        append = ids.append
        touch = self._touch
        indexed = None
        if self._indexes_by_label:
            indexed = [
                index
                for label in dict.fromkeys(labels)
                for index in self._indexes_for(label).values()
            ]
        # With no fault injector armed the per-node index maintenance is
        # deferred into one bulk pass per index (in the ``finally``, so a
        # mid-batch validation failure still indexes exactly the created
        # prefix — the same state the interleaved path leaves).  With an
        # injector armed, maintenance stays interleaved so ``index_add``
        # trips between individual creates, as the fault tests assume.
        deferred = None
        if indexed and self._fault_injector is None:
            deferred = []
        try:
            for properties in properties_list:
                validated = _validated_properties(properties)  # may raise
                node_id = NodeId(self._next_node_id)
                self._next_node_id += 1
                touch(node_id)
                node_labels[node_id] = set(labels)
                node_properties[node_id] = validated
                append(node_id)
                if indexed:
                    if deferred is not None:
                        deferred.append((node_id, validated))
                    else:
                        self._fault("index_add")
                        for index in indexed:
                            index.update(node_id, validated)
        finally:
            if deferred:
                for index in indexed:
                    index.update_bulk(deferred)
            for label in labels:
                self._label_index.setdefault(label, set()).update(ids)
                cached = self._scan_cache.get(("label", label))
                if cached is not None:
                    if cached[0] == self._version:
                        cached[1].extend(ids)
                    else:
                        del self._scan_cache[("label", label)]
        return ids

    def create_relationship(self, src, tgt, rel_type, properties=None):
        """Add a relationship from ``src`` to ``tgt``; returns its id."""
        self._version += 1
        return self._create_relationship_raw(src, tgt, rel_type, properties)

    def _create_relationship_raw(self, src, tgt, rel_type, properties):
        self._fault("create_relationship")
        if src not in self._node_labels:
            raise EntityNotFound("source node %r not in graph" % (src,))
        if tgt not in self._node_labels:
            raise EntityNotFound("target node %r not in graph" % (tgt,))
        if not isinstance(rel_type, str) or not rel_type:
            raise ValueError("relationship type must be a non-empty string")
        validated = _validated_properties(properties)
        rel_id = RelId(self._next_rel_id)
        self._next_rel_id += 1
        self._touch(rel_id, (src, tgt))
        self._rel_endpoints[rel_id] = (src, tgt)
        self._rel_types[rel_id] = rel_type
        self._rel_properties[rel_id] = validated
        self._outgoing.setdefault(src, []).append(rel_id)
        self._incoming.setdefault(tgt, []).append(rel_id)
        self._outgoing_by_type.setdefault(src, {}).setdefault(
            rel_type, []
        ).append(rel_id)
        self._incoming_by_type.setdefault(tgt, {}).setdefault(
            rel_type, []
        ).append(rel_id)
        self._type_index.setdefault(rel_type, set()).add(rel_id)
        self._note_scan_insert("type", rel_type, rel_id)
        if self._reachability_indexes:
            self._reachability_rel_created(rel_id, src, tgt, rel_type)
        return rel_id

    def _create_rels_bulk_raw(self, rel_type, triples, ids):
        """Create one relationship per ``(src, tgt, props)``, sharing a type.

        The bulk-ingest counterpart of :meth:`_create_nodes_bulk_raw`:
        per-call layers and the per-create type-index/scan-cache
        maintenance are hoisted out of the loop (the type's index set
        takes one ``update``, a warm scan list one ``extend``), and the
        covering reachability indexes are resolved once instead of per
        edge.  Ids are allocated in triple order, exactly as the per-row
        path would.  A validation or endpoint failure mid-batch leaves
        the relationships before it fully created (the ``finally``
        indexes the prefix) for the statement's rollback to remove;
        ``ids`` is the caller's output list, appended in creation order
        even when a later triple raises.
        """
        self._fault("create_rels")
        if not isinstance(rel_type, str) or not rel_type:
            raise ValueError("relationship type must be a non-empty string")
        node_labels = self._node_labels
        rel_endpoints = self._rel_endpoints
        rel_types = self._rel_types
        rel_properties = self._rel_properties
        outgoing = self._outgoing
        incoming = self._incoming
        outgoing_by_type = self._outgoing_by_type
        incoming_by_type = self._incoming_by_type
        append = ids.append
        touch = self._touch
        covering = [
            index
            for index in self._reachability_indexes.values()
            if index.covers(rel_type)
        ]
        try:
            for src, tgt, properties in triples:
                if src not in node_labels:
                    raise EntityNotFound(
                        "source node %r not in graph" % (src,)
                    )
                if tgt not in node_labels:
                    raise EntityNotFound(
                        "target node %r not in graph" % (tgt,)
                    )
                validated = _validated_properties(properties)  # may raise
                rel_id = RelId(self._next_rel_id)
                self._next_rel_id += 1
                touch(rel_id, (src, tgt))
                rel_endpoints[rel_id] = (src, tgt)
                rel_types[rel_id] = rel_type
                rel_properties[rel_id] = validated
                outgoing.setdefault(src, []).append(rel_id)
                incoming.setdefault(tgt, []).append(rel_id)
                outgoing_by_type.setdefault(src, {}).setdefault(
                    rel_type, []
                ).append(rel_id)
                incoming_by_type.setdefault(tgt, {}).setdefault(
                    rel_type, []
                ).append(rel_id)
                append(rel_id)
                if covering:
                    self._fault("reachability_add")
                    for index in covering:
                        index.add_edge(rel_id, src, tgt)
        finally:
            self._type_index.setdefault(rel_type, set()).update(ids)
            cached = self._scan_cache.get(("type", rel_type))
            if cached is not None:
                if cached[0] == self._version:
                    cached[1].extend(ids)
                else:
                    del self._scan_cache[("type", rel_type)]
        return ids

    def adopt_node(self, node_id, labels=(), properties=None):
        """Insert a node under a *caller-chosen* id.

        Used by Cypher 10 graph projections, which must preserve node
        identity across graphs so composed queries can re-match the same
        nodes in another graph (paper Section 6).  The internal id
        counter is bumped past the adopted id, so later ``create_node``
        calls never collide.
        """
        self._version += 1
        if not isinstance(node_id, NodeId):
            raise TypeError("adopt_node expects a NodeId, got %r" % (node_id,))
        if node_id in self._node_labels:
            raise ValueError("node %r already exists" % (node_id,))
        validated = _validated_properties(properties)
        label_set = set(labels)
        self._touch(node_id)
        self._node_labels[node_id] = label_set
        self._node_properties[node_id] = validated
        self._outgoing[node_id] = []
        self._incoming[node_id] = []
        self._outgoing_by_type[node_id] = {}
        self._incoming_by_type[node_id] = {}
        for label in label_set:
            self._label_index.setdefault(label, set()).add(node_id)
        if self._indexes_by_label:
            self._index_node_created(node_id, label_set, validated)
        self._next_node_id = max(self._next_node_id, node_id.value + 1)
        return node_id

    def delete_node(self, node_id, detach=False):
        """Remove a node; with ``detach`` also removes incident edges.

        Without ``detach``, deleting a node that still has relationships
        raises :class:`ConstraintViolation` (dangling edges would break the
        well-formedness of src/tgt).
        """
        self._version += 1
        self._delete_node_raw(node_id, detach)

    def _delete_node_raw(self, node_id, detach):
        self._fault("delete_node")
        if node_id not in self._node_labels:
            raise EntityNotFound("no node %r in graph" % (node_id,))
        outgoing = self._outgoing.get(node_id, ())
        outgoing_set = set(outgoing)
        incident = list(outgoing) + [
            rel
            for rel in self._incoming.get(node_id, ())
            if rel not in outgoing_set
        ]
        if incident and not detach:
            raise ConstraintViolation(
                "cannot delete node %r: it still has %d relationship(s); "
                "use DETACH DELETE" % (node_id, len(incident))
            )
        for rel in incident:
            if rel in self._rel_endpoints:
                self._delete_relationship_raw(rel)
        labels = self._node_labels[node_id]
        properties = self._node_properties[node_id]
        self._touch(node_id)
        if self._indexes_by_label:
            self._index_node_deleted(node_id, labels, properties)
        for label in labels:
            self._label_index[label].discard(node_id)
            self._scan_cache.pop(("label", label), None)
        del self._node_labels[node_id]
        del self._node_properties[node_id]
        self._outgoing.pop(node_id, None)
        self._incoming.pop(node_id, None)
        self._outgoing_by_type.pop(node_id, None)
        self._incoming_by_type.pop(node_id, None)

    def delete_relationship(self, rel_id):
        self._version += 1
        self._delete_relationship_raw(rel_id)

    def _delete_relationship_raw(self, rel_id):
        self._fault("delete_relationship")
        if rel_id not in self._rel_endpoints:
            raise EntityNotFound("no relationship %r in graph" % (rel_id,))
        source, target = self._rel_endpoints[rel_id]
        rel_type = self._rel_types[rel_id]
        self._touch(rel_id, (source, target))
        self._outgoing[source].remove(rel_id)
        self._incoming[target].remove(rel_id)
        self._remove_from_segment(self._outgoing_by_type, source, rel_type, rel_id)
        self._remove_from_segment(self._incoming_by_type, target, rel_type, rel_id)
        self._type_index[rel_type].discard(rel_id)
        self._scan_cache.pop(("type", rel_type), None)
        del self._rel_endpoints[rel_id]
        del self._rel_types[rel_id]
        del self._rel_properties[rel_id]
        if self._reachability_indexes:
            self._reachability_rel_deleted(rel_id, rel_type)

    def set_property(self, entity_id, key, value):
        """Set ι(entity, key); setting to null removes the property."""
        self._version += 1
        self._set_property_raw(entity_id, key, value)

    def _set_property_raw(self, entity_id, key, value):
        self._fault("set_property")
        if self._column_cache:
            self._column_cache = {}
        props = self._property_map(entity_id)
        track = self._indexes_by_label and type(entity_id) is NodeId
        old = props.get(key) if track else None
        self._touch(entity_id)
        if value is None:
            props.pop(key, None)
        else:
            if not is_cypher_value(value):
                raise ValueError("%r is not a storable value" % (value,))
            props[key] = value
        if track:
            self._index_property_changed(entity_id, key, old, value)

    def remove_property(self, entity_id, key):
        self._version += 1
        self._remove_property_raw(entity_id, key)

    def _remove_property_raw(self, entity_id, key):
        self._fault("remove_property")
        if self._column_cache:
            self._column_cache = {}
        props = self._property_map(entity_id)
        self._touch(entity_id)
        old = props.pop(key, None)
        if (
            old is not None
            and self._indexes_by_label
            and type(entity_id) is NodeId
        ):
            self._index_property_changed(entity_id, key, old, None)

    def replace_properties(self, entity_id, properties):
        """SET n = {map}: replace the whole property map."""
        self._version += 1
        self._replace_properties_raw(entity_id, properties)

    def _replace_properties_raw(self, entity_id, properties):
        self._fault("replace_properties")
        if self._column_cache:
            self._column_cache = {}
        props = self._property_map(entity_id)
        # Validate before touching anything: a rejected value must leave
        # both the property map and the index entries untouched (an index
        # desynchronised from a half-cleared map could never be repaired —
        # the old values it holds would be gone).
        validated = _validated_properties(properties)
        track = self._indexes_by_label and type(entity_id) is NodeId
        old = dict(props) if track else None
        self._touch(entity_id)
        props.clear()
        props.update(validated)
        if track:
            for key in old.keys() | validated.keys():
                self._index_property_changed(
                    entity_id, key, old.get(key), validated.get(key)
                )

    def merge_properties(self, entity_id, properties):
        """SET n += {map}: upsert keys; null values remove keys."""
        self._version += 1
        self._merge_properties_raw(entity_id, properties)

    def _merge_properties_raw(self, entity_id, properties):
        self._fault("merge_properties")
        if self._column_cache:
            self._column_cache = {}
        props = self._property_map(entity_id)
        track = self._indexes_by_label and type(entity_id) is NodeId
        self._touch(entity_id)
        for key, value in (properties or {}).items():
            old = props.get(key) if track else None
            if value is None:
                props.pop(key, None)
            else:
                if not is_cypher_value(value):
                    raise ValueError("%r is not a storable value" % (value,))
                props[key] = value
            if track:
                self._index_property_changed(entity_id, key, old, value)

    def add_label(self, node_id, label):
        self._version += 1
        self._add_label_raw(node_id, label)

    def _add_label_raw(self, node_id, label):
        self._fault("add_label")
        if node_id not in self._node_labels:
            raise EntityNotFound("no node %r in graph" % (node_id,))
        fresh = label not in self._node_labels[node_id]
        self._touch(node_id)
        self._node_labels[node_id].add(label)
        self._label_index.setdefault(label, set()).add(node_id)
        self._scan_cache.pop(("label", label), None)
        if fresh and self._indexes_by_label:
            self._index_label_added(node_id, label)

    def remove_label(self, node_id, label):
        self._version += 1
        self._remove_label_raw(node_id, label)

    def _remove_label_raw(self, node_id, label):
        self._fault("remove_label")
        if node_id not in self._node_labels:
            raise EntityNotFound("no node %r in graph" % (node_id,))
        present = label in self._node_labels[node_id]
        self._touch(node_id)
        self._node_labels[node_id].discard(label)
        if label in self._label_index:
            self._label_index[label].discard(node_id)
        self._scan_cache.pop(("label", label), None)
        if present and self._indexes_by_label:
            self._index_label_removed(node_id, label)

    # ------------------------------------------------------------------
    # Whole-graph operations
    # ------------------------------------------------------------------

    @property
    def version(self):
        """Monotonic mutation counter; statistics caches key on it."""
        return self._version

    @property
    def schema_version(self):
        """The schema epoch: moves only when the index set may have changed.

        Bumped by the four index DDL calls — never by a data commit, a
        rollback or a refused statement.  A cached plan may name an
        index, so the engine's plan cache evicts on any mismatch;
        everything else a plan depends on is statistics, which it
        validates by drift.
        The same counter guards a plan's parked pipeline, whose closures
        hold index *objects*: every path that replaces one (DDL, a
        deferred ingest's drop and re-create) moves it; rollback
        restores mutate the existing objects in place.
        """
        return self._schema_version

    def copy(self):
        """An independent deep copy, for callers that want a second store."""
        clone = MemoryGraph()
        clone._version = self._version
        clone._next_node_id = self._next_node_id
        clone._next_rel_id = self._next_rel_id
        clone._node_labels = {n: set(ls) for n, ls in self._node_labels.items()}
        clone._node_properties = {
            n: _deep_copy_value(ps) for n, ps in self._node_properties.items()
        }
        clone._rel_endpoints = dict(self._rel_endpoints)
        clone._rel_types = dict(self._rel_types)
        clone._rel_properties = {
            r: _deep_copy_value(ps) for r, ps in self._rel_properties.items()
        }
        clone._outgoing = {n: list(rs) for n, rs in self._outgoing.items()}
        clone._incoming = {n: list(rs) for n, rs in self._incoming.items()}
        clone._outgoing_by_type = {
            n: {t: list(rs) for t, rs in segments.items()}
            for n, segments in self._outgoing_by_type.items()
        }
        clone._incoming_by_type = {
            n: {t: list(rs) for t, rs in segments.items()}
            for n, segments in self._incoming_by_type.items()
        }
        clone._label_index = {l: set(ns) for l, ns in self._label_index.items()}
        clone._type_index = {t: set(rs) for t, rs in self._type_index.items()}
        # Rebuild the property indexes from the cloned data: the clone's
        # contents equal the originals' by construction, and the version
        # and epoch bumps create_index applied are undone by restamping
        # below.
        for label, keyed in self._indexes_by_label.items():
            for key in keyed:
                clone.create_index(label, key)
        for key in self._reachability_indexes:
            clone.create_reachability_index(key)
        clone._version = self._version
        clone._schema_version = self._schema_version
        return clone

    def __repr__(self):
        return "MemoryGraph(nodes={}, relationships={})".format(
            self.node_count(), self.relationship_count()
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _typed_adjacency(self, segmented, node_id, types):
        """Iterate the union of type segments, in relationship-id order."""
        by_type = segmented.get(node_id)
        if not by_type:
            return iter(())
        # dict.fromkeys dedupes a caller-supplied list of types (the base
        # interface accepts any container) without disturbing set callers.
        segments = [
            by_type[t] for t in dict.fromkeys(types) if t in by_type
        ]
        if not segments:
            return iter(())
        if len(segments) == 1:
            return iter(segments[0])
        merged = [rel for segment in segments for rel in segment]
        merged.sort(key=_id_value)
        return iter(merged)

    @staticmethod
    def _remove_from_segment(segmented, node_id, rel_type, rel_id):
        segments = segmented[node_id]
        segment = segments[rel_type]
        segment.remove(rel_id)
        if not segment:
            del segments[rel_type]

    def _note_scan_insert(self, kind, name, entity_id):
        """Keep a warm scan list valid across an in-transaction create.

        Ids are allocated monotonically, so a freshly created entity
        always sorts after everything in the cached list — appending
        preserves the order.  Without this, every create inside a write
        transaction (where the version stays put) would force the next
        label/type scan to re-sort from the inverted index, which turns
        MERGE upserts quadratic.  Deletes and label changes still evict
        (removal can hit the middle of the list).
        """
        cached = self._scan_cache.get((kind, name))
        if cached is None:
            return
        if cached[0] == self._version:
            cached[1].append(entity_id)
        else:
            del self._scan_cache[(kind, name)]

    def _cached_scan(self, kind, name):
        """Sorted id list for a label/type scan, memoised per version."""
        key = (kind, name)
        cached = self._scan_cache.get(key)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        index = self._label_index if kind == "label" else self._type_index
        ids = sorted(index.get(name, ()), key=_id_value)
        self._scan_cache[key] = (self._version, ids)
        return ids

    def _endpoints(self, rel_id):
        try:
            return self._rel_endpoints[rel_id]
        except KeyError:
            raise EntityNotFound("no relationship %r in graph" % (rel_id,))

    def _property_map(self, entity_id):
        if isinstance(entity_id, NodeId):
            try:
                return self._node_properties[entity_id]
            except KeyError:
                raise EntityNotFound("no node %r in graph" % (entity_id,))
        if isinstance(entity_id, RelId):
            try:
                return self._rel_properties[entity_id]
            except KeyError:
                raise EntityNotFound(
                    "no relationship %r in graph" % (entity_id,)
                )
        raise TypeError("expected a NodeId or RelId, got %r" % (entity_id,))


class StoreTransaction:
    """The single mutation kernel: a change-buffered write transaction.

    Both execution paths drive one of these — the planner's physical
    write operators and the reference executor each open one per
    statement — so Cypher's update semantics lives in exactly one place:

    * **creates and property/label changes** land in the live structures
      immediately (snapshot isolation against the statement's own reads
      is the ``Eager`` barrier's job), but the store version stays put;
    * **deletes** are buffered with deferred visibility: the entities
      remain readable while the clause is still collecting them, and
      :meth:`flush` then removes relationships before nodes, raising
      :class:`ConstraintViolation` for a non-DETACH delete of a node
      whose degree is still positive *after* the same flush's
      relationship deletes — the reference executor's two-phase order;
    * **commit** flushes and bumps the version exactly once (when
      anything changed), so statistics snapshots and scan caches are
      invalidated per statement, not per mutation.

    Record before mutate: every raw mutator first records the pre-image
    of each entity it touches into the open segment (one per statement,
    first touch wins), so the one failure path is :meth:`rollback`: a
    statement that raises leaves the store, its indexes, the version and
    the id counters exactly as before it.
    """

    __slots__ = (
        "_graph",
        "_pending_rel_deletes",
        "_pending_node_deletes",
        "_closed",
        "_segments",
        "_begin_counters",
        "nodes_created",
        "relationships_created",
        "nodes_deleted",
        "relationships_deleted",
        "properties_set",
        "labels_changed",
    )

    def __init__(self, graph):
        self._graph = graph
        self._pending_rel_deletes = {}   # RelId -> None (an ordered set)
        self._pending_node_deletes = {}  # NodeId -> bool (detach)
        self._closed = False
        self._segments = [{}]  # per statement; only the last may be empty
        graph._undo = self._segments[0]
        self._begin_counters = (graph._next_node_id, graph._next_rel_id)
        self.nodes_created = 0
        self.relationships_created = 0
        self.nodes_deleted = 0
        self.relationships_deleted = 0
        self.properties_set = 0
        self.labels_changed = 0

    # -- creates (immediate, unversioned) -----------------------------------

    def create_node(self, labels=(), properties=None):
        node = self._graph._create_node_raw(labels, properties)
        self.nodes_created += 1
        return node

    def create_nodes(self, labels, properties_list):
        """Bulk-create one node per property dict; returns ids in order."""
        ids = []
        try:
            self._graph._create_nodes_bulk_raw(labels, properties_list, ids)
        finally:
            self.nodes_created += len(ids)
        return ids

    def create_relationship(self, src, tgt, rel_type, properties=None):
        rel = self._graph._create_relationship_raw(
            src, tgt, rel_type, properties
        )
        self.relationships_created += 1
        return rel

    def create_relationships(self, rel_type, triples):
        """Bulk-create one relationship per ``(src, tgt, props)`` triple."""
        ids = []
        try:
            self._graph._create_rels_bulk_raw(rel_type, triples, ids)
        finally:
            self.relationships_created += len(ids)
        return ids

    # -- property and label changes (immediate, unversioned) ----------------

    def set_property(self, entity_id, key, value):
        self._graph._set_property_raw(entity_id, key, value)
        self.properties_set += 1

    def remove_property(self, entity_id, key):
        self._graph._remove_property_raw(entity_id, key)
        self.properties_set += 1

    def replace_properties(self, entity_id, properties):
        self._graph._replace_properties_raw(entity_id, properties)
        self.properties_set += 1

    def merge_properties(self, entity_id, properties):
        self._graph._merge_properties_raw(entity_id, properties)
        self.properties_set += 1

    def add_label(self, node_id, label):
        self._graph._add_label_raw(node_id, label)
        self.labels_changed += 1

    def remove_label(self, node_id, label):
        self._graph._remove_label_raw(node_id, label)
        self.labels_changed += 1

    # -- deletes (buffered until flush) --------------------------------------

    def delete_node(self, node_id, detach=False):
        """Buffer a node delete; ``detach`` upgrades an earlier buffering."""
        self._pending_node_deletes[node_id] = (
            detach or self._pending_node_deletes.get(node_id, False)
        )

    def delete_relationship(self, rel_id):
        self._pending_rel_deletes[rel_id] = None

    def delete_value(self, value, detach=False):
        """Buffer everything a DELETE expression value denotes.

        Nodes, relationships, paths (all their elements) and lists
        (recursively); null is a no-op; anything else is a type error —
        the reference executor's collection rules.
        """
        if value is None:
            return
        if isinstance(value, NodeId):
            self.delete_node(value, detach)
        elif isinstance(value, RelId):
            self.delete_relationship(value)
        elif isinstance(value, Path):
            for rel in value.relationships:
                self.delete_relationship(rel)
            for node in value.nodes:
                self.delete_node(node, detach)
        elif isinstance(value, list):
            for item in value:
                self.delete_value(item, detach)
        else:
            raise CypherTypeError("cannot DELETE %r" % (value,))

    def flush(self):
        """Apply the buffered deletes: relationships first, then nodes.

        Double deletes (the same entity collected from several rows, or
        a relationship both named and implied by a DETACH) collapse
        silently; a non-DETACH node delete checks the degree only after
        this flush's relationship deletes, so deleting a node together
        with all its relationships needs no DETACH.
        """
        graph = self._graph
        rels, self._pending_rel_deletes = self._pending_rel_deletes, {}
        nodes, self._pending_node_deletes = self._pending_node_deletes, {}
        for rel in rels:
            if graph.has_relationship(rel):
                graph._delete_relationship_raw(rel)
                self.relationships_deleted += 1
        for node, detach in nodes.items():
            if not graph.has_node(node):
                continue
            if not detach and graph.degree(node) > 0:
                raise ConstraintViolation(
                    "cannot delete node %r: it still has relationships; "
                    "use DETACH DELETE" % (node,)
                )
            incident = set(graph._outgoing.get(node, ()))
            incident.update(graph._incoming.get(node, ()))
            self.relationships_deleted += len(incident)
            graph._delete_node_raw(node, detach=True)
            self.nodes_deleted += 1

    # -- lifecycle -----------------------------------------------------------

    def _open_segment(self):
        """Open a statement's segment; returns its index.

        An empty last segment (the transaction's first, or the one a
        failed statement left) is reused rather than followed.
        """
        segments = self._segments
        if segments[-1]:
            segments.append({})
        self._graph._undo = segments[-1]
        return len(segments) - 1

    @property
    def changed(self):
        """True while a mutation applied and not rolled back is recorded."""
        return any(self._segments)

    @property
    def closed(self):
        return self._closed

    def commit(self):
        """Flush pending deletes, then bump the version exactly once."""
        self._graph._fault("commit_flush")
        self.flush()
        self._finalize()
        return self

    def rollback(self):
        """Undo every applied change and close.

        Restores every segment's pre-images, newest first, with
        recording and fault injection suspended, restores the id
        counters, and clears the scan caches.  No version bump: the
        pre-transaction version still describes the restored contents
        exactly, so statistics snapshots keyed on it stay *correct*,
        not just safe.
        """
        if not self._closed:
            self.rollback_statement(0, self._begin_counters)
            self._finalize(bump=False)
        return self

    def rollback_statement(self, mark, counters):
        """Restore the segments from index ``mark`` on (one statement).

        Segment ``mark`` stays, emptied, as the open one.

        Used by :class:`_StatementTransaction` when a single statement
        inside a session scope fails — raises, is cancelled or is
        refused by the schema: that statement's changes unwind
        atomically while the session's earlier statements stay applied.
        """
        graph = self._graph
        self._pending_rel_deletes = {}
        self._pending_node_deletes = {}
        segments = self._segments
        graph._undo = None  # restores must not re-record
        injector = graph._fault_injector
        graph._fault_injector = None  # nor re-crash mid-recovery
        try:
            for segment in reversed(segments[mark:]):
                while segment:
                    graph._restore(*segment.popitem())
            del segments[mark + 1:]
        finally:
            graph._fault_injector = injector
            graph._undo = segments[-1]
        graph._next_node_id, graph._next_rel_id = counters
        graph._scan_cache.clear()
        return self

    def _finalize(self, bump=True):
        if self._closed:
            return
        self._closed = True
        graph = self._graph
        if graph._undo is self._segments[-1]:
            graph._undo = None
        if graph._active_transaction is self:
            graph._active_transaction = None
            graph._transaction_owner = None
        if bump and self.changed:
            graph._version += 1
            graph._scan_cache.clear()

    def __repr__(self):
        return (
            "StoreTransaction(+%dn +%dr -%dn -%dr props=%d labels=%d%s)"
            % (
                self.nodes_created,
                self.relationships_created,
                self.nodes_deleted,
                self.relationships_deleted,
                self.properties_set,
                self.labels_changed,
                " closed" if self._closed else "",
            )
        )


class _StatementTransaction:
    """One statement's facade over a session's spanning transaction.

    Handed out by :meth:`MemoryGraph.write_transaction` inside a session
    scope.  Mutators delegate straight to the parent
    :class:`StoreTransaction`, so creates/changes/buffered deletes land
    in the session's shared change buffer; the lifecycle differs:

    * :meth:`commit` only flushes the statement's buffered deletes —
      the version bump is deferred to the session's commit;
    * :meth:`rollback` restores exactly this statement's segment (the
      one opened here, whose index is the mark), so a statement that
      fails inside a session — raises, is cancelled, or is refused by
      the engine's schema guard — disappears atomically while earlier
      statements survive.
    """

    __slots__ = ("_parent", "_mark", "_counters")

    def __init__(self, parent):
        self._parent = parent
        graph = parent._graph
        self._mark = parent._open_segment()
        self._counters = (graph._next_node_id, graph._next_rel_id)

    # -- mutators: straight delegation --------------------------------------

    def create_node(self, labels=(), properties=None):
        return self._parent.create_node(labels, properties)

    def create_nodes(self, labels, properties_list):
        return self._parent.create_nodes(labels, properties_list)

    def create_relationship(self, src, tgt, rel_type, properties=None):
        return self._parent.create_relationship(src, tgt, rel_type, properties)

    def create_relationships(self, rel_type, triples):
        return self._parent.create_relationships(rel_type, triples)

    def set_property(self, entity_id, key, value):
        self._parent.set_property(entity_id, key, value)

    def remove_property(self, entity_id, key):
        self._parent.remove_property(entity_id, key)

    def replace_properties(self, entity_id, properties):
        self._parent.replace_properties(entity_id, properties)

    def merge_properties(self, entity_id, properties):
        self._parent.merge_properties(entity_id, properties)

    def add_label(self, node_id, label):
        self._parent.add_label(node_id, label)

    def remove_label(self, node_id, label):
        self._parent.remove_label(node_id, label)

    def delete_node(self, node_id, detach=False):
        self._parent.delete_node(node_id, detach)

    def delete_relationship(self, rel_id):
        self._parent.delete_relationship(rel_id)

    def delete_value(self, value, detach=False):
        self._parent.delete_value(value, detach)

    def flush(self):
        self._parent.flush()

    # -- counters (reported per statement surface, session totals) ----------

    @property
    def changed(self):
        return self._parent.changed

    @property
    def nodes_created(self):
        return self._parent.nodes_created

    @property
    def relationships_created(self):
        return self._parent.relationships_created

    @property
    def nodes_deleted(self):
        return self._parent.nodes_deleted

    @property
    def relationships_deleted(self):
        return self._parent.relationships_deleted

    @property
    def properties_set(self):
        return self._parent.properties_set

    @property
    def labels_changed(self):
        return self._parent.labels_changed

    # -- lifecycle ----------------------------------------------------------

    def commit(self):
        self._parent.flush()
        return self

    def rollback(self):
        self._parent.rollback_statement(self._mark, self._counters)
        return self

    def __repr__(self):
        return "_StatementTransaction(over %r, mark=%d)" % (
            self._parent, self._mark
        )


def _validated_properties(properties):
    if not properties:
        return {}
    result = {}
    for key, value in properties.items():
        if type(key) is str:
            value_type = type(value)
            if (
                value_type is int
                or value_type is str
                or value_type is float
                or value_type is bool
            ):
                # The scalar majority skips the recursive check — this
                # runs once per stored property on every write path.
                result[key] = value
                continue
        if not isinstance(key, str):
            raise ValueError("property keys must be strings, got %r" % (key,))
        if value is None:
            continue  # ι is a partial function; null means "not defined"
        if not is_cypher_value(value):
            raise ValueError("%r is not a storable value" % (value,))
        result[key] = value
    return result


def _deep_copy_value(value):
    if isinstance(value, list):
        return [_deep_copy_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _deep_copy_value(item) for key, item in value.items()}
    return value
