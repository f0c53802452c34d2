"""Vectorised batch execution: morsels of rows as slot columns.

Both engines compile operator dispatch and expressions **once per
plan**: the first execution builds the pipeline — slot map, context,
closure tree — and parks it on the plan object; later executions take
it, bind their parameters, run and park it again
(:func:`~repro.planner.physical.acquire_pipeline` has the validity
tuple; :meth:`~repro.planner.physical.ExecutionContext.release` has the
memo-reset rule that makes a re-run see writes made in between).  What
the row engine (:mod:`repro.planner.physical`) still pays on every run
is Python's per-row toll: a generator resumption per operator per row, a
``row[:]`` copy per binding, a closure call per expression per row.
This module executes the same logical plans *columnar*: operators exchange
**morsels** — batches of up to :data:`DEFAULT_MORSEL_SIZE` rows stored
as one flat Python list per slot — so each per-row cost becomes a
per-morsel cost amortised over N rows:

* scans slice whole chunks off the store's cached scan lists
  (:meth:`~repro.graph.store.MemoryGraph.label_scan_ids`) and broadcast
  the outer bindings, instead of copying a row per node; the whole-label
  scan also *publishes* the morsel it just emitted — chunk, offset, the
  scan list it is a slice of — and a property read whose subject column
  **is** that chunk (an identity test, so shadowing cannot confuse it)
  is ``column[start:start + n]`` of the store's label-aligned column
  (:meth:`~repro.graph.store.MemoryGraph.label_property_column`) while
  the store vouches for it, a per-node read otherwise — index scans
  (equality/``IN``/range/prefix probes per driving row) chunk their
  id-ordered candidate lists the same way, so indexed plans stay inside
  the batch claim — lazily, in morsels that start small and double, so
  a ``LIMIT`` above an index walk reads about k entries, not a morsel;
* Expand walks the adjacency of an entire source column in one store
  call (:meth:`~repro.graph.store.MemoryGraph.expand_batch`) and gathers
  the surviving origins with list selections (a one-to-one expansion
  that drops nothing reuses the input columns); a label-only target check
  is one more store call over the neighbour column
  (:meth:`~repro.graph.store.MemoryGraph.has_labels_column`);
* filters and projections evaluate *column-compiled* expression closures
  (:class:`~repro.semantics.compile.ColumnCompiler`) — one call per
  morsel, with int fast-path loops inside — and a filter hands on a
  *selection* over its input's columns instead of copying them;
* aggregation hands each argument column to its accumulator whole
  (:meth:`~repro.functions.aggregates.Aggregate.include_column`: a
  non-distinct ``count`` tallies nulls and an all-int ``sum`` is the
  builtin's, everything else loops ``include``), and a grouped single
  ``count(*)`` / non-distinct ``count(x)`` is a ``collections.Counter``
  over the morsel's canonical keys — an int per group, no accumulator
  objects;
* keys are values: a key column of ints, strings and ids is its own
  list of canonical keys (:func:`_canonical_column`), and Sort and Top
  order an all-int or all-str column by its values (:func:`_sort_keys`)
  — no tuple built, hashed or walked per row; other columns key value
  by value.  A grouping key is ``canonical_key``'s either way, so
  morsels that hold different types agree;
* ``ORDER BY … LIMIT k`` (:func:`_compile_top`) keeps the best k rows as
  columns and re-runs Sort's stable ``list.sort`` passes over retained +
  new rows instead of pushing row objects through a heap: same ties as
  Sort + Limit, O(k + morsel) rows held.

A batch is the triple ``(n, cols, sel)``: ``cols[slot]`` is either a
list of values or ``None`` when the slot is unbound across the whole
batch (the supported operators bind uniformly, so a column never mixes
bound and unbound rows — ``MISSING`` appears only in scratch rows
materialised for fallback expressions).  ``sel`` is ``None`` when the
batch is dense — every column holds its ``n`` rows — and otherwise the
ascending positions of its rows in the *base* columns ``cols``, with
``n == len(sel)``.  Only the subset operators (Filter, NodeCheck,
Distinct) emit a selection, and they copy nothing to do it; Aggregate
reads base columns it can read without evaluating anything anew and
gathers just those (:class:`_Rows`); every other operator takes its
input dense through :func:`_gather`, the module's one gather.

**Coverage is a contract, not best effort.**  :func:`plan_supports_batch`
names exactly the operators this engine claims; the engine picks batch
execution for any read plan inside the claim and records the choice in
``QueryResult.execution_mode``, and the TCK runner asserts a claimed
plan never silently degrades to row mode.  Variable-length expands are
inside the claim since the frontier-BFS implementation below; outside
it — OPTIONAL MATCH, UNION, named paths, every write operator and its
Eager barriers — execution stays row-wise: writes batch through the
store transaction already, and per-row snapshot semantics are
exactly what the barriers guarantee.  The differential harness
(``tests/test_batched_differential.py``) holds all three executors —
interpreter, row, batch — to identical result bags and byte-identical
final stores over the fuzz corpus.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, islice

from repro.ast import expressions as ex
from repro.ast import patterns as pt
from repro.planner import logical as lg
from repro.planner.physical import (
    ExecutionContext,
    TOPK_STATS,
    acquire_pipeline,
    park_pipeline,
    _access_record,
    _bound_value,
    _compile_conflicts,
    _compile_node_conflicts,
    _compile_node_ok,
    _compile_rel_ok,
    _index_ordered_probe,
    _index_probe,
    _index_range_probe,
    _reachability_entry,
    _reachability_pruner,
)
from repro.planner.slots import SlotMap
from repro.semantics.compile import MISSING, ColumnCompiler, select_columns
from repro.semantics.table import Table
from repro.values.base import NodeId
from repro.values.ordering import SELF_KEYED, canonical_key, sort_key

#: Target rows per morsel; engines expose it as the ``morsel_size`` knob.
#: Big enough to amortise per-batch Python overhead, and past that the
#: cost is per value: 256 -> 1024 -> 4096 moves the three heavy analytic
#: templates 4-10%, so the default stays.
DEFAULT_MORSEL_SIZE = 256

#: Rows in the first morsel of a lazily chunked index scan; the size
#: doubles per emitted morsel up to the morsel size (see
#: :func:`_compile_probe_scan`).
FIRST_MORSEL_SIZE = 16


def graph_supports_batch(graph):
    """True when the store implements the bulk column APIs."""
    return bool(getattr(graph, "supports_bulk_scans", False))


def plan_supports_batch(plan):
    """True when every operator of ``plan`` has a batch implementation.

    This is the batch engine's published claim: the engine *must* run a
    supported read plan in batch mode (the TCK runner asserts it), and
    must not attempt an unsupported one.  Memoised on the plan object,
    like the slot-name collection — plans are immutable.
    """
    cached = getattr(plan, "_batch_supported", None)
    if cached is None:
        cached = True
        stack = [plan]
        while stack:
            op = stack.pop()
            if type(op) not in _COMPILERS:
                cached = False
                break
            stack.extend(op._children())
        object.__setattr__(plan, "_batch_supported", cached)
    return cached


class BatchContext(ExecutionContext):
    """Execution context plus the column compiler and morsel size."""

    def __init__(
        self, graph, parameters=None, functions=None, morphism=None,
        slots=None, morsel_size=None, access_log=None, cancel=None,
    ):
        super().__init__(
            graph, parameters, functions, morphism, slots, access_log,
            cancel, read_only=True,  # batch plans never write: CSE is safe
        )
        self.columns = ColumnCompiler(self.compiler)
        self.morsel_size = morsel_size or DEFAULT_MORSEL_SIZE

    def transaction(self):
        raise AssertionError(
            "write operators have no batch implementation; "
            "plan_supports_batch should have rejected this plan"
        )


def execute_plan_batched(
    plan, graph, parameters=None, functions=None, morphism=None,
    morsel_size=None, access_log=None, cancel=None,
):
    """Run a batch-supported logical plan; returns a Table over its fields.

    Semantically identical to :func:`~repro.planner.physical.execute_plan`
    on every plan :func:`plan_supports_batch` accepts — same rows, same
    order, same errors — and the same take → bind → run → park life
    cycle, over the plan's own batch slot (the two engines never see
    each other's closures); the morsel size is part of what a parked
    batch pipeline is valid for.  ``access_log`` enables the same
    access-path profiling as the row engine (counted per morsel, not per
    row).
    """
    def compile_plan(slots):
        context = BatchContext(
            graph, parameters, functions, morphism, slots, morsel_size,
            None if access_log is None else [], cancel,
        )
        return context, _compile(plan, context)

    pipeline = acquire_pipeline(
        plan, graph, ("batch", cancel is not None, access_log is not None),
        (functions, morphism, morsel_size), parameters, cancel, compile_plan,
    )
    fields = plan.fields
    field_slots = pipeline.field_slots
    rows = []
    append = rows.append
    for n, cols, sel in pipeline.source(None):
        cols = _gather(cols, sel)
        field_cols = [cols[slot] for slot in field_slots]
        for index in range(n):
            record = {}
            for field, col in zip(fields, field_cols):
                value = col[index] if col is not None else None
                record[field] = None if value is MISSING else value
            append(record)
    park_pipeline(plan, pipeline, access_log)
    return Table(fields, rows)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _compile(op, ctx):
    """Compile an operator subtree to ``argument -> iterator of batches``.

    With a cancellation active, every operator checks the deadline/token
    at each **morsel boundary** — one direct poll per batch of rows, the
    vectorised analogue of the row engine's strided per-row check.
    """
    run = _COMPILERS[type(op)](op, ctx)
    cancel = ctx.cancel
    if cancel is None:
        return run
    poll = cancel.poll

    def guarded(argument):
        for batch in run(argument):
            poll()
            yield batch

    return guarded


def _bound_columns(cols):
    """The ``(slot, column)`` pairs bound in this batch."""
    return [(slot, col) for slot, col in enumerate(cols) if col is not None]


def _gather(cols, indices):
    """The columns of the rows at ``indices``; ``cols`` itself for None.

    The one gather in this module: an operator that needs its input
    dense passes the batch's selection, and Expand, Sort, Top, Unwind
    and the var-length walks pass their own row indices.  The kernel is
    shared with the column compiler's masked AND/OR.
    """
    return cols if indices is None else select_columns(cols, indices)


def _selected(n, cols, keep):
    """The batch of ``cols``' rows at ``keep`` (ascending, non-empty):
    dense when every row survived, else a selection — nothing copied."""
    if len(keep) == n:
        return n, cols, None
    return len(keep), cols, keep


def _materialize(cols, bound, index, width):
    """A fresh scratch row holding batch row ``index`` (MISSING elsewhere)."""
    row = [MISSING] * width
    for slot, col in bound:
        row[slot] = col[index]
    return row


def _direction_of(rel_pattern):
    if rel_pattern.direction == pt.LEFT_TO_RIGHT:
        return "out"
    if rel_pattern.direction == pt.RIGHT_TO_LEFT:
        return "in"
    return "both"


# ---------------------------------------------------------------------------
# Sources
# ---------------------------------------------------------------------------

def _compile_init(op, ctx):
    width = len(ctx.slots)

    def run(argument):
        yield 1, [None] * width, None

    return run


def _compile_scan(op, ctx, source_of, granted_label=None, published=None):
    """Shared chunked scan: slice the node list per driving row
    (``published``: see :func:`_compile_label_scan`)."""
    child = _compile(op.child, ctx)
    slot = ctx.slots[op.variable]
    ok = _compile_node_ok(ctx, op.node_pattern, granted_label=granted_label)
    morsel = ctx.morsel_size
    width = len(ctx.slots)
    fill = _compile_batch_cover_fill(op, ctx)

    def run(argument):
        for n, cols, sel in child(argument):
            cols = _gather(cols, sel)
            bound = _bound_columns(cols)
            row = [MISSING] * width if ok is not None else None
            for index in range(n):
                if ok is not None:
                    for out_slot, col in bound:
                        row[out_slot] = col[index]
                    nodes = [node for node in source_of() if ok(node, row)]
                else:
                    nodes = source_of()
                total = len(nodes)
                for start in range(0, total, morsel):
                    chunk = nodes[start:start + morsel]
                    if published is not None and ok is None:
                        published[:3] = chunk, start, nodes
                    out = [None] * width
                    for out_slot, col in bound:
                        out[out_slot] = [col[index]] * len(chunk)
                    out[slot] = chunk
                    if fill is not None:
                        fill(out, chunk)
                    yield len(chunk), out, None

    return run


def _profiled_batch_scan(ctx, op, entry, run, variable=None, **tallies):
    """Morsel-level emitted-row counter, matching the row engine's
    (``tallies``: live counters the scan's record also shows)."""
    if ctx.access_log is None:
        return run
    record = _access_record(ctx, op, entry, variable, **tallies)

    def counted(argument):
        for batch in run(argument):
            record["actual_rows"] += batch[0]
            yield batch

    return counted


def _compile_all_nodes_scan(op, ctx):
    return _profiled_batch_scan(
        ctx, op, "all nodes",
        _compile_scan(op, ctx, ctx.graph.all_node_ids),
    )


def _compile_label_scan(op, ctx):
    """The one scan that publishes its morsels (module docstring), in
    ``ColumnCompiler.label_morsels``; reset between runs, so a parked
    pipeline holds no rows."""
    label = op.label
    scan = ctx.graph.label_scan_ids
    served = {}
    published = [None, 0, None, label, served]
    ctx.columns.label_morsels.append(published)

    def reset():
        published[:3] = None, 0, None
        served.clear()

    ctx.compiler.memo_resets.append(reset)
    return _profiled_batch_scan(
        ctx, op, "label scan :%s" % label,
        _compile_scan(
            op, ctx, lambda: scan(label), granted_label=label,
            published=published,
        ),
        column_slices=served,  # {key: morsels served as slices}
    )


def _compile_probe_scan(op, ctx, candidates_of, entry):
    """Chunked batch scan over per-driving-row index candidate lists.

    The probe closures come from the row engine's :func:`_index_probe` /
    :func:`_index_range_probe` — one home for the probe semantics.  They
    read the *driving row*, so a scratch row is materialised per input
    row (exactly like :func:`_compile_scan`'s property-checked path);
    the candidates then chunk into morsels with the outer bindings
    broadcast.  Enumeration order matches the row engine's operator —
    same store calls, same lists.  Chunking is lazy (``islice`` over the
    candidate iterator, never a full materialisation), so an ordered
    scan's generator only advances as far as downstream operators pull —
    a Limit's budget cuts the index walk off at a morsel boundary.

    The first morsels are **ramped**: the chunk starts at
    :data:`FIRST_MORSEL_SIZE` and doubles per emitted morsel up to the
    morsel size, carried across driving rows within one invocation.  An
    early-terminating consumer (Limit, the index-ordered top-k) thus
    stops the walk after about k entries instead of a full morsel; a
    nested probe reaches full width after a handful of morsels and never
    restarts, and a full scan pays a few small morsels once.
    """
    child = _compile(op.child, ctx)
    slot = ctx.slots[op.variable]
    ok = _compile_node_ok(ctx, op.node_pattern, granted_label=op.label)
    morsel_size = ctx.morsel_size
    width = len(ctx.slots)
    label = op.label
    has_label_nodes = ctx.graph.has_label_nodes
    fill = _compile_batch_cover_fill(op, ctx)

    def run(argument):
        morsel = min(FIRST_MORSEL_SIZE, morsel_size)
        for n, cols, sel in child(argument):
            cols = _gather(cols, sel)
            bound = _bound_columns(cols)
            row = [MISSING] * width
            for index in range(n):
                if not has_label_nodes(label):
                    continue
                for out_slot, col in bound:
                    row[out_slot] = col[index]
                nodes = iter(candidates_of(row))
                if ok is not None:
                    nodes = (node for node in nodes if ok(node, row))
                while True:
                    chunk = list(islice(nodes, morsel))
                    if not chunk:
                        break
                    if morsel < morsel_size:
                        morsel = min(2 * morsel, morsel_size)
                    out = [None] * width
                    for out_slot, col in bound:
                        out[out_slot] = [col[index]] * len(chunk)
                    out[slot] = chunk
                    if fill is not None:
                        fill(out, chunk)
                    yield len(chunk), out, None

    return _profiled_batch_scan(ctx, op, entry, run)


def _compile_batch_cover_fill(op, ctx):
    """``(out_cols, chunk) -> None`` writing covered columns, or None.

    Columnar twin of the row engine's cover fill: one list per covered
    column, built straight from index entries (live property map as the
    fallback for over-approximated admissions — see the row engine's
    docstring for why that case exists).
    """
    covered = getattr(op, "covered", ())
    if not covered:
        return None
    keys = op.index_keys
    getter = ctx.graph.index_cover_getter(op.label, keys)
    properties = ctx.graph.properties
    targets = tuple(
        (keys.index(key), key, ctx.slots[name]) for key, name in covered
    )

    def fill(out, chunk):
        columns = [[None] * len(chunk) for _target in targets]
        for index, node in enumerate(chunk):
            values = getter(node)
            if values is not None:
                for t, (position, _key, _slot) in enumerate(targets):
                    columns[t][index] = values[position]
            else:
                node_properties = properties(node)
                for t, (_position, key, _slot) in enumerate(targets):
                    columns[t][index] = node_properties.get(key)
        for t, (_position, _key, cover_slot) in enumerate(targets):
            out[cover_slot] = columns[t]

    return fill


def _compile_index_scan(op, ctx):
    return _compile_probe_scan(op, ctx, *_index_probe(ctx, op))


def _compile_index_range_scan(op, ctx):
    return _compile_probe_scan(op, ctx, *_index_range_probe(ctx, op))


def _compile_index_ordered_scan(op, ctx):
    return _compile_probe_scan(op, ctx, *_index_ordered_probe(ctx, op))


def _compile_node_check(op, ctx):
    child = _compile(op.child, ctx)
    slot = ctx.slots[op.variable]
    ok = _compile_node_ok(ctx, op.node_pattern)
    width = len(ctx.slots)

    def run(argument):
        for n, cols, sel in child(argument):
            cols = _gather(cols, sel)
            col = cols[slot]
            if col is None:
                continue  # unbound for the whole batch: nothing survives
            if ok is None:
                keep = [
                    index
                    for index, value in enumerate(col)
                    if isinstance(value, NodeId)
                ]
            else:
                bound = _bound_columns(cols)
                keep = []
                for index, value in enumerate(col):
                    if not isinstance(value, NodeId):
                        continue
                    row = _materialize(cols, bound, index, width)
                    if ok(value, row):
                        keep.append(index)
            if not keep:
                continue
            yield _selected(n, cols, keep)

    return run


# ---------------------------------------------------------------------------
# Expand
# ---------------------------------------------------------------------------

def _compile_expand(op, ctx):
    child = _compile(op.child, ctx)
    slots = ctx.slots
    from_slot = slots[op.from_variable]
    rel_slot = slots[op.rel_variable] if op.rel_variable is not None else None
    to_slot = slots[op.to_variable] if op.to_variable is not None else None
    direction = _direction_of(op.rel_pattern)
    types = op.rel_pattern.resolved_types
    conflicts = _compile_conflicts(ctx, op.unique_with)
    node_conflicts = _compile_node_conflicts(
        ctx, op.unique_nodes, op.unique_segments
    )
    rel_ok = _compile_rel_ok(ctx, op.rel_pattern)
    node_ok = _compile_node_ok(ctx, op.node_pattern)
    into = op.into
    expand_batch = ctx.graph.expand_batch
    width = len(slots)
    # A label-only target check reads nothing from the row (its property
    # loop is empty), so the scratch-row materialisation per driving row
    # is skipped for the common (a)-[:T]->(b:Label) shape.
    need_row = (
        conflicts is not None
        or node_conflicts is not None
        or rel_ok is not None
        or (node_ok is not None and bool(op.node_pattern.properties))
    )
    # ... and when it is the *only* check, the store answers it for the
    # whole target column at once.  (A store method, not its label dict:
    # a parked pipeline may hold the graph, never one of its containers.)
    labels = op.node_pattern.labels
    labels_only = node_ok is not None and not need_row and not into
    has_labels_column = ctx.graph.has_labels_column

    def run(argument):
        for n, cols, sel in child(argument):
            cols = _gather(cols, sel)
            source_col = cols[from_slot]
            if source_col is None:
                continue
            to_col = cols[to_slot] if into else None
            if into and to_col is None:
                continue  # every comparison against MISSING fails
            origins, rels, targets = expand_batch(
                source_col, direction, types
            )
            if not origins:
                continue
            keep = None
            if labels_only:
                keep = list(compress(
                    range(len(targets)), has_labels_column(targets, labels)
                ))
            elif need_row or node_ok is not None or into:
                bound = _bound_columns(cols)
                keep = []
                row = None
                current = -1
                for position, origin in enumerate(origins):
                    if need_row and origin != current:
                        # Fresh per driving row: the node-conflict check
                        # memoises its visited set on row identity.
                        row = _materialize(cols, bound, origin, width)
                        current = origin
                    rel = rels[position]
                    target = targets[position]
                    if conflicts is not None and conflicts(rel, row):
                        continue
                    if rel_ok is not None and not rel_ok(rel, row):
                        continue
                    if node_conflicts is not None and node_conflicts(
                        target, row
                    ):
                        continue
                    if into and to_col[origin] != target:
                        continue
                    if node_ok is not None and not node_ok(target, row):
                        continue
                    keep.append(position)
            if keep is not None and len(keep) != len(origins):
                if not keep:
                    continue
                origins = [origins[p] for p in keep]
                rels = [rels[p] for p in keep]
                targets = [targets[p] for p in keep]
            if len(origins) == n and origins == list(range(n)):
                out = list(cols)  # one relationship per row, none dropped
            else:
                out = _gather(cols, origins)
            if rel_slot is not None:
                out[rel_slot] = rels
            if not into and to_slot is not None:
                out[to_slot] = targets
            yield len(origins), out, None

    return run


def _compile_var_length_expand(op, ctx, can_end_at=None):
    """Frontier-BFS batch implementation of ``*m..n`` expansion.

    The row engine walks a per-row recursive DFS; here the whole input
    batch advances **level-synchronously**: one
    :meth:`~repro.graph.store.MemoryGraph.expand_batch` call per depth
    expands the entire frontier at once.  Emission order is observable
    (``collect()``, ``LIMIT`` without ``ORDER BY``), so each frontier
    entry carries a *DFS key* — the tuple of adjacency positions taken
    along its walk — and the collected emissions are sorted by
    ``(driving row, key)`` before yielding: a prefix tuple sorts before
    every extension and sibling positions sort in adjacency order, which
    is exactly the DFS pre-order the row engine produces (the store
    guarantees ``expand_batch`` enumerates each source in the same
    order as the per-row accessors).

    Memory trades against the row path: the DFS holds one walk, the BFS
    holds a whole level — bounded by the same traversal cap and
    uniqueness pruning that bound the row engine's result set.

    ``can_end_at`` is the row engine's pruner (see
    :func:`~repro.planner.physical._compile_var_length_expand`): a
    driving row whose source cannot reach its bound target never enters
    the frontier, and a frontier entry that cannot end at it is dropped.
    """
    child = _compile(op.child, ctx)
    slots = ctx.slots
    from_slot = slots[op.from_variable]
    rel_slot = slots[op.rel_variable] if op.rel_variable is not None else None
    to_slot = slots[op.to_variable] if op.to_variable is not None else None
    direction = _direction_of(op.rel_pattern)
    types = op.rel_pattern.resolved_types
    conflicts = _compile_conflicts(ctx, op.unique_with)
    rel_ok = _compile_rel_ok(ctx, op.rel_pattern)
    node_ok = _compile_node_ok(ctx, op.node_pattern)
    into = op.into
    low = op.low
    kernel = ctx.kernel
    morphism = kernel.morphism
    check_unique = bool(morphism.forbids_repeated_relationships)
    check_nodes = bool(morphism.forbids_repeated_nodes)
    unique_node_slots = tuple(slots[name] for name in op.unique_nodes)
    unique_segment_slots = tuple(
        (slots[from_name], slots[rel_name])
        for from_name, rel_name in op.unique_segments
    )
    other_end = ctx.graph.other_end
    cap = kernel.traversal_cap(op.high)
    cancel = ctx.cancel
    expand_batch = ctx.graph.expand_batch
    width = len(slots)
    morsel = ctx.morsel_size
    # The per-walk checks that read the driving row's other bindings;
    # label-only target checks pass row=None, like the rigid Expand.
    need_row = (
        (check_unique and conflicts is not None)
        or rel_ok is not None
        or check_nodes
        or (node_ok is not None and bool(op.node_pattern.properties))
    )

    def run(argument):
        for n, cols, sel in child(argument):
            cols = _gather(cols, sel)
            source_col = cols[from_slot]
            if source_col is None:
                continue
            to_col = cols[to_slot] if into else None
            if into and to_col is None:
                continue  # every comparison against MISSING fails
            bound = _bound_columns(cols) if need_row else None
            rows = {}

            def row_of(origin):
                row = rows.get(origin)
                if row is None:
                    rows[origin] = row = _materialize(
                        cols, bound, origin, width
                    )
                return row

            emitted = []

            def emit(origin, key, node, rels):
                if into and to_col[origin] != node:
                    return
                if node_ok is not None and not node_ok(
                    node, row_of(origin) if need_row else None
                ):
                    return
                emitted.append((origin, key, node, rels))

            # Frontier entries: (origin, dfs_key, node, walk_rels,
            # walk_nodes) — the last two are the walk's own additions;
            # the uniqueness seed per driving row stays shared.
            seeds = {}
            frontier = []
            for origin in range(n):
                source = source_col[origin]
                if not isinstance(source, NodeId):
                    continue
                if can_end_at is not None:
                    bound_target = to_col[origin]
                    if not isinstance(bound_target, NodeId) or not (
                        can_end_at(source, bound_target)
                    ):
                        continue  # no walk from here ends at the target
                if check_nodes:
                    seeds[origin] = kernel.visited_nodes(
                        unique_node_slots, unique_segment_slots,
                        row_of(origin), other_end,
                    )
                frontier.append((origin, (), source, (), ()))
            if low == 0:
                for origin, key, node, rels, _nodes in frontier:
                    emit(origin, key, node, rels)
            taken = 0
            while frontier:
                if cap is not None and taken >= cap:
                    break  # level-cap walks are emitted, never expanded
                taken += 1
                origins_, rels_, targets_ = expand_batch(
                    [entry[2] for entry in frontier], direction, types
                )
                next_frontier = []
                last_parent = -1
                position = 0
                for step in range(len(origins_)):
                    if cancel is not None:
                        # Per candidate step: the frontier can explode
                        # combinatorially between morsel boundaries.
                        cancel.check()
                    parent = origins_[step]
                    if parent != last_parent:
                        last_parent = parent
                        position = 0
                    else:
                        position += 1
                    rel = rels_[step]
                    target = targets_[step]
                    origin, key, _node, walk_rels, walk_nodes = (
                        frontier[parent]
                    )
                    if check_unique:
                        if rel in walk_rels:
                            continue
                        if conflicts is not None and conflicts(
                            rel, row_of(origin)
                        ):
                            continue
                    if rel_ok is not None and not rel_ok(
                        rel, row_of(origin)
                    ):
                        continue
                    if check_nodes and (
                        target in seeds[origin] or target in walk_nodes
                    ):
                        continue
                    if can_end_at is not None and not can_end_at(
                        target, to_col[origin]
                    ):
                        continue
                    child_key = key + (position,)
                    child_rels = walk_rels + (rel,)
                    child_nodes = (
                        walk_nodes + (target,) if check_nodes else ()
                    )
                    if taken >= low:
                        emit(origin, child_key, target, child_rels)
                    next_frontier.append(
                        (origin, child_key, target, child_rels, child_nodes)
                    )
                frontier = next_frontier
            if not emitted:
                continue
            # (origin, dfs_key) is unique per emission, so the plain
            # tuple sort never reaches the node/rels elements.
            emitted.sort()
            total = len(emitted)
            for start in range(0, total, morsel):
                block = emitted[start:start + morsel]
                indices = [entry[0] for entry in block]
                out = _gather(cols, indices)
                if rel_slot is not None:
                    out[rel_slot] = [list(entry[3]) for entry in block]
                if not into and to_slot is not None:
                    out[to_slot] = [entry[2] for entry in block]
                yield len(block), out, None

    return run


def _compile_reachability_probe(op, ctx):
    """The frontier walk, pruned by a reachability index.

    The index serving ``op``'s type set certifies which frontier entries
    can never end at their driving row's bound target (see
    :func:`~repro.planner.physical._reachability_pruner`); the walk
    itself stays the residual verification.  When the executing graph
    does not expose the index this is the plain frontier walk.
    """
    getter = getattr(ctx.graph, "reachability_index_for", None)
    index = (
        getter(op.rel_pattern.resolved_types) if getter is not None else None
    )
    if index is None:
        return _compile_var_length_expand(op, ctx)
    run = _compile_var_length_expand(
        op, ctx, _reachability_pruner(index, op.forward)
    )
    return _profiled_batch_scan(
        ctx, op, _reachability_entry(op), run, op.to_variable
    )


# ---------------------------------------------------------------------------
# Tuple operators
# ---------------------------------------------------------------------------

def _compile_filter(op, ctx):
    child = _compile(op.child, ctx)
    selection = ctx.columns.compile_selection(op.predicate)

    def run(argument):
        for n, cols, sel in child(argument):
            cols = _gather(cols, sel)
            keep = selection(n, cols)
            if not keep:
                continue
            yield _selected(n, cols, keep)

    return run


def _compile_project(op, ctx):
    child = _compile(op.child, ctx)
    items = tuple(
        (ctx.slots[name], ctx.columns.compile(expression))
        for name, expression in op.items
    )

    def run(argument):
        for n, cols, sel in child(argument):
            cols = _gather(cols, sel)
            # All items read the input columns; writes land in the copy,
            # so aliases may shadow inputs without corruption.
            computed = [(slot, compiled(n, cols)) for slot, compiled in items]
            out = list(cols)
            for slot, column in computed:
                out[slot] = column
            yield n, out, None

    return run


def _compile_strip(op, ctx):
    child = _compile(op.child, ctx)
    keep = tuple(ctx.slots[field] for field in op.fields)
    width = len(ctx.slots)

    def run(argument):
        for n, cols, sel in child(argument):
            cols = _gather(cols, sel)
            out = [None] * width
            for slot in keep:
                col = cols[slot]
                out[slot] = col if col is not None else [None] * n
            yield n, out, None

    return run


def _sort_keys(column):
    """Sort keys for one column (Sort and Top): the column itself when
    it holds only ints or only strs — their own order is ``sort_key``'s
    within one type — else ``sort_key`` per value."""
    if set(map(type, column)) in ({int}, {str}):
        return column
    return list(map(sort_key, column))


def _canonical_column(column):
    """Grouping keys for one column: the column itself when every value
    is its own canonical key, else ``canonical_key`` per value."""
    if SELF_KEYED.issuperset(map(type, column)):
        return column
    return list(map(canonical_key, column))


def _compile_distinct(op, ctx):
    child = _compile(op.child, ctx)
    field_slots = tuple(ctx.slots[field] for field in op.fields)

    def run(argument):
        seen = set()
        add = seen.add
        for n, cols, sel in child(argument):
            cols = _gather(cols, sel)
            key_cols = [
                _canonical_column(cols[slot])
                if cols[slot] is not None
                else None
                for slot in field_slots
            ]
            null_key = canonical_key(None)
            keep = []
            for index in range(n):
                key = tuple(
                    keyed[index] if keyed is not None else null_key
                    for keyed in key_cols
                )
                if key not in seen:
                    add(key)
                    keep.append(index)
            if not keep:
                continue
            yield _selected(n, cols, keep)

    return run


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _aggregate_outputs(ctx, aggregates):
    """Classify each aggregate item for column-wise accumulation.

    ``count``/``simple``/``pair`` accumulate straight off argument
    columns through the shared accumulator objects; anything fancier
    collects dict records per group and reuses the reference
    ``evaluate_aggregate_item`` — exactly the row engine's split.
    """
    from repro.functions.aggregates import _Percentile
    from repro.semantics.clauses import _make_accumulator

    outputs = []
    needs_records = False
    for name, expression in aggregates:
        slot = ctx.slots[name]
        kind = None
        arg_fns = ()
        if isinstance(expression, ex.CountStar):
            kind = "count"
        elif (
            isinstance(expression, ex.FunctionCall)
            and expression.name in ex.AGGREGATE_FUNCTION_NAMES
        ):
            if isinstance(_make_accumulator(expression), _Percentile):
                if len(expression.args) == 2:
                    kind = "pair"
                    arg_fns = (
                        ctx.columns.compile(expression.args[0]),
                        ctx.columns.compile(expression.args[1]),
                    )
            elif len(expression.args) == 1:
                kind = "simple"
                arg_fns = (ctx.columns.compile(expression.args[0]),)
        if kind is None:
            kind = "records"
            needs_records = True
        outputs.append((slot, expression, kind, arg_fns))
    return outputs, needs_records


class _Rows:
    """One input batch as Aggregate reads it: columns over its rows.

    A dense batch evaluates each expression as it is.  Under a
    selection, an expression whose ``base`` door reads it off the base
    columns without evaluating anything anew — a variable, a memo-hit or
    label-aligned ``variable.key`` (see
    :class:`~repro.semantics.compile.ColumnCompiler`) — is read there
    and gathered by ``sel``; anything else evaluates over the gathered
    batch, built once.  No expression runs on a row outside the
    selection that it had not already run on.
    """

    __slots__ = ("n", "cols", "sel", "_dense")

    def __init__(self, n, cols, sel):
        self.n = n
        self.cols = cols
        self.sel = sel
        self._dense = cols if sel is None else None

    def dense(self):
        """The batch's rows as plain columns (gathered once)."""
        if self._dense is None:
            self._dense = _gather(self.cols, self.sel)
        return self._dense

    def _base(self, compiled):
        if self.sel is None:
            return None
        base = getattr(compiled, "base", None)
        return None if base is None else base(self.cols)

    def column(self, compiled):
        """``compiled``'s column over the batch's rows."""
        base = self._base(compiled)
        if base is not None:
            return list(map(base.__getitem__, self.sel))
        return compiled(self.n, self.dense())

    def include(self, state, compiled):
        """``state.include_column(self.column(compiled))``, handing a
        base column over ungathered (``count`` tallies its nulls at the
        selected positions and gathers nothing)."""
        base = self._base(compiled)
        if base is not None:
            state.include_selected(base, self.sel)
        else:
            state.include_column(compiled(self.n, self.dense()))


def _compile_aggregate(op, ctx):
    from repro.semantics.clauses import _make_accumulator
    from repro.semantics.clauses import evaluate_aggregate_item

    child = _compile(op.child, ctx)
    slots = ctx.slots
    width = len(slots)
    grouping = tuple(
        (slots[name], ctx.columns.compile(expression))
        for name, expression in op.grouping
    )
    outputs, needs_records = _aggregate_outputs(ctx, op.aggregates)
    to_record = slots.to_record
    evaluator = ctx.evaluator

    def new_states():
        return [
            0 if kind == "count" else (
                _make_accumulator(expression)
                if kind in ("simple", "pair")
                else None
            )
            for _slot, expression, kind, _fns in outputs
        ]

    def collect_records(cols, n, records):
        bound = _bound_columns(cols)
        for index in range(n):
            records.append(to_record(_materialize(cols, bound, index, width)))

    def finish(order, groups):
        """The single output batch: one row per group, in arrival order."""
        out = [None] * width
        for position, (slot, _compiled) in enumerate(grouping):
            out[slot] = [groups[key][0][position] for key in order]
        for position, (slot, expression, kind, _fns) in enumerate(outputs):
            column = []
            for key in order:
                _values, states, records = groups[key]
                if kind == "count":
                    column.append(states[position])
                elif kind in ("simple", "pair"):
                    column.append(states[position].result())
                else:
                    column.append(
                        evaluate_aggregate_item(expression, records, evaluator)
                    )
            out[slot] = column
        return len(order), out, None

    if not grouping:
        # Global aggregation: no keys at all — count(*) adds batch sizes,
        # one-argument aggregates hand their argument column to the
        # accumulator whole (``include_column``: count and int sum never
        # leave C).  This is the hot RETURN count(*) / sum(x) shape the
        # benchmarks pin at 2x the row engine.
        def run_global(argument):
            states = new_states()
            records = [] if needs_records else None
            for n, cols, sel in child(argument):
                rows = _Rows(n, cols, sel)
                for position, (_s, _e, kind, arg_fns) in enumerate(outputs):
                    if kind == "count":
                        states[position] += n
                    elif kind == "simple":
                        rows.include(states[position], arg_fns[0])
                    elif kind == "pair":
                        include_pair = states[position].include_pair
                        for value, percentile in zip(
                            rows.column(arg_fns[0]), rows.column(arg_fns[1])
                        ):
                            include_pair(value, percentile)
                if needs_records:
                    collect_records(rows.dense(), n, records)
            yield finish([()], {(): ([], states, records)})

        return run_global

    single_key = len(grouping) == 1
    # One count(*) or non-distinct count(x) per group needs no accumulator
    # object: a Counter over the (non-null rows') keys is the whole state.
    counted, count_argument = False, None
    if not needs_records and len(outputs) == 1:
        (_slot, expression, kind, arg_fns), = outputs
        if kind == "count":
            counted = True
        elif (
            kind == "simple"
            and expression.name.lower() == "count"
            and not expression.distinct
        ):
            counted, count_argument = True, arg_fns[0]
    single_simple = (
        not needs_records
        and len(outputs) == 1
        and outputs[0][2] == "simple"
    )

    def run(argument):
        groups = {}
        counts = Counter()
        order = []
        append_key = order.append
        for n, cols, sel in child(argument):
            rows = _Rows(n, cols, sel)
            key_cols = [rows.column(compiled) for _slot, compiled in grouping]
            keyed = [_canonical_column(column) for column in key_cols]
            if single_key:
                keys = keyed[0]
                values = key_cols[0]
            else:
                keys = list(zip(*keyed))
                values = None
            if counted:
                if not single_key:
                    values = list(zip(*key_cols))
                # First-arrival order from dict.fromkeys, each new group's
                # first-seen key values from the reversed zip (the earliest
                # row is written last, so it wins) — unless the column is
                # its own key list, where each key is that value.
                fresh = [
                    key for key in dict.fromkeys(keys) if key not in groups
                ]
                if keys is values:
                    groups.update(zip(fresh, fresh))
                else:
                    first_seen = dict(zip(reversed(keys), reversed(values)))
                    groups.update(
                        zip(fresh, map(first_seen.__getitem__, fresh))
                    )
                if count_argument is not None:
                    counted_col = rows.column(count_argument)
                    if None in counted_col:
                        keys = [
                            key
                            for key, value in zip(keys, counted_col)
                            if value is not None
                        ]
                counts.update(keys)
                continue
            if single_simple:
                argument_col = rows.column(outputs[0][3][0])
                for index, key in enumerate(keys):
                    entry = groups.get(key)
                    if entry is None:
                        groups[key] = entry = (
                            [values[index]]
                            if single_key
                            else [col[index] for col in key_cols],
                            new_states(),
                            None,
                        )
                        append_key(key)
                    entry[1][0].include(argument_col[index])
                continue
            arg_cols = [
                tuple(rows.column(fn) for fn in arg_fns) if arg_fns else ()
                for _slot, _expression, _kind, arg_fns in outputs
            ]
            if needs_records:
                cols = rows.dense()
                bound = _bound_columns(cols)
            for index, key in enumerate(keys):
                entry = groups.get(key)
                if entry is None:
                    entry = (
                        [column[index] for column in key_cols],
                        new_states(),
                        [] if needs_records else None,
                    )
                    groups[key] = entry
                    append_key(key)
                states = entry[1]
                for position, (_s, _e, kind, _fns) in enumerate(outputs):
                    if kind == "count":
                        states[position] += 1
                    elif kind == "simple":
                        states[position].include(arg_cols[position][0][index])
                    elif kind == "pair":
                        states[position].include_pair(
                            arg_cols[position][0][index],
                            arg_cols[position][1][index],
                        )
                if needs_records:
                    entry[2].append(
                        to_record(_materialize(cols, bound, index, width))
                    )
        if counted and groups:
            out = [None] * width
            if single_key:
                out[grouping[0][0]] = list(groups.values())
            else:
                for (slot, _compiled), column in zip(
                    grouping, zip(*groups.values())
                ):
                    out[slot] = list(column)
            out[outputs[0][0]] = [counts[key] for key in groups]
            yield len(groups), out, None
        elif order:
            yield finish(order, groups)

    return run


# ---------------------------------------------------------------------------
# Ordering, offsets
# ---------------------------------------------------------------------------

def _concat(batches, width):
    """Merge a batch list into one ``(n, cols)`` (binding normalised)."""
    if len(batches) == 1:
        return batches[0]
    total = sum(n for n, _cols in batches)
    merged = []
    for slot in range(width):
        if all(cols[slot] is None for _n, cols in batches):
            merged.append(None)
            continue
        column = []
        for n, cols in batches:
            col = cols[slot]
            column.extend(col if col is not None else [None] * n)
        merged.append(column)
    return total, merged


def _compile_sort(op, ctx):
    child = _compile(op.child, ctx)
    keys = tuple(
        (ctx.columns.compile(item.expression), bool(item.ascending))
        for item in op.sort_items
    )
    width = len(ctx.slots)

    def run(argument):
        batches = [
            (n, _gather(cols, sel)) for n, cols, sel in child(argument)
        ]
        if not batches:
            return
        n, cols = _concat(batches, width)
        order = list(range(n))
        # Stable multi-pass sort, least-significant key first — the same
        # lexicographic-comparator equivalence the row engine uses.
        for compiled, ascending in reversed(keys):
            keyed = _sort_keys(compiled(n, cols))
            order.sort(key=keyed.__getitem__, reverse=not ascending)
        yield n, _gather(cols, order), None

    return run


def _compile_top(op, ctx):
    """``ORDER BY … LIMIT k`` keeping the best k rows *as columns*.

    Arriving morsels (with their raw key values riding along as extra
    columns, so a row's key expressions run once) queue behind the rows
    retained so far; when more than ``k + max(k, morsel)`` rows are
    held, and at the end, the queue is concatenated, sorted with the
    same stable least-significant-key-first ``list.sort`` passes as
    :func:`_compile_sort` (each keying its whole column through
    :func:`_sort_keys`), and truncated to k.  Retained rows are
    earlier arrivals and sit first, so ties break by arrival exactly as
    Sort + Limit does.  Waiting for ``max(k, morsel)`` new rows keeps
    the work linear when k is large (a ``LIMIT`` above the row count
    sorts once) and is the per-morsel sort when k is small; never more
    than ``2·max(k, morsel)`` rows plus one morsel are held.
    ``TOPK_STATS``: ``heap_max`` is the most rows retained by a
    truncation, ``pushed`` counts the new rows that survived theirs.
    """
    child = _compile(op.child, ctx)
    key_fns = tuple(ctx.columns.compile(item.expression) for item in op.sort_items)
    slots = ctx.slots
    width = len(slots)
    wide = width + len(key_fns)
    passes = tuple(reversed([
        (position, not item.ascending)
        for position, item in enumerate(op.sort_items, width)
    ]))
    limit_count = ctx.compile(op.limit)
    skip_count = ctx.compile(op.skip) if op.skip is not None else None
    morsel = ctx.morsel_size
    stats = TOPK_STATS

    def run(argument):
        k = _bound_value(limit_count, slots, "LIMIT")
        if skip_count is not None:
            k += _bound_value(skip_count, slots, "SKIP")
        if k == 0:
            return
        held = []     # the retained best (sorted) first, then arrivals
        retained = 0  # rows of held[0] that survived an earlier truncation
        rows = 0
        for n, cols, sel in child(argument):
            cols = _gather(cols, sel)
            held.append((n, cols + [fn(n, cols) for fn in key_fns]))
            rows += n
            if rows > k + max(k, morsel):
                held = [best_of(held, retained, k)]
                rows = retained = held[0][0]
        if held:
            n, cols = best_of(held, retained, k)
            yield n, cols[:width], None

    def best_of(held, retained, k):
        """The first k of ``held`` in sort order, as one wide batch."""
        n, cols = _concat(held, wide)
        order = list(range(n))
        for position, descending in passes:
            keyed = _sort_keys(cols[position])
            order.sort(key=keyed.__getitem__, reverse=descending)
        del order[k:]
        stats["pushed"] += sum(map(retained.__le__, order))
        if len(order) > stats["heap_max"]:
            stats["heap_max"] = len(order)
        return len(order), _gather(cols, order)

    return run


def _compile_skip(op, ctx):
    child = _compile(op.child, ctx)
    count = ctx.compile(op.count)
    slots = ctx.slots

    def run(argument):
        remaining = _bound_value(count, slots, "SKIP")
        for n, cols, sel in child(argument):
            if remaining >= n:
                remaining -= n
                continue
            cols = _gather(cols, sel)
            if remaining:
                offset = remaining
                remaining = 0
                yield (
                    n - offset,
                    [None if c is None else c[offset:] for c in cols],
                    None,
                )
            else:
                yield n, cols, None

    return run


def _compile_limit(op, ctx):
    child = _compile(op.child, ctx)
    count = ctx.compile(op.count)
    slots = ctx.slots

    def run(argument):
        budget = _bound_value(count, slots, "LIMIT")
        if budget == 0:
            return
        for n, cols, sel in child(argument):
            cols = _gather(cols, sel)
            if n < budget:
                budget -= n
                yield n, cols, None
            elif n == budget:
                yield n, cols, None
                return
            else:
                yield (
                    budget,
                    [None if c is None else c[:budget] for c in cols],
                    None,
                )
                return

    return run


def _compile_unwind(op, ctx):
    child = _compile(op.child, ctx)
    expression = ctx.columns.compile(op.expression)
    slot = ctx.slots[op.alias]

    def run(argument):
        for n, cols, sel in child(argument):
            cols = _gather(cols, sel)
            values = expression(n, cols)
            origins = []
            flat = []
            for index, value in enumerate(values):
                if isinstance(value, list):
                    for element in value:
                        origins.append(index)
                        flat.append(element)
                else:
                    origins.append(index)
                    flat.append(value)
            if not flat:
                continue
            out = _gather(cols, origins)
            out[slot] = flat
            yield len(flat), out, None

    return run


_COMPILERS = {
    lg.Init: _compile_init,
    lg.AllNodesScan: _compile_all_nodes_scan,
    lg.NodeByLabelScan: _compile_label_scan,
    lg.IndexScan: _compile_index_scan,
    lg.IndexRangeScan: _compile_index_range_scan,
    lg.IndexOrderedScan: _compile_index_ordered_scan,
    lg.NodeCheck: _compile_node_check,
    lg.Expand: _compile_expand,
    lg.VarLengthExpand: _compile_var_length_expand,
    lg.ReachabilityProbe: _compile_reachability_probe,
    lg.Filter: _compile_filter,
    lg.ExtendedProject: _compile_project,
    lg.Strip: _compile_strip,
    lg.Distinct: _compile_distinct,
    lg.Aggregate: _compile_aggregate,
    lg.Sort: _compile_sort,
    lg.Top: _compile_top,
    lg.Skip: _compile_skip,
    lg.Limit: _compile_limit,
    lg.Unwind: _compile_unwind,
}
