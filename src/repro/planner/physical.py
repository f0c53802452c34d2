"""Slotted, compiled execution of logical plans (the Volcano model).

"The final query compilation uses ... a simple tuple-at-a-time
iterator-based execution model" — each operator is still a Python
generator over rows, but the plan is *compiled* before the first row
flows:

* every operator becomes a closure specialised at plan time — operator
  dispatch, slot lookups, label tuples, adjacency direction and
  relationship-type sets are all resolved once, not per row;
* rows are flat lists indexed by the plan's :class:`SlotMap` (see
  :mod:`repro.planner.slots`); binding a variable copies a list
  (``row[:]``) instead of rebuilding a dict, and unbound slots hold the
  ``MISSING`` sentinel;
* expressions are compiled to nested closures over slot indexes by
  :class:`~repro.semantics.compile.ExpressionCompiler`; constructs that
  bind inner variables (comprehensions, quantifiers, ``reduce``) write
  through pre-allocated scratch slots instead of per-row dicts;
* Expand steps read the store's type-segmented adjacency lists directly —
  no index indirection — matching the paper's description of why Expand
  is cheap.

The compiled pipeline is kept with the plan object: a cached plan
compiles on its first read and every later one is take → bind → run →
park (:func:`execute_plan`, :func:`acquire_pipeline`) — armed, profiled
and snapshot-view reads included; only an updating statement compiles
per execution.

Rows convert to dict records only at the Table boundary.  The physical
semantics of every operator matches the reference interpreter; the
cross-check tests assert bag equality between the two paths for every
query class the planner accepts.
"""

from __future__ import annotations

import heapq

from repro.ast import clauses as cl
from repro.ast import expressions as ex
from repro.ast import patterns as pt
from repro.exceptions import (
    CypherRuntimeError,
    CypherSemanticError,
    CypherTypeError,
)
from repro.planner import logical as lg
from repro.planner.slots import SlotMap
from repro.semantics.compile import MISSING, ExpressionCompiler
from repro.semantics.expressions import Evaluator
from repro.semantics.morphism import EDGE_ISOMORPHISM, UniquenessKernel
from repro.semantics.table import Table
from repro.values.base import NodeId, RelId
from repro.values.comparison import (
    equals,
    greater,
    greater_equal,
    less,
    less_equal,
)
from repro.values.ordering import canonical_key, sort_key
from repro.values.path import Path


#: Observable pipeline counters (plain integer adds at take/park, nothing
#: per row).  Every planned execution counts once: ``compiled`` if it
#: built its closure tree (first runs of a variant, invalidated and
#: contended takes, every update), ``reused`` if it took a parked
#: pipeline.  ``contended`` counts the takes that found a variant's slot
#: empty after it had parked once — another thread, or a re-entrant run
#: of the same text, was using it — and says whether one slot per
#: variant is enough under real threads.  The adds are unsynchronised:
#: under threads a count can be lost, a pipeline never.
PIPELINE_STATS = {"compiled": 0, "reused": 0, "contended": 0}


class ExecutionContext:
    """Runtime services shared by all operators of one execution.

    A read-only context outlives its execution when the pipeline
    compiled against it is parked with the plan
    (:func:`acquire_pipeline`): closures read parameters and aggregate
    overrides *through* the context at run time, so :meth:`rebind` is
    all a later execution needs, and :meth:`release` drops what the last
    one left behind.
    """

    def __init__(
        self, graph, parameters=None, functions=None, morphism=None,
        slots=None, access_log=None, cancel=None, read_only=False,
    ):
        self.graph = graph
        #: A :class:`~repro.runtime.cancel.Cancellation` or None.  When
        #: set, :func:`_compile` wraps every operator with a strided
        #: check, so the cancel-free hot path pays nothing; a parked armed
        #: pipeline keeps the object and :meth:`rebind` re-arms it.
        self.cancel = cancel
        self.evaluator = Evaluator(
            graph, parameters, functions, morphism or EDGE_ISOMORPHISM
        )
        self.kernel = UniquenessKernel(self.evaluator.morphism)
        self.slots = slots if slots is not None else SlotMap()
        #: ``read_only`` unlocks the compiler's property-read CSE: safe
        #: exactly when no operator of this execution mutates the store.
        self.compiler = ExpressionCompiler(
            self.evaluator, self.slots, read_only=read_only
        )
        #: When profiling, the list each scan operator appends its
        #: access-path record to at compile time: ``{"operator",
        #: "variable", "entry", "estimated_rows", "actual_rows"}``, plus
        #: live tallies.  The pipeline owns the records; a run's caller
        #: gets copies (:func:`park_pipeline`).  None (the default) keeps
        #: the hot path completely free of counting.
        self.access_log = access_log
        self._transaction = None

    def compile(self, expression):
        """Compile an expression to a ``slot_row -> value`` closure."""
        return self.compiler.compile(expression)

    def compile_predicate(self, expression):
        """Compile a WHERE predicate to a strict ``slot_row -> bool``."""
        return self.compiler.compile_predicate(expression)

    def transaction(self):
        """The execution's store transaction (opened on first write op).

        All write operators of one execution share it, so the version
        bump and cache invalidation happen exactly once per statement,
        at :func:`execute_plan`'s commit.
        """
        if self._transaction is None:
            self._transaction = self.graph.write_transaction()
        return self._transaction

    def rebind(self, parameters, cancel=None):
        """Bind a released context to its next execution.

        The evaluator's own parameter dict is updated in place — the
        compiled closures hold that dict and read it at run time; it was
        cleared at :meth:`release`, so a ``$p`` this execution leaves
        unbound raises ``ParameterNotBound`` instead of seeing the
        previous run's value.  An armed context's compiled
        ``Cancellation`` takes this run's deadline and token.
        """
        if parameters:
            self.evaluator.parameters.update(parameters)
        if cancel is not None:
            self.cancel.arm(cancel.deadline, cancel.token)

    def release(self):
        """Drop everything the finished execution left in the context.

        Parameters, aggregate overrides, the cancellation's deadline and
        token, the access records' counts and every value memo the
        compilers registered.  The memo reset is the one rule that is
        about correctness, not memory: the row engine's property memo
        compares ``NodeId`` identity, the store's scan lists hand out
        the same objects run after run, and a write may land between two
        runs.  After this the context references no row, morsel, column,
        token or result of the execution.
        """
        self.evaluator.parameters.clear()
        self.evaluator.aggregate_values.clear()
        if self.cancel is not None:
            self.cancel.arm()
        for record in self.access_log or ():
            record["actual_rows"] = 0
        for reset in self.compiler.memo_resets:
            reset()


class Pipeline:
    """One plan compiled for one store: context, closure tree, outputs.

    ``variant`` is the slot the pipeline parks in — None on one that is
    never parked — and ``key`` what it is valid for beyond ``graph``.
    """

    __slots__ = ("graph", "variant", "key", "context", "source", "field_slots")

    def __init__(self, graph, variant, key, context, source, field_slots):
        self.graph = graph
        self.variant = variant
        self.key = key
        self.context = context
        self.source = source
        self.field_slots = field_slots


def _parking(plan, graph):
    """The ``{variant: [pipeline]}`` dict ``plan`` parks in on ``graph``.

    A graph that keeps its own ``parked_pipelines`` (a per-pin
    ``SnapshotGraph`` view, keyed by plan identity) holds its pipelines
    itself, so they never displace the ones parked for its live store.
    Every other graph parks on the plan object, so whatever drops the
    plan — LRU, schema-epoch or drift eviction — drops the closures with
    it.
    """
    owned = getattr(graph, "parked_pipelines", None)
    if owned is None:
        parking = getattr(plan, "_parked", None)
        if parking is None:
            parking = {}
            object.__setattr__(plan, "_parked", parking)
        return parking
    entry = owned.get(id(plan))
    if entry is None:
        # The entry holds the plan, so its id is not reused while it lives.
        entry = owned[id(plan)] = (plan, {})
    return entry[1]


def acquire_pipeline(
    plan, graph, variant, key, parameters, cancel, compile_plan,
):
    """Take → bind a parked pipeline of ``variant``, or compile a fresh one.

    ``variant`` names the slot — the engine, whether the run is armed
    (``cancel``) and whether it is profiled — or is None for an
    execution that may not park: an update, whose write operators
    capture the statement's transaction.  Armed-ness is part of the
    variant, so an unarmed run never takes a pipeline compiled with
    cancellation checks; a profiled one keeps its scan records.

    A parked pipeline is valid for exactly the graph object it was
    compiled against at the schema epoch it was compiled in (closures
    hold index objects; every path that replaces one moves
    ``schema_version``) plus ``key`` — the engine's functions, morphism
    and whatever else its compile depends on.  The check runs on every
    take; a mismatch drops the pipeline and compiles as a first
    execution would.  Where a variant parks is :func:`_parking`'s rule.

    Take is ``list.pop()`` and park replaces the variant's list, both
    atomic under the GIL: a concurrent or re-entrant run of the same
    plan finds the slot empty, compiles its own pipeline and offers it
    back.  No lock, and no execution ever waits for another.
    """
    if variant is not None:
        key = (graph.schema_version,) + key
        slot = _parking(plan, graph).get(variant)
        if slot is not None:
            try:
                pipeline = slot.pop()
            except IndexError:
                PIPELINE_STATS["contended"] += 1
            else:
                if pipeline.graph is graph and pipeline.key == key:
                    PIPELINE_STATS["reused"] += 1
                    pipeline.context.rebind(parameters, cancel)
                    return pipeline
    PIPELINE_STATS["compiled"] += 1
    slots = SlotMap.from_plan(plan)
    context, source = compile_plan(slots)
    field_slots = [slots[field] for field in plan.fields]
    return Pipeline(graph, variant, key, context, source, field_slots)


def park_pipeline(plan, pipeline, access_log):
    """Finish an execution that completed: report, release, keep.

    ``access_log`` (the caller's list, or None) receives copies of the
    pipeline's access records, so a result's ``access_paths`` never
    moves when a later run of the plan executes.  Called only after a
    clean finish: a run that raised keeps nothing, so the next one
    compiles from scratch exactly as before.  A pipeline that may not
    park is simply dropped.
    """
    context = pipeline.context
    if access_log is not None:
        access_log.extend(
            {name: value.copy() if type(value) is dict else value
             for name, value in record.items()}
            for record in context.access_log
        )
    if pipeline.variant is None:
        return
    context.release()
    _parking(plan, pipeline.graph)[pipeline.variant] = [pipeline]


def execute_plan(
    plan, graph, parameters=None, functions=None, morphism=None,
    access_log=None, cancel=None, read_only=False,
):
    """Run a logical plan to completion; returns a Table over its fields.

    A warm ``read_only`` execution is **take → bind → run → park**: the
    plan's parked pipeline (slot map, context, closure tree — see
    :func:`acquire_pipeline` for when one is valid) is bound to this
    call's parameters and cancellation, drained, released and parked
    again.  Without one the plan is compiled first, exactly once, by the
    same :func:`_compile` and drained by the same loop; the two differ
    only in whether the result is kept.  ``read_only`` is the caller's
    statement that no operator mutates the store (the engine passes it
    for every non-updating statement); anything else compiles per
    execution.

    If the plan contains write operators, their shared store transaction
    commits after the last row (single version bump); any exception —
    an error, a timeout, a cancellation, a failing commit — rolls it
    back instead, so the statement is atomic, as in the reference
    executor.  ``access_log`` (a caller-owned list) turns on access-path
    profiling: every scan operator records its entry choice, estimated
    and actual row counts.
    """
    def compile_plan(slots):
        context = ExecutionContext(
            graph, parameters, functions, morphism, slots,
            None if access_log is None else [], cancel, read_only,
        )
        return context, _compile(plan, context)

    pipeline = acquire_pipeline(
        plan, graph,
        ("row", cancel is not None, access_log is not None)
        if read_only else None,
        (functions, morphism), parameters, cancel, compile_plan,
    )
    context = pipeline.context
    fields = plan.fields
    field_slots = pipeline.field_slots
    rows = []
    try:
        for row in pipeline.source(None):
            record = {}
            for field, slot in zip(fields, field_slots):
                value = row[slot]
                record[field] = None if value is MISSING else value
            rows.append(record)
        if context._transaction is not None:
            context._transaction.commit()
    except BaseException:
        if context._transaction is not None:
            context._transaction.rollback()
        raise
    park_pipeline(plan, pipeline, access_log)
    return Table(fields, rows)


# ---------------------------------------------------------------------------
# Dispatch: logical operator -> compiled generator function
# ---------------------------------------------------------------------------

def _compile(op, ctx):
    """Compile an operator subtree to ``argument_row -> iterator of rows``.

    With a cancellation active, every operator's iterator is wrapped
    with a strided deadline/token check between rows, so a statement
    stuck in *any* operator notices within ``CHECK_STRIDE`` rows of
    that operator producing output.  (Operators that can run long
    before yielding — the variable-length expand — check internally
    too.)
    """
    run = _COMPILERS[type(op)](op, ctx)
    cancel = ctx.cancel
    if cancel is None:
        return run
    check = cancel.check

    def guarded(argument):
        for row in run(argument):
            check()
            yield row

    return guarded


def _compile_init(op, ctx):
    slots = ctx.slots

    def run(argument):
        yield slots.new_row()

    return run


def _compile_argument(op, ctx):
    def run(argument):
        yield argument[:]

    return run


# -- shared pattern-element checks ------------------------------------------

def _compile_node_ok(ctx, node_pattern, granted_label=None):
    """Label-and-property check for a node pattern; None when trivial.

    ``granted_label`` names a label the caller already guarantees (a
    NodeByLabelScan's entry label) so it is not re-checked per
    candidate.  Equality against int/str/bool pattern values skips the
    generic three-valued ``equals`` — those types compare natively and
    this predicate runs once per scanned candidate.
    """
    labels = tuple(
        label for label in node_pattern.labels if label != granted_label
    )
    properties = tuple(
        (key, ctx.compile(expression))
        for key, expression in node_pattern.properties
    )
    if not labels and not properties:
        return None
    has_label = ctx.graph.has_label
    node_property = ctx.graph.node_property

    def ok(node, row):
        for label in labels:
            if not has_label(node, label):
                return False
        for key, compiled in properties:
            actual = node_property(node, key)
            expected = compiled(row)
            actual_type = type(actual)
            if actual_type is type(expected) and (
                actual_type is int
                or actual_type is str
                or actual_type is bool
            ):
                if actual != expected:
                    return False
            elif equals(actual, expected) is not True:
                return False
        return True

    return ok


def _compile_rel_ok(ctx, rel_pattern):
    """Property check for a relationship pattern; None when trivial."""
    if not rel_pattern.properties:
        return None
    properties = tuple(
        (key, ctx.compile(expression))
        for key, expression in rel_pattern.properties
    )
    property_value = ctx.graph.property_value

    def ok(rel, row):
        for key, compiled in properties:
            if equals(property_value(rel, key), compiled(row)) is not True:
                return False
        return True

    return ok


def _compile_steps(graph, rel_pattern):
    """Direction-specialised (relationship, next node) step source."""
    types = rel_pattern.resolved_types
    if rel_pattern.direction == pt.LEFT_TO_RIGHT:
        outgoing, tgt = graph.outgoing, graph.tgt

        def steps(node):
            for rel in outgoing(node, types):
                yield rel, tgt(rel)

        return steps
    if rel_pattern.direction == pt.RIGHT_TO_LEFT:
        incoming, src = graph.incoming, graph.src

        def steps(node):
            for rel in incoming(node, types):
                yield rel, src(rel)

        return steps
    touching, other_end = graph.touching, graph.other_end

    def steps(node):
        for rel in touching(node, types):
            yield rel, other_end(rel, node)

    return steps


def _compile_conflicts(ctx, unique_with):
    """Relationship clash check against earlier bindings; None if moot.

    Delegates to the morphism's uniqueness kernel: edge and node
    isomorphism forbid rebinding a relationship, homomorphism enforces
    nothing (the planner already passes empty ``unique_with`` then).
    """
    return ctx.kernel.relationship_clash(
        tuple(ctx.slots[name] for name in unique_with)
    )


def _compile_node_conflicts(ctx, unique_nodes, unique_segments):
    """Node-isomorphism clash check against the chain's earlier nodes.

    With no variable-length segments before this step the check compares
    the candidate against a few slots directly; otherwise it seeds a
    visited set — built once per row (memoised on the row's identity,
    since one Expand probes many relationships of the same row) — that
    includes the segments' reconstructed intermediate nodes.  Returns
    ``(node, row) -> bool`` or None when moot.
    """
    if not unique_segments:
        return ctx.kernel.node_clash(
            tuple(ctx.slots[name] for name in unique_nodes)
        )
    if not ctx.kernel.morphism.forbids_repeated_nodes:
        return None
    kernel = ctx.kernel
    node_slots = tuple(ctx.slots[name] for name in unique_nodes)
    segment_slots = tuple(
        (ctx.slots[from_name], ctx.slots[rel_name])
        for from_name, rel_name in unique_segments
    )
    other_end = ctx.graph.other_end
    cache = {"row": None, "visited": None}

    def clashes(node, row):
        if cache["row"] is not row:
            cache["row"] = row
            cache["visited"] = kernel.visited_nodes(
                node_slots, segment_slots, row, other_end
            )
        return node in cache["visited"]

    def reset():
        cache["row"] = cache["visited"] = None

    ctx.compiler.memo_resets.append(reset)
    return clashes


# -- node sources -----------------------------------------------------------

def _access_record(ctx, op, entry, variable=None, **tallies):
    """Append ``op``'s access-path record to the context's log.

    ``tallies`` are live counters the record also shows; like
    ``actual_rows`` they start every run at zero (a tally belongs to a
    memo its scan resets).
    """
    record = {
        "operator": type(op).__name__,
        "variable": op.variable if variable is None else variable,
        "entry": entry,
        "estimated_rows": getattr(op, "estimated_rows", None),
        "actual_rows": 0,
        **tallies,
    }
    ctx.access_log.append(record)
    return record


def _profiled_scan(ctx, op, entry, run, variable=None):
    """Wrap a scan in an emitted-row counter when profiling is on.

    ``entry`` names the chosen access path (index vs label scan — the
    cost model's observable decision).  Without an access log the run
    closure is returned untouched, so normal executions pay nothing.
    """
    if ctx.access_log is None:
        return run
    record = _access_record(ctx, op, entry, variable)

    def counted(argument):
        for row in run(argument):
            record["actual_rows"] += 1
            yield row

    return counted


def _compile_all_nodes_scan(op, ctx):
    child = _compile(op.child, ctx)
    nodes = ctx.graph.nodes
    slot = ctx.slots[op.variable]
    ok = _compile_node_ok(ctx, op.node_pattern)

    def run(argument):
        for row in child(argument):
            for node in nodes():
                if ok is None or ok(node, row):
                    out = row[:]
                    out[slot] = node
                    yield out

    return _profiled_scan(ctx, op, "all nodes", run)


def _compile_label_scan(op, ctx):
    child = _compile(op.child, ctx)
    nodes_with_label = ctx.graph.nodes_with_label
    label = op.label
    slot = ctx.slots[op.variable]
    ok = _compile_node_ok(ctx, op.node_pattern, granted_label=label)

    def run(argument):
        for row in child(argument):
            for node in nodes_with_label(label):
                if ok is None or ok(node, row):
                    out = row[:]
                    out[slot] = node
                    yield out

    return _profiled_scan(ctx, op, "label scan :%s" % label, run)


def _index_probe(ctx, op):
    """``(row -> candidate ids, entry label)`` for an IndexScan.

    The single home of the probe semantics, shared verbatim by the row
    and batch engines: the store treats a null or NaN anywhere in an
    equality prefix as never-true (no candidates), a null ``IN`` list
    matches nothing, a non-list ``IN`` container raises exactly the
    compiled ``IN``'s type error, and candidate lists come back
    id-ordered from the store.
    """
    graph = ctx.graph
    label, keys = op.label, op.index_keys
    probes = [ctx.compile(probe) for probe in op.probes]
    where = ":%s(%s)" % (label, ",".join(keys))
    if op.many:
        (probe,) = probes
        lookup_many = graph.index_lookup_many

        def candidates(row):
            values = probe(row)
            if values is None:
                return ()
            if not isinstance(values, list):
                raise CypherTypeError(
                    "IN requires a list, got %r" % (values,)
                )
            return lookup_many(label, keys, values)

        return candidates, "index IN " + where
    index_probe = graph.index_probe

    def candidates(row):
        return index_probe(
            label, keys, tuple([probe(row) for probe in probes])
        )

    entry = "index seek " + where
    if len(probes) < len(keys):
        entry += " prefix(%d)" % len(probes)
    return candidates, entry


def _index_range_probe(ctx, op):
    """``(row -> candidate ids, entry label)`` for an IndexRangeScan.

    Exact, so the planner may drop the range conjuncts from the residual
    Filter.  Null anywhere in the equality prefix, a null bound or a
    null ``STARTS WITH`` operand means the predicate can never be true,
    so the row contributes nothing; the null operand is answered here
    because the store reads a seek with neither bound nor prefix as
    "unsupported".  A bound outside the sorted segments (list, map,
    temporal) makes the store answer ``None``, and the label scan list
    narrowed to the nodes the range is true of stands in for that row
    (:func:`_range_fallback`; the residual still checks the equality
    prefix) — slower, never different.  Shared by both engines, like
    :func:`_index_probe`.
    """
    graph = ctx.graph
    label, keys = op.label, op.index_keys
    probes = [ctx.compile(probe) for probe in op.prefix_probes]
    seek = graph.index_seek_range
    consumed = len(probes)
    where = ":%s(%s)" % (label, ",".join(keys))
    if len(keys) > 1:
        where += " eq(%d)" % consumed
    if op.prefix is not None:
        starts = ctx.compile(op.prefix)

        def candidates(row):
            values = tuple([probe(row) for probe in probes])
            text = starts(row)
            if text is None:
                return ()
            return seek(label, keys, values, None, True, None, True, text)

        return candidates, "index prefix " + where
    bounds = _range_bounds(ctx, op)
    fallback = _range_fallback(graph, label, keys, keys[consumed])

    def candidates(row):
        values = bounds(row)
        if values is None:
            return ()
        ids = seek(
            label, keys, tuple([probe(row) for probe in probes]), *values
        )
        return ids if ids is not None else fallback(values)

    return candidates, "index range " + where


def _range_bounds(ctx, op):
    """``row -> (low, low_inclusive, high, high_inclusive)`` of a range
    scan, or None when a bound is null (the range is true of nothing)."""
    low = ctx.compile(op.low) if op.low is not None else None
    high = ctx.compile(op.high) if op.high is not None else None
    low_inclusive = op.low_inclusive
    high_inclusive = op.high_inclusive

    def bounds(row):
        low_value = high_value = None
        if low is not None:
            low_value = low(row)
            if low_value is None:
                return None
        if high is not None:
            high_value = high(row)
            if high_value is None:
                return None
        return low_value, low_inclusive, high_value, high_inclusive

    return bounds


def _range_fallback(graph, label, keys, column):
    """``bounds -> ids``: the label scan narrowed to the index's answer.

    Stands in for a range probe whose bounds leave the store's sorted
    segments: the label's nodes, id-ordered, with every key column
    non-null (the nodes the index holds) and ``compare``'s verdict true
    against each bound on ``column``.  The planner drops those bounds,
    and ``IS NOT NULL`` on a key, from the residual Filter, so this is
    where they are checked.
    """
    label_ids = graph.label_scan_ids
    node_property = graph.node_property
    others = tuple(key for key in keys if key != column)

    def fallback(bounds):
        low, low_inclusive, high, high_inclusive = bounds
        low_test = greater_equal if low_inclusive else greater
        high_test = less_equal if high_inclusive else less
        kept = []
        for node in label_ids(label):
            value = node_property(node, column)
            if low is not None and low_test(value, low) is not True:
                continue
            if high is not None and high_test(value, high) is not True:
                continue
            if any(node_property(node, key) is None for key in others):
                continue
            kept.append(node)
        return kept

    return fallback


def _index_ordered_probe(ctx, op):
    """``(row -> ordered candidate ids, entry label)`` for ordered scans.

    Enumeration is lazy (a generator per driving row): a downstream
    Limit's budget cuts the index walk off early.  A bound is a literal
    or a lifted literal (see :class:`~repro.planner.logical.
    IndexOrderedScan`), read from the execution's bound parameters per
    driving row; it cannot degrade at runtime — its token kind is part
    of the plan's cache key, and no INTEGER, FLOAT or STRING token
    spells null or NaN — so no fallback path exists here.
    """
    graph = ctx.graph
    label, keys = op.label, op.index_keys
    probes = tuple(ctx.compile(probe) for probe in op.prefix_probes)
    directions = op.directions
    index_ordered = graph.index_ordered
    low, high, prefix = (
        None if bound is None else ctx.compile(bound)
        for bound in (op.low, op.high, op.prefix)
    )
    low_inclusive = op.low_inclusive
    high_inclusive = op.high_inclusive

    def bound_value(bound, row):
        if bound is None:
            return None
        value = bound(row)
        assert value is not None and value == value, "unordered scan bound"
        return value

    def candidates(row):
        return index_ordered(
            label, keys, tuple(probe(row) for probe in probes), directions,
            bound_value(low, row), low_inclusive,
            bound_value(high, row), high_inclusive,
            bound_value(prefix, row),
        )

    order = ",".join(
        "ASC" if ascending else "DESC" for ascending in directions
    )
    return candidates, "index ordered :%s(%s) %s" % (
        label, ",".join(keys), order,
    )


def _compile_probe_scan(op, ctx, candidates, entry):
    """Row-engine scan over per-driving-row index candidate lists.

    Per driving row: evaluate the probe, collect the candidates, then
    apply the pattern's residual node check — the same check the
    label-scan path runs, so over-approximated buckets (unknown-equality
    values) resolve identically.  The probe is only evaluated while the
    label has rows at all, mirroring when the reference path would first
    touch the predicate.
    """
    child = _compile(op.child, ctx)
    label = op.label
    slot = ctx.slots[op.variable]
    ok = _compile_node_ok(ctx, op.node_pattern, granted_label=label)
    has_label_nodes = ctx.graph.has_label_nodes
    fill = _compile_cover_fill(op, ctx)

    def run(argument):
        for row in child(argument):
            if not has_label_nodes(label):
                continue
            for node in candidates(row):
                if ok is None or ok(node, row):
                    out = row[:]
                    out[slot] = node
                    if fill is not None:
                        fill(out, node)
                    yield out

    return _profiled_scan(ctx, op, entry, run)


def _compile_cover_fill(op, ctx):
    """``(row, node) -> None`` writing covered columns, or None.

    A covering scan serves projections straight from the index entry —
    the downstream ExtendedProject reads the synthetic slots instead of
    dereferencing the property map.  Entries only exist for nodes with
    every key column non-null, but the residual node check can admit a
    node through an *over-approximated* bucket whose entry has since
    been recomputed, so a missing entry falls back to the live property
    map — same values, just not served from the index.
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

    def fill(row, node):
        values = getter(node)
        if values is not None:
            for position, _key, cover_slot in targets:
                row[cover_slot] = values[position]
        else:
            node_properties = properties(node)
            for _position, key, cover_slot in targets:
                row[cover_slot] = node_properties.get(key)

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

    def run(argument):
        for row in child(argument):
            node = row[slot]
            if isinstance(node, NodeId) and (ok is None or ok(node, row)):
                yield row

    return run


# -- Expand ------------------------------------------------------------------

def _compile_expand(op, ctx):
    child = _compile(op.child, ctx)
    slots = ctx.slots
    from_slot = slots[op.from_variable]
    rel_slot = slots[op.rel_variable] if op.rel_variable is not None else None
    to_slot = slots[op.to_variable] if op.to_variable is not None else None
    steps = _compile_steps(ctx.graph, op.rel_pattern)
    conflicts = _compile_conflicts(ctx, op.unique_with)
    node_conflicts = _compile_node_conflicts(
        ctx, op.unique_nodes, op.unique_segments
    )
    rel_ok = _compile_rel_ok(ctx, op.rel_pattern)
    node_ok = _compile_node_ok(ctx, op.node_pattern)
    into = op.into

    def run(argument):
        for row in child(argument):
            source = row[from_slot]
            if not isinstance(source, NodeId):
                continue
            for rel, target in steps(source):
                if conflicts is not None and conflicts(rel, row):
                    continue
                if rel_ok is not None and not rel_ok(rel, row):
                    continue
                if node_conflicts is not None and node_conflicts(target, row):
                    continue
                if into and row[to_slot] != target:
                    continue
                if node_ok is not None and not node_ok(target, row):
                    continue
                out = row[:]
                if rel_slot is not None:
                    out[rel_slot] = rel
                if not into and to_slot is not None:
                    out[to_slot] = target
                yield out

    return run


def _compile_var_length_expand(op, ctx, can_end_at=None):
    """Per-row recursive DFS over ``*m..n`` walks, emitted in pre-order.

    ``can_end_at``, a ``(node, target) -> bool`` pruner, is given only
    when the target is bound (``into``): a driving row whose source
    cannot reach its target is dropped, and a continuation that cannot
    end at it is skipped.  A pruned walk would have emitted nothing, so
    the bag and its order are the unpruned walk's.
    """
    child = _compile(op.child, ctx)
    slots = ctx.slots
    from_slot = slots[op.from_variable]
    rel_slot = slots[op.rel_variable] if op.rel_variable is not None else None
    to_slot = slots[op.to_variable] if op.to_variable is not None else None
    steps = _compile_steps(ctx.graph, op.rel_pattern)
    conflicts = _compile_conflicts(ctx, op.unique_with)
    rel_ok = _compile_rel_ok(ctx, op.rel_pattern)
    node_ok = _compile_node_ok(ctx, op.node_pattern)
    into = op.into
    low = op.low
    kernel = ctx.kernel
    morphism = kernel.morphism
    check_unique = bool(morphism.forbids_repeated_relationships)
    check_nodes = bool(morphism.forbids_repeated_nodes)
    unique_node_slots = tuple(ctx.slots[name] for name in op.unique_nodes)
    unique_segment_slots = tuple(
        (ctx.slots[from_name], ctx.slots[rel_name])
        for from_name, rel_name in op.unique_segments
    )
    other_end = ctx.graph.other_end
    cap = kernel.traversal_cap(op.high)
    cancel = ctx.cancel

    def run(argument):
        for row in child(argument):
            source = row[from_slot]
            if not isinstance(source, NodeId):
                continue
            bound = None
            if can_end_at is not None:
                bound = row[to_slot]
                if not isinstance(bound, NodeId) or not can_end_at(
                    source, bound
                ):
                    continue  # no walk from here ends at the target
            results = []
            visited = (
                kernel.visited_nodes(
                    unique_node_slots, unique_segment_slots, row, other_end
                )
                if check_nodes
                else None
            )

            def emit(node, rels, row=row, results=results):
                if into:
                    if row[to_slot] != node:
                        return
                if node_ok is not None and not node_ok(node, row):
                    return
                out = row[:]
                if rel_slot is not None:
                    out[rel_slot] = list(rels)
                if not into and to_slot is not None:
                    out[to_slot] = node
                results.append(out)

            def walk(node, taken, rels, used, row=row, visited=visited,
                     bound=bound):
                if cancel is not None:
                    # Per-step: the frontier can explode combinatorially
                    # before this operator yields its first row.
                    cancel.check()
                if taken >= low:
                    emit(node, rels)
                if cap is not None and taken >= cap:
                    return
                for rel, target in steps(node):
                    if check_unique and (
                        rel in used
                        or (conflicts is not None and conflicts(rel, row))
                    ):
                        continue
                    if rel_ok is not None and not rel_ok(rel, row):
                        continue
                    if check_nodes and target in visited:
                        continue
                    if can_end_at is not None and not can_end_at(target, bound):
                        continue
                    used.add(rel)
                    rels.append(rel)
                    if check_nodes:
                        visited.add(target)
                    walk(target, taken + 1, rels, used)
                    if check_nodes:
                        visited.discard(target)
                    rels.pop()
                    used.discard(rel)

            walk(source, 0, [], set())
            for out in results:
                yield out

    return run


def _compile_reachability_probe(op, ctx):
    """The var-length walk, pruned by a reachability index.

    The index serving ``op``'s type set certifies which nodes can never
    reach (or be reached by) the bound target; the walk itself stays
    the residual bound/uniqueness/property verification.  When the
    executing graph does not expose the index (snapshot views, plain
    stores) this is the plain walk.
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
    return _profiled_scan(
        ctx, op, _reachability_entry(op), run, op.to_variable
    )


def _reachability_pruner(index, forward):
    """``(node, target) -> bool``: can a walk through ``node`` end at
    ``target``?  Forward probes ask the index whether ``node`` reaches
    ``target``; reverse ones whether ``target`` reaches ``node``."""
    reachable = index.reachable
    if forward:
        return reachable
    return lambda node, target: reachable(target, node)


def _reachability_entry(op):
    """The access-path name a profiled ReachabilityProbe reports."""
    return "reachability probe %s (%s)" % (
        "<any>" if op.index_types is None else ":" + "|".join(op.index_types),
        "forward" if op.forward else "reverse",
    )


def _compile_project_path(op, ctx):
    """Assemble the named path of one matched chain (paper Section 4.1).

    Rigid steps read their relationship and target node straight from
    the row; variable-length steps carry a relationship list whose
    intermediate nodes are reconstructed by walking from the previous
    node (each traversed relationship determines its far endpoint).
    Flipped chains — planned from the cheaper end — are reversed back
    into pattern order, which is what the reference matcher produces.
    """
    child = _compile(op.child, ctx)
    slots = ctx.slots
    out_slot = slots[op.variable]
    start_slot = slots[op.start_variable]
    steps = tuple(
        (slots[rel_name], slots[node_name], bool(var_length))
        for rel_name, node_name, var_length in op.steps
    )
    other_end = ctx.graph.other_end
    flip = op.flip

    def run(argument):
        for row in child(argument):
            nodes = [row[start_slot]]
            rels = []
            for rel_slot, node_slot, var_length in steps:
                bound = row[rel_slot]
                if var_length:
                    current = nodes[-1]
                    for rel in bound:
                        current = other_end(rel, current)
                        rels.append(rel)
                        nodes.append(current)
                else:
                    rels.append(bound)
                    nodes.append(row[node_slot])
            path = Path(tuple(nodes), tuple(rels))
            if flip:
                path = path.reverse()
            out = row[:]
            out[out_slot] = path
            yield out

    return run


# -- tuple operators ---------------------------------------------------------

def _compile_filter(op, ctx):
    child = _compile(op.child, ctx)
    predicate = ctx.compile_predicate(op.predicate)

    def run(argument):
        for row in child(argument):
            if predicate(row):
                yield row

    return run


def _compile_project(op, ctx):
    child = _compile(op.child, ctx)
    items = tuple(
        (ctx.slots[name], ctx.compile(expression))
        for name, expression in op.items
    )

    def run(argument):
        for row in child(argument):
            # Closures read the original row while writes land in the
            # copy, so aliases may shadow inputs without corruption.
            out = row[:]
            for slot, compiled in items:
                out[slot] = compiled(row)
            yield out

    return run


def _compile_strip(op, ctx):
    child = _compile(op.child, ctx)
    keep = tuple(ctx.slots[field] for field in op.fields)
    width = len(ctx.slots)

    def run(argument):
        for row in child(argument):
            out = [MISSING] * width
            for slot in keep:
                value = row[slot]
                out[slot] = None if value is MISSING else value
            yield out

    return run


def _compile_distinct(op, ctx):
    child = _compile(op.child, ctx)
    field_slots = tuple(ctx.slots[field] for field in op.fields)

    def run(argument):
        seen = set()
        for row in child(argument):
            key = tuple(
                canonical_key(None if row[slot] is MISSING else row[slot])
                for slot in field_slots
            )
            if key not in seen:
                seen.add(key)
                yield row

    return run


def _compile_aggregate_output(ctx, expression):
    """Fast accumulator loop when the item is exactly one aggregate call.

    Covers the overwhelmingly common ``count(*)``/``sum(x)``-style items;
    anything with surrounding arithmetic or unusual arity drops to the
    record-based ``evaluate_aggregate_item`` fallback.
    """
    from repro.functions.aggregates import _Percentile
    from repro.semantics.clauses import _make_accumulator

    if isinstance(expression, ex.CountStar):

        def count_star(rows):
            accumulator = _make_accumulator(expression)
            include = accumulator.include
            for _row in rows:
                include(True)
            return accumulator.result()

        return count_star
    if (
        isinstance(expression, ex.FunctionCall)
        and expression.name in ex.AGGREGATE_FUNCTION_NAMES
    ):
        if isinstance(_make_accumulator(expression), _Percentile):
            if len(expression.args) != 2:
                return None
            value_of = ctx.compile(expression.args[0])
            percentile_of = ctx.compile(expression.args[1])

            def percentile(rows):
                accumulator = _make_accumulator(expression)
                include_pair = accumulator.include_pair
                for row in rows:
                    include_pair(value_of(row), percentile_of(row))
                return accumulator.result()

            return percentile
        if len(expression.args) != 1:
            return None
        argument_of = ctx.compile(expression.args[0])

        def accumulate(rows):
            accumulator = _make_accumulator(expression)
            include = accumulator.include
            for row in rows:
                include(argument_of(row))
            return accumulator.result()

        return accumulate
    return None


def _compile_aggregate(op, ctx):
    from repro.semantics.clauses import evaluate_aggregate_item

    child = _compile(op.child, ctx)
    slots = ctx.slots
    width = len(slots)
    grouping = tuple(
        (slots[name], ctx.compile(expression))
        for name, expression in op.grouping
    )
    outputs = []
    needs_records = False
    for name, expression in op.aggregates:
        fast = _compile_aggregate_output(ctx, expression)
        if fast is None:
            needs_records = True
        outputs.append((slots[name], expression, fast))
    to_record = slots.to_record
    evaluator = ctx.evaluator

    def run(argument):
        groups = {}
        order = []
        for row in child(argument):
            key_values = [compiled(row) for _slot, compiled in grouping]
            key = tuple(canonical_key(value) for value in key_values)
            entry = groups.get(key)
            if entry is None:
                entry = (key_values, [])
                groups[key] = entry
                order.append(key)
            entry[1].append(row)
        if not groups and not grouping:
            groups[()] = ([], [])
            order.append(())
        for key in order:
            key_values, rows = groups[key]
            out = [MISSING] * width
            for (slot, _compiled), value in zip(grouping, key_values):
                out[slot] = value
            records = (
                [to_record(row) for row in rows] if needs_records else None
            )
            for slot, expression, fast in outputs:
                if fast is not None:
                    out[slot] = fast(rows)
                else:
                    out[slot] = evaluate_aggregate_item(
                        expression, records, evaluator
                    )
            yield out

    return run


def _compile_sort(op, ctx):
    child = _compile(op.child, ctx)
    keys = tuple(
        (ctx.compile(item.expression), bool(item.ascending))
        for item in op.sort_items
    )

    def run(argument):
        rows = list(child(argument))
        # Stable multi-pass sort, least-significant key first, is
        # equivalent to the lexicographic comparator over sort_key()s.
        for compiled, ascending in reversed(keys):
            rows.sort(
                key=lambda row, _compiled=compiled: sort_key(_compiled(row)),
                reverse=not ascending,
            )
        for row in rows:
            yield row

    return run


#: Observable top-k counters: ``pushed`` counts rows ever materialised
#: into a Top heap, ``heap_max`` the largest heap size reached.  The
#: regression tests reset and read these to pin that ``ORDER BY … LIMIT
#: k`` no longer materialises the full sorted table.
TOPK_STATS = {"pushed": 0, "heap_max": 0}


def _heap_item_class(ascending_flags):
    """A heap element class whose ``<`` means *sorts after* (is worse).

    ``heapq`` is a min-heap, so with this ordering the root is always the
    worst retained row: a full heap admits a new row via ``heappushpop``
    exactly when the root is worse than it.  Ties break by sequence
    number (a later row is worse), which reproduces the stable
    Sort + Limit semantics bit for bit.
    """

    class HeapItem:
        __slots__ = ("keys", "seq", "row")

        def __init__(self, keys, seq, row):
            self.keys = keys
            self.seq = seq
            self.row = row

        def __lt__(self, other):
            for mine, theirs, ascending in zip(
                self.keys, other.keys, ascending_flags
            ):
                if mine < theirs:
                    return not ascending
                if theirs < mine:
                    return ascending
            return self.seq > other.seq

    return HeapItem


def _compile_top(op, ctx):
    child = _compile(op.child, ctx)
    keys = tuple(ctx.compile(item.expression) for item in op.sort_items)
    flags = tuple(bool(item.ascending) for item in op.sort_items)
    limit_count = ctx.compile(op.limit)
    skip_count = ctx.compile(op.skip) if op.skip is not None else None
    slots = ctx.slots
    heap_item = _heap_item_class(flags)
    stats = TOPK_STATS

    def run(argument):
        k = _bound_value(limit_count, slots, "LIMIT")
        if skip_count is not None:
            k += _bound_value(skip_count, slots, "SKIP")
        if k == 0:
            return  # LIMIT 0 never pulls the child, like Limit itself
        heap = []
        seq = 0
        for row in child(argument):
            row_keys = tuple(sort_key(compiled(row)) for compiled in keys)
            if len(heap) < k:
                heapq.heappush(heap, heap_item(row_keys, seq, row))
                stats["pushed"] += 1
                if len(heap) > stats["heap_max"]:
                    stats["heap_max"] = len(heap)
            else:
                candidate = heap_item(row_keys, seq, None)
                if heap[0] < candidate:
                    candidate.row = row
                    heapq.heappushpop(heap, candidate)
                    stats["pushed"] += 1
            seq += 1
        for item in sorted(heap, reverse=True):
            yield item.row

    return run


def _bound_value(compiled_count, slots, keyword):
    value = compiled_count(slots.new_row())
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise CypherRuntimeError(
            "%s requires a non-negative integer, got %r" % (keyword, value)
        )
    return value


def _compile_skip(op, ctx):
    child = _compile(op.child, ctx)
    count = ctx.compile(op.count)
    slots = ctx.slots

    def run(argument):
        remaining = _bound_value(count, slots, "SKIP")
        for row in child(argument):
            if remaining > 0:
                remaining -= 1
                continue
            yield row

    return run


def _compile_limit(op, ctx):
    child = _compile(op.child, ctx)
    count = ctx.compile(op.count)
    slots = ctx.slots

    def run(argument):
        budget = _bound_value(count, slots, "LIMIT")
        if budget == 0:
            return
        for row in child(argument):
            yield row
            budget -= 1
            if budget == 0:
                return

    return run


def _compile_unwind(op, ctx):
    child = _compile(op.child, ctx)
    expression = ctx.compile(op.expression)
    slot = ctx.slots[op.alias]

    def run(argument):
        for row in child(argument):
            value = expression(row)
            elements = value if isinstance(value, list) else [value]
            for element in elements:
                out = row[:]
                out[slot] = element
                yield out

    return run


def _compile_optional(op, ctx):
    child = _compile(op.child, ctx)
    inner = _compile(op.inner, ctx)
    pad_slots = tuple(ctx.slots[name] for name in op.pad_names)

    def run(argument):
        for row in child(argument):
            produced = False
            for inner_row in inner(row):
                produced = True
                yield inner_row
            if not produced:
                out = row[:]
                for slot in pad_slots:
                    out[slot] = None
                yield out

    return run


def _compile_union(op, ctx):
    left = _compile(op.left, ctx)
    right = _compile(op.right, ctx)
    if op.all:

        def run_all(argument):
            for row in left(argument):
                yield row
            for row in right(argument):
                yield row

        return run_all
    field_slots = tuple(ctx.slots[field] for field in op.fields)
    width = len(ctx.slots)

    def run(argument):
        seen = set()
        for side in (left, right):
            for row in side(argument):
                key = tuple(
                    canonical_key(None if row[slot] is MISSING else row[slot])
                    for slot in field_slots
                )
                if key not in seen:
                    seen.add(key)
                    out = [MISSING] * width
                    for slot in field_slots:
                        value = row[slot]
                        out[slot] = None if value is MISSING else value
                    yield out

    return run


# -- write operators ---------------------------------------------------------
#
# All mutation flows through the execution's shared StoreTransaction
# (the same kernel the reference executor drives).  Every write operator
# consumes its whole input and settles its writes before emitting the
# first output row: together with the Eager barrier the planner puts in
# front of it, that gives Cypher's snapshot semantics — the clause's
# reads never observe the clause's own writes, while *later* clauses
# (and later rows of the same MERGE) do.


def _compile_eager(op, ctx):
    child = _compile(op.child, ctx)

    def run(argument):
        for row in list(child(argument)):
            yield row

    return run


def _compile_node_spec(ctx, chi, merge):
    """``row -> NodeId`` for one CREATE/MERGE node pattern.

    A bound variable is reused: CREATE insists it carries no extra
    labels or properties, MERGE takes it as-is (the match subplan
    already vetted it).  Unbound patterns create and bind.
    """
    transaction = ctx.transaction()
    slot = ctx.slots[chi.name] if chi.name is not None else None
    name = chi.name
    labels = tuple(chi.labels)
    build_properties = ctx.compiler.compile_property_map(chi.properties)
    constrained = not merge and bool(chi.labels or chi.properties)
    verb = "MERGE through %r" if merge else "cannot CREATE through %r"

    def ensure(row):
        if slot is not None:
            value = row[slot]
            if value is not MISSING:
                if not isinstance(value, NodeId):
                    raise CypherTypeError(
                        (verb + ": bound to %r") % (name, value)
                    )
                if constrained:
                    raise CypherSemanticError(
                        "cannot add labels or properties to the bound "
                        "variable %r inside CREATE" % name
                    )
                return value
        node = transaction.create_node(labels, build_properties(row))
        if slot is not None:
            row[slot] = node
        return node

    return ensure


def _compile_create_path(ctx, path_pattern, merge=False):
    """``row -> None``: instantiate one rigid path, binding new names.

    With ``merge`` the node reuse rule is MERGE's (a bound endpoint is
    taken as-is, labels and all) and an undirected relationship creates
    left-to-right; otherwise CREATE's stricter rules apply.  The row is
    mutated in place (callers pass a fresh copy).
    """
    transaction = ctx.transaction()
    slots = ctx.slots
    elements = path_pattern.elements
    node_specs = [
        _compile_node_spec(ctx, chi, merge) for chi in elements[0::2]
    ]
    rel_specs = []
    for index in range(1, len(elements), 2):
        rho = elements[index]
        rel_specs.append(
            (
                slots[rho.name] if rho.name is not None else None,
                rho.name,
                rho.types[0],
                rho.direction == pt.RIGHT_TO_LEFT,
                ctx.compiler.compile_property_map(rho.properties),
            )
        )
    path_slot = (
        slots[path_pattern.name] if path_pattern.name is not None else None
    )

    def create(row):
        nodes = [node_specs[0](row)]
        rels = []
        current = nodes[0]
        for ensure_node, (rel_slot, rel_name, rel_type, reversed_, props) in zip(
            node_specs[1:], rel_specs
        ):
            next_node = ensure_node(row)
            if reversed_:
                rel = transaction.create_relationship(
                    next_node, current, rel_type, props(row)
                )
            else:
                rel = transaction.create_relationship(
                    current, next_node, rel_type, props(row)
                )
            if rel_slot is not None:
                if merge:
                    if row[rel_slot] is MISSING:
                        row[rel_slot] = rel
                elif row[rel_slot] is not MISSING:
                    raise CypherSemanticError(
                        "relationship variable %r already bound" % rel_name
                    )
                else:
                    row[rel_slot] = rel
            rels.append(rel)
            nodes.append(next_node)
            current = next_node
        if path_slot is not None:
            row[path_slot] = Path(tuple(nodes), tuple(rels))

    return create


#: Expression nodes that can never read the graph: their value depends
#: only on the row, parameters and literals.  Property maps built from
#: these are safe to evaluate *before* the clause's creations land, so
#: CREATE can defer the whole batch into one bulk store call.
_GRAPH_FREE_EXPRESSIONS = (
    ex.Literal,
    ex.Variable,
    ex.Parameter,
    ex.MapLiteral,
    ex.ListLiteral,
    ex.Arithmetic,
    ex.UnaryMinus,
    ex.UnaryPlus,
    ex.Comparison,
    ex.BinaryLogic,
    ex.Not,
    ex.IsNull,
    ex.IsNotNull,
    ex.In,
    ex.StringPredicate,
)


def _graph_free(expression):
    from repro.ast.visitor import walk

    return all(
        isinstance(node, _GRAPH_FREE_EXPRESSIONS) for node in walk(expression)
    )


def _compile_bulk_create(op, ctx):
    """Deferred batch path for ``CREATE (:L {...})``-shaped clauses.

    Applicable when the clause creates exactly one fresh node per row —
    no relationships, no endpoint reuse, no named path — and its
    property expressions cannot read the graph.  Then nothing in the
    clause can observe its own writes, so all property maps evaluate
    first and the nodes land in one bulk store call (single label-index
    and scan-cache touch).  Anything fancier returns None and takes the
    general per-row path.
    """
    if len(op.patterns) != 1:
        return None
    path = op.patterns[0]
    if len(path.elements) != 1 or path.name is not None:
        return None
    chi = path.elements[0]
    if chi.name is not None and chi.name in op.child.fields:
        return None  # possibly bound upstream: reuse semantics applies
    if not all(_graph_free(value) for _key, value in chi.properties):
        return None
    child = _compile(op.child, ctx)
    transaction = ctx.transaction()
    labels = tuple(chi.labels)
    build_properties = ctx.compiler.compile_property_map(chi.properties)
    slot = ctx.slots[chi.name] if chi.name is not None else None

    def run(argument):
        rows = [row[:] for row in child(argument)]
        # Evaluate row-wise so a failing expression still creates the
        # earlier rows' nodes — the same partial state the per-row
        # reference executor leaves behind.
        property_maps = []
        try:
            for row in rows:
                property_maps.append(build_properties(row))
        except BaseException:
            transaction.create_nodes(labels, property_maps)
            raise
        created = transaction.create_nodes(labels, property_maps)
        if slot is not None:
            for row, node in zip(rows, created):
                row[slot] = node
        for row in rows:
            yield row

    return run


def _compile_create(op, ctx):
    bulk = _compile_bulk_create(op, ctx)
    if bulk is not None:
        return bulk
    child = _compile(op.child, ctx)
    create_paths = tuple(
        _compile_create_path(ctx, path) for path in op.patterns
    )

    def run(argument):
        out_rows = []
        for row in child(argument):
            out = row[:]
            for create_path in create_paths:
                create_path(out)
            out_rows.append(out)
        for out in out_rows:
            yield out

    return run


def _compile_set_items(ctx, items):
    """``row -> None`` applying SET/REMOVE items through the transaction."""
    transaction = ctx.transaction()
    graph = ctx.graph
    compiled = []
    for item in items:
        if isinstance(item, cl.SetProperty):
            subject = ctx.compile(item.subject)
            value = ctx.compile(item.value)

            def set_property(row, subject=subject, value=value, key=item.key):
                entity = subject(row)
                if entity is None:
                    return
                if not isinstance(entity, (NodeId, RelId)):
                    raise CypherTypeError("SET expects a node or relationship")
                transaction.set_property(entity, key, value(row))

            compiled.append(set_property)
        elif isinstance(item, cl.SetVariable):
            slot = ctx.slots[item.name]
            value = ctx.compile(item.value)

            def set_variable(
                row, slot=slot, value=value, merge=item.merge, name=item.name
            ):
                entity = row[slot]
                if entity is MISSING or entity is None:
                    return
                if not isinstance(entity, (NodeId, RelId)):
                    raise CypherTypeError("SET expects a node or relationship")
                new_value = value(row)
                if isinstance(new_value, (NodeId, RelId)):
                    new_value = graph.properties(new_value)
                if not isinstance(new_value, dict):
                    raise CypherTypeError(
                        "SET %s = ... expects a map or entity" % name
                    )
                if merge:
                    transaction.merge_properties(entity, new_value)
                else:
                    transaction.replace_properties(entity, new_value)

            compiled.append(set_variable)
        elif isinstance(item, cl.SetLabels):
            slot = ctx.slots[item.name]
            labels = tuple(item.labels)

            def set_labels(row, slot=slot, labels=labels):
                entity = row[slot]
                if entity is MISSING or entity is None:
                    return
                if not isinstance(entity, NodeId):
                    raise CypherTypeError("labels can only be set on nodes")
                for label in labels:
                    transaction.add_label(entity, label)

            compiled.append(set_labels)
        elif isinstance(item, cl.RemoveProperty):
            subject = ctx.compile(item.subject)

            def remove_property(row, subject=subject, key=item.key):
                entity = subject(row)
                if entity is None:
                    return
                if not isinstance(entity, (NodeId, RelId)):
                    raise CypherTypeError(
                        "REMOVE expects a node or relationship"
                    )
                transaction.remove_property(entity, key)

            compiled.append(remove_property)
        elif isinstance(item, cl.RemoveLabels):
            slot = ctx.slots[item.name]
            labels = tuple(item.labels)

            def remove_labels(row, slot=slot, labels=labels):
                entity = row[slot]
                if entity is MISSING or entity is None:
                    return
                if not isinstance(entity, NodeId):
                    raise CypherTypeError(
                        "labels can only be removed from nodes"
                    )
                for label in labels:
                    transaction.remove_label(entity, label)

            compiled.append(remove_labels)
        else:
            raise CypherSemanticError("unknown SET/REMOVE item %r" % (item,))
    applies = tuple(compiled)

    def apply(row):
        for one in applies:
            one(row)

    return apply


def _compile_set(op, ctx):
    child = _compile(op.child, ctx)
    apply = _compile_set_items(ctx, op.items)

    def run(argument):
        rows = list(child(argument))
        for row in rows:
            apply(row)
        for row in rows:
            yield row

    return run


def _compile_remove(op, ctx):
    return _compile_set(op, ctx)


def _compile_delete(op, ctx):
    child = _compile(op.child, ctx)
    transaction = ctx.transaction()
    expressions = tuple(ctx.compile(e) for e in op.expressions)
    detach = op.detach

    def run(argument):
        rows = list(child(argument))
        for row in rows:
            for compiled in expressions:
                transaction.delete_value(compiled(row), detach)
        transaction.flush()
        for row in rows:
            yield row

    return run


def _compile_merge(op, ctx):
    child = _compile(op.child, ctx)
    inner = _compile(op.inner, ctx)
    create_path = _compile_create_path(ctx, op.pattern, merge=True)
    on_create = _compile_set_items(ctx, op.on_create) if op.on_create else None
    on_match = _compile_set_items(ctx, op.on_match) if op.on_match else None

    def run(argument):
        out_rows = []
        for row in child(argument):
            matched = list(inner(row))
            if matched:
                for match_row in matched:
                    out_rows.append(match_row)
                    if on_match is not None:
                        on_match(match_row)
            else:
                out = row[:]
                create_path(out)
                out_rows.append(out)
                if on_create is not None:
                    on_create(out)
        for out in out_rows:
            yield out

    return run


_COMPILERS = {
    lg.Init: _compile_init,
    lg.Argument: _compile_argument,
    lg.AllNodesScan: _compile_all_nodes_scan,
    lg.NodeByLabelScan: _compile_label_scan,
    lg.IndexScan: _compile_index_scan,
    lg.IndexRangeScan: _compile_index_range_scan,
    lg.IndexOrderedScan: _compile_index_ordered_scan,
    lg.NodeCheck: _compile_node_check,
    lg.Expand: _compile_expand,
    lg.VarLengthExpand: _compile_var_length_expand,
    lg.ReachabilityProbe: _compile_reachability_probe,
    lg.ProjectPath: _compile_project_path,
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
    lg.OptionalApply: _compile_optional,
    lg.Union: _compile_union,
    lg.Eager: _compile_eager,
    lg.CreatePattern: _compile_create,
    lg.MergePattern: _compile_merge,
    lg.SetProperties: _compile_set,
    lg.RemoveItems: _compile_remove,
    lg.DeleteEntities: _compile_delete,
}
