"""Parallel morsel execution: partitioned scans, worker segments, and
deterministic partial-state merge.

The batch engine (:mod:`repro.planner.batch`) already executes read
plans as morsel streams; this module runs several of those streams at
once.  A claimed plan splits into three pieces:

* the **source scan** — the plan's bottom-most operator above ``Init``.
  Its candidate list (all nodes, a label's scan list, or an index
  probe's result, evaluated once on the gather side) is cut into
  contiguous chunks; each chunk becomes a :class:`PartitionScan`, so
  every worker enumerates its slice with the scan's own residual checks
  applied per node, in list order.
* the **worker segment** — the maximal run of morsel-local operators
  above the source (``Filter`` / ``ExtendedProject`` / ``Expand`` /
  ``VarLengthExpand`` / mid-chain scans / ``Unwind`` / ``Strip`` /
  ``NodeCheck``).  These are embarrassingly parallel: each preserves
  per-input order, so the concatenation of the partition streams *in
  partition order* is bitwise the serial stream.
* the **gather** — everything above.  If the first non-pipelined
  operator is ``Aggregate`` / ``Sort`` / ``Top`` / ``Distinct``, the
  workers compute *partial states* for it and the gather merges them
  deterministically (see the ``_*_partial`` / ``_*_merge`` pairs below
  for the exact replay argument); otherwise the gather simply
  concatenates.  The remaining tail operators — including ``Skip`` /
  ``Limit``, further aggregates, anything batch-claimed — compile with
  the ordinary batch compilers over the merged stream, which by the
  order argument above is the serial stream.

**Determinism is load-bearing, not best-effort**: every merge consumes
worker results in partition order (the scheduler contract), so two runs
— and a run against the serial batch engine — produce identical tables,
row order included.  The differential harness holds parallel execution
to row-engine bags at several worker counts and morsel sizes.

:func:`plan_supports_parallel` is a published claim with the same
discipline as :func:`~repro.planner.batch.plan_supports_batch`: an
engine configured for parallelism *must* run a claimed plan through the
exchange when its mode pins it, and the execution's
``QueryResult.parallelism`` records partitions and worker threads, so
silent serial fallback is testable.

The cost gate lives in :func:`repro.planner.cost.estimated_source_rows`:
in ``auto`` mode a plan only fans out when the source scan's estimated
candidate count clears the engine's ``parallel_threshold`` — a fan-out
over a handful of rows pays repartition cost for nothing (the
functional-dependency output bounds of PAPERS.md are the planner-side
rationale: parallelism pays in proportion to the rows the segment, not
the tail, must touch).

Snapshot pins make the consistency contract trivial to honour (the
F-snapshot problem of PAPERS.md): workers share one graph object that
is either the live store outside any write transaction or a
:class:`~repro.graph.snapshot.SnapshotGraph` pinned to one committed
version; no worker can observe a mid-transaction version because
executions never run concurrently with the owning session's writes.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.planner import logical as lg
from repro.planner import batch as bt
from repro.planner.batch import (
    BatchContext,
    DEFAULT_MORSEL_SIZE,
    _aggregate_outputs,
    _bound_columns,
    _canonical_column,
    _compile,
    _compile_scan,
    _concat,
    _materialize,
    _profiled_batch_scan,
    _select,
    plan_supports_batch,
)
from repro.planner.physical import (
    _bound_value,
    _heap_item_class,
    _index_ordered_probe,
    _index_probe,
    _index_range_probe,
)
from repro.planner.slots import SlotMap
from repro.runtime.cancel import AbortToken, Cancellation
from repro.semantics.compile import MISSING
from repro.semantics.table import Table
from repro.values.ordering import canonical_key, sort_key

#: Minimum candidate rows per partition (clamped down to the morsel
#: size, so tiny test graphs still fan out when asked to): below this,
#: extra partitions only buy per-task compile overhead.
PARALLEL_MIN_CHUNK = 512

#: Default ``parallel_threshold``: source scans estimated under this
#: stay serial in ``auto`` mode.  Two minimum-size partitions' worth.
DEFAULT_PARALLEL_THRESHOLD = 2 * PARALLEL_MIN_CHUNK

_SOURCES = (
    lg.AllNodesScan, lg.NodeByLabelScan, lg.IndexScan, lg.IndexRangeScan,
    lg.IndexOrderedScan,
)
#: Morsel-local operators: per-input-order preserving, no cross-morsel
#: state — safe inside a worker segment (mid-chain scans re-enumerate
#: per driving row, which partitions trivially).
_PIPELINED = (
    lg.Filter, lg.ExtendedProject, lg.Strip, lg.NodeCheck, lg.Expand,
    lg.VarLengthExpand, lg.Unwind,
) + _SOURCES
#: Stateful operators the workers compute partial states for.
_PARTIAL = (lg.Aggregate, lg.Sort, lg.Top, lg.Distinct)

_MERGE_NAMES = {
    lg.Aggregate: "aggregate",
    lg.Sort: "sort",
    lg.Top: "top",
    lg.Distinct: "distinct",
}


# ---------------------------------------------------------------------------
# The claim
# ---------------------------------------------------------------------------

def _linearize(plan):
    """Root→leaf operator list of a single-child chain, or None."""
    chain = []
    op = plan
    while True:
        chain.append(op)
        children = op._children()
        if not children:
            return chain
        if len(children) != 1:
            return None
        op = children[0]


def plan_supports_parallel(plan):
    """True when this plan can run through the exchange.

    Published-claim discipline, memoised on the plan object exactly
    like ``plan_supports_batch`` (which it implies): the chain must be
    linear, bottom out in a partitionable source scan over ``Init``,
    and consist solely of batch-claimed operators — which, given the
    batch claim, it then does.  An engine whose mode pins parallelism
    must run a claimed plan multi-worker; the differential tests assert
    the recorded partition counts.
    """
    cached = getattr(plan, "_parallel_supported", None)
    if cached is None:
        cached = False
        if plan_supports_batch(plan):
            chain = _linearize(plan)
            cached = (
                chain is not None
                and len(chain) >= 2
                and isinstance(chain[-1], lg.Init)
                and isinstance(chain[-2], _SOURCES)
            )
        object.__setattr__(plan, "_parallel_supported", cached)
    return cached


def _split(plan):
    """``(worker_ops, partial, tail_ops, source)`` for a claimed plan.

    ``worker_ops`` (root→leaf order) run inside every worker above its
    partition; ``partial`` is the operator whose state the workers
    compute partially (None → plain ordered gather); ``tail_ops``
    (root→leaf) run serially over the merged stream.
    """
    chain = _linearize(plan)
    source = chain[-2]
    index = len(chain) - 3  # operator just above the source scan
    while index >= 0 and isinstance(chain[index], _PIPELINED):
        index -= 1
    partial = None
    if index >= 0 and isinstance(chain[index], _PARTIAL):
        partial = chain[index]
        tail_ops = chain[:index]
    else:
        # Skip/Limit (order-sensitive but stream-order deterministic)
        # or nothing: the cut sits right below, they join the tail.
        tail_ops = chain[:index + 1]
    worker_ops = chain[index + 1:len(chain) - 2]
    return worker_ops, partial, tail_ops, source


# ---------------------------------------------------------------------------
# Partitioned source
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionScan(lg.Operator):
    """One worker's contiguous slice of the source scan's candidates.

    Compiled by the ordinary batch machinery (it registers in the batch
    ``_COMPILERS`` table), reusing the shared chunked-scan kernel — the
    node pattern's residual checks apply per node exactly as the
    original scan would have applied them, in list order.
    """

    child: lg.Operator
    variable: str
    node_pattern: object
    label: Optional[str] = None
    nodes: tuple = ()
    entry: str = "partition"
    estimated_rows: Optional[float] = None
    fields: Tuple[str, ...] = ()
    #: Covering projection carried over from the source index scan:
    #: ``(key, synthetic name)`` pairs plus the index's full key tuple,
    #: so the batch kernel's cover fill works per partition too.
    covered: tuple = ()
    all_keys: tuple = ()

    def _describe_line(self):
        return "PartitionScan({}, {} candidates)".format(
            self.variable, len(self.nodes)
        )

    def _children(self):
        return (self.child,)


def _compile_partition_scan(op, ctx):
    nodes = list(op.nodes)
    return _profiled_batch_scan(
        ctx, op, op.entry,
        _compile_scan(op, ctx, lambda: nodes, granted_label=op.label),
    )


bt._COMPILERS[PartitionScan] = _compile_partition_scan


@dataclass(frozen=True)
class _GatherFeed(lg.Operator):
    """Synthetic tail source replaying the gathered morsel stream."""

    holder: object = None
    fields: Tuple[str, ...] = ()

    def _describe_line(self):
        return "GatherFeed"

    def _children(self):
        return ()


def _compile_gather_feed(op, ctx):
    holder = op.holder

    def run(argument):
        for batch in holder["batches"]:
            yield batch

    return run


bt._COMPILERS[_GatherFeed] = _compile_gather_feed


def _source_candidates(source, ctx):
    """``(candidates, entry, granted_label)`` for the plan's source scan.

    Index probes evaluate once, against the empty driving row — above
    ``Init`` they can only reference parameters — with the row engine's
    "probe only while the label has rows" guard replicated.
    """
    graph = ctx.graph
    if isinstance(source, lg.AllNodesScan):
        return list(graph.all_node_ids()), "all nodes", None
    if isinstance(source, lg.NodeByLabelScan):
        label = source.label
        return (
            list(graph.label_scan_ids(label)),
            "label scan :%s" % label,
            label,
        )
    if isinstance(source, lg.IndexScan):
        candidates_of, entry = _index_probe(ctx, source)
    elif isinstance(source, lg.IndexOrderedScan):
        candidates_of, entry = _index_ordered_probe(ctx, source)
    else:
        candidates_of, entry = _index_range_probe(ctx, source)
    if not graph.has_label_nodes(source.label):
        return [], entry, source.label
    row = [MISSING] * len(ctx.slots)
    return list(candidates_of(row)), entry, source.label


def _partition(candidates, workers, morsel_size):
    """Deterministic contiguous chunks — a pure function of the inputs.

    Chunk count scales with the candidate total (so small inputs stay
    one chunk even when pinned parallel) and caps at twice the worker
    count (enough slack that an uneven chunk cannot idle the pool for
    half the run, few enough that per-task compile cost stays noise).
    """
    total = len(candidates)
    if total == 0 or workers <= 1:
        return [candidates]
    min_chunk = max(1, min(PARALLEL_MIN_CHUNK, morsel_size))
    count = max(1, min(2 * workers, -(-total // min_chunk)))
    base, extra = divmod(total, count)
    chunks = []
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        chunks.append(candidates[start:start + size])
        start += size
    return chunks


# ---------------------------------------------------------------------------
# Worker-side partial states
# ---------------------------------------------------------------------------
#
# Each _X_partial consumes one worker's segment stream and returns a
# partial state; the matching _X_merge combines the states in partition
# order and yields ordinary batches for the tail.  The invariant behind
# every pair: the concatenation of the partition streams in partition
# order IS the serial stream, so a merge that replays contributions in
# that order reproduces the serial operator bit for bit.

def _aggregate_partial(op, ctx):
    """Per-worker grouping with *replayable* partials.

    ``count`` partials are plain integers (addition is exact); every
    other accumulator keeps its **included-value list** instead of a
    running state, because floating-point accumulation is only
    bit-reproducible in one fixed order — the gather concatenates the
    lists in partition order and replays them through a single fresh
    accumulator, which is exactly the value order the serial engine
    fed it.  Group *order* is first-appearance order, per worker; the
    merge interleaves the per-worker orders the same way.
    """
    slots = ctx.slots
    width = len(slots)
    grouping = tuple(
        (slots[name], ctx.columns.compile(expression))
        for name, expression in op.grouping
    )
    outputs, needs_records = _aggregate_outputs(ctx, op.aggregates)
    to_record = slots.to_record

    def new_states():
        return [
            0 if kind == "count" else []
            for _slot, _expression, kind, _fns in outputs
        ]

    def include(states, outputs_meta, n, cols):
        for position, (_s, _e, kind, arg_fns) in enumerate(outputs_meta):
            if kind == "count":
                states[position] += n
            elif kind == "simple":
                states[position].extend(arg_fns[0](n, cols))
            elif kind == "pair":
                states[position].extend(
                    zip(arg_fns[0](n, cols), arg_fns[1](n, cols))
                )

    def consume(stream):
        if not grouping:
            states = new_states()
            records = [] if needs_records else None
            for n, cols in stream:
                include(states, outputs, n, cols)
                if needs_records:
                    bound = _bound_columns(cols)
                    for index in range(n):
                        records.append(
                            to_record(_materialize(cols, bound, index, width))
                        )
            return [()], {(): ([], states, records)}
        groups = {}
        order = []
        append_key = order.append
        single_key = len(grouping) == 1
        for n, cols in stream:
            key_cols = [compiled(n, cols) for _slot, compiled in grouping]
            keyed = [_canonical_column(column) for column in key_cols]
            keys = keyed[0] if single_key else list(zip(*keyed))
            arg_cols = [
                tuple(fn(n, cols) for fn in arg_fns) if arg_fns else ()
                for _slot, _expression, _kind, arg_fns in outputs
            ]
            bound = _bound_columns(cols) if needs_records else None
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
                        states[position].append(arg_cols[position][0][index])
                    elif kind == "pair":
                        states[position].append((
                            arg_cols[position][0][index],
                            arg_cols[position][1][index],
                        ))
                if needs_records:
                    entry[2].append(
                        to_record(_materialize(cols, bound, index, width))
                    )
        return order, groups

    return consume


def _aggregate_merge(op, ctx, results):
    """Replay the per-worker partials in partition order; one batch out."""
    from repro.semantics.clauses import _make_accumulator
    from repro.semantics.clauses import evaluate_aggregate_item

    slots = ctx.slots
    width = len(slots)
    outputs, _needs_records = _aggregate_outputs(ctx, op.aggregates)
    grouping_slots = tuple(slots[name] for name, _e in op.grouping)

    merged = {}
    order = []
    for chunk_order, chunk_groups in results:
        for key in chunk_order:
            values, states, records = chunk_groups[key]
            entry = merged.get(key)
            if entry is None:
                merged[key] = (values, states, records)
                order.append(key)
                continue
            merged_states = entry[1]
            for position, (_s, _e, kind, _fns) in enumerate(outputs):
                if kind == "count":
                    merged_states[position] += states[position]
                else:
                    merged_states[position].extend(states[position])
            if records:
                entry[2].extend(records)
    if not order:
        return  # grouped aggregation over zero rows yields nothing
    out = [None] * width
    for position, slot in enumerate(grouping_slots):
        out[slot] = [merged[key][0][position] for key in order]
    for position, (slot, expression, kind, _fns) in enumerate(outputs):
        column = []
        for key in order:
            _values, states, records = merged[key]
            if kind == "count":
                column.append(states[position])
            elif kind == "simple":
                accumulator = _make_accumulator(expression)
                include = accumulator.include
                for value in states[position]:
                    include(value)
                column.append(accumulator.result())
            elif kind == "pair":
                accumulator = _make_accumulator(expression)
                include_pair = accumulator.include_pair
                for value, percentile in states[position]:
                    include_pair(value, percentile)
                column.append(accumulator.result())
            else:
                column.append(
                    evaluate_aggregate_item(
                        expression, records, ctx.evaluator
                    )
                )
        out[slot] = column
    yield len(order), out


def _sort_partial(op, ctx):
    """Each worker returns its partition fully sorted, keys attached."""
    keys = tuple(
        (ctx.columns.compile(item.expression), bool(item.ascending))
        for item in op.sort_items
    )
    width = len(ctx.slots)

    def consume(stream):
        batches = list(stream)
        if not batches:
            return None
        n, cols = _concat(batches, width)
        keyed_cols = [
            [sort_key(value) for value in compiled(n, cols)]
            for compiled, _ascending in keys
        ]
        order = list(range(n))
        for keyed, (_compiled, ascending) in zip(
            reversed(keyed_cols), reversed(keys)
        ):
            order.sort(key=keyed.__getitem__, reverse=not ascending)
        return (
            n,
            _select(cols, order),
            [[keyed[index] for index in order] for keyed in keyed_cols],
        )

    return consume


def _sort_merge(op, ctx, results):
    """Merge sorted runs: concat in partition order, re-run the passes.

    The expensive work — expression evaluation and ``sort_key``
    canonicalisation — happened in the workers; the gather re-sorts the
    *precomputed* keys.  Correctness: the multi-pass stable sort is the
    serial algorithm, and rows equal on every key keep their gather
    order, which is (partition, in-partition stream) order — the serial
    stream order.  Speed: timsort galloping-merges the pre-sorted runs
    in near-linear time.
    """
    flags = tuple(bool(item.ascending) for item in op.sort_items)
    width = len(ctx.slots)
    results = [result for result in results if result is not None]
    if not results:
        return
    n, cols = _concat([(r[0], r[1]) for r in results], width)
    keyed_cols = [
        [value for result in results for value in result[2][position]]
        for position in range(len(flags))
    ]
    order = list(range(n))
    for keyed, ascending in zip(reversed(keyed_cols), reversed(flags)):
        order.sort(key=keyed.__getitem__, reverse=not ascending)
    yield n, _select(cols, order)


def _top_partial(op, ctx, k):
    """Local top-k per worker — a superset of the global top-k.

    Any row a worker evicts is beaten by k rows of its own partition,
    all of which precede it in the serial stream or outrank it, so it
    cannot be in the global answer.  Candidates come back as heap items
    carrying their local arrival sequence.
    """
    key_fns = tuple(
        ctx.columns.compile(item.expression) for item in op.sort_items
    )
    flags = tuple(bool(item.ascending) for item in op.sort_items)
    heap_item = _heap_item_class(flags)
    width = len(ctx.slots)

    def consume(stream):
        if k == 0:
            return []
        heap = []
        seq = 0
        for n, cols in stream:
            key_cols = [fn(n, cols) for fn in key_fns]
            bound = _bound_columns(cols)
            for index in range(n):
                row_keys = tuple(sort_key(kc[index]) for kc in key_cols)
                if len(heap) < k:
                    heapq.heappush(
                        heap,
                        heap_item(
                            row_keys, seq,
                            _materialize(cols, bound, index, width),
                        ),
                    )
                else:
                    candidate = heap_item(row_keys, seq, None)
                    if heap[0] < candidate:
                        candidate.row = _materialize(
                            cols, bound, index, width
                        )
                        heapq.heappushpop(heap, candidate)
                seq += 1
        return heap

    return consume


def _top_merge(op, ctx, results, k):
    """Re-admit all candidates in (partition, local seq) order.

    Replaying through a fresh heap with composite sequence numbers is
    the serial admission restricted to rows that can still win — same
    keys, same tie-breaks, same final sorted batch.
    """
    if k == 0:
        return
    flags = tuple(bool(item.ascending) for item in op.sort_items)
    heap_item = _heap_item_class(flags)
    width = len(ctx.slots)
    heap = []
    for chunk_index, items in enumerate(results):
        for item in sorted(items, key=lambda entry: entry.seq):
            candidate = heap_item(
                item.keys, (chunk_index, item.seq), item.row
            )
            if len(heap) < k:
                heapq.heappush(heap, candidate)
            elif heap[0] < candidate:
                heapq.heappushpop(heap, candidate)
    if not heap:
        return
    rows = [item.row for item in sorted(heap, reverse=True)]
    out = []
    first = rows[0]
    for slot in range(width):
        if first[slot] is MISSING:
            out.append(None)  # binding is uniform across the stream
        else:
            out.append([row[slot] for row in rows])
    yield len(rows), out


def _distinct_partial(op, ctx):
    """Locally deduplicated batches, canonical keys attached."""
    field_slots = tuple(ctx.slots[field] for field in op.fields)

    def consume(stream):
        seen = set()
        add = seen.add
        null_key = canonical_key(None)
        out = []
        for n, cols in stream:
            key_cols = [
                _canonical_column(cols[slot])
                if cols[slot] is not None
                else None
                for slot in field_slots
            ]
            keep = []
            kept_keys = []
            for index in range(n):
                key = tuple(
                    keyed[index] if keyed is not None else null_key
                    for keyed in key_cols
                )
                if key not in seen:
                    add(key)
                    keep.append(index)
                    kept_keys.append(key)
            if keep:
                out.append((len(keep), _select(cols, keep), kept_keys))
        return out

    return consume


def _distinct_merge(op, ctx, results):
    """Global first-occurrence filter, walked in partition order."""
    seen = set()
    add = seen.add
    for batches in results:
        for n, cols, keys in batches:
            keep = [
                index for index, key in enumerate(keys) if key not in seen
            ]
            for index in keep:
                add(keys[index])
            if not keep:
                continue
            if len(keep) == n:
                yield n, cols
            else:
                yield len(keep), _select(cols, keep)


# ---------------------------------------------------------------------------
# The exchange itself
# ---------------------------------------------------------------------------

def _segment_plan(source, worker_ops, granted, entry, chunk):
    op = PartitionScan(
        child=lg.Init(),
        variable=source.variable,
        node_pattern=source.node_pattern,
        label=granted,
        nodes=tuple(chunk),
        entry=entry,
        estimated_rows=getattr(source, "estimated_rows", None),
        fields=source.fields,
        covered=getattr(source, "covered", ()),
        all_keys=getattr(source, "all_keys", ()),
    )
    for above in reversed(worker_ops):
        op = replace(above, child=op)
    return op


def execute_plan_parallel(
    plan, graph, parameters=None, functions=None, morphism=None,
    morsel_size=None, access_log=None, cancel=None, scheduler=None,
    workers=None,
):
    """Run a parallel-claimed plan through the exchange.

    Returns ``(table, info)`` — the result table (identical to the
    serial batch engine's, row order included) and the parallelism
    record published on ``QueryResult.parallelism``: scheduler name,
    worker count, partition count, per-worker row/morsel counts and the
    thread that ran each partition (the no-silent-serial proof).

    Cancellation: workers poll their own :class:`Cancellation` sharing
    the statement's deadline and an :class:`AbortToken` that relays the
    caller's token and fires when any sibling fails, so one timeout or
    error stops the whole fan-out at the next morsel boundary.
    """
    from repro.runtime.scheduler import SerialScheduler

    if not plan_supports_parallel(plan):
        raise AssertionError(
            "plan is outside the parallel claim; "
            "plan_supports_parallel should have been consulted"
        )
    if scheduler is None:
        scheduler = SerialScheduler()
    workers = workers or getattr(scheduler, "workers", 1)
    slots = SlotMap.from_plan(plan)
    gather_ctx = BatchContext(
        graph, parameters, functions, morphism, slots, morsel_size,
        access_log, cancel,
    )
    worker_ops, partial, tail_ops, source = _split(plan)
    candidates, entry, granted = _source_candidates(source, gather_ctx)
    chunks = _partition(candidates, workers, gather_ctx.morsel_size)
    merge_name = (
        "ordered" if partial is None else _MERGE_NAMES[type(partial)]
    )

    # Top's budget is row-independent above Init; evaluating it here
    # (it can raise, e.g. a negative LIMIT) matches the serial engine's
    # first-pull timing as observed by the caller.
    top_k = None
    if partial is not None and isinstance(partial, lg.Top):
        top_k = _bound_value(
            gather_ctx.compile(partial.limit), slots, "LIMIT"
        )
        if partial.skip is not None:
            top_k += _bound_value(
                gather_ctx.compile(partial.skip), slots, "SKIP"
            )

    # Shared interruption state: needed whenever the caller can cancel
    # or siblings genuinely run concurrently; the one-worker degenerate
    # case stays poll-free, like the plain batch engine without cancel.
    abort = None
    deadline = None
    if cancel is not None or (
        getattr(scheduler, "workers", 1) > 1 and len(chunks) > 1
    ):
        abort = AbortToken(cancel.token if cancel is not None else None)
        deadline = cancel.deadline if cancel is not None else None

    profiling = access_log is not None

    def make_task(chunk):
        def task():
            worker_log = [] if profiling else None
            worker_cancel = (
                Cancellation(deadline, abort) if abort is not None else None
            )
            ctx = BatchContext(
                graph, parameters, functions, morphism, slots,
                gather_ctx.morsel_size, worker_log, worker_cancel,
            )
            segment = _compile(
                _segment_plan(source, worker_ops, granted, entry, chunk),
                ctx,
            )
            stats = {
                "rows": 0, "morsels": 0,
                "thread": threading.get_ident(),
            }

            def counted():
                for n, cols in segment(None):
                    stats["morsels"] += 1
                    stats["rows"] += n
                    yield n, cols

            if partial is None:
                payload = list(counted())
            elif isinstance(partial, lg.Aggregate):
                payload = _aggregate_partial(partial, ctx)(counted())
            elif isinstance(partial, lg.Sort):
                payload = _sort_partial(partial, ctx)(counted())
            elif isinstance(partial, lg.Top):
                payload = _top_partial(partial, ctx, top_k)(counted())
            else:
                payload = _distinct_partial(partial, ctx)(counted())
            return payload, worker_log, stats

        return task

    outcomes = scheduler.run_tasks(
        [make_task(chunk) for chunk in chunks],
        abort=abort.abort if abort is not None else None,
    )
    payloads = [outcome[0] for outcome in outcomes]
    worker_logs = [outcome[1] for outcome in outcomes]
    worker_stats = [outcome[2] for outcome in outcomes]

    if partial is None:
        merged = (batch for batches in payloads for batch in batches)
    elif isinstance(partial, lg.Aggregate):
        merged = _aggregate_merge(partial, gather_ctx, payloads)
    elif isinstance(partial, lg.Sort):
        merged = _sort_merge(partial, gather_ctx, payloads)
    elif isinstance(partial, lg.Top):
        merged = _top_merge(partial, gather_ctx, payloads, top_k)
    else:
        merged = _distinct_merge(partial, gather_ctx, payloads)

    holder = {"batches": merged}
    tail = _GatherFeed(holder=holder, fields=plan.fields)
    for above in reversed(tail_ops):
        tail = replace(above, child=tail)
    tail_source = _compile(tail, gather_ctx)

    fields = plan.fields
    field_slots = [slots[field] for field in fields]
    rows = []
    append = rows.append
    for n, cols in tail_source(None):
        field_cols = [cols[slot] for slot in field_slots]
        for index in range(n):
            record = {}
            for field, col in zip(fields, field_cols):
                value = col[index] if col is not None else None
                record[field] = None if value is MISSING else value
            append(record)

    if profiling:
        _merge_access_logs(
            access_log, source, entry, worker_logs, worker_stats,
            scheduler, workers,
        )

    info = {
        "workers": workers,
        "scheduler": getattr(scheduler, "name", "serial"),
        "partitions": len(chunks),
        "merge": merge_name,
        "source_rows": len(candidates),
        "worker_rows": [stats["rows"] for stats in worker_stats],
        "worker_morsels": [stats["morsels"] for stats in worker_stats],
        "worker_threads": [stats["thread"] for stats in worker_stats],
    }
    return Table(fields, rows), info


def _merge_access_logs(
    access_log, source, entry, worker_logs, worker_stats, scheduler,
    workers,
):
    """Fold per-worker scan records into one serial-shaped profile.

    Workers compile identical segments, so their logs align by
    position; actual row counts sum.  An extra ``Exchange`` record
    carries the per-worker morsel/row counts ``explain --profile``
    prints — the observable that makes silent serial fallback (one
    partition where many were expected) detectable.
    """
    positions = max((len(log) for log in worker_logs), default=0)
    for position in range(positions):
        records = [
            log[position] for log in worker_logs if len(log) > position
        ]
        template = dict(records[0])
        if position == 0:
            # The partition scans stand in for the original source scan.
            template["operator"] = type(source).__name__
            template["entry"] = entry
            template["estimated_rows"] = getattr(
                source, "estimated_rows", None
            )
        template["actual_rows"] = sum(
            record["actual_rows"] for record in records
        )
        access_log.append(template)
    access_log.append({
        "operator": "Exchange",
        "variable": source.variable,
        "entry": "gather(%s, workers=%d)" % (
            getattr(scheduler, "name", "serial"), workers
        ),
        "estimated_rows": None,
        "actual_rows": sum(stats["rows"] for stats in worker_stats),
        "partitions": len(worker_stats),
        "worker_rows": [stats["rows"] for stats in worker_stats],
        "worker_morsels": [stats["morsels"] for stats in worker_stats],
    })


# ---------------------------------------------------------------------------
# Explain surface
# ---------------------------------------------------------------------------

def describe_parallel(
    plan, workers, scheduler_name="thread", graph=None, morsel_size=None,
):
    """The plan as it would run through the exchange, for ``explain``.

    Rebuilds the operator tree with :class:`~repro.planner.logical.
    Exchange` and :class:`~repro.planner.logical.Gather` nodes at the
    split — a partial operator renders *inside* the exchange (its state
    is computed per worker) with the gather naming the merge it
    performs.  Partition count is the cost model's estimate when a
    graph is supplied, since nothing executes here.
    """
    worker_ops, partial, tail_ops, source = _split(plan)
    partitions = None
    if graph is not None:
        from repro.planner.cost import estimated_source_rows

        estimate = estimated_source_rows(plan, graph)
        if estimate is not None:
            morsel = morsel_size or DEFAULT_MORSEL_SIZE
            min_chunk = max(1, min(PARALLEL_MIN_CHUNK, morsel))
            partitions = max(
                1,
                min(2 * max(1, workers), int(-(-estimate // min_chunk))),
            )
    segment = source
    for above in reversed(worker_ops):
        segment = replace(above, child=segment)
    merge_name = (
        "ordered" if partial is None else _MERGE_NAMES[type(partial)]
    )
    if partial is not None:
        segment = replace(partial, child=segment)
    node = lg.Gather(
        child=lg.Exchange(
            child=segment,
            workers=workers,
            partitions=partitions,
            scheduler=scheduler_name,
        ),
        merge=merge_name,
        fields=plan.fields,
    )
    for above in reversed(tail_ops):
        node = replace(above, child=node)
    return node
