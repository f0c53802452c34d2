"""Query results: an ordered table view plus any projected graphs."""

from __future__ import annotations

from repro.exceptions import CypherRuntimeError


class QueryResult:
    """What ``CypherEngine.run`` returns.

    Wraps the result :class:`~repro.semantics.table.Table` with
    convenience accessors, and carries the named graphs produced by
    Cypher 10's RETURN GRAPH (the "table-graphs" of Section 6).

    ``executed_by`` records which execution path produced the rows —
    ``"planner"`` (slotted, compiled) or ``"interpreter"`` (the
    reference tree-walker) — and ``fallback_reason`` says why the
    planner was bypassed (None on the planner path).  Coverage
    regressions show up as unexpected ``"interpreter"`` values; the
    bench harness and the no-fallback tests assert on this.

    On the planner path ``execution_mode`` additionally records *how*
    the plan ran: ``"batch"`` (vectorised morsels over slot columns) or
    ``"row"`` (tuple-at-a-time).  It is None on the interpreter path.
    The TCK runner asserts a plan the batch engine claims
    (:func:`~repro.planner.batch.plan_supports_batch`) never silently
    degrades to ``"row"``.

    ``access_paths`` (populated by ``run(..., profile=True)``) lists one
    record per scan operator — ``{"operator", "variable", "entry",
    "estimated_rows", "actual_rows"}`` — making the cost model's
    index-vs-label-scan decision, and how well its estimate matched
    reality, observable per execution.  None on unprofiled runs.
    """

    def __init__(
        self,
        table,
        graphs=None,
        plan=None,
        executed_by=None,
        fallback_reason=None,
        execution_mode=None,
        access_paths=None,
    ):
        self._table = table
        self.graphs = dict(graphs or {})
        self.plan = plan
        self.executed_by = executed_by
        self.fallback_reason = fallback_reason
        self.execution_mode = execution_mode
        self.access_paths = access_paths

    # -- table access -------------------------------------------------------

    @property
    def columns(self):
        """Output field names, in projection order."""
        return list(self._table.fields)

    @property
    def records(self):
        """All rows as dicts (row order preserved)."""
        return self._table.to_records()

    @property
    def table(self):
        """The underlying bag-of-records table."""
        return self._table

    def values(self, column=None):
        """One column as a list; defaults to the only column."""
        if column is None:
            if len(self._table.fields) != 1:
                raise CypherRuntimeError(
                    "values() without a column needs a single-column result"
                )
            column = self._table.fields[0]
        if column not in self._table.fields:
            raise CypherRuntimeError("no column %r in result" % (column,))
        return self._table.column(column)

    def single(self):
        """The only record; raises unless exactly one row was produced."""
        if len(self._table.rows) != 1:
            raise CypherRuntimeError(
                "expected exactly one record, got %d" % len(self._table.rows)
            )
        return dict(self._table.rows[0])

    def value(self, column=None):
        """The single value of a single-row result."""
        record = self.single()
        if column is None:
            if len(record) != 1:
                raise CypherRuntimeError(
                    "value() without a column needs a single-column result"
                )
            return next(iter(record.values()))
        return record[column]

    def graph(self, name=None):
        """A graph projected by RETURN GRAPH (Cypher 10)."""
        if name is None:
            if len(self.graphs) != 1:
                raise CypherRuntimeError(
                    "result carries %d graphs; name one" % len(self.graphs)
                )
            return next(iter(self.graphs.values()))
        if name not in self.graphs:
            raise CypherRuntimeError("no graph %r in result" % (name,))
        return self.graphs[name]

    # -- protocol ----------------------------------------------------------

    def __len__(self):
        return len(self._table)

    def __iter__(self):
        return iter(self._table.to_records())

    def __repr__(self):
        return "QueryResult(columns={}, rows={})".format(
            self.columns, len(self._table)
        )

    def pretty(self, limit=20):
        return self._table.pretty(limit)
