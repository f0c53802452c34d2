"""Slot assignment: fixed integer positions for every plan variable.

The slotted execution engine (paper Section 2's "physical planning"
turned up to production idiom: Neo4j's enterprise runtime calls this
*slotted runtime*) replaces per-row dicts with flat Python lists.  At
plan time every variable that can ever be bound — visible fields, hidden
``#``-prefixed pattern bindings, projection aliases, aggregation outputs
— is assigned one integer slot; operators then read and write
``row[slot]`` instead of hashing names, and copying a row is a flat
``row[:]`` instead of rebuilding a dict.

A slot holding :data:`~repro.semantics.compile.MISSING` is *unassigned*
(the dict row simply had no such key), which is distinct from holding
``None`` (the variable is bound to Cypher null, e.g. by OPTIONAL MATCH
padding).  Rows convert back to records only at the Table boundary and
for fallback expression evaluation (:meth:`SlotMap.to_record`).

Besides plan variables, the layout reserves *scratch slots* for every
name an expression binds internally — comprehension / quantifier /
``reduce`` variables.
The expression compiler writes the inner value into the scratch slot,
evaluates the compiled body, and restores the previous value, so inner
scopes shadow outer bindings exactly as the tree walker's nested records
do.  Collecting them up front keeps the row width fixed for the whole
execution (operators capture it at compile time).
"""

from __future__ import annotations

from repro.planner import logical as lg
from repro.semantics.compile import MISSING


class SlotMap:
    """An ordered ``name -> slot index`` assignment for one plan."""

    __slots__ = ("_index",)

    def __init__(self, names=()):
        self._index = {}
        for name in names:
            self.add(name)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_plan(cls, plan):
        """Assign a slot to every name any operator of ``plan`` touches.

        The name collection walks the whole operator tree *and* every
        expression AST (for scratch names), which would dominate small
        cached-plan re-runs; the result is memoised on the plan object
        (the ``cached_property``-on-frozen-dataclass idiom — plans are
        immutable, so the derived name list is too).
        """
        names = getattr(plan, "_slot_names", None)
        if names is None:
            names = tuple(collect_plan_names(plan))
            object.__setattr__(plan, "_slot_names", names)
        return cls(names)

    def add(self, name):
        """Ensure ``name`` has a slot; returns its index."""
        index = self._index.get(name)
        if index is None:
            index = len(self._index)
            self._index[name] = index
        return index

    # -- lookup ------------------------------------------------------------

    def __len__(self):
        return len(self._index)

    def __contains__(self, name):
        return name in self._index

    def __getitem__(self, name):
        return self._index[name]

    def index_of(self, name):
        """The slot of ``name``, or None if it was never assigned one."""
        return self._index.get(name)

    def names(self):
        """All assigned names, in slot order."""
        return tuple(self._index)

    # -- rows --------------------------------------------------------------

    def new_row(self):
        """A fresh all-unassigned row."""
        return [MISSING] * len(self._index)

    def to_record(self, row):
        """The dict record equivalent of a slotted row.

        Unassigned slots are omitted (the record has no such key), so
        fallback evaluation and the reference :class:`Evaluator` see
        exactly the scoping a dict-based executor would have produced.
        """
        record = {}
        for name, index in self._index.items():
            value = row[index]
            if value is not MISSING:
                record[name] = value
        return record

    def __repr__(self):
        return "SlotMap({})".format(
            ", ".join("%s=%d" % item for item in self._index.items())
        )


def collect_plan_names(plan):
    """Every variable name any operator of the plan can bind or read.

    Deterministic (pre-order, left to right), so slot layouts are stable
    across runs of the same plan.  Includes the scratch names of every
    expression reachable from the plan, so the row width is final before
    the first operator compiles.
    """
    names = []
    seen = set()

    def add(name):
        if name is not None and name not in seen:
            seen.add(name)
            names.append(name)

    def add_expression(expression):
        if expression is not None:
            for name in expression_scratch_names(expression):
                add(name)

    def add_pattern_properties(pattern):
        for _key, expression in pattern.properties:
            add_expression(expression)

    def add_set_items(items):
        from repro.ast import clauses as cl

        for item in items:
            if isinstance(item, (cl.SetProperty, cl.RemoveProperty)):
                add_expression(item.subject)
                if isinstance(item, cl.SetProperty):
                    add_expression(item.value)
            elif isinstance(item, cl.SetVariable):
                add(item.name)
                add_expression(item.value)
            elif isinstance(item, (cl.SetLabels, cl.RemoveLabels)):
                add(item.name)

    def add_path_pattern(path):
        add(path.name)
        for element in path.elements:
            add(element.name)
            add_pattern_properties(element)

    def walk(op):
        for field in op.fields:
            add(field)
        if isinstance(op, (lg.AllNodesScan, lg.NodeByLabelScan, lg.NodeCheck)):
            add(op.variable)
            add_pattern_properties(op.node_pattern)
        elif isinstance(op, lg.IndexScan):
            add(op.variable)
            add_pattern_properties(op.node_pattern)
            for probe in op.probes:
                add_expression(probe)
        elif isinstance(op, (lg.IndexRangeScan, lg.IndexOrderedScan)):
            add(op.variable)
            add_pattern_properties(op.node_pattern)
            add_expression(op.low)
            add_expression(op.high)
            add_expression(op.prefix)
            for probe in op.prefix_probes:
                add_expression(probe)
        elif isinstance(op, (lg.Expand, lg.VarLengthExpand)):
            add(op.from_variable)
            add(op.to_variable)
            add(op.rel_variable)
            for name in op.unique_with:
                add(name)
            for name in op.unique_nodes:
                add(name)
            add_pattern_properties(op.rel_pattern)
            add_pattern_properties(op.node_pattern)
        elif isinstance(op, lg.ProjectPath):
            add(op.variable)
            add(op.start_variable)
            for rel_name, node_name, _var_length in op.steps:
                add(rel_name)
                add(node_name)
        elif isinstance(op, lg.Unwind):
            add(op.alias)
            add_expression(op.expression)
        elif isinstance(op, lg.Filter):
            add_expression(op.predicate)
        elif isinstance(op, lg.ExtendedProject):
            for name, expression in op.items:
                add(name)
                add_expression(expression)
        elif isinstance(op, lg.Aggregate):
            for name, expression in op.grouping:
                add(name)
                add_expression(expression)
            for name, expression in op.aggregates:
                add(name)
                add_expression(expression)
        elif isinstance(op, lg.Sort):
            for item in op.sort_items:
                add_expression(item.expression)
        elif isinstance(op, lg.Top):
            for item in op.sort_items:
                add_expression(item.expression)
            add_expression(op.limit)
            add_expression(op.skip)
        elif isinstance(op, (lg.Skip, lg.Limit)):
            add_expression(op.count)
        elif isinstance(op, lg.OptionalApply):
            for name in op.pad_names:
                add(name)
        elif isinstance(op, lg.CreatePattern):
            for path in op.patterns:
                add_path_pattern(path)
        elif isinstance(op, lg.MergePattern):
            add_path_pattern(op.pattern)
            add_set_items(op.on_create)
            add_set_items(op.on_match)
        elif isinstance(op, (lg.SetProperties, lg.RemoveItems)):
            add_set_items(op.items)
        elif isinstance(op, lg.DeleteEntities):
            for expression in op.expressions:
                add_expression(expression)
        for child in op._children():
            walk(child)

    walk(plan)
    return names


def expression_scratch_names(expression):
    """Names an expression binds in inner scopes, in discovery order.

    Comprehension / quantifier / ``reduce`` variables.  Each needs a
    slot so the compiled closures can shadow and restore without
    resizing rows.  Pattern-shaped expressions evaluate through the
    reference Evaluator over a record, so their free variables need
    none.
    """
    from repro.ast import expressions as ex
    from repro.ast.visitor import walk

    names = []
    for node in walk(expression):
        if isinstance(node, (ex.ListComprehension, ex.QuantifiedPredicate)):
            names.append(node.variable)
        elif isinstance(node, ex.Reduce):
            names.append(node.accumulator)
            names.append(node.variable)
    return names
