"""Compile expression ASTs into slot-indexed Python closures.

The tree-walking :class:`~repro.semantics.expressions.Evaluator` re-visits
every AST node, re-dispatches on node type and re-resolves variable names
for every row.  The planner executes the same expression over thousands
of rows, so :class:`ExpressionCompiler` performs that work once per plan:

* every AST node becomes one nested closure, specialised for its node
  type (dispatch happens at compile time, not per row);
* variables become integer slot reads against the slotted rows of
  :mod:`repro.planner.slots` (see :data:`MISSING`);
* scalar literals are folded, constant arithmetic is pre-evaluated where
  safe, and literal regular expressions are pre-compiled;
* null/ternary semantics are reproduced *exactly* — each closure mirrors
  the corresponding ``Evaluator`` method.

Constructs that bind *inner* variables — list comprehensions,
quantifiers, ``reduce`` — compile to *scratch slots*: the inner name is
allocated a slot up front (see
:func:`repro.planner.slots.collect_plan_names`), the compiled closure
writes each candidate value into it, evaluates the compiled body, and
restores the previous value, so shadowing behaves exactly like the tree
walker's nested records.  Pattern-shaped expressions (pattern
predicates, EXISTS subqueries, pattern comprehensions) and any other
uncovered node type fall back to the Evaluator over a converted record:
the reference matcher is the only one, and the row compiler keeps no
copy of it.  Aggregate calls are compiled separately by the physical
``Aggregate`` operator; reaching one here raises, exactly as the tree
walker does outside WITH/RETURN.
"""

from __future__ import annotations

import operator
import re
from itertools import compress, repeat

from repro.ast import expressions as ex
from repro.exceptions import (
    CypherError,
    CypherRuntimeError,
    CypherSemanticError,
    CypherTypeError,
    ParameterNotBound,
)
from repro.semantics.expressions import _as_ternary, apply_arithmetic
from repro.values.base import NodeId, RelId
from repro.values.comparison import (
    and3,
    compare,
    equals,
    not3,
    not_equals,
    or3,
    xor3,
)


class _Missing:
    """Sentinel marking an unassigned slot (distinct from Cypher null)."""

    __slots__ = ()

    def __repr__(self):
        return "MISSING"


#: The single unassigned-slot marker shared by slots, compiler, executor.
MISSING = _Missing()

#: Scalar types that are safe to share across rows when constant-folding.
_FOLDABLE_SCALARS = (bool, int, float, str)

#: Native operators for the int-int fast paths in compiled closures.
_NATIVE_INEQUALITIES = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
_NATIVE_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
}


def _constant(value):
    """A closure returning ``value``, tagged so parents can fold it."""

    def const(row):
        return value

    const.constant_value = (value,)  # 1-tuple so None/False survive the tag
    return const


def _constant_of(compiled):
    """The ``(value,)`` tag of a compiled constant, or None."""
    return getattr(compiled, "constant_value", None)


class ExpressionCompiler:
    """Compiles expressions against one slot layout and one evaluator.

    The evaluator supplies the graph, parameters, function registry and
    the fallback path; the slot map supplies variable positions and the
    slot-row → record conversion the fallback needs.

    ``read_only=True`` enables common-subexpression elimination on
    property reads (the :class:`ColumnCompiler` below has always done
    this; the row path is at parity now): every ``n.key`` over a plain
    variable compiles to *one shared closure* per ``(variable, key)``
    pair, and that closure memoises its last ``(subject, result)`` —
    compared by identity, so a predicate and a projection both touching
    ``n.age`` hit the store once per row, not once per occurrence.  The
    memo is only sound when nothing mutates properties mid-statement,
    hence the flag: write plans keep the uncached closure.

    Compiled closures may outlive one execution (the planner parks them
    with the plan), so every memo a compilation creates registers a
    zero-argument reset in :attr:`memo_resets`; whoever keeps the
    closures calls them between executions.  The row memo compares
    ``NodeId`` *identity* and the store's scan lists hand out the same
    objects run after run, so an unreset memo would answer a later run
    with a value read before an intervening write.
    """

    def __init__(self, evaluator, slots, read_only=False):
        self.evaluator = evaluator
        self.slots = slots
        self.graph = evaluator.graph
        self.read_only = read_only
        self._cache = {}
        #: Shared property-read closures, keyed ``(variable, key)``;
        #: only populated under ``read_only``.
        self._property_readers = {}
        #: One reset callable per value memo compiled so far (the column
        #: compiler layered on this one registers its memos here too).
        self.memo_resets = []

    # ------------------------------------------------------------------

    def compile(self, expression):
        """A function ``row -> value`` equivalent to ``[[expression]]``."""
        key = id(expression)
        compiled = self._cache.get(key)
        if compiled is None:
            compiled = self._dispatch(expression)
            self._cache[key] = compiled
        return compiled

    def compile_predicate(self, expression):
        """WHERE semantics: ``row -> bool`` (strict ``is True`` test)."""
        compiled = self.compile(expression)

        def predicate(row):
            return compiled(row) is True

        return predicate

    def compile_property_map(self, properties):
        """A ``row -> dict`` closure for a pattern's inline property map.

        Used by the write operators (CREATE/MERGE instantiation): each
        value expression compiles once, and the returned dict feeds the
        store transaction, which validates and drops nulls exactly as
        the tree-walking executor's per-row evaluation did.
        """
        items = tuple(
            (key, self.compile(expression)) for key, expression in properties
        )
        if not items:
            def empty(row):
                return {}

            return empty

        def build(row):
            return {key: compiled(row) for key, compiled in items}

        return build

    # ------------------------------------------------------------------

    def _dispatch(self, expression):
        method = _COMPILERS.get(type(expression))
        if method is None:
            return self._fallback(expression)
        return method(self, expression)

    def _fallback(self, expression):
        """Tree-walk an uncovered construct over a converted record."""
        evaluate = self.evaluator.evaluate
        to_record = self.slots.to_record

        def walk(row):
            return evaluate(expression, to_record(row))

        return walk

    # -- leaves ------------------------------------------------------------

    def _literal(self, node):
        # The tree walker also returns node.value itself, so sharing the
        # object across rows is the established semantics.
        return _constant(node.value)

    def _variable(self, node):
        name = node.name
        slot = self.slots.index_of(name)
        if slot is None:

            def unbound(row):
                raise CypherSemanticError("variable not in scope: %s" % name)

            return unbound

        def var(row):
            value = row[slot]
            if value is MISSING:
                raise CypherSemanticError("variable not in scope: %s" % name)
            return value

        return var

    def _parameter(self, node):
        name = node.name
        parameters = self.evaluator.parameters

        def param(row):
            if name not in parameters:
                raise ParameterNotBound("parameter not bound: $%s" % name)
            return parameters[name]

        return param

    # -- maps, properties --------------------------------------------------

    def _property_access(self, node):
        shareable = self.read_only and isinstance(node.subject, ex.Variable)
        if shareable:
            reader_key = (node.subject.name, node.key)
            shared = self._property_readers.get(reader_key)
            if shared is not None:
                return shared
        prop = self._build_property_access(node, memoise=shareable)
        if shareable:
            self._property_readers[reader_key] = prop
        return prop

    def _build_property_access(self, node, memoise=False):
        subject = self.compile(node.subject)
        key = node.key
        property_value = self.graph.property_value

        def read(value):
            if value is None:
                return None
            if isinstance(value, (NodeId, RelId)):
                return property_value(value, key)
            if isinstance(value, dict):
                return value.get(key)
            component = getattr(value, "cypher_component", None)
            if component is not None:  # temporal values expose .year etc.
                return component(key)
            raise CypherTypeError(
                "cannot access property %r on %r" % (key, value)
            )

        if not memoise:
            def prop(row):
                return read(subject(row))

            return prop

        # Last-value memo: within a read-only statement the same subject
        # object always yields the same property value, and consecutive
        # occurrences in one row share the same NodeId object, so an
        # identity check replaces the second store lookup.
        memo = [MISSING, None]

        def memoised(row):
            value = subject(row)
            if value is memo[0]:
                return memo[1]
            result = read(value)
            memo[0] = value
            memo[1] = result
            return result

        def reset():
            memo[0] = MISSING
            memo[1] = None

        self.memo_resets.append(reset)
        return memoised

    def _map_literal(self, node):
        items = tuple((key, self.compile(value)) for key, value in node.items)

        def build(row):
            return {key: compiled(row) for key, compiled in items}

        return build

    # -- lists -------------------------------------------------------------

    def _list_literal(self, node):
        items = tuple(self.compile(item) for item in node.items)

        def build(row):
            return [compiled(row) for compiled in items]

        return build

    def _list_index(self, node):
        subject = self.compile(node.subject)
        index = self.compile(node.index)
        property_value = self.graph.property_value

        def lookup(row):
            container = subject(row)
            position = index(row)
            if container is None or position is None:
                return None
            if isinstance(container, list):
                if not isinstance(position, int) or isinstance(position, bool):
                    raise CypherTypeError("list index must be an integer")
                if -len(container) <= position < len(container):
                    return container[position]
                return None
            if isinstance(container, dict):
                if not isinstance(position, str):
                    raise CypherTypeError("map lookup key must be a string")
                return container.get(position)
            if isinstance(container, (NodeId, RelId)):
                if not isinstance(position, str):
                    raise CypherTypeError(
                        "property lookup key must be a string"
                    )
                return property_value(container, position)
            raise CypherTypeError("%r is not indexable" % (container,))

        return lookup

    def _list_slice(self, node):
        subject = self.compile(node.subject)
        start = self.compile(node.start) if node.start is not None else None
        end = self.compile(node.end) if node.end is not None else None

        def slice_(row):
            container = subject(row)
            if container is None:
                return None
            if not isinstance(container, list):
                raise CypherTypeError("slicing requires a list")
            low = start(row) if start is not None else 0
            high = end(row) if end is not None else len(container)
            if low is None or high is None:
                return None
            for bound in (low, high):
                if not isinstance(bound, int) or isinstance(bound, bool):
                    raise CypherTypeError("slice bounds must be integers")
            return container[low:high]

        return slice_

    def _in(self, node):
        item = self.compile(node.item)
        container = self.compile(node.container)

        def membership(row):
            needle = item(row)
            haystack = container(row)
            if haystack is None:
                return None
            if not isinstance(haystack, list):
                raise CypherTypeError(
                    "IN requires a list, got %r" % (haystack,)
                )
            saw_unknown = False
            for element in haystack:
                verdict = equals(needle, element)
                if verdict is True:
                    return True
                if verdict is None:
                    saw_unknown = True
            return None if saw_unknown else False

        return membership

    # -- strings -----------------------------------------------------------

    def _string_predicate(self, node):
        left = self.compile(node.left)
        right = self.compile(node.right)
        operator = node.operator

        if operator == "STARTS WITH":
            def starts(row):
                l, r = left(row), right(row)
                if not isinstance(l, str) or not isinstance(r, str):
                    return None
                return l.startswith(r)

            return starts
        if operator == "ENDS WITH":
            def ends(row):
                l, r = left(row), right(row)
                if not isinstance(l, str) or not isinstance(r, str):
                    return None
                return l.endswith(r)

            return ends

        def contains(row):
            l, r = left(row), right(row)
            if not isinstance(l, str) or not isinstance(r, str):
                return None
            return r in l

        return contains

    def _regex(self, node):
        subject = self.compile(node.subject)
        pattern = self.compile(node.pattern)
        folded = _constant_of(pattern)
        if folded is not None and isinstance(folded[0], str):
            try:
                matcher = re.compile(folded[0]).fullmatch
            except re.error:
                matcher = None  # invalid pattern: error at row time, as before
            if matcher is not None:

                def match_compiled(row):
                    value = subject(row)
                    if not isinstance(value, str):
                        return None
                    return matcher(value) is not None

                return match_compiled

        def match(row):
            value = subject(row)
            expr = pattern(row)
            if not isinstance(value, str) or not isinstance(expr, str):
                return None
            return re.fullmatch(expr, value) is not None

        return match

    # -- logic -------------------------------------------------------------

    def _binary_logic(self, node):
        left = self.compile(node.left)
        right = self.compile(node.right)
        operator = node.operator

        if operator == "AND":
            def conjunction(row):
                l = _as_ternary(left(row))
                if l is False:
                    return False
                return and3(l, _as_ternary(right(row)))

            return conjunction
        if operator == "OR":
            def disjunction(row):
                l = _as_ternary(left(row))
                if l is True:
                    return True
                return or3(l, _as_ternary(right(row)))

            return disjunction

        def exclusive(row):
            return xor3(_as_ternary(left(row)), _as_ternary(right(row)))

        return exclusive

    def _not(self, node):
        operand = self.compile(node.operand)

        def negation(row):
            return not3(_as_ternary(operand(row)))

        return negation

    def _is_null(self, node):
        operand = self.compile(node.operand)

        def test(row):
            return operand(row) is None

        return test

    def _is_not_null(self, node):
        operand = self.compile(node.operand)

        def test(row):
            return operand(row) is not None

        return test

    # -- comparisons -------------------------------------------------------

    def _comparison(self, node):
        operands = tuple(self.compile(operand) for operand in node.operands)
        operators = node.operators
        if len(operands) == 2:
            left, right = operands
            operator = operators[0]
            if operator == "=":
                return lambda row: equals(left(row), right(row))
            if operator == "<>":
                return lambda row: not_equals(left(row), right(row))
            # Int-int is the overwhelmingly common case on graph data;
            # Python's own comparison agrees with compare() there, so
            # skip the generic ordering machinery for it.
            native = _NATIVE_INEQUALITIES[operator]

            def inequality(row):
                l = left(row)
                r = right(row)
                if type(l) is int and type(r) is int:
                    return native(l, r)
                return _ordering_verdict(operator, l, r)

            return inequality

        def chain(row):
            values = [operand(row) for operand in operands]
            verdict = True
            for operator, l, r in zip(operators, values, values[1:]):
                verdict = and3(verdict, _compare_once(operator, l, r))
                if verdict is False:
                    return False
            return verdict

        return chain

    # -- arithmetic --------------------------------------------------------

    def _arithmetic(self, node):
        left = self.compile(node.left)
        right = self.compile(node.right)
        operator = node.operator
        left_const = _constant_of(left)
        right_const = _constant_of(right)
        if left_const is not None and right_const is not None:
            try:
                value = apply_arithmetic(
                    operator, left_const[0], right_const[0]
                )
            except CypherError:
                pass  # e.g. 1 / 0: must raise per evaluated row, not here
            else:
                if value is None or isinstance(value, _FOLDABLE_SCALARS):
                    return _constant(value)

        if operator in ("+", "-", "*"):
            # Same fast path as comparisons: int-int never overflows or
            # divides, so the native operator is exact; everything else
            # keeps the full Cypher numeric/temporal/list semantics.
            native = _NATIVE_ARITHMETIC[operator]

            def arithmetic_fast(row):
                l = left(row)
                r = right(row)
                if type(l) is int and type(r) is int:
                    return native(l, r)
                return apply_arithmetic(operator, l, r)

            return arithmetic_fast

        if operator == "%":
            # Cypher's % follows the dividend's sign (Java-style), which
            # coincides with Python's % exactly when both operands are
            # non-negative ints (and the divisor nonzero) — the common
            # bucketing shape `i % k`.
            def modulo_fast(row):
                l = left(row)
                r = right(row)
                if type(l) is int and type(r) is int and l >= 0 and r > 0:
                    return l % r
                return apply_arithmetic(operator, l, r)

            return modulo_fast

        if operator == "/":
            # Cypher integer division truncates toward zero; Python's //
            # floors — they agree on non-negative int operands.
            def divide_fast(row):
                l = left(row)
                r = right(row)
                if type(l) is int and type(r) is int and l >= 0 and r > 0:
                    return l // r
                return apply_arithmetic(operator, l, r)

            return divide_fast

        def arithmetic(row):
            return apply_arithmetic(operator, left(row), right(row))

        return arithmetic

    def _unary_minus(self, node):
        operand = self.compile(node.operand)

        def negate(row):
            value = operand(row)
            if value is None:
                return None
            if isinstance(value, bool):
                raise CypherTypeError("cannot negate %r" % (value,))
            if isinstance(value, (int, float)):
                return -value
            if hasattr(value, "cypher_negate"):
                return value.cypher_negate()
            raise CypherTypeError("cannot negate %r" % (value,))

        return negate

    def _unary_plus(self, node):
        operand = self.compile(node.operand)

        def plus(row):
            value = operand(row)
            if value is None:
                return value
            if not isinstance(value, bool) and isinstance(value, (int, float)):
                return value
            raise CypherTypeError("unary + expects a number")

        return plus

    # -- functions ---------------------------------------------------------

    def _function_call(self, node):
        if node.name in ex.AGGREGATE_FUNCTION_NAMES:
            name = node.name

            def misplaced(row):
                raise CypherSemanticError(
                    "aggregate %s() is only allowed in WITH/RETURN" % name
                )

            return misplaced
        args = tuple(self.compile(argument) for argument in node.args)
        call = self.evaluator.functions.call
        context = self.evaluator.function_context
        name = node.name

        def invoke(row):
            return call(name, context, [argument(row) for argument in args])

        return invoke

    def _count_star(self, node):
        def misplaced(row):
            raise CypherSemanticError("count(*) is only allowed in WITH/RETURN")

        return misplaced

    # -- labels ------------------------------------------------------------

    def _label_predicate(self, node):
        subject = self.compile(node.subject)
        labels = tuple(node.labels)
        graph_labels = self.graph.labels

        def test(row):
            value = subject(row)
            if value is None:
                return None
            if not isinstance(value, NodeId):
                raise CypherTypeError("label predicate expects a node")
            node_labels = graph_labels(value)
            for label in labels:
                if label not in node_labels:
                    return False
            return True

        return test

    # -- CASE --------------------------------------------------------------

    def _case(self, node):
        alternatives = tuple(
            (self.compile(when), self.compile(then))
            for when, then in node.alternatives
        )
        default = (
            self.compile(node.default) if node.default is not None else None
        )
        if node.operand is not None:
            operand = self.compile(node.operand)

            def simple_case(row):
                subject = operand(row)
                for when, then in alternatives:
                    if equals(subject, when(row)) is True:
                        return then(row)
                return default(row) if default is not None else None

            return simple_case

        def searched_case(row):
            for when, then in alternatives:
                if when(row) is True:
                    return then(row)
            return default(row) if default is not None else None

        return searched_case


    # -- comprehensions and quantifiers (scratch slots) ----------------------

    def _list_comprehension(self, node):
        source = self.compile(node.source)
        slot = self.slots.add(node.variable)
        where = (
            self.compile_predicate(node.where)
            if node.where is not None
            else None
        )
        projection = (
            self.compile(node.projection)
            if node.projection is not None
            else None
        )

        def comprehend(row):
            values = source(row)
            if values is None:
                return None
            if not isinstance(values, list):
                raise CypherTypeError("comprehension source must be a list")
            result = []
            append = result.append
            saved = row[slot]
            try:
                for element in values:
                    row[slot] = element
                    if where is not None and not where(row):
                        continue
                    append(
                        projection(row) if projection is not None else element
                    )
            finally:
                row[slot] = saved
            return result

        return comprehend

    def _quantified(self, node):
        source = self.compile(node.source)
        slot = self.slots.add(node.variable)
        predicate = self.compile(node.predicate)
        quantifier = node.quantifier

        def quantify(row):
            values = source(row)
            if values is None:
                return None
            if not isinstance(values, list):
                raise CypherTypeError("quantifier source must be a list")
            trues = falses = unknowns = 0
            saved = row[slot]
            try:
                for element in values:
                    row[slot] = element
                    verdict = _as_ternary(predicate(row))
                    if verdict is True:
                        trues += 1
                    elif verdict is False:
                        falses += 1
                    else:
                        unknowns += 1
            finally:
                row[slot] = saved
            if quantifier == "all":
                if falses:
                    return False
                return None if unknowns else True
            if quantifier == "any":
                if trues:
                    return True
                return None if unknowns else False
            if quantifier == "none":
                if trues:
                    return False
                return None if unknowns else True
            # single
            if trues > 1:
                return False
            if unknowns:
                return None
            return trues == 1

        return quantify

    def _reduce(self, node):
        source = self.compile(node.source)
        init = self.compile(node.init)
        accumulator_slot = self.slots.add(node.accumulator)
        variable_slot = self.slots.add(node.variable)
        body = self.compile(node.expression)

        def fold(row):
            values = source(row)
            if values is None:
                return None
            if not isinstance(values, list):
                raise CypherTypeError("reduce() source must be a list")
            accumulator = init(row)
            saved_accumulator = row[accumulator_slot]
            saved_variable = row[variable_slot]
            try:
                for element in values:
                    row[accumulator_slot] = accumulator
                    row[variable_slot] = element
                    accumulator = body(row)
            finally:
                row[accumulator_slot] = saved_accumulator
                row[variable_slot] = saved_variable
            return accumulator

        return fold


_ALL_INT = {int}


def _const_column(value):
    """A column closure repeating ``value``, with the ``scalar()`` door
    the one-scalar-side kernels read instead of the column."""

    def const_column(n, cols):
        return [value] * n

    const_column.scalar = lambda: value
    return const_column


def _base_of(slot):
    """A variable column's ``base`` door: ``cols -> column or None``.

    Column closures may carry ``base``, read by the batch Aggregate under
    a selection (:mod:`repro.planner.batch`): the closure's column over
    a batch's *base* rows, obtained without evaluating the expression on
    any row it has not run on — or None when that is not possible.
    """

    def base(cols):
        return cols[slot] if slot is not None else None

    return base


def select_columns(cols, indices):
    """A new column array restricted to ``indices`` (in that order).

    The one column-selection kernel shared by the batch operators
    (:mod:`repro.planner.batch`) and the masked AND/OR evaluation below:
    unbound (``None``) columns stay unbound, bound columns are gathered
    into fresh lists.
    """
    return [
        None if col is None else [col[index] for index in indices]
        for col in cols
    ]


class ColumnCompiler:
    """Compile expressions to *column* closures over morsel batches.

    The batch engine (:mod:`repro.planner.batch`) processes morsels of N
    rows as slot columns — one flat Python list per slot.  A compiled
    column closure has the signature ``(n, cols) -> list`` where ``cols``
    is the batch's column array (``cols[slot]`` is a list of length ``n``,
    or ``None`` when the slot is unbound for the whole batch) and the
    result is a fresh list of N values.  The per-row dispatch that the
    row compiler already eliminated per *plan* is eliminated per *morsel*
    here: one closure call evaluates a whole column, with tight loops for
    the hot shapes —

    * variables return their column by reference (zero copies);
    * property access over a whole-label scan's own morsel slices the
      store's label-aligned column (``label_morsels``); otherwise it
      tries the bulk ``node_property_column`` and only drops to the
      per-element mixed-type loop when the column is not purely nodes;
    * repeated ``variable.key`` reads are *memoised*: all occurrences of
      e.g. ``n.v`` across one compilation share a single closure
      (structural key, not AST identity), and that closure caches its
      last ``(cols, n) -> column`` result — so a filter and a projection
      over the same morsel, or ``n.v + n.v`` inside one expression, hit
      the store once per morsel instead of once per occurrence (the
      ROADMAP's first cut of common-subexpression elimination).  Sound
      because column arrays are never mutated in place and the graph
      cannot change during a read execution (between executions the
      memo is reset, which also lets go of the last morsel — see
      :attr:`ExpressionCompiler.memo_resets`);
    * arithmetic and comparisons run int fast-path loops; literal and
      parameter columns expose ``scalar()`` — their one value for the
      batch — and an inequality with one scalar side checks the other
      column's type set once and, all-int against an int, compares in C;
    * a WHERE whose root can only yield true/false/null selects by
      ``compress`` (:meth:`compile_selection`);
    * a variable column, and a memoised ``variable.key`` column, carry a
      ``base`` door: ``cols -> column or None``, the column over a
      batch's base rows when it can be had without evaluating anything
      anew (the variable's column; a memo hit over these very columns or
      a label-aligned slice) — what the batch Aggregate gathers by a
      Filter's selection instead of gathering the whole batch;
    * AND/OR short-circuit *by column*: the right operand is evaluated
      only on the sub-batch the left side did not decide, which keeps
      the row path's "never evaluates the pruned side" error semantics;

    Everything else — comprehensions, CASE, pattern predicates, any
    future node type — reuses the row compiler's closure element-wise
    over a scratch row materialised from the bound columns; scratch
    slots (comprehension variables and friends) live in that scratch row
    and are reused across the whole column, so the inner-loop shadowing
    semantics are exactly the row path's.
    """

    def __init__(self, row_compiler):
        self.rows = row_compiler
        self.slots = row_compiler.slots
        self.graph = row_compiler.graph
        self.evaluator = row_compiler.evaluator
        self._cache = {}
        #: Structural closure cache for ``variable.key`` property reads:
        #: distinct AST nodes spelling the same read share one closure
        #: (and therefore one per-morsel value memo).
        self._property_readers = {}
        #: The batch whole-label scans' last morsels, one mutable
        #: ``[chunk, start, scan list, label, slices served per key]``
        #: each: the scans write, the property readers match their
        #: subject column by identity.
        self.label_morsels = []

    # ------------------------------------------------------------------

    def compile(self, expression):
        """A closure ``(n, cols) -> list`` equivalent to ``[[expression]]``."""
        key = id(expression)
        compiled = self._cache.get(key)
        if compiled is None:
            method = _COLUMN_COMPILERS.get(type(expression))
            if method is None:
                compiled = self._elementwise(expression)
            else:
                compiled = method(self, expression)
            self._cache[key] = compiled
        return compiled

    def compile_selection(self, expression):
        """WHERE semantics as a selection: row indices where strictly true.

        A comparison, connective or null test yields only ``True``,
        ``False`` and ``None``: truthiness *is* the strict test, so the
        selection is one ``compress``.  Any other root (a property, a
        CASE, a function call) may hold a stored ``1`` — not true.
        """
        compiled = self.compile(expression)
        if type(expression) in _TERNARY_ROOTS:

            def ternary_selection(n, cols):
                return list(compress(range(n), compiled(n, cols)))

            return ternary_selection

        def selection(n, cols):
            return [
                index
                for index, verdict in enumerate(compiled(n, cols))
                if verdict is True
            ]

        return selection

    # ------------------------------------------------------------------

    def _elementwise(self, expression):
        """Apply the row-compiled closure per element of the batch.

        The scratch row is rebuilt from the bound columns per row and
        reused across the column — comprehension/quantifier closures
        save and restore their scratch slots themselves, so reuse is
        safe and keeps allocations per morsel, not per row.
        """
        row_fn = self.rows.compile(expression)
        width = len(self.slots)

        def column(n, cols):
            bound = [
                (slot, col) for slot, col in enumerate(cols) if col is not None
            ]
            row = [MISSING] * width
            out = []
            append = out.append
            for index in range(n):
                for slot, col in bound:
                    row[slot] = col[index]
                append(row_fn(row))
            return out

        return column

    # -- leaves ------------------------------------------------------------

    def _literal(self, node):
        return _const_column(node.value)

    def _parameter(self, node):
        row_fn = self.rows.compile(node)
        empty = []

        def param_column(n, cols):
            if n == 0:
                return empty
            return [row_fn(empty)] * n

        param_column.scalar = lambda: row_fn(empty)  # raises if unbound
        return param_column

    def _variable(self, node):
        name = node.name
        slot = self.slots.index_of(name)

        def var_column(n, cols):
            col = cols[slot] if slot is not None else None
            if col is None:
                if n == 0:
                    return []
                raise CypherSemanticError("variable not in scope: %s" % name)
            return col

        var_column.base = _base_of(slot)
        return var_column

    # -- properties ---------------------------------------------------------

    def _property_access(self, node):
        if isinstance(node.subject, ex.Variable):
            # Structural sharing: every `n.key` in this compilation maps
            # to one memoising closure, whatever AST node spelt it.
            reader_key = (node.subject.name, node.key)
            reader = self._property_readers.get(reader_key)
            if reader is None:
                reader = self._build_property_access(node, memoise=True)
                self._property_readers[reader_key] = reader
            return reader
        return self._build_property_access(node, memoise=False)

    def _build_property_access(self, node, memoise):
        subject = self.compile(node.subject)
        subject_base = getattr(subject, "base", None)
        key = node.key
        bulk = getattr(self.graph, "node_property_column", None)
        aligned = getattr(self.graph, "label_property_column", None)
        label_morsels = self.label_morsels
        property_value = self.graph.property_value

        def element(value):
            if value is None:
                return None
            if isinstance(value, (NodeId, RelId)):
                return property_value(value, key)
            if isinstance(value, dict):
                return value.get(key)
            component = getattr(value, "cypher_component", None)
            if component is not None:
                return component(key)
            raise CypherTypeError(
                "cannot access property %r on %r" % (key, value)
            )

        def aligned_slice(values, n):
            for chunk, start, ids, label, served in label_morsels:
                if values is chunk:
                    # A label scan's own morsel: a slice of the store's
                    # aligned column, while the store vouches for it.
                    column = aligned(label, key, ids)
                    if column is None:
                        return None
                    served[key] = served.get(key, 0) + 1
                    return column[start:start + n]
            return None

        def prop_column(n, cols):
            values = subject(n, cols)
            column = aligned_slice(values, n)
            if column is not None:
                return column
            if bulk is not None:
                try:
                    return bulk(values, key)
                except (KeyError, TypeError):
                    pass  # not a pure node column: mixed-type loop below
            return [element(value) for value in values]

        if not memoise:
            return prop_column

        # Per-morsel value memo: column arrays are immutable once
        # yielded and reads cannot observe writes mid-execution, so the
        # (cols identity, n) pair fully determines the result.  Holding
        # the cols reference keeps the identity from being recycled.
        memo = [None, -1, None]  # [cols, n, column]

        def memoised_column(n, cols):
            if cols is memo[0] and n == memo[1]:
                return memo[2]
            column = prop_column(n, cols)
            memo[0] = cols
            memo[1] = n
            memo[2] = column
            return column

        def reset():
            memo[0] = memo[2] = None
            memo[1] = -1

        def base_column(cols):
            # Nothing is evaluated here: the column is a memo hit over
            # these very columns, or a slice of the label-aligned column
            # (which cannot raise) — else None.
            values = subject_base(cols)
            if values is None:
                return None
            n = len(values)
            if cols is memo[0] and n == memo[1]:
                return memo[2]
            return aligned_slice(values, n)

        self.rows.memo_resets.append(reset)
        if subject_base is not None:
            memoised_column.base = base_column
        return memoised_column

    # -- arithmetic and comparisons -----------------------------------------

    def _arithmetic(self, node):
        row_fn = self.rows.compile(node)
        folded = _constant_of(row_fn)
        if folded is not None:
            return _const_column(folded[0])
        left = self.compile(node.left)
        right = self.compile(node.right)
        operator_name = node.operator
        native = _NATIVE_ARITHMETIC.get(operator_name)
        if native is None:
            # %, / and ^ keep their sign/zero subtleties: reuse the row
            # closure's fast paths element-wise over operand columns.
            def general_column(n, cols):
                return [
                    apply_arithmetic(operator_name, l, r)
                    for l, r in zip(left(n, cols), right(n, cols))
                ]

            return general_column
        right_scalar = getattr(right, "scalar", None)
        if right_scalar is not None:

            def scalar_right(n, cols):
                column = left(n, cols)
                rv = right_scalar() if n else None
                int_right = type(rv) is int
                return [
                    native(l, rv)
                    if int_right and type(l) is int
                    else apply_arithmetic(operator_name, l, rv)
                    for l in column
                ]

            return scalar_right

        def arithmetic_column(n, cols):
            return [
                native(l, r)
                if type(l) is int and type(r) is int
                else apply_arithmetic(operator_name, l, r)
                for l, r in zip(left(n, cols), right(n, cols))
            ]

        return arithmetic_column

    def _comparison(self, node):
        if len(node.operands) != 2:
            return self._elementwise(node)
        left = self.compile(node.operands[0])
        right = self.compile(node.operands[1])
        operator_name = node.operators[0]
        if operator_name == "=":

            def eq_column(n, cols):
                return [
                    equals(l, r) for l, r in zip(left(n, cols), right(n, cols))
                ]

            return eq_column
        if operator_name == "<>":

            def ne_column(n, cols):
                return [
                    not_equals(l, r)
                    for l, r in zip(left(n, cols), right(n, cols))
                ]

            return ne_column
        left_scalar = getattr(left, "scalar", None)
        scalar = getattr(right, "scalar", None)
        if (left_scalar is None) != (scalar is None):
            # One side is a literal or parameter — one value for the
            # batch (``$x < n.v`` is read as ``n.v > $x``): an all-int
            # column against an int compares in C, anything else takes
            # the per-value verdict, as the two-column loop below would.
            scalar_first = scalar is None
            if scalar_first:
                left, scalar = right, left_scalar
                operator_name = _MIRRORED[operator_name]
            native = _NATIVE_INEQUALITIES[operator_name]

            def scalar_side(n, cols):
                if not n:
                    return []
                if scalar_first:  # operands evaluate left to right
                    rv, column = scalar(), left(n, cols)
                else:
                    column, rv = left(n, cols), scalar()
                if type(rv) is int and set(map(type, column)) == _ALL_INT:
                    return list(map(native, column, repeat(rv)))
                return [
                    _ordering_verdict(operator_name, l, rv) for l in column
                ]

            return scalar_side
        native = _NATIVE_INEQUALITIES[operator_name]

        def inequality_column(n, cols):
            return [
                native(l, r)
                if type(l) is int and type(r) is int
                else _ordering_verdict(operator_name, l, r)
                for l, r in zip(left(n, cols), right(n, cols))
            ]

        return inequality_column

    # -- logic --------------------------------------------------------------

    def _binary_logic(self, node):
        left = self.compile(node.left)
        right = self.compile(node.right)
        operator_name = node.operator
        if operator_name == "XOR":

            def xor_column(n, cols):
                return [
                    xor3(_as_ternary(l), _as_ternary(r))
                    for l, r in zip(left(n, cols), right(n, cols))
                ]

            return xor_column
        deciding = False if operator_name == "AND" else True
        combine = and3 if operator_name == "AND" else or3
        sub_batch = select_columns

        def logic_column(n, cols):
            out = [_as_ternary(value) for value in left(n, cols)]
            undecided = [
                index for index, value in enumerate(out) if value is not deciding
            ]
            if undecided:
                if len(undecided) == n:
                    right_values = right(n, cols)
                else:
                    right_values = right(
                        len(undecided), sub_batch(cols, undecided)
                    )
                for position, index in enumerate(undecided):
                    out[index] = combine(
                        out[index], _as_ternary(right_values[position])
                    )
            return out

        return logic_column

    def _not(self, node):
        operand = self.compile(node.operand)

        def not_column(n, cols):
            return [not3(_as_ternary(value)) for value in operand(n, cols)]

        return not_column

    def _is_null(self, node):
        operand = self.compile(node.operand)

        def null_column(n, cols):
            return [value is None for value in operand(n, cols)]

        return null_column

    def _is_not_null(self, node):
        operand = self.compile(node.operand)

        def not_null_column(n, cols):
            return [value is not None for value in operand(n, cols)]

        return not_null_column

    # -- labels, functions ---------------------------------------------------

    def _label_predicate(self, node):
        subject = self.compile(node.subject)
        labels = tuple(node.labels)
        graph_labels = self.graph.labels

        def label_column(n, cols):
            out = []
            append = out.append
            for value in subject(n, cols):
                if value is None:
                    append(None)
                    continue
                if not isinstance(value, NodeId):
                    raise CypherTypeError("label predicate expects a node")
                node_labels = graph_labels(value)
                append(all(label in node_labels for label in labels))
            return out

        return label_column

    def _function_call(self, node):
        if node.name in ex.AGGREGATE_FUNCTION_NAMES:
            return self._elementwise(node)  # same misplaced-aggregate error
        args = tuple(self.compile(argument) for argument in node.args)
        call = self.evaluator.functions.call
        context = self.evaluator.function_context
        name = node.name

        def invoke_column(n, cols):
            columns = [argument(n, cols) for argument in args]
            return [
                call(name, context, [column[index] for column in columns])
                for index in range(n)
            ]

        return invoke_column


#: Expression roots whose column holds only ``True``/``False``/``None``.
_TERNARY_ROOTS = frozenset(
    (ex.Comparison, ex.BinaryLogic, ex.Not, ex.IsNull, ex.IsNotNull)
)

_COLUMN_COMPILERS = {
    ex.Literal: ColumnCompiler._literal,
    ex.Parameter: ColumnCompiler._parameter,
    ex.Variable: ColumnCompiler._variable,
    ex.PropertyAccess: ColumnCompiler._property_access,
    ex.Arithmetic: ColumnCompiler._arithmetic,
    ex.Comparison: ColumnCompiler._comparison,
    ex.BinaryLogic: ColumnCompiler._binary_logic,
    ex.Not: ColumnCompiler._not,
    ex.IsNull: ColumnCompiler._is_null,
    ex.IsNotNull: ColumnCompiler._is_not_null,
    ex.LabelPredicate: ColumnCompiler._label_predicate,
    ex.FunctionCall: ColumnCompiler._function_call,
}


def _compare_once(operator, left, right):
    if operator == "=":
        return equals(left, right)
    if operator == "<>":
        return not_equals(left, right)
    return _ordering_verdict(operator, left, right)


def _ordering_verdict(operator, left, right):
    verdict = compare(left, right)
    if verdict is None:
        return None
    if operator == "<":
        return verdict < 0
    if operator == "<=":
        return verdict <= 0
    if operator == ">":
        return verdict > 0
    return verdict >= 0  # ">="


_COMPILERS = {
    ex.Literal: ExpressionCompiler._literal,
    ex.Variable: ExpressionCompiler._variable,
    ex.Parameter: ExpressionCompiler._parameter,
    ex.PropertyAccess: ExpressionCompiler._property_access,
    ex.MapLiteral: ExpressionCompiler._map_literal,
    ex.ListLiteral: ExpressionCompiler._list_literal,
    ex.ListIndex: ExpressionCompiler._list_index,
    ex.ListSlice: ExpressionCompiler._list_slice,
    ex.In: ExpressionCompiler._in,
    ex.StringPredicate: ExpressionCompiler._string_predicate,
    ex.RegexMatch: ExpressionCompiler._regex,
    ex.BinaryLogic: ExpressionCompiler._binary_logic,
    ex.Not: ExpressionCompiler._not,
    ex.IsNull: ExpressionCompiler._is_null,
    ex.IsNotNull: ExpressionCompiler._is_not_null,
    ex.Comparison: ExpressionCompiler._comparison,
    ex.Arithmetic: ExpressionCompiler._arithmetic,
    ex.UnaryMinus: ExpressionCompiler._unary_minus,
    ex.UnaryPlus: ExpressionCompiler._unary_plus,
    ex.FunctionCall: ExpressionCompiler._function_call,
    ex.CountStar: ExpressionCompiler._count_star,
    ex.LabelPredicate: ExpressionCompiler._label_predicate,
    ex.CaseExpression: ExpressionCompiler._case,
    ex.ListComprehension: ExpressionCompiler._list_comprehension,
    ex.QuantifiedPredicate: ExpressionCompiler._quantified,
    ex.Reduce: ExpressionCompiler._reduce,
}
