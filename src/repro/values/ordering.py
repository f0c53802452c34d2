"""A total "orderability" order over all Cypher values.

The three-valued :func:`repro.values.comparison.compare` is partial (nulls
and mixed types are incomparable), but ORDER BY, DISTINCT and aggregation
grouping need a *total* order and a hashable canonical form.  openCypher
resolves this with a global orderability order; we implement a documented
variant of it:

    Map < Node < Relationship < List < Path < temporal < String
        < Boolean < Number < null

Within a type, values order naturally (numbers numerically with NaN greater
than every other number, strings lexicographically, booleans False < True,
lists/maps lexicographically on their sort keys).  ``null`` sorts
last in ascending order, matching Neo4j's behaviour.

Grouping, DISTINCT and UNION need a hashable canonical form instead:
equivalent values get equal keys.  Ints, strs, non-NaN floats and ids
are their own keys (:data:`SELF_KEYED`): Python equality on them *is*
Cypher equivalence (``1 == 1.0`` with equal hashes, ``-0.0 == 0``; an
id is the tuple ``("n", 7)`` / ``("r", 7)``).  Booleans (``True == 1``),
NaN (``NaN != NaN``), null and structured values are tuples headed by a
tag no id uses, so no tagged key equals a raw one.  The rule reads the
value alone, so keys agree however rows are batched.
"""

from __future__ import annotations

import math

from repro.values.base import NodeId, RelId
from repro.values.path import Path

_RANK_MAP = 0
_RANK_NODE = 1
_RANK_REL = 2
_RANK_LIST = 3
_RANK_PATH = 4
_RANK_TEMPORAL = 5
_RANK_STRING = 6
_RANK_BOOLEAN = 7
_RANK_NUMBER = 8
_RANK_NULL = 9


def sort_key(value):
    """A key usable with ``sorted``; implements the total order above."""
    if value is None:
        return (_RANK_NULL,)
    if isinstance(value, bool):
        return (_RANK_BOOLEAN, value)
    if isinstance(value, (int, float)):
        if isinstance(value, float) and math.isnan(value):
            # NaN is the greatest number.
            return (_RANK_NUMBER, 1, 0.0)
        return (_RANK_NUMBER, 0, value)
    if isinstance(value, str):
        return (_RANK_STRING, value)
    if isinstance(value, NodeId):
        return (_RANK_NODE, value.value)
    if isinstance(value, RelId):
        return (_RANK_REL, value.value)
    if isinstance(value, Path):
        return (
            _RANK_PATH,
            tuple(sort_key(element) for element in value.interleaved()),
        )
    if isinstance(value, list):
        return (_RANK_LIST, tuple(sort_key(item) for item in value))
    if isinstance(value, dict):
        return (
            _RANK_MAP,
            tuple(
                (key, sort_key(item)) for key, item in sorted(value.items())
            ),
        )
    order = getattr(value, "cypher_order_key", None)
    if order is not None:
        return (_RANK_TEMPORAL, getattr(value, "cypher_type_name", ""), order())
    raise TypeError("value %r is not orderable" % (value,))


#: Types whose values are their own canonical keys (module docstring).
SELF_KEYED = frozenset((int, str, NodeId, RelId))


def canonical_key(value):
    """A hashable canonical form; equivalent values get equal keys.

    Keys DISTINCT, UNION, grouping, DISTINCT aggregates and uniqueness
    constraints (module docstring).  All NaNs collapse to one key, so
    DISTINCT emits a single NaN.
    """
    value_type = type(value)
    if value_type in SELF_KEYED:
        return value
    if value_type is float:
        return value if value == value else ("nan",)
    if value is None:
        return ("null",)
    if value_type is bool:
        return ("bool", value)
    if isinstance(value, Path):
        return (
            "path",
            tuple(canonical_key(element) for element in value.interleaved()),
        )
    if isinstance(value, list):
        return ("list", tuple(canonical_key(item) for item in value))
    if isinstance(value, dict):
        return (
            "map",
            tuple(
                (key, canonical_key(item))
                for key, item in sorted(value.items())
            ),
        )
    order = getattr(value, "cypher_order_key", None)
    if order is not None:
        return ("temporal", getattr(value, "cypher_type_name", ""), order())
    raise TypeError("value %r has no canonical form" % (value,))
