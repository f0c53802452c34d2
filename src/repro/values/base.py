"""Identifier types and value-universe helpers.

The paper keeps the sets N (node ids) and R (relationship ids) disjoint
from each other and from the base types, so an id is not a bare integer:
it is a **tagged tuple** ``(prefix, value)`` — ``("n", 7)`` for a node,
``("r", 7)`` for a relationship — under its own ``tuple`` subclass.  The
tag keeps N and R apart (``NodeId(1) != RelId(1)``, distinct hashes) and
apart from every integer (``NodeId(1) != 1``); the subclass keeps an id
apart from every *value* type, because the value universe has no tuples:
``is_cypher_value``, ``type_name``, ``sort_key``, ``canonical_key``,
``equals`` and the printer all ask ``isinstance(value, NodeId)`` (lists
are ``list``), so an id is always an id and never a two-element list.

Why a tuple rather than a slotted object: ids key every store dict,
adjacency list, change record, grouping table and ``DISTINCT`` set, so they
are hashed and compared far more often than they are built.  A tuple
subclass that defines **no** ``__hash__``, ``__eq__``, ``__ne__`` or
``__lt__`` in Python inherits tuple's C slots — a dict probe keyed by an
id never enters the interpreter.  Defining *any* rich comparison in
Python would put ``slot_tp_richcompare`` in front of the C compare for
all six operators (a non-identical-key lookup gets about three times
slower), which is why none of them is defined and why two things follow
from tuple semantics instead:

* ``NodeId(1) == ("n", 1)`` is true.  Nothing promises otherwise —
  plain tuples are not Cypher values and never reach a comparison.
* Ordering *across* kinds is by prefix (``NodeId(9) < RelId(1)``)
  instead of a ``TypeError``.  Nothing compares raw ids across kinds:
  ``sort_key`` ranks the kind first and then reads ``.value``.

Ids are immutable (no instance ``__dict__``; ``value`` is a read-only
property), pickle and copy to their own class, and order by value
within a kind.
"""

from __future__ import annotations

from operator import itemgetter


class _Identifier(tuple):
    """Common behaviour of node and relationship identifiers."""

    __slots__ = ()
    _prefix = "id"

    def __new__(cls, value):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError("identifier value must be an int, got %r" % (value,))
        return tuple.__new__(cls, (cls._prefix, value))

    value = property(itemgetter(1))

    def __getnewargs__(self):
        return (self[1],)

    def __repr__(self):
        return "{}({})".format(type(self).__name__, self[1])

    def __str__(self):
        return "{}{}".format(self._prefix, self[1])


class NodeId(_Identifier):
    """An element of the set N of node identifiers."""

    __slots__ = ()
    _prefix = "n"


class RelId(_Identifier):
    """An element of the set R of relationship identifiers."""

    __slots__ = ()
    _prefix = "r"


def is_cypher_value(value):
    """Return True if ``value`` belongs to the value universe ``V``.

    Lists and maps are checked recursively; map keys must be strings
    (property keys are drawn from the set K of strings).  Exact-type
    checks on the scalar majority come first — this sits on the
    property-write hot path (one call per stored value).
    """
    value_type = type(value)
    if (
        value_type is int
        or value_type is str
        or value_type is float
        or value_type is bool
    ):
        return True
    from repro.values.path import Path

    if value is None or isinstance(value, (bool, str, NodeId, RelId, Path)):
        return True
    if isinstance(value, int):
        return True
    if isinstance(value, float):
        return True  # NaN and infinities are IEEE 754 values Cypher allows
    if isinstance(value, list):
        return all(is_cypher_value(item) for item in value)
    if isinstance(value, dict):
        return all(
            isinstance(key, str) and is_cypher_value(item)
            for key, item in value.items()
        )
    # Temporal values plug into the universe via duck typing: anything
    # exposing a `cypher_type_name` attribute is accepted.
    return hasattr(value, "cypher_type_name")


def type_name(value):
    """Human-readable Cypher type name for error messages and `EXPLAIN`."""
    from repro.values.path import Path

    if value is None:
        return "Null"
    if isinstance(value, bool):
        return "Boolean"
    if isinstance(value, int):
        return "Integer"
    if isinstance(value, float):
        return "Float"
    if isinstance(value, str):
        return "String"
    if isinstance(value, NodeId):
        return "Node"
    if isinstance(value, RelId):
        return "Relationship"
    if isinstance(value, Path):
        return "Path"
    if isinstance(value, list):
        return "List"
    if isinstance(value, dict):
        return "Map"
    name = getattr(value, "cypher_type_name", None)
    if name is not None:
        return name
    return type(value).__name__
