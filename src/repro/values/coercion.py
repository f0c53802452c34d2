"""Small coercion and classification helpers shared across the engine."""

from __future__ import annotations

from repro.exceptions import CypherTypeError


def is_number(value):
    """True for integers and floats, but not booleans."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_list_value(value):
    return isinstance(value, list)


def is_map_value(value):
    return isinstance(value, dict)


def as_boolean(value, context="expression"):
    """Coerce to a ternary boolean; null passes through, non-bools fail."""
    if value is None or isinstance(value, bool):
        return value
    raise CypherTypeError(
        "%s must be a Boolean, got %r" % (context, value)
    )


def as_integer(value, context="expression"):
    """Coerce to an integer; null passes through, floats are rejected."""
    if value is None:
        return None
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise CypherTypeError(
        "%s must be an Integer, got %r" % (context, value)
    )


def as_float(value, context="expression"):
    """Coerce a number to float; null passes through."""
    if value is None:
        return None
    if is_number(value):
        return float(value)
    raise CypherTypeError(
        "%s must be a number, got %r" % (context, value)
    )
