"""Query AST nodes (paper Figure 5, "queries").

A query° is a sequence of clauses ending with RETURN (update queries may
end with an update clause instead); a query is a query° or a UNION
[ALL] of queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


class Query:
    """Base class of query nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class SingleQuery(Query):
    """``clause clause ... [RETURN ret]``."""

    clauses: Tuple[object, ...]

    def __post_init__(self):
        if not self.clauses:
            raise ValueError("a query must contain at least one clause")


@dataclass(frozen=True)
class UnionQuery(Query):
    """``query UNION [ALL] query``.

    UNION applies duplicate elimination ε to the combined bag; UNION ALL
    keeps the bag union (Figure 6).
    """

    left: Query
    right: Query
    all: bool = False
