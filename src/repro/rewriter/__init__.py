"""Semantics-preserving query rewrites (paper Sections 1 and 4).

"A formal semantics ... allows one to reason about the equivalence of
queries, and prove correctness of existing or discover new
optimizations."  This package states a few such rewrites as AST→AST
rules, each *provably* equivalence-preserving under the Section 4
semantics (the argument is written above each rule).

The rules are laws, not a step of the run path: ``CypherEngine``
never rewrites a statement.  The tests check ``q ≡ rewrite(q)`` — the
original and the printed rewrite give the same bag, and the same order
under ``ORDER BY``, on the interpreter, row and batch executors — over
hand-written queries and the fuzz corpus; the benchmark
(``benchmarks/e2e``) times :func:`rewrite_query` as a layer of its own.

Rules shipped:

* constant folding of closed expressions (3VL-aware);
* boolean simplification (double negation, AND/OR identity and
  absorbing elements — all valid in three-valued logic);
* ``WHERE true`` elimination;
* fusing a pass-through ``WITH ... WHERE`` filter into the preceding
  MATCH (predicate pushdown), when provably safe.
"""

from repro.rewriter.rewrite import rewrite_expression, rewrite_query

__all__ = ["rewrite_query", "rewrite_expression"]
