"""Execution engine: expressions, physical operators, and the
nested-iteration reference executor.

Two evaluation paths share this package:

* the **nested-iteration executor**
  (:mod:`repro.engine.nested_iteration`) interprets a nested query AST
  directly, re-evaluating correlated inner blocks once per outer tuple —
  System R's strategy, the paper's baseline and its semantic oracle;
* the **physical operators** (:mod:`repro.engine.operators`,
  :mod:`repro.engine.sort`) execute the *transformed* plans: temp-table
  builds, external sorts, merge joins, hash joins, outer joins, and
  grouped aggregation, all through the buffer pool so page I/O is
  measured.

Both paths evaluate per-row expressions through
:mod:`repro.engine.compile` when possible: an expression + schema chain
is compiled once into a plain closure (column indices and operators
bound ahead of time), falling back to the
:mod:`repro.engine.expression` interpreter for subqueries and other
shapes the compiler does not cover.
"""

from repro.engine.compile import (
    CannotCompile,
    compile_predicate,
    compile_scalar,
    interpreted_only,
    try_compile_predicate,
    try_compile_scalar,
)
from repro.engine.expression import EvalContext, eval_predicate, eval_scalar
from repro.engine.nested_iteration import NestedIterationExecutor, QueryResult
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema

__all__ = [
    "CannotCompile",
    "EvalContext",
    "NestedIterationExecutor",
    "QueryResult",
    "Relation",
    "RowSchema",
    "compile_predicate",
    "compile_scalar",
    "eval_predicate",
    "eval_scalar",
    "interpreted_only",
    "try_compile_predicate",
    "try_compile_scalar",
]
