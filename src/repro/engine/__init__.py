"""Execution engine: expressions, physical operators, and the
nested-iteration reference executor.

Two evaluation paths share this package:

* the **nested-iteration executor**
  (:mod:`repro.engine.nested_iteration`) interprets a nested query AST
  directly, re-evaluating a correlated inner block once per distinct
  correlation value — System R's strategy with a memo, and the semantic
  oracle (``system_r_nested_iteration`` is the paper's memo-free
  baseline);
* the **physical operators** (:mod:`repro.engine.operators`,
  :mod:`repro.engine.sort`) execute the *transformed* plans: temp-table
  builds, external sorts, merge joins, hash joins, outer joins, and
  grouped aggregation, all through the buffer pool so page I/O is
  measured.

Both paths evaluate expressions compiled once per (expression, schema):
the operators as the batch kernels of :mod:`repro.engine.vector_compile`,
nested iteration as the closures of :mod:`repro.engine.compile`, which
evaluate subqueries through the executor's
:class:`~repro.engine.expression.SubqueryHandler`.
"""

from repro.engine.compile import compile_predicate, compile_scalar
from repro.engine.expression import EvalContext
from repro.engine.nested_iteration import NestedIterationExecutor, QueryResult
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema

__all__ = [
    "EvalContext",
    "NestedIterationExecutor",
    "QueryResult",
    "Relation",
    "RowSchema",
    "compile_predicate",
    "compile_scalar",
]
