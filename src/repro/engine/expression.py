"""The runtime scope chain of row-at-a-time evaluation.

An :class:`EvalContext` is one row of one query block, chained to the
row of each enclosing block — what a correlated reference resolves
against (the defining feature of type-J and type-JA nesting).
Subqueries are delegated to the executor through its
:class:`SubqueryHandler`, so evaluation stays independent of how
nesting is processed (nested iteration vs. transformed plans —
transformed plans simply contain no subqueries anymore).

Evaluation itself is compiled: :mod:`repro.engine.compile` turns an
expression into a closure over ``(row, outer context)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import BindError
from repro.engine.schema import RowSchema
from repro.sql.ast import ColumnRef, Select


@dataclass
class EvalContext:
    """Evaluation context for one row, chained for correlated nesting.

    Attributes:
        row: the current tuple.
        schema: the row's schema.
        outer: enclosing context, searched when a reference does not
            bind locally (correlation — the defining feature of type-J
            and type-JA nesting).
        subquery_handler: callback used to evaluate nested query blocks;
            installed by the nested-iteration executor.  Physical plans
            never contain subqueries, so it may be None.
    """

    row: tuple
    schema: RowSchema
    outer: Optional["EvalContext"] = None
    subquery_handler: Optional["SubqueryHandler"] = None

    def resolve(self, ref: ColumnRef) -> object:
        """Resolve a column reference, walking out through outer contexts."""
        context: EvalContext | None = self
        while context is not None:
            index = context.schema.try_index_of(ref)
            if index is not None:
                return context.row[index]
            context = context.outer
        raise BindError(f"cannot resolve column {ref.qualified()}")

    def child(self, row: tuple, schema: RowSchema) -> "EvalContext":
        """A context for an inner block's row, enclosing this one."""
        return EvalContext(
            row=row,
            schema=schema,
            outer=self,
            subquery_handler=self.subquery_handler,
        )


class SubqueryHandler:
    """Interface the executor implements to evaluate nested blocks."""

    def scalar(self, query: Select, context: EvalContext | None) -> object:
        """Value of a scalar subquery (NULL for an empty result)."""
        raise NotImplementedError

    def column(self, query: Select, context: EvalContext | None) -> list[object]:
        """All values of a single-column subquery (for IN/ANY/ALL)."""
        raise NotImplementedError

    def exists(self, query: Select, context: EvalContext | None) -> bool:
        """Whether the subquery yields at least one row."""
        raise NotImplementedError
