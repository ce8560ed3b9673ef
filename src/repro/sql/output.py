"""A block's output: the names of its columns and what its ORDER BY
sorts on.

One rule each, shared by both executors, the verifier and the plan
cache, so a statement's result columns and its ORDER BY errors do not
depend on the method that evaluated it.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from repro.errors import PlanError
from repro.sql.ast import ColumnRef, Expr, Select, SelectItem, Star
from repro.sql.printer import to_sql

#: ``columns_of(table)``: a table's column names in order, or None for
#: a table it does not know.
ColumnLister = Callable[[str], Sequence[str] | None]


def item_name(item: SelectItem) -> str:
    """An item's output name: its alias, else its column's name, else
    its SQL text."""
    if item.alias:
        return item.alias
    if isinstance(item.expr, ColumnRef):
        return item.expr.column
    return to_sql(item.expr)


def _outputs(
    select: Select, columns_of: ColumnLister | None
) -> Iterator[tuple[str, Expr]]:
    """``(name, expression)`` per output column (:func:`item_name`).  A
    ``*`` puts out the columns of the tables it covers, as
    ``columns_of`` lists them (none without it: a block that still
    holds a ``*`` runs by nested iteration)."""
    for item in select.items:
        expr = item.expr
        if not isinstance(expr, Star):
            yield item_name(item), expr
            continue
        for ref in select.from_tables:
            if columns_of is not None and expr.table in (None, ref.binding):
                for column in columns_of(ref.name) or ():
                    yield column, ColumnRef(ref.binding, column)


def output_names(select: Select, columns_of: ColumnLister | None = None) -> list[str]:
    """The block's output column names (:func:`_outputs`)."""
    return [name for name, _ in _outputs(select, columns_of)]


def order_positions(
    select: Select, columns_of: ColumnLister | None = None
) -> tuple[list[int], bool]:
    """The output positions the block's ORDER BY sorts on, and whether
    it sorts descending.

    An ORDER BY item is a column reference.  An unqualified one names
    an output column first (an alias shadows a base column); else it is
    the output of a SELECT item that spells the same reference; else
    the first output column of its name.  Raises :class:`PlanError` for
    anything else, and for mixed ASC / DESC.
    """
    outputs = list(_outputs(select, columns_of))
    names = [name for name, _ in outputs]
    exprs = [expr for _, expr in outputs]
    positions = []
    for item in select.order_by:
        ref = item.expr
        if not isinstance(ref, ColumnRef):
            raise PlanError("ORDER BY supports column references only")
        if ref.table is None and ref.column in names:
            positions.append(names.index(ref.column))
        elif ref in exprs:
            positions.append(exprs.index(ref))
        elif ref.column in names:
            positions.append(names.index(ref.column))
        else:
            raise PlanError(
                f"ORDER BY column {ref.qualified()} is not in the SELECT list"
            )
    if len({item.descending for item in select.order_by}) > 1:
        raise PlanError("mixed ASC/DESC ORDER BY is not supported")
    return positions, bool(select.order_by) and select.order_by[0].descending
