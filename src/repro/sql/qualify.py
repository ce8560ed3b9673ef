"""Qualification pass: make every column reference table-qualified.

NEST-N-J merges FROM clauses, so a column that was unambiguous inside
its own block (``SELECT SNO FROM S``) can become ambiguous in the
merged block (both S and SP have SNO).  Qualifying every reference
*before* transformation — each against its own block's tables first,
then the enclosing blocks', innermost first — makes all later AST
surgery safe.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

from repro.errors import BindError
from repro.sql.analysis import ColumnResolver
from repro.sql.ast import (
    ColumnRef,
    Expr,
    Node,
    OrderItem,
    Select,
    SelectItem,
    Star,
    map_children,
)

#: Enumerates a binding's columns; enables ``SELECT *`` expansion.
ColumnLister = Callable[[str], list[str] | None]


def qualify(
    select: Select,
    has_column: ColumnResolver,
    enclosing: tuple[tuple[str, ...], ...] = (),
    list_columns: ColumnLister | None = None,
) -> Select:
    """Return ``select`` with every column reference qualified.

    Args:
        select: the query block (descends into nested blocks).
        has_column: schema resolver for table bindings.
        enclosing: binding tuples of enclosing blocks, outermost first.
        list_columns: optional column enumerator; when provided, a
            ``SELECT *`` (or ``T.*``) item is expanded into explicit
            qualified references — which lets the transformation
            pipeline handle star queries.
    """
    local = select.table_bindings
    scopes = enclosing + (local,)

    def fix(node: Node) -> Node:
        if isinstance(node, ColumnRef):
            return _qualify_ref(node, scopes, has_column)
        if isinstance(node, Select):
            return qualify(node, has_column, scopes, list_columns)
        return map_children(node, fix)

    items: list[SelectItem] = []
    for item in select.items:
        if isinstance(item.expr, Star) and list_columns is not None:
            items.extend(_expand_star(item.expr, local, list_columns))
        else:
            items.append(SelectItem(fix(item.expr), item.alias))

    # An unqualified ORDER BY name that is a SELECT-list alias refers to
    # that output column — ahead of any base column of the same name, as
    # in SQLite — so it is not a table column to qualify.
    aliases = {item.alias for item in select.items if item.alias}

    def fix_order(expr: Expr) -> Expr:
        if (
            isinstance(expr, ColumnRef)
            and expr.table is None
            and expr.column in aliases
        ):
            return expr
        return fix(expr)

    return replace(
        select,
        items=tuple(items),
        where=fix(select.where) if select.where is not None else None,
        group_by=tuple(fix(expr) for expr in select.group_by),
        having=fix(select.having) if select.having is not None else None,
        order_by=tuple(
            OrderItem(fix_order(item.expr), item.descending)
            for item in select.order_by
        ),
    )


def _expand_star(
    star: Star, local: tuple[str, ...], list_columns: ColumnLister
) -> list[SelectItem]:
    bindings = local if star.table is None else (star.table,)
    expanded: list[SelectItem] = []
    for binding in bindings:
        columns = list_columns(binding)
        if columns is None:
            raise BindError(f"cannot expand {binding}.* (unknown binding)")
        expanded.extend(
            SelectItem(ColumnRef(binding, column)) for column in columns
        )
    return expanded


def _qualify_ref(
    ref: ColumnRef,
    scopes: tuple[tuple[str, ...], ...],
    has_column: ColumnResolver,
) -> ColumnRef:
    if ref.table is not None:
        return ref
    # Innermost scope first.
    for scope in reversed(scopes):
        owners = [b for b in scope if has_column(b, ref.column)]
        if len(owners) == 1:
            return ColumnRef(owners[0], ref.column)
        if len(owners) > 1:
            raise BindError(
                f"ambiguous column {ref.column!r} (candidates: {owners})"
            )
    raise BindError(f"cannot resolve column {ref.column!r}")

