"""The binder: make every column reference table-qualified.

The one place a column name is resolved.  Each reference binds against
its own block's tables first, then the enclosing blocks', innermost
first; afterwards ``ref.table`` *is* the binding, and every later pass
reads it.  NEST-N-J merges FROM clauses, so a column that was
unambiguous inside its own block (``SELECT SNO FROM S``) can become
ambiguous in the merged block (both S and SP have SNO): binding before
transformation makes all later AST surgery safe.

The one reference left unqualified is an ORDER BY name of a SELECT
alias: it names an output column, not a table's.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import BindError
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
from repro.sql.output import ColumnLister


def qualify(
    select: Select,
    columns_of: ColumnLister,
    enclosing: tuple[tuple[str, ...], ...] = (),
) -> Select:
    """Return ``select`` with every column reference qualified and every
    ``*`` (or ``T.*``) item expanded into qualified references.

    Args:
        select: the query block (descends into nested blocks).
        columns_of: a binding's column names, or None for a binding it
            does not know.
        enclosing: binding tuples of enclosing blocks, outermost first.
    """
    local = select.table_bindings
    scopes = enclosing + (local,)

    def fix(node: Node) -> Node:
        if isinstance(node, ColumnRef):
            return _qualify_ref(node, scopes, columns_of)
        if isinstance(node, Select):
            return qualify(node, columns_of, scopes)
        return map_children(node, fix)

    items: list[SelectItem] = []
    for item in select.items:
        if isinstance(item.expr, Star):
            items.extend(_expand_star(item.expr, local, columns_of))
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
    star: Star, local: tuple[str, ...], columns_of: ColumnLister
) -> list[SelectItem]:
    bindings = local if star.table is None else (star.table,)
    expanded: list[SelectItem] = []
    for binding in bindings:
        columns = columns_of(binding)
        if columns is None:
            raise BindError(f"cannot expand {binding}.* (unknown binding)")
        expanded.extend(
            SelectItem(ColumnRef(binding, column)) for column in columns
        )
    return expanded


def _qualify_ref(
    ref: ColumnRef,
    scopes: tuple[tuple[str, ...], ...],
    columns_of: ColumnLister,
) -> ColumnRef:
    if ref.table is not None:
        return ref
    # Innermost scope first.
    for scope in reversed(scopes):
        owners = [b for b in scope if ref.column in (columns_of(b) or ())]
        if len(owners) == 1:
            return ColumnRef(owners[0], ref.column)
        if len(owners) > 1:
            raise BindError(
                f"ambiguous column {ref.column!r} (candidates: {owners})"
            )
    raise BindError(f"cannot resolve column {ref.column!r}")
