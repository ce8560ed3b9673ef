"""Qualification pass: make every column reference table-qualified.

NEST-N-J merges FROM clauses, so a column that was unambiguous inside
its own block (``SELECT SNO FROM S``) can become ambiguous in the
merged block (both S and SP have SNO).  Qualifying every reference
*before* transformation — each against its own block's tables first,
then the enclosing blocks', innermost first — makes all later AST
surgery safe.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import BindError
from repro.sql.analysis import ColumnResolver
from repro.sql.ast import (
    And,
    Between,
    BinaryArith,
    ColumnRef,
    Comparison,
    Exists,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    OrderItem,
    Parameter,
    Quantified,
    ScalarSubquery,
    Select,
    SelectItem,
    Star,
    UnaryMinus,
)


from collections.abc import Callable

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

    def fix(expr: Expr) -> Expr:
        return _qualify_expr(expr, scopes, has_column, list_columns)

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


def _qualify_expr(
    expr: Expr,
    scopes: tuple[tuple[str, ...], ...],
    has_column: ColumnResolver,
    list_columns: ColumnLister | None = None,
) -> Expr:
    def fix(e: Expr) -> Expr:
        return _qualify_expr(e, scopes, has_column, list_columns)

    def fix_block(query: Select) -> Select:
        return qualify(query, has_column, scopes, list_columns)

    if isinstance(expr, ColumnRef):
        return _qualify_ref(expr, scopes, has_column)
    if isinstance(expr, (Literal, Star, Parameter)):
        return expr
    if isinstance(expr, FuncCall):
        if isinstance(expr.arg, Star):
            return expr
        return FuncCall(expr.name, fix(expr.arg), expr.distinct)
    if isinstance(expr, UnaryMinus):
        return UnaryMinus(fix(expr.operand))
    if isinstance(expr, BinaryArith):
        return BinaryArith(fix(expr.left), expr.op, fix(expr.right))
    if isinstance(expr, ScalarSubquery):
        return ScalarSubquery(fix_block(expr.query))
    if isinstance(expr, Comparison):
        return Comparison(
            fix(expr.left), expr.op, fix(expr.right), expr.outer, expr.null_safe
        )
    if isinstance(expr, IsNull):
        return IsNull(fix(expr.operand), expr.negated)
    if isinstance(expr, InList):
        return InList(
            fix(expr.operand), tuple(fix(i) for i in expr.items), expr.negated
        )
    if isinstance(expr, InSubquery):
        return InSubquery(fix(expr.operand), fix_block(expr.query), expr.negated)
    if isinstance(expr, Exists):
        return Exists(fix_block(expr.query), expr.negated)
    if isinstance(expr, Quantified):
        return Quantified(
            fix(expr.operand), expr.op, expr.quantifier, fix_block(expr.query)
        )
    if isinstance(expr, Between):
        return Between(
            fix(expr.operand), fix(expr.low), fix(expr.high), expr.negated
        )
    if isinstance(expr, And):
        return And(tuple(fix(op) for op in expr.operands))
    if isinstance(expr, Or):
        return Or(tuple(fix(op) for op in expr.operands))
    if isinstance(expr, Not):
        return Not(fix(expr.operand))
    raise TypeError(f"cannot qualify {expr!r}")
