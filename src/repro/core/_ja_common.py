"""Shared analysis for the type-JA transformations (NEST-JA, NEST-JA2).

Both algorithms begin the same way: take the inner query block apart
into its aggregate SELECT item, its *correlated join predicates* (the
paper's ``R2.Cn op R1.Cp``), and its *simple predicates* (local to the
inner relations).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TransformError
from repro.sql.ast import (
    MIRRORED_OPS,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    Select,
    Star,
    column_refs,
    conjuncts,
    walk,
)


@dataclass(frozen=True)
class JoinPredicate:
    """A correlated join predicate, oriented as ``inner op outer``.

    ``SUPPLY.PNUM < PARTS.PNUM`` becomes ``(SUPPLY.PNUM, "<",
    PARTS.PNUM)`` — the operator reads left-to-right from the inner
    column to the outer column, the direction the paper's section 5.3
    examples use.
    """

    inner_col: ColumnRef
    op: str
    outer_col: ColumnRef


@dataclass
class InnerBlockParts:
    """Decomposition of a type-JA inner query block."""

    aggregate: FuncCall
    join_preds: list[JoinPredicate]
    simple_preds: list[Expr]


def decompose_inner_block(inner: Select) -> InnerBlockParts:
    """Split a type-JA inner block into aggregate + join + simple parts.

    Raises :class:`TransformError` for shapes the paper's algorithms do
    not define: non-aggregate SELECT, correlated predicates that are
    not simple column comparisons, an aggregate whose argument reads an
    outer column or a subquery, etc.  An argument over the block's own
    columns is computed where the block's rows are restricted.
    """
    aggregate = _single_aggregate(inner)
    local = set(inner.table_bindings)
    if not isinstance(aggregate.arg, Star) and any(
        side_of(ref, local) == "outer" for ref in column_refs(aggregate.arg)
    ):
        raise TransformError("aggregate argument reads an outer column")

    join_preds: list[JoinPredicate] = []
    simple_preds: list[Expr] = []
    for conjunct in conjuncts(inner.where):
        if all(side_of(ref, local) == "inner" for ref in column_refs(conjunct)):
            simple_preds.append(conjunct)
        else:
            join_preds.append(_as_join_predicate(conjunct, local))

    if not join_preds:
        raise TransformError(
            "inner block has no correlated join predicate (type-A, not JA)"
        )
    return InnerBlockParts(aggregate, join_preds, simple_preds)


def _single_aggregate(inner: Select) -> FuncCall:
    if len(inner.items) != 1:
        raise TransformError("type-JA inner block must select exactly one item")
    expr = inner.items[0].expr
    if not (isinstance(expr, FuncCall) and expr.is_aggregate):
        raise TransformError(
            "type-JA inner block must select a single aggregate function"
        )
    if any(isinstance(node, Select) for node in walk(expr.arg)):
        raise TransformError("aggregate argument holds a subquery")
    if isinstance(expr.arg, Star) and expr.name != "COUNT":
        raise TransformError(f"{expr.name}(*) is not valid SQL")
    if inner.group_by or inner.having or inner.distinct:
        raise TransformError(
            "inner blocks with GROUP BY/HAVING/DISTINCT are not supported"
        )
    return expr


def side_of(ref: ColumnRef, local: set[str]) -> str:
    """``"inner"`` when ``ref``'s binding is one of the block's own
    (``local``) relations, ``"outer"`` when it reaches an enclosing
    block."""
    return "inner" if ref.table in local else "outer"


def _as_join_predicate(conjunct: Expr, local: set[str]) -> JoinPredicate:
    if not (
        isinstance(conjunct, Comparison)
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
    ):
        raise TransformError(
            f"correlated predicate is not a simple column comparison: {conjunct!r}"
        )
    left_side = side_of(conjunct.left, local)
    right_side = side_of(conjunct.right, local)
    if {left_side, right_side} != {"inner", "outer"}:
        raise TransformError(
            "join predicate must compare an inner column with an outer column"
        )
    if left_side == "inner":
        return JoinPredicate(conjunct.left, conjunct.op, conjunct.right)
    return JoinPredicate(
        conjunct.right, MIRRORED_OPS[conjunct.op], conjunct.left
    )
