"""Kim's algorithm NEST-N-J (paper section 3.1).

    Algorithm NEST-N-J
    1. Combine the FROM clauses of all query blocks into one FROM clause.
    2. AND together the WHERE clauses of all query blocks,
       replacing IS IN by =.
    3. Retain the SELECT clause of the outermost query block.

The algorithm applies to type-N and type-J nested predicates (no
aggregate in the inner SELECT).  It merges *one* nested predicate at a
time; the recursive driver (NEST-G) walks multi-level queries.

Faithfulness note (see DESIGN.md, "NEST-N-J and duplicates"): replacing
``IN`` by ``=`` preserves *set* semantics (Kim's Lemma 1) but can
change multiplicities when the inner relation holds duplicate values in
the projected column.  Under ``dedupe_inner`` the pipeline restricts,
projects and deduplicates the inner relation first
(:func:`dedupe_inner_setup`), for type-N and type-J alike.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

from repro.core._ja_common import side_of
from repro.core.transform import TempTableDef
from repro.errors import TransformError
from repro.sql.analysis import ColumnResolver
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    Expr,
    InSubquery,
    MIRRORED_OPS,
    ScalarSubquery,
    Select,
    SelectItem,
    TableRef,
    column_refs,
    conjuncts,
    make_and,
    rewrite_leaves,
)


def apply_nest_nj(outer: Select, node: Expr) -> Select:
    """Merge one nested predicate's inner block into ``outer``.

    Args:
        outer: the outer query block; ``node`` must be one of its WHERE
            conjuncts.
        node: the nested predicate (``x IN (SELECT ...)`` or a scalar
            comparison against a non-aggregate subquery).

    Returns:
        The combined single-block query: outer SELECT clause, merged
        FROM clauses, ANDed WHERE clauses with the nested predicate
        replaced by a join predicate.
    """
    inner, join_pred = _join_predicate(node)
    _check_inner_block(inner)

    collisions = set(outer.table_bindings) & set(inner.table_bindings)
    if collisions:
        raise TransformError(
            f"FROM clauses collide on bindings {sorted(collisions)}; "
            "alias the inner tables first"
        )

    new_conjuncts: list[Expr] = []
    replaced = False
    for conjunct in conjuncts(outer.where):
        if conjunct is node:
            new_conjuncts.append(join_pred)
            replaced = True
        else:
            new_conjuncts.append(conjunct)
    if not replaced:
        raise TransformError("nested predicate is not a conjunct of the outer WHERE")
    new_conjuncts.extend(conjuncts(inner.where))

    return replace(
        outer,
        from_tables=outer.from_tables + inner.from_tables,
        where=make_and(new_conjuncts),
    )


def dedupe_inner_setup(
    node: InSubquery,
    fresh_name: Callable[[str], str],
    has_column: ColumnResolver,
) -> tuple[TempTableDef, InSubquery, bool] | None:
    """The inner-side fix-up: restrict, project and deduplicate the
    inner relation *before* the join (NEST-JA2's step 2, for type-N/J).

    The inner WHERE splits, as ``decompose_inner_block`` splits it, into
    local and correlated conjuncts.  Returns the definition ``temp =
    SELECT DISTINCT <every inner column a correlated conjunct reads> AS
    J1.., item AS C1 FROM inner WHERE <local conjuncts>``, the predicate
    ``x IN (SELECT C1 FROM temp WHERE <correlated conjuncts over temp>)``
    for NEST-N-J to merge, and whether that merge can fan an outer row
    out.  It cannot when a strict ``=`` pins every temp column to an
    expression of outer columns only: a duplicate-free relation matched
    on all its columns has at most one partner (``=`` is never true on
    NULL).  Type-N is the case of no correlated conjunct: ``C1`` alone,
    pinned by the ``IN`` itself.

    Returns None — the caller merges the block as it stands — when the
    split cannot express it: the item reads an outer column, or a
    correlated block groups or is DISTINCT.
    """
    inner = node.query
    item = _single_item(inner)
    bindings = set(inner.table_bindings)

    def sides(expr: Expr) -> set[str]:
        return {side_of(ref, bindings, has_column) for ref in column_refs(expr)}

    local = [c for c in conjuncts(inner.where) if sides(c) <= {"inner"}]
    correlated = [c for c in conjuncts(inner.where) if sides(c) - {"inner"}]
    if "outer" in sides(item) or (
        correlated and (inner.group_by or inner.having or inner.distinct)
    ):
        return None
    temp_name = fresh_name("JTEMP" if correlated else "NTEMP")
    # Correlation columns first, as NEST-JA2's TEMP3 has them: the
    # sort-unique then delivers the order the final merge join wants.
    column_of: dict[Expr, ColumnRef] = {}
    for ref in (r for c in correlated for r in column_refs(c)):
        if ref not in column_of and sides(ref) == {"inner"}:
            column_of[ref] = ColumnRef(temp_name, f"J{len(column_of) + 1}")
    pinned = {
        column
        for c in correlated
        if isinstance(c, Comparison) and c.op == "=" and not c.null_safe
        for column, other in ((c.left, c.right), (c.right, c.left))
        if column in column_of and sides(other) <= {"outer"}
    }
    result = ColumnRef(temp_name, "C1")  # pinned by the IN: operand = C1
    temp_query = replace(
        inner,
        items=tuple(
            SelectItem(expr, alias=column.column)
            for expr, column in [*column_of.items(), (item, result)]
        ),
        where=make_and(local),
        distinct=True,
    )
    new_inner = Select(
        items=(SelectItem(result, alias="C1"),),
        from_tables=(TableRef(temp_name),),
        where=make_and(
            rewrite_leaves(c, lambda leaf: column_of.get(leaf, leaf))
            for c in correlated
        ),
    )
    return (
        TempTableDef(temp_name, temp_query),
        InSubquery(node.operand, new_inner, node.negated),
        pinned != set(column_of),
    )


def _join_predicate(node: Expr) -> tuple[Select, Expr]:
    """The inner block and the join predicate that replaces the nesting."""
    if isinstance(node, InSubquery):
        if node.negated:
            raise TransformError(
                "NOT IN cannot be transformed by NEST-N-J "
                "(no canonical join captures anti-join semantics)"
            )
        inner = node.query
        return inner, Comparison(node.operand, "=", _single_item(inner))
    if isinstance(node, Comparison):
        if isinstance(node.right, ScalarSubquery):
            inner = node.right.query
            return inner, Comparison(node.left, node.op, _single_item(inner))
        if isinstance(node.left, ScalarSubquery):
            inner = node.left.query
            return inner, Comparison(
                _single_item(inner), MIRRORED_OPS[node.op], node.right
            )
    raise TransformError(f"not a type-N/J nested predicate: {node!r}")


def _single_item(inner: Select) -> Expr:
    if len(inner.items) != 1:
        raise TransformError("inner block must select exactly one item")
    return inner.items[0].expr


def _check_inner_block(inner: Select) -> None:
    if inner.has_aggregate_select():
        raise TransformError(
            "inner block has an aggregate SELECT; use NEST-JA2 (type-A/JA)"
        )
    if inner.group_by or inner.having:
        raise TransformError("inner blocks with GROUP BY/HAVING are not supported")
    if inner.distinct:
        raise TransformError(
            "inner DISTINCT would be lost by NEST-N-J; not supported"
        )
