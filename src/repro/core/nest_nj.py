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
the projected column.  :func:`apply_nest_nj` is the literal algorithm;
NEST-G hands it an ``IN`` over the restricted, projected, duplicate-free
inner temp of :func:`inner_temp_setup`, marked as a semi-joined table,
for type-N and type-J alike.
"""

from __future__ import annotations

from collections.abc import Callable, Collection
from dataclasses import replace

from repro.core._ja_common import side_of
from repro.core.transform import TempTableDef
from repro.errors import TransformError
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    Expr,
    InSubquery,
    Literal,
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


def inner_temp_setup(
    node: InSubquery, fresh_name: Callable[[str], str]
) -> tuple[TempTableDef, InSubquery]:
    """The inner relation of ``x IN (SELECT item FROM inner WHERE ...)``
    restricted, projected and duplicate-free *before* the join
    (NEST-JA2's step 2, for type-N/J), to be merged as a semi-join.

    The inner WHERE splits, as ``decompose_inner_block`` splits it, into
    local and correlated conjuncts.  Returns the definition ``temp =
    SELECT DISTINCT <every inner column a correlated conjunct reads> AS
    J1.., item AS C1 FROM inner WHERE <local conjuncts>`` and the
    predicate ``x IN (SELECT C1 FROM SEMI temp WHERE <correlated
    conjuncts over temp>)`` for NEST-N-J to merge: the ``SEMI`` mark
    rides into the merged FROM clause, so an outer row survives once
    however many temp rows match it.  Type-N is the case of no
    correlated conjunct: ``C1`` alone.  An item that reads an outer
    column is no column of the inner relation: its inner columns are
    projected like the correlation columns and the item is spelled over
    them.

    The definition is a DISTINCT projection, where Kim's Lemma 1 holds
    as stated, so semi tables merged into ``inner`` earlier join plainly
    in it: a correlated conjunct carried out of the block may read their
    columns.
    """
    inner = node.query
    item = _single_item(inner)
    bindings = set(inner.table_bindings)

    def sides(expr: Expr) -> set[str]:
        return {side_of(ref, bindings) for ref in column_refs(expr)}

    local = [c for c in conjuncts(inner.where) if sides(c) <= {"inner"}]
    correlated = [c for c in conjuncts(inner.where) if sides(c) - {"inner"}]
    outer_item = "outer" in sides(item)
    if (correlated or outer_item) and (inner.group_by or inner.having):
        raise TransformError(
            "correlated inner blocks with GROUP BY/HAVING are not supported"
        )
    temp_name = fresh_name("JTEMP" if correlated or outer_item else "NTEMP")
    # Correlation columns first, as NEST-JA2's TEMP3 has them: the
    # sort-unique then delivers the order the final merge join wants.
    column_of: dict[Expr, ColumnRef] = {}
    carried = [*correlated, item] if outer_item else correlated
    for ref in (r for expr in carried for r in column_refs(expr)):
        if ref not in column_of and sides(ref) == {"inner"}:
            column_of[ref] = ColumnRef(temp_name, f"J{len(column_of) + 1}")

    def over_temp(expr: Expr) -> Expr:
        return rewrite_leaves(expr, lambda leaf: column_of.get(leaf, leaf))

    projected = list(column_of.items())
    if outer_item:
        result = over_temp(item)
    else:
        result = ColumnRef(temp_name, "C1")
        projected.append((item, result))
    if not projected:
        # Nothing of the inner relation is read: only whether it is empty.
        projected.append((Literal(1), ColumnRef(temp_name, "C1")))
    temp_query = replace(
        joined_plainly(inner),
        items=tuple(
            SelectItem(expr, alias=column.column) for expr, column in projected
        ),
        where=make_and(local),
        # A set: the block's ORDER BY, if any, orders nothing.
        order_by=(),
        distinct=True,
    )
    new_inner = Select(
        items=(SelectItem(result, alias="C1"),),
        from_tables=(TableRef(temp_name, semi=True),),
        where=make_and(over_temp(c) for c in correlated),
    )
    return (
        TempTableDef(temp_name, temp_query),
        InSubquery(node.operand, new_inner, node.negated),
    )


def joined_plainly(block: Select, bindings: Collection[str] | None = None) -> Select:
    """``block`` with the semi mark cleared — on ``bindings`` only, when
    given: those tables join as Kim's NEST-N-J has them."""
    return replace(
        block,
        from_tables=tuple(
            replace(
                ref,
                semi=ref.semi and bindings is not None and ref.binding not in bindings,
            )
            for ref in block.from_tables
        ),
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
