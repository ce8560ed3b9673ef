"""The paper's corrected algorithm NEST-JA2 (section 6.1).

    Algorithm NEST-JA2
    1. Project the join column of the outer relation, and restrict it
       with any simple predicates applying to the outer relation.
    2. Create a temporary relation, joining the inner relation with the
       projection of the outer relation.  If the aggregate function is
       COUNT, the join must be an outer join, and the inner relation
       must be restricted and projected before the join is performed.
       If the aggregate function is COUNT(*), compute the COUNT
       function over the join column.  The join predicate must use the
       same operator as the join predicate in the original query
       (except that it must be converted to the corresponding outer
       operator in the case of COUNT), and the join predicate in the
       original query must be changed to =.  In the SELECT clause,
       select the join column from the outer table instead of the
       inner table.  The GROUP BY clause will also contain columns from
       the outer relation.
    3. Join the outer relation with the temporary relation, according
       to the transformed version of the original query.

This module implements steps 1–2 and rewrites the *inner block* to a
type-J block over the temporary relation (equality join predicates);
step 3 is then algorithm NEST-N-J, exactly as the paper's recursive
procedure ``nest_g`` sequences it (``nest_ja2`` immediately followed by
``nest_nj``).

The three bug fixes, mapped to code:

* **COUNT bug** → the temp is built with a *left outer* join preserving
  the outer projection, so empty groups appear and COUNT yields 0;
  the inner relation is restricted/projected *before* the join
  (section 5.2's ordering requirement);
* **COUNT(\\*)** → rewritten to COUNT over the inner join column;
* **non-equality operators** → the original operator is used in the
  temp-creation join; the rewritten query joins on equality;
* **duplicates** → step 1 projects the outer join column ``DISTINCT``,
  so duplicates in the outer relation cannot inflate COUNT/SUM/AVG.
"""

from __future__ import annotations

from repro.core._ja_common import InnerBlockParts, decompose_inner_block
from repro.core.transform import TempTableDef, TransformResult
from repro.errors import TransformError
from repro.sql.ast import (
    MIRRORED_OPS,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    Select,
    SelectItem,
    Star,
    TableRef,
    column_refs,
    conjuncts,
    make_and,
    walk,
)


def apply_nest_ja2(
    inner: Select,
    fresh_name,
    outer_tables: dict[str, str],
    outer_block: Select | None = None,
) -> TransformResult:
    """Rewrite a type-JA inner block per algorithm NEST-JA2.

    Args:
        inner: the inner query block, bound (every reference's
            ``table`` is its binding).
        fresh_name: zero-argument callable yielding fresh temp names.
        outer_tables: binding → catalog table name for every enclosing
            block's FROM entries (needed to project the outer relation).
        outer_block: the immediately enclosing block, if available;
            used only to mine its simple predicates for the step-1
            restriction (an optimization the paper includes).

    Returns:
        setup temp definitions (TEMP1 [, TEMP2], TEMP3) and the
        rewritten inner block — a type-J block over TEMP3 with equality
        join predicates, ready for NEST-N-J.
    """
    parts = decompose_inner_block(inner)
    trace: list[str] = []

    outer_binding = _single_outer_binding(parts)
    outer_table = outer_tables.get(outer_binding)
    if outer_table is None:
        raise TransformError(
            f"join predicate references unknown outer binding {outer_binding!r}"
        )

    # -- Step 1: TEMP1 — DISTINCT projection of the outer join columns,
    # restricted by the outer block's simple predicates on that table.
    temp1_name = fresh_name()
    outer_cols = _distinct_outer_columns(parts)
    temp1_items = tuple(
        SelectItem(ColumnRef(outer_binding, col.column), alias=f"C{i + 1}")
        for i, col in enumerate(outer_cols)
    )
    temp1_where = _outer_simple_predicates(outer_block, outer_binding)
    temp1 = TempTableDef(
        temp1_name,
        Select(
            items=temp1_items,
            from_tables=(TableRef(outer_table, alias=_alias_for(outer_binding, outer_table)),),
            where=temp1_where,
            distinct=True,
        ),
    )
    trace.append(f"NEST-JA2 step 1: {temp1.describe()}")
    col_index = {col.column: f"C{i + 1}" for i, col in enumerate(outer_cols)}

    is_count = parts.aggregate.name == "COUNT"

    # -- Step 2a: TEMP2 — restriction and projection of the inner block
    # (always built, matching the section 7 cost analysis's Rt3; for
    # COUNT it is *required* for correctness, section 5.2).
    temp2_name = fresh_name()
    inner_proj: list[SelectItem] = []
    join_col_alias: dict[int, str] = {}
    for i, pred in enumerate(parts.join_preds):
        alias = f"J{i + 1}"
        join_col_alias[i] = alias
        inner_proj.append(SelectItem(pred.inner_col, alias=alias))
    agg_arg_alias = None
    if not isinstance(parts.aggregate.arg, Star):
        agg_arg_alias = "VAL"
        inner_proj.append(SelectItem(parts.aggregate.arg, alias=agg_arg_alias))
    temp2 = TempTableDef(
        temp2_name,
        Select(
            items=tuple(inner_proj),
            from_tables=inner.from_tables,
            where=make_and(parts.simple_preds),
        ),
    )
    trace.append(f"NEST-JA2 step 2 (restrict/project inner): {temp2.describe()}")

    # -- Step 2b: TEMP3 — join TEMP1 with TEMP2 using the *original*
    # operators (outer join for COUNT), GROUP BY the outer columns,
    # aggregate.  COUNT(*) becomes COUNT(inner join column).
    temp3_name = fresh_name()
    join_conjuncts: list[Expr] = []
    for i, pred in enumerate(parts.join_preds):
        left = ColumnRef(temp1_name, col_index[pred.outer_col.column])
        right = ColumnRef(temp2_name, join_col_alias[i])
        # pred reads "inner op outer"; with TEMP1 (outer) on the left
        # the operator mirrors:  TEMP1.C mirror(op) TEMP2.J.
        join_conjuncts.append(
            Comparison(
                left,
                MIRRORED_OPS[pred.op],
                right,
                outer="left" if is_count else None,
            )
        )

    if is_count:
        count_arg = ColumnRef(
            temp2_name, agg_arg_alias or join_col_alias[0]
        )
        agg_expr: FuncCall = FuncCall("COUNT", count_arg, parts.aggregate.distinct)
    else:
        if agg_arg_alias is None:
            raise TransformError(f"{parts.aggregate.name}(*) is not valid SQL")
        agg_expr = FuncCall(
            parts.aggregate.name,
            ColumnRef(temp2_name, agg_arg_alias),
            parts.aggregate.distinct,
        )

    group_cols = tuple(
        ColumnRef(temp1_name, f"C{i + 1}") for i in range(len(outer_cols))
    )
    temp3_items = tuple(
        SelectItem(col, alias=f"C{i + 1}") for i, col in enumerate(group_cols)
    ) + (SelectItem(agg_expr, alias="CAGG"),)
    temp3 = TempTableDef(
        temp3_name,
        Select(
            items=temp3_items,
            from_tables=(TableRef(temp1_name), TableRef(temp2_name)),
            where=make_and(join_conjuncts),
            group_by=group_cols,
        ),
    )
    trace.append(f"NEST-JA2 step 2 (temp with aggregate): {temp3.describe()}")

    # -- Rewritten inner block: type-J over TEMP3 with equality joins
    # ("the join predicate in the original query must be changed to =").
    # For COUNT the equality must be *null-safe*: the outer join kept a
    # TEMP3 group for a NULL outer value (COUNT = 0), and a plain `=`
    # in the final join would silently drop exactly those rows again.
    rewritten_preds = [
        Comparison(
            ColumnRef(temp3_name, col_index[col.column]),
            "=",
            ColumnRef(outer_binding, col.column),
            null_safe=is_count,
        )
        for col in outer_cols
    ]
    rewritten = Select(
        items=(SelectItem(ColumnRef(temp3_name, "CAGG"), alias="CAGG"),),
        from_tables=(TableRef(temp3_name),),
        where=make_and(rewritten_preds),
    )
    trace.append(
        "NEST-JA2 step 3: inner block rewritten to equality join with "
        f"{temp3_name}"
    )

    return TransformResult(setup=[temp1, temp2, temp3], query=rewritten, trace=trace)


def _single_outer_binding(parts: InnerBlockParts) -> str:
    bindings = {pred.outer_col.table for pred in parts.join_preds}
    if None in bindings:
        raise TransformError(
            "correlated outer column references must be qualified"
        )
    if len(bindings) != 1:
        raise TransformError(
            "NEST-JA2 requires all join predicates to reference one outer "
            f"relation, found {sorted(b for b in bindings if b)}"
        )
    return next(iter(bindings))


def _distinct_outer_columns(parts: InnerBlockParts) -> list[ColumnRef]:
    seen: list[ColumnRef] = []
    for pred in parts.join_preds:
        if all(pred.outer_col.column != col.column for col in seen):
            seen.append(pred.outer_col)
    return seen


def _alias_for(binding: str, table: str) -> str | None:
    return binding if binding != table else None


def _outer_simple_predicates(
    outer_block: Select | None, outer_binding: str
) -> Expr | None:
    """Step 1's restriction: the outer block's predicates local to Ri,
    those whose every reference binds to ``outer_binding``."""
    if outer_block is None:
        return None

    def local(conjunct: Expr) -> bool:
        refs = list(column_refs(conjunct))
        return (
            bool(refs)
            and all(ref.table == outer_binding for ref in refs)
            # Nothing that holds a subquery.
            and not any(isinstance(node, Select) for node in walk(conjunct))
        )

    return make_and(c for c in conjuncts(outer_block.where) if local(c))
