"""Kim's original algorithm NEST-JA (paper section 3.2) — **kept buggy
on purpose**.

    Algorithm NEST-JA
    1. Generate a temporary relation Rt(C1,...,Cn,Cn+1) from R2 such
       that Rt.Cn+1 is the result of applying the aggregate function
       AGG on the Cn+1 column of R2 [grouped by the join columns].
    2. Transform the inner query block by changing all references to R2
       columns in join predicates to the corresponding Rt columns.  The
       result is a type-J nested query, which can be passed to
       algorithm NEST-N-J.

This implementation is deliberately faithful to [KIM 82:455-456] so the
paper's three bugs reproduce exactly:

* **COUNT bug** (section 5.1): the temp table is built by grouping the
  inner relation alone, so groups that are empty for some outer tuple
  simply do not exist — COUNT can never be 0 and such outer tuples are
  silently lost (Kiessling's Q2 returns ∅ instead of {10, 8});
* **non-equality bug** (section 5.3): the temp groups by the *inner*
  join column even when the join operator is ``<``/``>``/..., so it
  aggregates per inner value instead of over the operator's range;
* **duplicates bug** (section 5.4): not applicable here (Kim's temp
  never joins the outer relation), but the corresponding bug appears in
  the naive outer-join fix, :func:`apply_nest_ja_outer_naive`.

:func:`kim_nest_g` and :func:`naive_outer_nest_g` run NEST-G with one
of these in place of NEST-JA2.  They are the only way to get a plan
with the bugs: no engine setting selects them, and
:func:`repro.serve.plan.run_transform` executes what they return.
Use :mod:`repro.core.nest_ja2` for the corrected algorithm.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.core._ja_common import decompose_inner_block
from repro.core.nest_g import GeneralTransform, _NestG
from repro.core.transform import TempTableDef, TransformResult
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    Expr,
    Select,
    SelectItem,
    TableRef,
    make_and,
)


def apply_nest_ja(inner: Select, temp_name: str) -> TransformResult:
    """Rewrite a type-JA inner block per Kim's (buggy) NEST-JA.

    Args:
        inner: the bound inner query block (aggregate SELECT plus
            correlated join predicates).
        temp_name: name for the temporary relation Rt.

    Returns:
        A :class:`TransformResult` whose ``setup`` builds Rt and whose
        ``query`` is the rewritten inner block — now type-J: it selects
        Rt's aggregate column and joins Rt to the outer relation with
        the *original* operators (preserving Kim's bug for non-equality
        operators).
    """
    parts = decompose_inner_block(inner)

    # Step 1 — Rt: group the inner relation by its own join columns,
    # applying only the simple predicates.  (This is where the COUNT
    # bug lives: no outer join, no outer projection.)
    group_items = tuple(
        SelectItem(pred.inner_col, alias=f"C{i + 1}")
        for i, pred in enumerate(parts.join_preds)
    )
    agg_item = SelectItem(parts.aggregate, alias="CAGG")
    temp_query = Select(
        items=group_items + (agg_item,),
        from_tables=inner.from_tables,
        where=make_and(parts.simple_preds),
        group_by=tuple(pred.inner_col for pred in parts.join_preds),
    )
    temp = TempTableDef(temp_name, temp_query)

    # Step 2 — rewrite the inner block to reference Rt.  Join-predicate
    # references to inner columns become Rt columns; the operator is
    # kept as-is (Kim), which is exactly the section 5.3 bug.
    rewritten_preds: list[Expr] = [
        Comparison(ColumnRef(temp_name, f"C{i + 1}"), pred.op, pred.outer_col)
        for i, pred in enumerate(parts.join_preds)
    ]
    rewritten = Select(
        items=(SelectItem(ColumnRef(temp_name, "CAGG"), alias="CAGG"),),
        from_tables=(TableRef(temp_name),),
        where=make_and(rewritten_preds),
    )

    trace = [
        f"NEST-JA (Kim): {temp.describe()}",
        "NEST-JA (Kim): inner block rewritten to reference "
        f"{temp_name} (operators preserved)",
    ]
    return TransformResult(setup=[temp], query=rewritten, trace=trace)


def apply_nest_ja_outer_naive(
    inner: Select,
    fresh_name,
    outer_tables: dict[str, str],
    outer_block: Select | None = None,
) -> TransformResult:
    """The naive outer-join fix — **kept buggy on purpose** (section 5.4).

    The obvious repair for Kim's COUNT bug is to outer-join the inner
    relation with the outer relation's join column before grouping, so
    empty groups exist and COUNT yields 0.  Done naively — joining the
    outer column *without eliminating duplicates first* — it trades the
    COUNT bug for the duplicates bug: a join value appearing k times in
    the outer relation lands k copies of every matching inner row in
    one group, so COUNT (and SUM/AVG) come out k times too large.

    Implemented as NEST-JA2 minus its step-1 ``DISTINCT``: identical
    temp chain, but the outer projection keeps duplicates.  The Kim-bug
    lint's KB003 rule exists to catch exactly this shape.
    """
    from dataclasses import replace

    from repro.core.nest_ja2 import apply_nest_ja2

    result = apply_nest_ja2(inner, fresh_name, outer_tables, outer_block)
    temp1 = result.setup[0]
    result.setup[0] = TempTableDef(
        temp1.name, replace(temp1.query, distinct=False)
    )
    result.trace.insert(
        1,
        "NEST-JA (naive outer fix): step-1 DISTINCT dropped — outer "
        "duplicates flow into the aggregate (section 5.4 bug)",
    )
    return result


def kim_nest_g(select: Select, catalog: Catalog) -> GeneralTransform:
    """NEST-G with Kim's NEST-JA in place of NEST-JA2 — the COUNT bug
    (section 5.1) and the operator bug (section 5.3) as a plan.  Takes
    what :func:`~repro.core.nest_g.nest_g` takes."""
    return _NestG(
        catalog,
        lambda inner, fresh_name, *_outer: apply_nest_ja(inner, fresh_name()),
    ).run(select)


def naive_outer_nest_g(select: Select, catalog: Catalog) -> GeneralTransform:
    """NEST-G with the naive outer-join fix in place of NEST-JA2 — the
    duplicates bug (section 5.4) as a plan."""
    return _NestG(catalog, apply_nest_ja_outer_naive).run(select)
