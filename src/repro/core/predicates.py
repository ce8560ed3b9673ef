"""Section 8 — transforming EXISTS, NOT EXISTS, ANY, and ALL.

Each extended predicate is rewritten to a scalar-aggregate nested
predicate, after which it is a type-A or type-JA predicate and the
regular algorithms apply:

* ``EXISTS (Q)``      →  ``0 < (SELECT COUNT(...) ...)``
* ``NOT EXISTS (Q)``  →  ``0 = (SELECT COUNT(...) ...)``
* ``x = ANY (Q)`` → ``x IN (Q)`` and ``x <> ALL (Q)`` → ``x NOT IN (Q)``
  (normalized by the parser already).

For ANY/ALL two rewrite strategies are offered
(``quantifier_mode``):

``"exact"`` (the default) — counting rewrites that preserve SQL
semantics for every comparison operator, including the empty-set and
NULL-item edge cases the paper's MIN/MAX table gets wrong:

* ``x op ANY (Q)``  →  ``0 < (SELECT COUNT(*) FROM ... WHERE ... AND
  x op item)`` — some inner row compares True;
* ``x op ALL (Q)``  →  ``(SELECT COUNT(*) FROM ... WHERE ...) =
  (SELECT COUNT(*) FROM ... WHERE ... AND x op item)`` — *every* inner
  row compares True (vacuously satisfied by an empty set, and a NULL
  item or NULL ``x`` makes the right count fall short, rejecting the
  tuple exactly as three-valued ALL does).

These are exact in positive conjunct contexts, the only place the
transformation pipeline accepts subqueries (``ensure_transformable``
rejects subqueries under OR/NOT).  They also cover ``= ALL`` and
``<> ANY``, which have no MIN/MAX form.

``"paper"`` — the paper's section 8.2 table:

* ``x < ANY (Q)``     →  ``x < (SELECT MAX(item) ...)``   (also ``<=``)
* ``x < ALL (Q)``     →  ``x < (SELECT MIN(item) ...)``   (also ``<=``)
* ``x > ANY (Q)``     →  ``x > (SELECT MIN(item) ...)``   (also ``>=``)
* ``x > ALL (Q)``     →  ``x > (SELECT MAX(item) ...)``   (also ``>=``)

Semantic caveats of the paper mode (the paper itself says "logically
(but not necessarily semantically) equivalent", section 8.2) — all
demonstrated in the test suite:

* with an **empty** inner result, ``x < ALL (∅)`` is *true* while the
  rewritten ``x < (SELECT MIN(...))`` compares against NULL and is
  unknown (rejects the tuple);
* **NULLs in the inner column** are ignored by MIN/MAX but participate
  in ANY/ALL comparisons as unknowns;
* for EXISTS the paper counts ``COUNT(selitems)``, which undercounts
  when the selected column is NULL; the default here is the always-
  correct ``COUNT(*)`` (pass ``exists_count_mode="paper"`` for the
  literal behaviour).
"""

from __future__ import annotations

from dataclasses import replace

from repro.config import ExecConfig
from repro.errors import TransformError
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    Exists,
    Expr,
    FuncCall,
    Literal,
    Not,
    Quantified,
    ScalarSubquery,
    Select,
    SelectItem,
    Star,
    make_and,
    map_children,
)

#: op, quantifier → aggregate for the section 8.2 table (paper mode).
_QUANTIFIER_AGG = {
    ("<", "ANY"): "MAX",
    ("<=", "ANY"): "MAX",
    (">", "ANY"): "MIN",
    (">=", "ANY"): "MIN",
    ("<", "ALL"): "MIN",
    ("<=", "ALL"): "MIN",
    (">", "ALL"): "MAX",
    (">=", "ALL"): "MAX",
}


def rewrite_extended_predicates(
    select: Select, config: ExecConfig = ExecConfig()
) -> Select:
    """Rewrite every EXISTS / NOT EXISTS / ANY / ALL in a query tree,
    by ``config.exists_count_mode`` and ``config.quantifier_mode``."""
    return _rewrite_select(
        select, config.exists_count_mode, config.quantifier_mode
    )


def _rewrite_select(select: Select, mode: str, qmode: str) -> Select:
    where = (
        _rewrite_expr(select.where, mode, qmode)
        if select.where is not None
        else None
    )
    having = (
        _rewrite_expr(select.having, mode, qmode)
        if select.having is not None
        else None
    )
    return replace(select, where=where, having=having)


def _rewrite_expr(expr: Expr, mode: str, qmode: str) -> Expr:
    if isinstance(expr, Not) and isinstance(expr.operand, Exists):
        inner = expr.operand
        return _exists_to_count(
            inner.query, negated=not inner.negated, mode=mode, qmode=qmode
        )
    if isinstance(expr, Exists):
        return _exists_to_count(
            expr.query, negated=expr.negated, mode=mode, qmode=qmode
        )
    if isinstance(expr, Quantified):
        if qmode == "exact":
            return _quantified_to_count(expr, mode, qmode)
        return _quantified_to_aggregate(expr, mode, qmode)
    if isinstance(expr, Select):
        return _rewrite_select(expr, mode, qmode)
    return map_children(expr, lambda child: _rewrite_expr(child, mode, qmode))


def _exists_to_count(
    query: Select, negated: bool, mode: str, qmode: str
) -> Comparison:
    """``[NOT] EXISTS (Q)`` → ``0 < COUNT`` / ``0 = COUNT`` (section 8.1)."""
    inner = _rewrite_select(query, mode, qmode)
    count_arg: Expr = Star()
    if mode == "paper" and len(inner.items) == 1 and isinstance(
        inner.items[0].expr, ColumnRef
    ):
        count_arg = inner.items[0].expr
    counting = replace(
        inner,
        items=(SelectItem(FuncCall("COUNT", count_arg), alias="CNT"),),
    )
    op = "=" if negated else "<"
    return Comparison(Literal(0), op, ScalarSubquery(counting))


def _quantified_item(inner: Select) -> Expr:
    if len(inner.items) != 1:
        raise TransformError("quantified subquery must select one item")
    item = inner.items[0].expr
    if isinstance(item, Star):
        raise TransformError("quantified subquery cannot select *")
    return item


def _quantified_to_count(pred: Quantified, mode: str, qmode: str) -> Expr:
    """Exact counting rewrite of ``x op ANY|ALL (Q)`` (see module doc)."""
    inner = _rewrite_select(pred.query, mode, qmode)
    item = _quantified_item(inner)
    matches = replace(
        inner,
        items=(SelectItem(FuncCall("COUNT", Star()), alias="CNT"),),
        where=make_and([inner.where, Comparison(pred.operand, pred.op, item)]),
    )
    if pred.quantifier == "ANY":
        return Comparison(Literal(0), "<", ScalarSubquery(matches))
    total = replace(
        inner,
        items=(SelectItem(FuncCall("COUNT", Star()), alias="CNT"),),
    )
    return Comparison(ScalarSubquery(total), "=", ScalarSubquery(matches))


def _quantified_to_aggregate(pred: Quantified, mode: str, qmode: str) -> Comparison:
    """``x op ANY|ALL (Q)`` → scalar comparison with MIN/MAX (section 8.2)."""
    agg = _QUANTIFIER_AGG.get((pred.op, pred.quantifier))
    if agg is None:
        raise TransformError(
            f"no section-8 transformation for {pred.op} {pred.quantifier} "
            "(only =ANY and <>ALL have IN forms, handled by the parser)"
        )
    inner = _rewrite_select(pred.query, mode, qmode)
    item = _quantified_item(inner)
    aggregated = replace(
        inner,
        items=(SelectItem(FuncCall(agg, item), alias="AGG"),),
    )
    return Comparison(pred.operand, pred.op, ScalarSubquery(aggregated))
