"""Section 8 — transforming EXISTS, NOT EXISTS, ANY, and ALL.

Each extended predicate is rewritten to a scalar-aggregate nested
predicate, after which it is a type-A or type-JA predicate and the
regular algorithms apply:

* ``EXISTS (Q)``      →  ``0 < (SELECT COUNT(...) ...)``
* ``NOT EXISTS (Q)``  →  ``0 = (SELECT COUNT(...) ...)``
* ``x = ANY (Q)`` → ``x IN (Q)`` and ``x <> ALL (Q)`` → ``x NOT IN (Q)``
  (normalized by the parser already).

The rewrites are exact — they preserve SQL semantics for every
comparison operator, including the empty-set and NULL-item edge cases
the paper's own table gets wrong:

* ``EXISTS`` counts ``COUNT(*)``;
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

:func:`paper_section8` is the section as printed, a demonstration no
engine runs by itself — ``EXISTS`` counts ``COUNT(selected column)``
(section 8.1) and ANY/ALL follow the section 8.2 table:

* ``x < ANY (Q)``     →  ``x < (SELECT MAX(item) ...)``   (also ``<=``)
* ``x < ALL (Q)``     →  ``x < (SELECT MIN(item) ...)``   (also ``<=``)
* ``x > ANY (Q)``     →  ``x > (SELECT MIN(item) ...)``   (also ``>=``)
* ``x > ALL (Q)``     →  ``x > (SELECT MAX(item) ...)``   (also ``>=``)

The paper itself calls these "logically (but not necessarily
semantically) equivalent" (section 8.2); the divergences, all pinned in
the test suite:

* with an **empty** inner result, ``x < ALL (∅)`` is *true* while the
  rewritten ``x < (SELECT MIN(...))`` compares against NULL and is
  unknown (rejects the tuple);
* **NULLs in the inner column** are ignored by MIN/MAX but participate
  in ANY/ALL comparisons as unknowns;
* ``COUNT(selected column)`` undercounts when the selected column is
  NULL, so EXISTS misses rows whose only matches are NULL there.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import replace

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
    children,
    make_and,
    map_children,
)

#: op, quantifier → aggregate for the section 8.2 table.
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

#: One extended predicate, with its inner block already rewritten →
#: the predicate that replaces it.
Rule = Callable[[Exists | Quantified, Select], Expr]


def rewrite_extended_predicates(select: Select) -> Select:
    """Rewrite every EXISTS / NOT EXISTS / ANY / ALL in a query tree by
    the exact counting rewrites (see module doc)."""
    return _rewrite_select(select, _exact)


def has_extended_predicates(select: Select) -> bool:
    """Whether :func:`rewrite_extended_predicates` changes ``select``:
    an EXISTS / ANY / ALL where the rewrite looks for one."""
    return any(
        _has_extended(expr)
        for expr in (select.where, select.having)
        if expr is not None
    )


def paper_section8(select: Select) -> Select:
    """Section 8 as printed: ``COUNT(selected column)`` for EXISTS and
    the MIN/MAX table for ANY / ALL; ``= ALL`` and ``<> ANY`` have no
    entry and raise :class:`TransformError`.

    The result is plain SQL over scalar subqueries, so
    ``Engine(catalog).run(paper_section8(parse(sql)))`` runs the
    paper's rewrite and shows each divergence the module doc lists.
    """
    return _rewrite_select(select, _paper)


def _rewrite_select(select: Select, rule: Rule) -> Select:
    where = None if select.where is None else _rewrite_expr(select.where, rule)
    having = None if select.having is None else _rewrite_expr(select.having, rule)
    return replace(select, where=where, having=having)


def _rewrite_expr(expr: Expr, rule: Rule) -> Expr:
    if isinstance(expr, Not) and isinstance(expr.operand, Exists):
        expr = replace(expr.operand, negated=not expr.operand.negated)
    if isinstance(expr, (Exists, Quantified)):
        return rule(expr, _rewrite_select(expr.query, rule))
    if isinstance(expr, Select):
        return _rewrite_select(expr, rule)
    return map_children(expr, lambda child: _rewrite_expr(child, rule))


def _has_extended(expr: Expr) -> bool:
    if isinstance(expr, (Exists, Quantified)):
        return True
    if isinstance(expr, Select):
        return has_extended_predicates(expr)
    return any(_has_extended(child) for child in children(expr))


def _count(inner: Select, arg: Expr) -> ScalarSubquery:
    """``inner``'s rows counted: one row, so its ORDER BY (which may name
    an output column the count replaces) goes."""
    item = SelectItem(FuncCall("COUNT", arg), alias="CNT")
    return ScalarSubquery(replace(inner, items=(item,), order_by=()))


def _exists_to_count(pred: Exists, inner: Select, arg: Expr) -> Comparison:
    """``[NOT] EXISTS (Q)`` → ``0 < COUNT`` / ``0 = COUNT`` (section 8.1)."""
    return Comparison(Literal(0), "=" if pred.negated else "<", _count(inner, arg))


def _quantified_item(inner: Select) -> Expr:
    if len(inner.items) != 1:
        raise TransformError("quantified subquery must select one item")
    item = inner.items[0].expr
    if isinstance(item, Star):
        raise TransformError("quantified subquery cannot select *")
    return item


def _exact(pred: Exists | Quantified, inner: Select) -> Expr:
    if isinstance(pred, Exists):
        return _exists_to_count(pred, inner, Star())
    item = _quantified_item(inner)
    matches = _count(
        replace(
            inner,
            where=make_and([inner.where, Comparison(pred.operand, pred.op, item)]),
        ),
        Star(),
    )
    if pred.quantifier == "ANY":
        return Comparison(Literal(0), "<", matches)
    return Comparison(_count(inner, Star()), "=", matches)


def _paper(pred: Exists | Quantified, inner: Select) -> Expr:
    if isinstance(pred, Exists):
        counted: Expr = Star()
        if len(inner.items) == 1 and isinstance(inner.items[0].expr, ColumnRef):
            counted = inner.items[0].expr
        return _exists_to_count(pred, inner, counted)
    agg = _QUANTIFIER_AGG.get((pred.op, pred.quantifier))
    if agg is None:
        raise TransformError(
            f"no section-8 transformation for {pred.op} {pred.quantifier} "
            "(only =ANY and <>ALL have IN forms, handled by the parser)"
        )
    aggregated = replace(
        inner,
        items=(SelectItem(FuncCall(agg, _quantified_item(inner)), alias="AGG"),),
        order_by=(),
    )
    return Comparison(pred.operand, pred.op, ScalarSubquery(aggregated))
