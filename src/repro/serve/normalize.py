"""SQL normalization for plan-cache keying.

Two queries that differ only in predicate literal values —
``QOH = 100`` vs ``QOH = 200`` — share one transformed plan shape, so
they should share one cache entry.  :func:`parameterize` rewrites every
non-NULL literal under WHERE/HAVING (at any nesting depth) into a
:class:`~repro.sql.ast.Parameter` and returns the extracted values; the
plan is built once against the parameterized tree and executed with the
literals bound per call.

NULL literals are deliberately *not* parameterized: ``c = NULL`` and
``c IS NULL`` shapes drive three-valued-logic analysis, nullability
inference, and the Kim-bug lint, all of which must see the NULL at plan
time.  Literals outside predicates (SELECT items, GROUP BY, ORDER BY)
are also left alone — they name output columns and ordering, and
varying them legitimately changes the plan's output shape.

:func:`fingerprint` renders the parameterized tree back to SQL text via
the printer, which canonicalizes whitespace, keyword case, identifier
case, and operator spellings — so textual variants of the same query
normalize to the same key.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from repro.sql.ast import (
    Expr,
    Literal,
    Parameter,
    Select,
    rewrite_leaves,
    user_param_count,
)
from repro.sql.printer import to_sql


def parameterize(
    select: Select, declared: int | None = None
) -> tuple[Select, tuple[object, ...]]:
    """Extract predicate literals into parameters.

    Returns ``(normalized_select, extracted_values)``.  Extracted
    literal slots are numbered after any user-declared parameters
    (``declared``, counted when not given), so a caller binds
    ``user_values + extracted_values``.
    """
    if declared is None:
        declared = user_param_count(select)
    counter = itertools.count(declared)
    extracted: list[object] = []

    def leaf(expr: Expr) -> Expr:
        if isinstance(expr, Literal) and expr.value is not None:
            extracted.append(expr.value)
            return Parameter(next(counter))
        return expr

    where = (
        rewrite_leaves(select.where, leaf) if select.where is not None else None
    )
    having = (
        rewrite_leaves(select.having, leaf)
        if select.having is not None
        else None
    )
    return replace(select, where=where, having=having), tuple(extracted)


def fingerprint(select: Select) -> str:
    """The cache key's SQL component for an already-normalized tree."""
    return to_sql(select)
