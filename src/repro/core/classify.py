"""Kim's classification of nested predicates (paper section 2).

A nested predicate ``[Ri.Ck op Q]`` is classified by two independent
questions about the inner query block ``Q``:

======================  =======================  ======
correlated join pred?   aggregate SELECT clause  type
======================  =======================  ======
no                      yes                      A
no                      no                       N
yes                     no                       J
yes                     yes                      JA
======================  =======================  ======

"Correlated" means ``Q`` (or a block nested inside it) contains a join
predicate referencing a relation that is not in its own FROM clause —
the relation of an outer query block.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import TransformError
from repro.sql.analysis import is_correlated
from repro.sql.ast import (
    Comparison,
    Exists,
    Expr,
    InSubquery,
    Quantified,
    ScalarSubquery,
    Select,
    conjuncts,
)


class NestingType(enum.Enum):
    """The four nesting types of [KIM 82] relevant to the paper."""

    TYPE_A = "A"
    TYPE_N = "N"
    TYPE_J = "J"
    TYPE_JA = "JA"

    @property
    def is_correlated(self) -> bool:
        return self in (NestingType.TYPE_J, NestingType.TYPE_JA)

    @property
    def has_aggregate(self) -> bool:
        return self in (NestingType.TYPE_A, NestingType.TYPE_JA)


@dataclass(frozen=True)
class NestedPredicate:
    """A nested predicate found in a query block's WHERE clause.

    Attributes:
        node: the predicate expression embedding the inner block —
            a :class:`Comparison` whose right side is a scalar subquery,
            or an :class:`InSubquery`.
        query: the inner query block.
        nesting: Kim's classification of this predicate.
    """

    node: Expr
    query: Select
    nesting: NestingType


def classify_nested_predicate(node: Expr) -> NestedPredicate:
    """Classify one nested predicate of a bound block's WHERE clause
    (:func:`~repro.core.pipeline.prepare_query`): the inner block is
    correlated when it reads a binding of no block inside it."""
    query = _inner_block(node)
    correlated = is_correlated(query)
    aggregated = query.has_aggregate_select()
    if correlated:
        nesting = NestingType.TYPE_JA if aggregated else NestingType.TYPE_J
    else:
        nesting = NestingType.TYPE_A if aggregated else NestingType.TYPE_N
    return NestedPredicate(node=node, query=query, nesting=nesting)


def classify_block(block: Select) -> list[NestedPredicate]:
    """Classify every nested predicate among the block's WHERE conjuncts.

    Only top-level conjuncts are considered: the transformation
    algorithms (like the paper) assume nested predicates are ANDed in.
    A nested predicate under OR/NOT is reported as an error by
    :func:`ensure_transformable`.
    """
    return [
        classify_nested_predicate(conjunct)
        for conjunct in conjuncts(block.where)
        if _embeds_block(conjunct)
    ]


def ensure_transformable(block: Select) -> None:
    """Reject nested predicates the algorithms cannot reach.

    The transformations operate on ANDed nested predicates.  A subquery
    under OR or NOT (other than the recognized NOT IN / NOT EXISTS
    forms, which are their own node types) cannot be unnested by the
    paper's algorithms; fail loudly instead of producing wrong plans.
    """
    from repro.sql.ast import And, Not, Or, walk

    def contains_subquery(expr: Expr) -> bool:
        return any(
            _embeds_block(node) for node in walk(expr, into_subqueries=False)
        )

    def check(expr: Expr) -> None:
        if isinstance(expr, And):
            for operand in expr.operands:
                check(operand)
        elif isinstance(expr, (Or, Not)) and contains_subquery(expr):
            raise TransformError(
                "nested predicate under OR/NOT cannot be transformed "
                "by the paper's algorithms"
            )

    if block.where is not None:
        check(block.where)


def _embeds_block(expr: Expr) -> bool:
    if isinstance(expr, InSubquery):
        return True
    if isinstance(expr, (Exists, Quantified)):
        return True
    if isinstance(expr, Comparison):
        return isinstance(expr.left, ScalarSubquery) or isinstance(
            expr.right, ScalarSubquery
        )
    return False


def _inner_block(node: Expr) -> Select:
    if isinstance(node, InSubquery):
        return node.query
    if isinstance(node, Comparison):
        if isinstance(node.right, ScalarSubquery):
            return node.right.query
        if isinstance(node.left, ScalarSubquery):
            return node.left.query
    if isinstance(node, (Exists, Quantified)):
        raise TransformError(
            "EXISTS/ANY/ALL predicates must be rewritten first "
            "(repro.core.predicates.rewrite_extended_predicates)"
        )
    raise TransformError(f"not a nested predicate: {node!r}")
