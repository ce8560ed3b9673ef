"""Correlation analysis over query-block trees.

The paper's classification (section 2) hinges on one question per inner
block: *does it reference a relation of an outer query block?*  The
binder (:mod:`repro.sql.qualify`) answers it for every reference when
it writes ``ref.table``; these functions read that binding.  A qualified
reference like ``PARTS.PNUM`` inside a block whose FROM clause does not
mention PARTS is a correlated (join-predicate) reference.
"""

from __future__ import annotations

from repro.sql.ast import (
    ColumnRef,
    Exists,
    InSubquery,
    Node,
    Quantified,
    ScalarSubquery,
    Select,
    walk,
)


def outer_references(select: Select) -> list[ColumnRef]:
    """Column references in ``select``'s subtree that bind to an
    *enclosing* block's table: a reference is outer when its binding
    (``ref.table``) is no table of ``select`` nor of the nested blocks
    on the way down to it.  Takes a bound tree
    (:func:`~repro.core.pipeline.prepare_query`); an unqualified ORDER
    BY name is an output column of its block and is skipped.
    """
    local = select.table_bindings
    refs: list[ColumnRef] = []

    own_nodes: list[Node] = [*select.items, *select.group_by]
    own_nodes += [
        item
        for item in select.order_by
        if not (isinstance(item.expr, ColumnRef) and item.expr.table is None)
    ]
    if select.where is not None:
        own_nodes.append(select.where)
    if select.having is not None:
        own_nodes.append(select.having)

    for node in own_nodes:
        for item in walk(node, into_subqueries=False):
            if isinstance(item, ColumnRef):
                if item.table not in local:
                    refs.append(item)
            elif isinstance(item, Select):
                # What a nested block reads of this block's own tables
                # is not outer to this block.
                refs.extend(
                    ref for ref in outer_references(item) if ref.table not in local
                )
    return refs


def is_correlated(select: Select) -> bool:
    """True when the block (or any descendant) references an enclosing
    block's relation — the paper's type-J/JA condition."""
    return bool(outer_references(select))


def direct_subqueries(select: Select) -> list[Select]:
    """The inner query blocks nested directly in this block's predicates."""
    result: list[Select] = []
    nodes: list[Node] = []
    if select.where is not None:
        nodes.append(select.where)
    if select.having is not None:
        nodes.append(select.having)
    for node in nodes:
        for item in walk(node, into_subqueries=False):
            if isinstance(item, (ScalarSubquery, InSubquery, Exists, Quantified)):
                result.append(item.query)
    return result


def nesting_depth(select: Select) -> int:
    """Depth of the query-block tree (1 for an unnested query)."""
    inner = direct_subqueries(select)
    if not inner:
        return 1
    return 1 + max(nesting_depth(block) for block in inner)
