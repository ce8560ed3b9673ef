"""Correlation analysis over query-block trees.

The paper's classification (section 2) hinges on one question per inner
block: *does it reference a relation of an outer query block?*  A
qualified reference like ``PARTS.PNUM`` inside a block whose FROM
clause does not mention PARTS is a correlated (join-predicate)
reference.  Unqualified references need schema knowledge to attribute,
which is why these functions take a resolver.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping

from repro.errors import BindError
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

#: Maps a table binding to a "has column?" predicate.  The catalog
#: provides the real implementation; tests can pass plain dicts of sets.
ColumnResolver = Callable[[str, str], bool]


def resolver_from_columns(columns: Mapping[str, set[str]]) -> ColumnResolver:
    """Build a resolver from ``{binding: {column, ...}}`` (for tests)."""

    def resolver(binding: str, column: str) -> bool:
        return column in columns.get(binding, set())

    return resolver


def outer_references(
    select: Select,
    has_column: ColumnResolver,
    enclosing: tuple[str, ...] = (),
) -> list[ColumnRef]:
    """Column references in ``select``'s subtree that bind to an
    *enclosing* block's table rather than a local one.

    ``enclosing`` lists the bindings visible from outer blocks,
    outermost last; innermost-first resolution applies to unqualified
    names (a column is local if any local table has it).
    """
    local = select.table_bindings
    refs: list[ColumnRef] = []

    own_nodes: list[Node] = [*select.items, *select.group_by, *select.order_by]
    if select.where is not None:
        own_nodes.append(select.where)
    if select.having is not None:
        own_nodes.append(select.having)

    for node in own_nodes:
        for item in walk(node, into_subqueries=False):
            if isinstance(item, ColumnRef):
                ref = item
                if _binds_locally(ref, local, has_column):
                    continue
                if _binds_to(ref, enclosing, has_column):
                    refs.append(ref)
                else:
                    raise BindError(
                        f"cannot resolve column {ref.qualified()} in block"
                    )
            elif isinstance(item, Select):
                # What a nested block reads of this block's own tables
                # is not outer to this block.
                refs.extend(
                    ref
                    for ref in outer_references(item, has_column, enclosing + local)
                    if not _binds_locally(ref, local, has_column)
                )
    return refs


def _binds_locally(
    ref: ColumnRef, local: tuple[str, ...], has_column: ColumnResolver
) -> bool:
    if ref.table is not None:
        return ref.table in local
    return any(has_column(binding, ref.column) for binding in local)


def _binds_to(
    ref: ColumnRef, bindings: tuple[str, ...], has_column: ColumnResolver
) -> bool:
    if ref.table is not None:
        return ref.table in bindings
    return any(has_column(binding, ref.column) for binding in bindings)


def is_correlated(
    select: Select,
    has_column: ColumnResolver,
    enclosing: tuple[str, ...],
) -> bool:
    """True when the block (or any descendant) references an enclosing
    block's relation — the paper's type-J/JA condition."""
    return bool(outer_references(select, has_column, enclosing))


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
