"""The binder: check every column name and make every reference
table-qualified.

The one place a column name is resolved.  Each reference binds against
its own block's tables first, then the enclosing blocks', innermost
first: the innermost scope that has the reference's binding (or, for an
unqualified name, its column) decides, so a deeper scope never rescues
a missing column.  Afterwards ``ref.table`` *is* the binding, and every
later pass reads it.  NEST-N-J merges FROM clauses, so a column that was
unambiguous inside its own block (``SELECT SNO FROM S``) can become
ambiguous in the merged block (both S and SP have SNO): binding before
transformation makes all later AST surgery safe.

The binder is also the one name checker.  It reports, as stable rule
ids (:mod:`repro.analysis.diagnostics`): PV001, a name that resolves
nowhere; PV002, an ambiguous one, or a FROM clause that names one
binding twice; PV004, a FROM table it does not know
(whose columns then resolve nowhere); PV011, an ORDER BY the executors
cannot sort on (:func:`~repro.sql.output.order_positions`).  It collects
every finding, with a source span when it is handed the source text,
and raises them as one error.

The one reference left unqualified is an ORDER BY name of a SELECT
alias: it names an output column, not a table's.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import replace

from repro.analysis.diagnostics import Diagnostic, Findings
from repro.errors import PlanError
from repro.sql.ast import (
    ColumnRef,
    Expr,
    Node,
    OrderItem,
    Select,
    SelectItem,
    Star,
    map_children,
)
from repro.sql.output import ColumnLister, order_positions
from repro.sql.printer import to_sql

#: One block's bindings → their column names.
Scope = dict[str, Sequence[str]]


def qualify(
    select: Select,
    columns_of: ColumnLister,
    findings: Findings | None = None,
    source_map=None,
) -> Select:
    """Return ``select`` with every column reference qualified and every
    ``*`` (or ``T.*``) item expanded into qualified references.

    Args:
        select: the statement (descends into nested blocks).
        columns_of: a binding's column names, or None for a binding it
            does not know.
        findings: where the findings go, each name that has one left as
            written.  Without it they raise one error
            (:meth:`~repro.analysis.diagnostics.Findings.raise_errors`):
            ``ColumnVerificationError`` (a ``BindError``) for names,
            ``VerificationError`` once an ORDER BY or a table is among
            them.
        source_map: the statement's
            :class:`~repro.analysis.spans.SourceMap`; a name's finding
            then carries its span in the source text.
    """
    sink = Findings() if findings is None else findings
    bound = _Binder(columns_of, sink, source_map).bind(select, ())
    if findings is None:
        sink.raise_errors("cannot bind statement")
    return bound


class _Binder:
    def __init__(
        self, columns_of: ColumnLister, findings: Findings, source_map
    ) -> None:
        self.columns_of = columns_of
        self.findings = findings
        self.source_map = source_map

    def bind(self, select: Select, enclosing: tuple[Scope, ...]) -> Select:
        """``select`` bound under the scopes of its enclosing blocks,
        innermost first."""
        local: Scope = {}
        for ref in select.from_tables:
            columns = self.columns_of(ref.binding)
            if columns is None:
                self.report(
                    select, "PV004", f"unknown table {ref.name!r} in FROM clause"
                )
                columns = ()
            if ref.binding in local:
                # Every column of the binding would be ambiguous.
                self.report(
                    select,
                    "PV002",
                    f"binding {ref.binding!r} is named twice in FROM clause",
                )
            local[ref.binding] = columns
        scopes = (local, *enclosing)

        def fix(node: Node) -> Node:
            if isinstance(node, ColumnRef):
                return self.resolve(node, scopes, select)
            if isinstance(node, Select):
                return self.bind(node, scopes)
            return map_children(node, fix)

        items: list[SelectItem] = []
        for item in select.items:
            if isinstance(item.expr, Star):
                items.extend(self.expand(item.expr, local, select))
            else:
                items.append(SelectItem(fix(item.expr), item.alias))

        # An unqualified ORDER BY name that is a SELECT-list alias refers to
        # that output column — ahead of any base column of the same name, as
        # in SQLite — so it is not a table column to qualify.
        aliases = {item.alias for item in select.items if item.alias}

        def fix_order(expr: Expr) -> Expr:
            if (
                isinstance(expr, ColumnRef)
                and expr.table is None
                and expr.column in aliases
            ):
                return expr
            return fix(expr)

        where = fix(select.where) if select.where is not None else None
        group_by = tuple(fix(expr) for expr in select.group_by)
        having = fix(select.having) if select.having is not None else None
        found = len(self.findings)
        bound = replace(
            select,
            items=tuple(items),
            where=where,
            group_by=group_by,
            having=having,
            order_by=tuple(
                OrderItem(fix_order(item.expr), item.descending)
                for item in select.order_by
            ),
        )
        # An ORDER BY name that resolves nowhere is PV001 already.
        if bound.order_by and len(self.findings) == found:
            try:
                order_positions(bound)
            except PlanError as error:
                self.report(select, "PV011", str(error))
        return bound

    def resolve(
        self, ref: ColumnRef, scopes: tuple[Scope, ...], block: Select
    ) -> ColumnRef:
        """``ref`` qualified by the binding it resolves to."""
        for scope in scopes:
            if ref.table is not None:
                if ref.table not in scope:
                    continue
                if ref.column in scope[ref.table]:
                    return ref
                break  # the binding is visible here but lacks the column
            owners = [b for b, columns in scope.items() if ref.column in columns]
            if len(owners) == 1:
                return ColumnRef(owners[0], ref.column)
            if owners:
                self.report(
                    block,
                    "PV002",
                    f"ambiguous column {ref.column!r} (candidates: {sorted(owners)})",
                    ref,
                )
                return ref
        self.report(block, "PV001", f"cannot resolve column {ref.qualified()}", ref)
        return ref

    def expand(self, star: Star, local: Scope, block: Select) -> list[SelectItem]:
        bindings = block.table_bindings if star.table is None else (star.table,)
        expanded: list[SelectItem] = []
        for binding in bindings:
            if binding not in local:
                self.report(
                    block, "PV001", f"cannot expand {binding}.* (unknown binding)"
                )
                continue
            expanded.extend(
                SelectItem(ColumnRef(binding, column)) for column in local[binding]
            )
        return expanded

    def report(
        self, block: Select, rule: str, message: str, ref: ColumnRef | None = None
    ) -> None:
        span = None
        if ref is not None and self.source_map is not None:
            span = self.source_map.column_span(ref)
        self.findings.add(
            Diagnostic(rule, message, subject=to_sql(block), span=span)
        )
