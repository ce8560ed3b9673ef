"""Type and nullability inference over expression trees (3VL-aware).

For every column and expression the pass infers ``(type, nullable)``
*without executing anything*, from three sources of truth:

* **schema constraints** — a primary-key column of a stored base table
  can never be NULL (the catalog enforces this on insert);
* **outer-join padding** — any column of the null-padded side of an
  outer join (section 5.2's ``=+`` comparison) is nullable in the join
  output even when its base column is not;
* **aggregate semantics** — ``COUNT`` never yields NULL (an empty
  group counts 0), while ``SUM``/``AVG``/``MIN``/``MAX`` over an empty
  or all-NULL group yield NULL, the distinction sections 5.1–5.2 of
  the paper turn on.

The inference is *sound*, not complete: ``nullable=True`` means "may
be NULL", and a column inferred ``nullable=False`` must never produce
NULL at runtime (a hypothesis property test holds the pass to exactly
that claim).  When in doubt the pass says nullable.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.catalog.catalog import Catalog
from repro.catalog.schema import ColumnType
from repro.sql.ast import (
    And,
    Between,
    BinaryArith,
    ColumnRef,
    Comparison,
    Exists,
    Expr,
    FuncCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Not,
    Or,
    Quantified,
    ScalarSubquery,
    Select,
    Star,
    UnaryMinus,
    conjuncts,
)
from repro.sql.output import item_name


@dataclass(frozen=True)
class Inferred:
    """What static analysis knows about one expression's value."""

    ctype: ColumnType
    nullable: bool

    def describe(self) -> str:
        suffix = "NULL" if self.nullable else "NOT NULL"
        return f"{self.ctype.value} {suffix}"


#: The fallback when nothing is known: any type, may be NULL.
UNKNOWN = Inferred(ColumnType.ANY, True)

#: ``binding -> {column: Inferred}``, or None for an unknown binding.
SchemaProvider = Callable[[str], "Mapping[str, Inferred] | None"]


def catalog_provider(
    catalog: Catalog,
    temps: Mapping[str, Mapping[str, Inferred]] | None = None,
) -> SchemaProvider:
    """Schema provider over a catalog plus not-yet-built temp tables.

    Base-table primary-key columns are NOT NULL (the catalog rejects
    NULL key values on insert); all other stored columns are nullable.
    ``temps`` lets the plan verifier chain inference through temp-table
    definitions before they are materialized.
    """

    def provide(binding: str) -> Mapping[str, Inferred] | None:
        if temps is not None and binding in temps:
            return temps[binding]
        if not catalog.has_table(binding):
            return None
        schema = catalog.schema_of(binding)
        return {
            column.name: Inferred(
                column.ctype, column.name not in schema.primary_key
            )
            for column in schema.columns
        }

    return provide


class Scope:
    """Name resolution for inference: bindings chained to outer scopes."""

    def __init__(
        self,
        bindings: dict[str, Mapping[str, Inferred]],
        padded: frozenset[str] = frozenset(),
        parent: "Scope | None" = None,
    ) -> None:
        self.bindings = bindings
        self.padded = padded
        self.parent = parent

    def resolve(self, ref: ColumnRef) -> Inferred | None:
        """Innermost-scope-first resolution; None when unresolvable."""
        scope: Scope | None = self
        while scope is not None:
            found = scope._resolve_local(ref)
            if found is not None:
                return found
            scope = scope.parent
        return None

    def _resolve_local(self, ref: ColumnRef) -> Inferred | None:
        if ref.table is not None:
            columns = self.bindings.get(ref.table)
            if columns is None or ref.column not in columns:
                return None
            return self._pad(ref.table, columns[ref.column])
        owners = [
            binding
            for binding, columns in self.bindings.items()
            if ref.column in columns
        ]
        if len(owners) != 1:
            return None
        return self._pad(owners[0], self.bindings[owners[0]][ref.column])

    def _pad(self, binding: str, inferred: Inferred) -> Inferred:
        if binding in self.padded and not inferred.nullable:
            return Inferred(inferred.ctype, True)
        return inferred


def padded_bindings(select: Select) -> frozenset[str]:
    """Bindings on the null-padded side of the block's outer joins.

    ``Comparison.outer == "left"`` preserves the relation of the left
    *operand*, padding the right operand's relation with NULLs for
    unmatched rows (and vice versa); ``"full"`` pads both sides.
    """
    padded: set[str] = set()
    for conjunct in conjuncts(select.where):
        if not isinstance(conjunct, Comparison) or conjunct.outer is None:
            continue
        sides = {"left": conjunct.left, "right": conjunct.right}
        if conjunct.outer == "full":
            victims = list(sides.values())
        elif conjunct.outer == "left":
            victims = [sides["right"]]
        else:
            victims = [sides["left"]]
        for victim in victims:
            if isinstance(victim, ColumnRef) and victim.table is not None:
                padded.add(victim.table)
    return frozenset(padded)


class NullabilityInference:
    """Infers :class:`Inferred` facts for expressions and query blocks."""

    def __init__(self, provider: SchemaProvider) -> None:
        self.provider = provider

    # -- query blocks ------------------------------------------------------

    def scope_for(self, select: Select, parent: Scope | None = None) -> Scope:
        bindings: dict[str, Mapping[str, Inferred]] = {}
        for ref in select.from_tables:
            columns = self.provider(ref.name)
            if columns is not None:
                bindings[ref.binding] = columns
        return Scope(bindings, padded_bindings(select), parent)

    def infer_output(
        self, select: Select, parent: Scope | None = None
    ) -> list[tuple[str, Inferred]]:
        """``(output name, Inferred)`` per SELECT item of the block."""
        scope = self.scope_for(select, parent)
        outputs: list[tuple[str, Inferred]] = []
        for item in select.items:
            outputs.append((item_name(item), self.infer_expr(item.expr, scope)))
        return outputs

    # -- expressions -------------------------------------------------------

    def infer_expr(self, expr: Expr, scope: Scope) -> Inferred:
        if isinstance(expr, ColumnRef):
            return scope.resolve(expr) or UNKNOWN
        if isinstance(expr, Literal):
            return Inferred(_literal_type(expr.value), expr.value is None)
        if isinstance(expr, Star):
            return UNKNOWN
        if isinstance(expr, FuncCall):
            return self._infer_aggregate(expr, scope)
        if isinstance(expr, UnaryMinus):
            operand = self.infer_expr(expr.operand, scope)
            return Inferred(_numeric(operand.ctype), operand.nullable)
        if isinstance(expr, BinaryArith):
            left = self.infer_expr(expr.left, scope)
            right = self.infer_expr(expr.right, scope)
            ctype = _arith_type(expr.op, left.ctype, right.ctype)
            return Inferred(ctype, left.nullable or right.nullable)
        if isinstance(expr, ScalarSubquery):
            return self._infer_scalar_subquery(expr.query, scope)
        # -- predicates used as values (three-valued booleans) -------------
        if isinstance(expr, Comparison):
            if expr.null_safe:
                return Inferred(ColumnType.INT, False)
            left = self.infer_expr(expr.left, scope)
            right = self.infer_expr(expr.right, scope)
            return Inferred(ColumnType.INT, left.nullable or right.nullable)
        if isinstance(expr, IsNull):
            # IS [NOT] NULL is never unknown.
            return Inferred(ColumnType.INT, False)
        if isinstance(expr, Exists):
            return Inferred(ColumnType.INT, False)
        if isinstance(expr, Between):
            parts = [
                self.infer_expr(expr.operand, scope),
                self.infer_expr(expr.low, scope),
                self.infer_expr(expr.high, scope),
            ]
            return Inferred(ColumnType.INT, any(p.nullable for p in parts))
        if isinstance(expr, InList):
            parts = [self.infer_expr(expr.operand, scope)] + [
                self.infer_expr(item, scope) for item in expr.items
            ]
            return Inferred(ColumnType.INT, any(p.nullable for p in parts))
        if isinstance(expr, (InSubquery, Quantified)):
            # Depends on the inner rows; conservatively unknown-able.
            return Inferred(ColumnType.INT, True)
        if isinstance(expr, (And, Or)):
            parts = [self.infer_expr(op, scope) for op in expr.operands]
            return Inferred(ColumnType.INT, any(p.nullable for p in parts))
        if isinstance(expr, Not):
            operand = self.infer_expr(expr.operand, scope)
            return Inferred(ColumnType.INT, operand.nullable)
        return UNKNOWN

    # -- helpers -----------------------------------------------------------

    def _infer_aggregate(self, call: FuncCall, scope: Scope) -> Inferred:
        if call.name == "COUNT":
            # COUNT is never NULL: an empty group counts 0.  This is
            # the section 5.1/5.2 distinction the whole paper hangs on.
            return Inferred(ColumnType.INT, False)
        if not call.is_aggregate:
            return UNKNOWN
        if isinstance(call.arg, Star):
            arg = UNKNOWN
        else:
            arg = self.infer_expr(call.arg, scope)
        # SUM/AVG/MIN/MAX of an empty (or all-NULL) group is NULL, so
        # they are nullable regardless of their argument.
        if call.name == "AVG":
            return Inferred(ColumnType.FLOAT, True)
        if call.name == "SUM":
            return Inferred(_numeric(arg.ctype), True)
        return Inferred(arg.ctype, True)

    def _infer_scalar_subquery(self, query: Select, scope: Scope) -> Inferred:
        """A scalar subquery: zero rows evaluate to NULL (section 5.3).

        The one shape guaranteed to yield exactly one row is a single
        aggregate item without GROUP BY — there the aggregate's own
        nullability applies (COUNT stays NOT NULL; ``SUM`` of an empty
        group is still NULL).
        """
        inner_scope = self.scope_for(query, scope)
        if not query.items:
            return UNKNOWN
        item = self.infer_expr(query.items[0].expr, inner_scope)
        guaranteed_row = (
            len(query.items) == 1
            and not query.group_by
            and query.has_aggregate_select()
            and query.having is None
        )
        if guaranteed_row:
            return item
        return Inferred(item.ctype, True)


def _literal_type(value: object) -> ColumnType:
    if isinstance(value, bool):
        return ColumnType.ANY
    if isinstance(value, int):
        return ColumnType.INT
    if isinstance(value, float):
        return ColumnType.FLOAT
    if isinstance(value, str):
        return ColumnType.TEXT
    return ColumnType.ANY


def _numeric(ctype: ColumnType) -> ColumnType:
    if ctype in (ColumnType.INT, ColumnType.FLOAT):
        return ctype
    return ColumnType.ANY


def _arith_type(op: str, left: ColumnType, right: ColumnType) -> ColumnType:
    if op == "/":
        # The engine divides true (DESIGN.md): 3 / 2 == 1.5.
        return ColumnType.FLOAT
    if left is ColumnType.FLOAT or right is ColumnType.FLOAT:
        return ColumnType.FLOAT
    if left is ColumnType.INT and right is ColumnType.INT:
        return ColumnType.INT
    return ColumnType.ANY


def infer_query_nullability(
    select: Select,
    catalog: Catalog,
    temps: Mapping[str, Mapping[str, Inferred]] | None = None,
) -> list[tuple[str, Inferred]]:
    """Convenience wrapper: output nullability of a query's columns."""
    inference = NullabilityInference(catalog_provider(catalog, temps))
    return inference.infer_output(select)
