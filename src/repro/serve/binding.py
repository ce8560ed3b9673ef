"""Verifier-derived bind-time checks for parameter vectors.

At plan time, :func:`derive_param_specs` walks the *qualified* query
tree and pairs each parameter occurrence with the catalog column it is
compared against (directly, in BETWEEN/IN, or through arithmetic).
The result is a static per-slot contract; :func:`check_binding`
enforces it per execution in microseconds, so a bad vector fails before
any page is touched.

Rules:

* a parameter compared with an INT column must bind an int, FLOAT an
  int or float, TEXT/DATE a str; ANY-typed columns accept anything;
* a parameter under arithmetic (``? + 1``) must bind a number;
* binding NULL is rejected unless every occurrence of the slot is
  null-safe (``<=>``).  In plain comparisons a NULL parameter makes the
  predicate unknown for *every* row — the paper's three-valued logic —
  which silently returns the empty set; we treat it as a binding error
  instead (use ``IS NULL`` to test for NULL).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.catalog.schema import ColumnType
from repro.errors import BindError
from repro.sql.ast import (
    Between,
    BinaryArith,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    Parameter,
    Select,
    UnaryMinus,
    binding_tables,
    walk,
)

#: Column type → python types a bound value must satisfy (None = any).
_ALLOWED = {
    ColumnType.INT: (int,),
    ColumnType.FLOAT: (int, float),
    ColumnType.TEXT: (str,),
    ColumnType.DATE: (str,),
    ColumnType.ANY: None,
}

#: The synthetic constraint for parameters used in arithmetic.
_NUMERIC = (int, float)


@dataclass
class ParamSpec:
    """The statically-derived contract for one parameter slot."""

    index: int
    name: str | None = None
    #: python types every occurrence accepts, or None when unconstrained.
    allowed_types: tuple[type, ...] | None = None
    #: False once any occurrence sits in a non-null-safe context.
    allow_null: bool = True
    #: human-readable provenance, e.g. "PARTS.QOH (int)".
    contexts: list[str] = field(default_factory=list)

    def label(self) -> str:
        return f":{self.name}" if self.name else f"parameter {self.index + 1}"

    def constrain(
        self, types: tuple[type, ...] | None, nullable: bool, context: str
    ) -> None:
        if types is not None:
            if self.allowed_types is None:
                self.allowed_types = types
            else:
                merged = tuple(
                    t for t in self.allowed_types if t in types
                )
                # Conflicting constraints (int vs str) leave the
                # narrower empty tuple; check() reports it clearly.
                self.allowed_types = merged
        if not nullable:
            self.allow_null = False
        self.contexts.append(context)

    def check(self, value: object) -> None:
        if value is None:
            if not self.allow_null:
                raise BindError(
                    f"cannot bind NULL to {self.label()} — it is used in "
                    f"a non-null-safe comparison ({'; '.join(self.contexts)}); "
                    "use IS NULL instead"
                )
            return
        if self.allowed_types is not None:
            ok = isinstance(value, self.allowed_types) and not isinstance(
                value, bool
            )
            if not ok:
                wanted = (
                    " or ".join(t.__name__ for t in self.allowed_types)
                    or "no possible type (conflicting constraints)"
                )
                raise BindError(
                    f"{self.label()} expects {wanted} "
                    f"({'; '.join(self.contexts)}), got {value!r}"
                )


def _column_type(
    ref: ColumnRef, bindings: dict[str, str], catalog: Catalog
) -> ColumnType | None:
    table = bindings.get(ref.table or "", ref.table)
    if table is None or not catalog.has_table(table):
        return None
    schema = catalog.schema_of(table)
    if ref.column not in schema.column_names:
        return None
    return schema.column_type(ref.column)


def _params_in(expr: Expr) -> list[Parameter]:
    return [n for n in walk(expr) if isinstance(n, Parameter)]


def derive_param_specs(
    select: Select, catalog: Catalog, count: int
) -> list[ParamSpec]:
    """Walk a qualified tree and derive the contract for each slot."""
    specs = [ParamSpec(i) for i in range(count)]

    def spec_for(param: Parameter) -> ParamSpec:
        spec = specs[param.index]
        if param.name and not spec.name:
            spec.name = param.name
        return spec

    nodes = list(walk(select))
    bindings = binding_tables(select)

    def constrain_pair(param: Parameter, other: Expr, nullable: bool) -> None:
        spec = spec_for(param)
        if isinstance(other, ColumnRef):
            ctype = _column_type(other, bindings, catalog)
            if ctype is not None:
                spec.constrain(
                    _ALLOWED[ctype],
                    nullable,
                    f"{other.qualified()} ({ctype.value})",
                )
                return
        spec.constrain(None, nullable, "comparison")

    for node in nodes:
        if isinstance(node, Comparison):
            nullable = node.null_safe
            if isinstance(node.left, Parameter):
                constrain_pair(node.left, node.right, nullable)
            if isinstance(node.right, Parameter):
                constrain_pair(node.right, node.left, nullable)
        elif isinstance(node, Between):
            for bound in (node.low, node.high):
                if isinstance(bound, Parameter):
                    constrain_pair(bound, node.operand, False)
            if isinstance(node.operand, Parameter):
                spec_for(node.operand).constrain(None, False, "BETWEEN operand")
        elif isinstance(node, InList):
            for item in node.items:
                if isinstance(item, Parameter):
                    constrain_pair(item, node.operand, False)
            if isinstance(node.operand, Parameter):
                spec_for(node.operand).constrain(None, False, "IN operand")
        elif isinstance(node, (BinaryArith, UnaryMinus)):
            for param in _params_in(node):
                spec_for(param).constrain(_NUMERIC, False, "arithmetic")
    return specs


def check_binding(
    specs: list[ParamSpec], values: tuple[object, ...]
) -> None:
    """Validate a parameter vector against the derived contracts."""
    if len(values) != len(specs):
        raise BindError(
            f"statement takes {len(specs)} parameter(s), got {len(values)}"
        )
    for spec, value in zip(specs, values):
        spec.check(value)
