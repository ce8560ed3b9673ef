"""Static plan verifier: invariants checked without executing anything.

Three entry points, matched to the places plans exist:

* :func:`verify_nested` — a statement as written: its names, checked by
  the binder (:mod:`repro.sql.qualify`) with every finding collected
  and an unknown table reported as PV004.  The binder checks each name
  once, when the statement is bound, on the engine's path too, where a
  finding raises instead;
* :func:`verify_single_level` — one canonical/temp-table query, as the
  physical executor receives it: schema chaining (every reference is
  qualified and resolves against its input row schema),
  grouped-output coverage, ORDER BY resolution, and join-shape
  invariants (outer joins must preserve the accumulated left input,
  hash joins key on equality only, a semi table's columns are read by
  WHERE only);
* :func:`verify_transform` — a whole NEST-G result: each temp-table
  definition is verified in build order against the catalog plus the
  temps defined so far, the canonical query must be nest-free, and
  grouped temps must be rejoined on *all* of their GROUP BY keys
  (section 6.1's rejoin shape — missing keys would match one outer
  row to many groups).

Rule ids are stable (``PV001`` ...); see ``diagnostics.py``.  The
verifier is deliberately no stricter than the executors on valid
plans: everything it rejects would fail (or worse, silently
mis-execute) at runtime.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.analysis.diagnostics import Diagnostic, Findings
from repro.analysis.nullability import (
    Inferred,
    NullabilityInference,
    catalog_provider,
)
from repro.catalog.catalog import Catalog
from repro.errors import PlanError
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    Select,
    Star,
    column_refs,
    conjuncts,
    walk,
)
from repro.sql.output import order_positions, output_names
from repro.sql.printer import to_sql


# ---------------------------------------------------------------------------
# Temp-table metadata (shared with the Kim-bug lint)
# ---------------------------------------------------------------------------


@dataclass
class TempInfo:
    """What the verifier learned about one temp-table definition."""

    name: str
    query: Select
    #: output column name -> Inferred (type + nullability).
    outputs: dict[str, Inferred] = field(default_factory=dict)
    #: output names whose item expr is one of the GROUP BY expressions.
    group_keys: tuple[str, ...] = ()
    #: output names whose item contains an aggregate call.
    agg_outputs: tuple[str, ...] = ()
    #: aggregate function names, in item order.
    agg_funcs: tuple[str, ...] = ()
    #: True when the definition joins with an outer-preserving marker.
    has_outer_join: bool = False
    #: True for SELECT DISTINCT definitions.
    distinct: bool = False

    @property
    def grouped(self) -> bool:
        return bool(self.query.group_by)


# ---------------------------------------------------------------------------
# Column resolution
# ---------------------------------------------------------------------------


class _Columns:
    """Per-block binding → column-name sets."""

    def __init__(
        self,
        catalog: Catalog,
        temps: Mapping[str, TempInfo] | None = None,
    ) -> None:
        self.catalog = catalog
        self.temps = temps or {}

    def columns_of(self, table: str) -> list[str] | None:
        """The column names of ``table`` (a temp's outputs), in order."""
        if table in self.temps:
            return list(self.temps[table].outputs)
        if self.catalog.has_table(table):
            return list(self.catalog.schema_of(table).column_names)
        return None


def _block_bindings(
    select: Select, columns: _Columns, findings: Findings
) -> dict[str, set[str]]:
    """FROM bindings of one block; unknown tables are reported (PV004)."""
    bindings: dict[str, set[str]] = {}
    for ref in select.from_tables:
        cols = columns.columns_of(ref.name)
        if cols is None:
            findings.add(
                Diagnostic(
                    "PV004",
                    f"unknown table {ref.name!r} in FROM clause",
                    subject=to_sql(select),
                )
            )
            cols = []
        bindings[ref.binding] = set(cols)
    return bindings


def _resolve_ref(
    ref: ColumnRef,
    local: dict[str, set[str]],
    findings: Findings,
    subject: str,
) -> None:
    """Check one reference of a single-level block against its FROM
    bindings.  The block is bound — its executor attributes a reference
    to a table by the binding it carries — so a name that resolves but
    carries no binding is PV003."""
    if ref.table is not None:
        if ref.column in local.get(ref.table, ()):
            return
    else:
        owners = [b for b, cols in local.items() if ref.column in cols]
        if len(owners) > 1:
            findings.add(
                Diagnostic(
                    "PV002",
                    f"ambiguous column {ref.column!r} "
                    f"(candidates: {sorted(owners)})",
                    subject=subject,
                )
            )
            return
        if owners:
            findings.add(
                Diagnostic(
                    "PV003",
                    f"column {ref.column!r} is unqualified after the "
                    "qualification pass",
                    subject=subject,
                )
            )
            return
    findings.add(
        Diagnostic(
            "PV001", f"cannot resolve column {ref.qualified()}", subject=subject
        )
    )


def _order_by_output_refs(select: Select, columns: _Columns) -> set[int]:
    """Identities of the ORDER BY references that name output columns.

    Both executors resolve an unqualified ORDER BY name against the
    *output* names first (aliases included, ahead of a base column of
    the same name), so such a reference is not a table column to
    resolve (``qualify`` leaves an ORDER BY alias unqualified).
    """
    out_names = set(output_names(select, columns.columns_of))
    return {
        id(ref)
        for item in select.order_by
        for ref in column_refs(item.expr)
        if ref.table is None and ref.column in out_names
    }


# ---------------------------------------------------------------------------
# A statement's names (the binder's findings)
# ---------------------------------------------------------------------------


def verify_nested(
    select: Select, catalog: Catalog, source_map=None
) -> tuple[Select, Findings]:
    """``select`` bound (:func:`~repro.core.pipeline.bind_columns`) and
    every finding the binder made, each with its span when
    ``source_map`` is given; the bound tree is complete only when there
    is no error finding."""
    from repro.core.pipeline import bind_columns  # core imports analysis

    findings = Findings()
    return bind_columns(select, catalog, findings, source_map), findings


# ---------------------------------------------------------------------------
# Single-level (canonical / temp-table) verification
# ---------------------------------------------------------------------------


def verify_single_level(
    select: Select,
    catalog: Catalog,
    temps: Mapping[str, TempInfo] | None = None,
    join_method: str | None = None,
    context: str = "query",
) -> Findings:
    """Invariants of one canonical query against its input schemas."""
    findings = Findings()
    columns = _Columns(catalog, temps)

    for node in walk(select):
        if isinstance(node, Select) and node is not select:
            findings.add(
                Diagnostic(
                    "PV010",
                    f"{context} still contains a nested query block",
                    subject=to_sql(node),
                )
            )
            return findings  # everything below assumes single-level

    local = _block_bindings(select, columns, findings)
    subject = to_sql(select)
    output_refs = _order_by_output_refs(select, columns)
    for node in walk(select, into_subqueries=False):
        if isinstance(node, ColumnRef) and id(node) not in output_refs:
            _resolve_ref(node, local, findings, subject)

    _verify_join_shape(select, local, findings, join_method, subject)
    _verify_semi_scope(select, local, findings, subject)
    if select.group_by or select.has_aggregate_select():
        _verify_grouped_output(select, findings, subject)
    if select.order_by:
        _verify_order_by(select, columns, findings, subject)
    return findings


def _verify_join_shape(
    select: Select,
    local: dict[str, set[str]],
    findings: Findings,
    join_method: str | None,
    subject: str,
) -> None:
    """Outer-join placement and hash-key invariants, statically.

    Mirrors the executor's pairwise FROM-clause accumulation: the
    relation preserved by an outer comparison must be the accumulated
    left input (the transforms lay their FROM clauses out that way),
    full outer joins are unsupported, and an outer marker on something
    that cannot act as a join predicate would be silently demoted to a
    plain filter — all reported as errors before execution starts.
    """

    def binding_of(ref: ColumnRef) -> str | None:
        if ref.table is not None:
            return ref.table
        owners = [b for b, cols in local.items() if ref.column in cols]
        return owners[0] if len(owners) == 1 else None

    order = [ref.binding for ref in select.from_tables]
    for conjunct in conjuncts(select.where):
        outer_marks = [
            node
            for node in walk(conjunct, into_subqueries=False)
            if isinstance(node, Comparison) and node.outer is not None
        ]
        for comparison in outer_marks:
            if comparison.outer == "full":
                findings.add(
                    Diagnostic(
                        "PV006",
                        "full outer join is not supported by the executor",
                        subject=to_sql(comparison),
                    )
                )
                continue
            if comparison is not conjunct or not (
                isinstance(comparison.left, ColumnRef)
                and isinstance(comparison.right, ColumnRef)
            ):
                findings.add(
                    Diagnostic(
                        "PV009",
                        "outer-join marker on a predicate that cannot act "
                        "as a join predicate (it would silently degrade to "
                        "a plain filter)",
                        subject=to_sql(comparison),
                    )
                )
                continue
            left_b = binding_of(comparison.left)
            right_b = binding_of(comparison.right)
            if left_b is None or right_b is None or left_b == right_b:
                findings.add(
                    Diagnostic(
                        "PV009",
                        "outer-join comparison does not join two relations",
                        subject=to_sql(comparison),
                    )
                )
                continue
            preserved = left_b if comparison.outer == "left" else right_b
            padded = right_b if comparison.outer == "left" else left_b
            if left_b not in order or right_b not in order:
                continue  # unresolved binding already reported
            # The executor accumulates left-to-right, so the preserved
            # relation must come before the padded one in FROM order.
            if order.index(preserved) > order.index(padded):
                findings.add(
                    Diagnostic(
                        "PV006",
                        "outer join must preserve the accumulated left "
                        f"input, but {preserved!r} is joined after "
                        f"{padded!r}; reorder the FROM clause",
                        subject=to_sql(comparison),
                    )
                )
            if (
                join_method == "hash"
                and comparison.op != "="
            ):
                # The executor degrades gracefully (sorted theta merge
                # with no hash keys), so this is advice, not an error.
                findings.add(
                    Diagnostic(
                        "PV005",
                        "hash joins key on equality only; this "
                        "non-equality outer comparison falls back to a "
                        "sorted theta merge join",
                        severity="warning",
                        subject=to_sql(comparison),
                    )
                )


def _verify_semi_scope(
    select: Select,
    local: dict[str, set[str]],
    findings: Findings,
    subject: str,
) -> None:
    """PV012: a semi table's columns are visible to WHERE only — a
    semi-join puts out none of its right columns, so a SELECT, GROUP
    BY, HAVING or ORDER BY reference would find nothing to read."""
    semi = {ref.binding for ref in select.from_tables if ref.semi}
    if not semi:
        return
    outside = [*select.items, *select.group_by, *select.order_by]
    if select.having is not None:
        outside.append(select.having)
    for ref in (r for clause in outside for r in column_refs(clause)):
        owners = (
            {ref.table}
            if ref.table is not None
            else {b for b, cols in local.items() if ref.column in cols}
        )
        if owners and owners <= semi:
            findings.add(
                Diagnostic(
                    "PV012",
                    f"column {ref.qualified()} of a semi-joined table is "
                    "read outside WHERE",
                    subject=subject,
                )
            )


def _verify_grouped_output(
    select: Select, findings: Findings, subject: str
) -> None:
    group_exprs = list(select.group_by)
    for expr in group_exprs:
        if not isinstance(expr, ColumnRef):
            findings.add(
                Diagnostic(
                    "PV008",
                    "GROUP BY supports column references only",
                    subject=subject,
                )
            )
            return
    outputs = [item.expr for item in select.items]
    if select.having is not None:
        outputs.append(select.having)
    for expr in outputs:
        if isinstance(expr, Star):
            findings.add(
                Diagnostic(
                    "PV008",
                    "SELECT * is not supported in a grouped block",
                    subject=subject,
                )
            )
        for ref in column_refs(expr):
            if any(_same_column(ref, g) for g in group_exprs):
                continue
            # Aggregate arguments are exempt: COUNT(X) reads X per
            # group, not per output row.
            if _inside_aggregate(expr, ref):
                continue
            findings.add(
                Diagnostic(
                    "PV008",
                    f"non-aggregated column {ref.qualified()} must "
                    "appear in GROUP BY",
                    subject=subject,
                )
            )


def _same_column(a: ColumnRef, b: Expr) -> bool:
    if not isinstance(b, ColumnRef):
        return False
    if a.column != b.column:
        return False
    return a.table is None or b.table is None or a.table == b.table


def _inside_aggregate(root: Expr, ref: ColumnRef) -> bool:
    for node in walk(root, into_subqueries=False):
        if isinstance(node, FuncCall) and node.is_aggregate:
            if any(child is ref for child in walk(node.arg)):
                return True
    return False


def _verify_order_by(
    select: Select, columns: _Columns, findings: Findings, subject: str
) -> None:
    """PV011: the ORDER BY must resolve by the executors' rule
    (:func:`~repro.sql.output.order_positions`)."""
    try:
        order_positions(select, columns.columns_of)
    except PlanError as error:
        findings.add(Diagnostic("PV011", str(error), subject=subject))


# ---------------------------------------------------------------------------
# Whole-transform verification
# ---------------------------------------------------------------------------


def collect_temp_infos(
    setup,
    catalog: Catalog,
) -> dict[str, TempInfo]:
    """Chain type/nullability inference through the temp definitions."""
    temps: dict[str, TempInfo] = {}
    inferred_temps: dict[str, dict[str, Inferred]] = {}
    for definition in setup:
        inference = NullabilityInference(
            catalog_provider(catalog, inferred_temps)
        )
        outputs = dict(inference.infer_output(definition.query))
        names = output_names(definition.query)
        query = definition.query
        group_keys = tuple(
            name
            for name, item in zip(names, query.items)
            if isinstance(item.expr, ColumnRef)
            and any(_same_column(item.expr, g) for g in query.group_by)
        )
        agg_pairs = [
            (name, item.expr.name)
            for name, item in zip(names, query.items)
            if isinstance(item.expr, FuncCall) and item.expr.is_aggregate
        ]
        temps[definition.name] = TempInfo(
            name=definition.name,
            query=query,
            outputs=outputs,
            group_keys=group_keys,
            agg_outputs=tuple(name for name, _ in agg_pairs),
            agg_funcs=tuple(func for _, func in agg_pairs),
            has_outer_join=any(
                isinstance(node, Comparison) and node.outer is not None
                for node in walk(query, into_subqueries=False)
            ),
            distinct=query.distinct,
        )
        inferred_temps[definition.name] = outputs
    return temps


def verify_transform(
    transform,
    catalog: Catalog,
    join_method: str | None = None,
) -> tuple[Findings, dict[str, TempInfo]]:
    """Verify a whole NEST-G result (setup temps plus canonical query).

    Returns the findings and the per-temp metadata (reused by the
    Kim-bug lint so inference runs once).
    """
    findings = Findings()
    temps = collect_temp_infos(transform.setup, catalog)

    seen: dict[str, TempInfo] = {}
    for definition in transform.setup:
        findings.extend(
            verify_single_level(
                definition.query,
                catalog,
                temps=seen,
                join_method=join_method,
                context=f"temp table {definition.name}",
            )
        )
        _verify_rejoin_coverage(definition.query, seen, findings)
        seen[definition.name] = temps[definition.name]

    findings.extend(
        verify_single_level(
            transform.query,
            catalog,
            temps=seen,
            join_method=join_method,
            context="canonical query",
        )
    )
    _verify_rejoin_coverage(transform.query, seen, findings)
    return findings, temps


def _verify_rejoin_coverage(
    consumer: Select,
    temps: Mapping[str, TempInfo],
    findings: Findings,
) -> None:
    """PV007: a grouped temp must be rejoined on all its GROUP BY keys.

    When the consumer equates only some of a grouped temp's keys, one
    consumer row can match several groups — multiplicities and
    aggregate attribution break (section 6.1 rejoins TEMP3 on every
    grouped outer column for exactly this reason).
    """
    local = {ref.binding for ref in consumer.from_tables}
    for ref in consumer.from_tables:
        info = temps.get(ref.name)
        if info is None or not info.grouped or not info.group_keys:
            continue
        binding = ref.binding
        equated: set[str] = set()
        for conjunct in conjuncts(consumer.where):
            if (
                isinstance(conjunct, Comparison)
                and conjunct.op == "="
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                for mine, other in (
                    (conjunct.left, conjunct.right),
                    (conjunct.right, conjunct.left),
                ):
                    if (
                        mine.table == binding
                        and other.table != binding
                        and other.table in local
                    ):
                        equated.add(mine.column)
        missing = [key for key in info.group_keys if key not in equated]
        if missing:
            findings.add(
                Diagnostic(
                    "PV007",
                    f"grouped temp {info.name} is rejoined without "
                    f"equating its GROUP BY key(s) {missing}; one row "
                    "can match several groups",
                    subject=to_sql(consumer),
                    hint="join on every grouped column (section 6.1, "
                    "step 3)",
                )
            )
