"""The Kim-bug lint: section 5's three bugs as static rules.

The paper's section 5 shows three ways Kim's NEST-JA transformation
silently returns wrong answers.  Each has a recognizable *shape* in the
transformed plan (temp-table definitions plus the queries that consume
them), so each is a lint rule with a stable id:

``KB001`` — the **COUNT bug** (sections 5.1–5.2).  A grouped temp that
    computes ``COUNT`` from the inner relation alone has no groups for
    outer values with no matches; rejoining it loses exactly those
    outer rows (Kiessling's Q2 returns the empty set instead of
    {10, 8}).  The rule also fires on the half-fixed shape: an
    outer-joined COUNT temp rejoined with a plain (non-null-safe) ``=``
    on a *nullable* group key — the NULL-keyed COUNT=0 group the outer
    join so carefully kept is dropped again by the rejoin.  This second
    form is where the nullability inference earns its keep: when the
    group key is provably NOT NULL (a primary-key join column), plain
    ``=`` is fine and the rule stays silent.

``KB002`` — the **non-equality operator bug** (section 5.3).  Kim's
    temp groups by the *inner* join column and keeps the original
    comparison operator in the rejoin, so a consumer comparing a temp's
    group key with ``<``/``>``/... aggregates per inner value instead
    of over the operator's whole range.  NEST-JA2 moves the original
    operator into the temp-building join and rejoins on equality, so
    the shape never appears in its output.

``KB003`` — the **duplicates bug** (section 5.4).  When a relation is
    joined into an aggregating temp *alongside* the aggregate's source
    (to restrict or pad it), each of its rows multiplies the rows the
    GROUP BY merges into the aggregate.  If that joined-in side reaches
    a base relation through a chain of projections *none of which
    eliminates duplicates*, and a consumer of the temp scans that same
    relation, duplicate rows inflate the aggregate (COUNT doubles for a
    twice-listed part).  The aggregate's own source relation is exempt:
    its duplicates are the data being aggregated.  NEST-JA2's step 1
    projects the outer join column ``DISTINCT``, which cuts the chain.

All three are reported as errors: a plan with these shapes computes
wrong answers, and the pipeline refuses to run it.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.analysis.diagnostics import Diagnostic, Findings
from repro.analysis.verifier import TempInfo, collect_temp_infos
from repro.catalog.catalog import Catalog
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    FuncCall,
    Select,
    column_refs,
    conjuncts,
    walk,
)
from repro.sql.printer import to_sql

#: Comparison operators that are not (null-safe or plain) equality.
_NON_EQUALITY_OPS = frozenset({"<", "<=", ">", ">=", "<>", "!="})


def lint_transform(
    transform,
    catalog: Catalog,
    temps: Mapping[str, TempInfo] | None = None,
) -> Findings:
    """Run the Kim-bug rules over a transformed plan.

    Args:
        transform: a ``TransformResult``/``GeneralTransform`` (anything
            with ``setup`` and ``query``).
        catalog: resolves base-table schemas (for nullability).
        temps: per-temp metadata from
            :func:`repro.analysis.verifier.verify_transform`; computed
            here when the verifier did not run first.
    """
    findings = Findings()
    if temps is None:
        temps = collect_temp_infos(transform.setup, catalog)

    consumers: list[Select] = [d.query for d in transform.setup]
    consumers.append(transform.query)

    for consumer in consumers:
        local_temps = {
            ref.binding: temps[ref.name]
            for ref in consumer.from_tables
            if ref.name in temps and ref.name != _defining_name(consumer, transform)
        }
        for binding, info in local_temps.items():
            _check_count_bug(consumer, binding, info, findings)
            _check_non_equality(consumer, binding, info, findings)
            _check_duplicates(consumer, binding, info, temps, catalog, findings)
    return findings


def _defining_name(consumer: Select, transform) -> str | None:
    for definition in transform.setup:
        if definition.query is consumer:
            return definition.name
    return None


# ---------------------------------------------------------------------------
# KB001 — the COUNT bug
# ---------------------------------------------------------------------------


def _check_count_bug(
    consumer: Select,
    binding: str,
    info: TempInfo,
    findings: Findings,
) -> None:
    if not info.grouped or "COUNT" not in info.agg_funcs:
        return
    if not info.has_outer_join:
        # Kim's shape: the temp groups the inner relation alone, so an
        # outer value with no inner matches has *no group at all* —
        # COUNT can never be 0 and the rejoin loses the outer row.
        findings.add(
            Diagnostic(
                "KB001",
                f"COUNT temp {info.name} is built without an "
                "outer-preserving join: outer values with no matches "
                "have no group, so COUNT can never be 0 and the rejoin "
                "silently drops those outer rows",
                subject=to_sql(consumer),
                hint="build the temp with an outer join against a "
                "projection of the outer relation (NEST-JA2 step 2, "
                "section 6.1)",
            )
        )
        return
    # Half-fixed shape: outer join present, but the rejoin equality is
    # not null-safe while the group key can be NULL.
    for conjunct in conjuncts(consumer.where):
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            continue
        if conjunct.null_safe:
            continue
        for side in (conjunct.left, conjunct.right):
            if (
                isinstance(side, ColumnRef)
                and side.table == binding
                and side.column in info.group_keys
            ):
                inferred = info.outputs.get(side.column)
                if inferred is not None and not inferred.nullable:
                    continue  # provably NOT NULL: plain = is safe
                findings.add(
                    Diagnostic(
                        "KB001",
                        f"outer-joined COUNT temp {info.name} is "
                        f"rejoined on nullable group key {side.column!r} "
                        "with a plain '=': the NULL-keyed COUNT=0 group "
                        "is dropped again by the rejoin",
                        subject=to_sql(conjunct),
                        hint="use a null-safe equality (<=>) for the "
                        "rejoin, or prove the key NOT NULL",
                    )
                )


# ---------------------------------------------------------------------------
# KB002 — the non-equality operator bug
# ---------------------------------------------------------------------------


def _check_non_equality(
    consumer: Select,
    binding: str,
    info: TempInfo,
    findings: Findings,
) -> None:
    if not info.grouped:
        return
    for conjunct in conjuncts(consumer.where):
        if (
            not isinstance(conjunct, Comparison)
            or conjunct.op not in _NON_EQUALITY_OPS
        ):
            continue
        for side in (conjunct.left, conjunct.right):
            if (
                isinstance(side, ColumnRef)
                and side.table == binding
                and side.column in info.group_keys
            ):
                findings.add(
                    Diagnostic(
                        "KB002",
                        f"temp {info.name} groups by {side.column!r} but "
                        f"is joined with '{conjunct.op}': the aggregate "
                        "was computed per inner value, not over the "
                        "operator's range (section 5.3)",
                        subject=to_sql(conjunct),
                        hint="apply the original operator while building "
                        "the temp and rejoin on equality (NEST-JA2)",
                    )
                )


# ---------------------------------------------------------------------------
# KB003 — the duplicates bug
# ---------------------------------------------------------------------------


def _duplicate_preserving_origins(
    table: str,
    temps: Mapping[str, TempInfo],
    catalog: Catalog,
) -> set[str]:
    """Base tables reachable from ``table`` with duplicates intact.

    A DISTINCT projection or a GROUP BY eliminates duplicates and cuts
    the chain; anything else passes each input row's multiplicity
    through to the aggregate.
    """
    info = temps.get(table)
    if info is None:
        return {table} if catalog.has_table(table) else set()
    if info.distinct or info.grouped:
        return set()
    origins: set[str] = set()
    for ref in info.query.from_tables:
        origins |= _duplicate_preserving_origins(ref.name, temps, catalog)
    return origins


def _aggregate_arg_bindings(select: Select) -> set[str]:
    """FROM bindings whose columns appear inside aggregate arguments."""
    bindings: set[str] = set()
    for item in select.items:
        for node in walk(item.expr, into_subqueries=False):
            if isinstance(node, FuncCall) and node.is_aggregate:
                for ref in column_refs(node.arg):
                    if ref.table is not None:
                        bindings.add(ref.table)
    return bindings


def _check_duplicates(
    consumer: Select,
    binding: str,
    info: TempInfo,
    temps: Mapping[str, TempInfo],
    catalog: Catalog,
    findings: Findings,
) -> None:
    if not info.grouped or not info.agg_funcs:
        return
    if len(info.query.from_tables) < 2:
        # A plain GROUP BY over one relation aggregates that relation's
        # rows as they are — duplicates there are data, not inflation.
        return
    # Relations joined in *alongside* the aggregate's source multiply
    # its rows: if duplicates survive from a base table to such a
    # relation, the temp's GROUP BY merges the copies *into* the
    # aggregate — that is exactly the section 5.4 bug.  The relation
    # feeding the aggregate arguments is the data being aggregated and
    # is exempt.
    arg_sides = _aggregate_arg_bindings(info.query)
    feeding: set[str] = set()
    for ref in info.query.from_tables:
        if ref.binding in arg_sides:
            continue
        feeding |= _duplicate_preserving_origins(ref.name, temps, catalog)
    if not feeding:
        return
    rescanned = feeding & {ref.name for ref in consumer.from_tables}
    for table in sorted(rescanned):
        findings.add(
            Diagnostic(
                "KB003",
                f"aggregate temp {info.name} reads base table {table} "
                "without duplicate elimination, and this consumer scans "
                f"{table} again: duplicate rows inflate the aggregate "
                "(section 5.4)",
                subject=to_sql(consumer),
                hint="project the outer join column DISTINCT before the "
                "aggregating join (NEST-JA2 step 1)",
            )
        )
