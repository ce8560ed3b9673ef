"""Static plan verifier: invariants checked without executing anything.

Three entry points, matched to the places plans exist:

* :func:`verify_nested` — a statement as written: its names, checked by
  the binder (:mod:`repro.sql.qualify`) with every finding collected
  and an unknown table reported as PV004.  The binder checks each name
  once, when the statement is bound, on the engine's path too, where a
  finding raises instead;
* :func:`verify_single_level` — one canonical/temp-table query: it is
  planned by the executor's own planning
  (:func:`~repro.optimizer.executor.plan_block`) over the input
  schemas, and what planning raises is the block's finding — schema
  chaining (every reference is qualified and resolves against its
  input row schema), grouped-output coverage, ORDER BY resolution, and
  join shape (outer joins must preserve the accumulated left input, a
  semi table's columns are read by WHERE only).  Hash joins key on
  equality only, a warning read off the planned joins;
* :func:`verify_transform` — a whole NEST-G result: each temp-table
  definition is planned in build order against the catalog plus the
  temps defined so far, the canonical query must be nest-free, and
  grouped temps must be rejoined on *all* of their GROUP BY keys
  (section 6.1's rejoin shape — missing keys would match one outer
  row to many groups).  The blocks it plans are the ones the plan
  keeps and its replays run.

Rule ids are stable (``PV001`` ...); see ``diagnostics.py``.  The
verifier is no stricter than the executors by construction: a block's
rules are the executor's own planning, so what it rejects is what the
executor refuses to run.
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
from repro.errors import VerificationError
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    Select,
    conjuncts,
    walk,
)
from repro.sql.output import output_names
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
) -> Findings:
    """Invariants of one canonical query against its input schemas:
    what planning it raises."""
    findings = Findings()
    _plan(select, catalog, temps or {}, join_method, findings)
    return findings


def _plan(
    select: Select,
    catalog: Catalog,
    temps: Mapping[str, TempInfo],
    join_method: str | None,
    findings: Findings,
):
    """``select`` planned over the catalog and ``temps``
    (:func:`~repro.optimizer.executor.plan_block`), or None when
    planning raised — its finding is added to ``findings``."""
    from repro.optimizer.executor import plan_block  # the executor imports analysis

    def columns_of(table: str):
        if table in temps:
            return output_names(temps[table].query)
        return catalog.column_names(table) if catalog.has_table(table) else None

    try:
        block = plan_block(select, columns_of)
    except VerificationError as error:
        findings.extend(list(error.diagnostics))
        return None
    if join_method == "hash":
        # The executor degrades gracefully (sorted theta merge with no
        # hash keys), so this is advice, not an error.
        for join in block.joins:
            for theta in join.theta:
                if theta.outer:
                    findings.add(
                        Diagnostic(
                            "PV005",
                            "hash joins key on equality only; this "
                            "non-equality outer comparison falls back to a "
                            "sorted theta merge join",
                            severity="warning",
                            subject=theta.text,
                        )
                    )
    return block


def _same_column(a: ColumnRef, b: Expr) -> bool:
    if not isinstance(b, ColumnRef):
        return False
    if a.column != b.column:
        return False
    return a.table is None or b.table is None or a.table == b.table


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
    blocks: list | None = None,
) -> tuple[Findings, dict[str, TempInfo]]:
    """Verify a whole NEST-G result (setup temps plus canonical query).

    Returns the findings and the per-temp metadata (reused by the
    Kim-bug lint so inference runs once).  ``blocks``, when given,
    receives each block's plan in build order — the links', then the
    canonical query's: what the plan keeps and its replays run.  It is
    complete when there is no error finding.
    """
    findings = Findings()
    temps = collect_temp_infos(transform.setup, catalog)

    seen: dict[str, TempInfo] = {}
    for definition in transform.setup:
        block = _plan(definition.query, catalog, seen, join_method, findings)
        if blocks is not None:
            blocks.append(block)
        _verify_rejoin_coverage(definition.query, seen, findings)
        seen[definition.name] = temps[definition.name]

    block = _plan(transform.query, catalog, seen, join_method, findings)
    if blocks is not None:
        blocks.append(block)
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
