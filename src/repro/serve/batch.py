"""Batched bindings: run N parameter vectors as ONE set-oriented plan.

``PreparedStatement.executemany`` historically looped — N full replays,
N temp-chain builds, N scans of every base table.  Following
Guravannavar's batched-bindings rewrite (PAPERS.md), this module
derives, from a cached *generic* transform plan, a single plan that
executes the whole batch set-at-a-time:

* the parameter vectors become an in-memory **binding relation**
  ``B(SEQ, P0..Pk-1)`` — one row per vector, ``SEQ`` the vector's
  position in the batch;
* every temp-table definition that reads a parameter (directly or
  through an upstream temp) is rewritten to *join* ``B``: parameter
  markers become ``B.Pi`` column references and a ``BSEQ`` column is
  appended so downstream consumers can tell the sub-results apart;
* a value link (a type-A block, see :mod:`repro.core.nest_g`) that
  reads no parameter is evaluated once for the whole batch, and its
  hidden slot stays a parameter, bound per batch; one that reads a
  parameter would need one value per vector;
* the paper's outer-join COUNT discipline survives batching: when the
  padded side of an outer comparison is batched, the preserved side is
  force-batched too and ``preserved.BSEQ =+ padded.BSEQ`` joins the
  seq columns *inside* the outer join, so zero-count groups are padded
  per vector exactly as they would be per execution;
* the final query gains a leading ``BSEQ`` output column; one pass of
  the result rows demultiplexes them back into per-vector results.

The rewrite is purely structural — no data access — so it is derived,
and its blocks planned, once per plan and rides on it
(``CachedPlan.batch_plan``).  Shapes
the rewrite cannot prove correct (grouped/aggregated final queries,
ORDER BY, full outer joins, value links that read a parameter) raise
:class:`BatchIneligible` and the statement falls back to the per-vector
loop — under one pinned MVCC snapshot either way, so
a batch can never straddle a concurrent commit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from repro.catalog.schema import Column, ColumnType, TableSchema
from repro.core.pipeline import RunReport
from repro.core.transform import TempTableDef
from repro.engine.nested_iteration import QueryResult
from repro.errors import PlanError, ReproError
from repro.optimizer.executor import BlockPlan, SingleLevelExecutor, plan_chain
from repro.serve.session import SessionCatalog
from repro.serve.sharing import outer_comparisons
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    Parameter,
    Select,
    SelectItem,
    TableRef,
    make_and,
    rewrite_leaves,
    walk,
)
from repro.sql.printer import to_sql
from repro.storage.stats import IOStats

#: The batch-sequence column appended to every batched relation.
SEQ_COLUMN = "BSEQ"


class BatchIneligible(ReproError):
    """The plan's shape cannot be batched; callers loop per vector."""


@dataclass
class BatchPlan:
    """A derived set-oriented plan for one cached generic plan.

    Attributes:
        binding_name: catalog-unique name of the binding relation.
        binding_columns: ``("SEQ", "P0", ..)`` — vector layout.
        setup: the temp chain in build order; batched definitions
            carry the rewritten query.
        blocks: the planned blocks of ``setup``, then of the
            set-oriented final query, whose first output column is the
            batch sequence used to demultiplex.
        schema_version: catalog schema version the rewrite was derived
            under (it embeds catalog-unique temp names).
    """

    binding_name: str
    binding_columns: tuple[str, ...]
    setup: tuple[TempTableDef, ...]
    blocks: tuple[BlockPlan, ...]
    schema_version: int


@dataclass
class BatchReport:
    """Outcome of one ``execute_batch`` call.

    ``reports`` holds one :class:`RunReport` per input vector, in input
    order, regardless of strategy.  Under the batched strategy the
    whole batch's I/O and steps are carried by the first report (the
    work is genuinely shared; attributing it per vector would be
    fiction) and ``io`` repeats the total.
    """

    reports: list[RunReport]
    strategy: str  # "batched" | "loop"
    batch_size: int
    io: IOStats

    def summary(self) -> str:
        return (
            f"{self.strategy} batch of {self.batch_size}: "
            f"{self.io.page_reads} page read(s), "
            f"{self.io.page_writes} page write(s)"
        )


def _uses_parameter(query: Select, count: int) -> bool:
    """Whether ``query`` reads one of the statement's ``count`` slots
    (a value link's hidden slot is bound per batch, not per vector)."""
    return any(
        isinstance(node, Parameter) and node.index < count for node in walk(query)
    )


def _require_batchable_block(query: Select, label: str) -> None:
    """Per-block guards shared by definitions and the final query."""
    if query.order_by:
        raise BatchIneligible(f"{label} has ORDER BY")
    if re.search(rf"\b{SEQ_COLUMN}\b", to_sql(query)):
        raise BatchIneligible(f"{label} already names {SEQ_COLUMN}")


def _rewrite_parameters(query: Select, binding_name: str, count: int) -> Select:
    def leaf(expr):
        if isinstance(expr, Parameter) and expr.index < count:
            return ColumnRef(binding_name, f"P{expr.index}")
        return expr

    return rewrite_leaves(query, leaf)


def _seq_sources(
    query: Select,
    batched_names: set[str],
    binding_name: str,
    count: int,
    required: bool,
) -> tuple[list[ColumnRef], tuple[TableRef, ...]]:
    """The batch-sequence columns a block can read — the one it puts
    out first — and its FROM clause, with the binding relation crossed
    in when it has to be: the block reads a parameter, or a source is
    ``required`` (a batched definition always puts one out) and no input
    has one.

    A semi table's ``BSEQ`` does not come out of its join, so a block
    with a batched semi table crosses ``B`` in as well and ``B.SEQ =
    temp.BSEQ`` becomes part of the semi condition.  ``B`` goes ahead of
    the first semi table: every conjunct that reads a semi table is
    consumed by that table's join, and some now read ``B`` (the seq
    equalities, a rewritten parameter).
    """
    batched = [ref for ref in query.from_tables if ref.name in batched_names]
    sources = [ColumnRef(ref.binding, SEQ_COLUMN) for ref in batched]
    from_tables = query.from_tables
    if (
        _uses_parameter(query, count)
        or any(ref.semi for ref in batched)
        or (required and not batched)
    ):
        sources.insert(0, ColumnRef(binding_name, "SEQ"))
        at = next(
            (i for i, ref in enumerate(from_tables) if ref.semi), len(from_tables)
        )
        from_tables = (
            from_tables[:at] + (TableRef(binding_name),) + from_tables[at:]
        )
    return sources, from_tables


def _rewrite_definition(
    query: Select, batched_names: set[str], binding_name: str, count: int
) -> Select:
    """Thread the binding relation through one temp-table definition.

    Returns the definition's query extended with a trailing ``BSEQ``
    output column (original column positions are untouched) and with
    seq-equality predicates tying every batched input — and the binding
    relation itself, when the definition reads parameters — to one
    batch sequence per output row.
    """
    _require_batchable_block(query, "temp definition")
    if query.has_aggregate_select() and not query.group_by:
        raise BatchIneligible(
            "scalar aggregate without GROUP BY collapses across the batch"
        )
    name_of = {ref.binding: ref.name for ref in query.from_tables}
    rewritten = _rewrite_parameters(query, binding_name, count)

    # Outer comparisons: when the padded side is batched, its seq column
    # is NULL on padded rows, so the seq join must ride *inside* the
    # outer join (preserved.BSEQ =+ padded.BSEQ) — this is what keeps
    # the COUNT bug fix of section 5.2 correct per vector.
    covered: set[str] = set()
    seq_predicates: list[Comparison] = []
    for comparison in outer_comparisons(rewritten):
        if comparison.outer != "left":
            raise BatchIneligible(
                f"unsupported outer-join orientation {comparison.outer!r}"
            )
        left, right = comparison.left, comparison.right
        if not (
            isinstance(left, ColumnRef)
            and isinstance(right, ColumnRef)
            and left.table
            and right.table
        ):
            raise BatchIneligible("outer comparison over non-column operands")
        preserved, padded = left.table, right.table
        if name_of.get(padded) not in batched_names:
            continue  # padded side is batch-invariant: nothing to tie
        if name_of.get(preserved) not in batched_names:
            # classify_definitions force-batches preserved sides; a
            # miss here means the preserved side is not a chain temp.
            raise BatchIneligible(
                "outer join pads a batched input against an unbatched one"
            )
        if padded not in covered:
            covered.add(padded)
            seq_predicates.append(
                Comparison(
                    ColumnRef(preserved, SEQ_COLUMN),
                    "=",
                    ColumnRef(padded, SEQ_COLUMN),
                    outer="left",
                )
            )

    sources, from_tables = _seq_sources(
        query, batched_names, binding_name, count, required=True
    )
    sources = [source for source in sources if source.table not in covered]
    seq_predicates.extend(
        Comparison(sources[0], "=", source) for source in sources[1:]
    )
    group_by = rewritten.group_by
    if group_by:
        group_by = group_by + (sources[0],)
    return replace(
        rewritten,
        items=rewritten.items + (SelectItem(sources[0], alias=SEQ_COLUMN),),
        from_tables=from_tables,
        where=make_and([rewritten.where, *seq_predicates]),
        group_by=group_by,
    )


def _rewrite_final(
    query: Select, batched_names: set[str], binding_name: str, count: int
) -> Select:
    """Prepend the demux ``BSEQ`` column to the final query."""
    _require_batchable_block(query, "final query")
    if query.group_by or query.has_aggregate_select():
        raise BatchIneligible("final query aggregates across the batch")
    if outer_comparisons(query):
        raise BatchIneligible("final query contains an outer join")
    sources, from_tables = _seq_sources(
        query, batched_names, binding_name, count, required=False
    )
    if not sources:
        raise BatchIneligible("final query is batch-invariant")
    rewritten = _rewrite_parameters(query, binding_name, count)
    seq_predicates = [
        Comparison(sources[0], "=", source) for source in sources[1:]
    ]
    return replace(
        rewritten,
        items=(SelectItem(sources[0], alias=SEQ_COLUMN),) + rewritten.items,
        from_tables=from_tables,
        where=make_and([rewritten.where, *seq_predicates]),
    )


def classify_definitions(definitions, count: int) -> set[str]:
    """Names of temp definitions that must be batched, to a fixpoint.

    A definition is batched when it reads one of the statement's
    ``count`` parameter slots or a batched upstream temp; the
    *preserved* side of an outer join whose padded side is batched is
    force-batched too (every preserved row needs a per-vector copy for
    the padding to be per-vector).  A value link that would be batched
    raises :class:`BatchIneligible`: its value is one per vector.
    """
    temp_names = {definition.name for definition in definitions}
    batched = {
        definition.name
        for definition in definitions
        if _uses_parameter(definition.query, count)
    }
    changed = True
    while changed:
        changed = False
        for definition in definitions:
            if definition.name in batched:
                continue
            if any(
                ref.name in batched for ref in definition.query.from_tables
            ):
                batched.add(definition.name)
                changed = True
        for definition in definitions:
            if definition.name not in batched:
                continue
            name_of = {
                ref.binding: ref.name
                for ref in definition.query.from_tables
            }
            for comparison in outer_comparisons(definition.query):
                left, right = comparison.left, comparison.right
                if not (
                    isinstance(left, ColumnRef) and isinstance(right, ColumnRef)
                ):
                    continue
                preserved, padded = left.table, right.table
                if comparison.outer == "right":
                    preserved, padded = padded, preserved
                if name_of.get(padded) not in batched:
                    continue
                preserved_name = name_of.get(preserved)
                if preserved_name in batched:
                    continue
                if preserved_name not in temp_names:
                    raise BatchIneligible(
                        "outer join preserves a base table against a "
                        "batched padded side"
                    )
                batched.add(preserved_name)
                changed = True
    for definition in definitions:
        if definition.slot is not None and definition.name in batched:
            raise BatchIneligible(
                f"value link {definition.name} reads a parameter: "
                "its value is one per vector"
            )
    return batched


def build_batch_plan(plan, catalog) -> BatchPlan:
    """Derive the set-oriented batch plan for a cached generic plan.

    Purely structural — reads no data.  Raises :class:`BatchIneligible`
    for shapes the rewrite cannot prove equivalent to the loop.
    """
    if plan.kind != "transform":
        raise BatchIneligible("only transform plans batch")
    if plan.param_count < 1:
        raise BatchIneligible("statement has no parameters")
    count = plan.param_count
    batched = classify_definitions(plan.setup, count)
    binding_name = catalog.create_temp_name("BIND")
    setup = [
        TempTableDef(
            definition.name,
            _rewrite_definition(definition.query, batched, binding_name, count),
        )
        if definition.name in batched
        else definition
        for definition in plan.setup
    ]
    final_query = _rewrite_final(plan.final_query, batched, binding_name, count)
    columns = ("SEQ",) + tuple(f"P{i}" for i in range(plan.param_count))
    try:
        blocks = plan_chain(
            setup,
            final_query,
            lambda name: columns if name == binding_name else catalog.column_names(name),
        )
    except PlanError as error:
        raise BatchIneligible(f"a rewritten block does not plan: {error}") from error
    return BatchPlan(
        binding_name=binding_name,
        binding_columns=columns,
        setup=tuple(setup),
        blocks=blocks,
        schema_version=plan.catalog_version,
    )


def execute_batch_plan(
    plan, batch_plan: BatchPlan, catalog, vectors: list[tuple]
) -> list[RunReport]:
    """Run the whole batch as one plan; per-vector reports, input order.

    The catalog read lock and one MVCC snapshot cover the entire batch:
    every vector's result reflects the same committed state.  The
    chain runs through the plan's own driver
    (:meth:`~repro.serve.plan.CachedPlan.run_chain`) in a private
    session overlay that also holds the binding relation, leasing and
    publishing nothing; unbatched definitions are built once, and value
    links evaluated once, for every vector.
    """
    from repro.engine.params import bound_params

    session = SessionCatalog(catalog)
    before = session.buffer.stats()
    with catalog.read_lock(), catalog.snapshots.pinned(), bound_params(()):
        schema = TableSchema(
            batch_plan.binding_name,
            tuple(
                Column(name, ColumnType.ANY)
                for name in batch_plan.binding_columns
            ),
        )
        session.create_table(schema, is_temp=True)
        session.insert(
            batch_plan.binding_name,
            [(seq, *vector) for seq, vector in enumerate(vectors)],
        )
        # The rewritten definitions join everything against the binding
        # relation, so intermediates are up to N times larger than their
        # per-vector counterparts; sort-based physical operators (merge
        # joins, sorted DISTINCT/GROUP BY) would spend the batching win
        # sorting them.  The derived plan therefore always runs with
        # hash physical operators — build/probe joins, hash dedup, hash
        # aggregation — regardless of the statement's own join method.
        # Results are join-method-invariant (the difftest legs cross
        # them), so this is a pure physical choice.
        executor = SingleLevelExecutor(
            session, replace(plan.config, join_method="hash")
        )
        rows, steps, _pages = plan.run_chain(
            session, executor, batch_plan.setup, batch_plan.blocks
        )
    steps.insert(0, f"bind {len(vectors)} vector(s)")
    io = session.buffer.stats() - before
    by_seq: dict[int, list[tuple]] = {}
    for row in rows:
        by_seq.setdefault(row[0], []).append(tuple(row[1:]))
    reports = []
    for seq in range(len(vectors)):
        reports.append(
            RunReport(
                result=QueryResult(
                    columns=plan.columns, rows=by_seq.get(seq, [])
                ),
                io=io if seq == 0 else IOStats(),
                method="batched-transform",
                join_method="hash",
                canonical_sql=plan.canonical_sql,
                steps=steps if seq == 0 else [],
            )
        )
    return reports


def total_io(reports: list[RunReport]) -> IOStats:
    """Sum the I/O of per-vector reports (loop-strategy aggregation)."""
    return IOStats(
        page_reads=sum(r.io.page_reads for r in reports),
        page_writes=sum(r.io.page_writes for r in reports),
        buffer_hits=sum(r.io.buffer_hits for r in reports),
    )
