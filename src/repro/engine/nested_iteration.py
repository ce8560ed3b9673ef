"""The nested-iteration executor — System R's strategy and our oracle.

This interprets a nested query AST directly, the way the paper says
System R did (section 2.4, quoting [SEL 79:33]):

* a **type-A/N** inner block (no correlation) is evaluated *once*; a
  scalar result becomes a constant, a column result is materialized
  into a temporary list ``X`` on disk and the nested predicate becomes
  ``... IN X``, rescanned per outer tuple;
* a **type-J/JA** inner block (correlated) is re-evaluated once per
  outer tuple that survives the simple predicates — which is exactly
  why "the inner relation may have to be retrieved once for each tuple
  of the outer relation", the inefficiency the transformations attack.

Because every table scan goes through the buffer pool, running this
executor *measures* the nested-iteration page-I/O cost that the paper's
Figure 1 and section 7.4 model analytically.

Semantically this executor is the reference: the transformation tests
compare every rewritten plan's result against it (multiset equality).
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from functools import partial

from repro.catalog.catalog import Catalog
from repro.config import ExecConfig
from repro.engine.aggregate import compute_aggregate
from repro.engine.compile import CompiledFn, compile_predicate, compile_scalar
from repro.engine.expression import EvalContext, SubqueryHandler
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.engine.sort import column_profile, order_key, orderable
from repro.errors import BindError, CardinalityError, ExecutionError
from repro.sql.analysis import is_correlated, outer_references
from repro.sql.ast import (
    ColumnRef,
    Expr,
    FuncCall,
    Select,
    Star,
    TableRef,
    map_children,
)
from repro.sql.printer import to_sql
from repro.storage.locks import make_lock


@dataclass
class QueryResult:
    """The rows a query produced, with output column names."""

    columns: list[str]
    rows: list[tuple]

    def multiset(self) -> Counter:
        """Bag of rows — the equivalence the paper's lemmas are stated in."""
        return Counter(self.rows)

    def column(self, index: int = 0) -> list[object]:
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


class _Pending:
    """Single-flight cache placeholder: the owner thread is computing
    this entry; waiters block on the event, then re-read the cache."""

    __slots__ = ("event",)

    def __init__(self) -> None:
        self.event = threading.Event()


_MISSING = object()


class NestedIterationExecutor(SubqueryHandler):
    """Evaluates nested queries by (cached) nested iteration.

    Concurrency.  With ``parallelism > 1`` the *outermost* loop of a
    single-table top-level block is sharded across the exchange pool
    (each worker evaluates the WHERE plan — correlated subqueries and
    all — over its own page shard of the outer table).  The result
    caches are then shared mutable state:

    * ``_scalar_cache`` / ``_column_cache`` / ``_corr_memo`` hold
      *computed results*, where a lost-update race would change
      observable I/O (recomputing an inner block re-reads its pages;
      recomputing the materialized ``X`` writes a second temp).  They
      are single-flight: one lock guards the maps, and the first
      thread to miss installs a :class:`_Pending` entry and computes
      while later threads block on it — each inner block still runs
      exactly once per key, same as serial.
    * the plan caches (``_where_plans``, ``_item_plans``,
      ``_group_plans``, ``_outer_ref_plans``, ``_index_plans``) map
      AST node ids to pure, idempotent derivations.  Two threads may
      race to compute the same plan; both results are identical, the
      dict store is atomic under the GIL, and no I/O is involved — so
      these stay lock-free.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: ExecConfig = ExecConfig(),
        verify: bool = True,
    ) -> None:
        self.catalog = catalog
        self.config = config
        self.verify = verify
        self._scalar_cache: dict[int, object] = {}
        self._column_cache: dict[int, Relation] = {}
        self._index_plans: dict[int, object] = {}
        # Compiled-evaluation plans, keyed on the block's identity (the
        # query being executed holds its blocks, keeping the ids stable).
        self._where_plans: dict[int, CompiledFn | None] = {}
        self._item_plans: dict[int, list] = {}
        self._group_plans: dict[int, _GroupPlan] = {}
        # Correlated-subquery memo: (kind, id(query), outer values) →
        # result, plus the per-query list of referenced outer columns.
        self._outer_ref_plans: dict[int, object] = {}
        self._corr_memo: dict[tuple, object] = {}
        self._cache_lock = make_lock("engine.subquery_memo")

    def _single_flight(self, cache: dict, key, compute):
        """Return ``cache[key]``, computing it exactly once.

        The first thread to miss installs a :class:`_Pending` marker
        and computes outside the lock (the computation reads pages and
        may evaluate further subqueries — holding the lock across it
        would serialize all workers).  Waiters block on the marker's
        event and re-read.  On failure the marker is removed so a
        waiter retries the computation rather than caching an error.
        """
        while True:
            with self._cache_lock:
                entry = cache.get(key, _MISSING)
                if entry is _MISSING:
                    pending = _Pending()
                    cache[key] = pending
                    break
            if not isinstance(entry, _Pending):
                return entry
            entry.event.wait()
        try:
            value = compute()
        except BaseException:
            with self._cache_lock:
                cache.pop(key, None)
            pending.event.set()
            raise
        with self._cache_lock:
            cache[key] = value
        pending.event.set()
        return value

    # -- public API ------------------------------------------------------

    def execute(self, select: Select) -> QueryResult:
        """Run a (possibly nested) query and return its result."""
        if self.verify:
            self._verify(select)
        self._scalar_cache.clear()
        self._column_cache.clear()
        self._index_plans.clear()
        self._where_plans.clear()
        self._item_plans.clear()
        self._group_plans.clear()
        self._outer_ref_plans.clear()
        self._corr_memo.clear()
        try:
            schema, rows = self._execute_block(select, outer=None)
        finally:
            self._drop_materialized()
        names = self._output_names(select)
        return QueryResult(columns=names, rows=rows)

    def _verify(self, select: Select) -> None:
        """Static scope check before any page is touched.

        Unresolvable or ambiguous references surface as
        ``ColumnVerificationError`` (a ``BindError``) up front instead
        of mid-iteration.  Unknown tables are left for the catalog to
        report (``CatalogError``), and the check is skipped entirely in
        that case so cascading column findings don't mask it.
        """
        from repro.analysis.verifier import verify_nested

        findings = verify_nested(select, self.catalog)
        if findings.by_rule("PV004"):
            return
        findings.raise_errors("static verification before nested iteration")

    # -- SubqueryHandler -------------------------------------------------

    def scalar(self, query: Select, context: EvalContext | None) -> object:
        correlated = self._is_correlated(query)
        if not correlated:
            return self._single_flight(
                self._scalar_cache,
                id(query),
                partial(self._scalar_value, query, None),
            )
        memo_key = self._memo_key("scalar", query, context)
        if memo_key is None:
            return self._scalar_value(query, context)
        return self._single_flight(
            self._corr_memo, memo_key, partial(self._scalar_value, query, context)
        )

    def _scalar_value(self, query: Select, outer: EvalContext | None) -> object:
        _, rows = self._execute_block(query, outer=outer)
        if rows and len(rows[0]) != 1:
            raise ExecutionError("scalar subquery must select one column")
        if len(rows) > 1:
            raise CardinalityError(
                f"scalar subquery returned {len(rows)} rows: {to_sql(query)}"
            )
        return rows[0][0] if rows else None

    def column(self, query: Select, context: EvalContext | None) -> list[object]:
        correlated = self._is_correlated(query)
        if not correlated:
            cached = self._single_flight(
                self._column_cache,
                id(query),
                partial(self._column_store, query),
            )
            return [row[0] for row in cached]
        memo_key = self._memo_key("column", query, context)
        if memo_key is None:
            return self._column_values(query, context)
        return self._single_flight(
            self._corr_memo, memo_key, partial(self._column_values, query, context)
        )

    def _column_store(self, query: Select) -> Relation:
        values = self._column_values(query, None)
        # System R's X: the inner result lives on disk and is
        # rescanned per outer tuple (cheap only if it fits in B).
        # Single-flight matters doubly here: a duplicated computation
        # would not just waste work, it would *write a second temp* —
        # extra page I/O and a leaked heap.
        return Relation.materialize(
            RowSchema([(None, "X")]),
            [(v,) for v in values],
            self.catalog.buffer,
            name="X",
        )

    def _column_values(
        self, query: Select, outer: EvalContext | None
    ) -> list[object]:
        _, rows = self._execute_block(query, outer=outer)
        if rows and len(rows[0]) != 1:
            raise ExecutionError("IN subquery must select one column")
        return [row[0] for row in rows]

    def exists(self, query: Select, context: EvalContext | None) -> bool:
        correlated = self._is_correlated(query)
        memo_key = (
            self._memo_key("exists", query, context) if correlated else None
        )
        if memo_key is None:
            _, rows = self._execute_block(
                query, outer=context if correlated else None
            )
            return bool(rows)
        return self._single_flight(
            self._corr_memo, memo_key, partial(self._exists_value, query, context)
        )

    def _exists_value(self, query: Select, context: EvalContext | None) -> bool:
        _, rows = self._execute_block(query, outer=context)
        return bool(rows)

    def _memo_key(
        self, kind: str, query: Select, context: EvalContext | None
    ) -> tuple | None:
        """Memo key for a correlated block: the *values* of the outer
        columns it references.  Two outer tuples that agree on those
        columns get the same inner result, so the inner block runs once
        per distinct combination instead of once per outer tuple.

        Returns None (no memoization) when disabled, when the block's
        outer references cannot be enumerated, or when one of them does
        not resolve in the given context.
        """
        if context is None:
            return None
        refs = self._outer_ref_plans.get(id(query))
        if refs is None:
            refs = self._outer_ref_plan(query)
            self._outer_ref_plans[id(query)] = refs
        if refs is False:
            return None
        try:
            values = tuple(context.resolve(ref) for ref in refs)
        except BindError:
            return None
        return (kind, id(query), values)

    def _outer_ref_plan(self, query: Select):
        """The distinct outer columns a correlated block references."""

        def has_column(binding: str, column: str) -> bool:
            if self.catalog.has_table(binding):
                return self.catalog.schema_of(binding).has_column(column)
            return False

        all_bindings = tuple(self.catalog.table_names())
        try:
            refs = outer_references(query, has_column, all_bindings)
        except Exception:
            return False
        distinct: list[ColumnRef] = []
        for ref in refs:
            if ref not in distinct:
                distinct.append(ref)
        return distinct

    # -- block evaluation --------------------------------------------------

    def _execute_block(
        self, select: Select, outer: EvalContext | None
    ) -> tuple[RowSchema, list[tuple]]:
        tables = sorted(select.from_tables, key=lambda ref: ref.semi)
        schema = self._from_schema(tables)
        qualifying = self._qualifying_rows(select, tables, schema, outer)

        if select.group_by or select.has_aggregate_select():
            rows = self._aggregate_rows(select, schema, qualifying, outer)
        else:
            rows = [
                self._project_row(select, schema, row, outer) for row in qualifying
            ]

        if select.distinct:
            rows = _dedup(rows)
        if select.order_by:
            rows = self._order_rows(select, schema, qualifying, rows, outer)
        return schema, rows

    def _from_schema(self, tables: list[TableRef]) -> RowSchema:
        fields: list[tuple[str | None, str]] = []
        for ref in tables:
            table_schema = self.catalog.schema_of(ref.name)
            fields.extend(
                (ref.binding, column) for column in table_schema.column_names
            )
        return RowSchema(fields)

    def _qualifying_rows(
        self,
        select: Select,
        tables: list[TableRef],
        schema: RowSchema,
        outer: EvalContext | None,
    ) -> list[tuple]:
        """The FROM rows the WHERE keeps.  Semi-joined tables (plan
        syntax, ``SEMI`` in a transformed block) scan last, and their
        rescan stops at the first extension that qualifies: each
        combination of the other tables comes out at most once, as
        from a semi join."""
        indexed = self._indexed_rows(select, schema, outer)
        if indexed is not None:
            return indexed
        keep = self._where_plan(select, schema, outer)
        parallel = self._parallel_qualifying_rows(select, schema, outer, keep)
        if parallel is not None:
            return parallel
        plain = [ref.name for ref in tables if not ref.semi]
        semi = [ref.name for ref in tables if ref.semi]
        rows: list[tuple] = []
        if not semi:
            for combined in self._from_rows(plain, ()):
                if keep is None or keep(combined, outer) is True:
                    rows.append(combined)
            return rows
        for prefix in self._from_rows(plain, ()):
            for combined in self._from_rows(semi, prefix):
                if keep is None or keep(combined, outer) is True:
                    rows.append(combined)
                    break
        return rows

    def _parallel_qualifying_rows(
        self,
        select: Select,
        schema: RowSchema,
        outer: EvalContext | None,
        keep: CompiledFn | None,
    ) -> list[tuple] | None:
        """Shard the outermost loop across the exchange pool, or None.

        Only the *top-level* block of a *single-table* FROM clause
        fans out: workers evaluate the full WHERE plan — correlated
        subqueries included — over disjoint page shards of the outer
        table, and the ordered gather restores scan order, so the
        qualifying rows come back exactly as the serial loop would
        produce them.  Inner blocks (``outer is not None``) stay serial
        on whichever thread reached them, and multi-table blocks stay
        serial because their nested inner rescans are re-read-sensitive
        under concurrent eviction.  Page-I/O identity for the sharded
        loop itself holds by the single-pass argument (disjoint shards,
        each page read once); the subqueries a worker triggers are
        deduplicated by the single-flight caches, so inner blocks run
        once per memo key — the serial schedule — and their reads are
        identical whenever the buffer keeps the working set resident,
        which the serial executor requires for its own costs anyway.
        """
        if (
            outer is not None
            or self.config.parallelism <= 1
            or len(select.from_tables) != 1
        ):
            return None
        heap = self.catalog.heap_of(select.from_tables[0].name)
        if heap.num_rows < self.config.parallel_threshold:
            return None
        from repro.engine.exchange import in_worker, run_tasks

        if in_worker():
            return None
        nparts = max(1, min(self.config.parallelism, heap.num_pages))
        shards = heap.partition_pages(nparts)

        def work(index: int) -> list[tuple]:
            rows: list[tuple] = []
            for _page_index, batch in heap.scan_pages_partition(shards[index]):
                for combined in batch:
                    if keep is None or keep(combined, None) is True:
                        rows.append(combined)
            return rows

        gathered = run_tasks(
            [partial(work, index) for index in range(nparts)],
            width=self.config.parallelism,
        )
        return [row for shard in gathered for row in shard]

    def _where_plan(
        self, select: Select, schema: RowSchema, outer: EvalContext | None
    ) -> CompiledFn | None:
        """The block's WHERE clause, compiled once per block — a
        correlated block keeps it across the per-outer-tuple rescans."""
        key = id(select)
        if key not in self._where_plans:
            self._where_plans[key] = (
                None
                if select.where is None
                else compile_predicate(
                    select.where, _schema_chain(schema, outer), self
                )
            )
        return self._where_plans[key]

    # -- index fast path ------------------------------------------------------

    def _indexed_rows(
        self, select: Select, schema: RowSchema, outer: EvalContext | None
    ) -> list[tuple] | None:
        """Evaluate a single-table block by an index probe, when possible.

        System R's access-path selection in miniature: if the block
        scans one table, some equality conjunct compares an indexed
        local column with an expression free of local references (a
        correlation column or a constant), probe the index with the
        expression's value and filter the survivors with the remaining
        predicate.  Returns None when no index plan applies.
        """
        plan = self._index_plans.get(id(select))
        if plan is None:
            plan = self._make_index_plan(select, schema, outer)
            self._index_plans[id(select)] = plan
        if plan is False:
            return None
        index, key, residual = plan
        # The probe key reads the *outer* context only (the expression
        # has no local references by construction).
        return [
            row
            for row in index.lookup(key((), outer))
            if residual is None or residual(row, outer) is True
        ]

    def _make_index_plan(
        self, select: Select, schema: RowSchema, outer: EvalContext | None
    ):
        from repro.sql.ast import Comparison, conjuncts, make_and, walk

        if len(select.from_tables) != 1 or select.where is None:
            return False
        table = select.from_tables[0]

        parts = conjuncts(select.where)
        for position, conjunct in enumerate(parts):
            if not isinstance(conjunct, Comparison) or conjunct.op != "=":
                continue
            for local_side, other_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                if not isinstance(local_side, ColumnRef):
                    continue
                if schema.try_index_of(local_side) is None:
                    continue
                # The probe expression must be local-reference-free and
                # subquery-free (its value must not depend on this row).
                other_refs = [
                    node
                    for node in walk(other_side, into_subqueries=False)
                    if isinstance(node, (ColumnRef, Select))
                ]
                if any(
                    isinstance(node, Select) for node in other_refs
                ) or any(
                    isinstance(node, ColumnRef)
                    and schema.try_index_of(node) is not None
                    for node in other_refs
                ):
                    continue
                index = self.catalog.index_for(table.name, local_side.column)
                if index is None:
                    continue
                residual = make_and(
                    parts[:position] + parts[position + 1 :]
                )
                return (
                    index,
                    compile_scalar(
                        other_side, _schema_chain(RowSchema(()), outer), self
                    ),
                    None
                    if residual is None
                    else compile_predicate(
                        residual, _schema_chain(schema, outer), self
                    ),
                )
        return False

    def _from_rows(self, tables: list[str], prefix: tuple, index: int = 0):
        """Cartesian product of ``tables[index:]`` by nested rescans,
        each row extending ``prefix``.

        Inner tables are rescanned per outer tuple through the buffer
        pool — the join method System R's nested iteration uses.
        """
        if index == len(tables):
            yield prefix
            return
        for row in self.catalog.heap_of(tables[index]).scan():
            yield from self._from_rows(tables, prefix + row, index + 1)

    # -- projection and aggregation ---------------------------------------

    def _project_row(
        self,
        select: Select,
        schema: RowSchema,
        row: tuple,
        outer: EvalContext | None,
    ) -> tuple:
        plan = self._item_plans.get(id(select))
        if plan is None:
            chain = _schema_chain(schema, outer)
            plan = [
                None
                if isinstance(item.expr, Star)
                else compile_scalar(item.expr, chain, self)
                for item in select.items
            ]
            self._item_plans[id(select)] = plan
        values: list[object] = []
        for item, compiled in zip(select.items, plan):
            if isinstance(item.expr, Star):
                values.extend(self._star_values(item.expr, schema, row))
            else:
                values.append(compiled(row, outer))
        return tuple(values)

    def _star_values(self, star: Star, schema: RowSchema, row: tuple) -> list[object]:
        if star.table is None:
            return list(row)
        return [
            value
            for value, (qualifier, _) in zip(row, schema.fields)
            if qualifier == star.table
        ]

    def _aggregate_rows(
        self,
        select: Select,
        schema: RowSchema,
        qualifying: list[tuple],
        outer: EvalContext | None,
    ) -> list[tuple]:
        plan = self._group_plans.get(id(select))
        if plan is None:
            plan = _GroupPlan(select, _schema_chain(schema, outer), self)
            self._group_plans[id(select)] = plan
        if select.group_by:
            groups: dict[tuple, list[tuple]] = {}
            for row in qualifying:
                key = tuple(orderable(fn(row, outer)) for fn in plan.keys)
                groups.setdefault(key, []).append(row)
            grouped = list(groups.values())
        else:
            # Scalar aggregation: the whole input is one group, and SQL
            # returns exactly one row even for an empty input.
            grouped = [qualifying]
        results = (plan.result(group, outer) for group in grouped)
        return [row for row in results if row is not None]

    def _order_rows(
        self,
        select: Select,
        schema: RowSchema,
        qualifying: list[tuple],
        rows: list[tuple],
        outer: EvalContext | None,
    ) -> list[tuple]:
        """Sort output rows by the ORDER BY items.

        Supported when each ORDER BY expression references output
        columns by name or position in the SELECT list.
        """
        out_names = self._output_names(select)
        positions = []
        for item in select.order_by:
            expr = item.expr
            if not (isinstance(expr, ColumnRef) and expr.column in out_names):
                raise ExecutionError(
                    "ORDER BY supports output-column references only"
                )
            positions.append(out_names.index(expr.column))
        # Key columns only: the sort is stable, ties keep their order.
        key = order_key(column_profile(rows), positions, tiebreak=False)

        descending_flags = {item.descending for item in select.order_by}
        if len(descending_flags) > 1:
            raise ExecutionError("mixed ASC/DESC ORDER BY is not supported")
        return sorted(rows, key=key, reverse=descending_flags == {True})

    # -- helpers -----------------------------------------------------------

    def _is_correlated(self, query: Select) -> bool:
        """Correlation test used to decide caching.

        The enclosing bindings are not tracked here; instead we ask
        whether the block's subtree references *any* table binding that
        is not introduced within the subtree itself.
        """

        def has_column(binding: str, column: str) -> bool:
            if self.catalog.has_table(binding):
                return self.catalog.schema_of(binding).has_column(column)
            return False

        all_bindings = tuple(
            name for name in self.catalog.table_names()
        )
        try:
            return is_correlated(query, has_column, all_bindings)
        except Exception:
            # Unresolvable references surface later as BindError during
            # evaluation; treat as correlated (no caching) here.
            return True

    def _output_names(self, select: Select) -> list[str]:
        names: list[str] = []
        for item in select.items:
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ColumnRef):
                names.append(item.expr.column)
            elif isinstance(item.expr, FuncCall):
                names.append(to_sql(item.expr))
            elif isinstance(item.expr, Star):
                star = item.expr
                for ref in select.from_tables:
                    if star.table is None or star.table == ref.binding:
                        names.extend(
                            self.catalog.schema_of(ref.name).column_names
                        )
            else:
                names.append(f"EXPR{len(names) + 1}")
        return names

    def _drop_materialized(self) -> None:
        for cached in self._column_cache.values():
            if isinstance(cached, Relation):
                cached.drop()
        self._column_cache.clear()
        self._scalar_cache.clear()


class _GroupPlan:
    """An aggregated block, compiled once: its group keys, its items as
    functions of a group, and its HAVING over a per-group row that is
    the group's aggregate values (one slot per aggregate call) followed
    by a representative row."""

    def __init__(
        self,
        select: Select,
        chain: tuple[RowSchema, ...],
        handler: SubqueryHandler,
    ) -> None:
        self.keys = [compile_scalar(e, chain, handler) for e in select.group_by]
        self.items = [_group_item(i.expr, chain, handler) for i in select.items]
        self.nulls = (None,) * len(chain[0])
        self.aggregates: list = []
        self.having: CompiledFn | None = None
        if select.having is None:
            return
        slots: list[ColumnRef] = []

        def slot(node):
            if isinstance(node, FuncCall) and node.is_aggregate:
                self.aggregates.append(_aggregator(node, chain, handler))
                # No SQL identifier can spell the qualifier.
                slots.append(ColumnRef("#AGG", str(len(slots) + 1)))
                return slots[-1]
            if isinstance(node, Select):
                return node  # its aggregates are its own
            return map_children(node, slot)

        having = slot(select.having)
        prefix = RowSchema((ref.table, ref.column) for ref in slots)
        self.having = compile_predicate(
            having, (prefix + chain[0],) + chain[1:], handler
        )

    def result(
        self, group: list[tuple], outer: EvalContext | None
    ) -> tuple | None:
        """The group's output row, or None when HAVING rejects it."""
        if self.having is not None:
            values = tuple(aggregate(group, outer) for aggregate in self.aggregates)
            representative = group[0] if group else self.nulls
            if self.having(values + representative, outer) is not True:
                return None
        return tuple(item(group, outer) for item in self.items)


def _aggregator(call: FuncCall, chain: tuple[RowSchema, ...], handler):
    """``fn(group, outer)``: the aggregate's value over the group."""
    name, distinct = call.name, call.distinct
    if isinstance(call.arg, Star):
        return lambda group, outer: compute_aggregate(
            name, [1] * len(group), distinct
        )
    arg = compile_scalar(call.arg, chain, handler)
    return lambda group, outer: compute_aggregate(
        name, [arg(row, outer) for row in group], distinct
    )


def _group_item(expr: Expr, chain: tuple[RowSchema, ...], handler):
    """``fn(group, outer)`` for one SELECT item of an aggregated block:
    an aggregate over the group, anything else over its first row (NULL
    for an empty group)."""
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return _aggregator(expr, chain, handler)
    compiled = compile_scalar(expr, chain, handler)
    return lambda group, outer: compiled(group[0], outer) if group else None


def _schema_chain(
    schema: RowSchema, outer: EvalContext | None
) -> tuple[RowSchema, ...]:
    """The schema chain the compiler resolves against: the block's own
    schema, then each enclosing context's, innermost first — the same
    order :meth:`EvalContext.resolve` searches at runtime."""
    chain = [schema]
    context = outer
    while context is not None:
        chain.append(context.schema)
        context = context.outer
    return tuple(chain)


def _dedup(rows: list[tuple]) -> list[tuple]:
    seen: set[tuple] = set()
    result: list[tuple] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            result.append(row)
    return result
