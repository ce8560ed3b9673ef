"""The nested-iteration executor — System R's strategy and our oracle.

This interprets a nested statement directly, the way the paper says
System R did (section 2.4, quoting [SEL 79:33]):

* a **type-A/N** inner block (no correlation) is evaluated *once*; a
  scalar result becomes a constant, a column result is materialized
  into a temporary list ``X`` on disk and the nested predicate becomes
  ``... IN X``, rescanned per outer tuple;
* a **type-J/JA** inner block (correlated) is re-evaluated once per
  outer tuple that survives the simple predicates — which is exactly
  why "the inner relation may have to be retrieved once for each tuple
  of the outer relation", the inefficiency the transformations attack.

:class:`NestedIterationExecutor` goes one step past System R with one
memo for every kind of block (scalar, ``IN`` list, ``EXISTS``), keyed on
the block and the values of the outer columns it reads: an
uncorrelated block runs once per statement, a correlated one once per
*distinct* correlation value.  :func:`system_r_nested_iteration` is the
paper's baseline as stated, with no memo for a correlated block — a
demonstrator, like :func:`~repro.core.nest_ja.kim_nest_g`, not an
engine setting.

It runs statements only: a plan's blocks, value links included, run on
the single-level executor, and a ``SEMI`` table (plan syntax) is an
error here.  Because every table scan goes through the buffer pool,
running this executor *measures* the nested-iteration page-I/O cost
that the paper's Figure 1 and section 7.4 model analytically.

Semantically this executor is the reference: the transformation tests
compare every rewritten plan's result against it (multiset equality).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial

from repro.catalog.catalog import Catalog
from repro.engine.aggregate import compute_aggregate
from repro.engine.compile import CompiledFn, compile_predicate, compile_scalar
from repro.engine.expression import EvalContext, SubqueryHandler
from repro.engine.relation import Relation
from repro.engine.schema import RowSchema
from repro.engine.sort import column_profile, order_key, orderable
from repro.errors import BindError, CardinalityError, ExecutionError
from repro.sql.analysis import outer_references
from repro.sql.ast import (
    ColumnRef,
    FuncCall,
    Select,
    Star,
    TableRef,
    map_children,
)
from repro.sql.output import order_positions, output_names
from repro.sql.printer import to_sql


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


_MISSING = object()


class NestedIterationExecutor(SubqueryHandler):
    """Evaluates nested statements by memoized nested iteration.

    One executor runs one statement at a time on the calling thread;
    its memo and plan caches are plain dicts.
    """

    def __init__(self, catalog: Catalog) -> None:
        self.catalog = catalog
        self._index_plans: dict[int, object] = {}
        # Compiled-evaluation plans, keyed on the block's identity (the
        # statement being executed holds its blocks, keeping the ids
        # stable).
        self._where_plans: dict[int, CompiledFn | None] = {}
        self._item_plans: dict[int, list] = {}
        self._group_plans: dict[int, _GroupPlan] = {}
        # The memo: (kind, id(block), outer values) -> result, and per
        # block the outer columns it reads.
        self._outer_refs: dict[int, tuple[ColumnRef, ...]] = {}
        self._memo: dict[tuple, object] = {}

    @staticmethod
    def _cached(cache: dict, key, compute):
        """Return ``cache[key]``, computing it on a miss.  A computation
        that raises caches nothing, so the next lookup retries it."""
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = cache[key] = compute()
        return value

    # -- public API ------------------------------------------------------

    def execute(self, select: Select) -> QueryResult:
        """Run a (possibly nested) statement and return its result.

        The memo reads the bindings of a bound statement
        (:func:`~repro.core.pipeline.bind_columns`): a block that reads
        an unqualified name is memoized only when that name resolves
        among the enclosing blocks' columns.
        """
        for cache in (
            self._index_plans, self._where_plans, self._item_plans,
            self._group_plans, self._outer_refs, self._memo,
        ):
            cache.clear()
        try:
            _, rows = self._execute_block(select, outer=None)
        finally:
            for value in self._memo.values():
                if isinstance(value, Relation):
                    value.drop()
            self._memo.clear()
        return QueryResult(
            columns=output_names(select, self.catalog.column_names), rows=rows
        )

    # -- SubqueryHandler -------------------------------------------------

    def scalar(self, query: Select, context: EvalContext | None) -> object:
        return self._memoized("scalar", query, context, self._scalar_value)

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
        rows = self._memoized("column", query, context, self._column_rows)
        return [row[0] for row in rows]

    def _column_rows(
        self, query: Select, outer: EvalContext | None
    ) -> list[tuple] | Relation:
        _, rows = self._execute_block(query, outer=outer)
        if rows and len(rows[0]) != 1:
            raise ExecutionError("IN subquery must select one column")
        if outer is not None:
            return rows
        # System R's X: an uncorrelated block's result lives on disk and
        # is rescanned per outer tuple (cheap only if it fits in B).
        return Relation.materialize(
            RowSchema([(None, "X")]), rows, self.catalog.buffer, name="X"
        )

    def exists(self, query: Select, context: EvalContext | None) -> bool:
        return self._memoized("exists", query, context, self._exists_value)

    def _exists_value(self, query: Select, outer: EvalContext | None) -> bool:
        _, rows = self._execute_block(query, outer=outer)
        return bool(rows)

    def _memoized(
        self, kind: str, query: Select, context: EvalContext | None, compute
    ):
        """``compute(query, outer)`` once per memo key
        (:meth:`_memo_key`).  An uncorrelated block runs with no outer
        context; without a key the block runs every time."""
        key = self._memo_key(kind, query, context)
        if key is None:
            return compute(query, context)
        outer = context if key[2] else None
        return self._cached(self._memo, key, partial(compute, query, outer))

    def _memo_key(
        self, kind: str, query: Select, context: EvalContext | None
    ) -> tuple | None:
        """``(kind, block, values of the outer columns it reads)``: two
        outer tuples that agree on those columns get the same result,
        and an uncorrelated block has the empty tuple.  None when one
        does not resolve in ``context``."""
        refs = self._outer_refs.get(id(query))
        if refs is None:
            # The distinct columns of enclosing blocks the block reads,
            # by the bindings the statement's references carry.
            refs = self._outer_refs[id(query)] = tuple(
                dict.fromkeys(outer_references(query))
            )
        if refs and context is None:
            return None
        try:
            values = tuple(context.resolve(ref) for ref in refs)
        except BindError:
            return None
        return (kind, id(query), values)

    # -- block evaluation --------------------------------------------------

    def _execute_block(
        self, select: Select, outer: EvalContext | None
    ) -> tuple[RowSchema, list[tuple]]:
        schema = self._from_schema(select.from_tables)
        qualifying = self._qualifying_rows(select, schema, outer)

        if select.group_by or select.has_aggregate_select():
            rows = self._aggregate_rows(select, schema, qualifying, outer)
        else:
            rows = [
                self._project_row(select, schema, row, outer) for row in qualifying
            ]

        if select.distinct:
            rows = _dedup(rows)
        if select.order_by:
            positions, descending = order_positions(select, self.catalog.column_names)
            # Key columns only: the sort is stable, ties keep their order.
            key = order_key(column_profile(rows), positions, tiebreak=False)
            rows = sorted(rows, key=key, reverse=descending)
        return schema, rows

    def _from_schema(self, tables: tuple[TableRef, ...]) -> RowSchema:
        fields: list[tuple[str | None, str]] = []
        for ref in tables:
            if ref.semi:
                raise ExecutionError(
                    f"SEMI {ref.name} is plan syntax; nested iteration "
                    "runs statements"
                )
            table_schema = self.catalog.schema_of(ref.name)
            fields.extend(
                (ref.binding, column) for column in table_schema.column_names
            )
        return RowSchema(fields)

    def _qualifying_rows(
        self, select: Select, schema: RowSchema, outer: EvalContext | None
    ) -> list[tuple]:
        """The FROM rows the WHERE keeps."""
        indexed = self._indexed_rows(select, schema, outer)
        if indexed is not None:
            return indexed
        keep = self._where_plan(select, schema, outer)
        tables = [ref.name for ref in select.from_tables]
        return [
            combined
            for combined in self._from_rows(tables, ())
            if keep is None or keep(combined, outer) is True
        ]

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


class _SystemRExecutor(NestedIterationExecutor):
    """Nested iteration with no correlated memo: only an uncorrelated
    block's key is kept."""

    def _memo_key(self, kind, query, context):
        key = super()._memo_key(kind, query, context)
        return None if key is None or key[2] else key


def system_r_nested_iteration(select: Select, catalog: Catalog) -> QueryResult:
    """Run ``select`` (prepared: qualified, extended predicates
    rewritten) by System R's nested iteration as the paper describes it:
    a correlated block is evaluated once for every outer tuple that
    reaches it, whether or not an earlier tuple had the same correlation
    values.  Uncorrelated blocks are still evaluated once.  This is the
    baseline the paper's Figure 2 and nesting-depth claims are stated
    against; the engine's own executor memoizes."""
    return _SystemRExecutor(catalog).execute(select)


class _GroupPlan:
    """An aggregated block, compiled once: its group keys, and its
    HAVING and items over a per-group row that is the group's aggregate
    values — one slot per distinct aggregate call — followed by a
    representative row (NULLs for an empty group)."""

    def __init__(
        self,
        select: Select,
        chain: tuple[RowSchema, ...],
        handler: SubqueryHandler,
    ) -> None:
        self.keys = [compile_scalar(e, chain, handler) for e in select.group_by]
        self.nulls = (None,) * len(chain[0])
        calls: list[FuncCall] = []

        def slot(node):
            if isinstance(node, FuncCall) and node.is_aggregate:
                if node not in calls:
                    calls.append(node)
                # No SQL identifier can spell the qualifier.
                return ColumnRef("#AGG", str(calls.index(node) + 1))
            if isinstance(node, Select):
                return node  # its aggregates are its own
            return map_children(node, slot)

        items = [slot(item.expr) for item in select.items]
        having = None if select.having is None else slot(select.having)
        prefix = RowSchema(("#AGG", str(i + 1)) for i in range(len(calls)))
        over = (prefix + chain[0],) + chain[1:]
        self.aggregates = [_aggregator(call, chain, handler) for call in calls]
        self.items = [compile_scalar(item, over, handler) for item in items]
        self.having: CompiledFn | None = (
            None if having is None else compile_predicate(having, over, handler)
        )

    def result(
        self, group: list[tuple], outer: EvalContext | None
    ) -> tuple | None:
        """The group's output row, or None when HAVING rejects it."""
        values = tuple(aggregate(group, outer) for aggregate in self.aggregates)
        row = values + (group[0] if group else self.nulls)
        if self.having is not None and self.having(row, outer) is not True:
            return None
        return tuple(item(row, outer) for item in self.items)


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
