"""Physical execution of single-level (canonical) queries.

After transformation, every query the paper produces is single-level: a
temp-table definition (selection + projection + join + GROUP BY) or the
final canonical join.  This executor runs such queries over the storage
engine with a chosen join method:

* ``join_method="merge"`` — sort inputs as needed and merge join (the
  evaluation the paper's section 7 costs in detail);
* ``join_method="nested"`` — nested-loop joins (efficient only when the
  inner fits in the buffer, section 7.2);
* ``join_method="hash"`` — build/probe hash equi joins plus hash-based
  GROUP BY and DISTINCT, which need **no sorted inputs** (an extension
  beyond the paper's sort-merge repertoire; theta joins still fall back
  to the sort-merge path).

Design points lifted straight from the paper:

* **Single-relation predicates are applied before any join** — section
  5.2 shows the outer join produces wrong COUNTs otherwise ("the
  condition which applies to only one relation must be applied before
  the join is performed").
* **Sort order is a property of every relation**, claimed by the
  operator that produced it and kept across ``register_temp`` — so, as
  in section 7.4, a merge join's output needs no re-sort for a GROUP BY
  on the join column, and a temp table created in GROUP BY order needs
  no sort before the final merge join.

* **One pass per block.**  Every operator but the sort returns a
  one-shot stream of batches, so a restriction, a projection, a join
  and a GROUP BY read their input once and write nothing — the paper's
  "restriction and projection ... cost = read input + write output" is
  one pass.  A block writes pages in three places only: its result
  when the result is a temp (:meth:`SingleLevelExecutor.materialize`),
  the inner of a nested-loop join, which is rescanned once per outer
  tuple (section 7.2's cost), and the runs of a sort.  A statement's
  final block hands its rows to the caller and writes no result —
  section 7.3 prices the final join at ``sort(Ri) + Pi + Pt``, nothing
  for the answer.  A hash build side is read straight into the join's
  table.  Each table's restriction keeps only the columns the rest of
  the block reads, so what is still written (a sort's runs, a
  nested-loop inner) is as narrow as it can be.

Every operator runs serially, on the thread that issued the query, so
a plan's page I/O is one schedule — the one section 7 costs.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import partial
from typing import TypeVar

from repro.catalog.catalog import Catalog
from repro.config import ExecConfig
from repro.engine.aggregate import AggSpec
from repro.engine.operators import (
    group_aggregate,
    group_order,
    hash_distinct,
    hash_group_aggregate,
    hash_join,
    merge_join,
    nested_loop_join,
    restrict_project,
    scan_table,
)
from repro.engine.relation import Relation, describe_order
from repro.engine.schema import RowSchema
from repro.engine.sort import external_sort
from repro.errors import PlanError
from repro.sql.ast import (
    MIRRORED_OPS,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    Select,
    Star,
    column_refs,
    conjuncts,
    make_and,
    map_children,
)
from repro.sql.output import order_positions, output_names
from repro.sql.printer import to_sql


T = TypeVar("T")


def _join_step(method: str, mode: str, on: str) -> str:
    """A join's step text: ``merge semi-join on ...``."""
    return (
        f"{method} {'semi-join' if mode == 'semi' else 'join'} on {on}"
        + (" (left outer)" if mode == "left" else "")
    )


class SingleLevelExecutor:
    """Executes canonical queries over the storage engine.

    It checks nothing: every block it runs was verified once, when its
    plan was built (:func:`~repro.analysis.verifier.verify_single_level`).
    """

    def __init__(
        self,
        catalog: Catalog,
        config: ExecConfig = ExecConfig(),
    ) -> None:
        self.catalog = catalog
        self.buffer = catalog.buffer
        self.config = config
        self.steps: list[str] = []
        #: ``sorted_runs(scan, keys, sort) -> (run, how)``: set by a
        #: replay with a sharing registry, which leases the sorted run of
        #: a base table (``how``: "shared"), brings an older one forward
        #: ("maintained") or publishes what ``sort()`` builds (None).
        self.sorted_runs = None

    # -- public API --------------------------------------------------------

    def execute(self, select: Select, consume: Callable[[Relation], T]) -> T:
        """Run a single-level query and hand its output to ``consume``.

        The block's operators stream into ``consume``, which reads the
        output once, inside this call: :meth:`materialize` stores it as
        a temp, a chain's final block collects its rows
        (:meth:`Relation.to_list`) and writes nothing.  Every heap
        written on the way (a sort's output, a nested-loop inner) is
        this call's scratch and is freed once ``consume`` returns — on
        the error path too — unless ``consume`` gave it an owner.
        Returns what ``consume`` returns.
        """
        self.steps = []
        self._scratch: list[Relation] = []
        try:
            return consume(self._execute_block(select))
        finally:
            for relation in self._scratch:
                relation.drop()

    def materialize(self, name: str, select: Select) -> str:
        """Build one temp-table definition and register it as ``name``.

        The one place a transform temp (``Rt``, ``TEMP1..3``, a staging
        temp) comes into being, and the one place a block's result is
        written: the replay loop and the batched chain both call it.
        The catalog this executor reads from owns the heap from here
        on.  Returns the step text.
        """

        def register(output: Relation) -> None:
            relation = self._stored(output)
            self.catalog.register_temp(
                name, relation.heap, output_names(select), relation.order
            )
            self._scratch.remove(relation)  # the catalog owns it now

        self.execute(select, register)
        return f"built {name}: " + "; ".join(self.steps)

    def _run(self, operator, *args, **kwargs) -> Relation:
        """Run one physical operator: the ownership choke point.

        Operators are invoked only through here, so every heap a block
        writes is on the scratch list :meth:`execute` sweeps; a stream
        owns no page.  (A write that raises has no output to record: a
        half-built heap is freed by ``Relation.materialize_batches``,
        a sort's runs by ``external_sort``.)
        """
        relation = operator(*args, **kwargs)
        if relation.heap is not None:
            self._scratch.append(relation)
        return relation

    def _stored(self, relation: Relation) -> Relation:
        """``relation`` on a heap, written now unless it already is one:
        a temp's result, or a nested-loop inner that is rescanned."""
        if relation.heap is not None:
            return relation
        return self._run(relation.store, self.buffer)

    def _execute_block(self, select: Select) -> Relation:
        joined = self._apply_residual(select, self._join_from_tables(select))

        if select.group_by or select.has_aggregate_select():
            result = self._grouped_output(select, joined)
        else:
            result = self._plain_output(select, joined)

        if select.distinct:
            if self.config.join_method == "hash":
                result = self._run(hash_distinct, result, name="distinct")
                self._log("hash dedup for DISTINCT (no sort)")
            else:
                result = self._run(
                    external_sort, result, list(range(len(result.schema))),
                    self.buffer, unique=True, name="distinct",
                )
                self._log("sort-unique for DISTINCT")
        if select.order_by:
            result = self._order_output(select, result)
        return result

    # -- FROM clause ---------------------------------------------------------

    def _join_from_tables(self, select: Select) -> Relation:
        all_conjuncts = conjuncts(select.where)
        self._consumed: set[int] = set()

        tables = select.from_tables
        if not tables:
            raise PlanError("query has no FROM clause")
        if tables[0].semi:
            raise PlanError(
                f"semi table {tables[0].binding} has no table before it to restrict"
            )

        read_later = self._columns_read_later(select, all_conjuncts)
        relations: list[Relation] = []
        for ref in tables:
            relation = scan_table(self.catalog.get(ref.name), binding=ref.binding)
            local = self._table_local_predicate(
                all_conjuncts, relation.schema, ref.binding
            )
            if local is not None:
                relation = self._run(
                    restrict_project, relation, predicate=local,
                    projections=self._pushed_projection(
                        relation.schema, read_later
                    ),
                    name=f"restrict({ref.binding})",
                )
                self._log(f"restrict {ref.binding}: {to_sql(local)}")
            relations.append(relation)

        joined = relations[0]
        for ref, relation in zip(tables[1:], relations[1:]):
            joined = self._join_pair(all_conjuncts, joined, relation, ref.semi)
        return joined

    def _columns_read_later(
        self, select: Select, all_conjuncts: list[Expr]
    ) -> set[tuple[str, str]] | None:
        """``(binding, column)`` of every column the block reads after
        the per-table restrictions: the join and residual conjuncts,
        the SELECT items, GROUP BY and HAVING (ORDER BY names output
        columns).  None — keep every column — when a ``*`` item reads
        them all."""
        if any(isinstance(item.expr, Star) for item in select.items):
            return None
        exprs: list[Expr] = [item.expr for item in select.items]
        exprs += select.group_by
        if select.having is not None:
            exprs.append(select.having)
        exprs += [c for c in all_conjuncts if len(self._bindings_used(c)) != 1]
        return {(ref.table, ref.column) for expr in exprs for ref in column_refs(expr)}

    def _pushed_projection(
        self, schema: RowSchema, read_later: set[tuple[str, str]] | None
    ) -> list[tuple[Expr, str | None, str]] | None:
        """A restriction's projection onto the columns read after it
        (projection pushdown); None when it would keep them all."""
        if read_later is None:
            return None
        kept = [field for field in schema.fields if field in read_later]
        if len(kept) == len(schema):
            return None
        return [
            (ColumnRef(binding, column), binding, column)
            for binding, column in kept
        ]

    def _table_local_predicate(
        self, all_conjuncts: list[Expr], schema: RowSchema, binding: str
    ) -> Expr | None:
        local: list[Expr] = []
        for index, conjunct in enumerate(all_conjuncts):
            if index in self._consumed:
                continue
            used = self._bindings_used(conjunct)
            if used and used <= {binding}:
                local.append(conjunct)
                self._consumed.add(index)
        return make_and(local)

    def _bindings_used(self, conjunct: Expr) -> set[str]:
        return {ref.table for ref in column_refs(conjunct)}

    # -- pairwise joins --------------------------------------------------------

    def _join_pair(
        self,
        all_conjuncts: list[Expr],
        left: Relation,
        right: Relation,
        semi: bool = False,
    ) -> Relation:
        """Join the accumulated ``left`` with the next FROM table on the
        conjuncts that read both.  A ``semi`` table (``TableRef.semi``)
        is semi-joined: its columns do not come out, so every conjunct
        that reads it must be part of this join's condition."""
        left_quals = left.schema.qualifiers
        right_quals = right.schema.qualifiers

        # (l, r, outer, null_safe)
        equi: list[tuple[ColumnRef, ColumnRef, str | None, bool]] = []
        theta: list[tuple[ColumnRef, str, ColumnRef, str | None]] = []
        other: list[Expr] = []

        for index, conjunct in enumerate(all_conjuncts):
            if index in self._consumed:
                continue
            used = self._bindings_used(conjunct)
            if not used or not used <= left_quals | right_quals:
                continue
            if not (used & left_quals and used & right_quals):
                continue
            self._consumed.add(index)
            normalized = self._normalize_join_pred(conjunct, left_quals)
            if normalized is None:
                other.append(conjunct)
            else:
                left_col, op, right_col, outer, null_safe = normalized
                if op == "=":
                    equi.append((left_col, right_col, outer, null_safe))
                else:
                    theta.append((left_col, op, right_col, outer))

        mode = "left" if self._any_outer(equi, theta) else "inner"
        if semi:
            stray = [
                to_sql(conjunct)
                for index, conjunct in enumerate(all_conjuncts)
                if index not in self._consumed
                and self._bindings_used(conjunct) & right_quals
            ]
            if stray or mode == "left":
                raise PlanError(
                    f"semi table {right.name} must be joined by every "
                    "conjunct that reads it, none of them an outer join: "
                    + "; ".join(stray or ["outer-join marker"])
                )
            mode = "semi"

        if self.config.join_method == "nested":
            predicate = make_and(
                [Comparison(l, "=", r, null_safe=ns) for l, r, _, ns in equi]
                + [self._theta_pred_expr(t) for t in theta]
                + other
            )
            self._log(
                f"nested-loop {'semi-join' if semi else 'join'} "
                f"({to_sql(predicate) if predicate else 'cross'})"
            )
            return self._run(
                nested_loop_join, left, self._stored(right),
                predicate=predicate, mode=mode, name="nl-join",
            )

        if equi:
            if self.config.join_method == "hash":
                return self._hash_equi(left, right, mode, equi, theta, other)
            return self._merge_equi(left, right, mode, equi, theta, other)
        if theta:
            # No equi keys to hash on: the hash method falls back to the
            # sorted theta merge join.
            return self._merge_theta(left, right, mode, theta, other)

        # No join predicate: cross product by nested loops.
        self._log("cross product (no join predicate)")
        return self._run(
            nested_loop_join, left, self._stored(right),
            predicate=make_and(other), mode=mode, name="cross",
        )

    def _equi_keys(self, equi, left: Relation, right: Relation) -> tuple:
        """Every equi predicate as one column of a composite join key:
        positions on each side, per-column NULL regime, and the text."""
        return (
            [left.schema.index_of(l) for l, _, _, _ in equi],
            [right.schema.index_of(r) for _, r, _, _ in equi],
            [null_safe for _, _, _, null_safe in equi],
            ", ".join(
                f"{l.qualified()} {'<=>' if ns else '='} {r.qualified()}"
                for l, r, _, ns in equi
            ),
        )

    def _aligned(self, equi, left: Relation, right: Relation) -> list:
        """Order the key columns to extend an order an input already
        has (any column order is a correct merge key): the longest run
        of an input's order the predicates cover, ties to the right
        input — section 7.3's "Rt is already in join-column order"."""

        def covered(relation: Relation, side: int) -> list:
            by_column = {relation.schema.index_of(e[side]): e for e in equi}
            run = []
            for column in relation.order[0]:
                if column not in by_column:
                    break
                run.append(by_column.pop(column))
            return run

        first = max(covered(right, 1), covered(left, 0), key=len)
        return first + [e for e in equi if e not in first]

    def _merge_equi(self, left, right, mode, equi, theta, other) -> Relation:
        left_keys, right_keys, regimes, text = self._equi_keys(
            self._aligned(equi, left, right), left, right
        )
        residual_preds = [self._theta_pred_expr(t) for t in theta] + other
        left = self._ensure_sorted(left, tuple(left_keys))
        right = self._ensure_sorted(right, tuple(right_keys))
        joined = self._run(
            merge_join, left, right,
            left_keys, right_keys, op="=", mode=mode, name="merge-join",
            null_safe=regimes,
            residual=self._residual_callable(
                make_and(residual_preds) if mode != "inner" else None,
                left.schema + right.schema,
            ),
        )
        self._log(_join_step("merge", mode, text))
        if mode != "inner":
            return joined  # residual already applied inside the join
        return self._filter(joined, make_and(residual_preds))

    def _hash_equi(self, left, right, mode, equi, theta, other) -> Relation:
        left_keys, right_keys, regimes, text = self._equi_keys(equi, left, right)
        residual_preds = [self._theta_pred_expr(t) for t in theta] + other
        # Hash joins need no sorted inputs; the residual is always
        # applied in-join (required for the outer and semi modes, free
        # otherwise).
        joined = self._run(
            hash_join, left, right,
            left_keys, right_keys, mode=mode, name="hash-join",
            null_safe=regimes,
            residual=self._residual_callable(
                make_and(residual_preds), left.schema + right.schema
            ),
        )
        self._log(_join_step("hash", mode, text) + " (build right, no sort)")
        return joined

    def _merge_theta(self, left, right, mode, theta, other) -> Relation:
        left_col, op, right_col, outer = theta[0]
        left_key = left.schema.index_of(left_col)
        right_key = right.schema.index_of(right_col)

        residual_preds = [self._theta_pred_expr(t) for t in theta[1:]] + other
        left = self._ensure_sorted(left, (left_key,))
        right = self._ensure_sorted(right, (right_key,))
        # merge_join's theta semantics are "right.key op left.key":
        # our normalized predicate is "left.col mirror-op right.col",
        # i.e. right.col op left.col, which is exactly that direction.
        joined = self._run(
            merge_join, left, right,
            [left_key], [right_key], op=op, mode=mode, name="theta-join",
            residual=self._residual_callable(
                make_and(residual_preds) if mode != "inner" else None,
                left.schema + right.schema,
            ),
        )
        self._log(
            _join_step(
                "theta merge", mode,
                f"{right_col.qualified()} {op} {left_col.qualified()}",
            )
        )
        if mode != "inner":
            return joined
        return self._filter(joined, make_and(residual_preds))

    def _residual_callable(self, predicate: Expr | None, schema: RowSchema):
        """Wrap a predicate as a combined-row callable for the joins.

        The returned callable carries ``expr``/``schema`` attributes so
        the hash join can recover the predicate, decompose it, and
        evaluate it as a batch kernel over candidate matches instead of
        one combined row at a time.
        """
        if predicate is None:
            return None
        self._log(f"join residual: {to_sql(predicate)}")

        from repro.engine.compile import compile_predicate

        compiled = compile_predicate(predicate, schema)

        def check(combined: tuple):
            return compiled(combined, None)

        check.expr = predicate
        check.schema = schema
        return check

    def _normalize_join_pred(
        self, conjunct: Expr, left_quals: set[str]
    ) -> tuple[ColumnRef, str, ColumnRef, str | None, bool] | None:
        """Normalize a column-op-column join predicate.

        Returns ``(left_col, op, right_col, outer, null_safe)`` where
        ``op`` is oriented as ``right_col op left_col`` for theta
        operators (the direction :func:`merge_join` expects) and
        ``outer`` preserves the marked side ("left" always means:
        preserve the accumulated left input).  Non-simple predicates
        return None (handled as residual filters).
        """
        if not isinstance(conjunct, Comparison):
            return None
        if not isinstance(conjunct.left, ColumnRef) or not isinstance(
            conjunct.right, ColumnRef
        ):
            return None
        a, b = conjunct.left, conjunct.right
        a_side = self._side_of(a, left_quals)
        b_side = self._side_of(b, left_quals)
        if a_side == b_side:
            return None

        outer = conjunct.outer
        if a_side == "left":
            # a op b with a on the left input: theta direction wants
            # "right op' left", so mirror the operator.
            op = MIRRORED_OPS[conjunct.op]
            preserved = self._outer_mode(outer, marked_side=a_side)
            return a, op, b, preserved, conjunct.null_safe
        op = conjunct.op
        preserved = self._outer_mode(outer, marked_side=b_side)
        return b, op, a, preserved, conjunct.null_safe

    def _side_of(self, ref: ColumnRef, left_quals: set[str]) -> str:
        return "left" if ref.table in left_quals else "right"

    def _outer_mode(self, outer: str | None, marked_side: str) -> str | None:
        """Translate the AST's outer marker to a join mode.

        ``Comparison.outer == "left"`` preserves the relation of the
        comparison's left *operand*.  The executor only supports
        preserving the accumulated (left input) side, which is how the
        transforms lay out their FROM clauses (TEMP1 first).
        """
        if outer is None:
            return None
        if outer == "full":
            raise PlanError("full outer join is not supported by this executor")
        # outer == "left" or "right": which operand's relation?
        if outer == "left" and marked_side == "left":
            return "left"
        if outer == "right" and marked_side == "right":
            return "left"
        raise PlanError(
            "outer join must preserve the left (accumulated) input; "
            "reorder the FROM clause"
        )

    def _any_outer(self, equi, theta) -> bool:
        return any(e[2] is not None for e in equi) or any(
            t[3] is not None for t in theta
        )

    def _theta_pred_expr(self, t) -> Expr:
        left_col, op, right_col, _ = t
        # Normalized as right op left; rebuild as an ordinary predicate.
        return Comparison(right_col, op, left_col)

    # -- residual, grouping, output -------------------------------------------

    def _apply_residual(self, select: Select, relation: Relation) -> Relation:
        residual: list[Expr] = []
        for index, conjunct in enumerate(conjuncts(select.where)):
            if index not in self._consumed:
                residual.append(conjunct)
                self._consumed.add(index)
        return self._filter(relation, make_and(residual))

    def _filter(self, relation: Relation, predicate: Expr | None) -> Relation:
        if predicate is None:
            return relation
        self._log(f"filter: {to_sql(predicate)}")
        return self._run(
            restrict_project, relation, predicate=predicate, name="filter"
        )

    def _grouped_output(self, select: Select, relation: Relation) -> Relation:
        """Aggregate into group columns ``G0..`` and aggregate slots
        ``A0..``, then run HAVING and the SELECT items — rewritten by
        :meth:`_over_groups` — as one restriction + projection over the
        grouped stream.  An aggregate argument that is an expression is
        computed first, as a column after the input's."""
        schema = relation.schema
        group_positions = []
        for expr in select.group_by:
            if not isinstance(expr, ColumnRef):
                raise PlanError("GROUP BY supports column references only")
            group_positions.append(schema.index_of(expr))

        specs: list[AggSpec] = []
        arguments: list[Expr] = []
        over = partial(self._over_groups, schema, group_positions, specs, arguments)
        items = [over(item.expr) for item in select.items]
        having = None if select.having is None else over(select.having)
        if arguments:
            self._log(
                "compute aggregate arguments "
                + ", ".join(to_sql(argument) for argument in arguments)
            )
            relation = self._run(
                restrict_project, relation,
                projections=[(ColumnRef(*field), *field) for field in schema.fields]
                + [(argument, None, f"X{i}") for i, argument in enumerate(arguments)],
                name="arguments",
            )

        aggregate_op = group_aggregate
        names = schema.qualified_names()
        if group_positions and not group_order(relation.order, group_positions)[0]:
            if self.config.join_method == "hash":
                aggregate_op = hash_group_aggregate
                self._log("hash GROUP BY (no sort)")
            else:
                self._log(
                    "sort for GROUP BY on "
                    + describe_order((tuple(group_positions), False), names)
                )
                relation = self._run(
                    external_sort, relation, group_positions, self.buffer,
                    name="group-sort",
                )
        elif group_positions:
            self._log(
                "GROUP BY input already ordered on "
                + describe_order(relation.order, names)
                + " (no sort)"
            )

        grouped = self._run(
            aggregate_op, relation, group_positions, specs,
            [(None, f"G{i}") for i in range(len(group_positions))]
            + [(None, f"A{i}") for i in range(len(specs))],
            name="group", always_emit=not group_positions,
        )
        if having is not None:
            self._log(f"HAVING filter: {to_sql(having)}")
        return self._run(
            restrict_project, grouped, predicate=having,
            projections=[
                (item, None, name)
                for item, name in zip(items, output_names(select))
            ],
            name="result",
        )

    @staticmethod
    def _over_groups(
        schema: RowSchema,
        group_positions: list[int],
        specs: list[AggSpec],
        arguments: list[Expr],
        expr: Expr,
    ) -> Expr:
        """A SELECT item or the HAVING predicate of a grouped block,
        rewritten over the grouped output: an aggregate call becomes
        its slot ``A<i>`` (one slot per distinct call, its spec
        appended to ``specs``), a grouped column its ``G<i>``; a column
        outside an aggregate must be grouped.  An argument that is an
        expression is appended to ``arguments`` and read as column
        ``len(schema) + i``."""

        def rewrite(node: Expr) -> Expr:
            if isinstance(node, FuncCall) and node.is_aggregate:
                if isinstance(node.arg, Star):
                    column: int | None = None
                elif isinstance(node.arg, ColumnRef):
                    column = schema.index_of(node.arg)
                else:
                    if node.arg not in arguments:
                        arguments.append(node.arg)
                    column = len(schema) + arguments.index(node.arg)
                spec = AggSpec(node.name, column, node.distinct)
                if spec not in specs:
                    specs.append(spec)
                return ColumnRef(None, f"A{specs.index(spec)}")
            if isinstance(node, ColumnRef):
                position = schema.index_of(node)
                if position not in group_positions:
                    raise PlanError(
                        f"non-aggregated column {node.qualified()} "
                        "must appear in GROUP BY"
                    )
                return ColumnRef(None, f"G{group_positions.index(position)}")
            if isinstance(node, Star):
                raise PlanError("SELECT * is not supported in a grouped block")
            return map_children(node, rewrite)

        return rewrite(expr)

    def _plain_output(self, select: Select, relation: Relation) -> Relation:
        names = output_names(select)
        projections = []
        for item, name in zip(select.items, names):
            if isinstance(item.expr, Star):
                raise PlanError("SELECT * is not supported in canonical queries")
            projections.append((item.expr, None, name))
        result = self._run(
            restrict_project, relation, projections=projections, name="result"
        )
        self._log(
            "project " + ", ".join(to_sql(item.expr) for item in select.items)
        )
        return result

    def _order_output(self, select: Select, result: Relation) -> Relation:
        positions, descending = order_positions(select)
        ordered = self._run(
            external_sort, result, positions, self.buffer, name="ordered"
        )
        if descending:
            ordered = Relation.from_rows(
                ordered.schema, list(ordered)[::-1], name="ordered-desc"
            )
            self._log("reverse for ORDER BY DESC")
        return ordered

    # -- misc ------------------------------------------------------------------

    def _ensure_sorted(self, relation: Relation, keys: tuple[int, ...]) -> Relation:
        """``relation`` in ``keys`` order, sorted only when it must be.

        An order covers the keys when it starts with them, or is a key
        of the relation and the keys start with it (no two rows tie on
        it).  The one sort section 7.3 does charge — Ri, an unrestricted
        base table — is shared when there is a registry to hold it.
        """
        names = relation.schema.qualified_names()
        columns, unique = relation.order
        if columns[: len(keys)] == keys or (
            unique and keys[: len(columns)] == columns
        ):
            self._log(
                f"{relation.name} already ordered on "
                f"{describe_order(relation.order, names)} (no sort)"
            )
            return relation
        sort = partial(
            self._run, external_sort, relation, list(keys), self.buffer,
            name="sorted",
        )
        # Base-table heaps are the versioned ones.
        if (
            self.sorted_runs is not None
            and relation.heap is not None
            and relation.heap.versioned
        ):
            run, how = self.sorted_runs(relation, keys, sort)
        else:
            run, how = sort(), None
        self._log(
            (f"{how} sorted " if how else "sort ")
            + f"{relation.name} on {describe_order((keys, False), names)}"
        )
        return run

    def _log(self, message: str) -> None:
        self.steps.append(message)
