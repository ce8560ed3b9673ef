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

A block is planned once (:func:`plan_block`: all that depends only on
the block and its inputs' column lists), which is also where its rules
are checked — the plan verifier reports what planning raises.
:meth:`SingleLevelExecutor.execute` runs a planned block and decides
only what depends on what the inputs hold: merge-key order, whether to
sort, shared sorted runs, sorted vs hash GROUP BY.

Design points lifted straight from the paper:

* **Single-relation predicates are applied before any join** — section
  5.2 shows the outer join produces wrong COUNTs otherwise ("the
  condition which applies to only one relation must be applied before
  the join is performed").
* **The outer join preserves the accumulated input** (TEMP1, sections
  5.2 and 6.1); an outer comparison that does not, or cannot be a join
  predicate, does not plan.
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

from collections.abc import Callable, Iterable
from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, NamedTuple, NoReturn, TypeVar

from repro.analysis.diagnostics import BIND_RULES, Diagnostic, Findings
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
from repro.errors import ColumnVerificationError, PlanError, VerificationError
from repro.sql.ast import (
    MIRRORED_OPS,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    OrderItem,
    Select,
    SelectItem,
    Star,
    column_refs,
    conjuncts,
    make_and,
    map_children,
    walk,
)
from repro.sql.output import ColumnLister, order_positions, output_names
from repro.sql.printer import to_sql

if TYPE_CHECKING:
    from repro.core.transform import TempTableDef


T = TypeVar("T")

#: A projection: ``(expression, qualifier, name)`` per output column.
Projections = tuple[tuple[Expr, str | None, str], ...]


# ---------------------------------------------------------------------------
# The logical plan of one block
# ---------------------------------------------------------------------------


class Key(NamedTuple):
    """An equality conjunct: one column of a composite join key."""

    left: int  # position in the accumulated input
    right: int  # position in the joined table
    null_safe: bool
    outer: bool
    text: str  # "L.A = R.B"


class Theta(NamedTuple):
    """A non-equality column comparison, oriented ``right op left`` —
    the direction :func:`merge_join` reads a theta key in."""

    left: int
    op: str
    right: int
    outer: bool
    text: str  # "R.B op L.A"


@dataclass(frozen=True)
class Scan:
    """One FROM table and the conjuncts that read it alone."""

    name: str
    binding: str
    restrict: Expr | None
    #: Projection pushdown: the columns the rest of the block reads, or
    #: None to keep them all.
    projections: Projections | None
    text: str | None  # the step text of the restriction


@dataclass(frozen=True)
class Join:
    """How the accumulated input joins the next FROM table."""

    mode: str  # "inner" | "left" | "semi"
    keys: tuple[Key, ...]
    theta: tuple[Theta, ...]
    #: With keys: every theta and other conjunct of the join; without:
    #: every one but ``theta[0]``, the theta merge's key.
    residual: Expr | None
    residual_sql: str | None
    #: Every conjunct of the join, as a nested-loop join reads it, and
    #: its text ("cross" for none).
    predicate: Expr | None
    predicate_sql: str


@dataclass(frozen=True)
class Grouping:
    """A grouped output: group columns ``G0..`` and aggregate slots
    ``A0..`` over the joined input, then HAVING and the SELECT items
    rewritten over them."""

    positions: tuple[int, ...]
    specs: tuple[AggSpec, ...]
    #: The input with each aggregate argument that is an expression
    #: computed after its columns, and the step text; None: no such.
    arguments: Projections | None
    arguments_text: str | None
    #: The input's qualified column names, for the sort's step text.
    names: tuple[str, ...]
    slots: tuple[tuple[None, str], ...]
    having: Expr | None
    having_text: str | None


@dataclass(frozen=True)
class BlockPlan:
    """What :func:`plan_block` derives of one single-level block: all
    :meth:`SingleLevelExecutor.execute` runs, with no AST left to read."""

    select: Select
    columns: tuple[str, ...]  # output names
    scans: tuple[Scan, ...]
    joins: tuple[Join, ...]  # one per FROM table after the first
    residual: Expr | None
    residual_sql: str | None
    grouping: Grouping | None
    output: Projections
    output_text: str | None  # a plain block's projection step text
    distinct: bool
    #: ORDER BY output positions and whether descending; None: no ORDER BY.
    order: tuple[list[int], bool] | None


def _refuse(rule: str, message: str, subject: str) -> NoReturn:
    """Raise one finding as the block's planning failure."""
    error = ColumnVerificationError if rule in BIND_RULES else VerificationError
    raise error(
        f"cannot plan block: [{rule}] {message}",
        (Diagnostic(rule, message, subject=subject),),
    )


def plan_block(select: Select, columns_of: ColumnLister) -> BlockPlan:
    """The logical plan of single-level block ``select``, whose FROM
    tables have the columns ``columns_of`` lists (None: a table it does
    not know).

    The one place a block's rules are checked.  The first thing wrong
    raises with its rule id: ``ColumnVerificationError`` (a
    ``BindError``) for names — PV001–PV003, all of the block's at once —
    and ``VerificationError`` (a ``PlanError``) for an unknown table
    (PV004), a nested block (PV010), a semi table's scope (PV012), an
    outer join's shape (PV006, PV009), a grouped output (PV008) or the
    ORDER BY (PV011).
    """
    tables = select.from_tables
    if not tables:
        _refuse("PV004", "query has no FROM clause", to_sql(select))
    schemas: dict[str, RowSchema] = {}
    for ref in tables:
        table_columns = columns_of(ref.name)
        if table_columns is None:
            _refuse(
                "PV004", f"unknown table {ref.name!r} in FROM clause", to_sql(select)
            )
        schemas[ref.binding] = RowSchema.for_table(ref.binding, table_columns)
    columns = tuple(output_names(select))
    _check_names(select, schemas, columns)
    _check_semi_scope(select)

    where = conjuncts(select.where)
    used = [{ref.table for ref in column_refs(conjunct)} for conjunct in where]
    _check_outer_marks(where)
    # What the block reads after the per-table restrictions, which keep
    # only these columns (ORDER BY names output columns).
    read_later = {
        (ref.table, ref.column)
        for expr in (
            *(item.expr for item in select.items),
            *select.group_by,
            *([select.having] if select.having is not None else []),
            *(c for c, bindings in zip(where, used) if len(bindings) != 1),
        )
        for ref in column_refs(expr)
    }
    consumed = [False] * len(where)

    def take(index: int) -> Expr:
        consumed[index] = True
        return where[index]

    scans: list[Scan] = []
    inputs: list[RowSchema] = []
    for ref in tables:
        schema = schemas[ref.binding]
        restrict = make_and(
            [
                take(i)
                for i, bindings in enumerate(used)
                if not consumed[i] and bindings and bindings <= {ref.binding}
            ]
        )
        projections = None
        if restrict is not None:
            kept = [field for field in schema.fields if field in read_later]
            if len(kept) != len(schema):
                projections = tuple(
                    (ColumnRef(binding, column), binding, column)
                    for binding, column in kept
                )
                schema = RowSchema(kept)
        scans.append(
            Scan(
                ref.name, ref.binding, restrict, projections,
                None if restrict is None
                else f"restrict {ref.binding}: {to_sql(restrict)}",
            )
        )
        inputs.append(schema)

    joined = inputs[0]
    joins: list[Join] = []
    for ref, right in zip(tables[1:], inputs[1:]):
        both = joined.qualifiers | right.qualifiers
        mine = [
            take(i)
            for i, bindings in enumerate(used)
            if not consumed[i]
            and bindings
            and bindings <= both
            and bindings & joined.qualifiers
            and bindings & right.qualifiers
        ]
        join = _plan_join(mine, joined, right)
        if ref.semi:
            stray = [
                to_sql(where[i])
                for i, bindings in enumerate(used)
                if not consumed[i] and bindings & right.qualifiers
            ]
            if stray or join.mode == "left":
                _refuse(
                    "PV012",
                    f"semi table {ref.binding} must be joined by every "
                    "conjunct that reads it, none of them an outer join: "
                    + "; ".join(stray or ["outer-join marker"]),
                    to_sql(select),
                )
            join = replace(join, mode="semi")
        else:
            joined = joined + right
        joins.append(join)

    residual = make_and([take(i) for i in range(len(where)) if not consumed[i]])
    grouping = None
    output_text = None
    if select.group_by or select.has_aggregate_select():
        grouping, output = _plan_grouping(select, joined, columns)
    else:
        output = tuple(
            (item.expr, None, name) for item, name in zip(select.items, columns)
        )
        output_text = "project " + ", ".join(to_sql(item.expr) for item in select.items)
    order = None
    if select.order_by:
        try:
            order = order_positions(select)
        except PlanError as error:
            _refuse("PV011", str(error), to_sql(select))
    return BlockPlan(
        select=select,
        columns=columns,
        scans=tuple(scans),
        joins=tuple(joins),
        residual=residual,
        residual_sql=None if residual is None else to_sql(residual),
        grouping=grouping,
        output=output,
        output_text=output_text,
        distinct=select.distinct,
        order=order,
    )


def plan_chain(
    links: Iterable[TempTableDef], final: Select, columns_of: ColumnLister
) -> tuple[BlockPlan, ...]:
    """Each link's block planned over ``columns_of`` and the links
    before it (a link's columns are its block's output names), then
    ``final``'s: the blocks a chain's replay runs, in build order."""
    built: dict[str, tuple[str, ...]] = {}

    def inputs(name: str):
        return built[name] if name in built else columns_of(name)

    blocks = []
    for link in links:
        blocks.append(plan_block(link.query, inputs))
        built[link.name] = blocks[-1].columns
    blocks.append(plan_block(final, inputs))
    return tuple(blocks)


def _check_names(
    select: Select, schemas: dict[str, RowSchema], outputs: tuple[str, ...]
) -> None:
    """PV010 for a nested block; PV001–PV003 for every reference that
    does not name a column of its binding, all raised as one error.  An
    unqualified ORDER BY name of an output column names that column."""
    columns = {binding: set(schema.column_names()) for binding, schema in schemas.items()}
    findings = Findings()

    def report(rule: str, message: str) -> None:
        findings.add(Diagnostic(rule, message, subject=to_sql(select)))

    exempt: set[int] = set()
    for node in walk(select):
        if isinstance(node, Select) and node is not select:
            _refuse(
                "PV010",
                "a single-level block still contains a nested query block",
                to_sql(node),
            )
        if isinstance(node, SelectItem) and isinstance(node.expr, Star):
            report("PV003", "SELECT * is not expanded in a single-level block")
        elif isinstance(node, OrderItem):
            ref = node.expr
            if isinstance(ref, ColumnRef) and ref.table is None and ref.column in outputs:
                exempt.add(id(ref))
        elif isinstance(node, ColumnRef) and id(node) not in exempt:
            if node.table is not None:
                if node.column not in columns.get(node.table, ()):
                    report("PV001", f"cannot resolve column {node.qualified()}")
                continue
            owners = sorted(b for b, names in columns.items() if node.column in names)
            if len(owners) > 1:
                report(
                    "PV002",
                    f"ambiguous column {node.column!r} (candidates: {owners})",
                )
            elif owners:
                report(
                    "PV003",
                    f"column {node.column!r} is unqualified after the "
                    "qualification pass",
                )
            else:
                report("PV001", f"cannot resolve column {node.qualified()}")
    findings.raise_errors("cannot plan block")


def _check_semi_scope(select: Select) -> None:
    """PV012: a semi table restricts the tables before it, and its
    columns are visible to WHERE only — a semi-join puts out none of
    them."""
    semi = {ref.binding for ref in select.from_tables if ref.semi}
    if not semi:
        return
    if select.from_tables[0].semi:
        _refuse(
            "PV012",
            f"semi table {select.from_tables[0].binding} has no table "
            "before it to restrict",
            to_sql(select),
        )
    outside = [item.expr for item in select.items] + [*select.group_by]
    outside += [item.expr for item in select.order_by]
    if select.having is not None:
        outside.append(select.having)
    for ref in (r for clause in outside for r in column_refs(clause)):
        if ref.table in semi:
            _refuse(
                "PV012",
                f"column {ref.qualified()} of a semi-joined table is read "
                "outside WHERE",
                to_sql(select),
            )


def _check_outer_marks(where: list[Expr]) -> None:
    """PV006 for a full outer comparison; PV009 for an outer marker on
    anything but a conjunct comparing columns of two tables — it would
    silently degrade to a plain filter."""
    for conjunct in where:
        for node in walk(conjunct, into_subqueries=False):
            if not isinstance(node, Comparison) or node.outer is None:
                continue
            if node.outer == "full":
                _refuse(
                    "PV006",
                    "full outer join is not supported by the executor",
                    to_sql(node),
                )
            if (
                node is not conjunct
                or not isinstance(node.left, ColumnRef)
                or not isinstance(node.right, ColumnRef)
                or node.left.table == node.right.table
            ):
                _refuse(
                    "PV009",
                    "outer-join marker on a predicate that cannot act as the "
                    "join predicate of two relations (it would silently "
                    "degrade to a plain filter)",
                    to_sql(node),
                )


def _plan_join(mine: list[Expr], left: RowSchema, right: RowSchema) -> Join:
    """The join of ``left`` (the accumulated input) with ``right`` on
    the conjuncts ``mine`` that read both: a comparison of a column of
    each is a key (``=``) or a theta conjunct, anything else a residual.
    An outer comparison must preserve ``left`` (PV006)."""
    keys: list[Key] = []
    theta: list[Theta] = []
    equalities: list[Expr] = []
    thetas: list[Expr] = []
    other: list[Expr] = []
    for conjunct in mine:
        if not (
            isinstance(conjunct, Comparison)
            and isinstance(conjunct.left, ColumnRef)
            and isinstance(conjunct.right, ColumnRef)
        ):
            other.append(conjunct)
            continue
        a, b = conjunct.left, conjunct.right
        outer = conjunct.outer is not None
        if outer:
            preserved, padded = (a, b) if conjunct.outer == "left" else (b, a)
            if preserved.table not in left.qualifiers:
                _refuse(
                    "PV006",
                    "outer join must preserve the accumulated left input, "
                    f"but {preserved.table!r} is joined after "
                    f"{padded.table!r}; reorder the FROM clause",
                    to_sql(conjunct),
                )
        # Oriented "right op left": mirror the operator when ``a`` is on
        # the left input.
        if a.table in left.qualifiers:
            lcol, op, rcol = a, MIRRORED_OPS[conjunct.op], b
        else:
            lcol, op, rcol = b, conjunct.op, a
        if op == "=":
            null_safe = conjunct.null_safe
            keys.append(
                Key(
                    left.index_of(lcol), right.index_of(rcol), null_safe, outer,
                    f"{lcol.qualified()} {'<=>' if null_safe else '='} "
                    f"{rcol.qualified()}",
                )
            )
            equalities.append(Comparison(lcol, "=", rcol, null_safe=null_safe))
        else:
            theta.append(
                Theta(
                    left.index_of(lcol), op, right.index_of(rcol), outer,
                    f"{rcol.qualified()} {op} {lcol.qualified()}",
                )
            )
            thetas.append(Comparison(rcol, op, lcol))

    residual = make_and((thetas if keys else thetas[1:]) + other)
    predicate = make_and(equalities + thetas + other)
    return Join(
        mode="left" if any(k.outer for k in keys) or any(t.outer for t in theta)
        else "inner",
        keys=tuple(keys),
        theta=tuple(theta),
        residual=residual,
        residual_sql=None if residual is None else to_sql(residual),
        predicate=predicate,
        predicate_sql="cross" if predicate is None else to_sql(predicate),
    )


def _plan_grouping(
    select: Select, schema: RowSchema, columns: tuple[str, ...]
) -> tuple[Grouping, Projections]:
    """Aggregate into group columns ``G0..`` and aggregate slots
    ``A0..``, then run HAVING and the SELECT items — rewritten by
    :func:`_over_groups` — as one restriction + projection over the
    grouped stream.  An aggregate argument that is an expression is
    computed first, as a column after the input's."""
    positions = []
    for expr in select.group_by:
        if not isinstance(expr, ColumnRef):
            _refuse("PV008", "GROUP BY supports column references only", to_sql(select))
        positions.append(schema.index_of(expr))

    specs: list[AggSpec] = []
    arguments: list[Expr] = []
    over = partial(_over_groups, select, schema, positions, specs, arguments)
    items = [over(item.expr) for item in select.items]
    having = None if select.having is None else over(select.having)
    computed = text = None
    if arguments:
        computed = tuple(
            [(ColumnRef(*field), *field) for field in schema.fields]
            + [(argument, None, f"X{i}") for i, argument in enumerate(arguments)]
        )
        text = "compute aggregate arguments " + ", ".join(map(to_sql, arguments))
    return Grouping(
        positions=tuple(positions),
        specs=tuple(specs),
        arguments=computed,
        arguments_text=text,
        names=tuple(schema.qualified_names()),
        slots=tuple(
            [(None, f"G{i}") for i in range(len(positions))]
            + [(None, f"A{i}") for i in range(len(specs))]
        ),
        having=having,
        having_text=None if having is None else f"HAVING filter: {to_sql(having)}",
    ), tuple((item, None, name) for item, name in zip(items, columns))


def _over_groups(
    select: Select,
    schema: RowSchema,
    group_positions: list[int],
    specs: list[AggSpec],
    arguments: list[Expr],
    expr: Expr,
) -> Expr:
    """A SELECT item or the HAVING predicate of a grouped block,
    rewritten over the grouped output: an aggregate call becomes its
    slot ``A<i>`` (one slot per distinct call, its spec appended to
    ``specs``), a grouped column its ``G<i>``; a column outside an
    aggregate must be grouped (PV008).  An argument that is an
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
                _refuse(
                    "PV008",
                    f"non-aggregated column {node.qualified()} must appear in "
                    "GROUP BY",
                    to_sql(select),
                )
            return ColumnRef(None, f"G{group_positions.index(position)}")
        return map_children(node, rewrite)

    return rewrite(expr)


# ---------------------------------------------------------------------------
# Running a planned block
# ---------------------------------------------------------------------------


def _join_step(method: str, mode: str, on: str) -> str:
    """A join's step text: ``merge semi-join on ...``."""
    return (
        f"{method} {'semi-join' if mode == 'semi' else 'join'} on {on}"
        + (" (left outer)" if mode == "left" else "")
    )


class SingleLevelExecutor:
    """Executes planned single-level blocks over the storage engine.

    It checks nothing: a block's rules are checked when it is planned
    (:func:`plan_block`), once per plan.
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

    def execute(
        self, block: BlockPlan | Select, consume: Callable[[Relation], T]
    ) -> T:
        """Run a single-level block and hand its output to ``consume``.

        ``block`` is planned (:func:`plan_block`); a bare ``Select`` is
        planned here, over this executor's catalog.  The block's
        operators stream into ``consume``, which reads the output once,
        inside this call: :meth:`materialize` stores it as a temp, a
        chain's final block collects its rows (:meth:`Relation.to_list`)
        and writes nothing.  Every heap written on the way (a sort's
        output, a nested-loop inner) is this call's scratch and is freed
        once ``consume`` returns — on the error path too — unless
        ``consume`` gave it an owner.  Returns what ``consume`` returns.
        """
        block = self._planned(block)
        self.steps = []
        self._scratch: list[Relation] = []
        try:
            return consume(self._execute_block(block))
        finally:
            for relation in self._scratch:
                relation.drop()

    def materialize(self, name: str, block: BlockPlan | Select) -> str:
        """Build one temp-table definition and register it as ``name``.

        The one place a transform temp (``Rt``, ``TEMP1..3``, a staging
        temp) comes into being, and the one place a block's result is
        written: the replay loop and the batched chain both call it.
        The catalog this executor reads from owns the heap from here
        on.  Returns the step text.
        """
        block = self._planned(block)

        def register(output: Relation) -> None:
            relation = self._stored(output)
            self.catalog.register_temp(
                name, relation.heap, block.columns, relation.order
            )
            self._scratch.remove(relation)  # the catalog owns it now

        self.execute(block, register)
        return f"built {name}: " + "; ".join(self.steps)

    def _planned(self, block: BlockPlan | Select) -> BlockPlan:
        if isinstance(block, Select):
            return plan_block(block, self.catalog.column_names)
        return block

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

    def _execute_block(self, block: BlockPlan) -> Relation:
        relations = []
        for scan in block.scans:
            relation = scan_table(self.catalog.get(scan.name), binding=scan.binding)
            if scan.restrict is not None:
                relation = self._run(
                    restrict_project, relation, predicate=scan.restrict,
                    projections=scan.projections, name=f"restrict({scan.binding})",
                )
                self._log(scan.text)
            relations.append(relation)
        joined = relations[0]
        for join, relation in zip(block.joins, relations[1:]):
            joined = self._join(join, joined, relation)
        joined = self._filter(joined, block.residual, block.residual_sql)

        if block.grouping is not None:
            result = self._grouped_output(block, joined)
        else:
            result = self._run(
                restrict_project, joined, projections=block.output, name="result"
            )
            self._log(block.output_text)

        if block.distinct:
            if self.config.join_method == "hash":
                result = self._run(hash_distinct, result, name="distinct")
                self._log("hash dedup for DISTINCT (no sort)")
            else:
                result = self._run(
                    external_sort, result, list(range(len(result.schema))),
                    self.buffer, unique=True, name="distinct",
                )
                self._log("sort-unique for DISTINCT")
        if block.order is not None:
            result = self._order_output(block.order, result)
        return result

    # -- pairwise joins --------------------------------------------------------

    def _join(self, join: Join, left: Relation, right: Relation) -> Relation:
        """Join the accumulated ``left`` with the next FROM table."""
        if self.config.join_method == "nested":
            self._log(
                f"nested-loop {'semi-join' if join.mode == 'semi' else 'join'} "
                f"({join.predicate_sql})"
            )
            return self._run(
                nested_loop_join, left, self._stored(right),
                predicate=join.predicate, mode=join.mode, name="nl-join",
            )
        if join.keys:
            if self.config.join_method == "hash":
                return self._hash_equi(join, left, right)
            return self._merge_equi(join, left, right)
        if join.theta:
            # No equi keys to hash on: the hash method falls back to the
            # sorted theta merge join.
            return self._merge_theta(join, left, right)

        # No join predicate: cross product by nested loops.
        self._log("cross product (no join predicate)")
        return self._run(
            nested_loop_join, left, self._stored(right),
            predicate=join.residual, mode=join.mode, name="cross",
        )

    @staticmethod
    def _aligned(keys: tuple[Key, ...], left: Relation, right: Relation) -> list[Key]:
        """Order the key columns to extend an order an input already
        has (any column order is a correct merge key): the longest run
        of an input's order the predicates cover, ties to the right
        input — section 7.3's "Rt is already in join-column order"."""

        def covered(relation: Relation, side: int) -> list[Key]:
            by_column = {key[side]: key for key in keys}
            run = []
            for column in relation.order[0]:
                if column not in by_column:
                    break
                run.append(by_column.pop(column))
            return run

        first = max(covered(right, 1), covered(left, 0), key=len)
        return first + [key for key in keys if key not in first]

    def _merge_equi(self, join: Join, left: Relation, right: Relation) -> Relation:
        keys = self._aligned(join.keys, left, right)
        left_keys = [key.left for key in keys]
        right_keys = [key.right for key in keys]
        left = self._ensure_sorted(left, tuple(left_keys))
        right = self._ensure_sorted(right, tuple(right_keys))
        joined = self._run(
            merge_join, left, right,
            left_keys, right_keys, op="=", mode=join.mode, name="merge-join",
            null_safe=[key.null_safe for key in keys],
            # Inside an outer or semi join; after an inner one.
            residual=None if join.mode == "inner"
            else self._residual_callable(join, left, right),
        )
        self._log(_join_step("merge", join.mode, ", ".join(key.text for key in keys)))
        if join.mode != "inner":
            return joined  # residual already applied inside the join
        return self._filter(joined, join.residual, join.residual_sql)

    def _hash_equi(self, join: Join, left: Relation, right: Relation) -> Relation:
        # Hash joins need no sorted inputs; the residual is always
        # applied in-join (required for the outer and semi modes, free
        # otherwise).
        joined = self._run(
            hash_join, left, right,
            [key.left for key in join.keys], [key.right for key in join.keys],
            mode=join.mode, name="hash-join",
            null_safe=[key.null_safe for key in join.keys],
            residual=self._residual_callable(join, left, right),
        )
        self._log(
            _join_step("hash", join.mode, ", ".join(key.text for key in join.keys))
            + " (build right, no sort)"
        )
        return joined

    def _merge_theta(self, join: Join, left: Relation, right: Relation) -> Relation:
        key = join.theta[0]
        left = self._ensure_sorted(left, (key.left,))
        right = self._ensure_sorted(right, (key.right,))
        # merge_join's theta semantics are "right.key op left.key", the
        # direction the key is planned in.
        joined = self._run(
            merge_join, left, right,
            [key.left], [key.right], op=key.op, mode=join.mode, name="theta-join",
            residual=None if join.mode == "inner"
            else self._residual_callable(join, left, right),
        )
        self._log(_join_step("theta merge", join.mode, key.text))
        if join.mode != "inner":
            return joined
        return self._filter(joined, join.residual, join.residual_sql)

    def _residual_callable(self, join: Join, left: Relation, right: Relation):
        """Wrap the join's residual as a combined-row callable.

        The returned callable carries ``expr``/``schema`` attributes so
        the hash join can recover the predicate, decompose it, and
        evaluate it as a batch kernel over candidate matches instead of
        one combined row at a time.
        """
        if join.residual is None:
            return None
        self._log(f"join residual: {join.residual_sql}")

        from repro.engine.compile import compile_predicate

        schema = left.schema + right.schema
        compiled = compile_predicate(join.residual, schema)

        def check(combined: tuple):
            return compiled(combined, None)

        check.expr = join.residual
        check.schema = schema
        return check

    # -- residual, grouping, output -------------------------------------------

    def _filter(
        self, relation: Relation, predicate: Expr | None, text: str | None
    ) -> Relation:
        if predicate is None:
            return relation
        self._log(f"filter: {text}")
        return self._run(
            restrict_project, relation, predicate=predicate, name="filter"
        )

    def _grouped_output(self, block: BlockPlan, relation: Relation) -> Relation:
        grouping = block.grouping
        positions = grouping.positions
        if grouping.arguments is not None:
            self._log(grouping.arguments_text)
            relation = self._run(
                restrict_project, relation, projections=grouping.arguments,
                name="arguments",
            )

        aggregate_op = group_aggregate
        if positions and not group_order(relation.order, positions)[0]:
            if self.config.join_method == "hash":
                aggregate_op = hash_group_aggregate
                self._log("hash GROUP BY (no sort)")
            else:
                self._log(
                    "sort for GROUP BY on "
                    + describe_order((positions, False), grouping.names)
                )
                relation = self._run(
                    external_sort, relation, positions, self.buffer,
                    name="group-sort",
                )
        elif positions:
            self._log(
                "GROUP BY input already ordered on "
                + describe_order(relation.order, grouping.names)
                + " (no sort)"
            )

        grouped = self._run(
            aggregate_op, relation, positions, grouping.specs, grouping.slots,
            name="group", always_emit=not positions,
        )
        if grouping.having is not None:
            self._log(grouping.having_text)
        return self._run(
            restrict_project, grouped, predicate=grouping.having,
            projections=block.output, name="result",
        )

    def _order_output(self, order: tuple[list[int], bool], result: Relation) -> Relation:
        positions, descending = order
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
