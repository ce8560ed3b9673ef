"""Building and replaying plans: the one statement path.

:func:`build_plan` is the only code that runs qualify/rewrite → NEST-G
→ verify + lint, and :meth:`CachedPlan.replay` is
the only code that installs a temp chain, runs the final block, drains
it, builds the :class:`~repro.core.pipeline.RunReport` and sweeps.
``Engine.run`` plans and replays once in one session and drops the
plan; ``Engine.run_cached`` and prepared statements keep it — in the
:class:`~repro.serve.cache.PlanCache`, the only object that holds a
plan across calls.

A :class:`CachedPlan` records everything the pipeline produces up to —
but not including — the data access of its temp chain: the ordered
temp-table definitions, the final single-level query, the verifier's
clean bill of health (so replay runs its blocks with ``verify=False``),
and the parameter contracts.  It is valid at the schema version it was
built under, and — when planning itself read data (NEST-A folds a
type-A block's value into the plan) — only while the tables the folded
blocks read keep the row counts they had then.

Two plan kinds exist: ``transform`` (the paper's unnested pipeline) and
``nested_iteration`` (the baseline, and the ``method="auto"`` answer to
queries outside the algorithms' reach).  Both are safe to execute from
many threads at once: all mutable state lives in the session overlay,
the registry's leases, or the parameter context variable.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

from repro.analysis.diagnostics import Findings
from repro.analysis.verifier import output_names
from repro.catalog.catalog import Catalog
from repro.config import ExecConfig
from repro.core.nest_g import nest_g
from repro.core.pipeline import RunReport, prepare_query, verify_plan
from repro.core.transform import TempTableDef
from repro.engine.aggregate import NotCombinable
from repro.engine.nested_iteration import NestedIterationExecutor, QueryResult
from repro.engine.relation import Relation, describe_order
from repro.engine.schema import RowSchema
from repro.engine.sort import column_order
from repro.errors import ParameterizedPlanError, ReproError, TransformError
from repro.optimizer.executor import SingleLevelExecutor
from repro.optimizer.planner import Planner
from repro.serve.binding import ParamSpec, check_binding, derive_param_specs
from repro.serve.normalize import user_param_count
from repro.serve.session import SessionCatalog
from repro.serve.sharing import (
    Horizons,
    SharedEntry,
    SharedSubplanRegistry,
    ShareSpec,
    compute_share_specs,
    delta_query,
    merge_delta,
    row_combiner,
)
from repro.sql.ast import Select
from repro.sql.printer import to_sql
from repro.storage.visibility import SnapshotLike, active_snapshot
from repro.txn.mvcc import TransactionSnapshot

#: The evaluation methods a statement can ask for (see core.pipeline).
METHODS = ("transform", "auto", "nested_iteration", "cost")


class StalePlan(Exception):
    """The plan is no longer valid under the snapshot its replay pinned:
    a commit into a table it folded landed after it was resolved."""


@dataclass
class CachedPlan:
    """A transformed, verified, replayable plan."""

    fingerprint: str
    #: catalog.schema_version when the plan was built; any other schema
    #: version invalidates it (DDL or stats changed).
    catalog_version: int
    #: catalog.data_version when the plan was built: a hit at another
    #: data version is counted as a "snapshot-pin hit" (the plan
    #: outlived an insert).
    data_version: int
    kind: str  # "transform" | "nested_iteration"
    #: The statement as given: what a nested-iteration plan evaluates.
    select: Select
    param_specs: list[ParamSpec]
    #: The configuration the plan was built under and runs under — the
    #: engine's, with the join method this plan really runs (the
    #: planner's pick under ``method="cost"``).  Also the part of every
    #: sharing key that says which settings shaped a temp's contents.
    config: ExecConfig
    #: Planning read data: NEST-A evaluated a type-A block and folded
    #: its value in — table -> the committed row count it was read at
    #: (None: a transaction's own writes were read too).  Replays
    #: re-read the base tables under a pinned snapshot, so a plan
    #: survives inserts into every other table; an insert into one of
    #: these makes it stale.
    fold_horizons: dict[str, int | None] = field(default_factory=dict)
    #: The temp chain in build order (NEST-G's definitions) and the
    #: canonical single-level query over it.
    setup: Sequence[TempTableDef] = ()
    final_query: Select | None = None
    columns: list[str] = field(default_factory=list)
    canonical_sql: str | None = None
    setup_sql: list[str] = field(default_factory=list)
    #: Cost-based choice, transformation trace, verifier outcome.
    trace: list[str] = field(default_factory=list)
    #: The plan cache's SharedSubplanRegistry, or None when the engine
    #: serves no plan cache: then every replay rebuilds its temps and
    #: frees them at the end, as an ad-hoc replay does with one.
    registry: SharedSubplanRegistry | None = field(
        default=None, repr=False, compare=False
    )
    #: Per-definition structural fingerprints + parameter slots (see
    #: :mod:`repro.serve.sharing`); computed by the first replay that
    #: shares, so a plan only ever replayed privately never pays for it.
    share_specs: tuple[ShareSpec, ...] = ()
    #: What the verifier found at plan time (None: not verified, or a
    #: nested-iteration plan).
    findings: Findings | None = field(default=None, repr=False, compare=False)
    #: Temp name -> the order its definition delivered, as the replays
    #: so far saw it: the operators that ran claim it, nobody plans it.
    delivered: dict[str, tuple] = field(default_factory=dict, repr=False, compare=False)
    #: Temp name -> what the last replay did with that link: "present",
    #: "shared", "maintained", "built" or "not read".
    last_links: dict[str, str] = field(default_factory=dict, repr=False, compare=False)
    #: The set-oriented plan ``executemany`` derives from this one
    #: (:mod:`repro.serve.batch`): None until asked for, False when the
    #: shape does not batch.  It lives and dies with this plan.
    batch_plan: object = field(default=None, repr=False, compare=False)

    @property
    def param_count(self) -> int:
        return len(self.param_specs)

    @property
    def folded(self) -> bool:
        return bool(self.fold_horizons)

    def valid_at(self, schema_version: int, snapshot: SnapshotLike) -> bool:
        """Whether the plan may still be replayed at this schema version
        under ``snapshot``: the tables its folded blocks read must hold
        the rows they held when it was planned."""
        return self.catalog_version == schema_version and all(
            snapshot.limit_for(table) == rows
            for table, rows in self.fold_horizons.items()
        )

    def release(self) -> None:
        """Drop the registry handles this plan holds (the cache evicts,
        invalidates or discards it); entries no other plan holds are
        freed by the registry, deferred to the last lease in flight.
        For good: a thread that resolved the plan just before, or is
        still replaying it, goes on without the registry — what it
        published nobody would ever release.  Idempotent."""
        registry, self.registry = self.registry, None
        if registry is not None:
            registry.drop_holder(self)

    def describe(self) -> str:
        lines = [
            f"kind: {self.kind}",
            f"schema version: {self.catalog_version}",
            f"data version: {self.data_version}"
            + (
                " (binding: the plan folded data in from "
                + ", ".join(
                    f"{table} at {rows} rows"
                    for table, rows in sorted(self.fold_horizons.items())
                )
                + ")"
                if self.folded
                else ""
            ),
        ]
        for definition, sql in zip(self.setup, self.setup_sql):
            lines.append(f"setup: {sql}")
            if definition.name in self.last_links:
                lines.append(f"  last replay: {self.last_links[definition.name]}")
            order = self.delivered.get(definition.name)
            if order is not None:
                names = output_names(definition.query)
                lines.append("  rows ordered on " + describe_order(order, names))
        if self.canonical_sql is not None:
            lines.append(f"canonical: {self.canonical_sql}")
        lines.extend(self.trace)
        return "\n".join(lines)

    # -- execution ---------------------------------------------------------

    def replay(
        self, catalog: Catalog, values: tuple[object, ...] = (), adhoc: bool = False
    ) -> RunReport:
        """Execute the plan with ``values`` bound, result + I/O report.

        Safe to call from multiple threads concurrently: temps go to a
        per-call session overlay (``catalog`` itself when the caller
        planned in one), parameters bind through a context variable,
        and the whole call holds the catalog read lock.  The execution
        pins an MVCC snapshot (reusing one already pinned by the caller
        or an enclosing transaction), so every scan in the plan sees
        one committed state even while writers commit concurrently.

        ``adhoc`` replays for ``Database.query``: the values are the
        literals of the statement's own text, so no bind contract is
        checked (they evaluate as the literal would), and the registry
        is neither leased from nor published to — every temp is built
        privately and freed in the sweep, as a plan-and-discard run's.

        Raises :class:`StalePlan` when the plan is not valid under that
        snapshot (a commit into a table it folded landed after it was
        resolved): the caller resolves again.
        """
        from repro.engine.params import bound_params

        if not adhoc:
            check_binding(self.param_specs, values)
        session = SessionCatalog.over(catalog)
        before = session.buffer.stats()
        with (
            session.read_lock(),
            session.snapshots.pinned() as snapshot,
            bound_params(values),
        ):
            if not self.valid_at(session.schema_version, snapshot):
                raise StalePlan(self.fingerprint)
            if self.kind == "nested_iteration":
                result = NestedIterationExecutor(session, self.config).execute(
                    self.select
                )
                return RunReport(
                    result=result,
                    io=session.buffer.stats() - before,
                    method="nested_iteration",
                    trace=list(self.trace),
                )
            assert self.final_query is not None
            # verify=False: every block was verified at plan time.
            executor = SingleLevelExecutor(session, self.config, verify=False)
            registry = self.registry
            if adhoc or isinstance(snapshot, TransactionSnapshot):
                # Neither leases nor publishes: an ad-hoc replay keeps
                # its temps private, and a transaction's read-your-writes
                # temps may hold uncommitted rows no other reader must
                # ever see.
                registry = None
            if registry is not None and not self.share_specs:
                self.share_specs = compute_share_specs(self.setup)

            def key_of(identity, slots: tuple[int, ...] = ()) -> tuple:
                return (
                    identity,
                    self.config,
                    self.catalog_version,
                    tuple(values[i] for i in slots),
                )

            rows, steps, temp_pages = self.run_chain(
                session, executor, self.setup, self.final_query, registry, key_of
            )
            return RunReport(
                result=QueryResult(columns=self.columns, rows=rows),
                io=session.buffer.stats() - before,
                method="transform",
                join_method=self.config.join_method,
                canonical_sql=self.canonical_sql,
                setup_sql=list(self.setup_sql),
                trace=list(self.trace),
                steps=steps,
                temp_pages=temp_pages,
            )

    def run_chain(
        self,
        session: SessionCatalog,
        executor: SingleLevelExecutor,
        setup: Sequence[TempTableDef],
        final_query: Select,
        registry: SharedSubplanRegistry | None = None,
        key_of: Callable[..., tuple] | None = None,
    ) -> tuple[list[tuple], list[str], dict[str, int]]:
        """The temp-chain driver: install ``setup`` in ``session``, run
        ``final_query`` over it, drain the rows, sweep the session.

        Temp contents depend only on the committed base data (pinned by
        the active snapshot) and the parameter slots their definitions
        read.  The chain is resolved on demand: starting from the tables
        ``final_query`` reads and walking ``setup`` from last to first,
        exactly one of five things happens to a definition:

        * **present** — the session already holds it (``Engine.run``
          replays in the session NEST-A built its prefix in): read it;
        * **shared** — it is needed, a ``registry`` is given and some
          plan has materialized that very temp (``key_of``: fingerprint,
          plan config, schema version, bound values) at the snapshot's
          horizons for the tables it reads: lease the heap;
        * **maintained** — the registered version is behind on exactly
          one table, by rows it can absorb (:mod:`repro.serve.sharing`):
          read those rows as a page range, push them through the
          definition — the upstream links that read the table as
          deltas of their own, the others installed in full — and merge
          the result into the old version, which the new one supersedes
          in the registry;
        * **built** — it is needed and nobody has it: execute the
          definition, which makes the temps *it* reads needed, and
          publish the heap to the registry when there is one
          (ownership moves: the sweep unregisters the name only) —
          unless the final query does not read it and it reads
          parameter slots: such an interior link of one statement is
          swept like any other scratch;
        * **not read** — nothing installed reads it: it is not looked
          up, leased, refreshed in the registry's LRU order or rebuilt,
          and ``steps`` / ``temp_pages`` / ``delivered`` leave it out.

        Builds then run in chain order; a maintenance that cannot keep
        its merge exact (a float SUM) builds instead, installing what
        the build reads first.  Definitions are keyed individually by
        cumulative fingerprints, so plans sharing only part of their
        chains still share that part.  Leases pin shared heaps for the
        whole execution and are returned after the sweep.  A plan holds
        only the entries it leased or published: an upstream entry no
        surviving plan ever read goes with its builder.

        With a registry, the sorted run of a base table a merge join
        needs (section 7.3's sort of ``Ri``) is one more such entry, keyed
        ``("sorted", table, column order)`` and maintained by an ordered
        merge.  The sort breaks ties on the other columns, so a run
        answers every request it starts with.
        """
        leases: list[SharedEntry] = []
        #: Maintained sorted runs the registry did not take.
        private: list[Relation] = []
        steps: list[str] = []
        temp_pages: dict[str, int] = {}
        snapshot = active_snapshot()
        index_of = {definition.name: i for i, definition in enumerate(setup)}
        final_reads = {ref.name for ref in final_query.from_tables}
        fate = {definition.name: "not read" for definition in setup}
        deltas: dict[tuple[str, str, int], str] = {}
        # A delta is small and in no order: joining it needs no sort of
        # either input, and its rows are ordered by the merge anyway.
        delta_executor = SingleLevelExecutor(
            session, replace(executor.config, join_method="hash"), verify=False
        )

        def horizons_of(tables) -> Horizons | None:
            """The snapshot's row counts of ``tables``; None without a
            registry or for a table the snapshot does not track."""
            if registry is None:
                return None
            horizons = tuple((table, snapshot.limit_for(table)) for table in tables)
            return None if any(rows is None for _t, rows in horizons) else horizons

        def lease(key: tuple, horizons: Horizons | None) -> SharedEntry | None:
            if horizons is None:
                return None
            entry = registry.acquire(key, horizons, self)
            if entry is not None:
                leases.append(entry)
            return entry

        def publish(
            key, horizons, heap, columns, order, maintainable_on, maintained=False
        ) -> bool:
            """Hand a fresh heap to the registry; False: it stays ours."""
            if horizons is None:
                return False
            entry = registry.publish(
                key, horizons, heap, columns, self, order, maintainable_on,
                maintained,
            )
            if entry is not None:
                leases.append(entry)
            return entry is not None

        def sorted_run(scan: Relation, keys: tuple[int, ...], sort):
            order = tuple(column_order(len(scan.schema), keys))
            key = key_of(("sorted", scan.name, order))
            horizons = horizons_of((scan.name,))
            entry = lease(key, horizons)
            if entry is not None and entry.horizons == horizons:
                return Relation(
                    scan.schema, heap=entry.heap, name=scan.name,
                    owns_heap=False, order=entry.order,
                ), "shared"
            if entry is None:
                run, how = sort(), None
            else:
                ((_table, old),), ((_table, new),) = entry.horizons, horizons
                merged = merge_delta(
                    entry.heap.scan_pages(), list(scan.heap.scan_range(old, new)),
                    entry.order, None,
                )
                run = Relation.materialize_batches(
                    scan.schema, merged, session.buffer,
                    entry.heap.rows_per_page, scan.name, entry.order,
                )
                private.append(run)
                how = "maintained"
            if publish(
                key, horizons, run.heap, scan.schema.column_names(), run.order,
                frozenset({scan.name}), maintained=how is not None,
            ):
                run.owns_heap = False  # no longer the block's scratch
            return run, how

        def link_key(index: int) -> tuple[tuple | None, Horizons | None]:
            if registry is None:
                return None, None
            spec = self.share_specs[index]
            return (
                key_of(spec.fingerprint, spec.param_slots),
                horizons_of(spec.tables),
            )

        def reads(name: str, table: str) -> bool:
            return name == table or (
                name in index_of
                and table in self.share_specs[index_of[name]].tables
            )

        def refs(index: int):
            return setup[index].query.from_tables

        def full_inputs(index: int, table: str, needed: set[str]) -> None:
            """What the delta of ``setup[index]`` on ``table`` reads in
            full: the inputs that do not read ``table``, transitively."""
            for ref in refs(index):
                if not reads(ref.name, table):
                    needed.add(ref.name)
                elif ref.name != table:
                    full_inputs(index_of[ref.name], table, needed)

        def delta_of(name: str, table: str, old: int, new: int) -> str:
            """The session temp holding what ``name`` gains when rows
            ``[old, new)`` of ``table`` arrive."""
            if (name, table, old) not in deltas:
                delta = session.create_temp_name("DELTA")
                if name == table:
                    base = session.heap_of(table)
                    columns = session.schema_of(table).column_names
                    rows = Relation.materialize(
                        RowSchema.for_table(table, columns),
                        base.scan_range(old, new), session.buffer,
                        base.rows_per_page,
                    )
                    session.register_temp(delta, rows.heap, list(columns))
                else:
                    query = setup[index_of[name]].query
                    delta_executor.materialize(
                        delta, delta_query(query, inputs(query, table, old, new))
                    )
                deltas[name, table, old] = delta
            return deltas[name, table, old]

        def inputs(query: Select, table: str, old: int, new: int) -> dict[str, str]:
            return {
                ref.name: delta_of(ref.name, table, old, new)
                for ref in query.from_tables
                if reads(ref.name, table)
            }

        def maintain(index: int, entry: SharedEntry, table: str, horizons) -> None:
            definition = setup[index]
            old, new = dict(entry.horizons)[table], dict(horizons)[table]
            query = delta_query(
                definition.query, inputs(definition.query, table, old, new)
            )
            delta = delta_executor.execute(query).drain()
            merged = merge_delta(
                entry.heap.scan_pages(), delta, entry.order,
                row_combiner(definition.query),
            )
            relation = Relation.materialize_batches(
                RowSchema.for_table(definition.name, entry.columns), merged,
                session.buffer, entry.heap.rows_per_page, definition.name,
                entry.order,
            )
            session.register_temp(
                definition.name, relation.heap, entry.columns, entry.order
            )
            steps.append(
                f"maintained {definition.name}: {table} rows [{old}, {new}): "
                + "; ".join(delta_executor.steps)
                + f"; merged {len(delta)} row(s) in"
            )
            if publish(
                *link_key(index), relation.heap, entry.columns, entry.order,
                self.share_specs[index].maintainable_on, maintained=True,
            ):
                session.mark_shared(definition.name)

        def build(index: int) -> None:
            name = setup[index].name
            steps.append(executor.materialize(name, setup[index].query))
            if registry is None or (
                name not in final_reads and self.share_specs[index].param_slots
            ):
                return
            built = session.get(name)
            if publish(
                *link_key(index), built.heap, built.schema.column_names,
                built.order, self.share_specs[index].maintainable_on,
            ):
                session.mark_shared(name)

        def install(needed: set[str], stop: int) -> None:
            """Resolve and install the links among ``setup[:stop]`` that
            ``needed`` (or what they need) reads."""
            todo: dict[int, tuple] = {}
            for index in reversed(range(stop)):
                name = setup[index].name
                if fate[name] != "not read":
                    continue
                if session.has_table(name):
                    fate[name] = "present"
                    todo[index] = ()
                    continue
                if name not in needed:
                    continue
                key, horizons = link_key(index)
                entry = lease(key, horizons)
                if entry is not None and entry.horizons == horizons:
                    session.register_shared_temp(name, entry)
                    fate[name] = "shared"
                    todo[index] = ()
                    continue
                changed = [] if entry is None else [
                    table
                    for (table, old), (_t, new) in zip(entry.horizons, horizons)
                    if old != new
                ]
                if (
                    len(changed) == 1
                    and changed[0] in self.share_specs[index].maintainable_on
                ):
                    fate[name] = "maintained"
                    todo[index] = (entry, changed[0], horizons)
                    full_inputs(index, changed[0], needed)
                else:
                    fate[name] = "built"
                    todo[index] = ()
                    needed.update(ref.name for ref in refs(index))
            for index in sorted(todo):
                name = setup[index].name
                if fate[name] == "maintained":
                    try:
                        maintain(index, *todo[index])
                    except NotCombinable:
                        fate[name] = "built"
                        install({ref.name for ref in refs(index)}, index)
                if fate[name] == "built":
                    build(index)
                elif fate[name] == "shared":
                    steps.append(f"shared {name}")
                temp = session.get(name)
                temp_pages[name] = temp.heap.num_pages
                self.delivered[name] = temp.order

        if registry is not None:
            executor.sorted_runs = sorted_run
        try:
            install(set(final_reads), len(setup))
            idle = [name for name in fate if fate[name] == "not read"]
            if idle:
                steps.append(", ".join(idle) + " not read")
            self.last_links = fate
            relation = executor.execute(final_query)
            steps.append("final: " + "; ".join(executor.steps))
            return relation.drain(), steps, temp_pages
        finally:
            session.drop_temp_tables()
            for run in private:
                run.drop()
            if registry is not None:
                for entry in leases:
                    registry.release_lease(entry)


def build_plan(
    catalog: Catalog,
    config: ExecConfig,
    select: Select,
    method: str,
    fingerprint: str = "",
    *,
    verify: bool = True,
    registry: SharedSubplanRegistry | None = None,
) -> CachedPlan:
    """Run the full pipeline up to (not including) the temp chain.

    Plans in a private session overlay of ``catalog``, so temps NEST-G
    builds to evaluate type-A blocks never touch the shared catalog;
    they are dropped on the way out — unless ``catalog`` already is a
    session (``Engine.run``), whose owner then replays over them.

    The plan runs under ``config`` with the join method decided here
    (``method="cost"``: the planner's), and that one value is what its
    temps are shared under in ``registry``.  ``verify`` runs the static
    verifier + lint once, at plan time; its findings ride on the plan.

    Raises :class:`~repro.errors.ParameterizedPlanError` when the plan
    shape depends on parameter values (callers switch to per-vector
    "custom" plans).
    """
    if method not in METHODS:
        raise ReproError(f"unknown method {method!r}")
    session = SessionCatalog.over(catalog)
    schema_version = session.schema_version
    # Read before planning does, for the snapshot-pin hit count; what a
    # folded plan is valid at is the pinned snapshot it folded under.
    data_version = session.data_version

    def plan_of(
        kind: str, rewritten: Select, trace: list[str], **chain
    ) -> CachedPlan:
        slots = user_param_count(select)
        return CachedPlan(
            fingerprint=fingerprint,
            catalog_version=schema_version,
            data_version=data_version,
            kind=kind,
            select=select,
            param_specs=derive_param_specs(rewritten, session, slots)
            if slots
            else [],
            config=config,
            trace=trace,
            registry=registry,
            **chain,
        )

    with session.read_lock(), session.snapshots.pinned() as snapshot:
        try:
            # Once per plan, under the plan's own predicate modes: what
            # the planner costs is the tree the plan runs.
            rewritten = prepare_query(select, session, config)
            choice: list[str] = []
            if method == "cost":
                # The section-7 cost model picks the strategy (SEL 79
                # style) once per plan; it is re-asked when the schema /
                # stats version moves and the plan is rebuilt.
                chosen = Planner(session).choose(rewritten)
                choice = chosen.describe().splitlines()
                method = "auto"
                if chosen.method == "nested_iteration":
                    method = "nested_iteration"
                elif chosen.join_method:
                    config = replace(config, join_method=chosen.join_method)
            if method == "nested_iteration":
                return plan_of("nested_iteration", rewritten, choice)
            findings: Findings | None = None
            verified: list[str] = []
            try:
                transform = nest_g(rewritten, session, config)
                if verify:
                    findings, verified = verify_plan(
                        rewritten, transform, session, config
                    )
            except ParameterizedPlanError:
                # Must reach the caller: the plan shape depends on
                # parameter values, so the serving layer plans per
                # distinct vector instead ("custom plans").
                raise
            except TransformError:
                # Outside the algorithms' reach: under method="auto"
                # the plan is nested iteration instead.
                if method != "auto":
                    raise
                session.drop_temp_tables()
                return plan_of("nested_iteration", rewritten, choice)
            return plan_of(
                "transform",
                rewritten,
                [*choice, *transform.trace, *verified],
                fold_horizons={
                    table: snapshot.limit_for(table)
                    for table in transform.folded_tables
                },
                setup=transform.setup,
                final_query=transform.query,
                columns=output_names(transform.query),
                canonical_sql=to_sql(transform.query),
                setup_sql=[d.describe() for d in transform.setup],
                findings=findings,
            )
        finally:
            if session is not catalog:
                session.drop_temp_tables()
