"""Building and replaying plans: the one statement path.

:func:`build_plan` is the only code that runs qualify/rewrite → NEST-G
→ verify + lint, and :meth:`CachedPlan.replay` is
the only code that installs a chain, runs the final block, drains
it, builds the :class:`~repro.core.pipeline.RunReport` and sweeps.
``Engine.run`` plans, replays once privately and drops the plan;
``Engine.run_cached`` and prepared statements keep it — in the
:class:`~repro.serve.cache.PlanCache`, the only object that holds a
plan across calls.  :func:`run_transform` replays a NEST-G result it is
handed, unverified: the way the paper's wrong answers
(:mod:`repro.core.nest_ja`'s demonstrators) run.

A :class:`CachedPlan` records everything the pipeline produces up to —
but not including — the data access of its chain: the ordered links
(temp-table definitions and the value links NEST-A makes of type-A
blocks), the final single-level query, the verifier's clean bill of
health (so replay runs its blocks with ``verify=False``), and the
parameter contracts.  Planning reads no data, so a plan depends on the
schema alone and is valid at the schema version it was built under;
the values of its type-A blocks are computed per replay and bound into
hidden parameter slots, as the statement's own values are.

Two plan kinds exist: ``transform`` (the paper's unnested pipeline) and
``nested_iteration`` (the baseline, and the ``method="auto"`` answer to
queries outside the algorithms' reach).  Both are safe to execute from
many threads at once: all mutable state lives in the session overlay,
the registry's leases, or the parameter context variable.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace

from repro.analysis.verifier import output_names
from repro.catalog.catalog import Catalog
from repro.config import ExecConfig
from repro.core.nest_g import GeneralTransform, nest_g
from repro.core.pipeline import RunReport, prepare_query, verify_plan
from repro.core.transform import TempTableDef
from repro.engine.aggregate import NotCombinable
from repro.engine.nested_iteration import NestedIterationExecutor, QueryResult
from repro.engine.compile import ValueList
from repro.engine.params import active_params, bind_slot
from repro.engine.relation import NO_ORDER, Order, Relation, describe_order
from repro.engine.schema import RowSchema
from repro.engine.sort import column_order
from repro.errors import CardinalityError, ReproError, TransformError
from repro.optimizer.executor import SingleLevelExecutor
from repro.optimizer.planner import Planner
from repro.serve.binding import ParamSpec, check_binding, derive_param_specs
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
from repro.sql.ast import Parameter, Select, user_param_count, walk
from repro.sql.printer import to_sql
from repro.storage.visibility import active_snapshot
from repro.txn.mvcc import TransactionSnapshot

#: The evaluation methods a statement can ask for (see core.pipeline).
METHODS = ("transform", "auto", "nested_iteration", "cost")


@dataclass
class CachedPlan:
    """A replayable plan; verified, unless :func:`run_transform` made it."""

    fingerprint: str
    #: catalog.schema_version when the plan was built; any other schema
    #: version invalidates it (DDL or stats changed).
    catalog_version: int
    #: catalog.data_version when the plan was built: a hit at another
    #: data version is counted as a "snapshot-pin hit" (the plan
    #: outlived an insert, as every plan does).
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
    #: The chain in build order (NEST-G's definitions and value links)
    #: and the canonical single-level query over it.
    setup: Sequence[TempTableDef] = ()
    final_query: Select | None = None
    columns: list[str] = field(default_factory=list)
    canonical_sql: str | None = None
    setup_sql: list[str] = field(default_factory=list)
    #: Cost-based choice, transformation trace, verifier outcome.
    trace: list[str] = field(default_factory=list)
    #: The plan cache's SharedSubplanRegistry, or None when the engine
    #: serves no plan cache or the plan is not kept: then every replay
    #: rebuilds its temps and frees them at the end.
    registry: SharedSubplanRegistry | None = field(
        default=None, repr=False, compare=False
    )
    #: Per-definition structural fingerprints + parameter slots (see
    #: :mod:`repro.serve.sharing`); computed by the first replay that
    #: shares, so a plan only ever replayed privately never pays for it.
    share_specs: tuple[ShareSpec, ...] = ()
    #: Temp name -> the order its definition delivered, as the replays
    #: so far saw it: the operators that ran claim it, nobody plans it.
    delivered: dict[str, tuple] = field(default_factory=dict, repr=False, compare=False)
    #: Link name -> what the last replay did with it: "shared",
    #: "maintained", "built", "evaluated" (a value link) or "not read".
    last_links: dict[str, str] = field(default_factory=dict, repr=False, compare=False)
    #: The set-oriented plan ``executemany`` derives from this one
    #: (:mod:`repro.serve.batch`): None until asked for, False when the
    #: shape does not batch.  It lives and dies with this plan.
    batch_plan: object = field(default=None, repr=False, compare=False)

    @property
    def param_count(self) -> int:
        return len(self.param_specs)

    @property
    def slot_count(self) -> int:
        """The slots a replay binds: the statement's, then one per value
        link."""
        return self.param_count + sum(d.slot is not None for d in self.setup)

    def valid_at(self, schema_version: int) -> bool:
        """Whether the plan may still be replayed at this schema version."""
        return self.catalog_version == schema_version

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
            f"data version: {self.data_version}",
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
        per-call session overlay, parameters bind through a context
        variable, and the whole call holds the catalog read lock.  The
        execution pins an MVCC snapshot (reusing one already pinned by
        the caller or an enclosing transaction), so every scan in the
        plan — the type-A blocks its value links evaluate included —
        sees one committed state even while writers commit concurrently.

        ``adhoc`` replays for ``Database.query``: the values are the
        literals of the statement's own text, so no bind contract is
        checked (they evaluate as the literal would), and of the
        registry only the one-row entries of value links are leased and
        published — every temp is built privately and freed in the
        sweep, as a plan-and-discard run's.  Under a transaction's
        read-your-writes snapshot the registry is not used at all.
        """
        from repro.engine.params import bound_params

        if not adhoc:
            check_binding(self.param_specs, values)
        session = SessionCatalog(catalog)
        before = session.buffer.stats()
        with (
            session.read_lock(),
            session.snapshots.pinned() as snapshot,
            bound_params(values),
        ):
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
            if isinstance(snapshot, TransactionSnapshot):
                # A transaction's read-your-writes temps and values may
                # hold uncommitted rows no other reader must ever see.
                registry = None
            rows, steps, temp_pages = self.run_chain(
                session, executor, self.setup, self.final_query, registry,
                share_temps=not adhoc,
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

    def rebuild_link(
        self, session: SessionCatalog, name: str
    ) -> tuple[list[tuple], Order]:
        """Link ``name`` installed from scratch in ``session``, after
        every link before it (:func:`install_link`), sharing nothing:
        its rows and the order they claim (:func:`link_contents`).  The
        caller binds the statement's values and sweeps ``session``."""
        executor = SingleLevelExecutor(session, self.config, verify=False)
        for link in self.setup:
            install_link(executor, link)
            if link.name == name:
                return link_contents(session, link)
        raise ReproError(f"{name} is not a link of its plan")

    def run_chain(
        self,
        session: SessionCatalog,
        executor: SingleLevelExecutor,
        setup: Sequence[TempTableDef],
        final_query: Select,
        registry: SharedSubplanRegistry | None = None,
        share_temps: bool = True,
    ) -> tuple[list[tuple], list[str], dict[str, int]]:
        """The chain driver: install ``setup`` in ``session``, run
        ``final_query`` over it, drain the rows, sweep the session.

        Temp contents and link values depend only on the committed base
        data (pinned by the active snapshot) and the parameter slots
        their definitions read.  The chain is resolved on demand:
        starting from what ``final_query`` reads — temps in its FROM
        clause, value links through their slots — and walking ``setup``
        from last to first, exactly one of five things happens to a
        link:

        * **shared** — it is needed, a ``registry`` is given and some
          plan has materialized that very link (its sharing key:
          fingerprint, plan config, schema version, bound values) at
          the snapshot's horizons for the tables it reads: lease the
          heap;
        * **maintained** — the registered version is behind on exactly
          one table, by rows it can absorb (:mod:`repro.serve.sharing`):
          read those rows as a page range, push them through the
          definition — the upstream links that read the table as
          deltas of their own, the others installed in full — and merge
          the result into the old version, which the new one supersedes
          in the registry;
        * **built** — a temp that is needed and nobody has: execute the
          definition, which makes the links *it* reads needed, and
          publish the heap to the registry when there is one
          (ownership moves: the sweep unregisters the name only) —
          unless the final query does not read it and it reads
          parameter slots: such an interior link of one statement is
          swept like any other scratch;
        * **evaluated** — a value link that is needed and nobody has:
          NEST-A, once per execution (:func:`install_link`), after the
          links it reads.  With a registry the value is published as a
          one-row entry; without one it stays in memory and no page is
          written;
        * **not read** — nothing installed reads it: it is not looked
          up, leased, refreshed in the registry's LRU order or rebuilt,
          and ``steps`` / ``temp_pages`` / ``delivered`` leave it out.

        A value link's value, however it was had, is bound into its
        slot, so the sharing keys of the links that read the slot carry
        it; a link whose key reads an unbound slot has that value link
        resolved first.  ``share_temps`` False (an ad-hoc replay) keeps
        the registry for value links alone.

        Builds then run in chain order; a maintenance that cannot keep
        its merge exact (a float SUM) builds instead, installing what
        the build reads first.  Definitions are keyed individually by
        cumulative fingerprints, so plans sharing only part of their
        chains still share that part.  Leases pin shared heaps for the
        whole execution and are returned after the sweep.  A plan holds
        only the entries it leased or published: an upstream entry no
        surviving plan ever read goes with its builder.

        With a registry shared by temps, the sorted run of a base table
        a merge join needs (section 7.3's sort of ``Ri``) is one more
        such entry, keyed ``("sorted", table, column order)`` and
        maintained by an ordered merge.  The sort breaks ties on the
        other columns, so a run answers every request it starts with.
        """
        leases: list[SharedEntry] = []
        #: Maintained sorted runs the registry did not take.
        private: list[Relation] = []
        steps: list[str] = []
        temp_pages: dict[str, int] = {}
        snapshot = active_snapshot()
        index_of = {definition.name: i for i, definition in enumerate(setup)}
        #: slot -> the value link that binds it.
        link_of = {d.slot: d.name for d in setup if d.slot is not None}
        #: The fates of a link installed from scratch: a temp, a value.
        fresh = ("built", "evaluated")

        def reads_of(query: Select) -> set[str]:
            """The links ``query`` reads: temps in its FROM clause,
            value links through their slots."""
            names = {ref.name for ref in query.from_tables}
            if link_of:
                names.update(
                    link_of[node.index]
                    for node in walk(query)
                    if isinstance(node, Parameter) and node.index in link_of
                )
            return names

        needs = [reads_of(definition.query) for definition in setup]
        final_reads = {ref.name for ref in final_query.from_tables}
        fate = {definition.name: "not read" for definition in setup}
        deltas: dict[tuple[str, str, int], str] = {}
        # A delta is small and in no order: joining it needs no sort of
        # either input, and its rows are ordered by the merge anyway.
        delta_executor = SingleLevelExecutor(
            session, replace(executor.config, join_method="hash"), verify=False
        )
        if registry is not None and not self.share_specs:
            self.share_specs = compute_share_specs(self.setup)

        def key_of(identity, slots: tuple[int, ...] = ()) -> tuple:
            bound = active_params()
            return (
                identity,
                self.config,
                self.catalog_version,
                tuple(bound[i] for i in slots),
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
            """The sharing key and horizons of ``setup[index]`` — the
            value links its key reads bound first — or Nones when it is
            not shared."""
            if registry is None or (not share_temps and setup[index].slot is None):
                return None, None
            spec = self.share_specs[index]
            for slot in spec.param_slots:
                name = link_of.get(slot)
                if name is not None and fate[name] == "not read":
                    install({name}, index_of[name] + 1)
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
            """Install ``setup[index]`` (:func:`install_link`) and, when
            shared, publish it — a value link as its one-row entry, a
            temp unless the final query does not read it and it reads
            parameter slots.  Ownership moves: the sweep unregisters
            the name only."""
            link = setup[index]
            steps.append(install_link(executor, link))
            key, horizons = link_key(index)
            if horizons is None:
                return
            if link.slot is not None:
                columns = output_names(link.query)
                row = Relation.materialize(
                    RowSchema.for_table(link.name, columns),
                    [(active_params()[link.slot],)], session.buffer,
                )
                session.register_temp(link.name, row.heap, columns)
            elif link.name not in final_reads and self.share_specs[index].param_slots:
                return
            built = session.get(link.name)
            if publish(
                key, horizons, built.heap, built.schema.column_names,
                built.order, self.share_specs[index].maintainable_on,
            ):
                session.mark_shared(link.name)

        def install(needed: set[str], stop: int) -> None:
            """Resolve and install the links among ``setup[:stop]`` that
            ``needed`` (or what they need) reads."""
            todo: dict[int, tuple] = {}
            for index in reversed(range(stop)):
                name = setup[index].name
                if fate[name] != "not read" or name not in needed:
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
                    fate[name] = fresh[setup[index].slot is not None]
                    todo[index] = ()
                    needed.update(needs[index])
            for index in sorted(todo):
                link = setup[index]
                name = link.name
                if fate[name] == "maintained":
                    try:
                        maintain(index, *todo[index])
                    except NotCombinable:
                        fate[name] = fresh[link.slot is not None]
                        install(set(needs[index]), index)
                if fate[name] in fresh:
                    build(index)
                elif fate[name] == "shared":
                    steps.append(f"shared {name}")
                if link.slot is None:
                    temp = session.get(name)
                    temp_pages[name] = temp.heap.num_pages
                    self.delivered[name] = temp.order
                elif fate[name] not in fresh:
                    # A leased or maintained value: the entry's one row.
                    ((value,),) = session.get(name).heap.scan()
                    bind_slot(link.slot, value)

        if registry is not None and share_temps:
            executor.sorted_runs = sorted_run
        try:
            install(reads_of(final_query), len(setup))
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


def install_link(executor: SingleLevelExecutor, link: TempTableDef) -> str:
    """Install ``link`` of a chain privately, in ``executor``'s catalog
    — the one place that tells a temp from a value link.  A temp is
    materialized (:meth:`SingleLevelExecutor.materialize`).  A value
    link is NEST-A, once per execution: one nested-iteration run of its
    type-A block, bound into its slot of the active ``bound_params``
    block and kept in memory, no page written.  Its value is the value
    list for an ``IN``; else at most one row (more raise
    :class:`CardinalityError`), none being NULL.  Returns the step
    text."""
    if link.slot is None:
        return executor.materialize(link.name, link.query)
    rows = NestedIterationExecutor(executor.catalog, executor.config).execute(
        link.query
    ).rows
    if link.is_list:
        value: object = ValueList(row[0] for row in rows)
    elif len(rows) > 1:
        raise CardinalityError(
            f"scalar subquery returned {len(rows)} rows: {to_sql(link.query)}"
        )
    else:
        value = rows[0][0] if rows else None
    bind_slot(link.slot, value)
    return f"evaluated {link.name} → ?{link.slot + 1}"


def link_contents(catalog: Catalog, link: TempTableDef) -> tuple[list[tuple], Order]:
    """The rows of installed link ``link`` and the order they claim — a
    value link's one row, its bound value, in no order."""
    if link.slot is not None:
        return [(active_params()[link.slot],)], NO_ORDER
    temp = catalog.get(link.name)
    return list(temp.heap.scan()), temp.order


def build_plan(
    catalog: Catalog,
    config: ExecConfig,
    select: Select,
    method: str,
    fingerprint: str = "",
    *,
    registry: SharedSubplanRegistry | None = None,
) -> CachedPlan:
    """Run the full pipeline up to (not including) the chain.

    Reads no data — a type-A block becomes a value link the replay
    evaluates — so it needs only the catalog read lock, and what it
    returns depends on the schema alone.

    The plan runs under ``config`` with the join method decided here
    (``method="cost"``: the planner's), and that one value is what its
    temps are shared under in ``registry``.  A transform plan is
    verified and linted once, here: an error finding raises.
    """
    if method not in METHODS:
        raise ReproError(f"unknown method {method!r}")
    slots = user_param_count(select)
    with catalog.read_lock():
        # Once per plan: what the planner costs is the tree the plan runs.
        rewritten = prepare_query(select, catalog)
        specs = derive_param_specs(rewritten, catalog, slots) if slots else []
        choice: list[str] = []
        if method == "cost":
            # The section-7 cost model picks the strategy (SEL 79 style)
            # once per plan; it is re-asked when the schema / stats
            # version moves and the plan is rebuilt.
            chosen = Planner(catalog).choose(rewritten)
            choice = chosen.describe().splitlines()
            method = "auto"
            if chosen.method == "nested_iteration":
                method = "nested_iteration"
            elif chosen.join_method:
                config = replace(config, join_method=chosen.join_method)
        transform = None
        if method != "nested_iteration":
            try:
                transform = nest_g(rewritten, catalog)
            except TransformError:
                # Outside the algorithms' reach: under method="auto" the
                # plan is nested iteration instead.
                if method != "auto":
                    raise
            else:
                choice += [
                    *transform.trace,
                    verify_plan(rewritten, transform, catalog, config.join_method),
                ]
        return plan_of(
            catalog, config, select, choice, transform, specs, fingerprint, registry
        )


def plan_of(
    catalog: Catalog,
    config: ExecConfig,
    select: Select,
    trace: list[str],
    transform: GeneralTransform | None = None,
    param_specs: list[ParamSpec] | None = None,
    fingerprint: str = "",
    registry: SharedSubplanRegistry | None = None,
) -> CachedPlan:
    """The plan of statement ``select`` under ``config`` at the
    catalog's current versions: nested iteration, or — given NEST-G's
    ``transform`` — the replay of its chain.  Verifies nothing."""
    chain: dict = {}
    if transform is not None:
        chain = dict(
            setup=transform.setup,
            final_query=transform.query,
            columns=output_names(transform.query),
            canonical_sql=to_sql(transform.query),
            setup_sql=[d.describe() for d in transform.setup],
        )
    return CachedPlan(
        fingerprint=fingerprint,
        catalog_version=catalog.schema_version,
        # For the snapshot-pin hit count.
        data_version=catalog.data_version,
        kind="nested_iteration" if transform is None else "transform",
        select=select,
        param_specs=param_specs or [],
        config=config,
        trace=trace,
        registry=registry,
        **chain,
    )


def run_transform(
    catalog: Catalog, transform: GeneralTransform, join_method: str = "merge"
) -> RunReport:
    """Run a NEST-G result as :meth:`~repro.core.pipeline.Engine.run`
    runs a plan — replayed once privately, page I/O counted — without
    verifying it.  This is how a demonstrator's plan
    (:func:`~repro.core.nest_ja.kim_nest_g`, …) executes: no engine
    builds one.  The transform binds no values of its own."""
    with catalog.read_lock():
        plan = plan_of(
            catalog, ExecConfig(join_method=join_method), transform.query,
            list(transform.trace), transform,
        )
        return plan.replay(catalog)
