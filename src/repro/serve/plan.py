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
type-A block's value into the plan) — only at that data version too.

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
from repro.engine.nested_iteration import NestedIterationExecutor, QueryResult
from repro.engine.relation import Relation, describe_order
from repro.engine.sort import column_order
from repro.errors import ParameterizedPlanError, ReproError, TransformError
from repro.optimizer.executor import SingleLevelExecutor
from repro.optimizer.planner import Planner
from repro.serve.binding import ParamSpec, check_binding, derive_param_specs
from repro.serve.normalize import user_param_count
from repro.serve.session import SessionCatalog
from repro.serve.sharing import (
    SharedEntry,
    SharedSubplanRegistry,
    ShareSpec,
    compute_share_specs,
)
from repro.sql.ast import Select
from repro.sql.printer import to_sql
from repro.txn.mvcc import TransactionSnapshot

#: The evaluation methods a statement can ask for (see core.pipeline).
METHODS = ("transform", "auto", "nested_iteration", "cost")


@dataclass
class CachedPlan:
    """A transformed, verified, replayable plan."""

    fingerprint: str
    #: catalog.schema_version when the plan was built; any other schema
    #: version invalidates it (DDL or stats changed).
    catalog_version: int
    #: catalog.data_version when the plan was built.  Binding only when
    #: ``folded``; otherwise a hit at another data version is counted as
    #: a "snapshot-pin hit" (the plan outlived an insert).
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
    #: its value in.  Replays re-read the base tables under a pinned
    #: snapshot, so a plan that folded nothing survives inserts; one
    #: that did is stale as soon as the data version moves.
    folded: bool = False
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
    #: frees them at the end.
    registry: SharedSubplanRegistry | None = field(
        default=None, repr=False, compare=False
    )
    #: Per-definition structural fingerprints + parameter slots (see
    #: :mod:`repro.serve.sharing`); computed only when there is a
    #: registry.
    share_specs: tuple[ShareSpec, ...] = ()
    #: What the verifier found at plan time (None: not verified, or a
    #: nested-iteration plan).
    findings: Findings | None = field(default=None, repr=False, compare=False)
    #: Temp name -> the order its definition delivered, as the replays
    #: so far saw it: the operators that ran claim it, nobody plans it.
    delivered: dict[str, tuple] = field(default_factory=dict, repr=False, compare=False)
    #: Temp name -> what the last replay did with that link: "present",
    #: "shared", "built" or "not read".
    last_links: dict[str, str] = field(default_factory=dict, repr=False, compare=False)
    #: The set-oriented plan ``executemany`` derives from this one
    #: (:mod:`repro.serve.batch`): None until asked for, False when the
    #: shape does not batch.  It lives and dies with this plan.
    batch_plan: object = field(default=None, repr=False, compare=False)

    @property
    def param_count(self) -> int:
        return len(self.param_specs)

    def valid_at(self, schema_version: int, data_version: int) -> bool:
        """Whether the plan may still be replayed at these versions."""
        return self.catalog_version == schema_version and (
            not self.folded or self.data_version == data_version
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
            + (" (binding: the plan folded data in)" if self.folded else ""),
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
        self, catalog: Catalog, values: tuple[object, ...] = ()
    ) -> RunReport:
        """Execute the plan with ``values`` bound, result + I/O report.

        Safe to call from multiple threads concurrently: temps go to a
        per-call session overlay (``catalog`` itself when the caller
        planned in one), parameters bind through a context variable,
        and the whole call holds the catalog read lock.  The execution
        pins an MVCC snapshot (reusing one already pinned by the caller
        or an enclosing transaction), so every scan in the plan sees
        one committed state even while writers commit concurrently.
        """
        from repro.engine.params import bound_params

        check_binding(self.param_specs, values)
        session = SessionCatalog.over(catalog)
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
                # A transaction's read-your-writes overlay leases and
                # publishes nothing: its temps may hold uncommitted
                # rows no other reader must ever see.
                registry = None
            data_version = getattr(snapshot, "data_version", -1)

            def key_of(identity, slots: tuple[int, ...] = ()) -> tuple:
                return (
                    identity,
                    self.config,
                    self.catalog_version,
                    data_version,
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
        exactly one of four things happens to a definition:

        * **present** — the session already holds it (``Engine.run``
          replays in the session NEST-A built its prefix in): read it;
        * **leased** — it is needed, a ``registry`` is given and some
          plan has materialized that very temp (``key_of``: fingerprint,
          plan config, snapshot, bound values): lease the heap;
        * **built** — it is needed and nobody has it: execute the
          definition, which makes the temps *it* reads needed, and
          publish the heap to the registry when there is one
          (ownership moves: the sweep unregisters the name only);
        * **not read** — nothing installed reads it: it is not looked
          up, leased, refreshed in the registry's LRU order or rebuilt,
          and ``steps`` / ``temp_pages`` / ``delivered`` leave it out.

        Builds then run in chain order.  Definitions are keyed
        individually by cumulative fingerprints, so plans sharing only
        part of their chains still share that part.  Leases pin shared
        heaps for the whole execution and are returned after the sweep.
        A plan holds only the entries it leased or published: an
        upstream entry no surviving plan ever read goes with its builder.

        With a registry, the sorted run of a base table a merge join
        needs (section 7.3's sort of ``Ri``) is one more such entry, keyed
        ``("sorted", table, column order)``.  The sort breaks ties on the
        other columns, so a run answers every request it starts with.
        """
        leases: list[SharedEntry] = []
        steps: list[str] = []
        temp_pages: dict[str, int] = {}

        def lease(key: tuple | None) -> SharedEntry | None:
            entry = None if registry is None else registry.acquire(key, self)
            if entry is not None:
                leases.append(entry)
            return entry

        def publish(key: tuple | None, heap, columns, order) -> bool:
            """Hand a fresh heap to the registry; False: it stays ours."""
            entry = None if registry is None else registry.publish(
                key, heap, columns, self, session.data_version, order
            )
            if entry is not None:
                leases.append(entry)
            return entry is not None

        def sorted_run(scan: Relation, keys: tuple[int, ...], sort):
            order = tuple(column_order(len(scan.schema), keys))
            key = key_of(("sorted", scan.name, order))
            entry = lease(key)
            if entry is not None:
                return Relation(
                    scan.schema, heap=entry.heap, name=scan.name,
                    owns_heap=False, order=entry.order,
                ), True
            run = sort()
            if publish(key, run.heap, scan.schema.column_names(), run.order):
                run.owns_heap = False  # no longer the block's scratch
            return run, False

        def link_key(index: int) -> tuple | None:
            if registry is None:
                return None
            spec = self.share_specs[index]
            return key_of(spec.fingerprint, spec.param_slots)

        if registry is not None:
            executor.sorted_runs = sorted_run
        try:
            needed = {ref.name for ref in final_query.from_tables}
            fate = {definition.name: "not read" for definition in setup}
            for index in reversed(range(len(setup))):
                definition = setup[index]
                name = definition.name
                if session.has_table(name):
                    fate[name] = "present"
                elif name in needed:
                    entry = lease(link_key(index))
                    if entry is not None:
                        session.register_shared_temp(name, entry)
                        fate[name] = "shared"
                    else:
                        fate[name] = "built"
                        needed.update(
                            ref.name for ref in definition.query.from_tables
                        )
            for index, definition in enumerate(setup):
                name = definition.name
                if fate[name] == "not read":
                    continue
                if fate[name] == "built":
                    steps.append(executor.materialize(name, definition.query))
                    built = session.get(name)
                    if publish(
                        link_key(index), built.heap,
                        built.schema.column_names, built.order,
                    ):
                        session.mark_shared(name)
                elif fate[name] == "shared":
                    steps.append(f"shared {name}")
                temp = session.get(name)
                temp_pages[name] = temp.heap.num_pages
                self.delivered[name] = temp.order
            idle = [name for name in fate if fate[name] == "not read"]
            if idle:
                steps.append(", ".join(idle) + " not read")
            self.last_links = fate
            relation = executor.execute(final_query)
            steps.append("final: " + "; ".join(executor.steps))
            return relation.drain(), steps, temp_pages
        finally:
            session.drop_temp_tables()
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
    # Read before planning does: should a commit land while a type-A
    # block is being folded, the plan is stamped with the older version
    # and the next lookup re-plans.
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

    with session.read_lock(), session.snapshots.pinned():
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
                folded=transform.folded,
                setup=transform.setup,
                final_query=transform.query,
                columns=output_names(transform.query),
                canonical_sql=to_sql(transform.query),
                setup_sql=[d.describe() for d in transform.setup],
                share_specs=()
                if registry is None
                else compute_share_specs(transform.setup),
                findings=findings,
            )
        finally:
            if session is not catalog:
                session.drop_temp_tables()
