"""Building and replaying cached plans.

A :class:`CachedPlan` captures everything the pipeline produces up to —
but not including — data access: the qualified/rewritten tree, the
NEST-G transformation (temp-table definitions + canonical single-level
query), the dedupe-outer fix-up rewrite, the verifier's clean bill of
health, and the statically-derived parameter contracts.  Replay skips
parse → qualify → rewrite → transform → verify → lint entirely; it
rebuilds the (data-dependent) temp tables in a private
:class:`~repro.serve.session.SessionCatalog` and runs the canonical
query with ``verify=False`` — verification happened at plan time, which
is precisely the point of caching it.

Two plan kinds exist: ``transform`` (the paper's unnested pipeline) and
``nested_iteration`` (for queries outside the algorithms' reach under
``method="auto"``).  Both are safe to execute from many threads at
once: all mutable state lives in the session overlay or flows through
the parameter context variable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.core.nest_g import GeneralTransform
from repro.core.pipeline import Engine, RunReport
from repro.engine.nested_iteration import NestedIterationExecutor, QueryResult
from repro.errors import ParameterizedPlanError, ReproError, TransformError
from repro.optimizer.executor import SingleLevelExecutor
from repro.serve.binding import ParamSpec, check_binding, derive_param_specs
from repro.serve.session import SessionCatalog
from repro.sql.ast import Parameter, Select, walk
from repro.sql.printer import to_sql

#: Max distinct parameter vectors whose materialized temps one plan
#: memoizes; further vectors rebuild their temps per call.
_TEMP_MEMO_CAP = 8


class NonCacheablePlan(ReproError):
    """The query cannot be served from a cached plan.

    Raised at plan-build time for shapes whose *rewrite* performs data
    access (the aggregated ``dedupe_outer`` fix-up materializes a
    staging temp mid-rewrite) and for ``method="cost"`` (the planner's
    choice is re-costed per call).  Callers fall back to the full
    pipeline per execution — correct, just not cached.
    """


def engine_config(engine: Engine, method: str) -> tuple:
    """Engine-configuration component of every cache key: two engines
    with different settings must never share a plan."""
    return (method, *(getattr(engine, name) for name in Engine.SETTINGS))


@dataclass
class CachedPlan:
    """A transformed, verified, replayable plan."""

    fingerprint: str
    config: tuple
    #: catalog.schema_version when the plan was built; the cache treats
    #: any other schema version as a miss (DDL or stats changed).  Data
    #: changes (inserts) do NOT invalidate: replays re-read the base
    #: tables under a pinned snapshot, so the plan stays valid.
    catalog_version: int
    kind: str  # "transform" | "nested_iteration"
    rewritten: Select
    param_specs: list[ParamSpec]
    join_method: str
    #: Worker-shard count (and its activation threshold) baked in at
    #: plan time; part of the cache key via :func:`engine_config`.
    parallelism: int = 1
    parallel_threshold: int | None = None
    #: catalog.data_version at build time.  Purely diagnostic — the
    #: cache counts a hit at any other data version as a
    #: "snapshot-pin hit" (the plan outlived an insert).
    data_version: int = 0
    transform: GeneralTransform | None = None
    final_query: Select | None = None
    strip: int = 0
    verify_trace: list[str] = field(default_factory=list)
    #: Parameter slots the setup temp definitions read (transitively):
    #: temp contents are a pure function of (base data @ version, these
    #: values), so materialized temps are memoized per value sub-vector.
    setup_param_indices: tuple[int, ...] = ()
    #: Per-definition structural fingerprints + parameter slots (see
    #: :mod:`repro.serve.sharing`); empty for nested-iteration plans.
    share_specs: tuple = ()
    #: The plan cache's SharedSubplanRegistry, or None when the engine
    #: serves without a plan cache.  When set, materialized setup temps
    #: are published to / leased from the registry (shared across
    #: plans) instead of the private ``_temp_memo``.
    registry: object | None = field(default=None, repr=False, compare=False)
    _temp_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: (snapshot data version, sub-vector)
    #:     -> [(temp name, heap, column names), ...]
    _temp_memo: dict = field(default_factory=dict, repr=False, compare=False)
    _active: int = 0
    _released: bool = False
    #: A data event arrived while replays were in flight; the last one
    #: out flushes the memo (same deferral discipline as release()).
    _memo_stale: bool = False

    @property
    def param_count(self) -> int:
        return len(self.param_specs)

    # -- memoized temp lifecycle ------------------------------------------

    def _acquire(self) -> None:
        with self._temp_lock:
            self._active += 1

    def _release_slot(self) -> None:
        with self._temp_lock:
            self._active -= 1
            if self._active == 0 and (self._released or self._memo_stale):
                self._truncate_memo_locked()

    def release(self) -> None:
        """Free memoized temp heaps (cache eviction / invalidation).

        Deferred while executions are in flight: the last replay's
        cleanup performs the truncation, so a reader never loses pages
        under its feet.  Shared-registry handles this plan holds are
        dropped too (idempotently — double release is safe): entries no
        other plan holds are freed by the registry.
        """
        with self._temp_lock:
            self._released = True
            if self._active == 0:
                self._truncate_memo_locked()
        if self.registry is not None:
            self.registry.drop_holder(self)

    def data_changed(self) -> bool:
        """Flush memoized temps after a committed insert.

        The plan itself stays valid — replays re-read the base tables —
        but memoized temp materializations describe the pre-insert
        data.  (Memo keys carry the snapshot data version, so stale
        entries could never be *reused*; flushing reclaims their pages
        eagerly.)  Deferred while replays are in flight, like
        :meth:`release`.  Returns True when there was anything to flush.
        """
        with self._temp_lock:
            if not self._temp_memo:
                return False
            if self._active == 0:
                self._truncate_memo_locked()
            else:
                self._memo_stale = True
            return True

    def _truncate_memo_locked(self) -> None:
        for temps in self._temp_memo.values():
            for _name, heap, _columns in temps:
                heap.truncate()
        self._temp_memo.clear()
        self._memo_stale = False

    def describe(self) -> str:
        lines = [
            f"kind: {self.kind}",
            f"schema version: {self.catalog_version}",
            f"data version: {self.data_version}",
        ]
        if self.transform is not None:
            for definition in self.transform.setup:
                lines.append(f"setup: {definition.describe()}")
            lines.append(f"canonical: {to_sql(self.transform.query)}")
        lines.extend(self.verify_trace)
        return "\n".join(lines)

    # -- execution ---------------------------------------------------------

    def _executor(self, session: SessionCatalog) -> SingleLevelExecutor:
        # verify=False: verification happened at plan time.
        return SingleLevelExecutor(
            session,
            self.join_method,
            verify=False,
            parallelism=self.parallelism,
            parallel_threshold=self.parallel_threshold,
        )

    def replay(
        self, catalog: Catalog, values: tuple[object, ...] = ()
    ) -> RunReport:
        """Execute the plan with ``values`` bound, result + I/O report.

        Safe to call from multiple threads concurrently: temps go to a
        per-call session overlay, parameters bind through a context
        variable, and the whole call holds the catalog read lock.  The
        execution pins an MVCC snapshot (reusing one already pinned by
        an enclosing transaction), so every scan in the plan sees one
        committed state even while writers commit concurrently.
        """
        from repro.engine.params import bound_params

        check_binding(self.param_specs, values)
        session = SessionCatalog(catalog)
        before = session.buffer.stats()
        leases: list = []
        self._acquire()
        try:
            with (
                catalog.read_lock(),
                catalog.snapshots.pinned() as snapshot,
                bound_params(values),
            ):
                if self.kind == "nested_iteration":
                    result = NestedIterationExecutor(
                        session,
                        parallelism=self.parallelism,
                        parallel_threshold=self.parallel_threshold,
                    ).execute(self.rewritten)
                    io = session.buffer.stats() - before
                    return RunReport(
                        result=result, io=io, method="cached-nested_iteration"
                    )
                assert self.transform is not None
                assert self.final_query is not None
                try:
                    steps = self._install_temps(
                        session, values, snapshot, leases
                    )
                    final = self._executor(session)
                    relation = final.execute(self.final_query)
                    steps.append("final")
                    rows = relation.drain()
                    if self.strip:
                        rows = [row[self.strip:] for row in rows]
                    result = QueryResult(
                        columns=final.output_names(self.transform.query),
                        rows=rows,
                    )
                    io = session.buffer.stats() - before
                    return RunReport(
                        result=result,
                        io=io,
                        method="cached-transform",
                        join_method=self.join_method,
                        canonical_sql=to_sql(self.transform.query),
                        steps=steps,
                    )
                finally:
                    session.drop_temp_tables()
        finally:
            # Leases pin shared heaps for the whole execution (the
            # final query reads them); returned only after cleanup.
            for lease in leases:
                self.registry.release_lease(lease)
            self._release_slot()

    def _install_temps(
        self,
        session: SessionCatalog,
        values: tuple[object, ...],
        snapshot: object = None,
        leases: list | None = None,
    ) -> list[str]:
        """Make the plan's temp tables visible in ``session``.

        Temp contents depend only on the committed base data (pinned by
        the active snapshot) and the parameter slots their definitions
        read, so materialized heaps can be reused across calls — and,
        through the plan cache's :class:`SharedSubplanRegistry`, across
        *plans*: per definition, a structurally identical temp already
        materialized by any cached plan under the same snapshot, engine
        config, and bound values is leased instead of rebuilt.  Without
        a registry (no plan cache attached) the whole chain is memoized
        privately per (snapshot data version, value sub-vector).
        Executions under a transaction's read-your-writes overlay
        bypass both paths entirely — their temps may contain
        uncommitted rows no other reader must ever see.
        """
        from repro.txn.mvcc import TransactionSnapshot

        assert self.transform is not None
        if not self.transform.setup:
            return []
        private = isinstance(snapshot, TransactionSnapshot)
        if (
            not private
            and leases is not None
            and self.registry is not None
            and len(self.share_specs) == len(self.transform.setup)
        ):
            return self._install_temps_shared(session, values, snapshot, leases)
        memo_key = (
            getattr(snapshot, "data_version", -1),
            tuple(values[i] for i in self.setup_param_indices),
        )
        shared = None
        if not private:
            with self._temp_lock:
                shared = self._temp_memo.get(memo_key)
                if shared is not None:
                    for name, heap, columns in shared:
                        session.register_shared_temp(name, heap, columns)
        if shared is not None:
            return [f"reused {name}" for name, _heap, _columns in shared]
        steps = []
        built: list[tuple] = []
        for definition in self.transform.setup:
            executor = self._executor(session)
            relation = executor.execute(definition.query)
            columns = executor.output_names(definition.query)
            session.register_temp(definition.name, relation.heap, columns)
            built.append((definition.name, relation.heap, columns))
            steps.append(f"built {definition.name}")
        with self._temp_lock:
            if (
                not private
                and not self._released
                and memo_key not in self._temp_memo
                and len(self._temp_memo) < _TEMP_MEMO_CAP
            ):
                self._temp_memo[memo_key] = built
                for name, _heap, _columns in built:
                    session.mark_shared(name)
        return steps

    def _install_temps_shared(
        self,
        session: SessionCatalog,
        values: tuple[object, ...],
        snapshot: object,
        leases: list,
    ) -> list[str]:
        """Install temps through the cross-plan sharing registry.

        Definitions are keyed individually (cumulative fingerprints),
        so two plans sharing only a prefix of their chains still share
        that prefix.  A miss builds the definition — reading upstream
        temps already registered in the session, leased or built — and
        publishes the heap; publication transfers ownership to the
        registry (``mark_shared``), so the session's cleanup
        unregisters the name without truncating the pages.
        """
        assert self.transform is not None
        registry = self.registry
        share_config = self.config[1:]  # drop the method component
        data_version = getattr(snapshot, "data_version", -1)
        steps: list[str] = []
        for definition, spec in zip(self.transform.setup, self.share_specs):
            key = (
                spec.fingerprint,
                share_config,
                self.catalog_version,
                data_version,
                tuple(values[i] for i in spec.param_slots),
            )
            entry = registry.acquire(key, self)
            if entry is not None:
                leases.append(entry)
                session.register_shared_temp(
                    definition.name, entry.heap, entry.columns
                )
                steps.append(f"shared {definition.name}")
                continue
            executor = self._executor(session)
            relation = executor.execute(definition.query)
            columns = executor.output_names(definition.query)
            session.register_temp(definition.name, relation.heap, columns)
            entry = registry.publish(
                key, relation.heap, columns, self, session.data_version
            )
            if entry is not None:
                session.mark_shared(definition.name)
                leases.append(entry)
            steps.append(f"built {definition.name}")
        return steps


def build_plan(
    engine: Engine, select: Select, method: str, fingerprint: str
) -> CachedPlan:
    """Run the full pipeline up to (not including) data access.

    Raises :class:`~repro.errors.ParameterizedPlanError` when the plan
    shape depends on parameter values (callers switch to per-vector
    "custom" plans) and :class:`NonCacheablePlan` for shapes that
    cannot be cached at all.
    """
    if method not in ("transform", "auto", "nested_iteration"):
        raise NonCacheablePlan(
            f"method {method!r} is re-planned per call and cannot be cached"
        )
    catalog = engine.catalog
    version = catalog.schema_version
    data_version = catalog.data_version
    # A throwaway engine bound to a session overlay: temps that NEST-G
    # builds to evaluate type-A blocks stay private to this plan
    # construction.
    planner = engine.on_session()
    session = planner.catalog
    config = engine_config(engine, method)

    def plan_of(kind: str, rewritten: Select, **fields) -> CachedPlan:
        return CachedPlan(
            fingerprint=fingerprint,
            config=config,
            catalog_version=version,
            data_version=data_version,
            kind=kind,
            rewritten=rewritten,
            param_specs=derive_param_specs(
                rewritten, session, _slot_count(rewritten)
            ),
            join_method=engine.join_method,
            parallelism=engine.parallelism,
            parallel_threshold=engine.parallel_threshold,
            **fields,
        )

    with catalog.read_lock():
        try:
            rewritten = planner._prepare(select)
            if method == "nested_iteration":
                return plan_of("nested_iteration", rewritten)
            try:
                transform = planner._nest_g(rewritten, engine.join_method)
                verify_trace = (
                    planner._verify_transform(rewritten, transform)
                    if engine.verify
                    else []
                )
                engine.last_findings = planner.last_findings
                if (
                    engine.dedupe_outer
                    and transform.root_fanout_merge
                    and (
                        transform.query.group_by
                        or transform.query.has_aggregate_select()
                        or transform.query.distinct
                    )
                ):
                    # The aggregated fix-up materializes a staging temp
                    # *during* the rewrite — data access at plan time.
                    raise NonCacheablePlan(
                        "aggregated dedupe_outer rewrite stages data at "
                        "plan time"
                    )
                final_query, strip = planner._maybe_dedupe_outer(transform)
                setup_params = tuple(
                    sorted(
                        {
                            node.index
                            for definition in transform.setup
                            for node in walk(definition.query)
                            if isinstance(node, Parameter)
                        }
                    )
                )
                from repro.serve.sharing import compute_share_specs

                plan = plan_of(
                    "transform",
                    rewritten,
                    transform=transform,
                    final_query=final_query,
                    strip=strip,
                    verify_trace=verify_trace,
                    setup_param_indices=setup_params,
                    share_specs=compute_share_specs(transform),
                )
                cache = getattr(engine, "plan_cache", None)
                if cache is not None:
                    # None when sharing is disabled; an (empty) registry
                    # defines __len__, so test identity, not truth.
                    plan.registry = getattr(cache, "sharing", None)
                return plan
            except ParameterizedPlanError:
                # Must reach the caller: the plan shape depends on
                # parameter values, so the serving layer plans per
                # distinct vector instead ("custom plans").
                raise
            except TransformError:
                # Outside the algorithms' reach: under method="auto"
                # cache a nested-iteration plan instead.
                if method != "auto":
                    raise
                return plan_of("nested_iteration", rewritten)
        finally:
            session.drop_temp_tables()


def _slot_count(select: Select) -> int:
    from repro.serve.normalize import user_param_count

    return user_param_count(select)
