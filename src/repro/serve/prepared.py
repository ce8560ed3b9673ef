"""Prepared statements: parse once, bind and execute many times.

``Engine.prepare(sql)`` parses a statement with ``?`` or ``:name``
markers once and keeps what belongs to the *text*: the tree, its
fingerprint, the parameter names and the bind contracts.  The plan is
not the statement's: each ``execute(values)`` resolves it through
:meth:`repro.serve.cache.PlanCache.resolve` — the rule
``execute_cached`` resolves by — and binds the vector straight into it
(closures read parameters through a context variable, so nothing is
recompiled).  One plan serves every vector, a marker inside a type-A
block included: the block is a value link the replay evaluates with the
vector bound (what real systems call a generic plan, with no custom
ones to fall back to).

Because the cache key is read per execute, a statement follows
``engine.config`` when it is reassigned, and one staleness rule covers
it (:meth:`~repro.serve.plan.CachedPlan.valid_at`): a plan is re-built
(re-running verification and lint) when the catalog's *schema* version
moved — DDL between executions can never leave a stale plan running.
Plain inserts bump only the data version: every plan survives them and
its replay pins the current MVCC snapshot, so fresh rows — and the
values of type-A blocks over them — appear without re-planning.

Statements are safe to execute from multiple threads concurrently.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.pipeline import Engine, RunReport, prepare_query
from repro.errors import BindError, ReproError
from repro.serve.batch import (
    BatchIneligible,
    BatchReport,
    build_batch_plan,
    execute_batch_plan,
    total_io,
)
from repro.serve.binding import check_binding, derive_param_specs
from repro.serve.cache import PlanCache
from repro.serve.normalize import fingerprint
from repro.serve.plan import CachedPlan
from repro.sql.ast import Parameter, Select, user_param_count, walk
from repro.sql.parser import parse


class PreparedStatement:
    """A parsed, bind-ready statement handle."""

    def __init__(self, engine: Engine, sql: str, method: str = "auto") -> None:
        self.engine = engine
        self.sql = sql
        self.method = method
        self.select: Select = parse(sql)
        self.param_count = user_param_count(self.select)
        self.named_params: dict[str, int] = {}
        for node in walk(self.select):
            if isinstance(node, Parameter) and node.name:
                self.named_params[node.name] = node.index
        self.fingerprint = fingerprint(self.select)
        #: Where the plans are kept: the engine's plan cache, or — on an
        #: engine without one — a private cache.  ``Engine.plan`` hands
        #: a registry out only for the engine's own cache, so plans kept
        #: in a private one share nothing and free every temp per replay.
        self._cache: PlanCache = (
            engine.plan_cache if engine.plan_cache is not None else PlanCache()
        )
        self._specs_version: int | None = None
        self.param_specs = self._derive_specs()
        # Plan now: what cannot be planned fails at prepare time, and
        # the first execute is a cache hit.
        self._resolve()

    # -- planning ----------------------------------------------------------

    def _derive_specs(self):
        catalog = self.engine.catalog
        with catalog.read_lock():
            rewritten = prepare_query(self.select, catalog)
            self._specs_version = catalog.schema_version
            return derive_param_specs(rewritten, catalog, self.param_count)

    def _resolve(self) -> CachedPlan:
        """The plan every vector replays."""
        return self._cache.resolve(
            self.engine, self.select, self.fingerprint, self.method
        )

    def close(self) -> None:
        """Discard the statement's plans from the cache, and with them
        the temps they hold in the shared registry (SQL's DEALLOCATE).
        A later ``execute`` simply plans again."""
        self._cache.discard(self.fingerprint, self.method)

    def describe(self) -> str:
        lines = [f"parameters: {self.param_count}"]
        for spec in self.param_specs:
            wanted = (
                " or ".join(t.__name__ for t in spec.allowed_types)
                if spec.allowed_types
                else "any"
            )
            null = "nullable" if spec.allow_null else "not null"
            lines.append(f"  {spec.label()}: {wanted}, {null}")
        lines.append(self._resolve().describe())
        return "\n".join(lines)

    # -- binding -----------------------------------------------------------

    def _vector(
        self, values: Sequence[object] | Mapping[str, object]
    ) -> tuple[object, ...]:
        if isinstance(values, Mapping):
            vector: list[object] = [_MISSING] * self.param_count
            for name, value in values.items():
                index = self.named_params.get(name.upper())
                if index is None:
                    raise BindError(f"statement has no parameter :{name}")
                vector[index] = value
            missing = [i for i, v in enumerate(vector) if v is _MISSING]
            if missing:
                raise BindError(
                    "missing value(s) for parameter(s) "
                    + ", ".join(str(i + 1) for i in missing)
                )
            return tuple(vector)
        return tuple(values)

    def _check(self, vector: tuple[object, ...]) -> None:
        if self._specs_version != self.engine.catalog.schema_version:
            # Schema/stats moved: re-derive the bind contracts too (a
            # column's type may have changed across drop/recreate).
            self.param_specs = self._derive_specs()
        check_binding(self.param_specs, vector)

    # -- execution ---------------------------------------------------------

    def execute(
        self, values: Sequence[object] | Mapping[str, object] = ()
    ) -> RunReport:
        """Bind ``values`` and run; returns the full run report."""
        vector = self._vector(values)
        self._check(vector)
        catalog = self.engine.catalog
        # One read lock over resolve and replay: no DDL lands between.
        with catalog.read_lock():
            return self._resolve().replay(catalog, vector)

    def executemany(
        self, vectors: Sequence[Sequence[object] | Mapping[str, object]]
    ) -> list[RunReport]:
        """Bind and run every vector; one report per vector, in order.

        Generic transform plans run the whole batch as ONE set-oriented
        plan: the vectors become an in-memory binding relation joined
        through the temp chain and final query (see
        :mod:`repro.serve.batch`).  Shapes the batching rewrite cannot
        prove correct fall back to a per-vector loop.  Either way a
        single MVCC snapshot is pinned for the whole batch, so every
        vector's result reflects the same committed state even while
        writers commit concurrently.
        """
        return self.execute_batch(vectors).reports

    def execute_batch(
        self, vectors: Sequence[Sequence[object] | Mapping[str, object]]
    ) -> BatchReport:
        """Like :meth:`executemany`, returning the full batch report."""
        bound = [self._vector(vector) for vector in vectors]
        catalog = self.engine.catalog
        if len(bound) < 2 or self.param_count == 0:
            return self._loop_batch(bound)
        for vector in bound:
            self._check(vector)
        with catalog.read_lock():
            plan = self._resolve()
            # The set-oriented plan rides on the plan it was derived
            # from: None until asked for, False when the shape does not
            # batch.
            if plan.batch_plan is None:
                try:
                    plan.batch_plan = build_batch_plan(plan, catalog)
                except BatchIneligible:
                    plan.batch_plan = False
            batch_plan = plan.batch_plan
            if not batch_plan:
                return self._loop_batch(bound)
            try:
                reports = execute_batch_plan(plan, batch_plan, catalog, bound)
            except ReproError:
                # A shape the structural guards missed surfaced at run
                # time; remember the plan does not batch and fall back.
                plan.batch_plan = False
                return self._loop_batch(bound)
        return BatchReport(
            reports=reports,
            strategy="batched",
            batch_size=len(bound),
            io=reports[0].io if reports else total_io(reports),
        )

    def _loop_batch(self, vectors: list[tuple[object, ...]]) -> BatchReport:
        catalog = self.engine.catalog
        # One snapshot for the whole batch: without this, each execute
        # re-pins and a concurrent commit could split the batch across
        # two data versions.  Reentrant — executes reuse the pin.
        with catalog.snapshots.pinned():
            reports = [self.execute(vector) for vector in vectors]
        return BatchReport(
            reports=reports,
            strategy="loop",
            batch_size=len(vectors),
            io=total_io(reports),
        )


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()
