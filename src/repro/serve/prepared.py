"""Prepared statements: plan once, bind and execute many times.

``Engine.prepare(sql)`` parses and plans a statement with ``?`` or
``:name`` markers once; each ``execute(values)`` binds the vector
straight into the already-compiled plan (closures read parameters
through a context variable, so nothing is recompiled) and replays it.

Two modes, chosen automatically at prepare time:

* **generic** — one parameterized plan serves every vector (the common
  case; what real systems call a generic plan);
* **custom** — the plan's shape depends on parameter values (a bind
  parameter inside a type-A block whose result is folded into the plan
  as a constant); a small per-vector plan cache is kept instead,
  mirroring the generic-vs-custom plan split in production databases.

Both re-check the plan per execute
(:meth:`~repro.serve.plan.CachedPlan.valid_at`) and re-plan
(re-running verification and lint) when the catalog's *schema* version
moved — DDL between executions can never leave a stale plan running.
Plain inserts bump only the data version: a plan that folded no data
in survives and its replay pins the current MVCC snapshot, so fresh
rows appear without re-planning; one that did (every custom plan, and
a generic one over a parameterless type-A block) is re-planned.

Statements are safe to execute from multiple threads concurrently.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence

from repro.core.pipeline import Engine, RunReport, prepare_query
from repro.errors import BindError, ParameterizedPlanError, ReproError
from repro.serve.batch import (
    BatchIneligible,
    BatchPlan,
    BatchReport,
    build_batch_plan,
    execute_batch_plan,
    total_io,
)
from repro.serve.binding import check_binding, derive_param_specs
from repro.serve.normalize import fingerprint, substitute_params, user_param_count
from repro.serve.plan import CachedPlan
from repro.sql.ast import Parameter, Select, walk
from repro.sql.parser import parse
from repro.storage.locks import make_lock

#: Custom-plan (per-vector) cache bound per statement.
_CUSTOM_PLAN_CAP = 16


class PreparedStatement:
    """A parsed, planned, bind-ready statement handle."""

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
        self._lock = make_lock("serve.prepared")
        self._plan: CachedPlan | None = None
        self._custom: OrderedDict[tuple, CachedPlan] = OrderedDict()
        #: (generic plan, derived batch plan or None) — see executemany.
        self._batch: tuple[CachedPlan, BatchPlan | None] | None = None
        self._specs_version: int | None = None
        self.param_specs = self._derive_specs()
        self.mode = self._plan_initial()

    # -- planning ----------------------------------------------------------

    def _derive_specs(self):
        catalog = self.engine.catalog
        with catalog.read_lock():
            rewritten = prepare_query(self.select, catalog, self.engine.config)
            self._specs_version = catalog.schema_version
            return derive_param_specs(rewritten, catalog, self.param_count)

    def _plan_initial(self) -> str:
        try:
            self._plan = self.engine.plan(
                self.select, self.method, self.fingerprint
            )
            return "generic"
        except ParameterizedPlanError:
            return "custom"

    def close(self) -> None:
        """Release the statement's plans and the temps they hold in the
        shared registry (SQL's DEALLOCATE).  A later ``execute`` simply
        plans again."""
        with self._lock:
            plans = [*self._custom.values()]
            if self._plan is not None:
                plans.append(self._plan)
            self._plan = None
            self._custom.clear()
            self._batch = None
        for plan in plans:
            plan.release()

    def describe(self) -> str:
        lines = [f"mode: {self.mode}", f"parameters: {self.param_count}"]
        for spec in self.param_specs:
            wanted = (
                " or ".join(t.__name__ for t in spec.allowed_types)
                if spec.allowed_types
                else "any"
            )
            null = "nullable" if spec.allow_null else "not null"
            lines.append(f"  {spec.label()}: {wanted}, {null}")
        if self._plan is not None:
            lines.append(self._plan.describe())
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

    # -- execution ---------------------------------------------------------

    def execute(
        self, values: Sequence[object] | Mapping[str, object] = ()
    ) -> RunReport:
        """Bind ``values`` and run; returns the full run report."""
        vector = self._vector(values)
        catalog = self.engine.catalog
        version = catalog.schema_version
        if self._specs_version != version:
            # Schema/stats moved: re-derive the bind contracts too (a
            # column's type may have changed across drop/recreate).
            self.param_specs = self._derive_specs()
        check_binding(self.param_specs, vector)

        if self.mode == "custom":
            return self._run_custom(vector, version)
        return self._generic_plan(version).replay(catalog, vector)

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
        if len(bound) < 2 or self.mode != "generic" or self.param_count == 0:
            return self._loop_batch(bound)
        version = catalog.schema_version
        if self._specs_version != version:
            self.param_specs = self._derive_specs()
        for vector in bound:
            check_binding(self.param_specs, vector)
        plan = self._generic_plan(version)
        with self._lock:
            batch_plan = self._batch_plan_for(plan)
        if batch_plan is None:
            return self._loop_batch(bound)
        try:
            reports = execute_batch_plan(plan, batch_plan, catalog, bound)
        except ReproError:
            # A shape the structural guards missed surfaced at run
            # time; remember the plan does not batch and fall back.
            with self._lock:
                self._batch = (plan, None)
            return self._loop_batch(bound)
        return BatchReport(
            reports=reports,
            strategy="batched",
            batch_size=len(bound),
            io=reports[0].io if reports else total_io(reports),
        )

    def _batch_plan_for(self, plan: CachedPlan) -> BatchPlan | None:
        """The derived batch plan for ``plan`` (cached; None = no batch)."""
        cached = self._batch
        if cached is not None and cached[0] is plan:
            return cached[1]
        try:
            batch_plan = build_batch_plan(plan, self.engine.catalog)
        except BatchIneligible:
            batch_plan = None
        self._batch = (plan, batch_plan)
        return batch_plan

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

    def _generic_plan(self, version: int) -> CachedPlan:
        """The generic plan, re-planned when it is no longer valid."""
        data_version = self.engine.catalog.data_version
        with self._lock:
            plan = self._plan
            if plan is None or not plan.valid_at(version, data_version):
                if plan is not None:
                    plan.release()
                # Re-plan *and* re-verify: build_plan runs the static
                # verifier + lint again against the new catalog state.
                self._plan = plan = self.engine.plan(
                    self.select, self.method, self.fingerprint
                )
        return plan

    def _run_custom(
        self, vector: tuple[object, ...], version: int
    ) -> RunReport:
        data_version = self.engine.catalog.data_version
        with self._lock:
            plan = self._custom.get(vector)
            if plan is not None and not plan.valid_at(version, data_version):
                del self._custom[vector]
                plan.release()
                plan = None
            if plan is None:
                literal = substitute_params(self.select, vector)
                plan = self.engine.plan(literal, self.method, self.fingerprint)
                while len(self._custom) >= _CUSTOM_PLAN_CAP:
                    _vec, evicted = self._custom.popitem(last=False)
                    evicted.release()
                self._custom[vector] = plan
            else:
                self._custom.move_to_end(vector)
        # The vector's values are baked into the custom plan as
        # literals; nothing is left to bind.
        return plan.replay(self.engine.catalog, ())


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()
