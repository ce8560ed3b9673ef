"""End-to-end query pipeline: parse → rewrite → transform → execute.

:class:`Engine` is the orchestrator the examples and benchmarks use.
It offers the two evaluation strategies the paper compares:

* ``method="nested_iteration"`` — System R's strategy (the baseline);
* ``method="transform"`` — rewrite the query with section 8's predicate
  extensions, run NEST-G (NEST-A / NEST-N-J / NEST-JA2), build the temp
  tables, and evaluate the canonical query with the chosen join method;
* ``method="auto"`` — try the transformation, fall back to nested
  iteration for queries outside the algorithms' reach;
* ``method="cost"`` — let the section-7 cost model pick one of the
  above (and the join method) from catalog statistics.

Every statement takes one path: :func:`repro.serve.plan.build_plan`
plans it — reading no data — and
:meth:`repro.serve.plan.CachedPlan.replay` executes the plan.
:meth:`Engine.run` does both once, replays privately and throws the
plan away; :meth:`Engine.run_cached` (``Database.query``, ``txn.query``
and ``execute_cached``) and prepared statements keep it in the plan
cache.  Every run returns a :class:`RunReport` with
the result rows, the page I/O consumed (the paper's cost measure), and
the transformation trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.config import ExecConfig
from repro.core.classify import catalog_resolver
from repro.core.nest_g import GeneralTransform, nest_g
from repro.core.predicates import rewrite_extended_predicates
from repro.engine.nested_iteration import QueryResult
from repro.errors import ReproError, TransformError
from repro.sql.ast import Select
from repro.sql.parser import parse
from repro.sql.printer import to_sql
from repro.storage.stats import IOStats


@dataclass
class RunReport:
    """Everything a benchmark wants to know about one query run."""

    result: QueryResult
    io: IOStats
    method: str
    join_method: str | None = None
    canonical_sql: str | None = None
    setup_sql: list[str] = field(default_factory=list)
    trace: list[str] = field(default_factory=list)
    steps: list[str] = field(default_factory=list)
    temp_pages: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [f"method: {self.method}"]
        if self.join_method:
            lines.append(f"join method: {self.join_method}")
        for sql in self.setup_sql:
            lines.append(f"setup: {sql}")
        if self.canonical_sql:
            lines.append(f"canonical: {self.canonical_sql}")
        lines.append(self.io.format())
        return "\n".join(lines)


def prepare_query(select: Select, catalog: Catalog) -> Select:
    """Qualify all column references and rewrite extended predicates.

    Run once per plan: the planner, NEST-G and the verifier all reason
    about the tree this returns.
    """
    from repro.sql.ast import TableRef, walk
    from repro.sql.qualify import qualify

    from repro.errors import CatalogError

    bindings: dict[str, str] = {}
    for node in walk(select):
        if isinstance(node, TableRef):
            if node.semi:
                # Plan syntax: NEST-G's mark on a merged inner temp.
                raise ReproError(
                    f"SEMI {node.binding}: a statement cannot mark a table "
                    "as semi-joined; write the IN predicate instead"
                )
            if not catalog.has_table(node.name):
                raise CatalogError(f"no such table: {node.name}")
            previous = bindings.setdefault(node.binding, node.name)
            if previous != node.name:
                raise TransformError(
                    f"binding {node.binding!r} refers to different tables "
                    "in different blocks; rename the aliases"
                )
    base = catalog_resolver(catalog)

    def has_column(binding: str, column: str) -> bool:
        table = bindings.get(binding)
        if table is not None and catalog.has_table(table):
            return catalog.schema_of(table).has_column(column)
        return base(binding, column)

    def list_columns(binding: str) -> list[str] | None:
        table = bindings.get(binding, binding)
        if catalog.has_table(table):
            return list(catalog.schema_of(table).column_names)
        return None

    qualified = qualify(select, has_column, list_columns=list_columns)
    return rewrite_extended_predicates(qualified)


class Engine:
    """Runs queries against a catalog by either evaluation strategy.

    A thin facade over the one statement path: it holds the catalog,
    the :class:`~repro.config.ExecConfig` every plan it builds runs
    under and an optional plan cache.  The settings are accepted as
    keyword arguments and forwarded once into ``ExecConfig(**settings)``
    (an unknown one raises ``TypeError``); reconfiguring a live engine
    is ``engine.config = dataclasses.replace(engine.config, ...)``.
    """

    def __init__(self, catalog: Catalog, *, plan_cache=None, **settings) -> None:
        self.catalog = catalog
        self.config = ExecConfig(**settings)
        #: Optional repro.serve.PlanCache: where run_cached() and this
        #: engine's prepared statements keep their plans.
        self.plan_cache = plan_cache

    # -- public API ----------------------------------------------------------

    def plan(self, select: Select, method: str, fingerprint: str = ""):
        """Build a statement's :class:`~repro.serve.plan.CachedPlan`
        under this engine's config, sharing temps through the plan
        cache's registry when there is a cache.  Every transform plan
        is verified: an error finding raises.
        """
        # Function-level: repro.serve.plan imports this module.
        from repro.serve.plan import build_plan

        registry = None if self.plan_cache is None else self.plan_cache.sharing
        return build_plan(
            self.catalog, self.config, select, method, fingerprint,
            registry=registry,
        )

    def run(self, query: str | Select, method: str = "transform") -> RunReport:
        """Execute a query and report rows plus page I/O.

        Plan and discard: ``Database.run``'s route, and the §7 page
        counts are this path's.  The statement is planned
        (:func:`repro.serve.plan.build_plan`, which reads no data) and
        replayed once privately — the plan is released before it runs,
        so it leases and publishes nothing: every temp is built and
        dropped, every type-A value is held in memory.  Both steps run
        under one catalog read lock.  Safe to call from many threads.
        """
        select = parse(query) if isinstance(query, str) else query
        with self.catalog.read_lock():
            plan = self.plan(select, method)
            plan.release()
            return plan.replay(self.catalog)

    def prepare(self, sql: str, method: str = "auto"):
        """Plan a parameterized statement once; bind + execute many times.

        Returns a :class:`repro.serve.PreparedStatement` whose ``?`` /
        ``:name`` markers bind directly into the compiled plan.
        """
        from repro.serve.prepared import PreparedStatement

        return PreparedStatement(self, sql, method=method)

    def run_cached(
        self, sql: str, params: tuple = (), method: str = "auto", adhoc: bool = False
    ) -> RunReport:
        """Execute through the plan cache (requires ``plan_cache``).

        The SQL is normalized (predicate literals parameterized, text
        canonicalized) and resolved by fingerprint + method + config
        (:meth:`repro.serve.cache.PlanCache.resolve`, as a prepared
        statement's is): on a hit the stored plan replays without
        re-planning or re-verification.  One plan serves every literal,
        those inside type-A blocks included.  Resolve and replay hold
        one catalog read lock, so no DDL lands between them.

        ``adhoc`` is ``Database.query``'s replay: the same kept plans,
        with private temps and no bind contract on the text's literals
        (:meth:`~repro.serve.plan.CachedPlan.replay`).  Under a
        transaction's snapshot (``txn.query``) the replay shares
        nothing.  The report's I/O is the replay's alone; a miss plans
        first.
        """
        from repro.errors import BindError
        from repro.serve.normalize import fingerprint, parameterize
        from repro.sql.ast import user_param_count

        if self.plan_cache is None:
            raise ReproError("engine has no plan cache; pass plan_cache=")
        select = parse(sql)
        declared = user_param_count(select)
        vector = tuple(params)
        if len(vector) != declared:
            raise BindError(
                f"statement takes {declared} parameter(s), got {len(vector)}"
            )
        normalized, extracted = parameterize(select, declared)
        with self.catalog.read_lock():
            plan = self.plan_cache.resolve(
                self, normalized, fingerprint(normalized), method
            )
            return plan.replay(self.catalog, vector + extracted, adhoc=adhoc)

    def transform(self, query: str | Select) -> GeneralTransform:
        """Transform without executing the final query.

        Builds no temps and reads no data: a type-A block is a value
        link of the result, not a constant.
        """
        select = parse(query) if isinstance(query, str) else query
        with self.catalog.read_lock():
            return nest_g(prepare_query(select, self.catalog), self.catalog)

    def explain(self, query: str | Select) -> str:
        """Human-readable transformation plan for a query.

        Builds no temps and reads no data; a type-A block's value link
        prints as ``ATEMP_n = (…) → ?k``, the slot the canonical query
        reads in its place.
        """
        from repro.sql.printer import to_sql_pretty

        select = parse(query) if isinstance(query, str) else query
        with self.catalog.read_lock():
            rewritten = prepare_query(select, self.catalog)
            transform = nest_g(rewritten, self.catalog)
        lines = ["-- original query", to_sql_pretty(rewritten), ""]
        lines.append("-- transformation trace")
        lines.extend(f"--   {line}" for line in transform.trace)
        lines.append("-- temp tables")
        for definition in transform.setup:
            lines.append(definition.describe())
        lines.append("-- canonical query")
        lines.append(to_sql(transform.query))
        return "\n".join(lines)


# -- the planning step after prepare_query and nest_g, called by
# -- repro.serve.plan.build_plan ---------------------------------------------


def verify_plan(
    rewritten: Select,
    transform: GeneralTransform,
    catalog: Catalog,
    join_method: str,
) -> str:
    """Mandatory post-transform static checks: an error finding raises,
    carrying its diagnostics; else returns the outcome's trace line.

    The scope check on the *qualified* input AST runs first (PV003
    enforces that qualification really qualified everything), then
    the plan verifier walks the temp chain and canonical query, and
    the Kim-bug lint looks for the paper's section 5 shapes.  Once per
    plan, which is why a replay runs its blocks with ``verify=False``.
    """
    from repro.analysis import lint_transform, verify_nested, verify_transform

    findings = verify_nested(rewritten, catalog, require_qualified=True)
    plan_findings, temps = verify_transform(
        transform, catalog, join_method=join_method
    )
    findings.extend(plan_findings)
    findings.extend(lint_transform(transform, catalog, temps))
    findings.raise_errors("static verification of transformed plan")
    if findings:
        return f"verifier: {len(findings)} finding(s), no errors"
    return "verifier: plan ok"
