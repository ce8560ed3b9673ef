"""Public API: the :class:`Database` facade.

A :class:`Database` bundles a simulated disk, a buffer pool of ``B``
pages, a catalog, and a query engine.  It is the entry point the
examples and benchmarks use::

    from repro import Database

    db = Database(buffer_pages=8)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"])
    db.insert("PARTS", [(3, 6), (10, 1), (8, 0)])

    result = db.query("SELECT PNUM FROM PARTS WHERE QOH > 0")
    report = db.run("SELECT ...", method="transform")   # rows + page I/O
    print(db.explain("SELECT ..."))                      # NEST-G plan
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.catalog.catalog import Catalog
from repro.catalog.schema import Column, ColumnType, TableSchema
from repro.core.pipeline import Engine, RunReport
from repro.engine.nested_iteration import QueryResult
from repro.errors import CatalogError, ReproError
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.stats import IOStats

#: Accepted column-type spellings for :meth:`Database.create_table`.
_TYPE_NAMES = {
    "int": ColumnType.INT,
    "integer": ColumnType.INT,
    "float": ColumnType.FLOAT,
    "real": ColumnType.FLOAT,
    "text": ColumnType.TEXT,
    "string": ColumnType.TEXT,
    "date": ColumnType.DATE,
    "any": ColumnType.ANY,
}


class Database:
    """An in-memory, page-accounted database with nested-query optimization.

    Args:
        buffer_pages: the buffer pool size ``B`` (the paper's
            main-memory buffer space; default 32).
        join_method: ``"merge"`` (sort-merge, the paper's choice),
            ``"nested"`` (nested loops) or ``"hash"`` (build/probe
            joins, hash GROUP BY and DISTINCT — no sorted inputs) for
            transformed plans.
        plan_cache_size: capacity of the serving-layer plan cache used
            by :meth:`execute_cached` / :meth:`prepare` (default 128).
        io_delay: simulated per-page-read latency in seconds (sleeps
            outside all locks, so concurrent reads overlap — used by
            the throughput benchmark to model I/O-bound workloads).
        wal_path: file path for the write-ahead log.  Default None
            keeps the log in memory (same format, no files); pass a
            path to make commits durable and recoverable via
            :func:`repro.txn.recover`.

    The plan-shaping argument becomes one frozen, validated
    :class:`~repro.config.ExecConfig` (``db.engine.config``): a misspelt
    ``join_method`` raises :class:`~repro.errors.ReproError` here, not
    at the first query.
    Reconfigure a live database by assigning
    ``db.engine.config = dataclasses.replace(db.engine.config, ...)``.
    """

    def __init__(
        self,
        buffer_pages: int = 32,
        join_method: str = "merge",
        plan_cache_size: int = 128,
        io_delay: float = 0.0,
        wal_path: str | None = None,
    ) -> None:
        from repro.serve.cache import PlanCache
        from repro.txn import TransactionManager, WriteAheadLog

        self.disk = DiskManager(io_delay=io_delay)
        self.buffer = BufferPool(self.disk, capacity=buffer_pages)
        self.catalog = Catalog(self.buffer)
        self.wal = WriteAheadLog(wal_path)
        self.txn = TransactionManager(self.catalog, self.wal)
        self.plan_cache = PlanCache(capacity=plan_cache_size)
        self.plan_cache.attach(self.catalog)
        self.engine = Engine(
            self.catalog,
            join_method=join_method,
            plan_cache=self.plan_cache,
        )

    # -- DDL / DML -------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[str | tuple[str, str]],
        primary_key: Sequence[str] = (),
        rows_per_page: int | None = None,
    ) -> None:
        """Create a table.

        Columns are names (INT by default) or ``(name, type)`` pairs
        with type one of int/float/text/date.  ``rows_per_page``
        controls page geometry — fix it when an experiment needs a
        relation to occupy a specific number of pages.
        """
        built: list[Column] = []
        for spec in columns:
            if isinstance(spec, str):
                built.append(Column(spec.upper()))
            else:
                column_name, type_name = spec
                ctype = _TYPE_NAMES.get(type_name.lower())
                if ctype is None:
                    raise CatalogError(f"unknown column type {type_name!r}")
                built.append(Column(column_name.upper(), ctype))
        table_schema = TableSchema(
            name.upper(),
            tuple(built),
            tuple(key.upper() for key in primary_key),
        )
        with self.catalog.write_lock():
            self.catalog.create_table(table_schema, rows_per_page=rows_per_page)
        self.txn.log_schema(
            "create_table",
            table=table_schema.name,
            columns=[[c.name, c.ctype.name.lower()] for c in built],
            primary_key=[key.upper() for key in primary_key],
            rows_per_page=rows_per_page,
        )

    def drop_table(self, name: str) -> None:
        with self.catalog.write_lock():
            self.catalog.drop_table(name.upper())
        self.txn.log_schema("drop_table", table=name.upper())

    def insert(self, table: str, rows: Iterable[tuple]) -> int:
        """Insert rows atomically; returns the number inserted.

        Runs as an autocommit transaction: the rows are WAL-logged,
        become visible to readers in one atomic snapshot publication at
        commit, and a failure part-way (validation or crash) leaves the
        table untouched.  Concurrent reads are never blocked — they
        keep scanning their pinned snapshots.
        """
        txn = self.txn.begin(self)
        try:
            count = txn.insert(table, rows)
        except Exception:
            txn.rollback()
            raise
        txn.commit()
        return count

    def begin(self):
        """Start an explicit transaction (see :class:`repro.txn.Transaction`).

        Usable as a context manager::

            with db.begin() as txn:
                txn.insert("PARTS", [(99, 5)])
                txn.query("SELECT ...")   # sees own writes, isolated
        """
        return self.txn.begin(self)

    def tables(self) -> list[str]:
        return self.catalog.table_names()

    def create_index(self, table: str, column: str) -> None:
        """Build an ISAM index on ``table.column``.

        Nested iteration probes registered indexes automatically (the
        System R access-path accelerator), and the cost-based planner
        takes them into account.  Indexes are rebuilt after inserts.
        """
        with self.catalog.write_lock():
            self.catalog.create_index(table.upper(), column.upper())
        self.txn.log_schema(
            "create_index", table=table.upper(), column=column.upper()
        )

    def analyze(self, table: str | None = None) -> None:
        """Collect optimizer statistics (ANALYZE), one table or all.

        Statistics sharpen the cost-based planner's selectivity and
        temp-size estimates; the collecting scans are charged page I/O
        like any other scan.
        """
        from repro.catalog.statistics import analyze_all, analyze_table

        with self.catalog.write_lock(), self.catalog.snapshots.pinned():
            if table is None:
                analyze_all(self.catalog)
            else:
                analyze_table(self.catalog, table.upper())

    # -- statements ----------------------------------------------------------

    def execute(self, sql: str, method: str = "auto") -> QueryResult | str:
        """Execute any statement: SELECT, CREATE TABLE, INSERT, DROP.

        SELECT returns a :class:`QueryResult` by the route of
        :meth:`query` (a kept plan, private temps); DDL/DML statements
        return a short status message.
        """
        from repro.sql.ast import Select
        from repro.sql.statements import (
            CreateTable,
            DropTable,
            InsertValues,
            parse_statement,
        )

        statement = parse_statement(sql)
        if isinstance(statement, Select):
            return self.query(sql, method=method)
        if isinstance(statement, CreateTable):
            self.create_table(
                statement.name,
                [(name, ctype) for name, ctype in statement.columns],
                primary_key=statement.primary_key,
            )
            return f"created table {statement.name.upper()}"
        if isinstance(statement, InsertValues):
            count = self.insert(statement.table, statement.rows)
            return f"inserted {count} row(s) into {statement.table.upper()}"
        if isinstance(statement, DropTable):
            self.drop_table(statement.name)
            return f"dropped table {statement.name.upper()}"
        raise ReproError(f"unsupported statement: {statement!r}")

    # -- queries -----------------------------------------------------------

    def query(self, sql: str, method: str = "auto") -> QueryResult:
        """Run a query, returning just the result rows.

        Resolves through the plan cache as :meth:`execute_cached` does
        — the text's predicate literals are parameterized, so a repeated
        shape replays a kept, already-verified plan and only a miss
        plans — but replays it ad hoc: every temp is built privately and
        freed at the end; of the shared registry only the one-row
        entries of type-A values are leased and published.  Hits and
        misses count in :meth:`cache_stats`.  Inside a transaction
        (``txn.query``) the replay shares nothing.
        """
        return self.engine.run_cached(sql, method=method, adhoc=True).result

    def run(self, sql: str, method: str = "transform") -> RunReport:
        """Run a query, returning the full report (rows, I/O, trace).

        Plans and discards (:meth:`Engine.run
        <repro.core.pipeline.Engine.run>`): no plan cache, nothing
        shared; the I/O is the replay's, type-A blocks included.
        """
        return self.engine.run(sql, method=method)

    def explain(self, sql: str) -> str:
        """The transformation plan NEST-G produces for a query."""
        return self.engine.explain(sql)

    # -- serving -----------------------------------------------------------

    def prepare(self, sql: str, method: str = "auto"):
        """Plan a parameterized statement once; bind + execute many times.

        Returns a :class:`repro.serve.PreparedStatement`.  Bind values
        positionally (``?`` markers) or by name (``:name`` markers)::

            stmt = db.prepare("SELECT PNUM FROM PARTS WHERE QOH >= ?")
            stmt.execute((10,))
            stmt = db.prepare("... WHERE QOH BETWEEN :lo AND :hi")
            stmt.execute({"lo": 0, "hi": 5})
        """
        return self.engine.prepare(sql, method=method)

    def execute_cached(
        self, sql: str, params: tuple = (), method: str = "auto"
    ) -> RunReport:
        """Run a query through the plan cache (see ``plan_cache_size``).

        The SQL is normalized — predicate literals are parameterized and
        the text canonicalized — so textual/literal variants of one
        query shape share a cached, already-verified plan.
        """
        return self.engine.run_cached(sql, params=params, method=method)

    def cache_stats(self):
        """Hit/miss/invalidation/eviction counters of the plan cache:
        :meth:`query`, :meth:`execute_cached` and prepared statements
        all resolve through it, so all three are counted."""
        return self.plan_cache.stats()

    def txn_stats(self) -> str:
        """One-paragraph transaction/WAL status (commits, versions, log)."""
        return self.txn.describe()

    # -- statistics ----------------------------------------------------------

    def io_stats(self) -> IOStats:
        """Cumulative page I/O since construction (or the last reset)."""
        return self.buffer.stats()

    def reset_io_stats(self) -> None:
        self.buffer.reset_stats()

    def cold_cache(self) -> None:
        """Flush and empty the buffer pool (for repeatable measurements)."""
        self.buffer.evict_all()
