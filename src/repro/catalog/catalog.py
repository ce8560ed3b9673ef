"""The table catalog: schemas bound to heap files.

One :class:`Catalog` owns one buffer pool and hence one simulated disk;
a catalog is the unit the executors and benchmarks operate on.  Query
transformations create *temporary tables* (the paper's ``Rt``, ``Rt2``,
``Rt3`` ...) through :meth:`Catalog.create_temp_name` and drop them
after the final join.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

from repro.catalog.schema import TableSchema
from repro.errors import CatalogError
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile
from repro.storage.locks import RWLock, make_lock
from repro.txn.mvcc import SnapshotManager

#: Change events that alter what plans are *valid*: shapes, access
#: paths, or the statistics the cost-based planner chose on.  These
#: purge the plan cache outright.
SCHEMA_EVENTS = frozenset(
    {"create_table", "drop_table", "create_index", "analyze"}
)

#: Change events that alter only which *rows* exist.  Cached plans
#: survive these — they re-read the base tables and re-evaluate their
#: type-A blocks on every replay; shared temp materializations go
#: stale.
DATA_EVENTS = frozenset({"insert"})


def event_class(event: str) -> str:
    """Classify a change event: ``"schema"`` or ``"data"``."""
    if event in SCHEMA_EVENTS:
        return "schema"
    if event in DATA_EVENTS:
        return "data"
    raise CatalogError(f"unknown catalog change event {event!r}")


@dataclass
class TableEntry:
    """A catalog entry: schema plus backing heap file."""

    schema: TableSchema
    heap: HeapFile
    is_temp: bool = False
    #: ``(column positions, unique)``: the order the heap's rows are in.
    #: Only temps claim one — a base table is an append-ordered heap and
    #: its primary key is not enforced unique.
    order: tuple[tuple[int, ...], bool] = ((), False)

    @property
    def name(self) -> str:
        return self.schema.name


class Catalog:
    """Name → table mapping over a shared buffer pool."""

    def __init__(self, buffer: BufferPool) -> None:
        self.buffer = buffer
        self._tables: dict[str, TableEntry] = {}
        self._temp_counter = 0
        self._temp_lock = make_lock("catalog.temp_names")
        #: Populated by repro.catalog.statistics.analyze_table.
        self.statistics: dict[str, "object"] = {}
        #: (table, column) → IsamIndex, via create_index().
        self.indexes: dict[tuple[str, str], "object"] = {}
        #: Monotone counter bumped by plan-*invalidating* changes: DDL
        #: (CREATE/DROP TABLE, CREATE INDEX) and statistics updates.
        #: The plan cache keys on it, so a structurally stale cached
        #: plan can never match after a schema change.
        self.schema_version = 0
        #: Monotone counter bumped by row-only changes (inserts into
        #: non-temp tables).  Cached plans stay valid across data
        #: bumps; only shared temp tables are purged.
        self.data_version = 0
        self._change_hooks: list[Callable[[str, str], None]] = []
        #: MVCC commit timestamps + per-table row horizons; readers pin
        #: the current snapshot so scans see one committed state.
        self.snapshots = SnapshotManager()
        #: Reader-writer lock for the serving layer: worker threads
        #: executing cached plans hold the (re-entrant) read side; DDL
        #: and inserts take the write side.
        self.rwlock = RWLock(name="catalog.rwlock")

    # -- change tracking -------------------------------------------------

    def add_change_hook(self, hook: Callable[[str, str], None]) -> None:
        """Register ``hook(event, table)`` to fire on plan-relevant changes.

        Events: ``create_table``, ``drop_table``, ``create_index``,
        ``insert``, ``analyze``.  Temp-table churn does not fire hooks —
        temps are per-query scratch space, invisible to cached plans.
        """
        self._change_hooks.append(hook)

    @property
    def version(self) -> int:
        """The combined change counter (schema + data).

        Kept for callers that only need "did *anything* change" — it
        advances exactly once per :meth:`bump_version`, as the single
        pre-split counter did.
        """
        return self.schema_version + self.data_version

    def bump_version(self, event: str, table: str) -> None:
        """Advance the version for ``event``'s class and notify hooks."""
        if event_class(event) == "schema":
            self.schema_version += 1
        else:
            self.data_version += 1
        for hook in self._change_hooks:
            hook(event, table)

    def read_lock(self):
        """Shared lock for plan execution (re-entrant per thread)."""
        return self.rwlock.read()

    def write_lock(self):
        """Exclusive lock for DDL and DML."""
        return self.rwlock.write()

    # -- DDL -------------------------------------------------------------

    def create_table(
        self,
        table_schema: TableSchema,
        rows_per_page: int | None = None,
        is_temp: bool = False,
    ) -> TableEntry:
        """Create an empty table; ``rows_per_page`` overrides page sizing."""
        name = table_schema.name
        if name in self._tables:
            raise CatalogError(f"table {name} already exists")
        capacity = rows_per_page or table_schema.default_rows_per_page()
        heap = HeapFile(self.buffer, rows_per_page=capacity, name=name)
        entry = TableEntry(schema=table_schema, heap=heap, is_temp=is_temp)
        self._tables[name] = entry
        if not is_temp:
            # Base tables participate in snapshot isolation; temps are
            # per-query scratch space and always read unrestricted.
            heap.versioned = True
            self.snapshots.register_table(name, rows=0)
            self.bump_version("create_table", name)
        return entry

    def drop_table(self, name: str) -> None:
        entry = self._require(name)
        for key in [k for k in self.indexes if k[0] == name]:
            self.indexes[key].drop()
            del self.indexes[key]
        entry.heap.truncate()
        del self._tables[name]
        self.statistics.pop(name, None)
        if not entry.is_temp:
            self.snapshots.forget_table(name)
            self.bump_version("drop_table", name)

    def create_index(self, table: str, column: str):
        """Build (or rebuild) an ISAM index on ``table.column``.

        The build scans the table once (charged page I/O).  Returns the
        index, which is also registered for the executors and planner.
        """
        from repro.storage.index import IsamIndex

        entry = self._require(table)
        key = (table, column)
        if key in self.indexes:
            self.indexes[key].drop()
        index = IsamIndex(
            entry.heap,
            key_column=entry.schema.column_index(column),
            buffer=self.buffer,
            name=f"idx_{table}_{column}",
        )
        self.indexes[key] = index
        if not entry.is_temp:
            self.bump_version("create_index", table)
        return index

    def index_for(self, table: str, column: str):
        """The registered index on ``table.column``, or None."""
        return self.indexes.get((table, column))

    def drop_temp_tables(self) -> None:
        """Drop every temporary table (end-of-query cleanup)."""
        for name in [n for n, e in self._tables.items() if e.is_temp]:
            self.drop_table(name)

    def register_temp(
        self, name: str, heap: HeapFile, column_names: list[str], order=((), False)
    ) -> TableEntry:
        """Register an already-materialized heap as a temporary table.

        Used by the transformation pipeline: a temp relation built by
        the physical executor becomes queryable by name (the paper's
        ``Rt``/``TEMP3`` step).  Columns are typed permissively — the
        values were produced by the engine, not user input.  Scans of
        it start from ``order``, the order the builder left the rows in.
        """
        from repro.catalog.schema import Column, ColumnType, TableSchema

        if name in self._tables:
            raise CatalogError(f"table {name} already exists")
        table_schema = TableSchema(
            name, tuple(Column(c, ColumnType.ANY) for c in column_names)
        )
        heap.name = name
        entry = TableEntry(table_schema, heap, is_temp=True, order=order)
        self._tables[name] = entry
        return entry

    def create_temp_name(self, prefix: str = "TEMP") -> str:
        """Return a fresh name for a transformation temp table."""
        with self._temp_lock:
            while True:
                self._temp_counter += 1
                name = f"{prefix}_{self._temp_counter}"
                if name not in self._tables:
                    return name

    # -- DML -------------------------------------------------------------

    def insert(self, name: str, rows: Iterable[tuple]) -> int:
        """Validate and append rows; returns the number inserted.

        The batch is atomic: every row is validated before any row is
        appended, so a validation error leaves the table untouched.
        """
        entry = self._require(name)
        tupled_rows = [tuple(row) for row in rows]
        for tupled in tupled_rows:
            entry.schema.validate_row(tupled)
        entry.heap.extend(tupled_rows)
        count = len(tupled_rows)
        if count:
            # Indexes are static (ISAM): rebuild after a batch insert.
            for (table, _column), index in self.indexes.items():
                if table == name:
                    index.build()
            if not entry.is_temp:
                # Direct catalog inserts are autocommit writes: publish
                # the new horizon so pinned readers admitted from now
                # on see the rows, then bump the data version (cached
                # plans survive; shared temps are purged).
                self.snapshots.publish({name: entry.heap.num_rows})
                self.bump_version("insert", name)
        return count

    def record_statistics(self, name: str, stats: object) -> None:
        """Store ANALYZE output for ``name`` (bumps the plan version)."""
        self.statistics[name] = stats
        if not self._require(name).is_temp:
            self.bump_version("analyze", name)

    # -- lookup ----------------------------------------------------------

    def get(self, name: str) -> TableEntry:
        return self._require(name)

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def schema_of(self, name: str) -> TableSchema:
        return self._require(name).schema

    def column_names(self, name: str) -> tuple[str, ...]:
        return self._require(name).schema.column_names

    def heap_of(self, name: str) -> HeapFile:
        return self._require(name).heap

    def _require(self, name: str) -> TableEntry:
        entry = self._tables.get(name)
        if entry is None:
            raise CatalogError(f"no such table: {name}")
        return entry
