"""Per-execution catalog overlay for concurrent plan replay.

A cached plan's temp-table names are fixed at plan time (``TEMP_1``,
``HTEMP_2``, ...).  If two threads replayed the same plan against the
shared catalog they would collide registering those names.  A
:class:`SessionCatalog` gives each execution a private table namespace
layered over the shared base catalog: temp tables land in the overlay,
while base tables, statistics, indexes, the schema/stats version, and
the reader-writer lock all delegate to the base.

The overlay holds *only* temps; creating a permanent table through a
session is a programming error and raises.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.catalog.catalog import Catalog, TableEntry
from repro.errors import CatalogError


class SessionCatalog(Catalog):
    """A catalog overlay: private temp tables over a shared base."""

    def __init__(self, base: Catalog) -> None:
        # Deliberately no super().__init__: shared state lives in the
        # base; only the temp namespace is local.
        self.base = base
        self.buffer = base.buffer
        self._tables: dict[str, TableEntry] = {}
        #: Temp names whose heaps this session does NOT own (they live
        #: in the plan cache's sharing registry, leased for this
        #: execution); dropping them unregisters the name but never
        #: truncates.
        self._shared: set[str] = set()

    # -- delegated shared state ------------------------------------------

    @property
    def statistics(self):  # type: ignore[override]
        return self.base.statistics

    @property
    def indexes(self):  # type: ignore[override]
        return self.base.indexes

    @property
    def version(self):  # type: ignore[override]
        return self.base.version

    @property
    def schema_version(self):  # type: ignore[override]
        return self.base.schema_version

    @property
    def data_version(self):  # type: ignore[override]
        return self.base.data_version

    @property
    def snapshots(self):  # type: ignore[override]
        return self.base.snapshots

    @property
    def rwlock(self):  # type: ignore[override]
        return self.base.rwlock

    def bump_version(self, event: str, table: str) -> None:
        self.base.bump_version(event, table)

    def add_change_hook(self, hook) -> None:
        self.base.add_change_hook(hook)

    def create_temp_name(self, prefix: str = "TEMP") -> str:
        # The base counter is shared (and locked) so session temps can
        # never shadow names a concurrent plan build hands out.
        while True:
            name = self.base.create_temp_name(prefix)
            if name not in self._tables:
                return name

    # -- table namespace --------------------------------------------------

    def create_table(self, table_schema, rows_per_page=None, is_temp=False):
        if not is_temp:
            raise CatalogError(
                "session catalogs hold only temp tables; create "
                f"{table_schema.name} through the base catalog"
            )
        if self.base.has_table(table_schema.name):
            raise CatalogError(f"table {table_schema.name} already exists")
        return super().create_table(
            table_schema, rows_per_page=rows_per_page, is_temp=True
        )

    def register_temp(self, name, heap, column_names, order=((), False)):
        if self.base.has_table(name):
            raise CatalogError(f"table {name} already exists")
        return super().register_temp(name, heap, column_names, order)

    def register_shared_temp(self, name, entry) -> None:
        """Register a leased registry entry (a
        :class:`~repro.serve.sharing.SharedEntry`) as a temp whose heap
        outlives this session."""
        self.register_temp(name, entry.heap, entry.columns, entry.order)
        self._shared.add(name)

    def mark_shared(self, name: str) -> None:
        """Transfer heap ownership out of this session (to the registry)."""
        if name not in self._tables:
            raise CatalogError(f"no session temp named {name}")
        self._shared.add(name)

    def drop_table(self, name: str) -> None:
        if name in self._shared:
            # Shared heap: unregister the name, leave the pages alone.
            del self._tables[name]
            self._shared.discard(name)
            return
        if name in self._tables:
            # Overlay temps have no entries in the shared index map, so
            # the inherited implementation's index sweep is a no-op scan.
            super().drop_table(name)
            return
        raise CatalogError(
            f"cannot drop {name} through a session catalog"
        )

    def insert(self, name: str, rows: Iterable[tuple]) -> int:
        if name in self._tables:
            return super().insert(name, rows)
        raise CatalogError(
            f"cannot insert into {name} through a session catalog"
        )

    # -- lookup ------------------------------------------------------------

    def _require(self, name: str) -> TableEntry:
        entry = self._tables.get(name)
        if entry is not None:
            return entry
        return self.base._require(name)

    def has_table(self, name: str) -> bool:
        return name in self._tables or self.base.has_table(name)

    def table_names(self) -> list[str]:
        return sorted(set(self.base.table_names()) | set(self._tables))

    def drop_temp_tables(self) -> None:
        """Drop this session's temps only; the base is untouched.

        Goes through :meth:`drop_table` so heaps leased from the
        sharing registry are unregistered without being truncated.
        """
        for name in list(self._tables):
            self.drop_table(name)
