"""The plan store: every plan kept across calls is an entry here.

Keys are ``(fingerprint, method, config)`` — the normalized SQL text of
the parameterized tree, the evaluation method asked for and the engine's
:class:`~repro.config.ExecConfig` *as it is when the statement runs*, so
a reconfigured engine never replays a plan built for another value.
:meth:`PlanCache.resolve` is the one rule by which ``Database.query``,
``execute_cached`` and prepared statements get from a statement to the
plan they replay — look up, re-plan what is no longer valid — so all
three are counted in one set of statistics, bounded by one capacity and
share each other's plans.  One entry serves every parameter vector: a
plan reads no data, so no value — not even one inside a type-A block —
shapes it.  Whether a replay shares temps is the replay's business
(:meth:`~repro.serve.plan.CachedPlan.replay`), not the plan's.

Versions are *not* part of the key; each entry records the versions it
was built under and a lookup at another schema version
(:meth:`~repro.serve.plan.CachedPlan.valid_at`) is treated as an
invalidation (the entry is dropped and rebuilt).

Invalidation is event-class aware (see
:func:`repro.catalog.catalog.event_class`):

* **schema** events (DDL, ANALYZE) change what plans are *valid* —
  the cache purges eagerly, freeing shared temps immediately rather
  than leaving stale entries to age out of the LRU;
* **data** events (inserts) change only which rows exist — cached
  plans re-read base tables and re-evaluate their type-A blocks on
  every replay, so every entry survives.  Of the shared temp
  materializations, only those that read the written table and cannot
  absorb an insert into it are purged; the rest are brought forward by
  the next replay that needs them (see :mod:`repro.serve.sharing`).  A
  hit on a plan that outlived a data change is counted as a
  *snapshot-pin hit*: the replay pins the current MVCC snapshot instead
  of re-planning.

All operations are lock-protected; worker threads share one cache.
Planning itself runs outside the lock.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.catalog.catalog import Catalog, event_class
from repro.core.pipeline import Engine
from repro.serve.plan import CachedPlan
from repro.serve.sharing import SharedSubplanRegistry
from repro.sql.ast import Select
from repro.storage.locks import make_lock

#: Default maximum number of cached plans.
DEFAULT_CAPACITY = 128


@dataclass(frozen=True)
class CacheStats:
    """Counters since construction (or the last ``reset``)."""

    hits: int
    misses: int
    invalidations: int
    evictions: int
    size: int
    capacity: int
    #: Hits on entries built before the latest data change — served by
    #: pinning the current snapshot rather than re-planning.
    snapshot_pin_hits: int = 0
    #: Temp materializations flushed by data events: the registry's
    #: data purges — entries that read the written table and cannot
    #: absorb an insert into it (there is no other memo any more; the
    #: name is what ``benchmarks/suite`` reads).
    memo_flushes: int = 0
    #: Temp materializations published to the cross-plan sharing
    #: registry (each built exactly once for all consuming plans).
    shared_materializations: int = 0
    #: Registry hits by a plan other than the publisher — work one
    #: cached query materialized that another query then reused.
    shared_hits: int = 0
    #: Shared materializations dropped by eager invalidation: every
    #: entry on a schema event, and on a data event only the entries
    #: that read the written table and cannot absorb an insert into it.
    shared_purges: int = 0
    #: Shared materializations brought forward over a commit's delta
    #: instead of being rebuilt.
    shared_maintenances: int = 0

    def format(self) -> str:
        total = self.hits + self.misses
        rate = (100.0 * self.hits / total) if total else 0.0
        return (
            f"plan cache: {self.size}/{self.capacity} entries, "
            f"{self.hits} hit(s), {self.misses} miss(es) "
            f"({rate:.1f}% hit rate), "
            f"{self.invalidations} invalidation(s), "
            f"{self.evictions} eviction(s), "
            f"{self.snapshot_pin_hits} snapshot-pin hit(s), "
            f"{self.memo_flushes} memo flush(es), "
            f"{self.shared_materializations} shared materialization(s), "
            f"{self.shared_hits} cross-query hit(s), "
            f"{self.shared_purges} shared purge(s), "
            f"{self.shared_maintenances} maintained"
        )


class PlanCache:
    """Bounded LRU of :class:`~repro.serve.plan.CachedPlan` objects."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, CachedPlan] = OrderedDict()
        self._lock = make_lock("serve.plan_cache")
        #: The shared temp materializations of the plans served here
        #: (see repro.serve.sharing).
        self.sharing = SharedSubplanRegistry()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0
        self.snapshot_pin_hits = 0

    # -- wiring ------------------------------------------------------------

    def attach(self, catalog: Catalog) -> None:
        """Invalidate on schema changes; purge the shared temps a change
        leaves stale for good."""
        self.sharing.snapshots = catalog.snapshots
        catalog.add_change_hook(self._on_catalog_change)

    def _on_catalog_change(self, event: str, table: str) -> None:
        if event_class(event) == "data":
            self.sharing.purge_written(table)
            return
        with self._lock:
            if self._entries:
                self.invalidations += len(self._entries)
                for plan in self._entries.values():
                    plan.release()
                self._entries.clear()
        self.sharing.purge_all()

    # -- access ------------------------------------------------------------

    def resolve(
        self, engine: Engine, select: Select, fingerprint: str, method: str
    ) -> CachedPlan:
        """The plan to replay for a statement — how ``Database.query``,
        ``execute_cached`` and prepared statements alike get from a
        statement to its plan.

        ``select`` is the parameterized tree ``fingerprint`` was taken
        from.  The key is read now: the engine's config of the moment
        and the catalog's versions.  A valid entry is a hit; otherwise
        ``engine`` plans (outside the cache's lock — two threads missing
        at once both plan, the later ``store`` wins) and the plan is
        kept.
        """
        key = (fingerprint, method, engine.config)
        catalog = engine.catalog
        plan = self.lookup(key, catalog.schema_version, catalog.data_version)
        if plan is None:
            plan = engine.plan(select, method, fingerprint)
            self.store(key, plan)
        return plan

    def discard(self, fingerprint: str, method: str) -> None:
        """Drop every entry of one statement — whatever the config it
        was planned under (``PreparedStatement.close``)."""
        with self._lock:
            for key in [k for k in self._entries if k[:2] == (fingerprint, method)]:
                self._entries.pop(key).release()

    def lookup(
        self, key: tuple, schema_version: int, data_version: int
    ) -> CachedPlan | None:
        """The cached plan for ``key`` valid at this schema version, or
        None.

        An entry that is no longer valid counts as an invalidation
        *and* a miss: it is dropped and the caller rebuilds.  A hit at
        another data version than the plan was built at is recorded in
        ``snapshot_pin_hits``: the plan outlived those inserts.
        """
        with self._lock:
            plan = self._entries.get(key)
            if plan is None:
                self.misses += 1
                return None
            if not plan.valid_at(schema_version):
                del self._entries[key]
                plan.release()
                self.invalidations += 1
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            if plan.data_version != data_version:
                self.snapshot_pin_hits += 1
            return plan

    def store(self, key: tuple, plan: CachedPlan) -> None:
        with self._lock:
            replaced = self._entries.pop(key, None)
            if replaced is not None and replaced is not plan:
                replaced.release()
            while len(self._entries) >= self.capacity:
                _key, evicted = self._entries.popitem(last=False)
                evicted.release()
                self.evictions += 1
            self._entries[key] = plan

    def clear(self) -> None:
        with self._lock:
            for plan in self._entries.values():
                plan.release()
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        registry = self.sharing
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                invalidations=self.invalidations,
                evictions=self.evictions,
                size=len(self._entries),
                capacity=self.capacity,
                snapshot_pin_hits=self.snapshot_pin_hits,
                memo_flushes=registry.data_purges,
                shared_materializations=registry.materializations,
                shared_hits=registry.cross_hits,
                shared_purges=registry.purges,
                shared_maintenances=registry.maintenances,
            )

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.invalidations = 0
            self.evictions = 0
            self.snapshot_pin_hits = 0
        self.sharing.reset_stats()
