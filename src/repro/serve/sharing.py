"""Cross-query shared subplans: fingerprints + materialization registry.

The decorrelation transforms produce highly shareable temp tables by
construction: two different cached queries over the same base tables
routinely need the *same* distinct-key temp, the same restricted inner
projection, or the same grouped-aggregate temp (the NEST-JA2 chain).
This module is the one temp-reuse mechanism: a materialization is
shared across replays *and* across plans (one plan replayed twice is
just the one-holder case) — Roy et al.'s sharing-aware materialization
("Efficient and Extensible Algorithms for Multi Query Optimization";
see PAPERS.md).  A plan without a registry rebuilds its temps per call.

Two pieces:

* :func:`compute_share_specs` — structural fingerprints for a
  transform's temp-table definitions.  A definition's fingerprint is a
  hash of its canonical SQL with plan-local temp names replaced by the
  fingerprints of the definitions they refer to, so it is *cumulative*:
  equal fingerprints imply structurally identical upstream chains.
  Positional parameters print as bare ``?`` and are therefore
  index-canonical; the parameter *slots* a definition reads
  (transitively) are extracted separately, in deterministic AST order,
  so equal-fingerprint definitions from different plans agree on which
  bound values select a materialization.

* :class:`SharedSubplanRegistry` — one per plan cache.  Keys are
  ``(fingerprint, the plan's ExecConfig, schema_version, data_version,
  bound parameter values)``; a registered entry is a materialized heap
  plus its column names.  Consuming plans hold refcounted handles
  (``holders``), in-flight replays pin entries (``active``), and
  truncation is deferred: eager invalidation marks an entry purged,
  the last replay out frees the pages.  Data and schema events purge everything — every key
  embeds the version pair, so a stale entry could never be *hit*;
  purging reclaims its pages eagerly.

MVCC correctness falls out of the keying: an entry is only ever served
to a replay pinned to the exact snapshot ``data_version`` the entry was
built under, and replays running under a transaction's read-your-writes
overlay bypass the registry entirely (their temps may contain
uncommitted rows no other reader must see).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from repro.storage.locks import make_lock
from repro.sql.ast import Comparison, Parameter, walk
from repro.sql.printer import to_sql

#: Soft bound on registered materializations.  Publication past the cap
#: evicts the least-recently-used idle entry; entries pinned by
#: in-flight replays are never evicted (the cap is soft).
DEFAULT_SHARED_CAP = 128


@dataclass(frozen=True)
class ShareSpec:
    """Sharing identity of one temp-table definition.

    Attributes:
        fingerprint: cumulative structural hash (hex digest).
        param_slots: parameter-vector indices the definition reads,
            directly or through upstream temps, in deterministic order.
    """

    fingerprint: str
    param_slots: tuple[int, ...]


def _canonical_text(query, token_by_name: dict[str, str]) -> str:
    """Render ``query`` with plan-local temp names replaced by tokens.

    Temp names are generated per plan build (``TEMP_17`` ...), so the
    raw SQL of structurally identical definitions differs; substituting
    each upstream name with that definition's fingerprint token makes
    the text — and hence the hash — plan-independent.  Names come from
    ``Catalog.create_temp_name``, which never hands out a name an
    existing table holds, so a word-boundary replacement cannot touch
    user tables.  The printer renders every outer-join comparison as
    ``op+`` regardless of which side is preserved, so the preserved-side
    markers are appended explicitly.
    """
    text = to_sql(query)
    for name in sorted(token_by_name, key=len, reverse=True):
        text = re.sub(rf"\b{re.escape(name)}\b", token_by_name[name], text)
    markers = [
        node.outer
        for node in walk(query)
        if isinstance(node, Comparison) and node.outer is not None
    ]
    if markers:
        text += " /*outer:" + ",".join(markers) + "*/"
    return text


def _own_slots(query) -> tuple[int, ...]:
    """Parameter slots ``query`` reads directly, in first-seen AST order."""
    seen: list[int] = []
    for node in walk(query):
        if isinstance(node, Parameter) and node.index not in seen:
            seen.append(node.index)
    return tuple(seen)


def compute_share_specs(setup) -> tuple[ShareSpec, ...]:
    """Fingerprint every definition of a temp chain, in build order."""
    specs: list[ShareSpec] = []
    token_by_name: dict[str, str] = {}
    slots_by_name: dict[str, tuple[int, ...]] = {}
    for definition in setup:
        raw = to_sql(definition.query)
        slots: list[int] = []
        for name in token_by_name:  # insertion order == chain order
            if re.search(rf"\b{re.escape(name)}\b", raw):
                for slot in slots_by_name[name]:
                    if slot not in slots:
                        slots.append(slot)
        for slot in _own_slots(definition.query):
            if slot not in slots:
                slots.append(slot)
        digest = hashlib.sha256(
            _canonical_text(definition.query, token_by_name).encode()
        ).hexdigest()
        specs.append(ShareSpec(fingerprint=digest, param_slots=tuple(slots)))
        token_by_name[definition.name] = f"§{digest[:16]}"
        slots_by_name[definition.name] = tuple(slots)
    return tuple(specs)


class SharedEntry:
    """One shared materialization: a heap, its columns, the order its
    rows are in (as the builder claimed it), and its pins."""

    __slots__ = (
        "key", "heap", "columns", "order", "publisher", "holders", "active",
        "purged",
    )

    def __init__(self, key, heap, columns, order, publisher_fp, holder_id) -> None:
        self.key = key
        self.heap = heap
        self.columns = columns
        self.order = order
        #: Query fingerprint of the publishing plan — a hit from a plan
        #: with a different fingerprint is a *cross-query* hit.
        self.publisher = publisher_fp
        #: ids of consuming CachedPlans; emptied by plan.release().
        self.holders: set[int] = {holder_id}
        #: In-flight replays reading the heap right now.
        self.active = 1
        #: Entry was invalidated/evicted; last lease out truncates.
        self.purged = False


class SharedSubplanRegistry:
    """Shared-materialization registry, one per :class:`PlanCache`."""

    def __init__(self, capacity: int = DEFAULT_SHARED_CAP) -> None:
        if capacity < 1:
            raise ValueError(
                f"shared-subplan capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._lock = make_lock("serve.shared_subplans")
        self._entries: dict[tuple, SharedEntry] = {}
        #: plan id -> keys of entries the plan holds (refcount handles).
        self._held: dict[int, set[tuple]] = {}
        self.materializations = 0
        #: Hits by a plan other than the publisher.
        self.cross_hits = 0
        self.data_purges = 0
        self.schema_purges = 0

    # -- leases ------------------------------------------------------------

    def acquire(self, key: tuple, plan) -> SharedEntry | None:
        """Lease the entry for ``key``, or None on a miss.

        A lease pins the heap against truncation until
        :meth:`release_lease`; the consuming plan is also recorded as a
        holder so the entry outlives LRU churn while the plan is cached
        (a plan the cache released meanwhile holds nothing any more).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            # Re-insertion refreshes recency (dicts preserve order).
            del self._entries[key]
            self._entries[key] = entry
            entry.active += 1
            holder = id(plan)
            if holder not in entry.holders and plan.registry is self:
                entry.holders.add(holder)
                self._held.setdefault(holder, set()).add(key)
            if entry.publisher != plan.fingerprint:
                self.cross_hits += 1
            return entry

    def publish(
        self, key: tuple, heap, columns, plan, current_data_version: int,
        order=((), False),
    ) -> SharedEntry | None:
        """Register a freshly built materialization; returns its lease.

        Returns None — and the caller keeps the heap private — when a
        concurrent replay already published the key, when a commit
        landed after this replay pinned its snapshot (the key's data
        version is no longer current, so the entry would be stillborn:
        purgeable on arrival and only hittable by already-pinned
        readers), or when the cache released ``plan`` while it was
        being replayed (no holder would ever drop the entry).
        """
        data_version = key[3]
        with self._lock:
            if (
                key in self._entries
                or data_version != current_data_version
                or plan.registry is not self
            ):
                return None
            holder = id(plan)
            entry = SharedEntry(
                key, heap, columns, order, plan.fingerprint, holder
            )
            self._entries[key] = entry
            self._held.setdefault(holder, set()).add(key)
            self.materializations += 1
            self._evict_over_capacity_locked()
            return entry

    def release_lease(self, entry: SharedEntry) -> None:
        """Return a lease; the last one out of a purged entry frees it."""
        with self._lock:
            entry.active -= 1
            if entry.purged and entry.active == 0:
                entry.heap.truncate()

    # -- refcounted holders ------------------------------------------------

    def drop_holder(self, plan) -> None:
        """Release every entry ``plan`` holds (plan eviction/release).

        Entries with no remaining holders are freed — no cached plan
        can reach them any more.  Safe to call twice (double release):
        the holder set is popped on the first call.
        """
        keys = None
        with self._lock:
            keys = self._held.pop(id(plan), None)
            if not keys:
                return
            for key in keys:
                entry = self._entries.get(key)
                if entry is None:
                    continue
                entry.holders.discard(id(plan))
                if not entry.holders:
                    del self._entries[key]
                    entry.purged = True
                    if entry.active == 0:
                        entry.heap.truncate()

    # -- invalidation ------------------------------------------------------

    def purge_all(self, reason: str = "data") -> int:
        """Eagerly drop every entry (catalog change); returns the count.

        Keys embed the schema/data version pair, so post-change lookups
        could never hit these entries anyway — purging reclaims pages.
        Truncation defers to the last in-flight lease.
        """
        with self._lock:
            purged = len(self._entries)
            for entry in self._entries.values():
                entry.purged = True
                if entry.active == 0:
                    entry.heap.truncate()
            self._entries.clear()
            self._held.clear()
            if reason == "schema":
                self.schema_purges += purged
            else:
                self.data_purges += purged
            return purged

    def _evict_over_capacity_locked(self) -> None:
        """Drop least-recently-used idle entries past the soft cap."""
        if len(self._entries) <= self.capacity:
            return
        for key in list(self._entries):
            if len(self._entries) <= self.capacity:
                return
            entry = self._entries[key]
            if entry.active:
                continue  # pinned by an in-flight replay: skip
            del self._entries[key]
            entry.purged = True
            entry.heap.truncate()
            for held in self._held.values():
                held.discard(key)

    # -- diagnostics -------------------------------------------------------

    @property
    def purges(self) -> int:
        return self.data_purges + self.schema_purges

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def reset_stats(self) -> None:
        with self._lock:
            self.materializations = 0
            self.cross_hits = 0
            self.data_purges = 0
            self.schema_purges = 0
