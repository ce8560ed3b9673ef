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

Three pieces:

* :func:`compute_share_specs` — structural fingerprints for a
  transform's temp-table definitions.  A definition's fingerprint is a
  hash of its canonical SQL with plan-local temp names replaced by the
  fingerprints of the definitions they refer to, so it is *cumulative*:
  equal fingerprints imply structurally identical upstream chains.
  Positional parameters print as bare ``?`` and are therefore
  index-canonical; the parameter *slots* a definition reads
  (transitively) are extracted separately, in deterministic AST order,
  so equal-fingerprint definitions from different plans agree on which
  bound values select a materialization.  A spec also names the base
  tables the definition reads (transitively) and those of them whose
  inserts it can absorb without a rebuild.

* :class:`SharedSubplanRegistry` — one per plan cache.  An entry's
  *identity* is ``(fingerprint, the plan's ExecConfig, schema_version,
  bound parameter values)``, and it holds one version per identity: a
  materialized heap, its columns and order, and its *horizons* — the
  committed row count of every base table it read.  Consuming plans
  hold refcounted handles (``holders``), in-flight replays pin entries
  (``active``), and truncation is deferred: an invalidated or
  superseded entry is marked purged and the last replay out frees the
  pages.  A schema event purges everything; an insert purges only the
  entries that read the written table and cannot absorb its delta.

* Insert-only maintenance (:func:`delta_query`, :func:`merge_delta`).
  Heaps are append-only, so what a commit added to a table is a row
  range.  An entry whose horizons lag behind the reader's on exactly
  one table it can absorb is brought forward: the delta goes through
  the definition's restrict / project / join steps, and one merge pass
  folds it into the old rows — union-distinct, a per-group combine of
  COUNT / SUM / MIN / MAX, or an ordered merge — which is then
  published at the new horizons, superseding the old version.

MVCC correctness falls out of the keying: a replay leases an entry only
at horizons no newer than its pinned snapshot's (equal: read it; older:
maintain it), it publishes only at the current committed horizons, and
replays running under a transaction's read-your-writes overlay bypass
the registry entirely (their temps may contain uncommitted rows no
other reader must see).
"""

from __future__ import annotations

import hashlib
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import chain

from repro.engine.aggregate import COMBINE, NotCombinable
from repro.engine.relation import NO_ORDER, Order
from repro.engine.sort import orderable
from repro.sql.ast import (
    ColumnRef,
    Comparison,
    FuncCall,
    Parameter,
    Select,
    column_refs,
    conjuncts,
    make_and,
    walk,
)
from repro.sql.printer import to_sql
from repro.storage.locks import make_lock

#: Soft bound on registered materializations.  Publication past the cap
#: evicts the least-recently-used idle entry; entries pinned by
#: in-flight replays are never evicted (the cap is soft).
DEFAULT_SHARED_CAP = 128

#: A version's horizons: ``((table, committed row count), ...)`` over
#: the base tables its definition reads, in the spec's table order.
Horizons = tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class ShareSpec:
    """Sharing identity of one temp-table definition.

    Attributes:
        fingerprint: cumulative structural hash (hex digest).
        param_slots: parameter-vector indices the definition reads,
            directly or through upstream temps, in deterministic order.
        tables: the base tables the definition reads, directly or
            through upstream temps — whose horizons key a version of it.
        maintainable_on: those of ``tables`` whose inserts a version
            absorbs by maintenance; an insert into any other purges it.
    """

    fingerprint: str
    param_slots: tuple[int, ...]
    tables: tuple[str, ...]
    maintainable_on: frozenset[str]


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


def _is_aggregate(expr) -> bool:
    return isinstance(expr, FuncCall) and expr.is_aggregate


def _grouped(query: Select) -> bool:
    return bool(query.group_by) or query.has_aggregate_select()


def outer_comparisons(query: Select) -> list[Comparison]:
    """The outer-join comparisons anywhere in ``query``."""
    return [
        node
        for node in walk(query)
        if isinstance(node, Comparison) and node.outer is not None
    ]


def _is_linear(query: Select) -> bool:
    """Whether the definition distributes over a union of its input —
    restrict / project / inner join only — so that an upstream delta
    passes through it unchanged in kind."""
    return not (
        query.distinct
        or _grouped(query)
        or query.having is not None
        or any(ref.semi for ref in query.from_tables)
        or outer_comparisons(query)
    )


def _absorbs(query: Select, delta: str) -> bool:
    """Whether a version of ``query`` absorbs rows that arrive through
    its FROM binding ``delta`` alone, by one merge with the delta pushed
    through the definition.

    A plain or DISTINCT definition must be linear: its new output is the
    bag (or set) union of the old one and the delta's.  A grouped one
    output every group column and no other column or expression (the
    merge matches rows on them), aggregate only by bare non-DISTINCT
    COUNT / SUM / MIN / MAX items, and have no HAVING.  Over
    an outer join (NEST-JA2's ``TEMP1 =+ TEMP2``, section 5.2) the delta
    must arrive on the null-supplying side and be all the aggregates
    read: a padded row then contributes nothing to any of them, so a
    group that gains its first match just combines with it.  A group
    column or a COUNT(*) on a padded row would not (the COUNT bug's
    padded row counts 1), nor would a residual conjunct that could
    reject the new match.
    """
    if query.having is not None or any(ref.semi for ref in query.from_tables):
        return False
    outer = outer_comparisons(query)
    if not _grouped(query):
        return not outer
    items = [item.expr for item in query.items]
    aggregates = [expr for expr in items if _is_aggregate(expr)]
    columns = [expr for expr in items if not _is_aggregate(expr)]
    if (
        query.distinct
        or any(expr not in columns for expr in query.group_by)
        or any(expr not in query.group_by for expr in columns)
        or any(agg.name not in COMBINE or agg.distinct for agg in aggregates)
    ):
        return False
    if not outer:
        return True
    for comparison in outer:
        if comparison.outer == "full":
            return False
        padded = comparison.right if comparison.outer == "left" else comparison.left
        if not isinstance(padded, ColumnRef) or padded.table != delta:
            return False
    if any(not isinstance(c, ColumnRef) or c.table in (None, delta) for c in columns):
        return False
    if any(
        not isinstance(agg.arg, ColumnRef) or agg.arg.table != delta
        for agg in aggregates
    ):
        return False
    for conjunct in conjuncts(query.where):
        bindings = {ref.table for ref in column_refs(conjunct)}
        if delta in bindings and len(bindings) > 1 and conjunct not in outer:
            return False
    return True


def compute_share_specs(setup) -> tuple[ShareSpec, ...]:
    """Fingerprint every link of a chain, in build order.

    A value link is keyed like a temp; the links that read its slot
    carry its value in their bound values, not its fingerprint."""
    specs: list[ShareSpec] = []
    token_by_name: dict[str, str] = {}
    slots_by_name: dict[str, tuple[int, ...]] = {}
    #: temp -> how often it reads each base table, through any path.
    reads: dict[str, Counter] = {}
    #: temp -> the base tables whose deltas pass through it (linearly).
    passes: dict[str, set[str]] = {}
    for definition in setup:
        query = definition.query
        raw = to_sql(query)
        slots: list[int] = []
        for name in token_by_name:  # insertion order == chain order
            if re.search(rf"\b{re.escape(name)}\b", raw):
                for slot in slots_by_name[name]:
                    if slot not in slots:
                        slots.append(slot)
        for slot in _own_slots(query):
            if slot not in slots:
                slots.append(slot)
        digest = hashlib.sha256(
            _canonical_text(query, token_by_name).encode()
        ).hexdigest()
        occurrences: Counter = Counter()
        for ref in query.from_tables:
            occurrences.update(reads.get(ref.name, {ref.name: 1}))
        # A table read once, through linear links only, reaches the
        # definition as a delta through one FROM binding; a self-join
        # (the table read twice) never does.
        reached = {
            table: ref.binding
            for ref in query.from_tables
            for table in reads.get(ref.name, {ref.name: 1})
            if occurrences[table] == 1
            and (ref.name == table or table in passes[ref.name])
        }
        # A value link's entry is its one row: only a block of bare
        # aggregates without GROUP BY keeps it one row under a merge
        # (its delta is one row, combined into the old one); a value
        # list is stored as one row, not as the block's rows.
        keeps_one_row = definition.slot is None or (
            not definition.is_list
            and not query.group_by
            and all(_is_aggregate(item.expr) for item in query.items)
        )
        specs.append(
            ShareSpec(
                fingerprint=digest,
                param_slots=tuple(slots),
                tables=tuple(sorted(occurrences)),
                maintainable_on=frozenset(
                    table
                    for table, binding in reached.items()
                    if keeps_one_row and _absorbs(query, binding)
                ),
            )
        )
        token_by_name[definition.name] = f"§{digest[:16]}"
        slots_by_name[definition.name] = tuple(slots)
        reads[definition.name] = occurrences
        passes[definition.name] = set(reached) if _is_linear(query) else set()
    return tuple(specs)


# -- insert-only maintenance -----------------------------------------------


def delta_query(query: Select, rename: dict[str, str]) -> Select:
    """``query`` over its inputs' deltas: each FROM entry named in
    ``rename`` reads that delta instead (under its own binding), and
    outer-join markers are dropped — the delta of a maintainable outer
    join is its inner join (see :func:`_absorbs`)."""
    return replace(
        query,
        from_tables=tuple(
            replace(ref, name=rename[ref.name], alias=ref.binding)
            if ref.name in rename
            else ref
            for ref in query.from_tables
        ),
        where=make_and(
            replace(c, outer=None)
            if isinstance(c, Comparison) and c.outer is not None
            else c
            for c in conjuncts(query.where)
        ),
    )


#: ``(key positions, combine(old row, delta row))`` — how two output
#: rows of one definition that agree on the key merge into one.
Combiner = tuple[tuple[int, ...], Callable[[tuple, tuple], tuple]]


def row_combiner(query: Select) -> Combiner | None:
    """How a definition's output rows combine under a merge: a grouped
    one's per group (its aggregates through ``COMBINE``), a DISTINCT
    one's as one row; a plain definition's output is a bag and None
    comes back."""
    items = [item.expr for item in query.items]
    if _grouped(query):
        aggregates = [
            (position, COMBINE[expr.name])
            for position, expr in enumerate(items)
            if _is_aggregate(expr)
        ]

        def combine(old: tuple, new: tuple) -> tuple:
            row = list(old)
            for position, combine_one in aggregates:
                row[position] = combine_one(old[position], new[position])
            return tuple(row)

        keys = tuple(p for p, expr in enumerate(items) if not _is_aggregate(expr))
        return keys, combine
    if query.distinct:
        return tuple(range(len(items))), lambda old, new: old
    return None


def merge_delta(
    old: Iterable[list[tuple]],
    delta: list[tuple],
    order: Order,
    combiner: Combiner | None,
) -> Iterator[list[tuple]]:
    """The rows of a version after ``delta``, in batches: one pass over
    the pages of the old version, ``old``.

    Rows that agree on the combiner's key are combined; every other
    delta row is new.  Where the old version claims an order the new
    rows are merged into it, so the claim still holds — a page no delta
    row falls into is copied whole — and otherwise they follow.  Raises
    :class:`NotCombinable` up front when the claim cannot be kept: a
    key that is not the order's columns, or a unique order over a bag.
    """
    columns, unique = order
    if combiner is None:
        if unique:
            raise NotCombinable("a unique order over a bag")
        keys, combine = None, None
    else:
        keys, combine = combiner
        if columns and set(columns) != set(keys):
            raise NotCombinable("the order is not on the merge key")
    if columns:
        return _merge_ordered(old, delta, columns, combine)
    if keys is None:
        return chain(old, [delta])
    return _merge_unordered(old, delta, keys, combine)


def _merge_unordered(old, delta, keys, combine) -> Iterator[list[tuple]]:
    def key_of(row: tuple) -> tuple:
        return tuple(row[position] for position in keys)

    pending = {key_of(row): row for row in delta}
    for page in old:
        if pending:
            merged = []
            for row in page:
                match = pending.pop(key_of(row), None)
                merged.append(row if match is None else combine(row, match))
            page = merged
        yield page
    yield list(pending.values())


def _merge_ordered(old, delta, columns, combine) -> Iterator[list[tuple]]:
    """``combine`` None: a bag, where a delta row equal to old rows
    follows them; otherwise the old row equal to a delta row absorbs
    it.  Each delta row is placed by a binary search of its page."""

    def sort_key(row: tuple) -> tuple:
        return tuple([orderable(row[column]) for column in columns])

    place = bisect_right if combine is None else bisect_left
    delta = sorted(delta, key=sort_key)
    position = 0
    for page in old:
        merged: list[tuple] = []
        start = 0
        while position < len(delta):
            key = sort_key(delta[position])
            at = place(page, key, start, key=sort_key)
            if at == len(page):
                break  # it goes after this page
            merged.extend(page[start:at])
            if combine is not None and sort_key(page[at]) == key:
                merged.append(combine(page[at], delta[position]))
                start = at + 1
            else:
                merged.append(delta[position])
                start = at
            position += 1
        yield merged + page[start:] if merged else page
    yield delta[position:]


# -- the registry ------------------------------------------------------------


def _older(first: Horizons, second: Horizons) -> bool:
    """``first`` is strictly behind ``second`` and behind on no table."""
    return first != second and all(
        a <= b for (_t, a), (_u, b) in zip(first, second)
    )


class SharedEntry:
    """One shared materialization: a heap, its columns, the order its
    rows are in (as the builder claimed it), the horizons it was built
    at, and its pins."""

    __slots__ = (
        "key", "horizons", "maintainable_on", "heap", "columns", "order",
        "publisher", "holders", "active", "purged",
    )

    def __init__(
        self, key, horizons, maintainable_on, heap, columns, order,
        publisher_fp, holder_id,
    ) -> None:
        self.key = key
        self.horizons: Horizons = horizons
        self.maintainable_on: frozenset[str] = maintainable_on
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

    @property
    def tables(self) -> tuple[str, ...]:
        return tuple(table for table, _rows in self.horizons)


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
        #: The catalog's snapshot manager, set by ``PlanCache.attach``:
        #: a version is published only at its current horizons.
        self.snapshots = None
        self.materializations = 0
        #: Versions published by maintaining an older one.
        self.maintenances = 0
        #: Hits by a plan other than the publisher.
        self.cross_hits = 0
        self.data_purges = 0
        self.schema_purges = 0

    # -- leases ------------------------------------------------------------

    def acquire(self, key: tuple, horizons: Horizons, plan) -> SharedEntry | None:
        """Lease the version of ``key`` a reader at ``horizons`` may use
        — one at exactly these horizons (read it) or behind them (bring
        it forward) — or None on a miss or a version newer than the
        reader's snapshot.

        A lease pins the heap against truncation until
        :meth:`release_lease`; the consuming plan is also recorded as a
        holder so the entry outlives LRU churn while the plan is cached
        (a plan the cache released meanwhile holds nothing any more).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or not (
                entry.horizons == horizons or _older(entry.horizons, horizons)
            ):
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
        self,
        key: tuple,
        horizons: Horizons,
        heap,
        columns,
        plan,
        order: Order = NO_ORDER,
        maintainable_on: frozenset[str] = frozenset(),
        maintained: bool = False,
    ) -> SharedEntry | None:
        """Register a fresh version of ``key``; returns its lease.

        A version behind these horizons is superseded: its holders hold
        the new one, and its pages go when its last lease returns.
        Returns None — and the caller keeps the heap private — when a
        version at these horizons or newer is already registered (a
        concurrent replay published first), when a commit landed on a
        table the version read after this replay pinned its snapshot
        (the version would be stale on arrival), or when the cache
        released ``plan`` while it was being replayed (no holder would
        ever drop the entry).
        """
        with self._lock:
            current = None if self.snapshots is None else self.snapshots.current()
            old = self._entries.get(key)
            if (
                plan.registry is not self
                or (
                    current is not None
                    and any(current.limit_for(t) != rows for t, rows in horizons)
                )
                or (old is not None and not _older(old.horizons, horizons))
            ):
                return None
            holder = id(plan)
            entry = SharedEntry(
                key, horizons, maintainable_on, heap, columns, order,
                plan.fingerprint, holder,
            )
            if old is not None:
                del self._entries[key]
                entry.holders |= old.holders
                self._free_locked(old)
            self._entries[key] = entry
            self._held.setdefault(holder, set()).add(key)
            if maintained:
                self.maintenances += 1
            else:
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
                    self._free_locked(entry)

    # -- invalidation ------------------------------------------------------

    def purge_written(self, table: str) -> int:
        """Drop the entries that read ``table`` and cannot absorb an
        insert into it (a commit wrote it); returns the count.  The rest
        are brought forward by the next replay that needs them.
        Truncation defers to the last in-flight lease."""
        with self._lock:
            doomed = [
                key
                for key, entry in self._entries.items()
                if table in entry.tables and table not in entry.maintainable_on
            ]
            for key in doomed:
                self._free_locked(self._entries.pop(key))
                for held in self._held.values():
                    held.discard(key)
            self.data_purges += len(doomed)
            return len(doomed)

    def purge_all(self) -> int:
        """Eagerly drop every entry (a schema event); returns the count.

        Keys embed the schema version, so post-change lookups could
        never hit these entries anyway — purging reclaims pages.
        Truncation defers to the last in-flight lease.
        """
        with self._lock:
            purged = len(self._entries)
            for entry in self._entries.values():
                self._free_locked(entry)
            self._entries.clear()
            self._held.clear()
            self.schema_purges += purged
            return purged

    def _free_locked(self, entry: SharedEntry) -> None:
        """An entry left the registry: free it now or at its last lease."""
        entry.purged = True
        if entry.active == 0:
            entry.heap.truncate()

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
            self._free_locked(entry)
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
            self.maintenances = 0
            self.cross_hits = 0
            self.data_purges = 0
            self.schema_purges = 0
