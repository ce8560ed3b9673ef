"""Mixed read/write differential leg: transactions vs a SQLite shadow.

The classic difftest (:mod:`repro.difftest.runner`) checks read-only
queries over frozen instances.  This leg drives a live
:class:`~repro.api.Database` through an interleaved history of

* committed transactions (single- and multi-table inserts, SUPPLY-only
  ones among them, with NULLs in SUPPLY's PNUM / QUAN / SHIPDATE),
* aborted transactions (rolled back explicitly), and
* Figure-1 reads through the **cached-plan** path, the serving
  shapes as prepared statements at two cutoffs, and — inside every
  open transaction — the serving shapes' text through ``txn.query``,

while a shadow SQLite database is fed exactly the committed batches —
never the aborted ones.  After every step the read queries must agree
with the shadow:

* a read racing an *open* transaction must not see its uncommitted
  rows (the shadow does not have them yet), and a read *inside* it must
  see them (the shadow answers it inside a transaction of its own,
  rolled back);
* a read after a commit must see the whole batch (the shadow just got
  it);
* a read after an abort must match the shadow unchanged.

Because reads go through ``Database.execute_cached`` and prepared
statements, the leg also difftests the snapshot-pinned plan cache:
cached plans built before a commit must replay correctly after it
(fresh horizons, shared temps purged or brought forward over the
commit's delta, type-A blocks evaluated again under the new snapshot),
which is precisely the machinery a pure unit test is most likely to
miss under interleaving.  After every commit each
shared temp is also compared with a rebuild from scratch at the
horizons it claims (:func:`shared_temp_mismatches`): the same row bag,
the same claimed order, and rows really in that order — a value link's
one-row entry against its block evaluated again.
"""

from __future__ import annotations

import random
import sqlite3
from collections import Counter
from dataclasses import dataclass, field

from repro.api import Database
from repro.difftest.leaks import leaked_pages
from repro.difftest.normalize import normalize_rows
from repro.engine.params import bound_params
from repro.engine.sort import orderable
from repro.serve.plan import CachedPlan
from repro.serve.session import SessionCatalog
from repro.txn.mvcc import Snapshot

#: Figure-1 read shapes over the live PARTS/SUPPLY schema.  All three
#: run verbatim on SQLite (no dialect translation needed).
CUTOFF = "1980-06-01"
READ_QUERIES = {
    "type-n": (
        "SELECT PNUM FROM PARTS WHERE PNUM IN "
        f"(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < '{CUTOFF}')"
    ),
    "type-j": (
        "SELECT PARTS.PNUM FROM PARTS, SUPPLY "
        "WHERE PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.QUAN > 2"
    ),
    "type-ja": (
        "SELECT PNUM FROM PARTS WHERE QOH = "
        "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
        f"WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < '{CUTOFF}')"
    ),
}

#: The serving shapes of ``benchmarks/suite``, prepared: each runs at
#: every cutoff of :data:`CUTOFFS`.
SERVING_QUERIES = {
    "j": (
        "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN FROM SUPPLY "
        "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < ?)"
    ),
    "ja_max": (
        "SELECT PNUM FROM PARTS WHERE QOH = (SELECT MAX(QUAN) FROM SUPPLY "
        "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < ?)"
    ),
    "exists": (
        "SELECT PNUM FROM PARTS WHERE EXISTS (SELECT * FROM SUPPLY "
        "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < ?)"
    ),
    "not_exists": (
        "SELECT PNUM FROM PARTS WHERE NOT EXISTS (SELECT * FROM SUPPLY "
        "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < ?)"
    ),
    # Type-A blocks: value links, a scalar and a list with NULLs in it.
    "a": (
        "SELECT PNUM FROM PARTS WHERE QOH < (SELECT MAX(QUAN) FROM SUPPLY "
        "WHERE SHIPDATE < ?)"
    ),
    "not_in": (
        "SELECT PNUM FROM PARTS WHERE PNUM NOT IN (SELECT PNUM FROM SUPPLY "
        "WHERE SHIPDATE < ?)"
    ),
}
CUTOFFS = (CUTOFF, "1982-01-01")

_DATES = ["1975-03-01", "1979-12-30", "1981-08-10", "1985-01-15"]


@dataclass
class MixedReport:
    """Aggregate statistics of one mixed read/write run."""

    steps: int = 0
    commits: int = 0
    aborts: int = 0
    reads: int = 0
    #: Shared temps brought forward over a commit's delta, and shared
    #: temps compared with their rebuilds.
    maintained: int = 0
    temp_checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (
            f"mixed: {self.steps} steps, {self.commits} commit(s), "
            f"{self.aborts} abort(s), {self.reads} read-check(s), "
            f"{self.maintained} maintained temp(s), "
            f"{self.temp_checks} temp check(s), "
            f"{len(self.failures)} failure(s)"
        )


class _Shadow:
    """A SQLite mirror fed only the committed batches."""

    def __init__(self) -> None:
        self.connection = sqlite3.connect(":memory:")
        self.connection.execute('CREATE TABLE "PARTS" ("PNUM", "QOH")')
        self.connection.execute(
            'CREATE TABLE "SUPPLY" ("PNUM", "QUAN", "SHIPDATE")'
        )

    def apply(self, batches: dict[str, list[tuple]], commit: bool = True) -> None:
        for table, rows in batches.items():
            marks = ", ".join("?" for _ in rows[0])
            self.connection.executemany(
                f'INSERT INTO "{table}" VALUES ({marks})', rows
            )
        if commit:
            self.connection.commit()

    def run(self, sql: str, uncommitted: dict[str, list[tuple]] | None = None) -> list[tuple]:
        """``sql``'s rows — as a transaction holding ``uncommitted``
        sees them, when given."""
        if uncommitted is None:
            return [tuple(r) for r in self.connection.execute(sql).fetchall()]
        self.apply(uncommitted, commit=False)
        try:
            return self.run(sql)
        finally:
            self.connection.rollback()

    def close(self) -> None:
        self.connection.close()


def _make_db() -> Database:
    db = Database(buffer_pages=24)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")])
    return db


def _check_reads(
    db: Database, shadow: _Shadow, report: MixedReport, when: str, prepared,
    txn=None, batches=None,
) -> None:
    """The reads of one step; with ``txn``, the serving shapes' text
    through ``txn.query`` instead — kept plans replayed under the open
    transaction's read-your-writes snapshot."""
    reads = [
        (name, sql, lambda sql=sql: db.execute_cached(sql, method="transform").result)
        for name, sql in READ_QUERIES.items()
    ] + [
        (
            f"{name}@{cutoff}",
            SERVING_QUERIES[name].replace("?", f"'{cutoff}'"),
            lambda statement=statement, cutoff=cutoff: statement.execute((cutoff,)).result,
        )
        for name, statement in prepared.items()
        for cutoff in CUTOFFS
    ]
    if txn is not None:
        reads = [
            (name, sql, lambda sql=sql: txn.query(sql))
            for name, sql, _run in reads[len(READ_QUERIES) :]
        ]
    for name, sql, run in reads:
        ours = run().rows
        theirs = shadow.run(sql, batches)
        report.reads += 1
        if normalize_rows(ours) != normalize_rows(theirs):
            report.failures.append(
                f"step {report.steps} [{when}] {name}: "
                f"{sorted(ours, key=repr)!r} != shadow {sorted(theirs, key=repr)!r}"
            )


def _in_order(rows: list[tuple], order) -> bool:
    columns, unique = order
    keys = [tuple(orderable(row[c]) for c in columns) for row in rows]
    return all(a < b if unique else a <= b for a, b in zip(keys, keys[1:]))


def _rebuild(db: Database, plan: CachedPlan, name: str, values, snapshot):
    """Link ``name`` of ``plan`` built from scratch under ``snapshot``:
    its rows and the order its builder claims."""
    session = SessionCatalog(db.catalog)
    with (
        db.catalog.read_lock(),
        db.catalog.snapshots.pinned(snapshot),
        bound_params(values),
    ):
        try:
            return plan.rebuild_link(session, name)
        finally:
            session.drop_temp_tables()


def shared_temp_mismatches(db: Database, plans=None) -> tuple[int, list[str]]:
    """Every registered shared temp against a rebuild from scratch at
    the horizons it claims: the same row bag and claimed order, and its
    rows really in that order.  ``plans`` are where the definitions come
    from (default: every plan in the cache).  Returns how many entries
    were checked and a line per mismatch."""
    if plans is None:
        plans = [
            plan
            for plan in db.plan_cache._entries.values()
            if isinstance(plan, CachedPlan)
        ]
    definitions = {
        spec.fingerprint: (plan, spec, definition.name)
        for plan in plans
        for spec, definition in zip(plan.share_specs, plan.setup)
    }
    registry = db.plan_cache.sharing
    with registry._lock:
        entries = list(registry._entries.items())
    checked, mismatches = 0, []
    for key, entry in entries:
        identity, _config, _schema_version, bound = key
        snapshot = Snapshot(0, dict(entry.horizons))
        rows = list(entry.heap.scan())
        if isinstance(identity, tuple):  # ("sorted", table, column order)
            _sorted, table, columns = identity
            with db.catalog.snapshots.pinned(snapshot):
                base = list(db.catalog.heap_of(table).scan())
            expected, order = base, (columns, False)
            label = f"sorted {table}"
        elif identity in definitions:
            plan, spec, name = definitions[identity]
            values: list[object] = [None] * plan.slot_count
            for slot, value in zip(spec.param_slots, bound):
                values[slot] = value
            expected, order = _rebuild(db, plan, name, tuple(values), snapshot)
            label = f"{name} of {plan.fingerprint[:40]!r}"
        else:
            continue
        checked += 1
        if Counter(rows) != Counter(expected):
            mismatches.append(f"{label} at {entry.horizons}: rows differ")
        elif entry.order != order:
            mismatches.append(
                f"{label}: claims {entry.order}, a rebuild claims {order}"
            )
        elif not _in_order(rows, entry.order):
            mismatches.append(f"{label}: rows not in {entry.order}")
    return checked, mismatches


def run_mixed(steps: int = 200, seed: int = 0) -> MixedReport:
    """Drive ``steps`` interleaved write/read operations and compare."""
    rng = random.Random(seed)
    db = _make_db()
    shadow = _Shadow()
    report = MixedReport()
    next_pnum = 1

    # Seed history: a committed base instance both sides agree on.
    base_parts = [(pnum, rng.randint(0, 3)) for pnum in range(1, 9)]
    base_supply = [
        (rng.randint(1, 8), rng.randint(1, 5), rng.choice(_DATES))
        for _ in range(16)
    ]
    next_pnum = 9
    db.insert("PARTS", base_parts)
    db.insert("SUPPLY", base_supply)
    shadow.apply({"PARTS": base_parts, "SUPPLY": base_supply})
    prepared = {name: db.prepare(sql) for name, sql in SERVING_QUERIES.items()}

    def nullable(value: object) -> object:
        return None if rng.random() < 0.1 else value

    try:
        for _ in range(steps):
            report.steps += 1
            roll = rng.random()
            if roll < 0.5:
                # Plain read step against the committed state.
                _check_reads(db, shadow, report, "steady", prepared)
            else:
                # Transactional write step: build a batch, read while
                # the transaction is still open (must be invisible),
                # then commit or abort.
                # A SUPPLY-only commit is what maintenance absorbs; one
                # that also writes PARTS rebuilds what reads both.
                batches: dict[str, list[tuple]] = {}
                parts: list[tuple] = []
                if rng.random() < 0.6:
                    parts = [
                        (next_pnum + i, rng.randint(0, 3))
                        for i in range(rng.randint(1, 3))
                    ]
                    next_pnum += len(parts)
                    batches["PARTS"] = parts
                if not parts or rng.random() < 0.7:
                    batches["SUPPLY"] = [
                        (
                            nullable(
                                rng.choice(parts)[0]
                                if parts and rng.random() < 0.6
                                else rng.randint(1, next_pnum)
                            ),
                            nullable(rng.randint(1, 5)),
                            nullable(rng.choice(_DATES)),
                        )
                        for _ in range(rng.randint(1, 4))
                    ]
                txn = db.begin()
                try:
                    for table, rows in batches.items():
                        txn.insert(table, rows)
                    _check_reads(db, shadow, report, "open-txn", prepared)
                    _check_reads(
                        db, shadow, report, "inside-txn", prepared, txn, batches
                    )
                    if rng.random() < 0.3:
                        txn.rollback()
                        report.aborts += 1
                        _check_reads(db, shadow, report, "post-abort", prepared)
                    else:
                        txn.commit()
                        report.commits += 1
                        shadow.apply(batches)
                        _check_reads(db, shadow, report, "post-commit", prepared)
                        checked, mismatches = shared_temp_mismatches(db)
                        report.temp_checks += checked
                        report.failures.extend(
                            f"step {report.steps} [maintained] {line}"
                            for line in mismatches
                        )
                except Exception:
                    if txn.state == "open":
                        txn.rollback()
                    raise
            if report.failures:
                break
        report.maintained = db.plan_cache.sharing.maintenances
        # Cross-check the txn layer's own accounting.
        if db.txn.aborts < report.aborts or db.txn.commits < report.commits:
            report.failures.append(
                f"txn counters (commits={db.txn.commits}, "
                f"aborts={db.txn.aborts}) below observed "
                f"({report.commits}, {report.aborts})"
            )
        # Commits, aborts and cached reads must leave no page without
        # an owner: with the plan cache emptied, only tables remain.
        db.plan_cache.clear()
        leaked = leaked_pages(db.catalog)
        if leaked:
            report.failures.append(
                f"leaked {leaked} page(s) after {report.steps} steps"
            )
    finally:
        shadow.close()
    return report
