"""Mixed read/write differential leg: transactions vs a SQLite shadow.

The classic difftest (:mod:`repro.difftest.runner`) checks read-only
queries over frozen instances.  This leg drives a live
:class:`~repro.api.Database` through an interleaved history of

* committed transactions (single- and multi-table inserts),
* aborted transactions (rolled back explicitly), and
* Figure-1 reads through the **cached-plan** path,

while a shadow SQLite database is fed exactly the committed batches —
never the aborted ones.  After every step the read queries must agree
with the shadow:

* a read racing an *open* transaction must not see its uncommitted
  rows (the shadow does not have them yet);
* a read after a commit must see the whole batch (the shadow just got
  it);
* a read after an abort must match the shadow unchanged.

Because reads go through ``Database.execute_cached``, the leg also
difftests the snapshot-pinned plan cache: cached plans built before a
commit must replay correctly after it (fresh horizons, memoized temps
flushed), which is precisely the machinery a pure unit test is most
likely to miss under interleaving.
"""

from __future__ import annotations

import random
import sqlite3
from dataclasses import dataclass, field

from repro.api import Database
from repro.difftest.leaks import leaked_pages
from repro.difftest.normalize import normalize_rows

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

_DATES = ["1975-03-01", "1979-12-30", "1981-08-10", "1985-01-15"]


@dataclass
class MixedReport:
    """Aggregate statistics of one mixed read/write run."""

    steps: int = 0
    commits: int = 0
    aborts: int = 0
    reads: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (
            f"mixed: {self.steps} steps, {self.commits} commit(s), "
            f"{self.aborts} abort(s), {self.reads} read-check(s), "
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

    def apply(self, batches: dict[str, list[tuple]]) -> None:
        for table, rows in batches.items():
            marks = ", ".join("?" for _ in rows[0])
            self.connection.executemany(
                f'INSERT INTO "{table}" VALUES ({marks})', rows
            )
        self.connection.commit()

    def run(self, sql: str) -> list[tuple]:
        return [tuple(r) for r in self.connection.execute(sql).fetchall()]

    def close(self) -> None:
        self.connection.close()


def _make_db() -> Database:
    db = Database(buffer_pages=24)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")])
    return db


def _check_reads(
    db: Database, shadow: _Shadow, report: MixedReport, when: str
) -> None:
    for name, sql in READ_QUERIES.items():
        ours = db.execute_cached(sql, method="transform").result.rows
        theirs = shadow.run(sql)
        report.reads += 1
        if normalize_rows(ours) != normalize_rows(theirs):
            report.failures.append(
                f"step {report.steps} [{when}] {name}: "
                f"{sorted(ours)!r} != shadow {sorted(theirs)!r}"
            )


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

    try:
        for _ in range(steps):
            report.steps += 1
            roll = rng.random()
            if roll < 0.5:
                # Plain read step against the committed state.
                _check_reads(db, shadow, report, "steady")
            else:
                # Transactional write step: build a batch, read while
                # the transaction is still open (must be invisible),
                # then commit or abort.
                batches: dict[str, list[tuple]] = {}
                parts = [
                    (next_pnum + i, rng.randint(0, 3))
                    for i in range(rng.randint(1, 3))
                ]
                next_pnum += len(parts)
                batches["PARTS"] = parts
                if rng.random() < 0.7:
                    batches["SUPPLY"] = [
                        (
                            rng.choice(parts)[0]
                            if rng.random() < 0.6
                            else rng.randint(1, next_pnum),
                            rng.randint(1, 5),
                            rng.choice(_DATES),
                        )
                        for _ in range(rng.randint(1, 4))
                    ]
                txn = db.begin()
                try:
                    for table, rows in batches.items():
                        txn.insert(table, rows)
                    _check_reads(db, shadow, report, "open-txn")
                    if rng.random() < 0.3:
                        txn.rollback()
                        report.aborts += 1
                        _check_reads(db, shadow, report, "post-abort")
                    else:
                        txn.commit()
                        report.commits += 1
                        shadow.apply(batches)
                        _check_reads(db, shadow, report, "post-commit")
                except Exception:
                    if txn.state == "open":
                        txn.rollback()
                    raise
            if report.failures:
                break
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
