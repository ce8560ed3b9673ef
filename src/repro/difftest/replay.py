"""Multi-query replay leg: shared subplans vs uncached runs vs SQLite.

The classic difftest checks one query at a time; the sharing registry
(:mod:`repro.serve.sharing`) only does interesting work *across*
queries.  This leg replays a seeded mixed workload — a pool of query
shapes deliberately built so distinct outer blocks need the same inner
temp chains, interleaved with committed inserts — through

1. ``execute_cached`` on a :class:`~repro.api.Database` (cached plans
   leasing and publishing shared temps),
2. a prepared handle of the same shape with the cutoff as ``?`` (the
   same plan store, resolved from the statement's side),
3. ``Database.query`` of the same text (the same kept plans, replayed
   ad hoc: every temp built privately and dropped, nothing leased),
4. ``Database.run`` on the same instance (the same statement path with
   no cache: planned afresh, every temp built and dropped), and
5. a SQLite shadow fed the same rows,

and demands every result agree across all five after every event.
The inserts exercise eager invalidation mid-replay: a purged shared
temp must never leak a stale row into a later answer, and a kept plan's
type-A values — value links, one-row registry entries, brought forward
or evaluated again — must follow the data.  The handles stay
open to the end, so the closing ``plan_cache.clear()`` and page-leak
check cover what prepared statements kept too.

The leg fails if less than :data:`MIN_SHARED_FRACTION` of the temp
installations were served from the registry — a replay that does not
actually share is not testing the machinery it claims to.

The CLI entry point is ``python -m repro difftest --replay N``.
"""

from __future__ import annotations

import random
import sqlite3
from dataclasses import dataclass, field

from repro.api import Database
from repro.difftest.leaks import leaked_pages
from repro.difftest.normalize import normalize_rows
from repro.serve.prepared import PreparedStatement

#: Inner-chain cutoffs: two distinct values so the replay exercises
#: value-keyed registry entries without drowning sharing in variety.
CUTOFFS = ("1980-06-01", "1983-01-01")

#: Queries whose replay shares less than this fraction of its temp
#: installations does not validate the registry; the leg fails.
MIN_SHARED_FRACTION = 0.30


def query_pool() -> list[tuple[str, tuple[str, ...]]]:
    """Mixed shapes: several outer blocks per inner chain, plus noise.

    Each is ``(template, values)``: ``template.format(*literals)`` is
    the ad-hoc text, ``template.format("?")`` the prepared one.

    The first three shapes per cutoff share the whole NEST-JA2 chain
    (same correlated COUNT), so a healthy replay leases far more temps
    than it builds; the trailing type-N/type-J shapes keep the mix
    honest (different chains, no sharing), and the uncorrelated
    aggregates are NEST-A's type-A blocks — value links, one with the
    cutoff inside the block — whose values half the write batches move,
    which a kept plan or a shared entry must not carry across.
    The type-J block reaching past its type-JA parent to the root was a
    tracked wrong answer until its inner relation became a
    duplicate-free temp: a fan-out before the COUNT would show here.
    """
    inner = (
        "(SELECT COUNT(SHIPDATE) FROM SUPPLY "
        "WHERE SUPPLY.PNUM = PARTS.PNUM AND SHIPDATE < {})"
    )
    pool: list[tuple[str, tuple[str, ...]]] = []
    for cutoff in CUTOFFS:
        pool.extend(
            (template, (cutoff,))
            for template in (
                f"SELECT PNUM FROM PARTS WHERE QOH = {inner}",
                f"SELECT PNUM, QOH FROM PARTS WHERE QOH >= {inner}",
                f"SELECT QOH FROM PARTS WHERE QOH < {inner}",
                "SELECT PNUM FROM PARTS WHERE PNUM IN "
                "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < {})",
                "SELECT PNUM FROM PARTS WHERE QOH < "
                "(SELECT MAX(QUAN) FROM SUPPLY WHERE SHIPDATE < {})",
            )
        )
    pool.append(
        (
            "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(SHIPDATE) "
            "FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN IN "
            "(SELECT QUAN FROM SUPPLY S2 WHERE S2.PNUM = PARTS.PNUM "
            "AND S2.SHIPDATE < {}))",
            (CUTOFFS[0],),
        )
    )
    pool.append(
        (
            "SELECT PARTS.PNUM FROM PARTS, SUPPLY "
            "WHERE PARTS.PNUM = SUPPLY.PNUM AND SUPPLY.QUAN > 2",
            (),
        )
    )
    pool.append(
        (
            "SELECT PNUM, QOH FROM PARTS WHERE PNUM = "
            "(SELECT MAX(P2.PNUM) FROM PARTS P2)",
            (),
        )
    )
    return pool


@dataclass
class ReplayReport:
    """Aggregate statistics of one multi-query replay run."""

    queries: int = 0
    writes: int = 0
    shared_installs: int = 0
    built_installs: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures

    @property
    def shared_fraction(self) -> float:
        total = self.shared_installs + self.built_installs
        return self.shared_installs / total if total else 0.0

    def summary(self) -> str:
        return (
            f"replay: {self.queries} quer(ies), "
            f"{self.writes} write(s), {self.shared_installs} shared / "
            f"{self.built_installs} built temp install(s) "
            f"({100.0 * self.shared_fraction:.1f}% shared), "
            f"{len(self.failures)} failure(s)"
        )


def _seed_rows(rng: random.Random) -> tuple[list[tuple], list[tuple]]:
    parts = [(pnum, rng.randrange(0, 8)) for pnum in range(1, 61)]
    supply = [
        (
            rng.randrange(1, 61),
            rng.randrange(0, 6),
            f"19{70 + rng.randrange(0, 20)}-0{1 + rng.randrange(0, 9)}-15",
        )
        for _ in range(300)
    ]
    return parts, supply


def _write_batch(rng: random.Random) -> tuple[str, list[tuple]]:
    if rng.random() < 0.5:
        start = rng.randrange(1000, 9000)
        return "PARTS", [(start + i, rng.randrange(0, 8)) for i in range(3)]
    return "SUPPLY", [
        (
            rng.randrange(1, 61),
            rng.randrange(0, 6),
            f"19{70 + rng.randrange(0, 20)}-03-01",
        )
        for _ in range(5)
    ]


def _make_database() -> Database:
    db = Database(buffer_pages=128)
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "text")])
    return db


def _make_shadow() -> sqlite3.Connection:
    connection = sqlite3.connect(":memory:")
    connection.execute('CREATE TABLE "PARTS" ("PNUM", "QOH")')
    connection.execute('CREATE TABLE "SUPPLY" ("PNUM", "QUAN", "SHIPDATE")')
    return connection


def run_replay(
    queries: int,
    seed: int = 0,
    write_every: int = 25,
) -> ReplayReport:
    """Replay ``queries`` events through one database and its shadow."""
    report = ReplayReport()
    pool = query_pool()
    rng = random.Random(seed)
    db = _make_database()
    shadow = _make_shadow()
    parts, supply = _seed_rows(rng)
    for table, rows in (("PARTS", parts), ("SUPPLY", supply)):
        db.insert(table, rows)
        marks = ", ".join("?" for _ in rows[0])
        shadow.executemany(f'INSERT INTO "{table}" VALUES ({marks})', rows)
    shadow.commit()
    handles: dict[str, PreparedStatement] = {}
    for step in range(queries):
        if write_every and step % write_every == write_every - 1:
            table, rows = _write_batch(rng)
            db.insert(table, rows)
            marks = ", ".join("?" for _ in rows[0])
            shadow.executemany(
                f'INSERT INTO "{table}" VALUES ({marks})', rows
            )
            shadow.commit()
            report.writes += 1
            continue
        template, values = rng.choice(pool)
        sql = template.format(*(f"'{value}'" for value in values))
        shared_run = db.execute_cached(sql)
        if template not in handles:
            handles[template] = db.prepare(template.format("?"))
        prepared_run = handles[template].execute(values)
        adhoc_rows = db.query(sql).rows
        plain_run = db.run(sql, method="auto")
        oracle_rows = [tuple(row) for row in shadow.execute(sql).fetchall()]
        report.queries += 1
        for step_label in shared_run.steps:
            if step_label.startswith("shared "):
                report.shared_installs += 1
            elif step_label.startswith("built "):
                report.built_installs += 1
        ours = normalize_rows(shared_run.result.rows)
        unshared = normalize_rows(plain_run.result.rows)
        oracle = normalize_rows(oracle_rows)
        if ours != oracle:
            report.failures.append(
                f"step {step}: execute_cached diverged from "
                f"SQLite\n  {sql}\n  ours:   {sorted(ours.items())[:5]}"
                f"\n  oracle: {sorted(oracle.items())[:5]}"
            )
        if ours != unshared:
            report.failures.append(
                f"step {step}: execute_cached diverged from "
                f"Database.run\n  {sql}"
            )
        if ours != normalize_rows(prepared_run.result.rows):
            report.failures.append(
                f"step {step}: execute_cached diverged from "
                f"the prepared statement\n  {sql}"
            )
        if ours != normalize_rows(adhoc_rows):
            report.failures.append(
                f"step {step}: execute_cached diverged from "
                f"Database.query\n  {sql}"
            )
    registry = db.plan_cache.sharing
    if any(entry.active != 0 for entry in registry._entries.values()):
        report.failures.append("leaked registry lease")
    db.plan_cache.clear()
    leaked = leaked_pages(db.catalog)
    if leaked:
        report.failures.append(f"leaked {leaked} page(s)")
    if report.clean and report.shared_fraction < MIN_SHARED_FRACTION:
        report.failures.append(
            f"replay shared only {100.0 * report.shared_fraction:.1f}% of "
            f"temp installs (< {100.0 * MIN_SHARED_FRACTION:.0f}%): the "
            "workload is not exercising the sharing registry"
        )
    return report
