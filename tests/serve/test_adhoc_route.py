"""``Database.query`` resolves through the plan cache and replays with
private temps.

The text's predicate literals are parameterized as for
``execute_cached``, so a repeated shape replays a kept, already-verified
plan: planning and verification run only on a miss — one plan per
shape, literals inside type-A blocks included.  Of the shared registry
the replay leases and publishes only the one-row entries of value links
(the type-A blocks), so every temp is built privately and freed at the
end, as a planned-and-discarded run's.  Under a transaction's
read-your-writes snapshot the kept plan replays with nothing shared.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest

import repro.analysis
import repro.core.pipeline
import repro.serve.plan
from repro import Database
from repro.difftest.leaks import leaked_pages
from tests.core import test_page_schedule as schedule
from tests.core.test_page_schedule import JOINS, SHAPES

#: 60 parts on 6 pages, 240 shipments on 24 pages, against B=8.
PARTS = schedule.PARTS[:60]
SUPPLY = schedule.SUPPLY[:240]
CUTOFFS = ("'1979-03-15'", "'1980-07-15'", "'1982-01-15'")
#: The shapes whose type-A block is a value link: a hit leases its
#: one-row entry instead of evaluating the block.
FOLDED = {"a", "not_in"}
VERIFIERS = ("verify_transform", "lint_transform")


def make_db(join_method: str = "merge") -> Database:
    db = Database(buffer_pages=8, join_method=join_method)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"], rows_per_page=10)
    db.create_table(
        "SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")], rows_per_page=10
    )
    db.insert("PARTS", PARTS)
    db.insert("SUPPLY", SUPPLY)
    db.create_index("SUPPLY", "PNUM")
    return db


def sqlite_rows(sql: str, parts=PARTS, supply=SUPPLY) -> Counter:
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE PARTS (PNUM, QOH)")
        connection.execute("CREATE TABLE SUPPLY (PNUM, QUAN, SHIPDATE)")
        connection.executemany("INSERT INTO PARTS VALUES (?, ?)", parts)
        connection.executemany("INSERT INTO SUPPLY VALUES (?, ?, ?)", supply)
        return Counter(connection.execute(sql).fetchall())
    finally:
        connection.close()


def pages(db: Database, run) -> int:
    """Page reads + writes of ``run()`` from a cold buffer pool."""
    db.cold_cache()
    before = db.io_stats()
    run()
    used = db.io_stats() - before
    return used.page_reads + used.page_writes


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Calls of ``build_plan``, the binder and the two verifier walks,
    counted by wrapping the functions where the statement path looks
    them up."""
    counts: Counter = Counter()

    def count(module, name: str) -> None:
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(repro.serve.plan, "build_plan")
    count(repro.core.pipeline, "qualify")
    for name in VERIFIERS:
        count(repro.analysis, name)
    return counts


@pytest.mark.parametrize("join_method", JOINS)
@pytest.mark.parametrize("shape", list(SHAPES))
def test_rows_equal_a_planned_run_and_sqlite(shape, join_method):
    db = make_db(join_method)
    for cutoff in CUTOFFS:
        sql = SHAPES[shape].format(c=cutoff)
        expected = sqlite_rows(sql)
        assert Counter(db.run(sql, method="auto").result.rows) == expected
        for _ in range(2):  # the first literal misses, then a kept plan
            assert Counter(db.query(sql).rows) == expected
    stats = db.cache_stats()
    assert stats.hits >= len(CUTOFFS)
    assert stats.misses == 1


@pytest.mark.parametrize("join_method", JOINS)
@pytest.mark.parametrize("shape", list(SHAPES))
def test_a_kept_plan_is_neither_planned_nor_verified_again(
    shape, join_method, calls
):
    db = make_db(join_method)
    first, *others = (SHAPES[shape].format(c=cutoff) for cutoff in CUTOFFS)
    db.query(first)
    assert calls["build_plan"] == 1
    for sql in others:
        calls.clear()
        db.query(sql)
        assert not calls, dict(calls)


@pytest.mark.parametrize("join_method", JOINS)
@pytest.mark.parametrize("shape", list(SHAPES))
def test_a_hit_reads_and_writes_no_more_pages_than_a_planned_run(
    shape, join_method
):
    """Equal where the plan has no value link: the kept plan is the
    planned run's plan.  A hit on a value-link shape leases the block's
    one-row value, which the planned run evaluates."""
    db = make_db(join_method)
    for cutoff in CUTOFFS:
        sql = SHAPES[shape].format(c=cutoff)
        db.query(sql)
        planned = pages(db, lambda: db.run(sql, method="auto"))
        hit = pages(db, lambda: db.query(sql))
        if shape in FOLDED:
            assert hit < planned, cutoff
        else:
            assert hit == planned, cutoff


@pytest.mark.parametrize("join_method", JOINS)
def test_adhoc_traffic_publishes_nothing_and_leaks_nothing(join_method):
    """Nothing but the one-row entries of value links: one per type-A
    shape and cutoff."""
    db = make_db(join_method)
    for shape in SHAPES:
        for cutoff in CUTOFFS:
            db.query(SHAPES[shape].format(c=cutoff))
    entries = list(db.plan_cache.sharing._entries.values())
    assert len(entries) == len(FOLDED) * len(CUTOFFS)
    assert db.cache_stats().shared_materializations == len(entries)
    assert all(entry.heap.num_rows == 1 for entry in entries)
    links = {
        spec.fingerprint
        for plan in db.plan_cache._entries.values()
        for spec, link in zip(plan.share_specs, plan.setup)
        if link.slot is not None
    }
    assert {entry.key[0] for entry in entries} <= links
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0


def test_an_adhoc_hit_on_a_serving_plan_leases_nothing():
    """The plan ``execute_cached`` built and shares from is the one
    ``db.query`` replays — privately."""
    db = make_db()
    sql = SHAPES["ja_count"].format(c=CUTOFFS[1])
    db.execute_cached(sql)
    before = db.cache_stats()
    assert before.shared_materializations > 0
    assert Counter(db.query(sql).rows) == sqlite_rows(sql)
    after = db.cache_stats()
    assert after.hits == before.hits + 1
    assert (after.shared_materializations, after.shared_hits) == (
        before.shared_materializations,
        before.shared_hits,
    )


def test_literals_evaluate_as_written():
    """A literal of the text is not held to the bind contract of a
    parameter: an INT column against a FLOAT literal compares."""
    db = make_db()
    sql = "SELECT PNUM FROM PARTS WHERE QOH < 1.5"
    assert Counter(db.query(sql).rows) == sqlite_rows(sql)
    assert Counter(db.query("SELECT PNUM FROM PARTS WHERE QOH < 2.5").rows) == (
        sqlite_rows("SELECT PNUM FROM PARTS WHERE QOH < 2.5")
    )


def test_create_index_replans(calls):
    db = make_db()
    sql = SHAPES["ja_count"].format(c=CUTOFFS[1])
    db.query(sql)
    calls.clear()
    db.create_index("PARTS", "QOH")
    assert Counter(db.query(sql).rows) == sqlite_rows(sql)
    assert calls["build_plan"] == 1


def test_an_insert_into_a_folded_table_replans(calls):
    """``not_in`` binds SUPPLY's part numbers into a list slot at
    replay: after an insert into PARTS, and one into SUPPLY, the kept
    plan answers with no re-plan."""
    db = make_db()
    sql = SHAPES["not_in"].format(c=CUTOFFS[1])
    db.query(sql)
    calls.clear()
    parts = [(1001, 0)]
    db.insert("PARTS", parts)
    assert Counter(db.query(sql).rows) == sqlite_rows(sql, PARTS + parts)
    assert calls["build_plan"] == 0
    supply = [(2, 1, "1978-01-01")]  # only odd part numbers shipped
    db.insert("SUPPLY", supply)
    rows = Counter(db.query(sql).rows)
    assert rows == sqlite_rows(sql, PARTS + parts, SUPPLY + supply)
    assert (2,) not in rows
    assert calls["build_plan"] == 0
    assert db.cache_stats().invalidations == 0


class TestTransactionGuard:
    """A type-A block read over a transaction's own rows: the kept plan
    replays inside the transaction, evaluates the block under its
    read-your-writes snapshot and shares nothing, so the same
    transaction after more inserts, another transaction that wrote the
    table and a later plain reader each see their own rows."""

    PARTS = [(1, 0), (2, 3), (3, 5), (4, 7)]
    SUPPLY = [(1, 2, "1979-01-01"), (2, 4, "1981-01-01")]
    SQL = SHAPES["a"].format(c="'1980-07-15'")

    def make_db(self) -> Database:
        db = Database()
        db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"])
        db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")])
        db.insert("PARTS", self.PARTS)
        db.insert("SUPPLY", self.SUPPLY)
        return db

    def answer(self, txn) -> Counter:
        return Counter(txn.query(self.SQL).rows)

    def expected(self, *own) -> Counter:
        return sqlite_rows(self.SQL, self.PARTS, self.SUPPLY + [*own])

    def test_each_transaction_reads_its_own_rows(self):
        db = self.make_db()
        assert Counter(db.query(self.SQL).rows) == self.expected()
        kept = len(db.plan_cache)
        shared = len(db.plan_cache.sharing)

        first = db.begin()
        own = (9, 6, "1979-05-05")
        first.insert("SUPPLY", [own])
        assert self.answer(first) == self.expected(own)
        more = (9, 8, "1979-06-06")
        first.insert("SUPPLY", [more])
        assert self.answer(first) == self.expected(own, more)
        first.rollback()

        second = db.begin()
        theirs = (7, 4, "1980-01-01")
        second.insert("SUPPLY", [theirs])
        assert self.answer(second) == self.expected(theirs)
        second.rollback()

        assert len(db.plan_cache) == kept
        assert len(db.plan_cache.sharing) == shared
        assert Counter(db.query(self.SQL).rows) == self.expected()
