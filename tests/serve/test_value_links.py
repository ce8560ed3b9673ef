"""NEST-A at replay: a plan reads no data.

A type-A block is a *value link* of its plan's chain.  Planning builds
no temp and reads no page; each replay evaluates the block once, under
its pinned snapshot, and binds the value — a scalar, or the value list
of an ``IN`` / ``NOT IN`` — into a hidden parameter slot.  So a plan
built before an insert answers after it with no re-plan, whichever
route kept it.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.serve.plan
from repro import Database
from repro.core.transform import TempTableDef
from repro.difftest.leaks import leaked_pages
from repro.difftest.mixed import shared_temp_mismatches
from repro.errors import CardinalityError
from repro.serve.plan import CachedPlan, build_plan
from repro.serve.sharing import compute_share_specs
from repro.sql.parser import parse
from tests.core.test_page_schedule import CUTOFF, JOINS, PARTS, SHAPES, SUPPLY


def make_db(join_method: str = "merge") -> Database:
    """The page schedule's instance: 200 parts, 800 shipments, B=8."""
    db = Database(buffer_pages=8, join_method=join_method)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"], rows_per_page=10)
    db.create_table(
        "SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")], rows_per_page=10
    )
    db.insert("PARTS", PARTS)
    db.insert("SUPPLY", SUPPLY)
    db.create_index("SUPPLY", "PNUM")
    return db


def sqlite_rows(db: Database, sql: str) -> Counter:
    connection = sqlite3.connect(":memory:")
    try:
        for table in ("PARTS", "SUPPLY"):
            rows = list(db.catalog.heap_of(table).scan())
            columns = db.catalog.schema_of(table).column_names
            connection.execute(f"CREATE TABLE {table} ({', '.join(columns)})")
            marks = ", ".join("?" for _ in columns)
            connection.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
        return Counter(connection.execute(sql).fetchall())
    finally:
        connection.close()


@pytest.mark.parametrize("join_method", JOINS)
@pytest.mark.parametrize("shape", list(SHAPES))
def test_build_plan_reads_no_page(shape, join_method):
    db = make_db(join_method)
    db.cold_cache()
    before = db.io_stats()
    build_plan(
        db.catalog, db.engine.config, parse(SHAPES[shape].format(c=CUTOFF)), "auto"
    )
    used = db.io_stats() - before
    assert (used.page_reads, used.page_writes, used.buffer_hits) == (0, 0, 0)
    assert db.tables() == ["PARTS", "SUPPLY"]


#: Four kinds of type-A block, each with the cutoff inside the block.
KINDS = {
    "scalar": "SELECT PNUM FROM PARTS WHERE QOH < "
    "(SELECT MAX(QUAN) FROM SUPPLY WHERE SHIPDATE < {c})",
    "in_aggregate": "SELECT PNUM FROM PARTS WHERE QOH IN "
    "(SELECT MAX(QUAN) FROM SUPPLY WHERE SHIPDATE < {c})",
    "not_in": "SELECT PNUM FROM PARTS WHERE PNUM NOT IN "
    "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < {c})",
    # The block reads a NEST-G temp (a type-JA chain inside it).
    "over_a_temp": "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT MAX(S1.QUAN) FROM SUPPLY S1 WHERE S1.QUAN = "
    "(SELECT COUNT(S2.SHIPDATE) FROM SUPPLY S2 "
    "WHERE S2.PNUM = S1.PNUM AND S2.SHIPDATE < {c}))",
}

#: Early shipments of high quantities, some to parts that never
#: shipped (even numbers): every kind's answer moves.
NEW_SUPPLY = [(2, 6, "1978-02-02"), (4, 0, "1978-03-03"), (3, 3, "1978-04-04")]


def route(db: Database, kind: str, how: str):
    sql = KINDS[kind].format(c=CUTOFF)
    if how == "prepared":
        statement = db.prepare(KINDS[kind].format(c="?"))
        return sql, lambda: statement.execute((CUTOFF.strip("'"),)).result.rows
    if how == "cached":
        return sql, lambda: db.execute_cached(sql).result.rows
    return sql, lambda: db.query(sql).rows


@pytest.mark.parametrize("how", ["query", "cached", "prepared"])
@pytest.mark.parametrize("kind", list(KINDS))
def test_a_plan_built_before_an_insert_answers_after_it(kind, how, monkeypatch):
    db = make_db()
    sql, run = route(db, kind, how)
    assert Counter(run()) == sqlite_rows(db, sql)
    planned: list = []
    real = repro.serve.plan.build_plan
    monkeypatch.setattr(
        repro.serve.plan,
        "build_plan",
        lambda *args, **kwargs: planned.append(args) or real(*args, **kwargs),
    )
    for rows in ([(201, 0)], []):
        if rows:
            db.insert("PARTS", rows)
        db.insert("SUPPLY", NEW_SUPPLY)
        assert Counter(run()) == sqlite_rows(db, sql)
    assert planned == []
    assert db.cache_stats().invalidations == 0
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0


def test_a_cardinality_error_at_replay_publishes_nothing_and_leaks_no_page(
    monkeypatch,
):
    """The block groups by part number and is one row only while one
    part below 3 has shipped; an insert makes it two, and the kept plan
    raises at replay — not at a re-plan — leaving the registry as it
    found it."""
    db = make_db("hash")
    sql = (
        "SELECT PNUM FROM PARTS WHERE QOH = "
        "(SELECT MAX(QUAN) FROM SUPPLY WHERE PNUM < 3 GROUP BY PNUM)"
    )
    assert Counter(db.execute_cached(sql).result.rows) == sqlite_rows(db, sql)
    db.insert("SUPPLY", [(2, 1, "1979-01-01")])
    registry = db.plan_cache.sharing
    entries = dict(registry._entries)
    published = registry.materializations
    planned: list = []
    monkeypatch.setattr(repro.serve.plan, "build_plan", planned.append)
    for run in (lambda: db.execute_cached(sql), lambda: db.query(sql)):
        with pytest.raises(CardinalityError, match="returned 2 rows"):
            run()
    assert planned == []
    assert registry.materializations == published
    assert dict(registry._entries) == entries
    assert all(entry.active == 0 for entry in registry._entries.values())
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0


#: Value-link blocks -> whether a SUPPLY commit is merged into the
#: registered value rather than evaluated again.  Only a block of bare
#: combinable aggregates without GROUP BY stays one row under a merge;
#: an expression over an aggregate, such as ``MAX(QUAN) - 1``, is
#: evaluated again (end to end below).
ONE_ROW = {
    "max": ("SELECT MAX(SUPPLY.QUAN) AS V FROM SUPPLY WHERE SUPPLY.SHIPDATE < ?", True),
    "count_star": ("SELECT COUNT(*) AS V FROM SUPPLY", True),
    "max_minus_1": ("SELECT MAX(SUPPLY.QUAN) - 1 AS V FROM SUPPLY", False),
    "count_plus_1": ("SELECT COUNT(*) + 1 AS V FROM SUPPLY", False),
    "avg": ("SELECT AVG(SUPPLY.QUAN) AS V FROM SUPPLY", False),
    "plain": ("SELECT SUPPLY.QUAN AS V FROM SUPPLY WHERE SUPPLY.PNUM = 3", False),
    "grouped": (
        "SELECT MAX(SUPPLY.QUAN) AS V FROM SUPPLY GROUP BY SUPPLY.PNUM",
        False,
    ),
}


@pytest.mark.parametrize("name", list(ONE_ROW))
def test_a_value_link_is_maintained_only_while_it_stays_one_row(name):
    sql, one_row = ONE_ROW[name]
    (scalar,) = compute_share_specs([TempTableDef("ATEMP_1", parse(sql), 0)])
    (listed,) = compute_share_specs([TempTableDef("ATEMP_1", parse(sql), 0, True)])
    assert scalar.maintainable_on == (
        frozenset({"SUPPLY"}) if one_row else frozenset()
    )
    assert listed.maintainable_on == frozenset()


def test_an_expression_over_an_aggregate_is_evaluated_again_never_maintained():
    """The prepared ``MAX(QUAN) - 1`` value link after SUPPLY commits:
    each replay evaluates the block again, and answers as SQLite does."""
    db = make_db()
    sql = (
        "SELECT PNUM FROM PARTS WHERE QOH < "
        "(SELECT MAX(QUAN) - 1 FROM SUPPLY WHERE SHIPDATE < {c})"
    )
    statement = db.prepare(sql.format(c="?"))
    fates: Counter = Counter()
    for rows in ([], NEW_SUPPLY, [(5, 9, "1977-01-01")]):
        if rows:
            db.insert("SUPPLY", rows)
        report = statement.execute((CUTOFF.strip("'"),))
        assert Counter(report.result.rows) == sqlite_rows(db, sql.format(c=CUTOFF))
        fates.update(statement._resolve().last_links.values())
    assert fates == Counter(evaluated=3)
    statement.close()
    assert leaked_pages(db.catalog) == 0


def test_a_grouped_temp_outputs_only_group_columns_and_bare_aggregates():
    """The merge matches rows on every non-aggregate column: one that is
    no GROUP BY column (here an expression over an aggregate) is not a
    key, and the temp is rebuilt."""
    for item, maintainable in (("MAX(V.QUAN)", True), ("MAX(V.QUAN) - 1", False)):
        setup = [
            TempTableDef(
                "V", parse("SELECT SUPPLY.PNUM AS J, SUPPLY.QUAN AS QUAN FROM SUPPLY")
            ),
            TempTableDef(
                "G", parse(f"SELECT V.J AS J, {item} AS M FROM V GROUP BY V.J")
            ),
        ]
        spec = compute_share_specs(setup)[-1]
        assert (spec.maintainable_on == frozenset({"SUPPLY"})) is maintainable


#: Prepared type-A statements over a small instance with NULLs in every
#: column the blocks read: the aggregates are maintained over a SUPPLY
#: commit, the value list is evaluated again.
MAINTAINED_KINDS = {
    "max": "SELECT PNUM FROM PARTS WHERE QOH < "
    "(SELECT MAX(QUAN) FROM SUPPLY WHERE SHIPDATE < ?)",
    "min": "SELECT PNUM FROM PARTS WHERE QOH > "
    "(SELECT MIN(QUAN) FROM SUPPLY WHERE SHIPDATE < ?)",
    "count": "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(*) FROM SUPPLY WHERE SHIPDATE < ?)",
    "sum": "SELECT PNUM FROM PARTS WHERE QOH <= "
    "(SELECT SUM(QUAN) FROM SUPPLY WHERE SHIPDATE < ?)",
    "not_in": "SELECT PNUM FROM PARTS WHERE PNUM NOT IN "
    "(SELECT PNUM FROM SUPPLY WHERE SHIPDATE < ?)",
}
DATES = ["1979-01-01", "1980-01-01", "1981-01-01"]
SMALL_SUPPLY = st.tuples(
    st.one_of(st.none(), st.integers(1, 8)),
    st.one_of(st.none(), st.integers(0, 6)),
    st.sampled_from(DATES),
)


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(commits=st.lists(st.lists(SMALL_SUPPLY, max_size=3), min_size=1, max_size=4))
def test_maintained_values_equal_their_rebuilds(commits):
    db = Database(buffer_pages=16)
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")])
    db.insert("PARTS", [(p, p % 7) for p in range(1, 9)] + [(None, 3)])
    db.insert("SUPPLY", [(1, 2, DATES[0]), (None, 4, DATES[1]), (2, None, DATES[0])])
    statements = {kind: db.prepare(sql) for kind, sql in MAINTAINED_KINDS.items()}
    fates: Counter = Counter()
    for rows in [[], *commits]:
        if rows:
            db.insert("SUPPLY", rows)
        for kind, statement in statements.items():
            for cutoff in DATES[1:]:
                sql = MAINTAINED_KINDS[kind].replace("?", f"'{cutoff}'")
                ours = Counter(statement.execute((cutoff,)).result.rows)
                assert ours == sqlite_rows(db, sql), (kind, cutoff)
        for plan in db.plan_cache._entries.values():
            if isinstance(plan, CachedPlan):
                fates.update(plan.last_links.values())
        checked, mismatches = shared_temp_mismatches(db)
        assert checked and not mismatches, mismatches
    if any(commits):
        assert fates["maintained"] > 0
    db.plan_cache.clear()
    assert leaked_pages(db.catalog) == 0
