"""Plans read no data, so no insert makes one stale.

A type-A block is a value link the replay evaluates under its pinned
snapshot, never a constant folded into the plan: a kept plan answers
after an insert into the table the block reads with no re-plan, and
one plan serves every parameter vector, markers inside the block
included.
"""

from collections import Counter

import pytest

from repro.api import Database

FOLDS = {
    "scalar": "QOH > (SELECT MAX(QUAN) FROM SUPPLY{inner})",
    "list": "QOH IN (SELECT MAX(QUAN) FROM SUPPLY{inner})",
}


def make_db() -> Database:
    db = Database(buffer_pages=16)
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table("SUPPLY", ["PNUM", "QUAN"])
    db.insert("PARTS", [(1, 1), (2, 5), (3, 7), (4, 7)])
    db.insert("SUPPLY", [(1, 2), (2, 4)])
    return db


def runner(db: Database, kind: str, fold: str):
    """(execute, equivalent literal SQL) for one serving path."""
    if kind == "custom":
        # The marker sits inside the type-A block: one entry still
        # serves every vector.
        predicate = FOLDS[fold].format(inner=" WHERE QUAN < ?")
        sql = f"SELECT PNUM FROM PARTS WHERE {predicate}"
        statement = db.prepare(sql)
        for bound in (3, 5, 100):
            statement.execute((bound,))
        assert db.cache_stats().size == 1
        return lambda: statement.execute((100,)), sql.replace("?", "100")
    predicate = FOLDS[fold].format(inner="")
    if kind == "generic":
        sql = f"SELECT PNUM FROM PARTS WHERE PNUM > ? AND {predicate}"
        statement = db.prepare(sql)
        statement.execute((2,))
        assert db.cache_stats().size == 1
        return lambda: statement.execute((0,)), sql.replace("?", "0")
    sql = f"SELECT PNUM FROM PARTS WHERE {predicate}"
    return lambda: db.execute_cached(sql), sql


@pytest.mark.parametrize("fold", list(FOLDS))
@pytest.mark.parametrize("kind", ["execute_cached", "generic", "custom"])
def test_insert_into_folded_inner_table_replans(kind, fold):
    db = make_db()
    execute, literal_sql = runner(db, kind, fold)

    def oracle() -> Counter:
        return Counter(db.query(literal_sql, method="nested_iteration").rows)

    assert Counter(execute().result.rows) == oracle()
    misses = db.cache_stats().misses
    for quan in (5, 7):
        db.insert("SUPPLY", [(9, quan)])
        assert Counter(execute().result.rows) == oracle(), (
            f"stale value after MAX(QUAN) moved to {quan}"
        )
    stats = db.cache_stats()
    assert (stats.misses, stats.invalidations) == (misses, 0)


def test_folded_cached_plan_is_invalidated_unfolded_one_survives():
    """Both plans survive an insert into the table the type-A block
    reads: snapshot-pin hits, no invalidation."""
    db = make_db()
    folded = "SELECT PNUM FROM PARTS WHERE QOH > (SELECT MAX(QUAN) FROM SUPPLY)"
    plain = (
        "SELECT PNUM FROM PARTS WHERE QOH = (SELECT COUNT(QUAN) FROM SUPPLY "
        "WHERE SUPPLY.PNUM = PARTS.PNUM)"
    )
    db.execute_cached(folded)
    db.execute_cached(plain)
    db.insert("SUPPLY", [(9, 6)])
    db.plan_cache.reset_stats()
    db.execute_cached(plain)
    stats = db.cache_stats()
    assert (stats.hits, stats.snapshot_pin_hits, stats.invalidations) == (1, 1, 0)
    after = db.execute_cached(folded)
    stats = db.cache_stats()
    assert (stats.hits, stats.misses, stats.invalidations) == (2, 0, 0)
    assert Counter(after.result.rows) == Counter(
        db.run(folded, method="nested_iteration").result.rows
    )
    assert "folded" not in db.prepare(folded).describe()


def test_folded_plan_is_valid_per_table():
    """A plan over ``MAX(QUAN) FROM SUPPLY`` outlives an insert into
    PARTS and one into SUPPLY alike — snapshot-pin hits, both tables
    re-read under the new snapshot."""
    db = make_db()
    folded = "SELECT PNUM FROM PARTS WHERE QOH > (SELECT MAX(QUAN) FROM SUPPLY)"
    db.execute_cached(folded)
    db.insert("PARTS", [(5, 9)])
    db.plan_cache.reset_stats()
    after = db.execute_cached(folded)
    stats = db.cache_stats()
    assert (stats.hits, stats.snapshot_pin_hits, stats.invalidations) == (1, 1, 0)
    # The oracle plans and discards: db.query would count in the stats.
    assert Counter(after.result.rows) == Counter(
        db.run(folded, method="nested_iteration").result.rows
    )
    assert (5,) in after.result.rows
    db.insert("SUPPLY", [(9, 8)])
    after = db.execute_cached(folded)
    stats = db.cache_stats()
    assert (stats.hits, stats.misses, stats.invalidations) == (2, 0, 0)
    assert Counter(after.result.rows) == Counter([(5,)])
    assert "binding" not in db.prepare(folded).describe()
