"""``ORDER BY <select alias>`` under every method, against SQLite.

The qualification pass used to treat the alias as a table column and
raise ``BindError: cannot resolve column 'X'`` for every method that
runs it (``transform``, ``auto``, ``cost``, ``execute_cached``), while
nested iteration and SQLite answered.  An alias also wins over a base
column of the same name, as in SQLite.
"""

import sqlite3

import pytest

from repro import Database

PARTS = [(3, 6), (10, 1), (8, 0), (5, 6)]
SUPPLY = [(3, 4), (3, 2), (10, 1), (8, 5), (5, 9)]

QUERIES = [
    "SELECT PNUM AS X, QOH FROM PARTS ORDER BY X",
    "SELECT PNUM AS X, QOH FROM PARTS ORDER BY X DESC",
    # The alias shadows a base column: ordered by PNUM's values.
    "SELECT PNUM AS QOH, QOH AS PNUM FROM PARTS ORDER BY QOH",
    "SELECT PNUM AS QOH, QOH AS PNUM FROM PARTS ORDER BY QOH DESC",
    # Through the transformation proper (type-JA) and a grouped block.
    "SELECT PNUM AS X FROM PARTS WHERE QOH < "
    "(SELECT MAX(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM) ORDER BY X DESC",
    "SELECT QOH AS Q, COUNT(PNUM) AS N FROM PARTS GROUP BY QOH ORDER BY Q DESC",
]
IDS = ["asc", "desc", "shadow-asc", "shadow-desc", "type-ja", "grouped"]


@pytest.fixture(scope="module")
def shadow():
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE PARTS (PNUM, QOH)")
    connection.execute("CREATE TABLE SUPPLY (PNUM, QUAN)")
    connection.executemany("INSERT INTO PARTS VALUES (?, ?)", PARTS)
    connection.executemany("INSERT INTO SUPPLY VALUES (?, ?)", SUPPLY)
    yield connection
    connection.close()


@pytest.fixture()
def db():
    database = Database()
    database.execute("CREATE TABLE PARTS (PNUM INT, QOH INT)")
    database.execute("CREATE TABLE SUPPLY (PNUM INT, QUAN INT)")
    database.insert("PARTS", PARTS)
    database.insert("SUPPLY", SUPPLY)
    return database


def expected(shadow, sql):
    return [tuple(row) for row in shadow.execute(sql).fetchall()]


@pytest.mark.parametrize("sql", QUERIES, ids=IDS)
@pytest.mark.parametrize("method", ["nested_iteration", "transform", "auto", "cost"])
def test_run_matches_sqlite(db, shadow, method, sql):
    assert db.run(sql, method=method).result.rows == expected(shadow, sql)


@pytest.mark.parametrize("sql", QUERIES, ids=IDS)
def test_execute_cached_matches_sqlite(db, shadow, sql):
    want = expected(shadow, sql)
    assert db.execute_cached(sql).result.rows == want  # miss: builds the plan
    assert db.execute_cached(sql).result.rows == want  # hit: replays it
