"""A statement's output does not depend on the method that ran it.

Both executors, the verifier and the plan name a result's columns by one
rule (the alias, else the column's name, else the item's SQL text, a
``*`` expanded) and resolve an ORDER BY by one rule, so ``columns`` and
the error an unresolvable ORDER BY raises are the same under
``nested_iteration``, ``transform`` and ``auto``, on ``Database.run``
and on ``Database.query``.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest

from repro import Database
from repro.errors import VerificationError

METHODS = ("nested_iteration", "transform", "auto")

COLUMNS = {
    "SELECT MAX(QUAN) - MIN(QUAN), COUNT(*) FROM SUPPLY": [
        "MAX(QUAN) - MIN(QUAN)", "COUNT(*)",
    ],
    "SELECT PNUM, QOH * 2 FROM PARTS WHERE QOH < (SELECT MAX(QUAN) FROM SUPPLY)": [
        "PNUM", "QOH * 2",
    ],
    "SELECT PNUM AS ID, QOH + 1 AS NEXT FROM PARTS WHERE PNUM IN "
    "(SELECT PNUM FROM SUPPLY WHERE QUAN > 1)": ["ID", "NEXT"],
    "SELECT * FROM PARTS WHERE QOH > 0 ORDER BY QOH": ["PNUM", "QOH"],
}


PARTS = [(3, 6), (10, 1), (8, 0)]
SUPPLY = [(3, 4), (3, 2), (10, 1), (8, 5)]


def make_db(join_method: str = "merge", parts=PARTS) -> Database:
    db = Database(join_method=join_method)
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table("SUPPLY", ["PNUM", "QUAN"])
    db.insert("PARTS", parts)
    db.insert("SUPPLY", SUPPLY)
    return db


def sqlite_bag(sql: str, parts=PARTS) -> Counter:
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE PARTS (PNUM, QOH)")
        connection.execute("CREATE TABLE SUPPLY (PNUM, QUAN)")
        connection.executemany("INSERT INTO PARTS VALUES (?, ?)", parts)
        connection.executemany("INSERT INTO SUPPLY VALUES (?, ?)", SUPPLY)
        return Counter(connection.execute(sql).fetchall())
    finally:
        connection.close()


@pytest.mark.parametrize("sql", list(COLUMNS))
def test_columns_do_not_depend_on_the_method(sql):
    db = make_db()
    for method in METHODS:
        assert db.run(sql, method=method).result.columns == COLUMNS[sql], method
        assert db.query(sql, method=method).columns == COLUMNS[sql], method


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT PNUM FROM PARTS ORDER BY 1",
        "SELECT PNUM AS P FROM PARTS WHERE QOH > 0 ORDER BY QOH",
        "SELECT PNUM, QOH FROM PARTS ORDER BY PNUM, QOH DESC",
    ],
)
def test_an_unresolvable_order_by_raises_one_error_class(sql):
    db = make_db()
    for method in METHODS:
        with pytest.raises(VerificationError, match="PV011"):
            db.run(sql, method=method)
        with pytest.raises(VerificationError, match="PV011"):
            db.query(sql, method=method)


def test_order_by_a_qualified_column_names_its_item():
    """``ORDER BY S.PNUM`` sorts on the item that spells it, not on the
    first output column named PNUM."""
    db = make_db()
    sql = (
        "SELECT PARTS.PNUM, SUPPLY.PNUM FROM PARTS, SUPPLY "
        "WHERE PARTS.QOH < SUPPLY.QUAN ORDER BY SUPPLY.PNUM"
    )
    for method in METHODS:
        rows = db.run(sql, method=method).result.rows
        assert [row[1] for row in rows] == sorted(row[1] for row in rows), method


#: An ORDER BY of an output name inside a nested block: the one name the
#: binder leaves unqualified, which no later pass may take for a column
#: of an enclosing block.
NESTED_ORDER_BY = [
    "SELECT PNUM FROM PARTS WHERE QOH IN (SELECT QUAN AS X FROM SUPPLY "
    "WHERE SUPPLY.QUAN >= PARTS.QOH ORDER BY X)",
    "SELECT PNUM FROM PARTS WHERE EXISTS (SELECT QUAN AS X FROM SUPPLY "
    "WHERE SUPPLY.QUAN > PARTS.QOH ORDER BY X)",
    "SELECT PNUM FROM PARTS WHERE QOH < (SELECT MAX(QUAN) AS X FROM SUPPLY "
    "WHERE SUPPLY.PNUM = PARTS.PNUM ORDER BY X)",
]


@pytest.mark.parametrize("join_method", ["merge", "nested", "hash"])
@pytest.mark.parametrize("sql", NESTED_ORDER_BY)
def test_an_order_by_output_name_in_a_nested_block(sql, join_method):
    db = make_db(join_method)
    expected = sqlite_bag(sql)
    for method in METHODS:
        assert Counter(db.run(sql, method=method).result.rows) == expected, method
        assert Counter(db.query(sql, method=method).rows) == expected, method


def test_a_nested_order_by_output_name_keeps_the_memo():
    """The block reads one outer column, QOH: five values over 50 parts."""
    from repro.bench.harness import block_evaluations

    parts = [(pnum, pnum % 5) for pnum in range(50)]
    db = make_db(parts=parts)
    sql = NESTED_ORDER_BY[0]
    assert block_evaluations(db.catalog, sql) == {"PARTS": 1, "SUPPLY": 5}
    assert Counter(db.run(sql, method="nested_iteration").result.rows) == sqlite_bag(
        sql, parts
    )
