"""A statement's output does not depend on the method that ran it.

Both executors, the verifier and the plan name a result's columns by one
rule (the alias, else the column's name, else the item's SQL text, a
``*`` expanded) and resolve an ORDER BY by one rule, so ``columns`` and
the error an unresolvable ORDER BY raises are the same under
``nested_iteration``, ``transform`` and ``auto``, on ``Database.run``
and on ``Database.query``.
"""

from __future__ import annotations

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


def make_db() -> Database:
    db = Database()
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table("SUPPLY", ["PNUM", "QUAN"])
    db.insert("PARTS", [(3, 6), (10, 1), (8, 0)])
    db.insert("SUPPLY", [(3, 4), (3, 2), (10, 1), (8, 5)])
    return db


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
