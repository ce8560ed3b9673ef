"""A grouped block's output is one projection over its aggregates.

A grouped block aggregates into its group columns and one slot per
distinct aggregate call; its SELECT items and its HAVING are
expressions over those slots, evaluated together.  So an item may be
any expression over aggregates and grouped columns — ``MAX - MIN``,
``COUNT(*) + 1``, ``-SUM`` — in a flat block, in a type-A block and in
a correlated one.  Every statement is checked against SQLite under
nested iteration and under the transform with each join method.  An
aggregate's argument may itself be an expression (``SUM(QUAN * 2)``).
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest

import repro.engine.nested_iteration as nested_iteration
import repro.optimizer.executor as executor_module
from repro import Database
from repro.core.pipeline import prepare_query
from repro.engine.relation import Relation
from repro.optimizer.executor import SingleLevelExecutor
from repro.sql.parser import parse

#: Part 11 ships nothing (an empty group) and part 12's QOH is NULL;
#: one shipment names no part.
PARTS = [(3, 6), (10, 1), (8, 0), (11, 1), (12, None)]
SUPPLY = [
    (3, 4, "1979-07-03"),
    (3, 2, "1978-10-01"),
    (10, 1, "1978-06-08"),
    (10, 2, "1981-08-10"),
    (8, 5, "1983-05-07"),
    (None, 3, "1980-01-01"),
]

LEGS = [
    ("nested_iteration", "merge"),
    ("transform", "merge"),
    ("transform", "nested"),
    ("transform", "hash"),
]

STATEMENTS = {
    "max_minus_min": "SELECT MAX(QUAN) - MIN(QUAN) FROM SUPPLY",
    "count_star_plus_1": "SELECT COUNT(*) + 1 FROM SUPPLY",
    "negated_sum": "SELECT -SUM(QUAN) FROM SUPPLY",
    "count_plus_1_of_no_rows": "SELECT COUNT(*) + 1 FROM SUPPLY WHERE QUAN > 9",
    "sum_plus_1_of_no_rows": "SELECT SUM(QUAN) + 1 FROM SUPPLY WHERE QUAN > 9",
    "grouped_count_plus_1": "SELECT PNUM, COUNT(*) + 1 FROM SUPPLY GROUP BY PNUM",
    "grouped_max_minus_min": (
        "SELECT PNUM, MAX(QUAN) - MIN(QUAN) FROM SUPPLY GROUP BY PNUM"
    ),
    "grouped_negated_sum": "SELECT PNUM, -SUM(QUAN) FROM SUPPLY GROUP BY PNUM",
    "group_column_under_arithmetic": (
        "SELECT PNUM + 1, MAX(QUAN) * 2 FROM SUPPLY GROUP BY PNUM"
    ),
    "aggregate_before_group_column": (
        "SELECT COUNT(*), PNUM FROM SUPPLY GROUP BY PNUM"
    ),
    "having_shares_the_item": (
        "SELECT PNUM, COUNT(*) + 1 FROM SUPPLY GROUP BY PNUM HAVING COUNT(*) > 1"
    ),
    "type_a": (
        "SELECT PNUM FROM PARTS WHERE QOH < (SELECT MAX(QUAN) - 1 FROM SUPPLY)"
    ),
}

#: An aggregate over an expression: the single-level executor computes
#: the argument before its group operator, NEST-JA2 in its TEMP2.  The
#: flat and grouped statements raised ``PlanError`` under the transform.
AGGREGATE_ARGUMENTS = {
    "flat_sum_of_product": "SELECT SUM(QUAN * 2) FROM SUPPLY",
    "grouped_sum_of_sum": "SELECT PNUM, SUM(QUAN + 1) FROM SUPPLY GROUP BY PNUM",
    "type_a_max_of_product": (
        "SELECT PNUM FROM PARTS WHERE QOH < (SELECT MAX(QUAN * 2) FROM SUPPLY)"
    ),
    "type_ja_sum_of_product": (
        "SELECT PNUM FROM PARTS WHERE QOH < (SELECT SUM(QUAN * 2) FROM SUPPLY "
        "WHERE SUPPLY.PNUM = PARTS.PNUM)"
    ),
}

#: The COUNT bug in the shape of section 5.2.1: on an empty group the
#: block's value is COUNT(*) + 1 = 1, so part 11 (QOH 1, no shipment)
#: qualifies.
CORRELATED = (
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(*) + 1 FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM)"
)


def make_db(join_method: str = "merge") -> Database:
    db = Database(join_method=join_method)
    db.create_table("PARTS", ["PNUM", "QOH"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")])
    db.insert("PARTS", PARTS)
    db.insert("SUPPLY", SUPPLY)
    return db


def sqlite_bag(sql: str) -> Counter:
    connection = sqlite3.connect(":memory:")
    try:
        connection.execute("CREATE TABLE PARTS (PNUM, QOH)")
        connection.execute("CREATE TABLE SUPPLY (PNUM, QUAN, SHIPDATE)")
        connection.executemany("INSERT INTO PARTS VALUES (?, ?)", PARTS)
        connection.executemany("INSERT INTO SUPPLY VALUES (?, ?, ?)", SUPPLY)
        return Counter(connection.execute(sql).fetchall())
    finally:
        connection.close()


@pytest.mark.parametrize("method,join_method", LEGS)
@pytest.mark.parametrize("name", list(STATEMENTS))
def test_statement_agrees_with_sqlite(name, method, join_method):
    sql = STATEMENTS[name]
    report = make_db(join_method).run(sql, method=method)
    assert Counter(report.result.rows) == sqlite_bag(sql)


@pytest.mark.parametrize("join_method", ["merge", "nested", "hash"])
@pytest.mark.parametrize("method", ["nested_iteration", "transform", "auto"])
@pytest.mark.parametrize("name", list(AGGREGATE_ARGUMENTS))
def test_aggregate_of_an_expression_agrees_with_sqlite(name, method, join_method):
    sql = AGGREGATE_ARGUMENTS[name]
    db = make_db(join_method)
    expected = sqlite_bag(sql)
    assert Counter(db.run(sql, method=method).result.rows) == expected
    assert Counter(db.query(sql, method=method).rows) == expected


@pytest.mark.parametrize("join_method", ["merge", "nested", "hash"])
def test_correlated_count_plus_one_is_one_on_an_empty_group(join_method):
    """NEST-JA2 does not transform a type-JA block whose item is an
    expression (yet); under ``auto`` the block runs by nested iteration
    and answers as SQLite does."""
    report = make_db(join_method).run(CORRELATED, method="auto")
    assert report.method == "nested_iteration"
    assert Counter(report.result.rows) == sqlite_bag(CORRELATED) == Counter([(11,)])


class TestOneSlotPerAggregate:
    """HAVING and an item that share an aggregate call compute it once."""

    SQL = STATEMENTS["having_shares_the_item"]

    @pytest.mark.parametrize("join_method", ["merge", "hash"])
    def test_single_level_block(self, join_method, monkeypatch):
        specs: list = []
        for name in ("group_aggregate", "hash_group_aggregate"):
            real = getattr(executor_module, name)

            def spy(source, group_columns, aggregates, *args, real=real, **kwargs):
                specs.append(list(aggregates))
                return real(source, group_columns, aggregates, *args, **kwargs)

            monkeypatch.setattr(executor_module, name, spy)
        db = make_db(join_method)
        executor = SingleLevelExecutor(db.catalog, db.engine.config)
        block = prepare_query(parse(self.SQL), db.catalog)
        rows = executor.execute(block, Relation.to_list)
        assert Counter(rows) == sqlite_bag(self.SQL)
        (aggregates,) = specs
        assert [spec.func for spec in aggregates] == ["COUNT"]

    def test_nested_iteration(self, monkeypatch):
        calls: list[str] = []
        real = nested_iteration.compute_aggregate

        def spy(name, values, distinct=False):
            calls.append(name)
            return real(name, values, distinct)

        monkeypatch.setattr(nested_iteration, "compute_aggregate", spy)
        report = make_db().run(self.SQL, method="nested_iteration")
        assert Counter(report.result.rows) == sqlite_bag(self.SQL)
        # One COUNT per group: parts 3, 10, 8 and the NULL part.
        assert calls == ["COUNT"] * 4
