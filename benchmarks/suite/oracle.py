"""Expected results from a stdlib ``sqlite3`` shadow of the generated rows.

The shadow is loaded from the same rows as the engine and runs the same
SQL text, so a wrong answer from any path (transform, nested iteration,
cached replay, stale memo after a commit) is a failed operation.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

from benchmarks.suite.workloads import Instance, Op, sql_text

Bag = Counter


def bag(rows) -> Bag:
    return Counter(tuple(row) for row in rows)


class Shadow:
    """SQLite copy of PARTS/SUPPLY that memoizes expected bags.

    Bags are cached per (shape, cutoff) and dropped on every insert, so
    a read is always compared with the state its position in the op
    sequence implies.
    """

    def __init__(self, instance: Instance) -> None:
        self.con = sqlite3.connect(":memory:")
        self.con.execute("CREATE TABLE PARTS (PNUM INTEGER, QOH INTEGER)")
        self.con.execute(
            "CREATE TABLE SUPPLY (PNUM INTEGER, QUAN INTEGER, SHIPDATE TEXT)"
        )
        self.con.executemany("INSERT INTO PARTS VALUES (?, ?)", instance.parts)
        self.con.execute("CREATE INDEX SUPPLY_PNUM ON SUPPLY (PNUM)")
        self.insert(instance.supply)
        self._expected: dict[tuple[str, str], Bag] = {}
        #: A shape whose expected bags are deliberately wrong
        #: (``--perturb-oracle``: proves that the check bites).
        self.perturbed_shape: str | None = None

    def close(self) -> None:
        self.con.close()

    def insert(self, rows) -> None:
        self.con.executemany("INSERT INTO SUPPLY VALUES (?, ?, ?)", rows)
        self._expected = {}

    def expected(self, shape: str, cutoff: str) -> Bag:
        key = (shape, cutoff)
        found = self._expected.get(key)
        if found is None:
            found = bag(self.con.execute(sql_text(shape, cutoff)).fetchall())
            if shape == self.perturbed_shape:
                found = found + Counter({(-1,): 1})
            self._expected[key] = found
        return found

    def supply_bag(self) -> Bag:
        return bag(self.con.execute("SELECT PNUM, QUAN, SHIPDATE FROM SUPPLY"))

    def matches(self, op: Op, rows) -> bool:
        return bag(rows) == self.expected(op.shape, op.arg)
