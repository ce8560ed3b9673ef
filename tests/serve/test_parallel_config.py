"""Concurrent clients through the serving layer.

A query runs on the thread that issued it; what the serving layer runs
in parallel is clients.  Four of them replaying one cached plan, one
prepared statement with each its own bind vector, or one
nested-iteration plan at once must each get the answer a lone client
gets.
"""

from collections import Counter

from repro.api import Database
from tests.clients import run_clients


def seed_db():
    db = Database(buffer_pages=128, join_method="hash")
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"])
    db.create_table("SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "text")])
    db.insert("PARTS", [(i, i % 4) for i in range(1, 120)])
    db.insert(
        "SUPPLY",
        [(i % 50, i % 6, "1979-06-0%d" % (1 + i % 9)) for i in range(400)],
    )
    return db


JA_SQL = (
    "SELECT PNUM FROM PARTS WHERE QOH = "
    "(SELECT COUNT(QUAN) FROM SUPPLY WHERE SUPPLY.PNUM = PARTS.PNUM "
    "AND QUAN > 2)"
)


class TestReplayEquivalence:
    def test_cached_parallel_replay_matches_serial(self):
        want = Counter(seed_db().execute_cached(JA_SQL).result.rows)
        db = seed_db()
        db.execute_cached(JA_SQL)
        replays = run_clients(4, lambda: db.execute_cached(JA_SQL))
        assert [Counter(run.result.rows) for run in replays] == [want] * 4
        assert len(db.plan_cache) == 1

    def test_prepared_statement_parallel(self):
        sql = (
            "SELECT PNUM FROM PARTS WHERE QOH = "
            "(SELECT COUNT(QUAN) FROM SUPPLY "
            "WHERE SUPPLY.PNUM = PARTS.PNUM AND QUAN > ?)"
        )
        lone = seed_db().prepare(sql)
        want = [Counter(lone.execute((q,)).result.rows) for q in range(4)]
        statement = seed_db().prepare(sql)
        cutoffs = iter(range(4))

        def client():
            cutoff = next(cutoffs)
            return cutoff, Counter(statement.execute((cutoff,)).result.rows)

        assert sorted(run_clients(4, client)) == list(enumerate(want))

    def test_nested_iteration_plan_kind(self):
        want = Counter(
            seed_db().execute_cached(JA_SQL, method="nested_iteration").result.rows
        )
        db = seed_db()
        replays = run_clients(
            4, lambda: db.execute_cached(JA_SQL, method="nested_iteration")
        )
        assert [Counter(run.result.rows) for run in replays] == [want] * 4
