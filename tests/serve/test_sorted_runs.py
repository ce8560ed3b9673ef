"""The sort of ``Ri`` for the final merge join is paid once: a sorted
run of a base table is one more registry entry, leased by every replay
while its table is unchanged and brought forward by an ordered merge of
what a commit added to it."""

from collections import Counter

import pytest

import repro.optimizer.executor as executor_module
from repro import Database
from repro.engine.sort import external_sort
from tests.core.test_page_schedule import PARTS, SHAPES, SUPPLY

CUTOFF = "1980-07-15"
SORT_FREE = ("n", "ja_count", "ja_max", "exists", "not_exists")


def make_db() -> Database:
    db = Database(buffer_pages=256)
    db.create_table("PARTS", ["PNUM", "QOH"], primary_key=["PNUM"], rows_per_page=10)
    db.create_table(
        "SUPPLY", ["PNUM", "QUAN", ("SHIPDATE", "date")], rows_per_page=10
    )
    db.insert("PARTS", PARTS)
    db.insert("SUPPLY", SUPPLY)
    return db


@pytest.fixture
def sorts(monkeypatch):
    calls: list[str] = []

    def counting(source, *args, **kwargs):
        calls.append(source.name)
        return external_sort(source, *args, **kwargs)

    monkeypatch.setattr(executor_module, "external_sort", counting)
    return calls


def sorted_run_keys(db: Database) -> list[tuple]:
    return [
        key[0]
        for key in db.plan_cache.sharing._entries
        if key[0][0] == "sorted"
    ]


@pytest.mark.parametrize("shape", SORT_FREE)
def test_second_replay_sorts_nothing(sorts, shape):
    db = make_db()
    statement = db.prepare(SHAPES[shape].format(c="?"))
    first = statement.execute((CUTOFF,))
    assert "PARTS" in sorts  # the one sort section 7.3 charges
    assert sorted_run_keys(db) == [("sorted", "PARTS", (0, 1))]
    del sorts[:]
    second = statement.execute((CUTOFF,))
    assert sorts == []
    # Every link the final block reads is leased; the upstream links of
    # a NEST-JA2 chain are reported in one "... not read" line.
    assert all(
        step.startswith("shared ") or step.endswith(" not read")
        for step in second.steps[:-1]
    )
    assert "shared sorted PARTS on (PARTS.PNUM" in second.steps[-1]
    # Every temp and the run leased: all that is written is the join's
    # result (at the parent: 60-330 pages of sort runs and candidates).
    assert second.io.page_writes <= 30
    assert Counter(second.result.rows) == Counter(first.result.rows)


def test_one_run_serves_every_key_list_it_starts_with(sorts):
    """``n`` asks for PARTS on (PNUM), ``ja_count`` on (PNUM, QOH): the
    sort breaks ties on the remaining columns, so one run is both."""
    db = make_db()
    db.prepare(SHAPES["n"].format(c="?")).execute((CUTOFF,))
    db.prepare(SHAPES["ja_count"].format(c="?")).execute((CUTOFF,))
    assert sorts.count("PARTS") == 1
    assert len(sorted_run_keys(db)) == 1


def test_inserts_keep_the_run_and_merge_into_it(sorts):
    db = make_db()
    sql = SHAPES["ja_count"].format(c=f"'{CUTOFF}'")
    db.execute_cached(sql)
    registry = db.plan_cache.sharing
    run = registry._entries[next(iter(
        key for key in registry._entries if key[0][0] == "sorted"
    ))]
    # One more shipment before the cutoff moves a COUNT, so a stale temp
    # would show as a wrong answer below; the run of PARTS is untouched.
    db.insert("SUPPLY", [(200, 1, "1979-01-01")])
    assert len(registry) == 3 and run.heap.num_rows == len(PARTS)
    del sorts[:]
    after = db.execute_cached(sql)
    assert "PARTS" not in sorts and "shared sorted PARTS" in after.steps[-1]
    oracle = db.run(sql, method="nested_iteration")
    assert Counter(after.result.rows) == Counter(oracle.result.rows)
    # An insert into PARTS: the next replay merges the new part into the
    # run instead of sorting PARTS again, and the old run is freed.
    db.insert("PARTS", [(0, 0)])
    after = db.execute_cached(sql)
    assert "PARTS" not in sorts
    assert "maintained sorted PARTS" in after.steps[-1]
    assert run.heap.num_rows == 0
    (merged,) = [e for k, e in registry._entries.items() if k[0][0] == "sorted"]
    assert list(merged.heap.scan()) == sorted(PARTS + [(0, 0)])
    oracle = db.run(sql, method="nested_iteration")
    assert Counter(after.result.rows) == Counter(oracle.result.rows)


def test_transactions_neither_lease_nor_publish_a_run(sorts):
    db = make_db()
    sql = SHAPES["ja_count"].format(c=f"'{CUTOFF}'")
    db.execute_cached(sql)  # a run a careless transaction could lease
    stats = db.cache_stats()
    del sorts[:]
    with db.begin() as txn:
        txn.insert("PARTS", [(999, 0)])
        with db.catalog.snapshots.pinned(txn.snapshot()):
            inside = db.execute_cached(sql)
        # Part 999 ships nothing, so COUNT = 0 = its QOH: only a scan
        # that sees the uncommitted row — not the leased run — has it.
        assert (999,) in inside.result.rows
        assert sorts.count("PARTS") == 1
        assert "shared" not in " ".join(inside.steps)
        assert len(sorted_run_keys(db)) == 1
        now = db.cache_stats()
        assert now.shared_materializations == stats.shared_materializations
        txn.rollback()
